"""Acceptance suite: one test per shipping criterion, zero value tolerance.

Each criterion prints a single ``ACCEPTANCE`` line with its wall time.
Stated time budgets are printed next to the measurement; correctness is
asserted exactly.  The two stream-reproduction criteria need externally
generated exhaustive graph6 streams and skip with instructions when the
corresponding environment variables are unset:

  METRICDIM_ORDER10_G6   path to all connected order-10 graphs (graph6)
  METRICDIM_ORDER11_G6   path to all connected order-11 graphs (graph6)
  METRICDIM_RUN_ORDER11  set to 1 to opt into the multi-hour order-11 run
  METRICDIM_SCAN_JOBS    worker processes for the stream scans (default 1)
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager

import pytest

from metricdim import (
    Graph6Error,
    Predicate,
    canonical_basis,
    cartesian_product,
    decode_graph6,
    edge_metric_dimension,
    encode_graph6,
    enumerate_labeled_connected,
    is_edge_metric_generator,
    is_metric_generator,
    make_chain,
    make_complete,
    make_cycle,
    make_path,
    metric_dimension,
    ratio_witness,
    realize,
    scan,
    verify_small_orders,
)
from metricdim.verify import ratio_dim
from conftest import naive_results, random_connected_graph


@contextmanager
def criterion(number: int, name: str, budget: str = ""):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    note = f" [target {budget}]" if budget else ""
    print(
        f"ACCEPTANCE {number:02d} {name}: PASS ({time.monotonic() - start:.1f}s{note})"
    )


def test_c01_parity_grid():
    with criterion(1, "gadget dim/edim across the full parity grid", "<60s"):
        for n1 in range(5, 11):
            for n2 in (1, 2, 3):
                for n3 in (2, 3, 4):
                    g = make_chain(n1, n2, n3, 1).graph
                    dim = metric_dimension(g).dimension
                    edim = edge_metric_dimension(g).dimension
                    assert dim == n3 + (1 - n1 % 2), (n1, n2, n3, dim)
                    assert edim == n3 + (n1 % 2), (n1, n2, n3, edim)


def test_c02_chain_conformance():
    with criterion(2, "chain dim/edim for 1..3 copies", "<10min"):
        for n1 in (5, 6):
            for ell in (1, 2, 3):
                expected_dim = 2 if n1 == 5 else 2 + ell
                expected_edim = 2 + ell if n1 == 5 else 2
                chain = make_chain(n1, 1, 2, ell).graph
                vb = canonical_basis(n1, 1, 2, ell, kind="vertex")
                eb = canonical_basis(n1, 1, 2, ell, kind="edge")
                assert len(vb) == expected_dim and len(eb) == expected_edim
                assert is_metric_generator(chain, vb)
                assert is_edge_metric_generator(chain, eb)
                assert metric_dimension(chain, max_k=expected_dim - 1) is None
                if expected_edim:
                    assert (
                        edge_metric_dimension(chain, max_k=expected_edim - 1) is None
                    )


def test_c03_realization_spot_checks():
    with criterion(3, "realize hits exact order and both dimensions"):
        for r, t, orders in ((2, 4, (20, 21, 25)), (4, 2, (22, 23, 27))):
            for n in orders:
                fam = realize(r, t, n)
                assert fam.graph.n == n
                assert metric_dimension(fam.graph).dimension == r
                assert edge_metric_dimension(fam.graph).dimension == t


def test_c04_ratio_witness():
    with criterion(4, "ratio witness reaches dim/edim >= 3"):
        w = ratio_witness(3)
        assert ratio_dim(3) == 6 and w.copies == 4
        chain = w.graph
        vb = canonical_basis(6, 1, 2, w.copies, kind="vertex")
        eb = canonical_basis(6, 1, 2, w.copies, kind="edge")
        assert len(vb) == 6 and len(eb) == 2
        assert is_metric_generator(chain, vb)
        assert is_edge_metric_generator(chain, eb)
        assert metric_dimension(chain, max_k=5) is None
        assert edge_metric_dimension(chain, max_k=1) is None


def test_c05_torus_product():
    with criterion(5, "C8 x C8 has edim 3 < 4 = dim", "<15min"):
        torus = cartesian_product(make_cycle(8), make_cycle(8))
        assert edge_metric_dimension(torus).dimension == 3
        assert metric_dimension(torus).dimension == 4


def test_c06_k2_and_paths():
    with criterion(6, "K2 and paths"):
        k2 = make_complete(2)
        assert metric_dimension(k2).dimension == 1
        assert edge_metric_dimension(k2).dimension == 0
        for n in range(3, 11):
            p = make_path(n)
            assert metric_dimension(p).dimension == 1
            assert edge_metric_dimension(p).dimension == 1


def test_c07_small_order_universality():
    with criterion(7, "no connected graph with 3 <= n <= 7 has edim < dim", "<5min"):
        jobs = min(8, os.cpu_count() or 1)
        report = verify_small_orders(7, jobs=jobs)
        assert report.violation_free, report.violations
        assert report.graphs_checked[3] == 4
        assert report.graphs_checked[4] == 38
        assert all(gap <= 0 for hist in report.histograms.values() for gap in hist)
        # labelled connected graphs per order (OEIS A001187), and the dim - edim
        # histograms of orders 6 and 7 as the per-mask labelled census gave them
        assert report.graphs_checked == {3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
        assert report.histograms[6] == {-2: 4947, -1: 14945, 0: 6812}
        assert report.histograms[7] == {-3: 23457, -2: 665791, -1: 978302, 0: 198706}


def _stream_scan(path: str, expected_matches: int, number: int, name: str, budget: str):
    jobs = int(os.environ.get("METRICDIM_SCAN_JOBS", "1"))
    with criterion(number, name, budget):
        with open(path, "rb") as fh:
            report = scan(
                fh,
                Predicate.parse("lt"),
                jobs=jobs,
                checkpoint=path + ".ckpt",
            )
        assert report.complete
        assert len(report.matches) == expected_matches, [
            m.record for m in report.matches
        ]
        for m in report.matches:
            g = decode_graph6(m.record)
            assert metric_dimension(g).dimension == m.dim
            assert edge_metric_dimension(g).dimension == m.edim


def test_c08_order10_reproduction():
    path = os.environ.get("METRICDIM_ORDER10_G6")
    if not path:
        pytest.skip(
            "set METRICDIM_ORDER10_G6 to a graph6 stream of all connected "
            "order-10 graphs (e.g. geng -c 10)"
        )
    _stream_scan(path, 5, 8, "order-10 stream has exactly 5 edim<dim graphs", "<2h/8w")


def test_c09_order11_reproduction():
    path = os.environ.get("METRICDIM_ORDER11_G6")
    if not path or os.environ.get("METRICDIM_RUN_ORDER11") != "1":
        pytest.skip(
            "opt-in: set METRICDIM_ORDER11_G6 and METRICDIM_RUN_ORDER11=1 "
            "for the multi-hour order-11 reproduction"
        )
    _stream_scan(path, 61, 9, "order-11 stream has exactly 61 edim<dim graphs", "hours")


def test_c10_oracle_equivalence():
    with criterion(10, "fast solver equals the naive oracle"):
        for n in range(1, 7):
            for g in enumerate_labeled_connected(n):
                naive_dim, naive_edim = naive_results(g)
                assert metric_dimension(g).dimension == naive_dim.dimension
                assert edge_metric_dimension(g).dimension == naive_edim.dimension
        rng = random.Random(97)
        for _ in range(1000):
            n = rng.randrange(8, 13)
            g = random_connected_graph(rng, n, extra=rng.randrange(0, n))
            naive_dim, naive_edim = naive_results(g)
            assert metric_dimension(g).dimension == naive_dim.dimension
            assert edge_metric_dimension(g).dimension == naive_edim.dimension


def test_c11_codec():
    with criterion(11, "graph6 codec round-trip, reference bytes, decode fuzz"):
        assert encode_graph6(make_complete(2)) == "A_"
        assert encode_graph6(make_complete(3)) == "Bw"
        assert encode_graph6(make_path(3)) == "Bg"
        rng = random.Random(101)
        for _ in range(10_000):
            n = rng.randrange(1, 81)
            g = random_connected_graph(rng, n, extra=rng.randrange(0, 12))
            assert decode_graph6(encode_graph6(g)) == g
        for _ in range(10_000):
            blob = bytes(rng.randrange(0, 256) for _ in range(rng.randrange(0, 14)))
            try:
                decode_graph6(blob)
            except Graph6Error:
                pass
