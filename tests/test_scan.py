from __future__ import annotations

import dataclasses
import importlib
import math
import os
import random
import re
import subprocess
import sys
import zlib
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

import metricdim
from metricdim import (
    Graph6Error,
    OrderTooLarge,
    Predicate,
    chain_order,
    decode_graph6,
    disjoint_union,
    edge_metric_dimension,
    edge_metric_dimension_naive,
    encode_graph6,
    enumerate_labeled_connected,
    make_chain,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    metric_dimension,
    metric_dimension_naive,
    ratio_witness,
    scan,
    verify_small_orders,
)
from metricdim.graph import Graph
from metricdim.scan import CheckpointMismatch, _census_order, _orbit_representatives, _pair_columns
from metricdim.verify import expected_chain_dims, ratio_dim, solved_dims
from conftest import (
    labelled_graphs,
    naive_results,
    random_connected_graph,
    reference_distances,
    relabel,
)


SCAN = importlib.import_module("metricdim.scan")
SOLVER = importlib.import_module("metricdim.solver")
needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="scan refuses jobs=2 with fewer than 2 CPUs"
)


def connected_labeled_count(n: int) -> int:
    """Counting oracle: peel the component of vertex 1 off all graphs.

    Every labelled graph on n vertices decomposes uniquely into the
    connected component containing the first vertex (k vertices) and an
    arbitrary graph on the rest, which yields a recurrence for the
    connected count.
    """
    counts = [0, 1]
    for m in range(2, n + 1):
        total = 1 << (m * (m - 1) // 2)
        for k in range(1, m):
            total -= (
                math.comb(m - 1, k - 1)
                * counts[k]
                * (1 << ((m - k) * (m - k - 1) // 2))
            )
        counts.append(total)
    return counts[n]


def test_predicate_parse_and_match():
    assert Predicate.parse("lt").matches(3, 2)
    assert not Predicate.parse("lt").matches(2, 2)
    assert Predicate.parse("gt").matches(2, 3)
    assert Predicate.parse("eq").matches(2, 2)
    assert Predicate.parse("diff:1").matches(3, 2)
    assert not Predicate.parse("diff:1").matches(2, 3)
    assert Predicate.parse("ratio:3/2").matches(3, 2)
    assert not Predicate.parse("ratio:2").matches(3, 2)
    assert Predicate.parse("ratio:5").matches(1, 0)
    for bad in ("", "lte", "diff", "ratio", "diff:x"):
        with pytest.raises(ValueError):
            Predicate.parse(bad)
    with pytest.raises(ValueError, match="unknown predicate kind 'bogus'"):
        Predicate("bogus")
    for text in ("lt", "gt", "eq", "diff:-1", "diff:0", "diff:2", "ratio:3/2", "ratio:2"):
        assert str(Predicate.parse(text)) == text
    assert str(Predicate.parse("ratio:1.5")) == "ratio:3/2"


def _sample_stream() -> list[str]:
    graphs = [
        make_complete(2),  # dim 1, edim 0: the lone edim < dim case
        make_path(3),
        make_cycle(4),
        make_complete(4),
        make_cycle(6),
        disjoint_union(make_path(2), make_path(2)),  # skipped: disconnected
    ]
    return [encode_graph6(g) for g in graphs]


def test_scan_counts_and_matches():
    lines = _sample_stream()
    report = scan(lines, Predicate.parse("lt"))
    assert report.total == 6
    assert report.decoded == 6
    assert report.connected == 5
    assert [m.line for m in report.matches] == [1]
    assert (report.matches[0].dim, report.matches[0].edim) == (1, 0)
    assert report.complete


def test_scan_counts_disconnected_records_without_a_separate_walk():
    # every labelled graph of order <= 5, disconnected ones included, then
    # two graphs past the lane walk's order limit, one of them disconnected
    graphs = [g for n in range(1, 6) for g in labelled_graphs(n)]
    graphs += [disjoint_union(make_path(9), make_path(9)), make_path(18)]
    report = scan([encode_graph6(g) for g in graphs], Predicate.parse("lt"))
    connected = [
        i + 1 for i, g in enumerate(graphs) if all(-1 not in row for row in reference_distances(g))
    ]
    assert len(connected) == sum(connected_labeled_count(n) for n in range(1, 6)) + 1
    assert (report.total, report.decoded, report.connected) == (len(graphs), len(graphs), len(connected))
    want = []
    for line in connected[:-1]:
        dim, edim = naive_results(graphs[line - 1])
        if edim.dimension < dim.dimension:
            want.append(line)
    assert [m.line for m in report.matches] == want


def test_scan_matches_reverify():
    report = scan(_sample_stream(), Predicate.parse("eq"))
    assert report.matches
    for m in report.matches:
        g = decode_graph6(m.record)
        assert metric_dimension(g).dimension == m.dim
        assert edge_metric_dimension(g).dimension == m.edim


def test_scan_accepts_glued_header_record():
    # a header marker glued to the first record still counts as a record
    report = scan([">>graph6<<A_", "Bw"], Predicate.parse("lt"))
    assert report.total == 2
    assert report.decoded == 2
    assert [m.line for m in report.matches] == [1]


def test_scan_lenient_and_strict():
    lines = ["A_", "??bad??", "Bw"]
    report = scan(lines, Predicate.parse("lt"))
    assert report.total == 3
    assert report.decoded == 2
    assert report.error_total == 1
    assert report.errors[0][0] == 2
    from metricdim import Graph6Error

    with pytest.raises(Graph6Error, match="line 2"):
        scan(lines, Predicate.parse("lt"), strict=True)


def test_scan_caps_retained_error_details():
    from metricdim.scan import MAX_ERROR_DETAILS

    lines = ["!"] * (MAX_ERROR_DETAILS + 50) + ["A_"]
    report = scan(lines, Predicate.parse("lt"))
    assert report.error_total == MAX_ERROR_DETAILS + 50
    assert len(report.errors) == MAX_ERROR_DETAILS
    assert report.decoded == 1


@needs_two_cpus
def test_scan_deterministic_across_jobs(monkeypatch):
    # a 2-worker scan gives the 1-worker report for every predicate kind, on
    # a stream with a header, a malformed line and a disconnected record
    rng = random.Random(79)
    lines = [
        encode_graph6(random_connected_graph(rng, rng.randrange(4, 9), extra=2))
        for _ in range(60)
    ]
    lines[:0] = [">>graph6<<", encode_graph6(make_gadget(6, 1, 2).graph)]
    lines.insert(20, "??bad??")
    lines.insert(40, encode_graph6(disjoint_union(make_path(2), make_path(3))))
    monkeypatch.setattr(SCAN, "BATCH_SIZE", 7)
    fields = ("total", "decoded", "connected", "error_total", "errors", "matches")
    for text in ("lt", "gt", "eq", "diff:1", "ratio:3/2"):
        serial = scan(lines, Predicate.parse(text))
        parallel = scan(lines, Predicate.parse(text), jobs=2)
        assert [getattr(parallel, f) for f in fields] == [getattr(serial, f) for f in fields], text
        assert (serial.total, serial.decoded, serial.connected) == (63, 62, 61)
        assert serial.errors == [(21, serial.errors[0][1])]
        if text in ("lt", "diff:1"):
            assert serial.matches[0].line == 2  # the gadget, the one edim < dim graph
    failures = []
    for jobs in (1, 2):
        with pytest.raises(Graph6Error) as exc:
            scan(lines, Predicate.parse("lt"), jobs=jobs, strict=True)
        failures.append(str(exc.value))
    assert failures[0] == failures[1]
    assert failures[0].startswith("line 21: ")


def test_import_and_one_worker_runs_load_no_process_pool(tmp_path):
    # the pool is imported inside scan() only when jobs > 1, so importing the
    # package and every 1-worker run stay free of concurrent.futures and
    # multiprocessing; with 2 CPUs the same child then runs a 2-worker scan
    src = str(Path(metricdim.__file__).resolve().parent.parent)
    code = (
        "import os, sys\n"
        "import metricdim\n"
        "from metricdim import Predicate, cli, scan, verify_small_orders\n"
        "from metricdim.verify import run_suites\n"
        "records = ['>>graph6<<', 'A_', '??bad??', 'Bw', 'C~', 'CK']\n"
        "serial = scan(records, Predicate.parse('lt'), checkpoint=sys.argv[1])\n"
        "assert (serial.total, serial.decoded, serial.connected) == (5, 4, 3)\n"
        "assert serial.error_total == 1 and serial.matches\n"
        "verify_small_orders(4)\n"
        "run_suites(['lemma3'])\n"
        "assert cli.main(['both', '--g6', 'A_']) == 0\n"
        "print('loaded:', *(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
        "if (os.cpu_count() or 1) >= 2:\n"
        "    parallel = scan(records, Predicate.parse('lt'), jobs=2)\n"
        "    fields = ('total', 'decoded', 'connected', 'error_total', 'errors', 'matches')\n"
        "    assert [getattr(parallel, f) for f in fields] == [getattr(serial, f) for f in fields]\n"
        "    print('pooled:', 'concurrent.futures' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "scan.ckpt")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["dim=1 edim=0", "loaded:"]
    assert (tmp_path / "scan.ckpt").read_text().startswith("predicate=lt\nlast_line_processed=6\n")
    if (os.cpu_count() or 1) >= 2:
        assert lines[2:] == ["pooled: True"]


# Independent statement of each predicate, over exact integers only.
_PREDICATE_ORACLES = {
    "lt": lambda d, e: e < d,
    "gt": lambda d, e: e > d,
    "eq": lambda d, e: e == d,
    "diff:-2": lambda d, e: d - e == -2,
    "diff:-1": lambda d, e: d - e == -1,
    "diff:0": lambda d, e: d == e,
    "diff:1": lambda d, e: d - e == 1,
    "diff:2": lambda d, e: d - e == 2,
    "ratio:0": lambda d, e: d > 0 if e == 0 else True,
    "ratio:1": lambda d, e: d > 0 if e == 0 else d >= e,
    "ratio:3/2": lambda d, e: d > 0 if e == 0 else 2 * d >= 3 * e,
    "ratio:2": lambda d, e: d > 0 if e == 0 else d >= 2 * e,
}


def test_predicate_windows_match_oracle():
    # matches() is derived from edim_window(); every window, empty ones
    # included, must accept exactly the pairs the oracle accepts
    for text, oracle in _PREDICATE_ORACLES.items():
        pred = Predicate.parse(text)
        for d in range(9):
            for e in range(9):
                assert pred.matches(d, e) == oracle(d, e), (text, d, e)


def test_scan_predicates_match_naive_oracle():
    # every kind of predicate, evaluated dim first with a capped edge
    # search, must report exactly the graphs and dimensions that the naive
    # solvers give; the gadgets are the rare edim < dim graphs
    rng = random.Random(97)
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_connected(n)]
    for _ in range(300):
        n = rng.randrange(6, 12)
        graphs.append(random_connected_graph(rng, n, extra=rng.randrange(0, 2 * n)))
    for params in ((6, 1, 2), (6, 1, 3)):
        gadget = make_gadget(*params).graph
        for _ in range(3):
            perm = list(range(gadget.n))
            rng.shuffle(perm)
            graphs.append(relabel(gadget, perm))
    rng.shuffle(graphs)
    # twin-forced graphs of orders 13 to 16 send every capped edge search to
    # the split instead of the whole-graph lattice
    for params in ((5, 1, 6), (6, 1, 5), (6, 2, 5), (7, 1, 5), (8, 1, 5), (5, 2, 7)):
        gadget = make_gadget(*params).graph
        perm = list(range(gadget.n))
        rng.shuffle(perm)
        graphs.append(relabel(gadget, perm))
    for n in (13, 14, 15, 16, 16):
        g = random_connected_graph(rng, n - 1, extra=rng.randrange(0, n))
        v = rng.randrange(n - 1)  # vertex n - 1 is planted as its twin, adjacent or not
        twin = [(u, n - 1) for u in g.neighbors(v)] + [(v, n - 1)] * rng.randrange(2)
        graphs.append(Graph.from_edges(n, [*g.edges, *twin]))
    lines = [encode_graph6(g) for g in graphs]
    dims = [
        (metric_dimension_naive(g).dimension, edge_metric_dimension_naive(g).dimension)
        for g in graphs
    ]
    for text, oracle in _PREDICATE_ORACLES.items():
        report = scan(lines, Predicate.parse(text))
        expected = [
            (line, d, e)
            for line, (d, e) in enumerate(dims, start=1)
            if oracle(d, e)
        ]
        assert [(m.line, m.dim, m.edim) for m in report.matches] == expected, text
        assert report.connected == len(graphs)


def test_solved_dims_caps_the_edge_search_at_the_window_top(monkeypatch):
    # the oracle test cannot see the caps: an edge search capped one above
    # the window, run on an empty window or never capped finds the same
    # matches, only slower
    calls = []
    solve = SOLVER._dimension

    def recorded(g, kind, max_k=None):
        calls.append((kind, max_k))
        return solve(g, kind, max_k)

    monkeypatch.setattr(SOLVER, "_dimension", recorded)
    graphs = [Graph(1, [0]), make_path(4), make_cycle(6), make_complete(5)]
    graphs += [make_gadget(*p).graph for p in ((6, 1, 2), (5, 1, 2), (6, 1, 5))]
    capped = skipped = 0
    for text in [*_PREDICATE_ORACLES, "diff:5"]:
        pred = Predicate.parse(text)
        for g in graphs:
            dim = metric_dimension(g).dimension
            lo, hi = pred.edim_window(dim)
            edge = [] if hi is not None and hi < lo else [("edge", hi)]
            calls.clear()
            scan([encode_graph6(g)], pred)
            assert calls == [("vertex", None), *edge], (text, encode_graph6(g))
            capped += edge != [] and hi is not None
            skipped += edge == []
    assert capped > 50 and skipped > 10
    for g in graphs:  # no window: one uncapped solve per kind
        calls.clear()
        solved_dims(g)
        assert calls == [("vertex", None), ("edge", None)]
    calls.clear()
    _census_order(4)
    assert set(calls) == {("vertex", None), ("edge", None)}


def test_scan_checkpoint_resume(tmp_path, monkeypatch):
    lines = _sample_stream()
    ckpt = tmp_path / "scan.ckpt"
    monkeypatch.setattr(SCAN, "CHECKPOINT_EVERY", 1)
    partial = scan(lines[:3], Predicate.parse("lt"), checkpoint=str(ckpt))
    assert ckpt.exists()
    assert partial.total == 3
    resumed = scan(lines, Predicate.parse("lt"), checkpoint=str(ckpt))
    assert resumed.resumed_from == 3
    fresh = scan(lines, Predicate.parse("lt"))
    assert resumed.total == fresh.total
    assert resumed.decoded == fresh.decoded
    assert resumed.connected == fresh.connected
    assert resumed.matches == fresh.matches
    # resuming a finished scan re-reads nothing and keeps the report intact
    again = scan(lines, Predicate.parse("lt"), checkpoint=str(ckpt))
    assert again.resumed_from == len(lines)
    assert again.total == fresh.total
    assert again.matches == fresh.matches


@needs_two_cpus
def test_scan_parallel_checkpointing(tmp_path, monkeypatch):
    rng = random.Random(89)
    lines = [
        encode_graph6(random_connected_graph(rng, rng.randrange(4, 8), extra=2))
        for _ in range(30)
    ]
    ckpt = tmp_path / "par.ckpt"
    monkeypatch.setattr(SCAN, "BATCH_SIZE", 4)
    monkeypatch.setattr(SCAN, "CHECKPOINT_EVERY", 8)
    first = scan(lines, Predicate.parse("eq"), jobs=2, checkpoint=str(ckpt))
    assert ckpt.exists()
    again = scan(lines, Predicate.parse("eq"), checkpoint=str(ckpt))
    assert again.resumed_from == 30
    assert again.matches == first.matches
    assert again.total == first.total == 30


def test_scan_handles_io_failure(tmp_path):
    def broken():
        yield "A_"
        raise OSError("disk gone")

    report = scan(broken(), Predicate.parse("lt"))
    assert not report.complete
    assert report.total == 1
    assert report.io_error == "disk gone"
    assert [m.line for m in report.matches] == [1]
    # a checkpoint that cannot be written ends the scan the same way
    ckpt = tmp_path / "no-such-dir" / "scan.ckpt"
    report = scan(_sample_stream(), Predicate.parse("lt"), checkpoint=str(ckpt))
    assert not report.complete
    assert str(ckpt) in report.io_error


def _summary(report) -> tuple:
    return report.total, report.decoded, report.connected, report.error_total, report.matches


def test_scan_input_failure_finishes_every_record_read(tmp_path, monkeypatch):
    # records read before the input fails are all solved and checkpointed,
    # whatever the batch size or the worker count, and a resume over the
    # whole stream then reports what a fresh scan does
    rng = random.Random(101)
    lines = [
        encode_graph6(random_connected_graph(rng, rng.randrange(4, 9), extra=2))
        for _ in range(250)
    ]
    lines[17] = "??bad??"
    lines[60] = ""
    pred = Predicate.parse("eq")
    before = scan(lines[:200], pred)
    fresh = scan(lines, pred)
    assert before.matches and before.error_total == 1

    def broken():
        yield from lines[:200]
        raise OSError("disk gone")

    for jobs in range(1, min(2, os.cpu_count() or 1) + 1):
        for size in (1, 7, 512):
            monkeypatch.setattr(SCAN, "BATCH_SIZE", size)
            ckpt = tmp_path / f"{jobs}-{size}.ckpt"
            cut = scan(broken(), pred, jobs=jobs, checkpoint=str(ckpt))
            assert (cut.complete, cut.io_error) == (False, "disk gone")
            assert _summary(cut) == _summary(before)
            assert cut.errors == before.errors
            resumed = scan(lines, pred, jobs=jobs, checkpoint=str(ckpt))
            assert resumed.complete and resumed.resumed_from == 200
            assert _summary(resumed) == _summary(fresh)


def test_scan_refuses_a_checkpoint_of_another_predicate(tmp_path):
    lines = _sample_stream()
    ckpt = tmp_path / "scan.ckpt"
    scan(lines[:3], Predicate.parse("eq"), checkpoint=str(ckpt))
    assert "predicate=eq\n" in ckpt.read_text()
    with pytest.raises(CheckpointMismatch, match=re.escape(str(ckpt))):
        scan(lines, Predicate.parse("gt"), checkpoint=str(ckpt))
    # a checkpoint without a predicate line is refused too
    kept = [l for l in ckpt.read_text().splitlines(keepends=True) if not l.startswith("predicate=")]
    ckpt.write_text("".join(kept))
    with pytest.raises(CheckpointMismatch, match="no predicate"):
        scan(lines, Predicate.parse("eq"), checkpoint=str(ckpt))


def test_scan_refuses_a_checkpoint_of_another_input(tmp_path):
    lines = _sample_stream()
    lt = Predicate.parse("lt")
    ckpt = tmp_path / "scan.ckpt"
    partial = scan(lines[:3], lt, checkpoint=str(ckpt))
    key = f"first_record=1\t{zlib.crc32(lines[0].encode())}\n"
    assert key in ckpt.read_text()
    # another first record, or the same one on another line, is refused
    for other in (lines[1:], ["", *lines]):
        with pytest.raises(CheckpointMismatch, match=re.escape(str(ckpt))):
            scan(other, lt, checkpoint=str(ckpt))
    # a source with no record resumes, and keeps the key
    empty = scan(iter(()), lt, checkpoint=str(ckpt))
    assert (empty.resumed_from, empty.total, empty.matches) == (3, 3, partial.matches)
    assert key in ckpt.read_text()
    # so does a checkpoint without the key, which the resume then writes
    kept = [l for l in ckpt.read_text().splitlines(keepends=True) if l != key]
    ckpt.write_text("".join(kept))
    resumed = scan(lines, lt, checkpoint=str(ckpt))
    assert _summary(resumed) == _summary(scan(lines, lt))
    assert key in ckpt.read_text()


def test_scan_refuses_jobs_below_one():
    def unread():
        raise AssertionError("the source was read")
        yield

    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            scan(unread(), Predicate.parse("lt"), jobs=jobs)


def test_scan_refuses_more_jobs_than_cpus():
    # refused before the source is read or a pool is built
    def unread():
        raise AssertionError("the source was read")
        yield

    with pytest.raises(ValueError, match="jobs"):
        scan(unread(), Predicate.parse("lt"), jobs=(os.cpu_count() or 1) + 1)


def test_scan_agrees_with_census_on_exhaustive_stream():
    # two independent pipelines over all labelled connected order-5 graphs:
    # the census histogram and a full scan must see the same world
    lines = [encode_graph6(g) for g in enumerate_labeled_connected(5)]
    report = scan(lines, Predicate.parse("lt"))
    census = verify_small_orders(5)
    assert report.connected == census.graphs_checked[5] == 728
    assert not report.matches
    assert census.violation_free
    eq_report = scan(lines, Predicate.parse("eq"))
    assert len(eq_report.matches) == census.histograms[5].get(0, 0)


def test_scan_isomorphism_free_atlas_stream():
    # the graph atlas is an external isomorphism-free census up to order 7,
    # the same shape of stream the big reproductions consume
    import networkx as nx

    from metricdim import Graph

    by_order = {n: 0 for n in range(3, 8)}
    lines = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 3 or not nx.is_connected(g):
            continue
        relabelled = nx.convert_node_labels_to_integers(g)
        lines.append(encode_graph6(Graph.from_edges(n, relabelled.edges())))
        by_order[n] += 1
    assert by_order == {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    report = scan(lines, Predicate.parse("lt"))
    assert report.connected == sum(by_order.values())
    assert not report.matches


def test_enumerate_counts_match_recurrence():
    assert [connected_labeled_count(n) for n in range(1, 5)] == [1, 1, 4, 38]
    for n in range(1, 6):
        graphs = list(enumerate_labeled_connected(n))
        assert len(graphs) == connected_labeled_count(n)
        assert len({g.adj for g in graphs}) == len(graphs)
    with pytest.raises(OrderTooLarge):
        next(enumerate_labeled_connected(8))


def test_verify_small_orders_basic():
    report = verify_small_orders(4)
    assert report.violation_free
    assert report.graphs_checked == {3: 4, 4: 38}
    for hist in report.histograms.values():
        assert all(gap <= 0 for gap in hist)
        assert sum(hist.values()) in (4, 38)
    with pytest.raises(OrderTooLarge):
        verify_small_orders(8)
    with pytest.raises(OrderTooLarge):
        verify_small_orders(2)


def _image_masks(images: int, n: int) -> set[int]:
    code, size, _, _ = _pair_columns(n)
    return set(array(code, images.to_bytes(size, sys.byteorder)))


def test_relabelling_orbit_sizes():
    for n in range(3, 8):
        pairs = list(combinations(range(n), 2))
        sizes = {rep: size for rep, size, _ in _orbit_representatives(n)}
        columns = _pair_columns(n)[3]

        def orbit_size(edges) -> int:
            orbit = _image_masks(sum(columns[pairs.index(e)] for e in edges), n)
            assert sizes[max(orbit)] == len(orbit)
            return len(orbit)

        assert orbit_size([]) == 1
        assert orbit_size(pairs) == 1
        assert orbit_size([(v, v + 1) for v in range(n - 1)]) == math.factorial(n) // 2
        assert orbit_size([(0, v) for v in range(1, n)]) == n


def _relabelled_masks(mask: int, n: int) -> list[int]:
    """The mask of each relabelling of an order-n edge set, brute force.

    Pair j of ``combinations(range(n), 2)`` is bit j of the mask.
    """
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << j for j, pair in enumerate(pairs)}
    edges = [pair for pair in pairs if mask & bit[pair]]
    return [
        sum(bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
        for p in permutations(range(n))
    ]


def test_orbits_partition_edge_masks_into_isomorphism_classes():
    # orbit counts are the numbers of graphs (OEIS A000088) and of connected
    # graphs (A001349) up to isomorphism; up to order 5 each orbit is also
    # recomputed by relabelling its representative pair by pair
    graphs = {3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    connected = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n in range(3, 8):
        pairs = list(combinations(range(n), 2))
        found = linked = 0
        for rep, size, images in _orbit_representatives(n):
            found += 1
            edges = [pair for j, pair in enumerate(pairs) if rep >> j & 1]
            reach = {0}
            for _ in range(n):
                reach |= {w for u, v in edges if u in reach or v in reach for w in (u, v)}
            linked += len(reach) == n
            if n <= 5:
                relabelled = set(_relabelled_masks(rep, n))
                orbit = _image_masks(images, n)
                assert orbit == relabelled and rep == max(relabelled)
                assert size == len(orbit)
        assert (found, linked) == (graphs[n], connected[n])


def test_orderly_generation_yields_each_max_canonical_mask_once():
    # the representatives are exactly the masks that no relabelling
    # exceeds, each with orbit size n!/|Aut|, |Aut| counted by brute force
    for n in range(1, 8):
        orbits = [(rep, size) for rep, size, _ in _orbit_representatives(n)]
        assert sum(size for _, size in orbits) == 1 << n * (n - 1) // 2
        assert len({rep for rep, _ in orbits}) == len(orbits)
        if n <= 5:
            canonical = {}
            for mask in range(1 << n * (n - 1) // 2):
                images = _relabelled_masks(mask, n)
                if mask == max(images):
                    canonical[mask] = math.factorial(n) // images.count(mask)
            assert dict(orbits) == canonical


def test_orbit_coverage_check_rejects_a_corrupted_column(monkeypatch):
    scan_module = importlib.import_module("metricdim.scan")
    code, size, ones, columns = _pair_columns(4)
    broken = (code, size, ones, [columns[0] & ~ones, *columns[1:]])
    monkeypatch.setattr(scan_module, "_pair_columns", lambda n: broken)
    with pytest.raises(AssertionError, match="order-4 orbits cover"):
        list(_orbit_representatives(4))


def test_census_matches_naive_oracle():
    report = verify_small_orders(5)
    for n in range(3, 6):
        hist = Counter()
        for g in enumerate_labeled_connected(n):
            naive_dim, naive_edim = naive_results(g)
            hist[naive_dim.dimension - naive_edim.dimension] += 1
        assert report.histograms[n] == dict(hist)
        assert report.graphs_checked[n] == sum(hist.values())
    assert report.violations == []


def test_census_walks_no_orbit_too_sparse_to_connect(monkeypatch):
    # fewer than n - 1 edges cannot connect n vertices, so such a
    # representative gets no Graph and no lane walk: 173 walks for the 205
    # representatives of orders 3 to 6
    walks = Counter()
    real = Graph._lane_signatures

    def counted(self):
        walks[self.n] += 1
        return real(self)

    monkeypatch.setattr(Graph, "_lane_signatures", counted)
    results = {n: _census_order(n) for n in range(3, 7)}
    assert sum(walks.values()) == 173
    for n in range(3, 7):
        reps = [rep for rep, _, _ in _orbit_representatives(n)]
        assert walks[n] == sum(rep.bit_count() >= n - 1 for rep in reps)
    assert sum(len(list(_orbit_representatives(n))) for n in range(3, 7)) == 205
    # orders 3-5 as test_census_matches_naive_oracle finds them by the naive
    # oracle, order 6 as c07 pins it
    assert results == {
        3: ({0: 4}, []),
        4: ({-1: 6, 0: 32}, []),
        5: ({-2: 15, -1: 305, 0: 408}, []),
        6: ({-2: 4947, -1: 14945, 0: 6812}, []),
    }


def _edge_solve_shifted(shift):
    """The solver's witness-free solve with every edim passed through ``shift``."""
    solve = SOLVER._dimension

    def shifted(g, kind, max_k=None):
        dim = solve(g, kind, max_k)
        return dim if kind == "vertex" else shift(dim)

    return shifted


def test_census_self_check_rejects_a_wrong_edim(monkeypatch):
    # an edim below dim sends the whole orbit to the naive oracle
    monkeypatch.setattr(SOLVER, "_dimension", _edge_solve_shifted(lambda edim: edim - 2))
    with pytest.raises(AssertionError, match="census solver disagrees"):
        verify_small_orders(4)


def test_census_lists_every_labelled_offender_in_mask_order(monkeypatch):
    # a solver and oracle that both read an edim of 3 or more as 2 lower make
    # offending orbits; the census lists each of their labelled members, in
    # the edge-mask order of enumerate_labeled_connected
    def lowered(edim):
        return edim if edim < 3 else edim - 2

    def lowered_naive(g):
        res = edge_metric_dimension_naive(g)
        return dataclasses.replace(res, dimension=lowered(res.dimension))

    monkeypatch.setattr(SOLVER, "_dimension", _edge_solve_shifted(lowered))
    monkeypatch.setattr(SCAN, "edge_metric_dimension_naive", lowered_naive)
    expected = []
    for n in range(3, 6):
        for g in enumerate_labeled_connected(n):
            dim, edim = (res.dimension for res in naive_results(g))
            if 3 <= edim < dim + 2:
                expected.append((n, encode_graph6(g)))
    assert len(expected) > 100
    assert verify_small_orders(5).violations == expected


def test_census_self_check_re_solves_sampled_members(monkeypatch):
    # an edim raised by one leaves every orbit inoffensive, so only the
    # sampled labelled graphs catch it: one connected mask at each of the
    # orders 3 to 5 (5, 53 and 757), three at order 6 and 188 at order 7
    monkeypatch.setattr(SOLVER, "_dimension", _edge_solve_shifted(lambda edim: edim + 1))
    for n in range(3, 8):
        with pytest.raises(AssertionError, match="census solver disagrees"):
            _census_order(n)


def test_verify_small_orders_jobs_agree():
    serial = verify_small_orders(4)
    parallel = verify_small_orders(4, jobs=2)
    assert serial.histograms == parallel.histograms
    assert serial.violations == parallel.violations


def test_ratio_witness_targets():
    w = ratio_witness(2)
    assert w.copies == 2
    assert (ratio_dim(2), 2) == (4, 2) == expected_chain_dims(6, 2, w.copies)
    assert solved_dims(w) == (4, 2)
    assert w.graph.n == chain_order(6, 1, 2, 2)

    w1 = ratio_witness(1)
    assert w1.copies == 1
    assert Fraction(ratio_dim(1), 2) == Fraction(3, 2)

    w3 = ratio_witness(3)
    assert w3.copies == 4
    assert (ratio_dim(3), 2) == (6, 2) == expected_chain_dims(6, 2, w3.copies)
    assert solved_dims(w3) == (6, 2)

    with pytest.raises(ValueError):
        ratio_witness(Fraction(1, 2))


def test_chain_prediction_consistency():
    # the witness construction chains even-cycle gadgets; solver agrees for 2 copies
    chain = make_chain(6, 1, 2, 2).graph
    assert metric_dimension(chain).dimension == 4
    assert edge_metric_dimension(chain).dimension == 2
