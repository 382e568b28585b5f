from __future__ import annotations

import math
from fractions import Fraction

import pytest

from metricdim import (
    edge_metric_dimension,
    is_edge_metric_generator,
    is_metric_generator,
    make_chain,
    make_gadget,
    metric_dimension,
    verify,
)
from metricdim.verify import (
    GRIDS,
    SUITES,
    certify_chain,
    expected_chain_dims,
    ratio_witness,
    ratio_dim,
    run_suites,
    solved_dims,
)
from metricdim.cli import main
from metricdim.families import FamilyGraph


def test_expected_dims_by_parity():
    assert expected_chain_dims(5, 2) == (2, 3)
    assert expected_chain_dims(6, 2) == (3, 2)
    assert expected_chain_dims(5, 2, 3) == (2, 5)
    assert expected_chain_dims(6, 2, 3) == (5, 2)


def test_grid_sizes():
    assert len(GRIDS["small"].gadgets) == 8
    # 6 cycle lengths x 3 tail lengths x 3 pendant counts
    assert len(GRIDS["full"].gadgets) == 54
    # the grid is looked up once, before any suite runs, theorem2 included
    for names in (None, ["theorem2"], []):
        with pytest.raises(ValueError, match="grid must be one of small, full, got 'huge'"):
            run_suites(names, grid="huge")


def test_suites_get_the_grid_itself(monkeypatch):
    seen = []
    monkeypatch.setitem(SUITES, "probe", lambda grid, gadget, dims: seen.append(grid) or ())
    for name in GRIDS:
        (res,) = run_suites(["probe"], grid=name)
        assert res.passed and not res.rows
        assert seen.pop() is GRIDS[name]


def test_all_suites_pass_on_small_grid():
    results = run_suites(grid="small")
    assert [r.name for r in results] == list(SUITES)
    for res in results:
        assert res.passed, res.rows
        assert res.rows


def test_lemma6_full_grid():
    # every chain is solved outright, the order-30 to order-36 ones included
    (res,) = run_suites(["lemma6"], grid="full")
    assert res.passed, res.rows
    assert len(res.rows) == 9


def test_certify_chain_detects_wrong_expectation():
    ok, _, expected = certify_chain(make_chain(5, 1, 2, 2))
    assert ok and expected == (2, 4)
    # rows of one cycle parity labelled as copies of the other: the solve
    # contradicts the dims the labels predict
    for n1, ell, claimed, predicted, solved in (
        (5, 2, (6, 1, 2), (4, 2), (2, 4)),
        (6, 4, (5, 1, 2), (2, 6), (6, 2)),
    ):
        rows = make_chain(n1, 1, 2, ell)
        mislabelled = FamilyGraph(rows.n, rows.adj, (claimed,) * ell)
        assert certify_chain(mislabelled) == (False, f"solved (dim, edim) = {solved}", predicted)
    # a dims off by one in either coordinate fails the right labels
    for wrong in ((3, 4), (2, 3)):
        ok, detail, _ = certify_chain(make_chain(5, 1, 2, 2), lambda g: wrong)
        assert ok is False and detail == f"solved (dim, edim) = {wrong}"


def test_certify_chain_solves_beyond_the_ratio_confirm_order(capsys):
    # certify_chain solves the order-44 chain of ratio 3 outright, while
    # ``ratio`` confirms only witnesses up to its own order bound
    assert ratio_witness(3).n == 44
    assert certify_chain(make_chain(6, 1, 2, 4)) == (
        True,
        "solved (dim, edim) = (6, 2)",
        (6, 2),
    )
    assert main(["ratio", "--target", "3"]) == 0
    out = capsys.readouterr().out
    assert "predicted dim=6 edim=2" in out
    assert "confirmed" not in out


@pytest.mark.parametrize("q", [1, Fraction(3, 2), 2, Fraction(9, 4), 3, 16])
def test_ratio_witness_is_the_even_cycle_chain(q):
    # the witness is a realization, and the even-cycle chain formula is its
    # reference
    ell = max(1, math.ceil(2 * q - 2))
    reference = make_chain(6, 1, 2, ell).graph
    w = ratio_witness(q)
    assert (w.graph.n, w.graph.adj) == (reference.n, reference.adj)
    assert w.copies == ell
    assert (ratio_dim(q), 2) == (2 + ell, 2) == expected_chain_dims(6, 2, w.copies)


def test_theorem2_solves_its_chain_once(monkeypatch):
    # the certificate and the confirmation share the run's solve cache, so
    # the small grid's order-22 chain is solved outright once, with the same
    # rows
    calls = []

    def counted(g):
        calls.append(g.n)
        return solved_dims(g)

    monkeypatch.setattr(verify, "solved_dims", counted)
    (res,) = run_suites(["theorem2"], grid="small")
    assert res.passed, res.rows
    assert res.rows == [
        "PASS  ratio_witness(2) predicts (4, 2)",
        "PASS  L^2(6,1,2): solved (dim, edim) = (4, 2)",
        "PASS  solver confirms (4, 2)",
    ]
    assert calls == [22]


@pytest.mark.parametrize("grid, solves", [("small", 17), ("full", 81)])
def test_run_suites_solves_each_graph_once(monkeypatch, grid, solves):
    # every suite solves through one cache per call keyed by the graph, so
    # equal graphs built apart (a one-copy chain and its gadget, a glue and a
    # two-copy chain, a realization and the ratio witness) share one solve
    calls = []

    def counted(g):
        calls.append((g.n, g.adj))
        return solved_dims(g)

    monkeypatch.setattr(verify, "solved_dims", counted)
    assert all(res.passed for res in run_suites(grid=grid))
    assert len(set(calls)) == len(calls) == solves


def test_run_suites_builds_each_gadget_once(monkeypatch):
    # every suite takes its gadgets from one cache per run_suites call, and
    # no cache outlives the call
    built = []

    def counted(*params):
        built.append(params)
        return make_gadget(*params)

    monkeypatch.setattr(verify, "make_gadget", counted)
    glued = [(5, 1, 2), (6, 1, 2), *GRIDS["small"].lemma5_firsts]
    for _ in range(2):
        built.clear()
        assert all(res.passed for res in run_suites(grid="small"))
        assert sorted(built) == sorted(set(GRIDS["small"].gadgets + glued))


@pytest.mark.parametrize("n1", [5, 6])
def test_long_chains_solve_exactly(n1):
    # chains split into about one landmark-disjoint component per copy, and
    # above order 12 only the pairs inside forced twin classes are folded,
    # so exact solves reach the paper's constructions at any length: ell =
    # 100 is order 1,000 or 1,100
    for ell in [*range(1, 11), 20, 30, 100]:
        g = make_chain(n1, 1, 2, ell).graph
        assert solved_dims(g) == expected_chain_dims(n1, 2, ell)
        assert is_metric_generator(g, metric_dimension(g).witness)
        assert is_edge_metric_generator(g, edge_metric_dimension(g).witness)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["lemma99"])
