"""Named conformance suites over the family grids.

Each suite re-derives a structural claim about the gadget families with the
exact solver (or, where the order makes a full lexicographic solve wasteful,
with a canonical-basis generator check paired with exhaustive refutation of
every smaller cardinality).  The CLI ``verify`` command runs them as named
PASS/FAIL rows so CI can pick suites individually.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache

from .families import (
    BasisBlueprint,
    canonical_basis,
    chain_order,
    glue,
    make_chain,
    make_gadget,
    realize,
)
from .scan import ratio_witness
from .solver import (
    edge_metric_dimension,
    is_edge_metric_generator,
    is_metric_generator,
    metric_dimension,
)

FULL_SOLVE_ORDER_LIMIT = 24  # beyond this, prefer basis check + refutation


@dataclass
class SuiteResult:
    name: str
    passed: bool = True
    rows: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, label: str, ok: bool) -> None:
        self.rows.append(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            self.passed = False


def gadget_grid(grid: str = "small") -> list[tuple[int, int, int]]:
    if grid == "small":
        return [
            (n1, n2, n3)
            for n1 in (5, 6)
            for n2 in (1, 2)
            for n3 in (2, 3)
        ]
    if grid == "full":
        return [
            (n1, n2, n3)
            for n1 in range(5, 11)
            for n2 in (1, 2, 3)
            for n3 in (2, 3, 4)
        ]
    raise ValueError(f"grid must be 'small' or 'full', got {grid!r}")


def chain_grid(grid: str = "small") -> list[tuple[int, int]]:
    """(n1, ell) pairs for the chain suite; tail and pendants stay minimal."""
    if grid == "small":
        return [(n1, ell) for n1 in (5, 6) for ell in (1, 2)]
    if grid == "full":
        return [(n1, ell) for n1 in (5, 6, 7) for ell in (1, 2, 3)]
    raise ValueError(f"grid must be 'small' or 'full', got {grid!r}")


def expected_gadget_dims(n1: int, n3: int) -> tuple[int, int]:
    """Predicted (dim, edim) of the single gadget, split by cycle parity."""
    if n1 % 2 == 1:
        return n3, n3 + 1
    return n3 + 1, n3


def expected_chain_dims(n1: int, n3: int, ell: int) -> tuple[int, int]:
    if n1 % 2 == 1:
        return n3, n3 + ell
    return n3 + ell, n3


def solved_gadget_dims(n1: int, n2: int, n3: int) -> tuple[int, int]:
    g = make_gadget(n1, n2, n3).graph
    dim = metric_dimension(g)
    edim = edge_metric_dimension(g)
    assert dim is not None and edim is not None
    return dim.dimension, edim.dimension


def confirm_dims(
    graph,
    expected_dim: int,
    expected_edim: int,
    vertex_basis: tuple[int, ...],
    edge_basis: tuple[int, ...],
) -> tuple[bool, str]:
    """Certify exact dimensions of a (possibly large) family graph.

    Small orders get a full solve.  Larger ones are certified by checking
    that the given bases, of the expected sizes, generate and by exhausting
    all subsets one landmark smaller, which bounds the dimension from both
    sides.
    """
    if graph.n <= FULL_SOLVE_ORDER_LIMIT:
        dim = metric_dimension(graph)
        edim = edge_metric_dimension(graph)
        ok = (dim.dimension, edim.dimension) == (expected_dim, expected_edim)
        return ok, f"solved (dim, edim) = ({dim.dimension}, {edim.dimension})"
    upper_dim = is_metric_generator(graph, vertex_basis)
    upper_edim = is_edge_metric_generator(graph, edge_basis)
    lower_dim = metric_dimension(graph, max_k=expected_dim - 1) is None
    lower_edim = edge_metric_dimension(graph, max_k=expected_edim - 1) is None
    ok = upper_dim and upper_edim and lower_dim and lower_edim
    return ok, (
        f"basis sizes ({expected_dim}, {expected_edim}) generate: "
        f"{upper_dim}/{upper_edim}; smaller refuted: {lower_dim}/{lower_edim}"
    )


def certify_chain(n1: int, n2: int, n3: int, ell: int) -> tuple[bool, str, tuple[int, int]]:
    expected = expected_chain_dims(n1, n3, ell)
    ok, detail = confirm_dims(
        make_chain(n1, n2, n3, ell).graph,
        *expected,
        canonical_basis(n1, n2, n3, ell, kind="vertex"),
        canonical_basis(n1, n2, n3, ell, kind="edge"),
    )
    return ok, detail, expected


def suite_observation1(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("observation1")
    t0 = time.monotonic()
    for n1, n2, n3 in gadget_grid(grid):
        dim, edim = gadget_dims(n1, n2, n3)
        res.check(
            f"G({n1},{n2},{n3}): dim={dim} >= {n3} and edim={edim} >= {n3}",
            dim >= n3 and edim >= n3,
        )
    res.seconds = time.monotonic() - t0
    return res


def suite_lemma2(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("lemma2")
    t0 = time.monotonic()
    for n1, n2, n3 in gadget_grid(grid):
        g = make_gadget(n1, n2, n3)
        bp = BasisBlueprint.for_cycle(n1)
        extended = sorted(
            [g.vertex("j", k) for k in range(1, n3)]
            + [g.vertex("a", bp.alpha), g.vertex("a", bp.beta)]
        )
        both = is_metric_generator(g.graph, extended) and is_edge_metric_generator(
            g.graph, extended
        )
        res.check(
            f"G({n1},{n2},{n3}): anchor set of size {len(extended)} generates both",
            both and len(extended) == n3 + 1,
        )
        vb = canonical_basis(n1, n2, n3, kind="vertex")
        eb = canonical_basis(n1, n2, n3, kind="edge")
        sizes_ok = {len(vb), len(eb)} == {n3, n3 + 1}
        res.check(
            f"G({n1},{n2},{n3}): canonical bases generate at sizes {len(vb)}/{len(eb)}",
            sizes_ok
            and is_metric_generator(g.graph, vb)
            and is_edge_metric_generator(g.graph, eb),
        )
    res.seconds = time.monotonic() - t0
    return res


def suite_lemma3(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("lemma3")
    t0 = time.monotonic()
    for n1, n2, n3 in gadget_grid(grid):
        expected = expected_gadget_dims(n1, n3)[0]
        dim, _ = gadget_dims(n1, n2, n3)
        res.check(f"G({n1},{n2},{n3}): dim={dim}, expected {expected}", dim == expected)
    res.seconds = time.monotonic() - t0
    return res


def suite_lemma4(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("lemma4")
    t0 = time.monotonic()
    for n1, n2, n3 in gadget_grid(grid):
        expected = expected_gadget_dims(n1, n3)[1]
        _, edim = gadget_dims(n1, n2, n3)
        res.check(f"G({n1},{n2},{n3}): edim={edim}, expected {expected}", edim == expected)
    res.seconds = time.monotonic() - t0
    return res


def _lemma5_pairs(grid: str) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    firsts = [(5, 1, 2), (6, 2, 3)] if grid == "small" else [
        (5, 1, 2),
        (6, 2, 3),
        (7, 3, 4),
        (8, 1, 2),
    ]
    return [(f, (s, 1, 2)) for f in firsts for s in (5, 6)]


def suite_lemma5(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("lemma5")
    t0 = time.monotonic()
    for (p1, p2) in _lemma5_pairs(grid):
        g1 = make_gadget(*p1)
        g2 = make_gadget(*p2)
        d1, e1 = gadget_dims(*p1)
        d2, e2 = gadget_dims(*p2)
        alpha = BasisBlueprint.for_cycle(p1[0]).alpha
        joined = glue(g1, g1.vertex("a", alpha), g2, g2.vertex("j", 1))
        dim = metric_dimension(joined.graph)
        edim = edge_metric_dimension(joined.graph)
        ok = dim.dimension == d1 + d2 - 2 and edim.dimension == e1 + e2 - 2
        res.check(
            f"glue G{p1} + G{p2}: dim {dim.dimension} = {d1}+{d2}-2, "
            f"edim {edim.dimension} = {e1}+{e2}-2",
            ok,
        )
    res.seconds = time.monotonic() - t0
    return res


def suite_lemma6(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("lemma6")
    t0 = time.monotonic()
    for n1, ell in chain_grid(grid):
        ok, detail, expected = certify_chain(n1, 1, 2, ell)
        res.check(f"L^{ell}({n1},1,2) expects {expected}: {detail}", ok)
    res.seconds = time.monotonic() - t0
    return res


def suite_theorem1(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("theorem1")
    t0 = time.monotonic()
    targets = [(2, 4), (4, 2)] if grid == "small" else [(2, 4), (4, 2), (2, 5), (5, 2), (3, 5), (5, 3)]
    for r, t in targets:
        base = chain_order(5, 1, r, t - r) if r < t else chain_order(6, 1, t, r - t)
        for order in (base, base + 1, base + 5):
            fam = realize(r, t, order)
            dim = metric_dimension(fam.graph)
            edim = edge_metric_dimension(fam.graph)
            ok = (
                fam.graph.n == order
                and dim.dimension == r
                and edim.dimension == t
            )
            res.check(
                f"realize({r},{t},{order}): order {fam.graph.n}, "
                f"dims ({dim.dimension},{edim.dimension})",
                ok,
            )
    res.seconds = time.monotonic() - t0
    return res


def suite_theorem2(grid: str = "small", gadget_dims=solved_gadget_dims) -> SuiteResult:
    res = SuiteResult("theorem2")
    t0 = time.monotonic()
    target = 2 if grid == "small" else 3
    w = ratio_witness(target)
    res.check(
        f"ratio_witness({target}) predicts ({w.predicted_dim}, {w.predicted_edim})",
        w.predicted_ratio >= target,
    )
    ok, detail, _ = certify_chain(6, 1, 2, w.ell)
    res.check(f"L^{w.ell}(6,1,2): {detail}", ok)
    if w.confirmed_dim is not None:
        res.check(
            f"solver confirms ({w.confirmed_dim}, {w.confirmed_edim})",
            (w.confirmed_dim, w.confirmed_edim)
            == (w.predicted_dim, w.predicted_edim),
        )
    res.seconds = time.monotonic() - t0
    return res


# Every suite is called as ``suite(grid, gadget_dims)``, where
# ``gadget_dims(n1, n2, n3)`` gives a gadget's solved (dim, edim).
SUITES = {
    "observation1": suite_observation1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "lemma5": suite_lemma5,
    "lemma6": suite_lemma6,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
}


def run_suites(names: list[str] | None = None, grid: str = "small") -> list[SuiteResult]:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    # One solve per gadget for the whole call; a fresh cache each call, so
    # repeated runs repeat the work.
    gadget_dims = cache(solved_gadget_dims)
    return [SUITES[n](grid, gadget_dims) for n in names]
