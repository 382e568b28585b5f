"""Named conformance suites over the family grids, and the ratio witness.

Each suite re-derives a structural claim about the gadget families with the
exact solver (or, where the order makes a full lexicographic solve wasteful,
with a canonical-basis generator check paired with exhaustive refutation of
every smaller cardinality) and yields ``(label, ok)`` rows.  ``run_suites``
names and times them; the CLI ``verify`` command prints them as PASS/FAIL
rows so CI can pick suites individually.  Up to ``FULL_SOLVE_ORDER_LIMIT``,
read only by ``solved_within_limit``, a graph is solved outright, once per
``run_suites`` call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterator, NamedTuple

from .families import (
    BasisBlueprint,
    FamilyGraph,
    canonical_basis,
    expected_chain_dims,
    glue,
    make_chain,
    make_gadget,
    minimum_realizable_order,
    realize,
)
from .graph import Graph
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


class Grid(NamedTuple):
    """The parameters every suite draws from one grid."""

    gadgets: list[tuple[int, int, int]]  # (n1, n2, n3) of single gadgets
    chains: list[tuple[int, int]]  # (n1, ell); tail and pendants stay minimal
    lemma5_firsts: list[tuple[int, int, int]]  # glued to (5,1,2) and (6,1,2)
    theorem1_targets: list[tuple[int, int]]  # (dim, edim) to realize
    theorem2_target: int  # ratio the witness must reach


GRIDS = {
    "small": Grid(
        gadgets=[(n1, n2, n3) for n1 in (5, 6) for n2 in (1, 2) for n3 in (2, 3)],
        chains=[(n1, ell) for n1 in (5, 6) for ell in (1, 2)],
        lemma5_firsts=[(5, 1, 2), (6, 2, 3)],
        theorem1_targets=[(2, 4), (4, 2)],
        theorem2_target=2,
    ),
    "full": Grid(
        gadgets=[(n1, n2, n3) for n1 in range(5, 11) for n2 in (1, 2, 3) for n3 in (2, 3, 4)],
        chains=[(n1, ell) for n1 in (5, 6, 7) for ell in (1, 2, 3)],
        lemma5_firsts=[(5, 1, 2), (6, 2, 3), (7, 3, 4), (8, 1, 2)],
        theorem1_targets=[(2, 4), (4, 2), (2, 5), (5, 2), (3, 5), (5, 3)],
        theorem2_target=3,
    ),
}


def solved_dims(g: Graph) -> tuple[int, int]:
    """Exact (dim, edim) of a connected graph, by two full solves."""
    return metric_dimension(g).dimension, edge_metric_dimension(g).dimension


def solved_within_limit(g: Graph, dims=solved_dims) -> tuple[int, int] | None:
    """``dims(g)`` up to ``FULL_SOLVE_ORDER_LIMIT``, ``None`` above it."""
    return dims(g) if g.n <= FULL_SOLVE_ORDER_LIMIT else None


def certify_chain(chain: FamilyGraph, dims=solved_dims) -> tuple[bool, str, tuple[int, int]]:
    """Certify the predicted (dim, edim) of a chain that ``make_chain`` built.

    Small orders get a full solve through ``dims``.  Larger ones are
    certified by checking that the canonical bases, of the expected sizes,
    generate and by exhausting all subsets one landmark smaller, which
    bounds the dimension from both sides.
    """
    (n1, n2, n3), ell = chain.parts[0], chain.copies
    expected = expected_chain_dims(n1, n3, ell)
    solved = solved_within_limit(chain, dims)
    if solved is not None:
        return solved == expected, f"solved (dim, edim) = {solved}", expected
    dim, edim = expected
    upper_dim = is_metric_generator(chain, canonical_basis(n1, n2, n3, ell, kind="vertex"))
    upper_edim = is_edge_metric_generator(chain, canonical_basis(n1, n2, n3, ell, kind="edge"))
    lower_dim = metric_dimension(chain, max_k=dim - 1) is None
    lower_edim = edge_metric_dimension(chain, max_k=edim - 1) is None
    ok = upper_dim and upper_edim and lower_dim and lower_edim
    detail = (
        f"basis sizes ({dim}, {edim}) generate: "
        f"{upper_dim}/{upper_edim}; smaller refuted: {lower_dim}/{lower_edim}"
    )
    return ok, detail, expected


def ratio_dim(q) -> int:
    """Vertex dimension of the witness for ratio ``q >= 1`` at edge dimension 2."""
    try:
        q = Fraction(q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed ratio target {q!r}: {exc}") from None
    if q < 1:
        raise ValueError(f"ratio target must be at least 1, got {q}")
    return max(3, math.ceil(2 * q))


def ratio_witness(q) -> FamilyGraph:
    """Chain whose vertex-to-edge dimension ratio is at least ``q >= 1``.

    It is the smallest ``realize(ratio_dim(q), 2, n)``, so its predicted
    dimensions are ``(ratio_dim(q), 2)``.
    """
    dim = ratio_dim(q)
    return realize(dim, 2, minimum_realizable_order(dim, 2))


def suite_observation1(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for n1, n2, n3 in grid.gadgets:
        dim, edim = dims(gadget(n1, n2, n3))
        yield (
            f"G({n1},{n2},{n3}): dim={dim} >= {n3} and edim={edim} >= {n3}",
            dim >= n3 and edim >= n3,
        )


def suite_lemma2(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for n1, n2, n3 in grid.gadgets:
        g = gadget(n1, n2, n3)
        bp = BasisBlueprint.for_cycle(n1)
        extended = sorted(
            [g.vertex("j", k) for k in range(1, n3)]
            + [g.vertex("a", bp.alpha), g.vertex("a", bp.beta)]
        )
        both = is_metric_generator(g, extended) and is_edge_metric_generator(g, extended)
        yield (
            f"G({n1},{n2},{n3}): anchor set of size {len(extended)} generates both",
            both and len(extended) == n3 + 1,
        )
        vb = canonical_basis(n1, n2, n3, kind="vertex")
        eb = canonical_basis(n1, n2, n3, kind="edge")
        sizes_ok = {len(vb), len(eb)} == {n3, n3 + 1}
        yield (
            f"G({n1},{n2},{n3}): canonical bases generate at sizes {len(vb)}/{len(eb)}",
            sizes_ok
            and is_metric_generator(g, vb)
            and is_edge_metric_generator(g, eb),
        )


def suite_lemma3(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for n1, n2, n3 in grid.gadgets:
        expected = expected_chain_dims(n1, n3)[0]
        dim, _ = dims(gadget(n1, n2, n3))
        yield f"G({n1},{n2},{n3}): dim={dim}, expected {expected}", dim == expected


def suite_lemma4(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for n1, n2, n3 in grid.gadgets:
        expected = expected_chain_dims(n1, n3)[1]
        _, edim = dims(gadget(n1, n2, n3))
        yield f"G({n1},{n2},{n3}): edim={edim}, expected {expected}", edim == expected


def suite_lemma5(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for p1 in grid.lemma5_firsts:
        for p2 in ((5, 1, 2), (6, 1, 2)):
            g1 = gadget(*p1)
            g2 = gadget(*p2)
            d1, e1 = dims(g1)
            d2, e2 = dims(g2)
            alpha = BasisBlueprint.for_cycle(p1[0]).alpha
            joined = glue(g1, g1.vertex("a", alpha), g2, g2.vertex("j", 1))
            dim, edim = dims(joined)
            yield (
                f"glue G{p1} + G{p2}: dim {dim} = {d1}+{d2}-2, "
                f"edim {edim} = {e1}+{e2}-2",
                dim == d1 + d2 - 2 and edim == e1 + e2 - 2,
            )


def suite_lemma6(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for n1, ell in grid.chains:
        ok, detail, expected = certify_chain(make_chain(n1, 1, 2, ell), dims)
        yield f"L^{ell}({n1},1,2) expects {expected}: {detail}", ok


def suite_theorem1(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    for r, t in grid.theorem1_targets:
        base = minimum_realizable_order(r, t)
        for order in (base, base + 1, base + 5):
            fam = realize(r, t, order)
            dim, edim = dims(fam)
            yield (
                f"realize({r},{t},{order}): order {fam.n}, dims ({dim},{edim})",
                fam.n == order and (dim, edim) == (r, t),
            )


def suite_theorem2(grid: Grid, gadget, dims) -> Iterator[tuple[str, bool]]:
    target = grid.theorem2_target
    w = ratio_witness(target)
    predicted = (ratio_dim(target), 2)
    yield f"ratio_witness({target}) predicts {predicted}", Fraction(*predicted) >= target
    ok, detail, _ = certify_chain(w, dims)
    n1, n2, n3 = w.parts[0]
    yield f"L^{w.copies}({n1},{n2},{n3}): {detail}", ok
    solved = solved_within_limit(w, dims)
    if solved is not None:
        yield f"solver confirms {solved}", solved == predicted


# Each suite is called as ``suite(grid, gadget, dims)`` and yields (label, ok)
# rows; ``grid`` is the run's ``Grid``, ``gadget(n1, n2, n3)`` gives a
# gadget, itself a graph, and ``dims(g)`` the solved (dim, edim) of any
# graph ``g``.
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
        raise ValueError(f"unknown suites: {', '.join(map(repr, unknown))}")
    if grid not in GRIDS:
        raise ValueError(f"grid must be one of {', '.join(GRIDS)}, got {grid!r}")
    params = GRIDS[grid]
    # One build per gadget and one solve per distinct graph for the whole
    # call; equal graphs built apart share a solve, since ``Graph`` hashes by
    # its rows.  Fresh caches each call, so repeated runs repeat the work.
    gadget = cache(make_gadget)
    dims = cache(solved_dims)
    results = []
    for name in names:
        res = SuiteResult(name)
        t0 = time.monotonic()
        for label, ok in SUITES[name](params, gadget, dims):
            res.check(label, ok)
        res.seconds = time.monotonic() - t0
        results.append(res)
    return results
