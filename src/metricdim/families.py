"""Constructors for the gadget families and their chains.

The central family is a unicyclic gadget: a cycle ``a_1..a_n1`` carrying a
tail path ``b_1..b_n2`` (joined at ``a_2``), a pendant ``c`` at ``a_n1``, and
a hub ``i`` at ``a_1`` holding ``n3`` pendants ``j_1..j_n3``.  Whether the
cycle length is odd or even decides which of the two dimensions (vertex or
edge) stays at ``n3`` and which grows, and chaining copies of the gadget
through single bridge edges widens that gap one unit per copy.
``target_chain`` picks the cycle and chain lengths for any prescribed pair
of dimensions, and ``realize`` builds that chain at any large enough order.

Vertex ids follow one rule, ``_roles``: inside a copy, the order
``a_1..a_n1, b_1..b_n2, c, i, j_1..j_n3``; copies are concatenated, so
solver witnesses are reproducible.  A family graph is a ``Graph`` that
also records the ``(n1, n2, n3)`` of each copy and, on the first lookup,
the first id of each; a role lookup is arithmetic on those, and nothing per
vertex is built.

Copy 1 of a chain starts at id 0 and every further copy is an ``(n1, 1, 2)``
gadget of order ``n1 + 5``, so copy ``k >= 2`` starts at
``gadget_order(n1, n2, n3) + (k - 2) * (n1 + 5)``.  The canonical bases add
``_roles`` ids to these starts; the chain is copy 1's rows, then one
``(n1, 1, 2)`` copy's rows shifted up by each further start, plus the
bridges.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, reduce
from itertools import accumulate
from math import prod
from typing import Iterable

from .graph import Graph, GraphError, add_edge, cartesian_product, disjoint_union


class InvalidParams(ValueError):
    """Family parameters outside the valid range."""


class RealizeError(ValueError):
    """A dimension-realization request that cannot be honoured."""


class InvalidTarget(RealizeError):
    """Target dimensions below 2 are not constructible by these families."""


class EqualDimensionsUnsupported(RealizeError):
    """Equal vertex and edge dimension targets are out of scope."""


class OrderTooSmall(RealizeError):
    """Requested order below the family's minimum for these targets."""

    def __init__(self, message: str, minimum_order: int):
        super().__init__(message)
        self.minimum_order = minimum_order


class FamilyGraph(Graph):
    """A family-built graph that also records the ``(n1, n2, n3)`` of each copy.

    Its rows are taken unchecked, as ``make_chain`` and ``glue`` build them.
    """

    def __init__(self, n: int, adj: Iterable[int], parts: tuple[tuple[int, int, int], ...]):
        super().__init__(n, adj, _validate=False)
        self.parts = parts

    @property
    def graph(self) -> "FamilyGraph":
        """This graph itself; it stays because ``perfbench/test_perfbench.py`` reads ``.graph``."""
        return self

    @property
    def copies(self) -> int:
        return len(self.parts)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """First id of each copy, then the order."""
        return tuple(accumulate((gadget_order(*p) for p in self.parts), initial=0))

    def vertex(self, role: str, index: int = 0, copy: int = 1) -> int:
        roles = _roles(*self.parts[copy - 1]) if 1 <= copy <= self.copies else {}
        base, indices = roles.get(role, (0, ()))
        if index not in indices:
            raise KeyError(f"no vertex {role}{index or ''} in copy {copy}")
        return self._starts[copy - 1] + base + index

    def label_name(self, v: int) -> str:
        if not 0 <= v < self.n:
            raise IndexError(f"no vertex {v} in a family graph of order {self.n}")
        k = bisect_right(self._starts, v) - 1
        r = v - self._starts[k]
        name = next(
            f"{role}{r - base or ''}"
            for role, (base, indices) in _roles(*self.parts[k]).items()
            if r - base in indices
        )
        return f"{name}^{k + 1}" if self.copies > 1 else name


def _check_params(n1: int, n2: int, n3: int, ell: int) -> None:
    """Refuse a cycle, tail, pendant count or copy count below its least value."""
    for name, value, least in (
        ("cycle length n1", n1, 5),
        ("tail length n2", n2, 1),
        ("pendant count n3", n3, 2),
        ("copy count ell", ell, 1),
    ):
        if value < least:
            raise InvalidParams(f"{name} must be >= {least}, got {value}")


def anchors(n1: int) -> tuple[int, int]:
    """Indices ``(alpha, beta)`` of the cycle anchors ``a_alpha`` and ``a_beta``.

    Both sit at distance ``(n1 - 1) // 2`` from ``a_1``, adjacent on odd
    cycles and two apart on even ones.
    """
    if n1 < 5:
        raise InvalidParams(f"cycle length must be >= 5, got {n1}")
    return (n1 + 1) // 2, (n1 + 4) // 2


def gadget_order(n1: int, n2: int, n3: int) -> int:
    return n1 + n2 + n3 + 2


def make_gadget(n1: int, n2: int, n3: int) -> FamilyGraph:
    """Cycle-with-tail gadget plus a pendant hub, as a one-copy family graph."""
    return make_chain(n1, n2, n3)


def _roles(n1: int, n2: int, n3: int) -> dict[str, tuple[int, range]]:
    """Role letter -> ``(base, indices)`` in one copy whose ids start at 0.

    The one in-copy order, ``a_1..a_n1, b_1..b_n2, c, i, j_1..j_n3``: role
    ``r`` with index ``t`` in ``indices`` has id ``base + t``.  The single
    vertices ``c`` and ``i`` have the one index 0.
    """
    hub = n1 + n2 + 1
    return {
        "a": (-1, range(1, n1 + 1)),
        "b": (n1 - 1, range(1, n2 + 1)),
        "c": (n1 + n2, range(1)),
        "i": (hub, range(1)),
        "j": (hub, range(1, n3 + 1)),
    }


def _gadget_rows(n1: int, n2: int, n3: int) -> list[int]:
    """Adjacency rows of one gadget copy whose ids start at 0."""
    (a, _), (b, _), (c, _), (i, _), (j, _) = _roles(n1, n2, n3).values()
    # the cycle, the tail joined at a_2, c at a_n1, i at a_1 and its pendants
    edges = [(a + t, a + t + 1) for t in range(1, n1)] + [(a + 1, a + n1)]
    edges += [(b + t, b + t + 1) for t in range(1, n2)]
    edges += [(a + 2, b + 1), (a + n1, c), (a + 1, i)]
    edges += [(i, j + t) for t in range(1, n3 + 1)]
    rows = [0] * gadget_order(n1, n2, n3)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def glue(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Join two graphs by one bridge edge ``v1``--``v2``.

    Two family graphs give a family graph whose copies are those of ``g1``
    followed by those of ``g2``.
    """
    for v, g in ((v1, g1), (v2, g2)):
        if not 0 <= v < g.n:
            raise GraphError(f"bridge vertex {v} out of range for order {g.n}")
    joined = add_edge(disjoint_union(g1, g2), v1, g1.n + v2)
    if isinstance(g1, FamilyGraph) and isinstance(g2, FamilyGraph):
        return FamilyGraph(joined.n, joined.adj, g1.parts + g2.parts)
    return joined


def make_chain(n1: int, n2: int, n3: int, ell: int = 1) -> FamilyGraph:
    """Chain of gadget copies bridged by single edges.

    Copy 1 keeps the full ``(n1, n2, n3)`` parameters; every further copy is
    the minimal ``(n1, 1, 2)`` gadget.  Copy ``k`` is bridged to copy ``k+1``
    by the edge from ``a_alpha`` of copy ``k`` to ``j_1`` of copy ``k+1``.
    With one copy this is exactly ``make_gadget``.
    """
    _check_params(n1, n2, n3, ell)
    alpha, _ = anchors(n1)
    rows, copy = _gadget_rows(n1, n2, n3), _gadget_rows(n1, 1, 2)
    (a, _), *_, (j, _) = _roles(n1, 1, 2).values()
    u = a + alpha  # a_alpha of copy 1: the cycle comes first in every copy
    for _ in range(1, ell):
        # the next copy at the next free id, bridged from a_alpha of the last by j_1
        base = len(rows)
        rows += [row << base for row in copy]
        rows[u] |= 1 << base + j + 1
        rows[base + j + 1] |= 1 << u
        u = base + a + alpha
    parts = ((n1, n2, n3),) + ((n1, 1, 2),) * (ell - 1)
    return FamilyGraph(len(rows), rows, parts)


def chain_order(n1: int, n2: int, n3: int, ell: int) -> int:
    return gadget_order(n1, n2, n3) + (ell - 1) * (n1 + 5)


def canonical_basis(
    n1: int, n2: int, n3: int, ell: int = 1, kind: str = "vertex"
) -> tuple[int, ...]:
    """The family's prescribed generator for ``make_chain(n1, n2, n3, ell)``.

    Two shapes exist.  The compact set takes the first ``n3 - 1`` hub
    pendants of copy 1 plus the ``a_alpha`` anchor of the last copy and has
    size ``n3``.  The extended set swaps that lone anchor for both anchors
    of the last copy plus the ``a_beta`` anchor of every earlier copy, for
    size ``n3 + ell``.  Odd cycles use the compact set for vertices and the
    extended one for edges; even cycles swap the two roles.
    """
    _check_params(n1, n2, n3, ell)
    if kind not in ("vertex", "edge"):
        raise ValueError(f"kind must be 'vertex' or 'edge', got {kind!r}")
    alpha, beta = anchors(n1)
    (a, _), *_, (j, _) = _roles(n1, n2, n3).values()

    def anchor(t: int, copy: int) -> int:
        # a_t of a copy, after the order of the copies before it
        return (chain_order(n1, n2, n3, copy - 1) if copy > 1 else 0) + a + t

    basis = [j + t for t in range(1, n3)]  # j_1..j_{n3-1} of copy 1
    if (n1 % 2 == 1) == (kind == "vertex"):  # the compact set
        basis.append(anchor(alpha, ell))
    else:
        basis += [anchor(beta, k) for k in range(1, ell)]
        basis += [anchor(alpha, ell), anchor(beta, ell)]
    return tuple(sorted(basis))


def make_path(n: int) -> Graph:
    if n < 1:
        raise InvalidParams(f"path needs n >= 1, got {n}")
    full = (1 << n) - 1  # drops the last row's bit n
    return Graph(n, [(1 << k >> 1 | 1 << k + 1) & full for k in range(n)], _validate=False)


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParams(f"cycle needs n >= 3, got {n}")
    return Graph(n, [1 << (k - 1) % n | 1 << (k + 1) % n for k in range(n)], _validate=False)


def make_complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParams(f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(1 << n) - 1 ^ 1 << u for u in range(n)], _validate=False)


def target_chain(dim_target: int, edim_target: int) -> tuple[int, int, int]:
    """Chain ``(n1, n3, ell)`` whose dimensions are the targets.

    Odd (length 5) cycles pin the vertex dimension at ``n3`` and let the
    edge dimension grow one unit per copy; even (length 6) cycles do the
    opposite.  ``expected_chain_dims`` is the inverse.
    """
    if dim_target < 2 or edim_target < 2:
        raise InvalidTarget("both dimension targets must be at least 2")
    if dim_target == edim_target:
        raise EqualDimensionsUnsupported(
            "equal vertex and edge dimension targets are not constructible here"
        )
    if dim_target < edim_target:
        return 5, dim_target, edim_target - dim_target
    return 6, edim_target, dim_target - edim_target


def expected_chain_dims(n1: int, n3: int, ell: int = 1) -> tuple[int, int]:
    """Predicted (dim, edim) of an ``ell``-copy chain, split by cycle parity."""
    if n1 % 2 == 1:
        return n3, n3 + ell
    return n3 + ell, n3


def minimum_realizable_order(dim_target: int, edim_target: int) -> int:
    """Smallest order the realization construction can hit for the targets."""
    n1, n3, ell = target_chain(dim_target, edim_target)
    return chain_order(n1, 1, n3, ell)


def realize(dim_target: int, edim_target: int, order: int) -> FamilyGraph:
    """Graph of exactly ``order`` vertices with the prescribed dimensions.

    The chain is the one ``target_chain`` names; all slack between the
    minimum order and the requested one is absorbed by the tail of copy 1.
    """
    n1, n3, ell = target_chain(dim_target, edim_target)
    n0 = chain_order(n1, 1, n3, ell)
    if order < n0:
        raise OrderTooSmall(
            f"the construction for targets ({dim_target}, {edim_target}) needs order >= {n0},"
            f" got {order}",
            minimum_order=n0,
        )
    return make_chain(n1, 1 + order - n0, n3, ell)


def parse_family_spec(spec: str) -> Graph:
    """Parse a family specification string into a graph.

    Formats: ``G:n1,n2,n3``, ``L:ell,n1,n2,n3``, ``cycle:n``, ``path:n``,
    ``complete:n`` and ``cp:<spec>x<spec>`` for Cartesian products (folded
    left to right; factors may not themselves be products).
    """
    return reduce(cartesian_product, [build(*args) for build, _, args in _spec_factors(spec)])


def family_order(spec: str) -> int:
    """Order of the graph ``parse_family_spec(spec)`` builds, without building it."""
    return prod(order(*args) for _, order, args in _spec_factors(spec))


# spec head -> (argument count, builder, order of the graph it builds)
_SPECS = {
    "G": (3, make_gadget, gadget_order),
    "L": (4, lambda ell, *p: make_chain(*p, ell), lambda ell, *p: chain_order(*p, ell)),
    "cycle": (1, make_cycle, int),
    "path": (1, make_path, int),
    "complete": (1, make_complete, int),
}


def _spec_factors(spec: str) -> list[tuple]:
    """``(builder, order rule, arguments)`` of each factor of a spec, in order."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidParams(f"malformed family spec {spec!r}")
    if head == "cp":
        parts = rest.split("x")
        if len(parts) < 2:
            raise InvalidParams(f"product spec needs at least two factors: {spec!r}")
        return [factor for p in parts for factor in _spec_factors(p)]
    if head not in _SPECS:
        raise InvalidParams(f"unknown family {head!r} in spec {spec!r}")
    count, build, order = _SPECS[head]
    args = rest.split(",")
    if len(args) != count:
        raise InvalidParams(f"spec {spec!r} needs {count} integer arguments")
    try:
        return [(build, order, [int(a) for a in args])]
    except ValueError as exc:
        raise InvalidParams(f"non-integer argument in spec {spec!r}") from exc
