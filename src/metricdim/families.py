"""Constructors for the gadget families and their chains.

The central family is a unicyclic gadget: a cycle ``a_1..a_n1`` carrying a
tail path ``b_1..b_n2`` (joined at ``a_2``), a pendant ``c`` at ``a_n1``, and
a hub ``i`` at ``a_1`` holding ``n3`` pendants ``j_1..j_n3``.  Whether the
cycle length is odd or even decides which of the two dimensions (vertex or
edge) stays at ``n3`` and which grows, and chaining copies of the gadget
through single bridge edges widens that gap one unit per copy.
``target_chain`` picks the cycle and chain lengths for any prescribed pair
of dimensions, and ``realize`` builds that chain at any large enough order.

Vertex ids inside a copy are assigned in the fixed order
``a_1..a_n1, b_1..b_n2, c, i, j_1..j_n3`` and copies are concatenated, so
solver witnesses are reproducible.  A family graph records only the
``(n1, n2, n3)`` of each copy; the role of each vertex is derived from those
on the first role lookup and never enters solver loops.

Chain ids are closed-form.  Copy 1 starts at id 0 and every further copy is
an ``(n1, 1, 2)`` gadget of order ``n1 + 5``, so copy ``k >= 2`` starts at
``gadget_order(n1, n2, n3) + (k - 2) * (n1 + 5)``.  Role ``a_t`` of copy
``k`` is ``base(k) + t - 1`` and ``j_t`` is ``base(k) + n1 + n2_k + 1 + t``,
with ``n2_k`` the tail length of that copy.  The canonical bases come from
these offsets, and so does the chain: copy 1's rows, then one ``(n1, 1, 2)``
copy's rows shifted up by ``base(k)`` for each further copy, plus the bridges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod

from .graph import Graph, add_edge, cartesian_product, disjoint_union


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


@dataclass(frozen=True)
class FamilyParams:
    """Gadget parameters: cycle length, tail length, pendant count, copies."""

    n1: int
    n2: int
    n3: int
    ell: int = 1

    def validate(self) -> "FamilyParams":
        if self.n1 < 5:
            raise InvalidParams(f"cycle length n1 must be >= 5, got {self.n1}")
        if self.n2 < 1:
            raise InvalidParams(f"tail length n2 must be >= 1, got {self.n2}")
        if self.n3 < 2:
            raise InvalidParams(f"pendant count n3 must be >= 2, got {self.n3}")
        if self.ell < 1:
            raise InvalidParams(f"copy count ell must be >= 1, got {self.ell}")
        return self


@dataclass(frozen=True)
class RoleLabel:
    """Structural role of one vertex: copy number, role letter, role index."""

    copy: int
    role: str  # "a", "b", "c", "i" or "j"
    index: int = 0  # 1-based position for a/b/j, 0 for c and i

    @property
    def name(self) -> str:
        return self.role if self.index == 0 else f"{self.role}{self.index}"


@dataclass(frozen=True)
class BasisBlueprint:
    """Cycle anchor positions used by the canonical bases.

    ``alpha`` and ``beta`` are the two cycle vertices sitting at equal
    distance from ``a_1``, adjacent for odd cycles and two apart for even
    ones; ``gamma`` and ``delta`` are that shared distance and the cycle
    radius.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int

    @classmethod
    def for_cycle(cls, n1: int) -> "BasisBlueprint":
        if n1 < 5:
            raise InvalidParams(f"cycle length must be >= 5, got {n1}")
        return cls(
            alpha=(n1 + 1) // 2,
            beta=-(-(n1 + 3) // 2),
            gamma=(n1 - 1) // 2,
            delta=n1 // 2,
        )


@dataclass(frozen=True)
class FamilyGraph:
    """A family-built graph and the ``(n1, n2, n3)`` of each copy, in id order."""

    graph: Graph
    parts: tuple[tuple[int, int, int], ...]

    @property
    def copies(self) -> int:
        return len(self.parts)

    @cached_property
    def labels(self) -> tuple[RoleLabel, ...]:
        """Role of every vertex in id order, built on the first lookup."""
        return tuple(
            lab for k, part in enumerate(self.parts, 1) for lab in _gadget_labels(k, *part)
        )

    def vertex(self, role: str, index: int = 0, copy: int = 1) -> int:
        target = RoleLabel(copy, role, index)
        try:
            return self._ids[target]
        except KeyError:
            raise KeyError(f"no vertex labelled {target}") from None

    @cached_property
    def _ids(self) -> dict[RoleLabel, int]:
        """Label -> vertex id, built on the first lookup; the lowest id wins."""
        return {lab: v for v, lab in reversed(list(enumerate(self.labels)))}

    def label_name(self, v: int) -> str:
        lab = self.labels[v]
        if self.copies > 1:
            return f"{lab.name}^{lab.copy}"
        return lab.name


def plain_graph(g: Graph | FamilyGraph) -> Graph:
    """The graph itself, with any copy record dropped."""
    return g.graph if isinstance(g, FamilyGraph) else g


def gadget_order(n1: int, n2: int, n3: int) -> int:
    return n1 + n2 + n3 + 2


def make_gadget(n1: int, n2: int, n3: int) -> FamilyGraph:
    """Cycle-with-tail gadget plus a pendant hub, as a one-copy family graph."""
    return make_chain(n1, n2, n3)


def _gadget_rows(n1: int, n2: int, n3: int) -> list[int]:
    """Adjacency rows of one gadget copy whose ids start at 0."""
    hub = n1 + n2 + 1  # i, after the cycle a_1..a_n1, the tail b_1..b_n2 and c
    # the cycle, the tail joined at a_2, c at a_n1, i at a_1 and its pendants
    edges = [(k, k + 1) for k in range(n1 - 1)] + [(0, n1 - 1)]
    edges += [(n1 + k, n1 + k + 1) for k in range(n2 - 1)]
    edges += [(1, n1), (n1 - 1, n1 + n2), (0, hub)]
    edges += [(hub, hub + 1 + k) for k in range(n3)]
    rows = [0] * (hub + 1 + n3)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _gadget_labels(copy: int, n1: int, n2: int, n3: int) -> list[RoleLabel]:
    """Role labels of one gadget copy, in id order."""
    return (
        [RoleLabel(copy, "a", k + 1) for k in range(n1)]
        + [RoleLabel(copy, "b", k + 1) for k in range(n2)]
        + [RoleLabel(copy, "c"), RoleLabel(copy, "i")]
        + [RoleLabel(copy, "j", k + 1) for k in range(n3)]
    )


def glue(g1, v1: int, g2, v2: int):
    """Join two graphs by one bridge edge ``v1``--``v2``.

    Accepts plain graphs or family graphs; two family graphs give a family
    graph whose copies are those of ``g1`` followed by those of ``g2``.
    """
    raw1, raw2 = plain_graph(g1), plain_graph(g2)
    joined = add_edge(disjoint_union(raw1, raw2), v1, raw1.n + v2)
    if isinstance(g1, FamilyGraph) and isinstance(g2, FamilyGraph):
        return FamilyGraph(joined, g1.parts + g2.parts)
    return joined


def make_chain(n1: int, n2: int, n3: int, ell: int = 1) -> FamilyGraph:
    """Chain of gadget copies bridged by single edges.

    Copy 1 keeps the full ``(n1, n2, n3)`` parameters; every further copy is
    the minimal ``(n1, 1, 2)`` gadget.  Copy ``k`` is bridged to copy ``k+1``
    by the edge from ``a_alpha`` of copy ``k`` to ``j_1`` of copy ``k+1``.
    With one copy this is exactly ``make_gadget``.
    """
    FamilyParams(n1, n2, n3, ell).validate()
    alpha = BasisBlueprint.for_cycle(n1).alpha
    rows, copy = _gadget_rows(n1, n2, n3), _gadget_rows(n1, 1, 2)
    for k in range(2, ell + 1):
        # copy k at the next free id, bridged from a_alpha of copy k-1 by j_1
        base, u = len(rows), _copy_base(n1, n2, n3, k - 1) + alpha - 1
        rows += [row << base for row in copy]
        rows[u] |= 1 << base + n1 + 3
        rows[base + n1 + 3] |= 1 << u
    parts = ((n1, n2, n3),) + ((n1, 1, 2),) * (ell - 1)
    return FamilyGraph(Graph(len(rows), rows, _validate=False), parts)


def _copy_base(n1: int, n2: int, n3: int, k: int) -> int:
    """Id of ``a_1`` in copy ``k`` of a chain: the order of copies 1..k-1."""
    return chain_order(n1, n2, n3, k - 1) if k > 1 else 0


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
    FamilyParams(n1, n2, n3, ell).validate()
    if kind not in ("vertex", "edge"):
        raise ValueError(f"kind must be 'vertex' or 'edge', got {kind!r}")
    bp = BasisBlueprint.for_cycle(n1)

    def anchor(t: int, copy: int) -> int:
        return _copy_base(n1, n2, n3, copy) + t - 1

    hub = n1 + n2 + 1  # i of copy 1; its pendant j_k is hub + k
    basis = [hub + k for k in range(1, n3)]
    if (n1 % 2 == 1) == (kind == "vertex"):  # the compact set
        basis.append(anchor(bp.alpha, ell))
    else:
        basis += [anchor(bp.beta, k) for k in range(1, ell)]
        basis += [anchor(bp.alpha, ell), anchor(bp.beta, ell)]
    return tuple(sorted(basis))


def make_path(n: int) -> Graph:
    if n < 1:
        raise InvalidParams(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(k, k + 1) for k in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParams(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(k, (k + 1) % n) for k in range(n)])


def make_complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParams(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


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


def parse_family_spec(spec: str):
    """Parse a family specification string into a graph.

    Formats: ``G:n1,n2,n3``, ``L:ell,n1,n2,n3``, ``cycle:n``, ``path:n``,
    ``complete:n`` and ``cp:<spec>x<spec>`` for Cartesian products (folded
    left to right; factors may not themselves be products).
    """
    graphs = [build(*args) for build, _, args in _spec_factors(spec)]
    return graphs[0] if len(graphs) == 1 else reduce(cartesian_product, map(plain_graph, graphs))


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
