"""Exact solvers for metric dimension and edge metric dimension.

A landmark set S resolves the vertices (edges) of a connected graph when the
distance vectors to S are pairwise distinct over all vertices (edges).  The
solvers here search landmark subsets in ascending cardinality and, within one
cardinality, in lexicographic order, so the reported witness is always the
lexicographically least minimum-cardinality generator.

The fast path works on distance partitions encoded as bit vectors: for each
landmark z the ground set (vertices or edges) is bucketed by distance to z,
and a subset S is a generator exactly when the common refinement (meet) of
its members' partitions is discrete.  Partition intersections are plain
big-int ANDs, so a refinement step costs a handful of word-parallel ops.

A deliberately dumb reference implementation (materialise every distance
vector per subset, no partition machinery) is kept alongside as an oracle
for cross-validation; it is capped at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graph import DistanceMatrix, Edge, Graph, iter_bits

NAIVE_MAX_ORDER = 16


class InstanceTooLarge(ValueError):
    """Reference solver asked to handle a graph beyond its guard rail."""


@dataclass(frozen=True)
class ResolveResult:
    """Exact dimension plus the lexicographically least witness basis."""

    kind: str  # "vertex" or "edge"
    dimension: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class DistancePartition:
    """Partition of the ground set by distance to one landmark.

    ``masks[i]`` is the bit vector of ground items at distance
    ``distances[i]`` from the landmark; ``items`` maps bit positions back to
    vertices (ints) or edges (pairs).
    """

    landmark: int
    kind: str
    distances: tuple[int, ...]
    masks: tuple[int, ...]
    items: tuple

    def blocks(self) -> list[frozenset]:
        return [
            frozenset(self.items[i] for i in iter_bits(m)) for m in self.masks
        ]


def _require_connected(g: Graph) -> DistanceMatrix:
    return g.distance_matrix()


def _vertex_classes(dm: DistanceMatrix, z: int, n: int) -> list[int]:
    buckets: dict[int, int] = {}
    row = dm[z]
    for v in range(n):
        d = row[v]
        buckets[d] = buckets.get(d, 0) | (1 << v)
    return [buckets[d] for d in sorted(buckets)]


def _edge_classes(dm: DistanceMatrix, z: int, edges: Sequence[Edge]) -> list[int]:
    buckets: dict[int, int] = {}
    row = dm[z]
    for i, (u, v) in enumerate(edges):
        du, dv = row[u], row[v]
        d = du if du < dv else dv
        buckets[d] = buckets.get(d, 0) | (1 << i)
    return [buckets[d] for d in sorted(buckets)]


def distance_partition(g: Graph, z: int, kind: str = "vertex") -> DistancePartition:
    """Distance classes of the vertices or edges relative to landmark ``z``."""
    dm = _require_connected(g)
    if kind == "vertex":
        items: tuple = tuple(range(g.n))
        buckets: dict[int, int] = {}
        row = dm[z]
        for v in range(g.n):
            buckets.setdefault(row[v], 0)
            buckets[row[v]] |= 1 << v
    elif kind == "edge":
        items = g.edges
        buckets = {}
        row = dm[z]
        for i, (u, v) in enumerate(items):
            d = min(row[u], row[v])
            buckets.setdefault(d, 0)
            buckets[d] |= 1 << i
    else:
        raise ValueError(f"kind must be 'vertex' or 'edge', got {kind!r}")
    dists = tuple(sorted(buckets))
    return DistancePartition(
        landmark=z,
        kind=kind,
        distances=dists,
        masks=tuple(buckets[d] for d in dists),
        items=items,
    )


def _refine(classes: list[int], zclasses: Sequence[int]) -> tuple[list[int], bool]:
    """Split every class by a landmark's distance classes.

    Returns the new list of unresolved (size >= 2) classes and whether any
    class actually split.  Singletons are dropped: once an item sits alone in
    a class it is distinguished from everything else forever.
    """
    out: list[int] = []
    changed = False
    for c in classes:
        first_part = 0
        rest: list[int] | None = None
        remaining = c
        for zm in zclasses:
            p = remaining & zm
            if not p:
                continue
            if not first_part:
                first_part = p
            elif rest is None:
                rest = [p]
            else:
                rest.append(p)
            remaining ^= p
            if not remaining:
                break
        if rest is None:
            out.append(c)
            continue
        changed = True
        if first_part & (first_part - 1):
            out.append(first_part)
        for p in rest:
            if p & (p - 1):
                out.append(p)
    return out, changed


def meet_is_discrete(partitions: Iterable[DistancePartition], ground_size: int) -> bool:
    """True when the common refinement of the partitions has only singletons."""
    classes = [(1 << ground_size) - 1] if ground_size > 1 else []
    for part in partitions:
        classes, _ = _refine(classes, part.masks)
        if not classes:
            return True
    return not classes


def _level_search(
    k: int,
    init_classes: list[int],
    landmark_classes: Sequence[Sequence[int]],
    n: int,
    m_max: int,
) -> tuple[int, ...] | None:
    """First generator of exactly k landmarks in lexicographic order.

    Sound only when every smaller cardinality has already been refuted:
    the search skips landmarks that do not refine the running meet, which
    can only hide generators that contain a redundant landmark, and those
    imply a strictly smaller generator.
    """
    if k == 0:
        return () if not init_classes else None
    prefix: list[int] = []

    def rec(start: int, classes: list[int], depth: int) -> tuple[int, ...] | None:
        r = k - depth
        if not classes:
            # Everything already resolved; lex-least completion wins.
            if n - start >= r:
                return tuple(prefix) + tuple(range(start, start + r))
            return None
        if r == 0:
            return None
        # A landmark splits a class into at most m_max parts, so a class
        # bigger than m_max**r can never be shattered by r more landmarks.
        biggest = max(c.bit_count() for c in classes)
        if biggest > m_max**r:
            return None
        for z in range(start, n - r + 1):
            nc, changed = _refine(classes, landmark_classes[z])
            if not changed:
                continue
            prefix.append(z)
            hit = rec(z + 1, nc, depth + 1)
            if hit is not None:
                return hit
            prefix.pop()
        return None

    return rec(0, init_classes, 0)


def _minimum_generator(
    g: Graph,
    kind: str,
    max_k: int | None = None,
    min_k: int = 0,
) -> ResolveResult | None:
    dm = _require_connected(g)
    n = g.n
    ground_size = n if kind == "vertex" else len(g.edges)
    top = n if max_k is None else min(max_k, n)
    # Every landmark z sorts the ground set into at most ecc(z)+1 <= diam+1
    # distance classes, so top landmarks tell at most (diam+1)**top items
    # apart.  This is the level search's root prune, taken before any
    # landmark classes are built.  Past bit_length the power already beats
    # ground_size, so the exponent is clamped there to keep it small.
    bound = min(top, ground_size.bit_length())
    if max_k is not None and ground_size > (max(map(max, dm)) + 1) ** bound:
        return None
    if kind == "vertex":
        landmark_classes: list[list[int]] = [
            _vertex_classes(dm, z, n) for z in range(n)
        ]
    else:
        edges = g.edges
        landmark_classes = [_edge_classes(dm, z, edges) for z in range(n)]
    init = [(1 << ground_size) - 1] if ground_size > 1 else []
    m_max = max((len(c) for c in landmark_classes), default=1)
    for k in range(min_k, top + 1):
        witness = _level_search(k, init, landmark_classes, n, m_max)
        if witness is not None:
            return ResolveResult(kind, k, witness)
    return None


def metric_dimension(
    g: Graph, *, max_k: int | None = None, min_k: int = 0
) -> ResolveResult | None:
    """Exact metric dimension with its lexicographically least basis.

    ``max_k`` caps the search and makes the result ``None`` when no generator
    of at most that many landmarks exists.  ``min_k`` resumes an earlier
    capped search; it is only sound when all smaller cardinalities are
    already known to fail.
    """
    return _minimum_generator(g, "vertex", max_k=max_k, min_k=min_k)


def edge_metric_dimension(
    g: Graph, *, max_k: int | None = None, min_k: int = 0
) -> ResolveResult | None:
    """Exact edge metric dimension with its lexicographically least basis."""
    return _minimum_generator(g, "edge", max_k=max_k, min_k=min_k)


def is_metric_generator(g: Graph, landmarks: Iterable[int]) -> bool:
    """Does the landmark set give every vertex a distinct distance vector?"""
    dm = _require_connected(g)
    s = sorted(set(landmarks))
    _check_landmarks(g, s)
    classes = [(1 << g.n) - 1] if g.n > 1 else []
    for z in s:
        classes, _ = _refine(classes, _vertex_classes(dm, z, g.n))
        if not classes:
            return True
    return not classes


def is_edge_metric_generator(g: Graph, landmarks: Iterable[int]) -> bool:
    """Does the landmark set give every edge a distinct distance vector?"""
    dm = _require_connected(g)
    s = sorted(set(landmarks))
    _check_landmarks(g, s)
    edges = g.edges
    classes = [(1 << len(edges)) - 1] if len(edges) > 1 else []
    for z in s:
        classes, _ = _refine(classes, _edge_classes(dm, z, edges))
        if not classes:
            return True
    return not classes


def _check_landmarks(g: Graph, s: Sequence[int]) -> None:
    for z in s:
        if not 0 <= z < g.n:
            raise ValueError(f"landmark {z} out of range for order {g.n}")


def resolution_vector(
    g: Graph, item: int | Edge, landmarks: Sequence[int]
) -> tuple[int, ...]:
    """Ordered distances from one vertex (int) or edge (pair) to the landmarks."""
    dm = _require_connected(g)
    if isinstance(item, tuple):
        u, v = item
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        return tuple(min(dm[u][z], dm[v][z]) for z in landmarks)
    return tuple(dm[item][z] for z in landmarks)


def _vector_rows(g: Graph, kind: str) -> list[tuple[int, ...]]:
    """Per-landmark distance rows over the ground set, for the oracle path."""
    dm = _require_connected(g)
    if kind == "vertex":
        return [tuple(dm[z]) for z in range(g.n)]
    rows = []
    for z in range(g.n):
        row = dm[z]
        rows.append(tuple(min(row[u], row[v]) for u, v in g.edges))
    return rows


def _naive_minimum(rows: list[tuple[int, ...]], ground_size: int, n: int, kind: str) -> ResolveResult:
    if ground_size <= 1:
        return ResolveResult(kind, 0, ())
    for k in range(1, n + 1):
        for s in combinations(range(n), k):
            if len(set(zip(*(rows[z] for z in s)))) == ground_size:
                return ResolveResult(kind, k, s)
    raise AssertionError("full landmark set must always resolve")


def metric_dimension_naive(g: Graph) -> ResolveResult:
    """Reference solver: materialise all vectors per subset, no partitions."""
    if g.n > NAIVE_MAX_ORDER:
        raise InstanceTooLarge(f"naive solver capped at n <= {NAIVE_MAX_ORDER}")
    return _naive_minimum(_vector_rows(g, "vertex"), g.n, g.n, "vertex")


def edge_metric_dimension_naive(g: Graph) -> ResolveResult:
    """Reference solver for the edge variant; subsets and vector sets only."""
    if g.n > NAIVE_MAX_ORDER:
        raise InstanceTooLarge(f"naive solver capped at n <= {NAIVE_MAX_ORDER}")
    return _naive_minimum(_vector_rows(g, "edge"), len(g.edges), g.n, "edge")
