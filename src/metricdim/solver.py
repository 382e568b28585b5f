"""Exact solvers for metric dimension and edge metric dimension.

A landmark set S resolves the vertices (edges) of a connected graph when the
distance vectors to S are pairwise distinct over all vertices (edges).  The
solvers here search landmark subsets in ascending cardinality and, within one
cardinality, in lexicographic order, so the reported witness is always the
lexicographically least minimum-cardinality generator.

The search is a minimum hitting set (Khuller, Raghavachari and Rosenfeld,
*Landmarks in graphs*, 1996).  Each item's distances to all n landmarks are
packed into one int, a lane of w bits per landmark, w being the smallest
power of two that holds the diameter; an edge takes the lane-wise minimum
of its endpoints.  XOR-ing two items and folding every lane onto its low
bit gives the pair's separator mask, the landmarks that tell the pair
apart, and S resolves the graph exactly when it hits every mask.  Distinct
masks are kept, supersets of other masks dropped, and the rest sorted by
popcount.  Cardinalities k ascend from ``min_k``; each is a lexicographic
depth-first search over landmarks, which at every node

1. refutes when a remaining mask has no landmark at or above the next
   candidate;
2. tries next landmarks only up to the smallest top landmark among the
   remaining masks, because the completion must hit that mask;
3. refutes when more masks than landmarks left are pairwise disjoint above
   the next candidate (a greedy pick), because each needs its own landmark.

None of these discards a subtree holding a resolving set of size k, so the
first set found is the lexicographically least.  The search also skips a
landmark that hits no remaining mask, which is sound only because every
smaller k has been refuted: a set with such a landmark would still resolve
without it.

The masks cost one XOR and fold per item pair over n*w bits, so setup grows
with pairs times n*w and dominates on large sparse graphs: ``path:1000``
takes several seconds per solve, almost all of it building masks.  A bounded
search (``max_k``) first refutes by counting distance classes, before any
mask is built.  The generator checks (``is_metric_generator`` and friends)
refine distance partitions encoded as bit vectors instead.

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


def _lane_width(diam: int) -> int:
    """Bits per landmark lane: the smallest power of two holding ``diam``.

    A power of two keeps the OR-fold of ``separation_masks`` inside its
    lane; with any other width it would pull in the next lane's low bit.
    """
    w = 1
    while w < diam.bit_length():
        w <<= 1
    return w


def _lanes(n: int, w: int) -> int:
    """The low bit of each of ``n`` lanes of width ``w``."""
    return ((1 << (n * w)) - 1) // ((1 << w) - 1)


def signatures(rows: Sequence[Sequence[int]], w: int) -> list[int]:
    """Each vertex's distances to all landmarks, landmark z in bits ``[w*z, w*z+w)``.

    ``rows`` is the (symmetric) distance matrix.
    """
    sigs = []
    for row in rows:
        s = 0
        for d in reversed(row):
            s = s << w | d
        sigs.append(s)
    return sigs


def edge_signatures(sigs: Sequence[int], edges: Sequence[Edge], w: int) -> list[int]:
    """Each edge's distances to all landmarks, from the vertex ``signatures``.

    An edge's lane holds the smaller of its two endpoint lanes.  Those
    differ by at most one, and for ``k`` against ``k+1`` the XOR is a run
    of ones whose top bit is set in ``k+1`` alone; the minimum is the
    common bits plus that run without its top bit.
    """
    below_top = _lanes(len(sigs), w) * ((1 << (w - 1)) - 1)
    out = []
    for u, v in edges:
        a, b = sigs[u], sigs[v]
        x = a ^ b
        out.append(a & b | x & (x >> 1 & below_top))
    return out


def separation_masks(sigs: Sequence[int], w: int, n: int) -> list[int]:
    """Distinct per-pair masks of the landmarks that tell two items apart.

    The XOR of two signatures is non-zero exactly in the separating lanes;
    OR-folding each lane onto its low bit leaves landmark z at bit ``w*z``.
    The result is sorted by popcount.
    """
    low = _lanes(n, w)
    masks = set()
    for i, a in enumerate(sigs):
        for b in sigs[i + 1 :]:
            d = a ^ b
            shift = 1
            while shift < w:
                d |= d >> shift
                shift <<= 1
            masks.add(d & low)
    return sorted(masks, key=int.bit_count)


def _disjoint_count(masks: list[int], cap: int) -> int:
    """Greedy count of pairwise disjoint masks, stopping past ``cap``."""
    seen = count = 0
    for m in masks:
        if not m & seen:
            seen |= m
            count += 1
            if count > cap:
                break
    return count


def _drop_supersets(masks: list[int]) -> list[int]:
    """Masks (sorted by popcount) without any superset of another mask.

    Hitting the smaller mask hits the larger one, so the hitting sets stay
    the same.
    """
    kept: list[int] = []
    for m in masks:
        for k in kept:
            if m & k == k:
                break
        else:
            kept.append(m)
    return kept


def _lex_least_hitting_set(
    masks: list[int], n: int, w: int, min_k: int, max_k: int
) -> tuple[int, ...] | None:
    """Lexicographically least smallest landmark set hitting every mask.

    ``masks`` come from ``separation_masks``.  Cardinalities ``min_k`` to
    ``max_k`` are tried in ascending order; None means that no set of at
    most ``max_k`` landmarks hits every mask.  ``min_k`` must not exceed
    the true minimum: the search skips landmarks that hit no remaining
    mask, which can only hide sets that contain a redundant landmark, and
    those imply a strictly smaller one.
    """
    # The disjoint-masks bound at the root, taken before the search index
    # is built.  Greedy picks by popcount never take a superset of another
    # mask, so the bound equals the one the search would find at its root.
    min_k = max(min_k, _disjoint_count(masks, max_k))
    if min_k > max_k:
        return None
    masks = _drop_supersets(masks)
    # The search works on sets of masks: bit i stands for masks[i].
    # hits[z]: the masks landmark z hits.  Each mask's string of bits, one
    # character per landmark, is read down the columns.
    width = n * w
    column = "".join([format(m, f"0{width}b")[::-w] for m in reversed(masks)])
    hits = [int(column[z::n] or "0", 2) for z in range(n)]
    above = [0] * (n + 1)  # above[s]: the masks with a landmark >= s
    for z in range(n - 1, -1, -1):
        above[z] = above[z + 1] | hits[z]
    prefix: list[int] = []

    def rec(start: int, rem: int, r: int) -> tuple[int, ...] | None:
        if not rem:
            # Everything already hit; lex-least completion wins.
            if n - start >= r:
                return (*prefix, *range(start, start + r))
            return None
        if r == 0 or rem & ~above[start]:
            return None
        if r > 1 and rem.bit_count() > r:
            # Masks pairwise disjoint above start each need a landmark of
            # their own; r+1 of them, picked greedily, refute.
            base = w * start
            free = rem
            for _ in range(r + 1):
                if not free:
                    break
                m = masks[(free & -free).bit_length() - 1] >> base
                while m:
                    low = m & -m
                    free &= ~hits[start + (low.bit_length() - 1) // w]
                    m ^= low
            else:
                return None
        for z in range(start, n - r + 1):
            h = hits[z]
            if rem & h:
                if r == 1:
                    if not rem & ~h:
                        return (*prefix, z)
                else:
                    prefix.append(z)
                    found = rec(z + 1, rem & ~h, r - 1)
                    if found is not None:
                        return found
                    prefix.pop()
            if rem & ~above[z + 1]:
                # A remaining mask has no landmark above z, and the
                # lex-least completion must still hit it.
                break
        return None

    every = (1 << len(masks)) - 1
    for k in range(min_k, max_k + 1):
        found = rec(0, every, k)
        if found is not None:
            return found
    return None


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
    diam = max(map(max, dm))
    # Every landmark z sorts the ground set into at most ecc(z)+1 <= diam+1
    # distance classes, so top landmarks tell at most (diam+1)**top items
    # apart.  Past bit_length the power already beats ground_size, so the
    # exponent is clamped there to keep it small.
    bound = min(top, ground_size.bit_length())
    if max_k is not None and ground_size > (diam + 1) ** bound:
        return None
    w = _lane_width(diam)
    sigs = signatures(dm, w)
    if kind == "edge":
        sigs = edge_signatures(sigs, g.edges, w)
    witness = _lex_least_hitting_set(separation_masks(sigs, w, n), n, w, min_k, top)
    if witness is None:
        return None
    return ResolveResult(kind, len(witness), witness)


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
