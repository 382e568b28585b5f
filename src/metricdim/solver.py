"""Exact solvers for metric dimension and edge metric dimension.

A landmark set S resolves the vertices (edges) of a connected graph when the
distance vectors to S are pairwise distinct over all vertices (edges).  The
solvers here search landmark subsets in ascending cardinality and, within one
cardinality, in lexicographic order, so the reported witness is always the
lexicographically least minimum-cardinality generator.

The search is a minimum hitting set (Khuller, Raghavachari and Rosenfeld,
*Landmarks in graphs*, 1996).  ``Graph.signatures`` gives each vertex its
distances to all n landmarks as bit planes: bit ``b*n + z`` is bit b of the
distance to landmark z.  Up to ``PACKED_MAX_ORDER`` (64) vertices they come
from one BFS walk from every source at once, in 64-bit word lanes while
n·⌈log2 n⌉ ≤ 64 (n ≤ 16) and n-bit lanes above; larger orders walk each
source in turn.  One pass per graph, cached, serves every solve and check.
``Graph.edge_signatures`` gives each edge the landmark-wise minimum of its
endpoints, read off each adjacency row above its own vertex and cached
beside them; only the naive oracle builds the edge list (``Graph.edges``).
XOR-ing two items and OR-folding the planes onto the lowest gives the pair's
separator mask, an n-bit set of the landmarks that tell the pair apart, and
S resolves the graph exactly when it hits every mask.

Up to ``LATTICE_MAX_ORDER`` (16) landmarks, every landmark set is one bit of
a ``2**n``-bit int, and all cardinalities are decided at once (a zeta-style
down-closure over the subset lattice; Björklund, Husfeldt, Kaski and
Koivisto, *Fourier meets Möbius*, STOC 2007).  A set misses a mask exactly
when it lies inside the mask's complement, so the complements are marked and
closed downwards with n shifts, ``bad |= (bad & hi[i]) >> 2**i``, where
``hi[i]`` holds the sets that contain landmark i.  What is left is every
resolving set.  The smallest k with a resolving set among the k-sets,
``pop[k]``, is the dimension, and the lexicographically least of those sets
is found greedily: for i ascending, keep the sets containing landmark i
whenever there are any.  ``_dimension`` stops at k: no greedy pass, witness
or ``ResolveResult``; on the split it adds |F| to the split's size.  It
serves ``solved_dims``, the (dim, edim) of the scans, the census, the suites
and the CLI, whose edge solve an ``edim_window`` may cap.  ``hi`` and
``pop`` are built on first use for each order and cached; at order 16 they
are 33 ints of 8 KiB.  Every landmark more doubles the tables and the ints
each solve works on.  On random sparse graphs one solve takes about 0.4 ms
at order 16, half the depth-first search's time, but about 6 ms at order
20, twice its time, with about 7 MiB more peak memory; hence the lattice
limit of 16.

Larger orders, and every order with twins forced (below), split the search
first.  Distinct masks are kept, supersets of other masks dropped, and
landmarks that share a kept mask are joined into components.  No mask spans
two components, so the dimension is the sum of the component minima, and
the lexicographically least basis is the sorted union of the components'
lexicographically least sets: for sets of equal size, S comes before T
exactly when the least landmark of their symmetric difference lies in S,
and that landmark lies in one component.  Each component's landmarks are
relabelled 0, 1, ... in ascending order, which keeps that order.  A
component of at most ``LATTICE_MAX_ORDER`` landmarks goes to the subset
lattice, a larger one to a depth-first search.  A bounded search stops as
soon as the minima found so far, plus one landmark for each component left,
pass ``max_k``.  A chain of gadgets splits into about one component per
copy, so its exact dimension no longer grows with the product of the
copies' searches.

A component of more than ``LATTICE_MAX_ORDER`` landmarks first drops its
dominated landmarks (Weihe, *Covering trains by stations or the power of
data reduction*, ALEX 1998).  Landmark a is dominated when a smaller
landmark b hits every kept mask that a hits.  A basis holding a can swap a
for b, which gives either a redundant landmark or a lexicographically
smaller set, so the lexicographically least minimum basis holds no
dominated landmark.  That basis still hits the masks with the dominated
landmarks cleared, and every set that hits those also hits the originals,
so the witness and every bounded result stay the same.  Each round clears
the dominated landmarks; if a column (the masks a landmark hits) lay
strictly inside its dominator's, the masks that became supersets are
dropped, which can dominate more, and another round runs.  The result is
split into components again, and each goes to the lattice or the
depth-first search by its size.  Antipodal vertices of C8×C8 tell the same
pairs apart, so its one component of 64 landmarks leaves 32, for both
kinds.  The pieces can outnumber the disjoint masks counted first, so a
bounded search may cap a component at 0 landmarks or below; it then
returns None, which is right, since each component needs a landmark of its
own.  Components within the lattice are not reduced: on the many small
components of the gadgets the reduction costs more than it saves.

Above ``TWINS_ABOVE_ORDER`` (12) vertices, twin landmarks are forced before
any search.  Vertices u and v are twins when N(u) - {v} = N(v) - {u}: equal
adjacency rows, or equal rows once each holds its own bit.  Every resolving
set holds all but one vertex of each twin class (Hernando, Mora, Pelayo,
Seara and Wood, *Extremal graph theory for metric dimension and diameter*,
EJC 2010), and the forced set F is every member of a class but its largest.
The witness stays the same.  For n >= 3, the mask of a twin pair is exactly
{u, v} for both kinds; for edges, the two edges to a common neighbour give
it.  The transposition (u v) is an automorphism, so the lexicographically
least basis holds the t - 1 smallest members of a class of size t.  Among
sets that contain F, lexicographic order is the order of what remains, so
the witness is F plus the lexicographically least smallest set hitting the
masks that F misses, and a bound ``max_k`` refutes at once below |F|.  On
K2 the two vertices are twins, but its edge dimension is 0, so nothing is
forced below order 3.  Two items agree on every landmark of F exactly when
their signatures agree on F's bits in every plane, which is exactly when
their mask misses F.  So the items are grouped by those bits in one dict
pass, only the pairs inside a group are folded, one at a time, at every
order, and their masks go to the split; no mask that F hits is built.
Every gadget's pendants form a class, so ``L:100,6,1,2`` (order 1,100)
folds 899 of its 604,450 vertex pairs and 1,098 of its 718,201 edge pairs.
On G(n, 0.3) and G(n, 0.5) graphs with one planted twin pair (Python 3.11,
2 vCPUs; both kinds, signatures cached) the rule costs more than it saves
at orders 10-16 (192 against 70 µs per graph at order 10, 509 against 206
at order 13) and wins at order 20 (5.0 against 7.6 ms).  Graphs with large
twin classes win from order 13: with the limit at 16 rather than 12, the
paper's suites take 67 ms a pass rather than 59; hence the order limit.

The depth-first search tries cardinalities k ascending from a greedy count
of pairwise disjoint masks, each of which needs a landmark of its own; each
k is a lexicographic search over landmarks, which at every node

1. tries next landmarks only up to the smallest top landmark among the
   remaining masks, because the completion must hit that mask, so every
   mask a child holds has a landmark at or above its first candidate;
2. refutes when more masks than landmarks left are pairwise disjoint above
   the next candidate (a greedy pick), because each needs its own landmark.

Neither cut discards a subtree holding a resolving set of size k, so the
first set found is the lexicographically least.  The search also skips a
landmark that hits no remaining mask, which is sound only because no smaller
k has a resolving set, being below that count or refuted: a set with such a
landmark would still resolve without it.  The last landmark is not searched
for: it must lie in every remaining mask, so the search ANDs those masks,
smallest first, from the next candidate up, stops as soon as the AND is
empty, and else takes its lowest landmark.

There are two mask builders, one per search, and both fold by shifts of n,
2n, 4n, ... (``_fold_shifts``).  The lattice's masks, for a twin-free graph
of at most 16 vertices, come from a few whole-buffer operations
(``_packed_masks``): the signatures fill the slots of one buffer, each slot
one machine word, one XOR of the repeated buffer against a shifted read of
it lines up every pair, and one fold over the whole int and one AND leave
each mask alone in its slot; the slot layout is cached per order and plane
count, the lane mask per slot count.  Every graph that goes to the split, at
every order, gets its masks from the twin-class fold above, F empty and one
class holding every item when the graph is twin-free.  Each pair then costs
one XOR and fold over n times ``diam.bit_length()`` bits, so setup grows
with pairs times that width and dominates on large twin-free sparse graphs
such as ``path:1000``; with twins forced, only the pairs inside a class are
folded.  No construction of the paper is twin-free, since every gadget hangs
twin pendants on its hub.  The distinct masks go to the split sorted by
popcount, then value.  A bounded search (``max_k``) first refutes by
counting distance classes, before any mask is built.  A capped edge search
on the whole lattice (``max_k`` at least 1) then refutes, before any edge
item is built, when no ``max_k`` landmarks hit the vertex masks of every
pair u, v with a common neighbour w: landmarks that give u and v equal
distances give uw and vw equal ones, since d(uw, z) = min(d(u, z), d(w, z)).
The generator checks (``is_metric_generator`` and its edge twin) compare
the signatures restricted to the landmark set in every plane.

A scan solves the vertex dimensions of its graphs of each order 3..12 (no
twins forced) 64 at a time, graph b in block b of ``2**n`` bits of one
lattice int (``solved_dims_of``).  The walk never carries into another
lane, a word's fold reads only its own word (``n << len(shifts) <= 64``),
each graph marks only its own block, and ``>> 2**i`` moves only sets that
hold landmark i, so the closure never leaves a block.

A deliberately dumb reference implementation (materialise every distance
vector per subset, no partition machinery) is kept alongside as an oracle
for cross-validation; it is capped at small orders.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .graph import _ORDER, DisconnectedGraph, Edge, Graph, batch_signatures, iter_bits

NAIVE_MAX_ORDER = 16
LATTICE_MAX_ORDER = 16  # most landmarks the subset lattice takes at once
TWINS_ABOVE_ORDER = 12  # twin landmarks are forced only above this order
_BATCH_WIDTH = 64  # graphs in one batched walk and vertex solve, the missing ones padded
# Orders 3..12 (no twins forced) batched, each with the fewest graphs left that a padded slice
# solves sooner than one by one: medians of five timeit runs on seeded G(n, 1/2), 2 vCPUs.
_BATCH_LEAST = {3: 12, 4: 17, 5: 20, 6: 20, 7: 23, 8: 27, 9: 32, 10: 33, 11: 47, 12: 55}


class InstanceTooLarge(ValueError):
    """Reference solver asked to handle a graph beyond its guard rail."""


@dataclass(frozen=True)
class ResolveResult:
    """Exact dimension plus the lexicographically least witness basis."""

    kind: str  # "vertex" or "edge"
    dimension: int
    witness: tuple[int, ...]


_INCREMENT = bytes(range(1, 256)) + b"\0"  # byte c to c + 1


def _separator_masks(pairs: Iterable[tuple[int, int]], n: int, diam: int) -> set[int]:
    """Distinct masks of the landmarks that tell each pair of items apart.

    ``pairs`` are signature pairs, every pair of the ground set being
    ``combinations(sigs, 2)``.  The XOR of two signatures is non-zero
    exactly at the separating landmarks of some plane; OR-folding the planes
    onto the lowest leaves landmark z at bit z.
    """
    full = (1 << n) - 1
    shifts = _fold_shifts(n, diam.bit_length())
    masks: set[int] = set()
    add = masks.add
    for a, b in pairs:
        d = a ^ b
        for shift in shifts:
            d |= d >> shift
        add(d & full)
    return masks


def _fold_shifts(n: int, planes: int) -> tuple[int, ...]:
    """Shifts that OR-fold ``planes`` planes of n bits onto the lowest, at any n."""
    return tuple(n << i for i in range(max(planes - 1, 0).bit_length()))


@cache
def _slot_layout(n: int, planes: int) -> tuple[str, int, tuple[int, ...], bytes]:
    """Array item code, slot width, fold shifts and lane mask, for at most 16 landmarks.

    A slot holds every plane that ``_fold_shifts`` reads, so the fold never
    reads the next slot.  It is the smallest array item of 16, 32 or 64 bits
    that fits: 16 landmarks of four planes fill 64.  After the AND with the
    lane mask a slot holds only its mask, so the item reads back as the mask
    itself.
    """
    shifts = _fold_shifts(n, planes)
    item = next(c for c in "HIQ" if array(c).itemsize * 8 >= n << len(shifts))
    width = array(item).itemsize
    return item, width, shifts, ((1 << n) - 1).to_bytes(width, _ORDER)


def _packed_masks(
    sigs: Sequence[int], n: int, diam: int, rows: Sequence[int] | None = None
) -> memoryview:
    """Every pair's separator mask, some twice, for at most 16 landmarks.

    ``_separator_masks`` by a few whole-buffer operations, each mask one
    array item.  The signatures fill one slot each of a buffer, read as a
    cycle of N slots.  Block k of the right operand reads the cycle from
    slot k for N + 1 slots, so blocks 1 to N // 2 follow each other in one
    contiguous read of the repeated buffer; every block of the left operand
    reads it from slot 0.  Block k lines up item i with item i + k (mod N),
    and every pair is at most N // 2 apart around the cycle, so those blocks
    hold every pair's mask, some twice.  One XOR, the fold over the whole
    int and one AND with the lane mask in every slot leave each pair's mask
    alone in its slot.  Sixteen landmarks take slots of at most 8 bytes, so
    K16's 120 edges, the most items, need 58,080 bytes per operand.  Only
    twin-free graphs come here: with twins forced, only the pairs inside a
    twin class are folded.

    With the vertices' adjacency ``rows``, only the pairs with a common
    neighbour keep their masks.  The rows are lined up in the same slots
    and ANDed, and each slot is folded onto its bit 0 by shifts 1, 2, 4 and
    8: bit 0 reads bits 0 to 15 of its own slot, which has at least 16 (all
    taken by K16's rows), and no other.  Every slot whose rows share no bit
    gets the full landmark set, which any non-empty set hits.
    """
    item, width, shifts, lane = _slot_layout(n, diam.bit_length())
    turns = len(sigs) // 2
    left, right, size = _cycle_pairs(array(item, sigs).tobytes(), width, turns)
    d = left ^ right
    for shift in shifts:
        d |= d >> shift
    d &= _lane_mask(lane, size // width)
    if rows is not None:
        left, right, _ = _cycle_pairs(array(item, rows).tobytes(), width, turns)
        common = left & right
        for shift in (1, 2, 4, 8):
            common |= common >> shift
        ones = _lane_mask((1).to_bytes(width, _ORDER), size // width)
        d |= (common & ones ^ ones) * ((1 << n) - 1)
    return memoryview(d.to_bytes(size, _ORDER)).cast(item)


def _cycle_pairs(buf: bytes, slot: int, turns: int) -> tuple[int, int, int]:
    """Two ints pairing each slot with the one k on in block k <= ``turns``, and their bytes."""
    size = turns * (len(buf) + slot)
    left = (buf + buf[:slot]) * turns
    right = (buf * (turns + 2))[slot : slot + size]
    return int.from_bytes(left, _ORDER), int.from_bytes(right, _ORDER), size


@cache
def _lane_mask(lane: bytes, slots: int) -> int:
    """``lane`` repeated in each of ``slots`` slots, read as one int."""
    return int.from_bytes(lane * slots, _ORDER)


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


def _columns(masks: list[int], n: int) -> list[int]:
    """``hits[z]``: the masks landmark z hits, bit i standing for ``masks[i]``.

    Each mask's string of bits, one character per landmark and landmark 0
    last, is read down the columns.
    """
    column = "".join([format(m, f"0{n}b") for m in reversed(masks)])
    return [int(column[n - 1 - z :: n] or "0", 2) for z in range(n)]


def _drop_dominated(masks: list[int], n: int) -> list[int]:
    """Masks (sorted by popcount, no superset of another) without dominated landmarks.

    Landmark a is dominated when a smaller landmark b hits every mask that
    a hits; of equal columns the smallest label stays.  Such a b lies in
    every mask a hits, so those masks are ANDed below a until at most one
    landmark is left, and its column decides.  Landmarks are tested in
    ascending order and b is never one dropped before, so every dominator
    stays.  Each round clears the dominated landmarks.  Clearing one whose
    column equals its dominator's changes no column left and makes no
    superset: a mask that missed it misses the dominator too, which stays
    in every mask that held it.  So only after a strict drop are the
    supersets dropped and every landmark tested again.  A landmark left in
    no mask stays out of every component.
    """
    while True:
        hits = _columns(masks, n)
        dropped = 0
        strict = False  # a column strictly inside its dominator's
        for a in range(1, n):
            col = hits[a]
            below = ((1 << a) - 1) & ~dropped
            rest = col
            while rest and below & (below - 1):
                low = rest & -rest
                below &= masks[low.bit_length() - 1]
                rest ^= low
            if col and below:
                dominator = hits[(below & -below).bit_length() - 1]
                if not col & ~dominator:
                    dropped |= 1 << a
                    strict = strict or col != dominator
        if not dropped:
            return masks
        masks = sorted(sorted([m & ~dropped for m in masks]), key=int.bit_count)
        if not strict:
            return masks
        masks = _drop_supersets(masks)


@cache
def _tables(n: int) -> tuple[list[int], list[int]]:
    """Subset-lattice tables for ``n`` landmarks, built once per order.

    Bit s of an int stands for the landmark set s.  ``hi[i]`` holds the
    sets that contain landmark i, ``pop[k]`` the sets of k landmarks.
    """
    size = 1 << n
    # Read by int(..., 2), character s stands for the set full ^ s.
    hi = []
    for i in range(n):
        h = 1 << i
        hi.append(int(("1" * h + "0" * h) * (size // (2 * h)), 2))
    counts = bytearray(1)  # counts[s]: the popcount of the set full ^ s
    for _ in range(n):
        counts = counts.translate(_INCREMENT) + counts
    pop = []
    for k in range(n + 1):
        digits = bytes(49 if c == k else 48 for c in range(256))
        pop.append(int(counts.translate(digits), 2))
    return hi, pop


def _lattice_hitting_set(masks: Iterable[int], n: int, max_k: int) -> tuple[int, ...] | None:
    """``_lex_least_hitting_set`` by one pass over the subset lattice.

    A set misses a mask exactly when it lies inside the mask's complement,
    so the sets that hit every mask are those below no complement.  The
    complements are marked in one int of ``2**n`` bits and down-closed, one
    landmark at a time; the smallest cardinality with a set left over
    wins, and among those sets the lexicographically least keeps the
    smallest landmarks it can, one at a time.  It takes twin-free graphs of
    at most 16 vertices whole, and the split's components of at most 16
    landmarks.
    """
    c = _resolving_sets(masks, n, max_k)
    if not c:
        return None
    for h in _tables(n)[0]:
        if c & h:
            c &= h
    return tuple(iter_bits(c.bit_length() - 1))


def _resolving_sets(masks: Iterable[int], n: int, max_k: int) -> int:
    """The smallest sets of at most ``max_k`` landmarks hitting every mask, set s at bit s; or 0."""
    # Character s of the string stands for bit full ^ s of the int, the
    # complement of mask s.
    marks = bytearray(b"0" * (1 << n))
    for m in masks:
        marks[m] = 49
    hi, pop = _tables(n)
    bad = int(marks, 2)
    for i in range(n):
        bad |= (bad & hi[i]) >> (1 << i)
    for k in range(max_k + 1):
        c = pop[k] & ~bad
        if c:
            return c
    return 0


def _batch_dimensions(graphs: Sequence[Graph], width: int) -> list[int]:
    """The metric dimensions of up to ``width`` connected graphs of one order 3..12 at once.

    ``_packed_masks`` and ``_resolving_sets`` over many graphs, with tables
    repeated per graph.  Word ``v * width + b`` holds vertex v of graph b,
    and mask m of graph b marks bit ``b * 2**n + (full ^ m)``.  A block's
    bits below its top, added to its resolving k-sets (k < n), reach its top
    exactly when there is one; those sets are closed upwards, so a dimension
    is the last k tried plus one, less the number of k with one.  Missing
    graphs' zero signatures never resolve.
    """
    n, count = graphs[0].n, len(graphs)
    step, words = 1 << n - 3, n // 2 * (n + 1)  # bytes per block, words per graph
    hi, pop = ([_lane_mask(x.to_bytes(step, _ORDER), width) for x in t] for t in _tables(n))
    top = _lane_mask((1 << (1 << n) - 1).to_bytes(step, _ORDER), width)
    lane = _lane_mask(((1 << n) - 1).to_bytes(8, _ORDER), width * words)
    offsets = _lane_mask(array("Q", [width - 1 - b << n for b in range(width)]).tobytes(), words)
    sigs = [g.signatures() for g in graphs] + [((0,) * n, 0)] * (width - count)
    buf = array("Q", chain.from_iterable(zip(*[s for s, _ in sigs]))).tobytes()
    left, right, size = _cycle_pairs(buf, 8 * width, n // 2)  # a slot: one vertex of every graph
    d = left ^ right
    for shift in _fold_shifts(n, max(diam for _, diam in sigs).bit_length()):
        d |= d >> shift
    marks = bytearray(b"0") * (width << n)
    view = memoryview((d & lane | offsets).to_bytes(size, _ORDER)).cast("Q")
    for k in range(1, n // 2 + 1):  # each pair once: no slot n, half of slot n // 2
        start = (k - 1) * (n + 1) * width
        for p in view[start : start + (k if 2 * k == n else n) * width]:
            marks[p] = 49
    bad = int(marks, 2)
    for i, h in enumerate(hi):
        bad |= (bad & h) >> (1 << i)
    used, fill = top & (1 << (count << n)) - 1, top - (top >> (1 << n) - 1)
    good, decided = ~bad, 0
    for k in range(1, n):
        found = (pop[k] & good) + fill & top
        decided += found >> (1 << n) - 1
        if found & used == used:
            break
    counts = decided.to_bytes(width * step, "little")  # each block's low byte first
    return [k + 1 - c for c in counts[: count * step : step]]


def _lex_least_hitting_set(
    masks: list[int], n: int, max_k: int
) -> tuple[int, ...] | None:
    """Lexicographically least smallest landmark set hitting every mask.

    ``masks`` are landmark sets sorted by popcount; dropping supersets first
    (``_drop_supersets``) keeps the answer and shrinks the search.
    Cardinalities from the disjoint-masks bound up to ``max_k`` are tried in
    ascending order; None means that no set of at most ``max_k`` landmarks
    hits every mask.  No smaller set than the one tried hits them all, so
    the search may skip landmarks that hit no remaining mask: that can only
    hide sets that contain a redundant landmark, and those imply a strictly
    smaller one.
    """
    least = _disjoint_count(masks, max_k)
    if least > max_k:
        return None
    # The search works on sets of masks: bit i stands for masks[i].
    hits = _columns(masks, n)
    above = [0] * (n + 1)  # above[s]: the masks with a landmark >= s
    for z in range(n - 1, -1, -1):
        above[z] = above[z + 1] | hits[z]
    prefix: list[int] = []

    def rec(start: int, rem: int, r: int) -> tuple[int, ...] | None:
        if not rem:
            # Here r == 0: every landmark taken hit a remaining mask, and k
            # rises from a lower bound, so a spare landmark would mean a
            # smaller hitting set that an earlier k found.
            return tuple(prefix)
        if r == 1:
            # The last landmark must lie in every mask left: AND them,
            # smallest first, and stop as soon as the AND is empty.
            common = -1 << start
            while rem:
                low = rem & -rem
                common &= masks[low.bit_length() - 1]
                if not common:
                    return None
                rem ^= low
            return (*prefix, (common & -common).bit_length() - 1)
        if rem.bit_count() > r:
            # Masks pairwise disjoint above start each need a landmark of
            # their own; r+1 of them, picked greedily, refute.
            free = rem
            for _ in range(r + 1):
                if not free:
                    break
                m = masks[(free & -free).bit_length() - 1] >> start
                while m:
                    low = m & -m
                    free &= ~hits[start + low.bit_length() - 1]
                    m ^= low
            else:
                return None
        for z in range(start, n - r + 1):
            h = hits[z]
            if rem & h:
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
    for k in range(least, max_k + 1):
        found = rec(0, every, k)
        if found is not None:
            return found
    return None


def _components(masks: list[int], n: int) -> list[tuple[list[int], list[int]]]:
    """The masks split into groups that share no landmark, relabelled.

    Landmarks that share a mask join one group.  Each group is its
    landmarks in ascending order and its masks in their given order, with
    landmark ``landmarks[j]`` moved to bit j; that keeps both popcounts and
    the lexicographic order of landmark sets.
    """
    joined: list[int] = []
    covered = 0
    for m in masks:
        if m & covered:
            apart = []
            for c in joined:
                if c & m:
                    m |= c
                else:
                    apart.append(c)
            joined = apart
        joined.append(m)
        covered |= m
    owner: dict[int, list[int]] = {}
    groups = []
    for c in joined:
        landmarks, group = list(iter_bits(c)), []
        for z in landmarks:
            owner[z] = group
        groups.append((landmarks, group))
    for m in masks:
        owner[(m & -m).bit_length() - 1].append(m)
    for landmarks, group in groups:
        if landmarks[-1] >= len(landmarks):
            # Not yet landmarks 0, 1, ...: pick their characters of each
            # mask's string of bits, landmark 0 last.
            pick = itemgetter(*[n - 1 - z for z in reversed(landmarks)])
            group[:] = [int("".join(pick(format(m, f"0{n}b"))), 2) for m in group]
    return groups


def _split_hitting_set(masks: list[int], n: int, max_k: int) -> tuple[int, ...] | None:
    """``_lex_least_hitting_set`` solved one landmark-disjoint group at a time.

    The groups' minima add up to the dimension, and the sorted union of
    their lexicographically least sets is the lexicographically least
    whole: for sets of equal size, S comes before T exactly when the least
    landmark of their symmetric difference lies in S, and that landmark
    belongs to one group.  A group of more than ``LATTICE_MAX_ORDER``
    landmarks drops its dominated landmarks first (``_drop_dominated``) and
    is split again.  Smaller groups go first; each is capped so that every
    later group can still take one landmark.  The disjoint count, checked
    first, is at least the number of groups before the reduction, but the
    pieces of a reduced group can outnumber it, so ``spare`` can fall below
    0.  The first group is then capped at 0 landmarks or below and returns
    None, which is right: each group needs a landmark of its own.
    """
    # Disjoint masks that outnumber max_k refute before the pairwise drop.
    if _disjoint_count(masks, max_k) > max_k:
        return None
    groups = []
    for landmarks, group in _components(_drop_supersets(masks), n):
        size = len(landmarks)
        if size > LATTICE_MAX_ORDER:
            pieces = _components(_drop_dominated(group, size), size)
            groups += [([landmarks[j] for j in sub], part) for sub, part in pieces]
        else:
            groups.append((landmarks, group))
    groups.sort(key=lambda g: len(g[0]))
    spare = max_k - len(groups)  # landmarks beyond one per group
    witness: list[int] = []
    for landmarks, group in groups:
        size = len(landmarks)
        solve = _lattice_hitting_set if size <= LATTICE_MAX_ORDER else _lex_least_hitting_set
        found = solve(group, size, min(spare + 1, size))
        if found is None:
            return None
        spare -= len(found) - 1
        witness += [landmarks[j] for j in found]
    return tuple(sorted(witness))


def _forced_twins(adj: Sequence[int]) -> int:
    """Every member but the largest of each twin class, as a landmark set.

    Twins have equal open rows, or equal rows once each holds its own bit.
    Below order 3 nothing is forced: K2's two vertices are twins, but no
    landmark is needed to tell its one edge apart.
    """
    forced = 0
    if len(adj) < 3:
        return forced
    for rows in (adj, [row | 1 << v for v, row in enumerate(adj)]):
        last: dict[int, int] = {}
        for v, row in enumerate(rows):
            if row in last:
                forced |= 1 << last[row]
            last[row] = v
    return forced


def _instance(g: Graph, kind: str, max_k: int | None):
    """The forced twins F, the masks, the cap on landmarks beyond F, and ``whole``.

    ``whole`` is true when the lattice takes the masks of the whole graph, and
    false when the split takes them sorted.  None when refuted before any mask.
    """
    sigs, diam = g.signatures()
    n = g.n
    ground_size = n if kind == "vertex" else g.m
    top = n if max_k is None else min(max_k, n)
    # Every landmark z sorts the ground set into at most ecc(z)+1 <= diam+1
    # distance classes, so top landmarks tell at most (diam+1)**top items
    # apart.  Past bit_length the power already beats ground_size, so the
    # exponent is clamped there to keep it small.
    bound = min(top, ground_size.bit_length())
    if max_k is not None and ground_size > (diam + 1) ** bound:
        return None
    forced = 0
    if n > TWINS_ABOVE_ORDER:
        forced = _forced_twins(g.adj)
        top -= forced.bit_count()
        if top < 0:
            return None
    whole = n <= LATTICE_MAX_ORDER and not forced
    if kind == "edge":
        # Every edge generator resolves the vertex pairs with a common
        # neighbour.  Not at cap 0: K2 has no such pair, and edim 0.
        if whole and max_k is not None and top > 0:
            if not _resolving_sets(_packed_masks(sigs, n, diam, g.adj), n, top):
                return None
        sigs = g.edge_signatures()
    if whole:
        return 0, _packed_masks(sigs, n, diam), top, True
    # Two items agree on F, in every plane, exactly when their mask misses
    # F: only the pairs inside one such class are folded.  A twin-free graph
    # has F empty, and one class holds every item.
    sel = forced * sum(1 << b * n for b in range(diam.bit_length()))
    classes: dict[int, list[int]] = {}
    for sig in sigs:
        classes.setdefault(sig & sel, []).append(sig)
    pairs = chain.from_iterable(combinations(c, 2) for c in classes.values())
    masks = _separator_masks(pairs, n, diam)
    # By popcount, then value, as the search expects.
    return forced, sorted(sorted(masks), key=int.bit_count), top, False


def _minimum_generator(g: Graph, kind: str, max_k: int | None = None) -> ResolveResult | None:
    if (instance := _instance(g, kind, max_k)) is None:
        return None
    forced, masks, top, whole = instance
    witness = (_lattice_hitting_set if whole else _split_hitting_set)(masks, g.n, top)
    if witness is None:
        return None
    if forced:
        witness = tuple(sorted([*iter_bits(forced), *witness]))
    return ResolveResult(kind, len(witness), witness)


def _dimension(g: Graph, kind: str, max_k: int | None = None) -> int | None:
    """``_minimum_generator``'s dimension alone, or None; no witness is built."""
    if (instance := _instance(g, kind, max_k)) is None:
        return None
    forced, masks, top, whole = instance
    if whole:  # every resolving set found has the dimension's size
        sets = _resolving_sets(masks, g.n, top)
        return (sets.bit_length() - 1).bit_count() if sets else None
    witness = _split_hitting_set(masks, g.n, top)
    return None if witness is None else forced.bit_count() + len(witness)


def solved_dims(g: Graph, window=None, dim: int | None = None) -> tuple[int, int] | None:
    """Exact ``(dim, edim)`` of a connected graph, by witness-free solves.

    A ``window``, a predicate's ``edim_window``, makes it None unless
    ``edim`` lies in ``window(dim)``.  The vertex dimension is solved
    exactly first, unless given as ``dim``; it is the cheaper of the two.
    One edge search follows, capped at the window's top ``hi`` and skipped
    when ``hi < lo``.  Levels ascend, so a generator found within the cap
    gives the exact ``edim``, which matches if it reaches the window's
    bottom, and finding none proves that no accepted ``edim`` exists.  With
    ``hi`` None (``gt``), or with no window, the search is uncapped and runs
    on to the exact ``edim``; on a ``gt`` non-match that is ``dim`` or below.
    """
    dim = _dimension(g, "vertex") if dim is None else dim
    if window is None:
        return dim, _dimension(g, "edge")
    lo, hi = window(dim)
    if hi is not None and hi < lo:
        return None
    edim = _dimension(g, "edge", max_k=hi)
    if edim is None or edim < lo:
        return None
    return dim, edim


def solved_dims_of(graphs: Iterable[Graph], window=None) -> dict[int, tuple[int, int] | None]:
    """``solved_dims`` of each connected graph of ``graphs``, by its index.

    Vertex dimensions of the orders in ``_BATCH_LEAST`` go ``_BATCH_WIDTH``
    at a time while that many of the order are left, the last slice padded
    (µs a graph, full slice against alone: 2 to 7 at order 3, 11 to 19 at
    10, 26 to 30 at 12).  The rest go one at a time, each let go once solved.
    """
    solved: dict[int, tuple[int, int] | None] = {}
    groups: dict[int, list[tuple[int, Graph]]] = {}
    for item in enumerate(graphs):
        groups.setdefault(item[1].n, []).append(item)
    while groups:
        n, rest = groups.popitem()
        while n in _BATCH_LEAST and len(rest) >= _BATCH_LEAST[n]:
            part, rest = rest[:_BATCH_WIDTH], rest[_BATCH_WIDTH:]
            flags = batch_signatures([g for _, g in part], _BATCH_WIDTH)
            kept = [item for item, connected in zip(part, flags) if connected]
            dims = _batch_dimensions([g for _, g in kept], _BATCH_WIDTH) if kept else []
            solved.update((i, solved_dims(g, window, dim)) for (i, g), dim in zip(kept, dims))
        while rest:
            i, g = rest.pop()
            try:
                solved[i] = solved_dims(g, window)
            except DisconnectedGraph:
                pass
    return solved


def metric_dimension(g: Graph, *, max_k: int | None = None) -> ResolveResult | None:
    """Exact metric dimension with its lexicographically least basis.

    ``max_k`` caps the search and makes the result ``None`` when no generator
    of at most that many landmarks exists.
    """
    return _minimum_generator(g, "vertex", max_k=max_k)


def edge_metric_dimension(g: Graph, *, max_k: int | None = None) -> ResolveResult | None:
    """Exact edge metric dimension with its lexicographically least basis."""
    return _minimum_generator(g, "edge", max_k=max_k)


def is_metric_generator(g: Graph, landmarks: Iterable[int]) -> bool:
    """Does the landmark set give every vertex a distinct distance vector?"""
    return _generates(g, landmarks, "vertex")


def is_edge_metric_generator(g: Graph, landmarks: Iterable[int]) -> bool:
    """Does the landmark set give every edge a distinct distance vector?"""
    return _generates(g, landmarks, "edge")


def _generates(g: Graph, landmarks: Iterable[int], kind: str) -> bool:
    sigs, diam = g.signatures()
    s = set(landmarks)
    for z in s:
        if not 0 <= z < g.n:
            raise ValueError(f"landmark {z} out of range for order {g.n}")
    if kind == "edge":
        sigs = g.edge_signatures()
    # The landmark set, repeated in every plane.
    sel = sum(1 << z for z in s) * sum(1 << b * g.n for b in range(diam.bit_length()))
    return len({sig & sel for sig in sigs}) == len(sigs)


def resolution_vector(
    g: Graph, item: int | Edge, landmarks: Sequence[int]
) -> tuple[int, ...]:
    """Ordered distances from one vertex (int) or edge (pair) to the landmarks."""
    for z in landmarks:
        if not 0 <= z < g.n:
            raise ValueError(f"landmark {z} out of range for order {g.n}")
    ends = item if isinstance(item, tuple) else (item,)
    for v in ends:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for order {g.n}")
    dm = g.distance_matrix()
    if isinstance(item, tuple):
        u, v = item
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not in graph")
        return tuple(min(dm[u][z], dm[v][z]) for z in landmarks)
    return tuple(dm[item][z] for z in landmarks)


def _vector_rows(g: Graph, kind: str) -> list[tuple[int, ...]]:
    """Per-landmark distance rows over the ground set, for the oracle path."""
    dm = g.distance_matrix()
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
