"""Immutable simple graphs with bitset adjacency and exact hop distances.

``Graph.signatures`` gives each vertex its distances to all vertices as bit
planes and also decides connectivity.  Up to ``PACKED_MAX_ORDER`` vertices
it is one all-sources lane walk, close to the bit-parallel multi-root BFS
of pruned landmark labelling (Akiba, Iwata and Yoshida, SIGMOD 2013): lane
v (bits ``[v*n, v*n + n)``) of one int holds the frontier of source v, and
``(frontier >> u & ones) * adj[u]`` copies row u into every lane whose
frontier holds u, with no carries.  Larger orders walk each source in turn.
The limit is 64 because the solver packs each pair's landmark mask into one
machine word up to that order; its subset lattice, which packs landmark
sets, stops at ``solver.LATTICE_MAX_ORDER`` = 16.  The edge list is derived
on first use; the edge count is a popcount sum.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Edge = tuple[int, int]
DistanceMatrix = tuple[tuple[int, ...], ...]

PACKED_MAX_ORDER = 64


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class DisconnectedGraph(GraphError):
    """An operation that needs a connected graph got a disconnected one."""


class SelfLoop(GraphError):
    """Attempt to create an edge from a vertex to itself."""


class DuplicateEdge(GraphError):
    """Attempt to add an edge that is already present."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Adjacency is stored as one bit row per vertex so that neighbourhood
    unions and intersections are single big-int operations.  Instances are
    immutable: edit-style operations return new graphs, which keeps the
    cached distances coherent and makes sharing across threads or worker
    processes safe.
    """

    __slots__ = ("n", "adj", "_edges", "_dist", "_sigs")

    def __init__(self, n: int, adj: Iterable[int], _validate: bool = True):
        if n < 1:
            raise GraphError(f"graph order must be positive, got {n}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(adj)}")
        self.n = n
        self.adj = adj
        self._edges: tuple[Edge, ...] | None = None
        self._dist: DistanceMatrix | None = None
        self._sigs: tuple[tuple[int, ...], int] | None = None
        if _validate:
            self._check_rows()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        adj = [0] * n
        for u, v in edges:
            _put_edge(adj, u, v)
        return cls(n, adj, _validate=False)

    def _check_rows(self) -> None:
        for u, row in enumerate(self.adj):
            if row >> self.n:
                raise GraphError(f"adjacency row {u} has bits beyond vertex {self.n - 1}")
            if (row >> u) & 1:
                raise SelfLoop(f"self-loop at vertex {u}")
            for v in iter_bits(row):
                if not (self.adj[v] >> u) & 1:
                    raise GraphError(f"adjacency not symmetric at ({u},{v})")

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge ``(u, v)`` with ``u < v``, by u then v; derived once."""
        if self._edges is None:
            out: list[Edge] = []
            for u, row in enumerate(self.adj):
                for v in iter_bits(row >> (u + 1)):
                    out.append((u, u + 1 + v))
            self._edges = tuple(out)
        return self._edges

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_connected(self) -> bool:
        return sum(self._levels(0)) == (1 << self.n) - 1

    def _levels(self, src: int) -> list[int]:
        """The BFS levels from ``src``: item d is the set at distance d."""
        levels = []
        seen = frontier = 1 << src
        adj = self.adj
        while frontier:
            levels.append(frontier)
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        return levels

    def distance_matrix(self) -> DistanceMatrix:
        """All-pairs hop distances, computed once and cached.

        Raises DisconnectedGraph if any pair is unreachable.
        """
        if self._dist is None:
            rows = []
            for src in range(self.n):
                row = [-1] * self.n
                for d, level in enumerate(self._levels(src)):
                    for v in iter_bits(level):
                        row[v] = d
                if -1 in row:
                    raise self._disconnected()
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist

    def signatures(self) -> tuple[tuple[int, ...], int]:
        """Each vertex's distances to all vertices as bit planes, and the diameter.

        Bit ``b*n + z`` of vertex v's signature is bit b of d(v, z): plane b
        (bits ``[b*n, b*n + n)``) is the set of vertices whose distance from
        v has bit b set.  Level d of v's BFS is ORed into plane b for each
        set bit b of d.  Computed once and cached.

        Raises DisconnectedGraph if any pair is unreachable.
        """
        if self._sigs is None:
            if self.n <= PACKED_MAX_ORDER:
                self._sigs = self._lane_signatures()
            else:
                self._sigs = self._source_signatures()
        return self._sigs

    def _lane_signatures(self) -> tuple[tuple[int, ...], int]:
        """``signatures`` by one walk from every source at once.

        Plane b of the walk holds plane b of every source, lane by lane, and
        each signature is sliced out of its lane at the end.
        """
        n, adj = self.n, self.adj
        full = (1 << n) - 1
        size = n * n
        ones = ((1 << size) - 1) // full  # bit 0 of every lane
        # Level 0: bit v of lane v, a geometric series of ratio 2**(n+1).
        frontier = reach = ((1 << size + n) - 1) // ((1 << n + 1) - 1)
        planes = [0] * (n - 1).bit_length()
        diam = 0
        while True:
            nxt = 0
            for u in range(n):
                nxt |= (frontier >> u & ones) * adj[u]
            frontier = nxt & ~reach
            if not frontier:
                break
            reach |= frontier
            diam += 1
            for b in iter_bits(diam):
                planes[b] |= frontier
        if reach != (1 << size) - 1:
            raise self._disconnected()
        del planes[diam.bit_length() :]
        sigs = []
        for lane in range(0, size, n):
            sig = 0
            for plane in reversed(planes):
                sig = sig << n | plane >> lane & full
            sigs.append(sig)
        return tuple(sigs), diam

    def _source_signatures(self) -> tuple[tuple[int, ...], int]:
        """``signatures`` by one level walk per source."""
        n = self.n
        full = (1 << n) - 1
        bits = [()]  # bits[d]: the set bits of d
        sigs = []
        for src in range(n):
            levels = self._levels(src)
            if sum(levels) != full:
                raise self._disconnected()
            while len(bits) < len(levels):
                bits.append(tuple(iter_bits(len(bits))))
            planes = [0] * (len(levels) - 1).bit_length()
            for level, level_bits in zip(levels, bits):
                for b in level_bits:
                    planes[b] |= level
            sig = 0
            for plane in reversed(planes):
                sig = sig << n | plane
            sigs.append(sig)
        return tuple(sigs), len(bits) - 1

    def _disconnected(self) -> DisconnectedGraph:
        return DisconnectedGraph(f"graph on {self.n} vertices is not connected")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _put_edge(adj: list[int], u: int, v: int) -> None:
    """Set edge ``uv`` in the rows ``adj``, refusing it out of range, as a loop or twice."""
    n = len(adj)
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u},{v}) out of range for order {n}")
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    if (adj[u] >> v) & 1:
        raise DuplicateEdge(f"edge ({u},{v}) listed twice")
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the extra edge ``uv``; caches are not shared."""
    adj = list(g.adj)
    _put_edge(adj, u, v)
    return Graph(g.n, adj, _validate=False)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertex ``k`` of ``g2`` becomes ``g1.n + k``."""
    off = g1.n
    adj = list(g1.adj) + [row << off for row in g2.adj]
    return Graph(g1.n + g2.n, adj, _validate=False)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product: ``(a,x) ~ (b,y)`` iff they agree in one coordinate
    and are adjacent in the other.  Vertex ``(a, x)`` gets id ``a*g2.n + x``.
    """
    n2 = g2.n
    n = g1.n * n2
    adj = [0] * n
    for a in range(g1.n):
        base = a * n2
        for x in range(n2):
            row = g2.adj[x] << base
            for b in iter_bits(g1.adj[a]):
                row |= 1 << (b * n2 + x)
            adj[base + x] = row
    return Graph(n, adj, _validate=False)
