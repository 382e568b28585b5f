"""Seeded benchmark inputs, built with the standard library only.

The order-10 stream stands in for ``geng -c 10`` (acceptance criterion c08),
which cannot be shipped with the repository.  Each graph is G(10, 1/2)
conditioned on connectivity, drawn by rejection.  Sampling labelled graphs
weights every isomorphism class by 1/|Aut|, so symmetric graphs are rarer
than in ``geng`` output; the edge-count distribution is the same, centred on
22.5 edges.

Almost none of these graphs satisfies ``edim < dim``, so every chunk also
carries relabelled copies of known ``edim < dim`` graphs at seeded
positions.  They are rebuilt here from the paper's gadget definition rather
than taken from the program under test, and all stay within the naive
oracle's order cap of 16.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ORDER = 10
C08_GRAPHS = 11_716_571  # connected graphs of order 10 (OEIS A001349)
CHUNK_RECORDS = 250
PLANTED_PER_CHUNK = 2


def gadget_edges(n1: int, n2: int, n3: int) -> tuple[int, list[tuple[int, int]]]:
    """The unicyclic gadget G:n1,n2,n3 as (order, edges).

    A cycle a_1..a_n1, a tail b_1..b_n2 joined at a_2, a pendant c at a_n1
    and a hub i at a_1 carrying n3 pendants, numbered in that order.
    """
    edges = [(k, k + 1) for k in range(n1 - 1)] + [(0, n1 - 1)]
    edges += [(n1 + k, n1 + k + 1) for k in range(n2 - 1)] + [(1, n1)]
    c, hub = n1 + n2, n1 + n2 + 1
    edges += [(n1 - 1, c), (0, hub)]
    edges += [(hub, hub + 1 + k) for k in range(n3)]
    return n1 + n2 + n3 + 2, edges


# name -> (order, edges, dim, edim).  The dimensions were checked with the
# naive oracle (see test_perfbench.py).  realize(3, 2, 12) builds a single
# copy of G:6,2,2, so it is the same unlabelled graph as that gadget; it is
# planted under its own name and relabelled independently.
PLANTED = {
    name: (*gadget_edges(*params), dim, edim)
    for name, params, dim, edim in (
        ("G:6,1,2", (6, 1, 2), 3, 2),
        ("G:6,2,2", (6, 2, 2), 3, 2),
        ("G:6,1,3", (6, 1, 3), 4, 3),
        ("G:8,1,2", (8, 1, 2), 3, 2),
        ("realize:3,2,12", (6, 2, 2), 3, 2),
    )
}


def encode_graph6(n: int, edges) -> bytes:
    """graph6 record (no newline), written independently of the program."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        if u > v:
            u, v = v, u
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    out = bytearray([n + 63])
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def _connected(n: int, adj: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


_PAIRS = [(u, v) for v in range(ORDER) for u in range(v)]


def random_connected(rng: random.Random) -> list[tuple[int, int]]:
    """Edges of one G(10, 1/2) sample, redrawn until connected."""
    while True:
        bits = rng.getrandbits(len(_PAIRS))
        adj = [0] * ORDER
        edges = []
        for i, (u, v) in enumerate(_PAIRS):
            if (bits >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
        if _connected(ORDER, adj):
            return edges


@dataclass(frozen=True)
class Item:
    """One record of a chunk; ``planted`` names the known graph, if any."""

    n: int
    edges: tuple[tuple[int, int], ...]
    record: bytes
    planted: str | None = None


def make_chunk(seed: int, index: int) -> list[Item]:
    """Chunk ``index`` of the seed's stream; identical for identical arguments."""
    rng = random.Random(f"g10-stream:{seed}:{index}")
    items = []
    for _ in range(CHUNK_RECORDS - PLANTED_PER_CHUNK):
        edges = tuple(random_connected(rng))
        items.append(Item(ORDER, edges, encode_graph6(ORDER, edges)))
    for _ in range(PLANTED_PER_CHUNK):
        name = rng.choice(sorted(PLANTED))
        n, edges, _, _ = PLANTED[name]
        perm = list(range(n))
        rng.shuffle(perm)
        moved = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
        items.insert(rng.randrange(len(items) + 1), Item(n, moved, encode_graph6(n, moved), name))
    return items


def chunk_bytes(items: list[Item]) -> bytes:
    return b"".join(it.record + b"\n" for it in items)
