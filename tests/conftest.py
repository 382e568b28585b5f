"""Shared test helpers: independent oracles and random graph generators."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from metricdim import (
    Graph,
    ResolveResult,
    edge_metric_dimension_naive,
    metric_dimension_naive,
)


def reference_distances(g: Graph) -> list[list[int]]:
    """Plain queue BFS from every source, independent of the bitset path."""
    out = []
    for src in range(g.n):
        dist = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out.append(dist)
    return out


_naive_memo: dict[tuple[int, tuple[int, ...]], tuple[ResolveResult, ResolveResult]] = {}


def naive_results(g: Graph) -> tuple[ResolveResult, ResolveResult]:
    """Naive-oracle vertex and edge results, solved once per distinct graph.

    Several oracle tests check the same graphs (every labelled order-6 graph
    and the ``Random(97)`` stream), so a graph rebuilt by another test is
    looked up, not solved again.  The key is the graph's adjacency, not the
    graph, which would keep its cached distance matrix alive.
    """
    key = (g.n, g.adj)
    if key not in _naive_memo:
        _naive_memo[key] = metric_dimension_naive(g), edge_metric_dimension_naive(g)
    return _naive_memo[key]


def labelled_graphs(n: int):
    """Every labelled graph on n vertices, disconnected ones included."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def random_connected_graph(rng: random.Random, n: int, extra: int = 0) -> Graph:
    """Random tree via random attachment plus ``extra`` random chords."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    budget = extra
    attempts = 0
    while budget > 0 and attempts < 50 * extra + 50:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            budget -= 1
    return Graph.from_edges(n, sorted(edges))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    return Graph.from_edges(
        g.n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges]
    )
