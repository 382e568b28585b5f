from __future__ import annotations

import random

import pytest

from metricdim import (
    DisconnectedGraph,
    DuplicateEdge,
    Graph,
    GraphError,
    SelfLoop,
    add_edge,
    bfs_all_pairs,
    cartesian_product,
    disjoint_union,
    edge_distance,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    vertex_distance,
)
from conftest import random_connected_graph, reference_distances, relabel


def test_path_distance():
    dm = bfs_all_pairs(make_path(3))
    assert dm[0][2] == 2


def test_cycle_distances():
    dm = bfs_all_pairs(make_cycle(5))
    assert dm[0][2] == 2
    assert dm[0][3] == 2


def test_gadget_distance_hand_bfs():
    # a_1 - a_2 - b_1 - b_2 - b_3 is the unique shortest route
    g = make_gadget(7, 3, 4)
    dm = bfs_all_pairs(g.graph)
    assert dm[g.vertex("a", 1)][g.vertex("b", 3)] == 4


def test_vertex_distance_lookups():
    c4 = make_cycle(4)
    dm = bfs_all_pairs(c4)
    assert vertex_distance(dm, 0, 2) == 2
    assert vertex_distance(dm, 1, 1) == 0
    k5 = make_complete(5)
    assert vertex_distance(bfs_all_pairs(k5), 0, 3) == 1


def test_edge_distance_examples():
    p3 = make_path(3)
    dm = bfs_all_pairs(p3)
    assert edge_distance(dm, (1, 2), 0) == 1
    assert edge_distance(dm, (0, 1), 0) == 0
    c5 = make_cycle(5)
    assert edge_distance(bfs_all_pairs(c5), (2, 3), 0) == 2


def test_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    with pytest.raises(DisconnectedGraph):
        bfs_all_pairs(g)


def test_distance_matrix_invariants_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 12)
        g = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        dm = bfs_all_pairs(g)
        ref = reference_distances(g)
        for u in range(n):
            assert dm[u][u] == 0
            for v in range(n):
                assert dm[u][v] == ref[u][v]
                assert dm[u][v] == dm[v][u]
                assert (dm[u][v] == 1) == g.has_edge(u, v)
                for w in range(n):
                    assert dm[u][w] <= dm[u][v] + dm[v][w]


def test_signature_planes_decode_to_reference_distances():
    rng = random.Random(13)
    graphs = [make_path(1), make_path(2), make_path(300), make_cycle(300)]
    graphs += [random_connected_graph(rng, rng.randrange(2, 20), extra=rng.randrange(0, 20)) for _ in range(25)]
    for g in graphs:
        sigs, diam = g.signatures()
        ref = reference_distances(g)
        assert diam == max(map(max, ref))
        width = diam.bit_length()
        full = (1 << g.n) - 1
        for v, sig in enumerate(sigs):
            assert sig >> width * g.n == 0
            planes = [sig >> b * g.n & full for b in range(width)]
            decoded = [
                sum((plane >> z & 1) << b for b, plane in enumerate(planes))
                for z in range(g.n)
            ]
            assert decoded == ref[v]
    assert make_path(300).signatures()[1].bit_length() == 9
    assert make_path(1).signatures() == ((0,), 0)
    with pytest.raises(DisconnectedGraph):
        Graph.from_edges(4, [(0, 1), (2, 3)]).signatures()


def test_edge_distance_bounded_by_endpoints():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, 9, extra=4)
        dm = bfs_all_pairs(g)
        for e in g.edges:
            u, v = e
            for z in range(g.n):
                d = edge_distance(dm, e, z)
                assert d <= dm[u][z] and d <= dm[v][z]
                assert d in (dm[u][z], dm[v][z])


def test_disjoint_union_counts():
    k1 = make_path(1)
    assert disjoint_union(k1, k1).n == 2
    assert disjoint_union(k1, k1).m == 0
    p2 = make_path(2)
    assert disjoint_union(p2, p2).m == 2
    u = disjoint_union(make_cycle(5), make_path(3))
    assert (u.n, u.m) == (8, 7)
    # vertex k of the second operand becomes 5 + k
    assert u.has_edge(5, 6) and u.has_edge(6, 7)


def test_add_edge_examples():
    c3 = add_edge(make_path(3), 0, 2)
    assert c3 == make_complete(3)
    p4 = add_edge(disjoint_union(make_path(2), make_path(2)), 1, 2)
    assert p4 == make_path(4)
    chorded = add_edge(make_cycle(4), 0, 2)
    assert bfs_all_pairs(chorded)[0][2] == 1


def test_add_edge_errors():
    with pytest.raises(SelfLoop):
        add_edge(make_path(3), 1, 1)
    with pytest.raises(DuplicateEdge):
        add_edge(make_path(3), 0, 1)
    with pytest.raises(GraphError):
        add_edge(make_path(3), 0, 5)


def test_from_edges_errors():
    with pytest.raises(SelfLoop):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


def test_bridge_distance_composition():
    rng = random.Random(3)
    for _ in range(8):
        g1 = random_connected_graph(rng, rng.randrange(2, 7), extra=1)
        g2 = random_connected_graph(rng, rng.randrange(2, 7), extra=1)
        v1 = rng.randrange(g1.n)
        v2 = rng.randrange(g2.n)
        joined = add_edge(disjoint_union(g1, g2), v1, g1.n + v2)
        dm = bfs_all_pairs(joined)
        d1 = bfs_all_pairs(g1)
        d2 = bfs_all_pairs(g2)
        for x in range(g1.n):
            for y in range(g2.n):
                assert dm[x][g1.n + y] == d1[x][v1] + 1 + d2[v2][y]


def test_cartesian_product_square():
    square = cartesian_product(make_path(2), make_path(2))
    assert relabel(square, [0, 1, 3, 2]) == make_cycle(4)


def test_cartesian_product_with_k1_is_identity():
    c5 = make_cycle(5)
    assert cartesian_product(make_path(1), c5) == c5
    assert cartesian_product(c5, make_path(1)) == c5


def test_cartesian_product_counts():
    t = cartesian_product(make_cycle(4), make_cycle(4))
    assert (t.n, t.m) == (16, 32)
    assert all(t.degree(v) == 4 for v in range(t.n))
    big = cartesian_product(make_cycle(8), make_cycle(8))
    assert (big.n, big.m) == (64, 128)


def test_cartesian_product_distances():
    rng = random.Random(5)
    g1 = random_connected_graph(rng, 5, extra=2)
    g2 = random_connected_graph(rng, 4, extra=1)
    prod = cartesian_product(g1, g2)
    dm = bfs_all_pairs(prod)
    d1 = bfs_all_pairs(g1)
    d2 = bfs_all_pairs(g2)
    for a in range(g1.n):
        for x in range(g2.n):
            for b in range(g1.n):
                for y in range(g2.n):
                    assert dm[a * g2.n + x][b * g2.n + y] == d1[a][b] + d2[x][y]


def test_graph_equality_and_caching():
    g = make_cycle(6)
    assert g == make_cycle(6)
    assert hash(g) == hash(make_cycle(6))
    assert g != make_path(6)
    assert bfs_all_pairs(g) is bfs_all_pairs(g)


def test_k1_is_valid_and_connected():
    k1 = make_path(1)
    assert k1.n == 1 and k1.m == 0
    assert k1.is_connected()
    assert bfs_all_pairs(k1) == ((0,),)
