from __future__ import annotations

import random
from itertools import combinations

import pytest

from metricdim import (
    DisconnectedGraph,
    DuplicateEdge,
    Graph,
    GraphError,
    SelfLoop,
    add_edge,
    cartesian_product,
    disjoint_union,
    make_complete,
    make_cycle,
    make_chain,
    make_gadget,
    make_path,
)
from metricdim.graph import PACKED_MAX_ORDER, batch_signatures
from conftest import labelled_graphs, random_connected_graph, reference_distances, relabel


def test_path_distance():
    dm = make_path(3).distance_matrix()
    assert dm[0][2] == 2


def test_cycle_distances():
    dm = make_cycle(5).distance_matrix()
    assert dm[0][2] == 2
    assert dm[0][3] == 2


def test_gadget_distance_hand_bfs():
    # a_1 - a_2 - b_1 - b_2 - b_3 is the unique shortest route
    g = make_gadget(7, 3, 4)
    dm = g.graph.distance_matrix()
    assert dm[g.vertex("a", 1)][g.vertex("b", 3)] == 4


def test_vertex_distance_lookups():
    c4 = make_cycle(4)
    dm = c4.distance_matrix()
    assert dm[0][2] == 2
    assert dm[1][1] == 0
    k5 = make_complete(5)
    assert k5.distance_matrix()[0][3] == 1


def test_edge_distance_examples():
    p3 = make_path(3)
    dm = p3.distance_matrix()
    assert min(dm[1][0], dm[2][0]) == 1
    assert min(dm[0][0], dm[1][0]) == 0
    c5 = make_cycle(5)
    dm = c5.distance_matrix()
    assert min(dm[2][0], dm[3][0]) == 2


def test_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    with pytest.raises(DisconnectedGraph):
        g.distance_matrix()


def test_distance_matrix_invariants_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 12)
        g = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        dm = g.distance_matrix()
        ref = reference_distances(g)
        for u in range(n):
            assert dm[u][u] == 0
            for v in range(n):
                assert dm[u][v] == ref[u][v]
                assert dm[u][v] == dm[v][u]
                assert (dm[u][v] == 1) == g.has_edge(u, v)
                for w in range(n):
                    assert dm[u][w] <= dm[u][v] + dm[v][w]


def _assert_signatures_decode(g: Graph) -> None:
    """``g.signatures()`` decodes plane by plane to the queue-BFS distances."""
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


def test_signature_planes_decode_to_reference_distances():
    rng = random.Random(13)
    graphs = [make_path(1), make_path(2), make_path(300), make_cycle(300)]
    graphs += [random_connected_graph(rng, rng.randrange(2, 20), extra=rng.randrange(0, 20)) for _ in range(25)]
    for g in graphs:
        _assert_signatures_decode(g)
    assert make_path(300).signatures()[1].bit_length() == 9
    assert make_path(1).signatures() == ((0,), 0)
    with pytest.raises(DisconnectedGraph):
        Graph.from_edges(4, [(0, 1), (2, 3)]).signatures()


def _check_walks(g: Graph) -> None:
    """Both walks agree with each other and with the queue BFS."""
    walks = []
    for walk in (g._lane_signatures, g._source_signatures):
        try:
            walks.append(walk())
        except DisconnectedGraph:
            walks.append(None)
    if any(-1 in row for row in reference_distances(g)):
        assert walks == [None, None]
        with pytest.raises(DisconnectedGraph):
            g.signatures()
    else:
        _assert_signatures_decode(g)
        assert walks == [g.signatures()] * 2
        assert all(type(sig) is int for sig in walks[0][0])


def test_lane_walk_matches_queue_bfs_and_per_source_walk():
    # every labelled graph of order <= 5, disconnected ones included
    for n in range(1, 6):
        for g in labelled_graphs(n):
            _check_walks(g)
    rng = random.Random(29)
    # every order to 17, then samples up to both sides of the order limit
    orders = [*range(1, 18), 24, 40, 63, PACKED_MAX_ORDER, PACKED_MAX_ORDER + 1]
    for n in orders:
        for density in (0.15, 0.5, 0.85):
            for _ in range(3):
                pairs = combinations(range(n), 2)
                _check_walks(Graph.from_edges(n, [p for p in pairs if rng.random() < density]))
        _check_walks(random_connected_graph(rng, n, extra=rng.randrange(0, n)))
    # both sides of the order limit, where signatures() switches walks
    star = Graph.from_edges(64, [(0, v) for v in range(1, 64)])
    for g in (make_path(1), make_complete(2), make_complete(64), star, make_path(64), make_path(65)):
        _check_walks(g)
    assert make_complete(64).signatures()[1] == 1
    assert make_path(64).signatures()[1] == 63
    assert make_path(65).signatures()[1] == 64
    # both sides of the word lanes (order 16, n * ceil(log2 n) <= 64):
    # P16's diameter of 15 fills all 64 bits of a word with 4 planes
    star = Graph.from_edges(16, [(0, v) for v in range(1, 16)])
    two_parts = disjoint_union(make_cycle(9), make_path(7))
    graphs = [make_path(16), make_path(17), make_cycle(16), make_complete(16), star, two_parts]
    graphs += [random_connected_graph(rng, n) for n in range(9, 18) for _ in range(20)]
    planes = set()
    for g in graphs:
        _check_walks(g)
        if g.n <= 16 and g is not two_parts:
            planes.add(g.signatures()[1].bit_length())
    assert planes == {1, 2, 3, 4}
    assert make_path(16).signatures()[1] == 15
    assert make_path(16).signatures()[0][0].bit_length() == 64


def test_batch_walk_matches_the_per_graph_walk():
    # sparse and dense, connected and disconnected graphs of every order to
    # 16, walked together at widths 1, 2, 63, 64 and 65, full or not: each
    # connected graph gets the signatures and diameter of its own walk, each
    # disconnected one none, and a flag that says which
    rng = random.Random(41)
    connected = disconnected = 0
    for n in range(1, 17):
        for width in (1, 2, 63, 64, 65):
            count = width if rng.random() < 0.5 else rng.randrange(1, width + 1)
            batch = []
            for _ in range(count):
                density = rng.choice([0.1, 0.3, 0.5, 0.9])
                pairs = combinations(range(n), 2)
                batch.append(Graph.from_edges(n, [p for p in pairs if rng.random() < density]))
            if n > 1:  # a path: the largest diameter of its order
                batch[rng.randrange(count)] = make_path(n)
            flags = batch_signatures(batch, width)
            assert len(flags) == count
            for g, flag in zip(batch, flags):
                alone = Graph(n, g.adj)
                try:
                    want = alone.signatures()
                except DisconnectedGraph:
                    assert not flag and g._sigs is None
                    with pytest.raises(DisconnectedGraph):
                        g.signatures()
                    disconnected += 1
                else:
                    assert flag and g._sigs == want, (n, width, g.adj)
                    connected += 1
    assert connected > 500 and disconnected > 500


def test_edges_are_derived_on_first_use_in_row_order():
    rng = random.Random(31)
    graphs = [
        make_path(1),
        make_path(7),
        make_cycle(9),
        make_complete(6),
        make_gadget(7, 3, 4).graph,
        make_chain(6, 1, 2, 3).graph,
        cartesian_product(make_cycle(4), make_cycle(5)),
        disjoint_union(make_cycle(5), make_path(3)),
    ]
    graphs += [random_connected_graph(rng, rng.randrange(1, 40), extra=rng.randrange(0, 40)) for _ in range(30)]
    for g in graphs:
        eager = tuple((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v))
        assert g._edges is None
        assert g.m == len(eager)
        assert g._edges is None
        assert g.edges == eager
        assert g.edges is g.edges
        assert g.m == len(g.edges)


def test_edge_distance_bounded_by_endpoints():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, 9, extra=4)
        dm = g.distance_matrix()
        for e in g.edges:
            u, v = e
            for z in range(g.n):
                d = min(dm[u][z], dm[v][z])
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
    assert chorded.distance_matrix()[0][2] == 1


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


def test_rows_are_checked():
    for n, rows, text in [
        (0, [], "graph order must be positive, got 0"),
        (3, [2, 1], "expected 3 adjacency rows, got 2"),
        (2, [2, 1 | 4], "adjacency row 1 has bits beyond vertex 1"),
        (2, [1, 0], "self-loop at vertex 0"),
        (3, [2, 0, 0], r"adjacency not symmetric at \(0,1\)"),
    ]:
        with pytest.raises(GraphError, match=text):
            Graph(n, rows)
    with pytest.raises(SelfLoop):
        Graph(2, [1, 0])
    assert Graph(3, [2, 5, 2]) == make_path(3)


def test_bridge_distance_composition():
    rng = random.Random(3)
    for _ in range(8):
        g1 = random_connected_graph(rng, rng.randrange(2, 7), extra=1)
        g2 = random_connected_graph(rng, rng.randrange(2, 7), extra=1)
        v1 = rng.randrange(g1.n)
        v2 = rng.randrange(g2.n)
        joined = add_edge(disjoint_union(g1, g2), v1, g1.n + v2)
        dm = joined.distance_matrix()
        d1 = g1.distance_matrix()
        d2 = g2.distance_matrix()
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
    dm = prod.distance_matrix()
    d1 = g1.distance_matrix()
    d2 = g2.distance_matrix()
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
    assert g.distance_matrix() is g.distance_matrix()


def test_graph_compares_only_to_graphs_and_reprs_its_size():
    g = make_cycle(6)
    assert g.__eq__(g.adj) is NotImplemented
    assert g != g.adj
    assert repr(g) == "Graph(n=6, m=6)"
    assert repr(make_chain(5, 1, 2, 2)) == "Graph(n=20, m=21)"


def test_k1_is_valid_and_connected():
    k1 = make_path(1)
    assert k1.n == 1 and k1.m == 0
    assert k1.is_connected()
    assert k1.distance_matrix() == ((0,),)
