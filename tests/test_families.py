from __future__ import annotations

import pytest

from metricdim import (
    EqualDimensionsUnsupported,
    Graph,
    GraphError,
    InvalidParams,
    InvalidTarget,
    OrderTooSmall,
    canonical_basis,
    cartesian_product,
    chain_order,
    edge_metric_dimension,
    gadget_order,
    glue,
    is_edge_metric_generator,
    is_metric_generator,
    make_chain,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    metric_dimension,
    minimum_realizable_order,
    parse_family_spec,
    ratio_witness,
    realize,
)
from metricdim.families import anchors, expected_chain_dims, family_order, target_chain
from metricdim.verify import ratio_dim, solved_dims
from conftest import relabel


def test_family_params_validation():
    make_chain(5, 1, 2, 1)
    canonical_basis(5, 1, 2, 1)
    for bad, message in [
        ((4, 1, 2, 1), "cycle length n1 must be >= 5, got 4"),
        ((5, 0, 2, 1), "tail length n2 must be >= 1, got 0"),
        ((5, 1, 1, 1), "pendant count n3 must be >= 2, got 1"),
        ((5, 1, 2, 0), "copy count ell must be >= 1, got 0"),
    ]:
        for build in (make_chain, canonical_basis):
            with pytest.raises(InvalidParams, match=f"^{message}$"):
                build(*bad)


def test_gadget_orders_and_sizes():
    # the gadget is unicyclic, so its size always equals its order
    for n1, n2, n3 in [(7, 3, 4), (5, 1, 2), (6, 1, 2)]:
        g = make_gadget(n1, n2, n3).graph
        assert g.n == gadget_order(n1, n2, n3) == n1 + n2 + n3 + 2
        assert g.m == g.n
    assert make_gadget(7, 3, 4).graph.n == 16
    assert make_gadget(5, 1, 2).graph.n == 10
    assert make_gadget(6, 1, 2).graph.n == 11


def test_gadget_structure():
    g = make_gadget(7, 3, 4)
    raw = g.graph
    # cycle closes, tail hangs off a_2, c off a_7, pendants off the hub
    assert raw.has_edge(g.vertex("a", 1), g.vertex("a", 7))
    assert raw.has_edge(g.vertex("a", 2), g.vertex("b", 1))
    assert raw.has_edge(g.vertex("a", 7), g.vertex("c"))
    assert raw.has_edge(g.vertex("a", 1), g.vertex("i"))
    for k in range(1, 5):
        assert raw.has_edge(g.vertex("i"), g.vertex("j", k))
        assert raw.degree(g.vertex("j", k)) == 1


def _roles_in_order(parts):
    """``(letter, index, copy)`` of every vertex in id order: a1..an1 b1..bn2
    c i j1..jn3 in each copy, copies one after another."""
    return [
        (letter, index, copy)
        for copy, (n1, n2, n3) in enumerate(parts, 1)
        for letter, index in (
            [("a", t) for t in range(1, n1 + 1)]
            + [("b", t) for t in range(1, n2 + 1)]
            + [("c", 0), ("i", 0)]
            + [("j", t) for t in range(1, n3 + 1)]
        )
    ]


def _names(fam):
    return [fam.label_name(v) for v in range(fam.graph.n)]


def _check_roles(fam):
    """Every name and every id of a family graph against the enumeration."""
    roles = _roles_in_order(fam.parts)
    assert len(roles) == fam.graph.n
    for v, (letter, index, copy) in enumerate(roles):
        name = f"{letter}{index or ''}"
        assert fam.label_name(v) == (f"{name}^{copy}" if fam.copies > 1 else name)
        assert fam.vertex(letter, index, copy) == v


def test_labels_bijection():
    # names are distinct, and vertex() inverts label_name(), on chains,
    # realizations whose first tail takes the slack, and an unequal glue
    g1, g2 = make_gadget(7, 3, 4), make_gadget(5, 1, 2)
    graphs = [make_gadget(6, 2, 3), glue(g1, g1.vertex("a", 4), g2, g2.vertex("j", 1))]
    graphs += [make_chain(n1, 1, 2, ell) for n1 in (5, 6, 7) for ell in range(1, 31)]
    graphs += [realize(2, 4, 20 + slack) for slack in (0, 1, 9)]
    graphs += [realize(4, 2, 22 + slack) for slack in (0, 1, 9)]
    graphs += [realize(2, 26, 300), realize(26, 2, 320)]
    for g in graphs:
        _check_roles(g)
        assert len(set(_names(g))) == g.graph.n
    assert realize(2, 4, 29).parts == ((5, 10, 2), (5, 1, 2))


def test_vertex_lookup_covers_every_label_and_refuses_unknown_ones():
    ch = make_chain(6, 1, 2, 4)
    _check_roles(ch)
    refused = [
        (("d", 1, 1), "no vertex d1 in copy 1"),  # no such role
        (("", 0, 1), "no vertex  in copy 1"),
        (("ab", 1, 1), "no vertex ab1 in copy 1"),
        (("a", 0, 1), "no vertex a in copy 1"),  # a, b and j count from 1
        (("b", 0, 2), "no vertex b in copy 2"),
        (("j", 0, 1), "no vertex j in copy 1"),
        (("a", 7, 1), "no vertex a7 in copy 1"),  # past the count
        (("b", 2, 1), "no vertex b2 in copy 1"),
        (("j", 3, 1), "no vertex j3 in copy 1"),
        (("a", -1, 1), "no vertex a-1 in copy 1"),
        (("c", 1, 1), "no vertex c1 in copy 1"),  # c and i take no index
        (("i", 2, 3), "no vertex i2 in copy 3"),
        (("a", 3, 5), "no vertex a3 in copy 5"),  # copies run 1..4
        (("a", 3, 0), "no vertex a3 in copy 0"),
        (("c", 0, -1), "no vertex c in copy -1"),
    ]
    for args, message in refused:
        with pytest.raises(KeyError) as info:
            ch.vertex(*args)
        assert info.value.args == (message,)
    for v in (-1, -ch.graph.n, ch.graph.n, ch.graph.n + 5):
        with pytest.raises(IndexError, match=f"no vertex {v} in a family graph of order 44"):
            ch.label_name(v)


def test_role_lookups_build_nothing_per_vertex():
    # a family graph records its copies; a lookup adds only the first id of
    # each copy, and its result comes from those by arithmetic
    for lookup in (lambda g: g.vertex("a", 1, copy=30), lambda g: g.label_name(329)):
        ch = make_chain(6, 1, 2, 30)
        assert set(ch.__dict__) == {"parts"}
        lookup(ch)
        assert set(ch.__dict__) == {"parts", "_starts"}
        assert ch._starts == tuple(range(0, 331, 11))
        assert ch.parts == ((6, 1, 2),) * 30
    assert (ch.vertex("a", 1, copy=30), ch.label_name(329)) == (319, "j2^30")


def test_cycle_anchors():
    # a_alpha and a_beta sit at the same distance (n1 - 1) // 2 from a_1, at
    # most the cycle's radius n1 // 2: adjacent on odd cycles, two apart on
    # even ones
    assert anchors(7) == (4, 5)
    for n1 in range(5, 13):
        alpha, beta = anchors(n1)
        assert alpha < beta < n1
        assert beta - alpha == 2 - n1 % 2
        dm = make_cycle(n1).distance_matrix()
        assert dm[0][alpha - 1] == dm[0][beta - 1] == (n1 - 1) // 2 <= n1 // 2
    with pytest.raises(InvalidParams, match="cycle length must be >= 5, got 4"):
        anchors(4)


def test_chain_orders():
    chain, gadget = make_chain(7, 3, 4, 1), make_gadget(7, 3, 4)
    assert chain.graph == gadget.graph
    assert (chain.parts, _names(chain)) == (gadget.parts, _names(gadget))
    assert _names(chain) == "a1 a2 a3 a4 a5 a6 a7 b1 b2 b3 c i j1 j2 j3 j4".split()
    assert make_chain(7, 3, 4, 3).graph.n == chain_order(7, 3, 4, 3) == 40
    assert make_chain(5, 1, 2, 2).graph.n == 20
    assert chain_order(5, 1, 2, 2) == 20


def test_order_formulas_on_grid():
    for n1 in (5, 6, 7):
        for n2 in (1, 2):
            for n3 in (2, 3):
                assert make_gadget(n1, n2, n3).graph.n == n1 + n2 + n3 + 2
                for ell in (1, 2, 3):
                    chain = make_chain(n1, n2, n3, ell)
                    assert chain.graph.n == (n1 + n2 + n3 + 2) + (ell - 1) * (n1 + 5)
                    assert chain.graph.is_connected()


def test_chain_is_connected_and_bridged():
    ch = make_chain(5, 2, 3, 3)
    assert ch.graph.is_connected()
    alpha, _ = anchors(5)
    for k in (1, 2):
        assert ch.graph.has_edge(
            ch.vertex("a", alpha, copy=k), ch.vertex("j", 1, copy=k + 1)
        )


def test_canonical_basis_examples():
    g = make_gadget(7, 3, 4)
    vb = canonical_basis(7, 3, 4, kind="vertex")
    assert [g.label_name(v) for v in vb] == ["a4", "j1", "j2", "j3"]
    eb = canonical_basis(7, 3, 4, kind="edge")
    assert [g.label_name(v) for v in eb] == ["a4", "a5", "j1", "j2", "j3"]
    h = make_gadget(6, 1, 2)
    ebe = canonical_basis(6, 1, 2, kind="edge")
    assert [h.label_name(v) for v in ebe] == ["a3", "j1"]
    with pytest.raises(ValueError, match="kind must be 'vertex' or 'edge', got 'x'"):
        canonical_basis(7, 3, 4, kind="x")


def test_canonical_bases_generate_on_grid():
    for n1 in (5, 6):
        for n2 in (1, 2):
            for n3 in (2, 3):
                g = make_gadget(n1, n2, n3).graph
                vb = canonical_basis(n1, n2, n3, kind="vertex")
                eb = canonical_basis(n1, n2, n3, kind="edge")
                assert is_metric_generator(g, vb)
                assert is_edge_metric_generator(g, eb)
                expected_vertex = n3 if n1 % 2 else n3 + 1
                assert len(vb) == expected_vertex
                assert len(eb) == n3 + (n3 + 1) - expected_vertex


def test_canonical_bases_generate_on_chains():
    for n1 in (5, 6, 7):
        for ell in (1, 2, 3):
            ch = make_chain(n1, 1, 2, ell).graph
            vb = canonical_basis(n1, 1, 2, ell, kind="vertex")
            eb = canonical_basis(n1, 1, 2, ell, kind="edge")
            assert is_metric_generator(ch, vb)
            assert is_edge_metric_generator(ch, eb)
            assert {len(vb), len(eb)} == {2, 2 + ell}


def test_glue_paths():
    p2 = make_path(2)
    assert glue(p2, 1, p2, 0) == make_path(4)


def test_glue_refuses_a_bridge_vertex_outside_its_graph():
    # a bridge end past either graph's order would land inside the other
    # graph, or wrap around as a negative index
    p3 = make_path(3)
    for v1, v2, bad in ((0, -1, -1), (5, 0, 5), (0, 3, 3)):
        with pytest.raises(GraphError, match=f"bridge vertex {bad} out of range for order 3"):
            glue(p3, v1, p3, v2)


def test_glue_reproduces_chain():
    a = make_gadget(5, 1, 2)
    b = make_gadget(5, 1, 2)
    alpha, _ = anchors(5)
    glued = glue(a, a.vertex("a", alpha), b, b.vertex("j", 1))
    assert glued.graph == make_chain(5, 1, 2, 2).graph
    assert glued.copies == 2
    assert glued.label_name(glued.graph.n - 1) == "j2^2"
    assert metric_dimension(glued.graph).dimension == 2
    # lemma 5's join of unequal gadgets: G(7,3,4) at a_4 to G(5,1,2) at j_1
    g1, g2 = make_gadget(7, 3, 4), make_gadget(5, 1, 2)
    glued = glue(g1, g1.vertex("a", 4), g2, g2.vertex("j", 1))
    assert glued.parts == ((7, 3, 4), (5, 1, 2))
    assert glued.graph.has_edge(3, 16 + 8)
    roles = (
        "a1 a2 a3 a4 a5 a6 a7 b1 b2 b3 c i j1 j2 j3 j4".split()
        + "a1 a2 a3 a4 a5 b1 c i j1 j2".split()
    )
    copies = [1] * 16 + [2] * 10
    assert glued.graph.n == len(roles)
    for v, (role, copy) in enumerate(zip(roles, copies)):
        assert glued.label_name(v) == f"{role}^{copy}"
        letter, index = role[0], int(role[1:] or 0)
        assert glued.vertex(letter, index, copy) == v


def test_a_family_graph_is_its_own_graph():
    # the ``graph`` alias of a chain and of a glued pair is the graph itself
    chain = make_chain(5, 1, 2, 3)
    a, b = make_gadget(7, 3, 4), make_gadget(5, 1, 2)
    glued = glue(a, a.vertex("a", 4), b, b.vertex("j", 1))
    for fam in (chain, glued):
        assert isinstance(fam, Graph)
        assert fam.graph is fam


def _glued_chain(n1, n2, n3, ell):
    """The chain folded copy by copy through ``glue``: the reference build."""
    alpha, _ = anchors(n1)
    chain = make_gadget(n1, n2, n3)
    for k in range(2, ell + 1):
        nxt = make_gadget(n1, 1, 2)
        chain = glue(
            chain, chain.vertex("a", alpha, copy=k - 1), nxt, nxt.vertex("j", 1)
        )
    return chain


def test_chain_builder_matches_glue_fold():
    # the one-pass builder and the closed-form bases against role lookups on
    # a chain glued one copy at a time
    for n1 in (5, 6, 7, 8):
        alpha, beta = anchors(n1)
        for n2 in (1, 2, 5):
            for n3 in (2, 3, 4):
                for ell in (1, 2, 3, 7):
                    ref = _glued_chain(n1, n2, n3, ell)
                    got = make_chain(n1, n2, n3, ell)
                    assert got.graph == ref.graph
                    assert got.parts == ref.parts
                    assert _names(got) == _names(ref)
                    _check_roles(got)
                    assert got.copies == ref.copies == ell
                    pendants = [ref.vertex("j", k) for k in range(1, n3)]
                    last = [ref.vertex("a", alpha, copy=ell)]
                    compact = sorted(pendants + last)
                    extended = sorted(
                        pendants
                        + [ref.vertex("a", beta, copy=k) for k in range(1, ell)]
                        + last
                        + [ref.vertex("a", beta, copy=ell)]
                    )
                    vertex, edge = (compact, extended) if n1 % 2 else (extended, compact)
                    assert canonical_basis(n1, n2, n3, ell, kind="vertex") == tuple(vertex)
                    assert canonical_basis(n1, n2, n3, ell, kind="edge") == tuple(edge)


def test_long_chains_match_glue_fold():
    # the shifted copy rows at the lengths and orders the benchmark times
    for n1 in (5, 6):
        got, ref = make_chain(n1, 1, 2, 30), _glued_chain(n1, 1, 2, 30)
        assert got.graph == ref.graph and got.parts == ref.parts
    witness = ratio_witness(16)
    assert (ratio_dim(16), 2) == (32, 2) == expected_chain_dims(6, 2, witness.copies)
    for got, dim, edim, order in (
        (realize(2, 26, 300), 2, 26, 300),
        (realize(26, 2, 320), 26, 2, 320),
        (witness, 32, 2, 330),
    ):
        n1, n3, ell = target_chain(dim, edim)
        ref = _glued_chain(n1, 1 + order - minimum_realizable_order(dim, edim), n3, ell)
        assert got.graph.n == order
        assert got.graph == ref.graph and got.parts == ref.parts


def test_realize_examples():
    fam = realize(2, 4, 20)
    assert fam.graph.n == 20
    assert minimum_realizable_order(2, 4) == 20
    fam = realize(4, 2, 22)
    assert fam.graph.n == 22
    assert minimum_realizable_order(4, 2) == 22
    fam = realize(2, 4, 23)
    assert fam.graph.n == 23
    assert metric_dimension(fam.graph).dimension == 2
    assert edge_metric_dimension(fam.graph).dimension == 4


def test_target_chain_round_trips():
    for r in range(2, 10):
        for t in range(2, 10):
            if r == t:
                continue
            n1, n3, ell = target_chain(r, t)
            assert expected_chain_dims(n1, n3, ell) == (r, t)
            assert minimum_realizable_order(r, t) == chain_order(n1, 1, n3, ell)
    with pytest.raises(InvalidTarget):
        target_chain(1, 3)
    with pytest.raises(EqualDimensionsUnsupported):
        target_chain(4, 4)


def test_realize_large_order_keeps_prescribed_bases():
    # order 70 forces the long graph6 order form; the canonical bases still
    # generate at the target sizes, which the solve confirms are minimum
    from metricdim import decode_graph6, encode_graph6

    fam = realize(2, 8, 70)
    assert fam.graph.n == 70
    vb = canonical_basis(5, 11, 2, 6, kind="vertex")
    eb = canonical_basis(5, 11, 2, 6, kind="edge")
    assert len(vb) == 2 and is_metric_generator(fam.graph, vb)
    assert len(eb) == 8 and is_edge_metric_generator(fam.graph, eb)
    assert solved_dims(fam) == (2, 8)
    record = encode_graph6(fam.graph)
    assert record.startswith("~")
    assert decode_graph6(record) == fam.graph


def test_realize_errors():
    with pytest.raises(EqualDimensionsUnsupported):
        realize(3, 3, 30)
    with pytest.raises(InvalidTarget):
        realize(1, 4, 30)
    with pytest.raises(InvalidTarget):
        realize(4, 1, 30)
    with pytest.raises(OrderTooSmall) as info:
        realize(2, 4, 19)
    assert info.value.minimum_order == 20


def test_standard_constructions():
    assert make_path(1).n == 1
    assert make_complete(2) == make_path(2)
    square = cartesian_product(make_path(2), make_path(2))
    assert relabel(square, [0, 1, 3, 2]) == make_cycle(4)
    with pytest.raises(InvalidParams):
        make_cycle(2)
    with pytest.raises(InvalidParams):
        make_path(0)


def test_standard_rows_equal_their_edge_list_graphs():
    # path, cycle and complete graph build their rows directly; each equals
    # the graph of its edge list and passes the row checks
    for n in range(1, 71):
        graphs = [
            (make_path(n), [(k, k + 1) for k in range(n - 1)]),
            (make_complete(n), [(u, v) for u in range(n) for v in range(u + 1, n)]),
        ]
        if n >= 3:
            graphs.append((make_cycle(n), [(k, (k + 1) % n) for k in range(n)]))
        for g, edges in graphs:
            assert g == Graph.from_edges(n, edges)
            assert Graph(n, g.adj) == g
    for build, low, text in [
        (make_path, 0, "path needs n >= 1, got 0"),
        (make_cycle, 2, "cycle needs n >= 3, got 2"),
        (make_complete, 0, "complete graph needs n >= 1, got 0"),
    ]:
        with pytest.raises(InvalidParams, match=text):
            build(low)


def test_parse_family_spec():
    assert parse_family_spec("G:7,3,4").graph == make_gadget(7, 3, 4).graph
    assert parse_family_spec("L:2,5,1,2").graph == make_chain(5, 1, 2, 2).graph
    assert parse_family_spec("cycle:8") == make_cycle(8)
    assert parse_family_spec("path:10") == make_path(10)
    assert parse_family_spec("complete:5") == make_complete(5)
    prod = parse_family_spec("cp:cycle:4xcycle:4")
    assert prod == cartesian_product(make_cycle(4), make_cycle(4))
    for bad in ("", "G:1,2", "Q:5", "cp:cycle:4", "G:a,b,c"):
        with pytest.raises(InvalidParams):
            parse_family_spec(bad)
        with pytest.raises(InvalidParams):
            family_order(bad)


def test_family_order_is_the_built_order():
    specs = ("G:7,3,4", "L:2,5,1,2", "L:30,6,1,2", "cycle:8", "path:1", "complete:5")
    for spec in specs + ("cp:cycle:4xpath:3", "cp:path:2xG:5,1,2xL:3,6,2,3"):
        assert family_order(spec) == parse_family_spec(spec).n
