from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, count
from pathlib import Path

import pytest

import metricdim
from metricdim import (
    DisconnectedGraph,
    Graph,
    InstanceTooLarge,
    Predicate,
    cartesian_product,
    decode_graph6,
    edge_metric_dimension,
    edge_metric_dimension_naive,
    encode_graph6,
    is_edge_metric_generator,
    is_metric_generator,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    metric_dimension,
    metric_dimension_naive,
    realize,
    resolution_vector,
    scan,
)
from metricdim.scan import enumerate_labeled_connected
from metricdim.families import anchors, glue, make_chain, parse_family_spec
from metricdim import solver
from metricdim.graph import PACKED_MAX_ORDER, iter_bits
from metricdim.solver import (
    LATTICE_MAX_ORDER,
    _components,
    _dimension,
    _disjoint_count,
    _drop_dominated,
    _drop_supersets,
    _fold_shifts,
    _lattice_hitting_set,
    _lex_least_hitting_set,
    _packed_masks,
    _separator_masks,
    _split_hitting_set,
)
from metricdim.verify import GRIDS, expected_chain_dims
from conftest import naive_results, random_connected_graph, relabel


def test_generator_checks_on_c4():
    c4 = make_cycle(4)
    # vectors to {0,1}: (0,1),(1,0),(2,1),(1,2) are pairwise distinct
    assert is_metric_generator(c4, [0, 1])
    # vertices 1 and 3 both read (1,1) against {0,2}
    assert not is_metric_generator(c4, [0, 2])
    # edge vectors to {0,1}: (0,0),(1,0),(1,1),(0,1)
    assert is_edge_metric_generator(c4, [0, 1])


def test_generator_checks_star_and_trivial():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # edge vectors to {1,2}: (0,1),(1,0),(1,1)
    assert is_edge_metric_generator(star, [1, 2])
    assert is_metric_generator(make_path(1), [])
    assert is_edge_metric_generator(make_path(2), [])


def test_dimension_examples():
    assert metric_dimension(make_path(5)).dimension == 1
    assert metric_dimension(make_complete(5)).dimension == 4
    assert metric_dimension(make_gadget(7, 3, 4).graph).dimension == 4
    assert metric_dimension(make_gadget(6, 1, 2).graph).dimension == 3


def test_edge_dimension_examples():
    assert edge_metric_dimension(make_path(2)).dimension == 0
    assert edge_metric_dimension(make_gadget(7, 3, 4).graph).dimension == 5
    assert edge_metric_dimension(make_gadget(6, 1, 2).graph).dimension == 2


def test_even_cycle_torus_pattern():
    # products of two cycles with lengths divisible by four keep the edge
    # dimension at 3 while the vertex dimension sits at 4
    torus = cartesian_product(make_cycle(4), make_cycle(8))
    assert edge_metric_dimension(torus).dimension == 3
    assert metric_dimension(torus).dimension == 4


def test_degenerate_conventions():
    k1 = make_path(1)
    assert metric_dimension(k1).dimension == 0
    assert edge_metric_dimension(k1).dimension == 0
    k2 = make_path(2)
    assert metric_dimension(k2).dimension == 1
    assert edge_metric_dimension(k2).dimension == 0


def test_naive_examples():
    assert metric_dimension_naive(make_cycle(6)).dimension == 2
    assert edge_metric_dimension_naive(make_cycle(4)).dimension == 2
    p2 = make_path(2)
    assert metric_dimension_naive(p2).dimension == 1
    assert edge_metric_dimension_naive(p2).dimension == 0


def test_naive_guard():
    big = make_path(17)
    with pytest.raises(InstanceTooLarge):
        metric_dimension_naive(big)
    with pytest.raises(InstanceTooLarge):
        edge_metric_dimension_naive(big)


def test_resolution_vectors():
    assert resolution_vector(make_path(3), 2, [0]) == (2,)
    assert resolution_vector(make_cycle(4), (0, 1), [0, 1]) == (0, 0)
    g = make_gadget(7, 3, 4)
    # c hangs off a_7; the route c - a_7 - a_6 - a_5 - a_4 has no shortcut
    assert resolution_vector(g.graph, g.vertex("c"), [g.vertex("a", 4)]) == (4,)


def test_resolution_vector_needs_no_distance_matrix(monkeypatch):
    # one BFS from the item, never the all-pairs distance matrix, which
    # takes seconds on path:1000; a disconnected graph still raises
    def refused(self):
        raise AssertionError("distance_matrix called")

    monkeypatch.setattr(Graph, "distance_matrix", refused)
    path = make_path(1000)
    assert resolution_vector(path, 500, [0, 999]) == (500, 499)
    assert resolution_vector(path, (10, 11), [0, 999, 11]) == (10, 988, 0)
    with pytest.raises(DisconnectedGraph):
        resolution_vector(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, [0])


def test_resolution_vector_rejects_non_edges():
    with pytest.raises(ValueError):
        resolution_vector(make_path(3), (0, 2), [0])


def test_resolution_vector_refuses_out_of_range_indices():
    # negative ids must not read as Python's from-the-end indices
    p4 = make_path(4)
    for item, landmarks, what in (
        (0, [-1], "landmark -1"),
        (0, [4], "landmark 4"),
        (-1, [0], "vertex -1"),
        ((0, -3), [0], "vertex -3"),
        ((3, 4), [0], "vertex 4"),
    ):
        with pytest.raises(ValueError, match=f"{what} out of range for order 4"):
            resolution_vector(p4, item, landmarks)


def test_disconnected_inputs_raise():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for fn in (
        metric_dimension,
        edge_metric_dimension,
        metric_dimension_naive,
        edge_metric_dimension_naive,
    ):
        with pytest.raises(DisconnectedGraph):
            fn(g)
    with pytest.raises(DisconnectedGraph):
        is_metric_generator(g, [0])


def test_witness_is_lex_least_and_minimal():
    rng = random.Random(23)
    graphs = [make_cycle(6), make_gadget(5, 1, 2).graph]
    graphs += [random_connected_graph(rng, rng.randrange(5, 11), extra=3) for _ in range(6)]
    for g in graphs:
        res = metric_dimension(g)
        assert is_metric_generator(g, res.witness)
        k = res.dimension
        for smaller in combinations(range(g.n), k - 1):
            assert not is_metric_generator(g, smaller)
        for candidate in combinations(range(g.n), k):
            if candidate == res.witness:
                break
            assert not is_metric_generator(g, candidate)


def test_monotonicity():
    rng = random.Random(31)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(4, 10), extra=2)
        res = metric_dimension(g)
        extra = [v for v in range(g.n) if v not in res.witness]
        rng.shuffle(extra)
        superset = list(res.witness) + extra[:2]
        assert is_metric_generator(g, superset)
        eres = edge_metric_dimension(g)
        esuper = list(eres.witness) + extra[:2]
        assert is_edge_metric_generator(g, esuper)


def test_relabeling_invariance():
    rng = random.Random(41)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(4, 9), extra=2)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert metric_dimension(g).dimension == metric_dimension(h).dimension
        assert (
            edge_metric_dimension(g).dimension
            == edge_metric_dimension(h).dimension
        )


def test_dimension_bounds():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randrange(2, 11)
        g = random_connected_graph(rng, n, extra=rng.randrange(0, n))
        dim = metric_dimension(g).dimension
        edim = edge_metric_dimension(g).dimension
        assert 1 <= dim <= n - 1
        assert 0 <= edim <= n - 1


def test_partition_invariants_and_meet_semantics():
    # the generator checks agree with the direct vector criterion, for
    # vertices against the distance matrix and for edges against
    # resolution_vector
    rng = random.Random(47)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 9), extra=2)
        dm = g.distance_matrix()
        size = rng.randrange(0, g.n + 1)
        s = sorted(rng.sample(range(g.n), size))
        vectors = [tuple(dm[v][z] for z in s) for v in range(g.n)]
        direct = len(set(vectors)) == g.n
        assert is_metric_generator(g, s) == direct
        edge_vectors = {resolution_vector(g, e, s) for e in g.edges}
        assert is_edge_metric_generator(g, s) == (len(edge_vectors) == g.m)


def test_oracle_equivalence_small_full():
    # every connected labelled graph on at most 5 vertices
    for n in range(1, 6):
        for g in enumerate_labeled_connected(n):
            fast_v = metric_dimension(g)
            naive_v = metric_dimension_naive(g)
            assert fast_v.dimension == naive_v.dimension
            assert fast_v.witness == naive_v.witness
            fast_e = edge_metric_dimension(g)
            naive_e = edge_metric_dimension_naive(g)
            assert fast_e.dimension == naive_e.dimension
            assert fast_e.witness == naive_e.witness


def test_capped_and_resumed_search():
    rng = random.Random(53)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(4, 10), extra=2)
        full = metric_dimension(g)
        assert metric_dimension(g, max_k=full.dimension - 1) is None
        efull = edge_metric_dimension(g)
        if efull.dimension:
            assert edge_metric_dimension(g, max_k=efull.dimension - 1) is None


# Each passes the distance-class count at its cap, yet has a vertex pair
# with a common neighbour that no set of cap landmarks resolves.
_COMMON_NEIGHBOUR_REFUTED = {"FJAtw": 2, "Fb~~w": 3, "Esa?": 2, "Cs": 1}


def _assert_caps_refute_exactly_above(g, dim, edim):
    for k in range(g.n + 1):
        res = metric_dimension(g, max_k=k)
        assert (res is None) == (dim > k)
        assert res is None or res.dimension == dim
        eres = edge_metric_dimension(g, max_k=k)
        assert (eres is None) == (edim > k)
        assert eres is None or eres.dimension == edim


def test_bounded_search_refutes_exactly_above_the_bound(monkeypatch):
    # max_k refutes by the diameter count before any class is built, and a
    # capped edge search on the whole lattice then by the vertex masks of
    # the pairs with a common neighbour; it must answer None exactly when
    # the naive dimension exceeds the bound, for dense small graphs and for
    # long paths and cycles alike, and for graphs that pass the count: the
    # records refuted by common neighbours, complete graphs (one plane, so
    # K16's rows fill their 16-bit slots), stars and twin-free G(n, 1/2)
    # graphs above the twin order limit
    rng = random.Random(59)
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_connected(n)]
    for n in range(8, 13):
        graphs += [make_path(n), make_cycle(n)]
        graphs += [
            random_connected_graph(rng, n, extra=rng.randrange(0, 3 * n))
            for _ in range(6)
        ]
    graphs += [decode_graph6(record) for record in _COMMON_NEIGHBOUR_REFUTED]
    for n in range(13, 17):
        g = _random_connected_gnp(rng, n, 0.5)
        while solver._forced_twins(g.adj):
            g = _random_connected_gnp(rng, n, 0.5)
        graphs.append(g)
    for g in graphs:
        _assert_caps_refute_exactly_above(g, *(res.dimension for res in naive_results(g)))
    # K_n has dim = edim = n - 1, and the star K1,k has dim = edim = k - 1
    # (a tree); the naive oracle, which takes seconds on these above order
    # 12, confirms both forms up to there.  Above it their twins are forced,
    # so they are checked again with the rule off, on the whole lattice.
    dense = [(make_complete(n), n - 1) for n in range(3, 17)]
    dense += [
        (Graph.from_edges(k + 1, [(0, leaf) for leaf in range(1, k + 1)]), k - 1)
        for k in range(3, 16)
    ]
    for g, d in dense:
        if g.n <= solver.TWINS_ABOVE_ORDER:
            assert tuple(res.dimension for res in naive_results(g)) == (d, d)
    for limit in (solver.TWINS_ABOVE_ORDER, LATTICE_MAX_ORDER):
        monkeypatch.setattr(solver, "TWINS_ABOVE_ORDER", limit)
        for g, d in dense:
            _assert_caps_refute_exactly_above(Graph(g.n, g.adj), d, d)
    # a bound far beyond the order is no bound, and must stay cheap
    assert metric_dimension(make_path(12), max_k=10**18).dimension == 1
    assert edge_metric_dimension(make_cycle(12), max_k=10**18).dimension == 2


def test_witness_and_resumed_searches_match_naive_oracle():
    # lex-least witnesses of both kinds against the naive oracle beyond the
    # exhaustive order-5 check, and a search capped at the dimension must
    # give back the uncapped result
    rng = random.Random(97)
    graphs = list(enumerate_labeled_connected(6))
    for _ in range(1000):
        n = rng.randrange(8, 13)
        graphs.append(random_connected_graph(rng, n, extra=rng.randrange(0, n)))
    perm_rng = random.Random(61)
    for params in ((6, 1, 2), (6, 1, 3), (8, 1, 2)):
        g = make_gadget(*params).graph
        perm = list(range(g.n))
        perm_rng.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        for fast, naive in zip((metric_dimension, edge_metric_dimension), naive_results(g)):
            full = fast(g)
            assert full == naive
            assert fast(g, max_k=full.dimension) == full
            if full.dimension:
                assert fast(g, max_k=full.dimension - 1) is None


def test_wide_lanes():
    # diameters of 16 and more need five planes or more; path:300 needs nine
    assert metric_dimension(make_path(300)).dimension == 1
    assert edge_metric_dimension(make_path(300)).dimension == 1
    assert metric_dimension(make_cycle(300)).dimension == 2
    assert edge_metric_dimension(make_cycle(300)).dimension == 2
    for n1, n2, n3 in ((5, 40, 2), (6, 20, 3)):
        g = make_gadget(n1, n2, n3).graph
        dims = (metric_dimension(g).dimension, edge_metric_dimension(g).dimension)
        assert dims == expected_chain_dims(n1, n3)


def test_hitting_set_searches_match_naive_oracle():
    # the lattice search serves every order the naive oracle reaches, so the
    # component split that larger orders use, and the depth-first search it
    # hands components of more than 16 landmarks, are checked here on the
    # same masks, under every cap the scans use; each search gets the masks
    # its own path builds, which must be the same set
    rng = random.Random(97)
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_connected(n)]
    for _ in range(1000):
        n = rng.randrange(8, 13)
        graphs.append(random_connected_graph(rng, n, extra=rng.randrange(0, n)))
    for g in graphs:
        sigs, diam = g.signatures()
        grounds = (sigs, g.edge_signatures())
        for ground, naive in zip(grounds, naive_results(g)):
            masks = sorted(_separator_masks(combinations(ground, 2), g.n, diam), key=int.bit_count)
            packed = _packed_masks(ground, g.n, diam)
            assert set(packed) == set(masks)
            kept = _drop_supersets(masks)
            d = naive.dimension
            for max_k in {d - 1, d, g.n}:
                want = naive.witness if max_k >= d else None
                assert _lex_least_hitting_set(kept, g.n, max_k) == want
                assert _split_hitting_set(masks, g.n, max_k) == want
                assert _lattice_hitting_set(packed, g.n, max_k) == want


def _split_oracle_graphs():
    rng = random.Random(71)
    graphs = [
        random_connected_graph(rng, n, extra=rng.randrange(0, n))
        for n in [rng.randrange(17, 29) for _ in range(40)]
    ]
    graphs += [make_gadget(*params).graph for params in GRIDS["full"].gadgets]
    for first in GRIDS["full"].lemma5_firsts:
        for second in ((5, 1, 2), (6, 1, 2)):
            g1, g2 = make_gadget(*first), make_gadget(*second)
            alpha, _ = anchors(first[0])
            graphs.append(glue(g1, g1.vertex("a", alpha), g2, g2.vertex("j", 1)).graph)
    graphs += [make_chain(n1, 1, 2, ell).graph for n1 in (5, 6, 7) for ell in range(1, 5)]
    graphs.append(cartesian_product(make_cycle(8), make_cycle(8)))
    return graphs


def test_component_split_matches_depth_first_search():
    # above order 16 the solver splits the kept masks into landmark-disjoint
    # components; the sorted union of the components' lex-least sets must be
    # the lex-least set of the whole, and a cap must refute exactly when the
    # whole search does
    cases = set()
    for g in _split_oracle_graphs():
        sigs, diam = g.signatures()
        for ground in (sigs, g.edge_signatures()):
            masks = sorted(_separator_masks(combinations(ground, 2), g.n, diam), key=int.bit_count)
            kept = _drop_supersets(masks)
            sizes = [len(landmarks) for landmarks, _ in _components(kept, g.n)]
            if max(sizes) > LATTICE_MAX_ORDER:
                cases.add("one component past the lattice")
            elif len(sizes) > 1:
                cases.add("several lattice components")
            d = len(_lex_least_hitting_set(kept, g.n, g.n))
            for max_k in {d - 1, d, g.n}:
                split = _split_hitting_set(masks, g.n, max_k)
                assert split == _lex_least_hitting_set(kept, g.n, max_k)
                if split is None and max(_disjoint_count(masks, max_k), len(sizes)) <= max_k:
                    # neither the disjoint count nor one landmark per
                    # component refutes: the running sum of minima does
                    cases.add("cap refuted by the running sum")
    assert cases == {
        "several lattice components",
        "one component past the lattice",
        "cap refuted by the running sum",
    }


def _set(*landmarks):
    return sum(1 << z for z in landmarks)


def test_dominated_landmarks_are_dropped():
    # equal columns keep the smallest label: landmarks 1 and 2 hit the same
    # masks, and 3 is dominated by no smaller landmark
    masks = [_set(0, 3), _set(0, 1, 2), _set(1, 2, 3)]
    assert _drop_dominated(masks, 4) == [_set(0, 1), _set(0, 3), _set(1, 3)]
    # a strict-subset column is dropped: 3 hits only the mask of {0, 1, 3},
    # which 0 also hits, and clearing it makes no superset
    masks = [_set(0, 2), _set(1, 2), _set(0, 1, 3)]
    assert _drop_dominated(masks, 4) == [_set(0, 1), _set(0, 2), _set(1, 2)]
    # only a smaller landmark dominates: 0's column lies inside 1's, and
    # every other column holds a mask that no smaller landmark hits
    masks = [_set(1, 3), _set(2, 3), _set(0, 1, 2)]
    assert _drop_dominated(masks, 4) == masks
    # a second round: dropping 2 (dominated by 0) makes {0, 4} a superset of
    # {0}; once it is dropped, 4 hits only {1, 4}, as 1 does
    masks = [_set(0, 2), _set(0, 4), _set(1, 4)]
    assert _drop_dominated(masks, 5) == [_set(0), _set(1)]


def test_reduction_can_split_a_component_past_the_disjoint_count(monkeypatch):
    # 17 landmarks in one component, joined by the mask {0, 1}: 2 hits only
    # {0, 2}, 3-9 hit only a mask with 0 and 10-16 only a mask with 1, so
    # all are dominated; {0, 1} is then a superset of {0} and the component
    # splits in two, one more than the one disjoint mask counted first
    masks = [_set(0, 1), _set(0, 2)]
    masks += [_set(0, z) for z in range(3, 10)] + [_set(1, z) for z in range(10, 17)]
    masks = sorted(sorted(masks), key=int.bit_count)
    n = 17
    kept = _drop_supersets(masks)
    assert kept == masks and [len(c[0]) for c in _components(kept, n)] == [n]
    assert n > LATTICE_MAX_ORDER
    reduced = _drop_dominated(kept, n)
    assert reduced == [_set(0), _set(1)]
    assert len(_components(reduced, n)) == 2
    want = next(
        s
        for k in range(n + 1)
        for s in combinations(range(n), k)
        if all(m & _set(*s) for m in masks)
    )
    d = len(want)
    assert want == (0, 1) and _disjoint_count(masks, d - 1) == d - 1
    # each piece goes to the lattice; at max_k = d - 1 the two pieces leave
    # no spare landmark, so the first is capped at 0 and refutes
    calls = []
    lattice = solver._lattice_hitting_set

    def record(group, size, max_k):
        calls.append((size, max_k))
        return lattice(group, size, max_k)

    monkeypatch.setattr(solver, "_lattice_hitting_set", record)
    assert _split_hitting_set(masks, n, d - 1) is None
    assert calls == [(1, 0)]
    calls.clear()
    assert _split_hitting_set(masks, n, d) == want
    assert calls == [(1, 1), (1, 1)]
    assert _lex_least_hitting_set(kept, n, d - 1) is None


def _reduction_graphs():
    graphs = [
        cartesian_product(make_cycle(a), make_cycle(b))
        for a, b in ((8, 8), (6, 10), (7, 9), (5, 12))
    ]
    graphs.append(cartesian_product(make_path(8), make_path(8)))
    rng = random.Random(2024)
    for _ in range(39):
        n = rng.randrange(46, 58)
        graphs.append(random_connected_graph(rng, n, extra=rng.randrange(6, 24)))
    return graphs


def test_reduction_keeps_witnesses_and_caps(monkeypatch):
    # the split drops dominated landmarks of every component past the
    # lattice; on the tori and on sparse random graphs near order 50 its
    # witnesses and capped results must be those of the depth-first search
    # on the unreduced kept masks the solver hands it
    handed = []
    split = solver._split_hitting_set

    def record(masks, n, max_k):
        handed.append(masks)
        return split(masks, n, max_k)

    monkeypatch.setattr(solver, "_split_hitting_set", record)
    reduced = 0
    for g in _reduction_graphs():
        assert g.n > solver.TWINS_ABOVE_ORDER
        forced = tuple(iter_bits(solver._forced_twins(g.adj)))
        for fast in (metric_dimension, edge_metric_dimension):
            handed.clear()
            full = fast(g)
            [masks] = handed
            kept = _drop_supersets(masks)
            rest = _lex_least_hitting_set(kept, g.n, g.n)
            assert full.witness == tuple(sorted(forced + rest))
            d = len(rest)
            for max_k in {d - 1, d, g.n}:
                assert split(masks, g.n, max_k) == _lex_least_hitting_set(kept, g.n, max_k)
            assert fast(g, max_k=full.dimension) == full
            assert fast(g, max_k=full.dimension - 1) is None
            for landmarks, group in _components(kept, g.n):
                if len(landmarks) > LATTICE_MAX_ORDER:
                    reduced += _drop_dominated(group, len(landmarks)) != group
    assert reduced > 60


def test_torus_components_halve():
    # antipodal vertices of C8xC8 tell the same pairs apart, so the one
    # component of 64 landmarks keeps 32 for both kinds and still goes to
    # the depth-first search
    g = cartesian_product(make_cycle(8), make_cycle(8))
    sigs, diam = g.signatures()
    for ground in (sigs, g.edge_signatures()):
        masks = sorted(_separator_masks(combinations(ground, 2), g.n, diam), key=int.bit_count)
        [(landmarks, group)] = _components(_drop_supersets(masks), g.n)
        assert len(landmarks) == 64
        [(kept, _)] = _components(_drop_dominated(group, 64), 64)
        assert len(kept) == 32 > LATTICE_MAX_ORDER


def _planted_masks(rng):
    """Kept masks of 17-40 landmarks, with some columns planted equal to or
    inside another landmark's: b joins every mask of a, or some of them, and
    leaves the masks without a."""
    n = rng.randrange(17, 41)
    masks = [
        rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        for _ in range(rng.randrange(n, 2 * n))
    ]
    for _ in range(rng.randrange(1, 5)):
        a, b = rng.sample(range(n), 2)
        equal = rng.random() < 0.5
        masks = [
            m | 1 << b if m >> a & 1 and (equal or rng.random() < 0.5) else m & ~(1 << b)
            for m in masks
        ]
    return n, _drop_supersets(sorted(sorted({m for m in masks if m}), key=int.bit_count))


def _naive_drop_dominated(masks, n, seen):
    """The dominated-landmark fixpoint from all pairs of columns: each round
    drops every landmark whose column lies inside a smaller landmark's, then
    the supersets.  ``seen`` collects the kinds of round taken."""
    for rounds in count(1):
        cols = [0] * n
        for i, m in enumerate(masks):
            for z in iter_bits(m):
                cols[z] |= 1 << i
        dominator = {}
        for a in range(1, n):
            inside = [b for b in range(a) if not cols[a] & ~cols[b]]
            if cols[a] and inside:
                dominator[a] = inside[0]
        if not dominator:
            return masks
        strict = any(cols[a] != cols[b] for a, b in dominator.items())
        cleared = {m & ~_set(*dominator) for m in masks}
        kept = _drop_supersets(sorted(sorted(cleared), key=int.bit_count))
        if rounds == 2:
            seen.add("a second round")
        if not strict and rounds == 1:
            seen.add("equal columns only")
        if strict and len(kept) < len(masks):
            seen.add("a strict drop, then a superset drop")
        masks = kept


def test_reduction_matches_a_naive_fixpoint():
    # seeded mask sets with planted equal and nested columns: the reduction
    # must give the all-pairs fixpoint, and on some of them the split must
    # give the depth-first search's results on the unreduced kept masks
    rng = random.Random(26)
    seen = set()
    for case in range(3000):
        n, masks = _planted_masks(rng)
        assert _drop_dominated(masks, n) == _naive_drop_dominated(masks, n, seen), (n, masks)
        if case % 40 == 0:
            d = len(_lex_least_hitting_set(masks, n, n))
            for max_k in {d - 1, d, n}:
                want = _lex_least_hitting_set(masks, n, max_k)
                assert _split_hitting_set(masks, n, max_k) == want, (n, masks, max_k)
    assert seen == {
        "equal columns only",
        "a strict drop, then a superset drop",
        "a second round",
    }


def test_packed_masks_match_pairwise_masks():
    # with the labelled graphs and the Random(97) stream above: paths and
    # cycles up to order 16 give one to four planes, and three planes need
    # slots of four or the fold reads the next slot; K1 and K2 have fewer
    # than two items of a kind, and K16's 120 edges fill the largest buffer
    graphs = [make_path(n) for n in range(2, 17)]
    graphs += [make_cycle(n) for n in range(3, 17)]
    graphs += [make_complete(1), make_complete(2), make_complete(16)]
    planes = set()
    for g in graphs:
        sigs, diam = g.signatures()
        planes.add(diam.bit_length())
        for ground in (sigs, g.edge_signatures()):
            pairwise = _separator_masks(combinations(ground, 2), g.n, diam)
            assert set(_packed_masks(ground, g.n, diam)) == pairwise
    assert planes == {0, 1, 2, 3, 4}
    # one fold rule at every order, the slot layouts' included: shifts n,
    # 2n, 4n, ... below n times the plane count; the packed masks serve at
    # most 16 landmarks, so at most four planes
    for n in range(1, 131):
        for count in range(13):
            shifts, shift = [], n
            while shift < n * count:
                shifts.append(shift)
                shift <<= 1
            assert _fold_shifts(n, count) == tuple(shifts)
            if n <= LATTICE_MAX_ORDER and count <= 4:
                assert solver._slot_layout(n, count)[2] == tuple(shifts)


@pytest.mark.parametrize("k", [2, 3, 90, 120, 300])
def test_stars_force_their_leaves(k):
    # the k leaves of K1,k form one twin class, so every leaf but the last
    # is a landmark and no leaf-pair mask reaches the search
    star = Graph.from_edges(k + 1, [(0, leaf) for leaf in range(1, k + 1)])
    for fast in (metric_dimension, edge_metric_dimension):
        res = fast(star)
        assert res.dimension == k - 1
        assert res.witness == tuple(range(1, k))
        assert fast(star, max_k=k - 2) is None


def _twin_pairs(g):
    # u and v are twins when N(u) - {v} = N(v) - {u}
    return [
        (u, v)
        for u, v in combinations(range(g.n), 2)
        if not (g.adj[u] ^ g.adj[v]) & ~(1 << u | 1 << v)
    ]


def test_twin_rule_matches_naive_oracle_on_small_orders(monkeypatch):
    # with the order limit lowered, the rule serves every labelled
    # connected graph of orders 3-6 that has a twin pair
    monkeypatch.setattr(solver, "TWINS_ABOVE_ORDER", 2)
    count = 0
    for n in range(3, 7):
        for g in enumerate_labeled_connected(n):
            twins = bool(_twin_pairs(g))
            assert (solver._forced_twins(g.adj) != 0) == twins
            if not twins:
                continue
            count += 1
            assert (metric_dimension(g), edge_metric_dimension(g)) == naive_results(g)
    assert count == 14898
    # K2's vertices are twins, yet its one edge needs no landmark
    monkeypatch.setattr(solver, "TWINS_ABOVE_ORDER", 0)
    k2 = make_path(2)
    assert (metric_dimension(k2).dimension, edge_metric_dimension(k2).dimension) == (1, 0)
    assert (metric_dimension(k2).witness, edge_metric_dimension(k2).witness) == ((0,), ())


def _planted_twin_graph(rng, n):
    """A random connected graph of order n with open and closed twin classes.

    Each new vertex copies the row of a vertex already there, with (closed)
    or without (open) an edge to it; the labels are shuffled at the end.
    """
    base = rng.randrange(n // 2, n - 1)
    adj = list(random_connected_graph(rng, base, extra=rng.randrange(0, base)).adj)
    while len(adj) < n:
        v, w = rng.randrange(base), len(adj)
        row = adj[v] | (1 << v if rng.random() < 0.5 else 0)
        adj.append(row)
        for u in iter_bits(row):
            adj[u] |= 1 << w
    g = Graph(n, adj)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_twin_classes_fold_exactly_the_masks_the_forced_set_misses(monkeypatch):
    # with twins forced, the solver folds only the pairs of items that agree
    # on every forced landmark; those are exactly the pairs whose mask misses
    # the forced set, so the search must get the masks that filtering every
    # pair's mask would keep, in the same order, below and above order 64
    rng = random.Random(131)
    graphs = [_planted_twin_graph(rng, n) for n in [*range(13, 41), 64, 65, 80, 100]]
    stars = [[(0, leaf) for leaf in range(1, k + 1)] for k in (12, 15, 63, 64, 99)]
    graphs += [Graph.from_edges(len(edges) + 1, edges) for edges in stars]
    graphs += [make_chain(n1, 1, 2, ell).graph for n1 in (5, 6) for ell in (2, 6, 9)]
    assert min(g.n for g in graphs) > solver.TWINS_ABOVE_ORDER
    handed = []
    split = solver._split_hitting_set

    def record(masks, n, max_k):
        handed.append(masks)
        return split(masks, n, max_k)

    monkeypatch.setattr(solver, "_split_hitting_set", record)
    for g in graphs:
        forced = solver._forced_twins(g.adj)
        assert forced
        sigs, diam = g.signatures()
        grounds = (sigs, g.edge_signatures())
        for fast, ground in zip((metric_dimension, edge_metric_dimension), grounds):
            handed.clear()
            fast(g)
            pairwise = _separator_masks(combinations(ground, 2), g.n, diam)
            kept = {m for m in pairwise if not m & forced}
            assert handed == [sorted(sorted(kept), key=int.bit_count)]


def test_twin_free_graphs_above_16_fold_every_pair_as_one_class(monkeypatch):
    # no twin is forced, so one class holds every item: the split gets every
    # pair's mask, and the tori, grids, paths and cycles keep their
    # witnesses of both kinds and their caps, on both sides of order 64
    handed = []
    split = solver._split_hitting_set

    def record(masks, n, max_k):
        handed.append(masks)
        return split(masks, n, max_k)

    monkeypatch.setattr(solver, "_split_hitting_set", record)
    cases = [
        ("cp:cycle:8xcycle:8", (0, 1, 4, 8), (0, 4, 18)),
        ("cp:cycle:6xcycle:10", (0, 1, 5, 10), (0, 1, 5, 10)),
        ("cp:cycle:7xcycle:9", (0, 1, 27), (0, 1, 5, 9)),
        ("cp:cycle:5xcycle:12", (0, 1, 24), (0, 1, 6, 12)),
        ("cp:path:8xpath:8", (0, 7), (0, 7)),
        ("cp:path:9xpath:7", (0, 6), (0, 6)),
        ("path:17", (0,), (0,)),
        ("cycle:33", (0, 1), (0, 1)),
        ("path:64", (0,), (0,)),
        ("path:200", (0,), (0,)),
        ("cycle:101", (0, 1), (0, 1)),
    ]
    for spec, *witnesses in cases:
        g = parse_family_spec(spec)
        assert g.n > LATTICE_MAX_ORDER and not solver._forced_twins(g.adj)
        sigs, diam = g.signatures()
        grounds = (sigs, g.edge_signatures())
        kinds = zip((metric_dimension, edge_metric_dimension), grounds, witnesses)
        for fast, ground, witness in kinds:
            handed.clear()
            full = fast(g)
            pairwise = _separator_masks(combinations(ground, 2), g.n, diam)
            assert handed == [sorted(sorted(pairwise), key=int.bit_count)]
            assert full.witness == witness
            assert fast(g, max_k=len(witness)) == full
            assert fast(g, max_k=len(witness) - 1) is None


def test_twin_rule_keeps_witnesses_and_caps(monkeypatch):
    # above TWINS_ABOVE_ORDER the solver folds only the pairs inside the
    # forced twin classes, at every order: up to 64 in place of the lattice
    # and the packed masks, above 64 in place of every pair's mask; up to
    # order 120 that must give the witnesses and capped results of the
    # search without the rule
    rng = random.Random(113)
    graphs = [_planted_twin_graph(rng, n) for n in range(13, 41) for _ in range(4)]
    graphs += [make_chain(5, 1, 2, ell).graph for ell in range(7, 13)]  # orders 70-120
    graphs += [make_chain(6, 1, 2, ell).graph for ell in range(6, 11)]  # orders 66-110
    graphs += [realize(2, 4, 66).graph, realize(5, 2, 90).graph, realize(2, 9, 120).graph]
    graphs += [realize(9, 2, 120).graph]
    assert max(g.n for g in graphs) == 120
    kinds = {g.has_edge(u, v) for g in graphs for u, v in _twin_pairs(g)}
    assert kinds == {False, True}  # open and closed twins both occur
    assert solver.TWINS_ABOVE_ORDER < 13
    assert all(solver._forced_twins(g.adj) for g in graphs)

    def solve_all():
        rows = []
        for g in graphs:
            for fast in (metric_dimension, edge_metric_dimension):
                full = fast(g)
                d = full.dimension
                rows.append((full, fast(g, max_k=d), fast(g, max_k=d - 1)))
        return rows

    with_rule = solve_all()
    monkeypatch.setattr(solver, "TWINS_ABOVE_ORDER", 10**6)
    assert solve_all() == with_rule


def test_witness_free_solve_matches_the_witnessed_one():
    # the scans, the census and the suites read only the dimension: their
    # solve must give every dimension, and every None under a cap, of the
    # witnessed one, on the lattice path (twin-free, order <= 16) and on
    # the split path (twins forced from order 13, or order 17 and above)
    rng = random.Random(1709)
    graphs = [g for n in range(1, 7) for g in enumerate_labeled_connected(n)]
    graphs += [
        random_connected_graph(rng, n, extra=rng.randrange(2 * n))
        for n in range(7, 17)
        for _ in range(8)
    ]
    gadgets = [(5, n2, n3) for n2 in range(1, 4) for n3 in range(5, 12)]
    graphs += [make_gadget(*p).graph for p in gadgets]
    graphs.append(parse_family_spec("path:17"))
    assert {g.n for g in graphs if solver._forced_twins(g.adj)} >= set(range(13, 21))
    for g in graphs:
        for kind, fast in (("vertex", metric_dimension), ("edge", edge_metric_dimension)):
            d = fast(g).dimension
            assert _dimension(g, kind) == d
            for cap in {0, d - 1, d, g.n}:
                res = fast(g, max_k=cap)
                assert _dimension(g, kind, cap) == (None if res is None else res.dimension)


def test_batched_vertex_solves_match_the_per_graph_solve():
    # the batched vertex solve against the per-graph one: every batched
    # order at widths 1, 2, 63, 64 and 65, full or not.  Per order and width
    # one slice of connected graphs, sparse to complete, and one of sparse
    # and dense graphs, many disconnected at any slot; each holds a path and
    # a complete graph (dimension 1 and n - 1).  Per order one more slice
    # holds only disconnected graphs.  Each connected graph gets its own
    # dimension, each disconnected one None.
    rng = random.Random(53)
    connected = disconnected = interior = 0
    for n in solver._BATCH_LEAST:
        pairs = list(combinations(range(n), 2))
        slices = []
        for width in (1, 2, 63, 64, 65):
            count = width if rng.random() < 0.5 else rng.randrange(1, width + 1)
            tied = [random_connected_graph(rng, n, extra=rng.randrange(len(pairs))) for _ in range(count)]
            density = [rng.choice([0.1, 0.3, 0.5, 0.9]) for _ in range(count)]
            mixed = [Graph.from_edges(n, [p for p in pairs if rng.random() < q]) for q in density]
            for graphs in (tied, mixed):
                graphs[rng.randrange(count)] = make_path(n)
                graphs[rng.randrange(count)] = make_complete(n)
                slices.append((graphs, width))
        apart = [p for p in pairs if n - 1 not in p]  # vertex n - 1 alone
        slices.append(([Graph.from_edges(n, [p for p in apart if rng.random() < 0.6]) for _ in range(40)], 64))
        for graphs, width in slices:
            dims = solver._batch_dimensions(graphs, width)
            assert len(dims) == len(graphs)
            for b, (g, dim) in enumerate(zip(graphs, dims)):
                alone = Graph(n, g.adj)
                try:
                    alone.signatures()
                except DisconnectedGraph:
                    assert dim is None, (n, width, g.adj)
                    disconnected += 1
                    interior += 0 < b < len(graphs) - 1
                else:
                    assert dim == _dimension(alone, "vertex"), (n, width, g.adj)
                    connected += 1
    assert connected > 1000 and disconnected > 500 and interior > 400
    solver._lane_mask.cache_clear()  # the tables of the widths tried here
    solver._batch_lanes.cache_clear()


def test_batch_kernel_waits_for_no_disconnected_block(monkeypatch):
    # the lattice rounds stop at the largest dimension among the connected
    # graphs: a disconnected graph whose masks no landmark set hits (two
    # isolated vertices tell no landmark apart) is not waited for, so a
    # slice of paths, dimension 1, reads the 1-sets alone
    reads = []

    class Recorded(list):
        def __getitem__(self, k):
            reads.append(k)
            return super().__getitem__(k)

    real = solver._batch_lanes

    def recorded(n, width):
        *head, pop, top, fill = real(n, width)
        return (*head, Recorded(pop), top, fill)

    monkeypatch.setattr(solver, "_batch_lanes", recorded)
    for n in (5, 10):
        apart = Graph.from_edges(n, [(v, v + 1) for v in range(n - 3)])
        reads.clear()
        assert solver._batch_dimensions([make_path(n)] * 3 + [apart, make_path(n)], 64) == [1, 1, 1, None, 1]
        assert reads == [1]


def test_solved_dims_of_matches_per_graph_solved_dims():
    # mixed orders 1 to 16 in one list, connected and disconnected: every
    # window gives what solved_dims gives graph by graph, and the
    # disconnected graphs are left out.  The 131 order-10 graphs make two
    # full slices of 64 and a remainder solved alone; up to the cut, a
    # full slice and a padded one.  The other orders are solved alone.
    rng = random.Random(59)
    graphs = []
    for _ in range(170):
        n = 10 if len(graphs) % 4 else rng.randrange(1, 17)
        density = rng.choice([0.2, 0.35, 0.5, 0.8])
        graphs.append(Graph.from_edges(n, [p for p in combinations(range(n), 2) if rng.random() < density]))
    connected = []
    for i, g in enumerate(graphs):
        try:
            Graph(g.n, g.adj).signatures()
        except DisconnectedGraph:
            continue
        connected.append(i)
    assert 0 < len(connected) < len(graphs)
    tens = [i for i, g in enumerate(graphs) if g.n == 10]
    least = solver._BATCH_LEAST[10]
    assert 128 < len(tens) < 128 + least
    cut = tens[64 + least + 8]
    windows = [None] + [Predicate.parse(t).edim_window for t in ("lt", "gt", "eq", "diff:-1", "ratio:3/2")]
    for window in windows:
        for part in (graphs, graphs[:cut]):
            kept = [i for i in connected if i < len(part)]
            want = {i: solver.solved_dims(Graph(part[i].n, part[i].adj), window) for i in kept}
            assert solver.solved_dims_of([Graph(g.n, g.adj) for g in part], window) == want


def test_edge_signatures_match_resolution_vectors():
    rng = random.Random(67)
    graphs = [make_path(2), make_cycle(5), make_path(300), make_cycle(300)]
    graphs += [random_connected_graph(rng, rng.randrange(2, 14), extra=rng.randrange(0, 9)) for _ in range(20)]
    for g in graphs:
        _, diam = g.signatures()
        full = (1 << g.n) - 1
        for e, sig in zip(g.edges, g.edge_signatures()):
            planes = [sig >> b * g.n & full for b in range(diam.bit_length())]
            decoded = tuple(
                sum((plane >> z & 1) << b for b, plane in enumerate(planes))
                for z in range(g.n)
            )
            assert decoded == resolution_vector(g, e, range(g.n))


def test_landmark_validation():
    with pytest.raises(ValueError):
        is_metric_generator(make_path(3), [5])


def test_refuted_edge_search_leaves_the_edge_list_underived():
    # K6 has 15 edges and diameter 1: three landmarks tell at most 2**3
    # edges apart, so the bounded search refutes before it reads the edges
    g = decode_graph6(encode_graph6(make_complete(6)))
    assert edge_metric_dimension(g, max_k=3) is None
    assert metric_dimension(g).dimension == 5
    assert g._edges is None
    # the full search reads the adjacency rows too; only the oracle lists edges
    result = edge_metric_dimension(g)
    assert g._edges is None
    assert result == naive_results(g)[1]


def test_capped_edge_search_refutes_by_common_neighbour_pairs(monkeypatch):
    # landmarks that give u and v equal distances give uw and vw equal ones
    # for every common neighbour w, so these records are refuted before
    # their edge items are built; FJAtw has order 7, dim 3, edim 4 and
    # diameter 3, and Fb~~w has dim 4 and edim 6
    for record, cap in _COMMON_NEIGHBOUR_REFUTED.items():
        g = decode_graph6(record)
        _, diam = g.signatures()
        assert g.m <= (diam + 1) ** cap
        assert naive_results(g)[1].dimension > cap
        assert edge_metric_dimension(g, max_k=cap) is None
        assert g._edge_sigs is None
    # K16's rows fill their 16-bit slots, so a slot is tested non-zero by
    # folding, not by a carry out of it; with its twins left to the
    # search, 14 landmarks pass the count, but no 14 hit the mask {u, v}
    # of every vertex pair
    monkeypatch.setattr(solver, "TWINS_ABOVE_ORDER", LATTICE_MAX_ORDER)
    k16 = make_complete(16)
    assert edge_metric_dimension(k16, max_k=14) is None
    assert k16._edge_sigs is None
    monkeypatch.undo()
    # nor does an lt scan build them: its caps are dim - 1
    def unbuilt(g):
        raise AssertionError("edge items built")

    monkeypatch.setattr(Graph, "edge_signatures", unbuilt)
    report = scan(list(_COMMON_NEIGHBOUR_REFUTED), Predicate.parse("lt"))
    assert (report.connected, report.matches) == (4, [])


def _random_connected_gnp(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if g.is_connected():
            return g


def test_row_built_edge_items_match_the_distance_matrix():
    # the edge items are read off the adjacency rows; edge by edge, in
    # Graph.edges order, each must be the landmark-wise minimum of its two
    # endpoint rows of the distance matrix, packed into planes as
    # Graph.signatures packs them, on both sides of PACKED_MAX_ORDER
    rng = random.Random(2918)
    graphs = [make_path(2), make_cycle(3), make_cycle(64), make_cycle(65), make_path(70)]
    graphs += [make_chain(6, 1, 2, 6).graph]  # order 66
    for n in (2, 3, 5, 9, 16, 17, 33, 63, 64, 65, 70):
        graphs.append(_random_connected_gnp(rng, n, min(1.0, 3.0 / n + rng.random() * 0.4)))
        graphs.append(random_connected_graph(rng, n))
    assert {g.n > PACKED_MAX_ORDER for g in graphs} == {False, True}
    for g in graphs:
        _, diam = g.signatures()
        dm = g.distance_matrix()
        items = g.edge_signatures()
        # computed once, and with no edge list built
        assert g.edge_signatures() is items
        assert g._edges is None
        assert len(items) == len(g.edges) == g.m
        for (u, v), item in zip(g.edges, items):
            want = 0
            for z in range(g.n):
                d = min(dm[u][z], dm[v][z])
                for b in range(diam.bit_length()):
                    want |= (d >> b & 1) << (b * g.n + z)
            assert item == want, (g, u, v)
    # no solve or generator check builds the edge list, on either side of
    # the lattice limit and of PACKED_MAX_ORDER
    graphs = [make_cycle(9), make_chain(5, 1, 2, 2).graph, make_path(70)]
    graphs += [random_connected_graph(rng, n, extra=n // 3) for n in (8, 20)]
    for g in graphs:
        fresh = Graph(g.n, g.adj)
        metric_dimension(fresh)
        edim = edge_metric_dimension(fresh)
        assert edge_metric_dimension(fresh, max_k=edim.dimension - 1) is None
        assert is_edge_metric_generator(fresh, edim.witness)
        assert fresh._edges is None
        assert edim == edge_metric_dimension(g)


def test_import_builds_no_cached_layout():
    # the subset-lattice tables, the slot layouts, the lane masks and the
    # graph6 byte tables are built on first use, so importing the package
    # (and the CLI) costs nothing per order
    src = str(Path(metricdim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import metricdim.cli\n"
        "from metricdim import graph6, solver\n"
        "print(solver._tables.cache_info().currsize,"
        " solver._slot_layout.cache_info().currsize,"
        " solver._lane_mask.cache_info().currsize,"
        " graph6._byte_tables.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.split() == ["0", "0", "0", "0"]
