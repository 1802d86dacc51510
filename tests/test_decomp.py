import random
import time
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    all_edge_subsets,
    all_graphic_sequences,
    decompose_by_subsets,
    minimal_head,
)
from wtgraph import buildkit, decomp, graphcore as gc, seqcore
from wtgraph.errors import NotGraphic


def paw():
    return gc.SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def chair():
    return gc.SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])


# === splitted sequences ================================================


def test_parse_format_round_trip():
    for text in ["2,2;1,1", "0;", ";0", "2,2,2;", "1;1", "2,1;1"]:
        assert decomp.format_splitted(decomp.parse_splitted(text)) == text


def test_parse_rejects_malformed():
    for text in ["", "1,2", "1;2;3", "x;1", "2,2;y", "-1;"]:
        with pytest.raises(ValueError):
            decomp.parse_splitted(text)


def test_unrealizable_partitions_rejected():
    # clique side needs q independent slots for its leftover degree
    with pytest.raises(ValueError):
        decomp.SplittedSequence((1,), ())
    # degree-0 clique vertex in a 2-clique cannot exist
    with pytest.raises(ValueError):
        decomp.SplittedSequence((1, 0), ())
    # independent vertex cannot exceed the clique size
    with pytest.raises(ValueError):
        decomp.SplittedSequence((), (1,))
    with pytest.raises(ValueError):
        decomp.SplittedSequence((2, 2), (2, 1))  # sums differ


def test_realize_splitted_examples():
    g = decomp.realize_splitted((2, 2), (1, 1))
    assert g is not None
    assert g.has_edge(0, 1)
    assert sorted(g.degrees()) == [1, 1, 2, 2]
    assert decomp.realize_splitted((0,), ()).n == 1
    assert decomp.realize_splitted((), (0,)).n == 1
    assert decomp.realize_splitted((3,), (1,)) is None


def test_splitted_graph_partition_is_checked():
    k2 = gc.complete_graph(2)
    decomp.SplittedGraph(k2, frozenset({1}), frozenset({0}))
    with pytest.raises(ValueError):
        decomp.SplittedGraph(k2, frozenset({0, 1}), frozenset({0}))
    with pytest.raises(ValueError):
        decomp.SplittedGraph(k2, frozenset({0, 1}), frozenset())
    with pytest.raises(ValueError):
        decomp.SplittedGraph(gc.empty_graph(2), frozenset(), frozenset({0, 1}))


def test_splitted_graph_round_trip_through_terms():
    s = decomp.parse_splitted("2,2;1,1")
    sg = decomp.splitted_graph_from_terms(s)
    assert sg.splitted_sequence() == s


# === composition =======================================================


def test_compose_sequence_values():
    assert decomp.compose_sequence(
        decomp.parse_splitted("2,2;1,1"), (1, 1, 1, 1, 0)
    ) == (7, 7, 3, 3, 3, 3, 2, 1, 1)
    assert decomp.compose_sequence(decomp.parse_splitted("0;"), (1, 1)) == (2, 2, 2)
    assert decomp.compose_sequence(decomp.parse_splitted(";0"), (1, 1)) == (1, 1, 0)


def test_compose_graph_joins_clique_side_only():
    head = decomp.splitted_graph_from_terms(decomp.parse_splitted("2,2;1,1"))
    g = decomp.compose_graph(head, gc.SimpleGraph(1, []))
    assert seqcore.normalize(g.degrees()) == (3, 3, 2, 1, 1)
    # the new vertex sees exactly the clique side
    assert g.neighbors(4) == sorted(head.clique)


def test_compose_graph_matches_compose_sequence():
    rng = random.Random(11)
    for _ in range(60):
        p, q = rng.randrange(0, 3), rng.randrange(0, 3)
        if p + q == 0:
            continue
        clique = list(combinations(range(p), 2))
        cross = [(i, p + j) for i in range(p) for j in range(q) if rng.random() < 0.5]
        base = gc.SimpleGraph(p + q, clique + cross)
        head = decomp.SplittedGraph(
            base, frozenset(range(p, p + q)), frozenset(range(p))
        )
        n = rng.randrange(1, 5)
        tail = gc.SimpleGraph(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        )
        composed = decomp.compose_graph(head, tail)
        assert seqcore.normalize(composed.degrees()) == decomp.compose_sequence(
            head.splitted_sequence(), seqcore.normalize(tail.degrees())
        )


def test_composition_is_associative():
    rng = random.Random(3)

    def rand_head():
        while True:
            p, q = rng.randrange(0, 3), rng.randrange(0, 3)
            if p + q:
                break
        clique = list(combinations(range(p), 2))
        cross = [(i, p + j) for i in range(p) for j in range(q) if rng.random() < 0.5]
        return decomp.SplittedGraph(
            gc.SimpleGraph(p + q, clique + cross),
            frozenset(range(p, p + q)),
            frozenset(range(p)),
        )

    for _ in range(120):
        s1, s2 = rand_head(), rand_head()
        n = rng.randrange(1, 4)
        g = gc.SimpleGraph(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        )
        left = decomp.compose_graph(decomp.compose_splitted(s1, s2), g)
        right = decomp.compose_graph(s1, decomp.compose_graph(s2, g))
        assert left == right


# === decomposition =====================================================


def test_decompose_sequence_values():
    cases = [
        ((3, 2, 2, 1), ["0;", ";0", "0;"], (0,)),
        ((7, 7, 3, 3, 3, 3, 2, 1, 1), ["2,2;1,1", ";0"], (1, 1, 1, 1)),
        ((2, 2, 1, 1), [], (2, 2, 1, 1)),
        ((1, 1), ["0;"], (0,)),
        ((1, 1, 0), [";0", "0;"], (0,)),
        ((2, 1, 1), ["0;", ";0"], (0,)),
        ((1, 1, 1, 1, 0), [";0"], (1, 1, 1, 1)),
        ((3, 3, 3, 3), ["0;", "0;", "0;"], (0,)),
    ]
    for d, heads, tail in cases:
        got = decomp.decompose_sequence(d)
        assert [decomp.format_splitted(h) for h in got.heads] == heads, d
        assert got.tail == tail, d
        assert decomp.recompose_sequence(got) == d


def test_decompose_sequence_rejects_nongraphic():
    with pytest.raises(NotGraphic):
        decomp.decompose_sequence((1, 1, 1))
    with pytest.raises(NotGraphic):
        decomp.decompose_sequence((4, 1, 1))


def test_decompose_graph_values():
    d = decomp.decompose_graph(paw())
    assert [decomp.format_splitted(h.splitted_sequence()) for h in d.heads] == [
        "0;",
        ";0",
        "0;",
    ]
    assert d.tail.n == 1

    d = decomp.decompose_graph(gc.path_graph(4))
    assert d.heads == ()
    assert gc.are_isomorphic(d.tail, gc.path_graph(4))

    d = decomp.decompose_graph(gc.complete_graph(4))
    assert [decomp.format_splitted(h.splitted_sequence()) for h in d.heads] == [
        "0;",
        "0;",
        "0;",
    ]


def test_decompose_graph_size_limit():
    # polynomial now, so bounded only by the 64-vertex graph cap
    d = decomp.decompose_graph(gc.empty_graph(17))
    assert [decomp.format_splitted(h.splitted_sequence()) for h in d.heads] == [
        ";0"
    ] * 16
    assert d.tail == gc.SimpleGraph(1, [])


def _random_head(rng, max_side):
    while True:
        p, q = rng.randrange(0, max_side + 1), rng.randrange(0, max_side + 1)
        if p + q:
            break
    clique = list(combinations(range(p), 2))
    cross = [(i, p + j) for i in range(p) for j in range(q) if rng.random() < 0.5]
    return decomp.SplittedGraph(
        gc.SimpleGraph(p + q, clique + cross),
        frozenset(range(p, p + q)),
        frozenset(range(p)),
    )


def _composed(rng, order, max_side, max_tail):
    """Random splitted heads over a random tail, about order vertices
    in all, with the vertices shuffled."""
    heads = []
    total = 0
    while True:
        h = _random_head(rng, max_side)
        if total + h.graph.n > order - 1:
            break
        heads.append(h)
        total += h.graph.n
    m = rng.randrange(1, min(max_tail, order - total) + 1)
    g = gc.SimpleGraph(m, [e for e in combinations(range(m), 2) if rng.random() < 0.5])
    for h in reversed(heads):
        g = decomp.compose_graph(h, g)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return gc.SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _as_oracle_output(d):
    heads = [
        (h.graph.n, h.graph.edges(), sorted(h.independent), sorted(h.clique))
        for h in d.heads
    ]
    return heads, (d.tail.n, d.tail.edges())


def test_decompose_graph_matches_subset_oracle():
    """Head for head and vertex for vertex, the degree-ordered search
    agrees with the search over every vertex subset."""
    for n in range(1, 7):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            hit = decomp._degree_head(g)
            assert hit == minimal_head(n, edges), (n, sorted(edges))
            assert _as_oracle_output(decomp.decompose_graph(g)) == (
                decompose_by_subsets(n, edges)
            ), (n, sorted(edges))


def test_decompose_graph_matches_subset_oracle_on_compositions():
    # composed and relabelled graphs tie degrees across head boundaries
    rng = random.Random(2024)
    for _ in range(150):
        g = _composed(rng, rng.randrange(7, 17), max_side=3, max_tail=5)
        d = decomp.decompose_graph(g)
        assert _as_oracle_output(d) == decompose_by_subsets(g.n, g.edges()), g
        assert decomp.recompose_graph(d).n == g.n


def test_decompose_large_composed_graph_matches_sequence_route():
    rng = random.Random(40)
    g = _composed(rng, 40, max_side=4, max_tail=6)
    assert g.n > gc.CANONICAL_MAX
    dg = decomp.decompose_graph(g)
    sd = decomp.decompose_sequence(seqcore.normalize(g.degrees()))
    assert len(dg.heads) > 3
    assert [h.splitted_sequence() for h in dg.heads] == list(sd.heads)
    assert seqcore.normalize(dg.tail.degrees()) == sd.tail
    assert gc.degree_sequence(decomp.recompose_graph(dg)) == gc.degree_sequence(g)


def test_figure_graph_head_is_splitted_path():
    # composing the 4-vertex splitted path over four disjoint edges plus
    # an isolated vertex, then decomposing, recovers both heads
    head = decomp.splitted_graph_from_terms(decomp.parse_splitted("2,2;1,1"))
    inner = gc.SimpleGraph(5, [(0, 1), (2, 3)])
    g = decomp.compose_graph(head, inner)
    assert seqcore.normalize(g.degrees()) == (7, 7, 3, 3, 3, 3, 2, 1, 1)
    d = decomp.decompose_graph(g)
    assert [decomp.format_splitted(h.splitted_sequence()) for h in d.heads] == [
        "2,2;1,1",
        ";0",
    ]
    assert seqcore.normalize(d.tail.degrees()) == (1, 1, 1, 1)


def test_round_trip_all_small_graphs():
    for n in range(1, 6):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            d = decomp.decompose_graph(g)
            assert gc.are_isomorphic(decomp.recompose_graph(d), g)


def test_round_trip_all_small_sequences():
    for n in range(1, 8):
        for d in all_graphic_sequences(n):
            got = decomp.decompose_sequence(d)
            assert decomp.recompose_sequence(got) == d


def test_sequence_and_graph_routes_agree():
    """Head-for-head, the sequence decomposition of the degree sequence
    matches the splitted sequences read off the graph decomposition."""
    for n in range(1, 6):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            dg = decomp.decompose_graph(g)
            sd = decomp.decompose_sequence(seqcore.normalize(g.degrees()))
            assert [h.splitted_sequence() for h in dg.heads] == list(sd.heads)
            assert seqcore.normalize(dg.tail.degrees()) == sd.tail


def test_component_multiset_survives_relabeling():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randrange(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        g = gc.SimpleGraph(n, edges)
        h = gc.SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])
        dg, dh = decomp.decompose_graph(g), decomp.decompose_graph(h)
        assert sorted(
            decomp.splitted_canonical_form(x) for x in dg.heads
        ) == sorted(decomp.splitted_canonical_form(x) for x in dh.heads)
        assert gc.are_isomorphic(dg.tail, dh.tail)


def test_components_are_indecomposable():
    for n in range(1, 6):
        for edges in all_edge_subsets(n):
            d = decomp.decompose_graph(gc.SimpleGraph(n, edges))
            for h in d.heads:
                assert decomp.is_indecomposable_graph(h.graph)
            assert decomp.is_indecomposable_graph(d.tail)


# === indecomposability, second route ===================================


def test_indecomposable_examples():
    assert decomp.is_indecomposable_graph(gc.SimpleGraph(1, []))
    assert not decomp.is_indecomposable_graph(gc.complete_graph(2))
    assert not decomp.is_indecomposable_graph(gc.empty_graph(3))
    assert decomp.is_indecomposable_graph(gc.path_graph(4))
    assert decomp.is_indecomposable_graph(gc.SimpleGraph(4, [(0, 1), (2, 3)]))
    assert decomp.is_indecomposable_graph(gc.cycle_graph(4))
    assert decomp.is_indecomposable_graph(gc.cycle_graph(5))
    assert decomp.is_indecomposable_graph(chair())
    assert not decomp.is_indecomposable_graph(paw())
    assert not decomp.is_indecomposable_graph(gc.complete_graph(4))


def test_indecomposable_matches_decomposition_route():
    for n in range(1, 6):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            d = decomp.decompose_graph(g)
            trivial = not d.heads and d.tail.n == g.n
            assert decomp.is_indecomposable_graph(g) == trivial, (n, edges)


def test_indecomposable_size_is_honest_in_time():
    rng = random.Random(32)
    g = gc.SimpleGraph(32, [e for e in combinations(range(32), 2) if rng.random() < 0.5])
    t0 = time.perf_counter()
    got = decomp.is_indecomposable_graph(g)
    assert time.perf_counter() - t0 < 1.0
    assert got == (not decomp.decompose_graph(g).heads)


def test_indecomposable_stops_once_one_class_remains():
    """G(64, 1/2) is indecomposable and its 4-sets chain every vertex
    into one class early, long before the last of C(64, 4) quads."""
    rng = random.Random(64)
    g = gc.SimpleGraph(64, [e for e in combinations(range(64), 2) if rng.random() < 0.5])
    t0 = time.perf_counter()
    got = decomp.is_indecomposable_graph(g)
    assert time.perf_counter() - t0 < 0.25
    assert got and not decomp.decompose_graph(g).heads


@st.composite
def _compositions(draw):
    """One to four pieces, each on at most 8 vertices: random splitted
    heads over a random tail, relabelled.  A lone tail is often
    indecomposable and a composition never is, so both answers occur."""
    pieces = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    g = gc.SimpleGraph(m, [e for e in combinations(range(m), 2) if draw(st.booleans())])
    for _ in range(pieces - 1):
        p, q = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any))
        clique = list(combinations(range(p), 2))
        cross = [(i, p + j) for i in range(p) for j in range(q) if draw(st.booleans())]
        head = decomp.SplittedGraph(
            gc.SimpleGraph(p + q, clique + cross),
            frozenset(range(p, p + q)),
            frozenset(range(p)),
        )
        g = decomp.compose_graph(head, g)
    perm = draw(st.permutations(range(g.n)))
    return gc.SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=150, deadline=None)
@given(_compositions())
def test_indecomposable_matches_decomposition_route_property(g):
    assert decomp.is_indecomposable_graph(g) == (not decomp.decompose_graph(g).heads)


@cache
def _catalog(k):
    return sorted(buildkit.enumerate_wt_graphs(k))


def _catalog_piece(draw, k):
    return gc.graph_from_canonical_form(draw(st.sampled_from(_catalog(k))))


@st.composite
def _recomposable(draw):
    """A graph on 7-12 vertices: G(n, 1/2), or a composition whose tail
    is a catalog member or a random graph and whose heads are catalog
    members split by their degree order.  The order cap keeps
    canonical_form fast; see ROADMAP, known slow paths."""
    n = draw(st.integers(7, 12))
    if draw(st.booleans()):
        return gc.SimpleGraph(
            n, [e for e in combinations(range(n), 2) if draw(st.booleans())]
        )
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        g = _catalog_piece(draw, m)
    else:
        g = gc.SimpleGraph(m, [e for e in combinations(range(m), 2) if draw(st.booleans())])
    while g.n < n:
        piece = _catalog_piece(draw, draw(st.integers(1, min(5, n - g.n))))
        part = gc.split_partition(piece)
        head = decomp.SplittedGraph(piece, part.independent, part.clique)
        g = decomp.compose_graph(head, g)
    return g


@settings(max_examples=150, deadline=None)
@given(_recomposable(), st.data())
def test_decomposition_recomposes_and_ignores_labels(g, data):
    d = decomp.decompose_graph(g)
    assert gc.are_isomorphic(decomp.recompose_graph(d), g)
    perm = data.draw(st.permutations(range(g.n)))
    e = decomp.decompose_graph(
        gc.SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    )
    assert [decomp.splitted_canonical_form(h) for h in e.heads] == [
        decomp.splitted_canonical_form(h) for h in d.heads
    ]
    assert gc.canonical_form(e.tail) == gc.canonical_form(d.tail)


# === splitted canonical codes ==========================================


def test_splitted_codes_respect_the_partition():
    k2 = gc.complete_graph(2)
    a = decomp.SplittedGraph(k2, frozenset({1}), frozenset({0}))
    b = decomp.SplittedGraph(k2, frozenset({0}), frozenset({1}))
    both_clique = decomp.SplittedGraph(k2, frozenset(), frozenset({0, 1}))
    assert decomp.splitted_canonical_form(a) == decomp.splitted_canonical_form(b)
    assert decomp.splitted_canonical_form(a) != decomp.splitted_canonical_form(
        both_clique
    )


# === slack concatenation ===============================================


def test_eg_concatenation_report_values():
    r = decomp.check_eg_concatenation((7, 7, 3, 3, 3, 3, 2, 1, 1))
    assert r.profile == (1, 0, 2, 2)
    assert r.concatenated == (1, 0, 2, 2)
    assert r.matches

    r = decomp.check_eg_concatenation((3, 2, 2, 1))
    assert r.profile == (0, 0, 0)
    assert r.concatenated == (0, 0, 0)
    assert r.matches


def test_eg_concatenation_exhaustive():
    for n in range(1, 7):
        for d in all_graphic_sequences(n):
            assert decomp.check_eg_concatenation(d).matches, d
