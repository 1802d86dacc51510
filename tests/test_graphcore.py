"""Graph layer: named-example values, format codecs, and oracle checks."""

import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wtgraph
from wtgraph import graphcore as gc
from wtgraph import seqcore
from wtgraph.errors import SizeLimit

from _oracles import (
    FORBIDDEN_FAMILY,
    all_edge_subsets,
    canonical_by_permutation,
    forbidden_witness_by_whole_graph_search,
    induced_subgraph_witness,
    split_partition_by_subsets,
)


def chair():
    # path 0-1-2-3 with an extra pendant 4 on vertex 1
    return gc.path_graph(4).add_vertex([1])


def kite():
    # K4 minus the 0-2 edge, plus pendant 4 on vertex 2
    return gc.SimpleGraph(5, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4)])


def paw():
    # triangle 0,1,2 with pendant 3 on 0
    return gc.SimpleGraph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def test_degree_sequence_examples():
    assert gc.degree_sequence(gc.path_graph(4)) == (2, 2, 1, 1)
    assert gc.degree_sequence(gc.complete_graph(4)) == (3, 3, 3, 3)
    assert gc.degree_sequence(chair()) == (3, 2, 1, 1, 1)
    assert gc.degree_sequence(kite()) == (3, 3, 3, 2, 1)


def test_graph_construction_guards():
    with pytest.raises(ValueError):
        gc.SimpleGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        gc.SimpleGraph(2, [(1, 1)])
    with pytest.raises(SizeLimit):
        gc.SimpleGraph(65)


def test_induced_matches_edge_relabelling():
    """Rows read off the bitmasks give the graph the relabelled edge
    list gives, for any vertex order, and removing vertices keeps the
    rest in increasing order; bad vertex lists raise."""
    rng = random.Random(88)
    for _ in range(200):
        n = rng.randrange(1, 20)
        g = gc.SimpleGraph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        vs = rng.sample(range(n), rng.randrange(1, n + 1))
        pos = {v: i for i, v in enumerate(vs)}
        es = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
        assert g.induced(vs) == gc.SimpleGraph(len(vs), es)
        if len(vs) < n:
            assert g.remove_vertices(vs) == g.induced(sorted(set(range(n)) - set(vs)))
    g = gc.path_graph(4)
    for bad in ([0, 1, 1], [], [0, 4], [-1, 2]):
        with pytest.raises(ValueError):
            g.induced(bad)
    with pytest.raises(ValueError):
        g.remove_vertices(range(4))


def test_complement():
    p4 = gc.path_graph(4)
    assert gc.are_isomorphic(gc.complement(p4), p4)
    assert gc.complement(gc.complete_graph(4)).edge_count() == 0
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 9)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        assert gc.complement(gc.complement(g)) == g


def test_canonical_form_examples():
    p4 = gc.path_graph(4)
    assert gc.canonical_form(p4) == gc.canonical_form(gc.complement(p4))
    c4a = gc.SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4b = gc.SimpleGraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert gc.canonical_form(c4a) == gc.canonical_form(c4b)
    assert gc.canonical_form(chair()) != gc.canonical_form(kite())


def test_canonical_form_respects_relabeling():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(20):
            es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
            g = gc.SimpleGraph(n, es)
            order = list(range(n))
            rng.shuffle(order)
            assert gc.canonical_form(g) == gc.canonical_form(g.induced(order))


def test_canonical_form_agrees_with_permutation_oracle():
    # codes are equal exactly when the all-permutations minima are equal
    rng = random.Random(23)
    pool = []
    for _ in range(40):
        n = rng.randrange(2, 6)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        pool.append(gc.SimpleGraph(n, es))
    for a in pool:
        for b in pool:
            if a.n != b.n:
                continue
            oracle_same = canonical_by_permutation(a.n, a.edges()) == canonical_by_permutation(b.n, b.edges())
            assert (gc.canonical_form(a) == gc.canonical_form(b)) == oracle_same


def test_canonical_size_limit():
    with pytest.raises(SizeLimit):
        gc.canonical_form(gc.empty_graph(17))


def test_canonical_size_bound_is_honest_in_time():
    """Sixteen vertices of twins (complete, empty, threshold) each take
    well under a second, and the ordering attains the code."""
    rng = random.Random(16)
    threshold = gc.SimpleGraph(1)
    for _ in range(15):
        nbrs = range(threshold.n) if rng.random() < 0.5 else ()
        threshold = threshold.add_vertex(nbrs)
    order = list(range(16))
    rng.shuffle(order)
    for g in (gc.complete_graph(16), gc.empty_graph(16), threshold.induced(order)):
        t0 = time.perf_counter()
        code = gc.canonical_form(g)
        assert time.perf_counter() - t0 < 1.0
        assert gc.graph_from_canonical_form(code) == g.induced(gc.canonical_ordering(g))


def test_isomorphism_map():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 8)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        order = list(range(n))
        rng.shuffle(order)
        h = g.induced(order)
        f = gc.isomorphism(g, h)
        assert f is not None
        for u in range(n):
            for v in range(u + 1, n):
                assert g.has_edge(u, v) == h.has_edge(f[u], f[v])


def test_split_partition_examples():
    part = gc.split_partition(paw())
    assert part == gc.SplitPartition(frozenset({3}), frozenset({0, 1, 2}))
    assert gc.split_partition(gc.cycle_graph(4)) is None
    assert gc.split_partition(gc.SimpleGraph(1)) == gc.SplitPartition(frozenset(), frozenset({0}))


def test_split_partition_iff_last_delta_zero():
    for n in range(1, 6):
        for es in all_edge_subsets(n):
            g = gc.SimpleGraph(n, es)
            d = gc.degree_sequence(g)
            prof = seqcore.eg_profile(d)
            present = gc.split_partition(g) is not None
            assert present == (prof.deltas[-1] == 0), (n, sorted(es))


def _random_split_graph(rng, n):
    """Clique on a random side, each independent vertex joined to a
    random part of it or to all of it but one (a boundary tie),
    relabelled at random."""
    k = rng.randrange(n + 1)
    edges = list(combinations(range(k), 2))
    for a in range(k, n):
        if k and rng.random() < 0.4:
            skip = rng.randrange(k)
            edges += [(b, a) for b in range(k) if b != skip]
        else:
            edges += [(b, a) for b in range(k) if rng.random() < 0.5]
    perm = list(range(n))
    rng.shuffle(perm)
    return gc.SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _assert_matches_subset_oracle(g):
    part = gc.split_partition(g)
    oracle = split_partition_by_subsets(g.n, g.edges())
    got = None if part is None else (part.independent, part.clique)
    assert got == oracle, g


def test_split_partition_matches_subset_oracle():
    for n in range(1, 7):
        for es in all_edge_subsets(n):
            _assert_matches_subset_oracle(gc.SimpleGraph(n, es))
    rng = random.Random(61)
    for i in range(2000):
        n = rng.randrange(7, 11)
        if i % 2:
            g = _random_split_graph(rng, n)
        else:
            p = rng.random()
            g = gc.SimpleGraph(n, [e for e in gc.complete_graph(n).edges() if rng.random() < p])
        _assert_matches_subset_oracle(g)


def _circulant(n, k):
    # 2k-regular: i joined to i +- 1..k
    return gc.SimpleGraph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)])


def test_split_partition_size_bound_is_honest_in_time():
    """Dense regular, random and tied split graphs on 64 vertices each
    take well under a second."""
    rng = random.Random(64)
    dense = _circulant(64, 16)
    coin = gc.SimpleGraph(64, [e for e in gc.complete_graph(64).edges() if rng.random() < 0.5])
    split = _random_split_graph(rng, 64)
    for g, is_split in ((dense, False), (coin, False), (split, True)):
        t0 = time.perf_counter()
        part = gc.split_partition(g)
        assert time.perf_counter() - t0 < 1.0
        assert (part is not None) == is_split


@st.composite
def _graphs_7_to_64(draw):
    """Random adjacency rows, or a relabelled split graph whose
    independent vertices often miss one clique vertex (boundary
    ties), so both answers occur."""
    n = draw(st.integers(7, 64))
    if draw(st.booleans()):
        rows = [draw(st.integers(0, (1 << v) - 1)) for v in range(n)]
        return gc.SimpleGraph(n, [(u, v) for v in range(n) for u in range(v) if rows[v] >> u & 1])
    k = draw(st.integers(0, n))
    full = (1 << k) - 1
    near_full = st.sampled_from([full & ~(1 << b) for b in range(k)]) if k else st.just(0)
    edges = list(combinations(range(k), 2))
    for a in range(k, n):
        row = draw(st.integers(0, full) | near_full)
        edges += [(b, a) for b in range(k) if row >> b & 1]
    perm = draw(st.permutations(range(n)))
    return gc.SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(_graphs_7_to_64())
def test_split_partition_property(g):
    d = gc.degree_sequence(g)
    part = gc.split_partition(g)
    assert (part is not None) == seqcore.classify(d).split
    if part is not None:
        assert len(part.clique) == seqcore.corrected_durfee(d)
        assert part.clique | part.independent == set(range(g.n))
        assert all(g.has_edge(u, v) for u, v in combinations(sorted(part.clique), 2))
        assert not any(g.has_edge(u, v) for u, v in combinations(sorted(part.independent), 2))


def test_contains_induced_examples():
    c5 = gc.cycle_graph(5)
    p4 = gc.path_graph(4)
    hit = gc.contains_induced(c5, p4)
    assert hit is not None and len(hit) == 4
    two_k2 = gc.SimpleGraph(4, [(0, 1), (2, 3)])
    assert gc.contains_induced(gc.complete_graph(4), two_k2) is None


def test_h_graph_has_no_induced_two_k2():
    # every disjoint edge pair in the centers-and-pendants graph passes
    # through the adjacent centers, inducing P4 instead
    h = gc._build_h_graph()
    two_k2 = gc.SimpleGraph(4, [(0, 1), (2, 3)])
    assert gc.contains_induced(h, two_k2) is None
    assert induced_subgraph_witness(6, h.edges(), 4, set(two_k2.edges())) is None


def test_contains_induced_matches_oracle():
    rng = random.Random(91)
    patterns = [gc.path_graph(3), gc.SimpleGraph(4, [(0, 1), (2, 3)]), gc.cycle_graph(4)]
    for _ in range(40):
        n = rng.randrange(4, 7)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        for f in patterns:
            mine = gc.contains_induced(g, f)
            oracle = induced_subgraph_witness(n, g.edges(), f.n, set(f.edges()))
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert mine == oracle  # both scan subsets in lex order


def test_forbidden_family_shapes():
    fam = dict(gc.forbidden_family())
    assert len(fam) == 7
    assert gc.degree_sequence(fam["H"]) == (3, 3, 1, 1, 1, 1)
    assert gc.degree_sequence(fam["S3"]) == (3, 3, 3, 1, 1, 1)
    assert gc.are_isomorphic(gc.complement(fam["2K2"]), fam["C4"])
    assert gc.are_isomorphic(fam["H-complement"], gc.complement(fam["H"]))
    # H and S3 are split graphs
    assert gc.split_partition(fam["H"]) is not None
    assert gc.split_partition(fam["S3"]) is not None


def test_is_wt_by_forbidden_examples():
    assert gc.is_wt_by_forbidden(gc.path_graph(4))
    witness = gc.find_forbidden(gc.cycle_graph(5))
    assert witness == gc.ForbiddenWitness("C5", (0, 1, 2, 3, 4))
    assert gc.is_wt_by_forbidden(chair())
    assert not gc.is_wt_by_forbidden(gc.cycle_graph(4))


def test_forbidden_agrees_with_deltas_small():
    # the two recognizers coincide on every labeled graph up to 5 vertices
    for n in range(1, 6):
        for es in all_edge_subsets(n):
            g = gc.SimpleGraph(n, es)
            assert gc.is_wt_by_forbidden(g) == gc.is_wt_by_degrees(g), (n, sorted(es))


def test_split_exactly_when_no_2k2_c4_or_c5():
    """Foldes and Hammer, on every labeled graph through 6 vertices.
    The oracle decides each labeled graph on 4 and 5 vertices; a graph
    holds an induced 2K2, C4 or C5 exactly when one of its 4- or
    5-vertex subsets induces one."""
    small = [(k, set(es)) for _, k, es in FORBIDDEN_FAMILY[:3]]
    found = {}
    for k in (4, 5):
        for es in all_edge_subsets(k):
            found[k, es] = any(
                kf == k and induced_subgraph_witness(k, es, kf, f) is not None
                for kf, f in small
            )
    for n in range(1, 7):
        for es in all_edge_subsets(n):
            hit = False
            for k in (4, 5):
                for subset in combinations(range(n), k):
                    pos = {v: i for i, v in enumerate(subset)}
                    sub = frozenset(
                        (pos[u], pos[v]) for u, v in es if u in pos and v in pos
                    )
                    hit = hit or found[k, sub]
            assert (gc.split_partition(gc.SimpleGraph(n, es)) is None) == hit, (n, sorted(es))


def test_split_members_have_one_split_partition():
    """H, its complement, S3 and its complement each have exactly one
    split partition over all vertex bipartitions, with 2, 4, 3 and 3
    clique vertices; the other three members have none."""
    clique_sizes = {"H": 2, "H-complement": 4, "S3": 3, "S3-complement": 3}
    for name, f in gc.forbidden_family():
        parts = []
        for sides in product((0, 1), repeat=f.n):
            clique = [v for v in range(f.n) if sides[v]]
            indep = [v for v in range(f.n) if not sides[v]]
            if all(f.has_edge(u, v) for u, v in combinations(clique, 2)) and not any(
                f.has_edge(u, v) for u, v in combinations(indep, 2)
            ):
                parts.append(clique)
        if name in clique_sizes:
            assert [len(c) for c in parts] == [clique_sizes[name]], name
            assert frozenset(parts[0]) == gc.split_partition(f).clique
        else:
            assert parts == [], name


def test_find_forbidden_route_check_survives_optimize():
    """With the 2K2, C4 and C5 search disabled, a graph that is not
    split must raise even when python -O strips asserts."""
    code = (
        "from wtgraph import graphcore\n"
        "from wtgraph.errors import InvariantViolation\n"
        "assert not __debug__\n"  # stripped under -O; fails loudly if not
        "graphcore.contains_induced = lambda g, f: None\n"
        "try:\n"
        "    graphcore.find_forbidden(graphcore.cycle_graph(4))\n"
        "except InvariantViolation:\n"
        "    print('raised')\n"
    )
    src = str(Path(wtgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "raised"


# splitted graphs as (order, edges, clique side); the four split members
# with their one partition, P4, and K1 on either side
_HEADS = {
    name: (k, es, frozenset(gc.split_partition(gc.SimpleGraph(k, es)).clique))
    for name, k, es in FORBIDDEN_FAMILY[3:]
}
_HEADS["P4"] = (4, ((0, 1), (1, 2), (2, 3)), frozenset({1, 2}))
_HEADS["K1 clique"] = (1, (), frozenset({0}))
_HEADS["K1 independent"] = (1, (), frozenset())


def _random_split(rng, k):
    c = rng.randrange(k + 1)
    es = list(combinations(range(c), 2))
    es += [(b, a) for a in range(c, k) for b in range(c) if rng.random() < 0.5]
    return k, es, frozenset(range(c))


def _compose(heads, tail):
    """Edges of heads[0] composed onto heads[1] ... composed onto the
    tail (order, edges): each head's clique side is joined to every
    vertex after it."""
    n, edges = tail
    edges = list(edges)
    for k, es, clique in reversed(heads):
        edges = [(u + k, v + k) for u, v in edges] + list(es)
        edges += [(b, w + k) for b in clique for w in range(n)]
        n += k
    return n, edges


def _relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return gc.SimpleGraph(n, [(perm[u], perm[v]) for u, v in edges])


def _composition(rng, lo, hi):
    """A random composition of lo..hi vertices, relabelled: heads drawn
    from ``_HEADS`` and small random split graphs over a tail that is
    K1, G(k, 1/2), a 2K2, C4 or C5, a random split graph or a split
    member."""
    r = rng.random()
    if r < 0.15:
        tail = (1, ())
    elif r < 0.35:
        k = rng.randrange(2, 9)
        tail = (k, [p for p in combinations(range(k), 2) if rng.random() < 0.5])
    elif r < 0.5:
        tail = rng.choice(FORBIDDEN_FAMILY[:3])[1:]
    elif r < 0.75:
        tail = _random_split(rng, rng.randrange(2, 10))[:2]
    else:
        tail = rng.choice(FORBIDDEN_FAMILY[3:])[1:]
    target = rng.randrange(lo, hi + 1)
    heads, n = [], tail[0]
    while n < target:
        head = (
            rng.choice(list(_HEADS.values()))
            if rng.random() < 0.7
            else _random_split(rng, rng.randrange(2, 8))
        )
        if n + head[0] > hi:
            break
        heads.append(head)
        n += head[0]
    return _relabelled(rng, *_compose(heads, tail))


def test_find_forbidden_matches_whole_graph_search_on_compositions():
    """The same member and vertex tuple as a search of every member
    over the whole graph, on 300 relabelled compositions of 7-24
    vertices whose heads include the four split members, so that every
    member is some input's witness."""
    rng = random.Random(4207)
    seen = set()
    for _ in range(300):
        g = _composition(rng, 7, 24)
        w = gc.find_forbidden(g)
        got = None if w is None else (w.family_member, w.vertices)
        assert got == forbidden_witness_by_whole_graph_search(g.n, g.edges()), gc.to_graph6(g)
        seen.add(None if w is None else w.family_member)
    assert seen == {None} | {name for name, _, _ in FORBIDDEN_FAMILY}


def test_find_forbidden_never_consults_the_slack_test(monkeypatch):
    """find_forbidden is the second route to membership, so it answers
    every labeled graph through 5 vertices with the slack test and the
    degree route disabled."""

    def refuse(*args):
        raise AssertionError("slack test consulted")

    monkeypatch.setattr(seqcore, "classify", refuse)
    monkeypatch.setattr(seqcore, "eg_profile", refuse)
    monkeypatch.setattr(gc, "is_wt_by_degrees", refuse)
    for n in range(1, 6):
        for es in all_edge_subsets(n):
            w = gc.find_forbidden(gc.SimpleGraph(n, es))
            got = None if w is None else (w.family_member, w.vertices)
            assert got == forbidden_witness_by_whole_graph_search(n, es), (n, sorted(es))


@pytest.mark.parametrize("tail, heads", [("H", 58), ("C5", 59)])
def test_find_forbidden_under_singleton_heads_is_fast(tail, heads):
    """A 64-vertex non-member whose only obstruction is its tail, under
    isolated and dominating vertices: the split branch (H) and the
    worst case of the other branch (C5, where the 2K2 and C4 searches
    cover the whole graph) each answer in under a second."""
    rng = random.Random(64)
    _, k, es = next(m for m in FORBIDDEN_FAMILY if m[0] == tail)
    singles = [_HEADS[rng.choice(["K1 clique", "K1 independent"])] for _ in range(heads)]
    g = _relabelled(rng, *_compose(singles, (k, es)))
    assert g.n == 64
    t0 = time.perf_counter()
    w = gc.find_forbidden(g)
    assert time.perf_counter() - t0 < 1.0
    assert w.family_member == tail
    member = dict(gc.forbidden_family())[tail]
    assert gc.are_isomorphic(g.induced(w.vertices), member)


def test_twins_and_clones():
    assert gc.twins_and_clones(chair()) == [(0, 4), (1,), (2,), (3,)]
    assert gc.twins_and_clones(gc.complete_graph(3)) == [(0, 1, 2)]
    assert gc.twins_and_clones(gc.path_graph(4)) == [(0,), (1,), (2,), (3,)]


def test_edge_list_text_round_trip():
    p4 = gc.path_graph(4)
    assert gc.format_edge_list(p4) == "n=4;edges=0-1,1-2,2-3"
    assert gc.parse_edge_list("n=4;edges=0-1,1-2,2-3") == p4
    assert gc.parse_edge_list("n=1;edges=") == gc.SimpleGraph(1)
    for bad in ["", "n=3", "edges=0-1", "n=2;edges=0-2", "n=x;edges=", "n=3;edges=0:1"]:
        with pytest.raises(ValueError):
            gc.parse_edge_list(bad)


def test_graph6_known_values():
    assert gc.to_graph6(gc.complete_graph(4)) == "C~"
    assert gc.to_graph6(gc.path_graph(4)) == "Ch"
    assert gc.from_graph6("C~") == gc.complete_graph(4)
    assert gc.from_graph6("Ch") == gc.path_graph(4)


def test_graph6_round_trip():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(1, 10)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        assert gc.from_graph6(gc.to_graph6(g)) == g


def test_graph6_rejects_malformed():
    for bad in ["", "C", "C~~", "Ch\x01"]:
        with pytest.raises(ValueError):
            gc.from_graph6(bad)
