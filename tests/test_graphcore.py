"""Graph layer: named-example values, format codecs, and oracle checks."""

import random
import time

import pytest

from wtgraph import graphcore as gc
from wtgraph import seqcore
from wtgraph.errors import NotPrime, SizeLimit

from _oracles import (
    all_edge_subsets,
    canonical_by_permutation,
    induced_subgraph_witness,
    maximal_proper_modules as oracle_modules,
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


def test_split_partition_clique_size_is_durfee():
    for n in range(1, 6):
        for es in all_edge_subsets(n):
            g = gc.SimpleGraph(n, es)
            part = gc.split_partition(g)
            if part is None:
                continue
            m = seqcore.corrected_durfee(gc.degree_sequence(g))
            assert len(part.clique) == m


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


def test_modules_examples():
    assert gc.maximal_proper_modules(chair()) == [(0, 4), (1,), (2,), (3,)]
    assert gc.maximal_proper_modules(gc.path_graph(4)) == [(0,), (1,), (2,), (3,)]
    assert gc.maximal_proper_modules(kite()) == [(0,), (1, 3), (2,), (4,)]


def test_modules_require_connectivity():
    with pytest.raises(NotPrime):
        gc.maximal_proper_modules(gc.SimpleGraph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotPrime):
        gc.maximal_proper_modules(gc.complete_graph(4))


def test_modules_match_oracle():
    rng = random.Random(3)
    done = 0
    while done < 25:
        n = rng.randrange(4, 7)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        if not gc.is_connected(g) or not gc.is_connected(gc.complement(g)):
            continue
        mine = gc.maximal_proper_modules(g)
        oracle = sorted(tuple(sorted(m)) for m in oracle_modules(n, g.edges()))
        assert mine == oracle
        done += 1


def test_modules_pairwise_disjoint():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randrange(4, 8)
        es = [e for e in gc.complete_graph(n).edges() if rng.random() < 0.5]
        g = gc.SimpleGraph(n, es)
        if not gc.is_connected(g) or not gc.is_connected(gc.complement(g)):
            continue
        mods = gc.maximal_proper_modules(g)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                assert not set(mods[i]) & set(mods[j])
        done += 1


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
