"""Acceptance gate: seven criteria, one test (= one pass/fail line) each.

Run with -v to get the per-criterion verdict lines; the prints inside
each test carry timings and counts for -rA output.  The decomposition
sub-check of criterion 5 walks every labeled graph through n = 7 and
dominates the runtime of the whole file (several minutes, one core).
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from _oracles import realizations

from wtgraph import buildkit, census, decomp, exhaustive, majorize, seqcore
from wtgraph import graphcore as gc

S_VALUES = {1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 50, 7: 120, 8: 289}
W_VALUES = {1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 52, 7: 134}
LABELED_WT = {1: 1, 2: 2, 3: 8, 4: 58, 5: 632, 6: 9234, 7: 161324}


def catalog(n):
    return [gc.graph_from_canonical_form(c) for c in buildkit.enumerate_wt_graphs(n)]


def all_graphic(n):
    for total in range(0, n * (n - 1) + 1, 2):
        yield from majorize.graphic_sequences(n, total)


def all_labeled(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield gc.SimpleGraph(n, edges)


def permuted(g, perm):
    return gc.SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def component_signature(g):
    # ordered component list; stronger than the multiset statement
    dec = decomp.decompose_graph(g)
    heads = tuple(decomp.splitted_canonical_form(h) for h in dec.heads)
    return heads, gc.canonical_form(dec.tail)


def test_criterion_1_count_identities():
    t0 = time.perf_counter()
    s_series = census.series_coefficients(census.wt_sequence_series(), 8)
    w_series = census.series_coefficients(census.wt_graph_series(), 7)
    for n in range(1, 9):
        found = len(buildkit.enumerate_wt_sequences(n))
        assert found == S_VALUES[n] == s_series[n], f"s_{n}"
    for n in range(1, 8):
        found = len(buildkit.enumerate_wt_graphs(n))
        assert found == W_VALUES[n] == w_series[n], f"w_{n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"count identities took {elapsed:.1f}s"
    print(f"criterion 1: PASS (s_1..8 and w_1..7 exact, {elapsed:.1f}s)")


def test_criterion_2_indecomposable_anchors():
    assert census.count_indecomposable_sequences(4) == 1
    for n in range(4, 13):
        assert census.count_indecomposable_sequences(n) == 2 ** (n - 4)
    assert [census.count_indecomposable_graphs(n) for n in (4, 5, 6)] == [1, 2, 6]
    assert census.count_indecomposable_graphs(7) == 3 * 6 - 2 == 16
    a, b = 2, 6
    for n in range(7, 13):
        a, b = b, 3 * b - a
        assert census.count_indecomposable_graphs(n) == b, f"h_{n}"
    for n in range(4, 8):
        seqs = [
            d
            for d in buildkit.enumerate_wt_sequences(n)
            if decomp.decompose_sequence(d).heads == ()
        ]
        assert len(seqs) == 2 ** (n - 4), f"indecomposable sequences at n={n}"
        graphs = [g for g in catalog(n) if decomp.is_indecomposable_graph(g)]
        assert len(graphs) == census.count_indecomposable_graphs(n), f"n={n}"
    print("criterion 2: PASS (g_n = 2^(n-4), h recurrence, exhaustive n <= 7)")


def test_criterion_3_threshold_baseline():
    for n in range(1, 8):
        found = sum(
            1 for g in catalog(n) if seqcore.classify(g.degrees()).threshold
        )
        assert found == 2 ** (n - 1), f"threshold count at n={n}"
    checked = 0
    for n in range(1, 7):
        for d in buildkit.enumerate_wt_sequences(n):
            if any(seqcore.eg_profile(d).deltas):
                continue
            forms = {gc.canonical_form(gc.SimpleGraph(n, e)) for e in realizations(d)}
            assert len(forms) == 1, f"threshold sequence {d} not rigid"
            checked += 1
    print(f"criterion 3: PASS (2^(n-1) counts n<=7, {checked} rigid sequences n<=6)")


def test_criterion_4_three_way_equivalence():
    for n in range(1, 7):
        r = exhaustive.scan_all(n)
        assert r.total == 1 << (n * (n - 1) // 2)
        assert r.consistent, f"n={n}: {r.first_disagreement}"
        assert r.wt_count == LABELED_WT[n]
        assert r.sequences == frozenset(buildkit.enumerate_wt_sequences(n))
    t0 = time.perf_counter()
    r = exhaustive.scan_all(7)
    elapsed = time.perf_counter() - t0
    assert r.total == 2097152
    assert r.disagreements == 0 and r.complement_mismatches == 0
    assert r.wt_count == LABELED_WT[7]
    assert r.sequences == frozenset(buildkit.enumerate_wt_sequences(7))
    assert elapsed <= 600.0, f"n=7 scan took {elapsed:.0f}s"
    print(
        "criterion 4: PASS (zero disagreements through n=7, "
        f"n=7 in {elapsed:.1f}s)"
    )


def test_criterion_5_structure_suite():
    failures = []

    def check(ok, label):
        if ok:
            print(f"criterion 5: {label} ok")
        else:
            failures.append(label)
            print(f"criterion 5: {label} FAILED")

    # slack equals below-diagonal minus right-of-diagonal, n <= 7
    ok = True
    for n in range(1, 8):
        for d in all_graphic(n):
            f = seqcore.ferrers(d)
            prof = seqcore.eg_profile(d)
            for k in range(1, prof.m + 1):
                lhs = prof.deltas[k - 1]
                if lhs != f.below_diagonal_count(k) - f.right_of_diagonal_count(k):
                    ok = False
    check(ok, "diagram identity (n<=7)")

    ok = all(
        seqcore.eg_profile(d).deltas[-1] % 2 == 0
        for n in range(1, 9)
        for d in all_graphic(n)
    )
    check(ok, "slack parity at the corner (n<=8)")

    ok = True
    for n in range(1, 8):
        for d in all_graphic(n):
            c = seqcore.classify(d)
            if c.weakly_threshold and not c.split:
                ok = False
        for g in catalog(n):
            if gc.split_partition(g) is None:
                ok = False
    check(ok, "class implies split (n<=7)")

    ok = True
    for n in range(1, 8):
        codes = set(buildkit.enumerate_wt_graphs(n))
        for g in catalog(n):
            if gc.canonical_form(gc.complement(g)) not in codes:
                ok = False
        seqs = set(buildkit.enumerate_wt_sequences(n))
        for d in seqs:
            comp = tuple(sorted((n - 1 - x for x in d), reverse=True))
            if comp not in seqs:
                ok = False
    check(ok, "complement closure (n<=7)")

    ok = True
    for n in range(1, 8):
        for total in range(0, n * (n - 1) + 1, 2):
            if majorize.verify_upward_closure(n, total).counterexamples:
                ok = False
    check(ok, "majorization upward closure (n<=7)")

    ok = all(
        seqcore.classify(d).threshold == majorize.is_majorization_maximal(d)
        for n in range(1, 8)
        for d in all_graphic(n)
    )
    check(ok, "threshold iff majorization-maximal (n<=7)")

    ok = True
    done = 0
    for n in range(1, 8):
        for g in all_labeled(n):
            r = decomp.recompose_graph(decomp.decompose_graph(g))
            if r.n != g.n:
                ok = False
            elif set(r.edges()) != set(g.edges()) and not gc.are_isomorphic(g, r):
                ok = False
            done += 1
            if done % 262144 == 0:
                print(f"criterion 5: decomposition round trip {done} graphs", flush=True)
    check(ok, f"decomposition round trip ({done} labeled graphs, n<=7)")

    rng = random.Random(7)
    ok = True
    jobs = []
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        jobs.extend((g, perms) for g in all_labeled(n))
    fives = list(itertools.permutations(range(5)))
    for g in all_labeled(5):
        jobs.append((g, rng.sample(fives, 12)))
    pairs6 = list(itertools.combinations(range(6), 2))
    for _ in range(1500):
        mask = rng.randrange(1 << 15)
        g = gc.SimpleGraph(6, [pairs6[i] for i in range(15) if mask >> i & 1])
        jobs.append((g, [rng.sample(range(6), 6) for _ in range(5)]))
    for g in catalog(6):
        jobs.append((g, [rng.sample(range(6), 6) for _ in range(30)]))
    pairs7 = list(itertools.combinations(range(7), 2))
    for _ in range(600):
        mask = rng.randrange(1 << 21)
        g = gc.SimpleGraph(7, [pairs7[i] for i in range(21) if mask >> i & 1])
        jobs.append((g, [rng.sample(range(7), 7) for _ in range(3)]))
    for g in catalog(7):
        jobs.append((g, [rng.sample(range(7), 7) for _ in range(20)]))
    for g, perms in jobs:
        want = component_signature(g)
        for perm in perms:
            if component_signature(permuted(g, perm)) != want:
                ok = False
    check(ok, f"relabeling invariance ({len(jobs)} graphs, n<=7)")

    ok = all(
        decomp.check_eg_concatenation(d).matches
        for n in range(1, 9)
        for d in all_graphic(n)
    )
    check(ok, "slack concatenation (n<=8)")

    assert not failures, f"structure suite: {failures}"
    print("criterion 5: PASS (all eight properties, zero counterexamples)")


def test_criterion_6_asymptotics():
    low_s = Fraction(12, 5)
    low_w = Fraction(27, 10)
    for n in range(10, 41):
        assert census.count_wt_sequences(n) >= low_s**n / 4, f"s_{n} bound"
        assert census.count_wt_graphs(n) >= low_w**n / 100, f"w_{n} bound"
    target = Fraction(241421, 100000)
    for n in range(20, 41):
        ratio = Fraction(census.count_wt_sequences(n), census.count_wt_sequences(n - 1))
        assert abs(ratio - target) <= Fraction(1, 10**4), f"ratio at n={n}"
    print("criterion 6: PASS (growth bounds 10..40 exact, ratio within 1e-4 from n=20)")


def test_criterion_7_fixture_agreement():
    path = Path(__file__).parent / "data" / "a024537.txt"
    table = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, v = line.split()
        table[int(k)] = int(v)
    for n in range(1, 13):
        assert census.count_wt_sequences(n) == table[n], f"s_{n} vs fixture"
    print("criterion 7: PASS (s_1..12 equal the vendored fixture)")
