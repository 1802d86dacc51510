"""Tests of the benchmark's own references and query stream.

They run without wtgraph.  Planted wrong answers must be rejected.

    python3 -m pytest perfbench/test_reference.py
"""

import json
import random
from itertools import combinations
from pathlib import Path

import networkx as nx

import reference as ref
import run

# published counts: A024537 for sequences, the paper's tables for the rest
S_VALUES = [1, 2, 4, 9, 21, 50, 120, 289]
W_VALUES = [1, 2, 4, 9, 21, 52, 134]
LABELLED_WT = [1, 2, 8, 58, 632, 9234]


def havel_hakimi(d) -> bool:
    work = sorted(d, reverse=True)
    while work and work[0] > 0:
        first = work.pop(0)
        if first > len(work):
            return False
        for i in range(first):
            work[i] -= 1
        if min(work) < 0:
            return False
        work.sort(reverse=True)
    return True


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if mask >> i & 1]


def wt_catalog(n):
    """One representative per isomorphism class of WT graphs, by brute
    force over every labelled graph."""
    reps = []
    for edges in all_graphs(n):
        if ref.is_wt_graph(n, edges) and not any(ref.isomorphic((n, edges), r) for r in reps):
            reps.append((n, edges))
    return reps


def test_slack_test_values():
    assert ref.slack_profile((3, 3, 2, 1, 1)) == [1, 0, 0]
    assert ref.is_wt_sequence((3, 3, 2, 1, 1))
    assert not ref.is_wt_sequence((2, 2, 2, 2))  # C4
    assert not ref.is_wt_sequence((1, 1, 1, 1))  # 2K2
    assert not ref.is_wt_sequence((1, 1, 1))  # odd sum
    assert not ref.is_wt_sequence((3, 1, 0))  # not graphic


def test_slack_graphicality_matches_havel_hakimi():
    for n in range(1, 8):
        for d in ref._nonincreasing(n, n - 1):
            graphic = sum(d) % 2 == 0 and all(x >= 0 for x in ref.slack_profile(d))
            assert graphic == havel_hakimi(d), d


def test_recurrences_match_brute_force_and_published_counts():
    assert [ref.s_count(n) for n in range(1, 9)] == S_VALUES
    assert [len(ref.wt_sequences(n)) for n in range(1, 9)] == S_VALUES
    assert [ref.w_count(n) for n in range(1, 8)] == W_VALUES
    assert [len(wt_catalog(n)) for n in range(1, 5)] == W_VALUES[:4]


def test_labelled_counts():
    assert [ref.labelled_wt_counts(n)[1] for n in range(1, 7)] == LABELLED_WT
    for n in range(1, 6):
        slow = sum(ref.is_wt_graph(n, e) for e in all_graphs(n))
        assert ref.labelled_wt_counts(n) == (2 ** (n * (n - 1) // 2), slow)


def test_forbidden_graphs_are_minimal_non_members():
    for name, g in ref.forbidden_graphs().items():
        n = g.number_of_nodes()
        assert not ref.is_wt_graph(n, list(g.edges())), name
        for v in g:
            h = nx.convert_node_labels_to_integers(g.subgraph(set(g) - {v}))
            assert ref.is_wt_graph(n - 1, list(h.edges())), name


def test_forbidden_characterisation_on_small_graphs():
    family = ref.forbidden_graphs().values()
    for n in (4, 5):
        for edges in all_graphs(n):
            g = ref.to_nx(n, edges)
            hit = any(
                nx.is_isomorphic(g.subgraph(vs), f)
                for f in family
                if f.number_of_nodes() <= n
                for vs in combinations(range(n), f.number_of_nodes())
            )
            assert hit != ref.is_wt_graph(n, edges), edges


def test_graph6_decoding():
    rng = random.Random(3)
    for n in (1, 2, 5, 9, 13):
        g = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(1000))
        text = nx.to_graph6_bytes(g, header=False).decode().strip()
        assert ref.isomorphic(ref.from_graph6(text), (n, list(g.edges())))
        assert sorted(ref.from_graph6(text)[1]) == sorted(tuple(sorted(e)) for e in g.edges())


def test_replay_checks_preconditions():
    assert ref.replay_script("seed=K1;ops=I,D,WI(2)") == (4, [(0, 2), (1, 2), (2, 3)])
    assert ref.replay_script("seed=P4;ops=") == (4, [(0, 1), (1, 2), (2, 3)])
    for bad in ("seed=K1;ops=I,D,WI(0)", "seed=P4;ops=SP4,WD(0)", "seed=K2;ops="):
        try:
            ref.replay_script(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad} replayed")


def test_recognition_checks():
    star = (4, [(0, 2), (1, 2), (2, 3)])
    assert ref.check_recognition(star, {"script": "seed=K1;ops=I,D,WI(2)", "witness": None}) == []
    assert ref.check_recognition(star, {"script": "seed=P4;ops=", "witness": None})
    c4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert ref.check_recognition(c4, {"script": None, "witness": {"name": "C4", "vertices": [0, 1, 2, 3]}}) == []
    # planted: the vertices induce C4, not the named 2K2
    assert ref.check_recognition(c4, {"script": None, "witness": {"name": "2K2", "vertices": [0, 1, 2, 3]}})
    assert ref.check_recognition(c4, {"script": "seed=P4;ops=", "witness": None})


def test_decomposition_checks():
    # a dominating vertex composed onto P4
    graph = (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    tail = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    seq = {"heads": [[[0], []]], "tail": [2, 2, 1, 1]}
    good = {"heads": [{"n": 1, "edges": [], "independent": [], "clique": [0]}], "tail": tail}
    assert ref.check_decomposition(graph, good, seq) == []
    # planted: the same vertex on the independent side recomposes to P4 + K1
    bad = {"heads": [{"n": 1, "edges": [], "independent": [0], "clique": []}], "tail": tail}
    assert ref.check_decomposition(graph, bad, seq)
    # planted: a head whose clique side misses an edge
    broken = {"heads": [{"n": 2, "edges": [], "independent": [], "clique": [0, 1]}], "tail": tail}
    assert ref.check_decomposition(graph, broken, seq)
    assert ref.check_decomposition(graph, good, {"heads": [], "tail": [4, 3, 3, 2, 2]})


def test_catalog_checks():
    n = 5
    catalog = wt_catalog(n)
    assert ref.check_graph_catalog(n, catalog) == []
    # planted: one graph missing
    assert ref.check_graph_catalog(n, catalog[1:])
    # planted: a relabelled copy of one graph in place of another
    m, edges = catalog[3]
    copy = (m, [(m - 1 - u, m - 1 - v) for u, v in edges])
    assert ref.check_graph_catalog(n, catalog[:-1] + [copy])
    seqs = sorted(ref.wt_sequences(n))
    assert ref.check_sequence_catalog(n, seqs) == []
    assert ref.check_sequence_catalog(n, seqs[1:])
    assert ref.check_sequence_catalog(n, seqs + seqs[:1])


def test_query_stream():
    stream = run.queries_stream(7)
    assert stream == run.queries_stream(7) != run.queries_stream(8)
    assert len(stream) == (2 * run.WT_PER_ORDER + run.RANDOM_PER_ORDER) * len(run.QUERY_ORDERS) == 216
    for q in stream:
        edges = [tuple(e) for e in q["edges"]]
        if q["n"] <= run.ROUTES_MAX:
            assert q["mask"] == sum(1 << (v * (v - 1) // 2 + u) for u, v in edges)
        else:
            assert q["mask"] is None
        if q["kind"] == "wt":
            assert ref.is_wt_graph(q["n"], edges)
        if q["kind"] == "near":
            assert not ref.is_wt_graph(q["n"], edges)


def test_metric_names_match_benchmark_file():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    timing = {"setup_s": [0.1, 0.2], "latencies": [[0.4, 0.5], [0.6, 0.3]], "peak_rss_mb": 20.0}
    assert sorted(run.end_to_end(timing)) == sorted(m["name"] for m in spec["end_to_end"])
    traced = {"traces": [], "split": None, "import_s": [0.05], "overhead_s": 0.0}
    assert sorted(run.per_layer(traced)[0]) == sorted(m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_failed_operations_are_not_timed():
    # the second operation's fast round failed (None): its other round counts
    timing = {"setup_s": [0.3, 0.1, 0.2], "latencies": [[0.4, 0.5], [None, 0.6]], "peak_rss_mb": 20.0}
    metrics = run.end_to_end(timing)
    assert metrics["setup_s"][0] == 0.1
    assert metrics["op_p95_ms"][0] == 600.0
    assert metrics["ops_per_s"][0] == 2.0  # two operations in 0.4 s + 0.6 s
