import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import (
    all_edge_subsets,
    all_graphic_sequences,
    induced_subgraph_witness,
    realizations,
)
import wtgraph
from wtgraph import buildkit as bk, decomp, graphcore as gc, seqcore
from wtgraph.errors import (
    InvalidOperation,
    NotWeaklyThreshold,
    SizeLimit,
)


def paw():
    return gc.SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def kite():
    return bk.apply_op(gc.path_graph(4), bk.weakly_dominating(3))


def chair():
    return bk.apply_op(gc.path_graph(4), bk.weakly_isolated(1))


def sp4_on_k1():
    return bk.apply_op(gc.SimpleGraph(1, []), bk.semijoined_p4())


def wt_catalog(n):
    return [gc.graph_from_canonical_form(c) for c in bk.enumerate_wt_graphs(n)]


# === ops ===============================================================


def test_op_construction_guards():
    with pytest.raises(ValueError):
        bk.BuildOp("WD")
    with pytest.raises(ValueError):
        bk.BuildOp("D", 0)
    with pytest.raises(ValueError):
        bk.BuildOp("X")
    with pytest.raises(ValueError):
        bk.BuildScript("K2")


def test_apply_op_values():
    assert bk.apply_op(gc.SimpleGraph(1, []), bk.dominating()) == gc.complete_graph(2)
    g = sp4_on_k1()
    assert seqcore.normalize(g.degrees()) == (3, 3, 2, 1, 1)
    head = decomp.splitted_graph_from_terms(decomp.parse_splitted("2,2;1,1"))
    assert gc.are_isomorphic(g, decomp.compose_graph(head, gc.SimpleGraph(1, [])))
    assert seqcore.normalize(kite().degrees()) == (3, 3, 3, 2, 1)
    assert seqcore.normalize(chair().degrees()) == (3, 2, 1, 1, 1)


def test_apply_op_rejects_bad_targets():
    p4 = gc.path_graph(4)
    # midpoint degree 2 is not minimum
    with pytest.raises(InvalidOperation):
        bk.apply_op(p4, bk.weakly_dominating(1))
    # endpoint degree 1 is not maximum
    with pytest.raises(InvalidOperation):
        bk.apply_op(p4, bk.weakly_isolated(0))
    with pytest.raises(InvalidOperation):
        bk.apply_op(p4, bk.weakly_isolated(9))


def test_run_script_values():
    assert bk.run_script(bk.BuildScript("P4")) == gc.path_graph(4)
    assert bk.run_script(bk.BuildScript("K1")).n == 1
    built = bk.run_script(
        bk.BuildScript("K1", (bk.dominating(), bk.isolated(), bk.dominating()))
    )
    assert gc.are_isomorphic(built, paw())


def test_run_script_reports_op_index():
    script = bk.BuildScript("K1", (bk.dominating(), bk.weakly_dominating(5)))
    with pytest.raises(InvalidOperation, match="op 1"):
        bk.run_script(script)


def test_script_text_round_trip():
    for text in [
        "seed=P4;ops=",
        "seed=K1;ops=D,I,D",
        "seed=P4;ops=WI(1),WD(3),SP4",
    ]:
        assert bk.format_script(bk.parse_script(text)) == text


def test_parse_script_rejects_malformed():
    for text in ["", "ops=D", "seed=K3;ops=", "seed=K1;ops=Q", "seed=K1;ops=WD"]:
        with pytest.raises(ValueError):
            bk.parse_script(text)


# === peeling ===========================================================


def test_peel_cases():
    assert bk.peel(paw()).case == "b"
    assert bk.peel(paw()).removed == (2,)
    assert bk.peel(chair()) == bk.PeelStep("c", (0,))
    assert bk.peel(kite()).case == "d"
    assert bk.peel(sp4_on_k1()) == bk.PeelStep("e", (1, 2, 3, 4))
    assert bk.peel(gc.path_graph(4)).case == "e"
    iso = bk.apply_op(gc.complete_graph(3), bk.isolated())
    assert bk.peel(iso) == bk.PeelStep("a", (3,))


def test_peel_rejects_non_wt():
    with pytest.raises(NotWeaklyThreshold):
        bk.peel(gc.cycle_graph(4))
    with pytest.raises(NotWeaklyThreshold):
        bk.peel(gc.SimpleGraph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        bk.peel(gc.SimpleGraph(1, []))


def test_peel_step_leaves_wt():
    """Removing the peeled vertices keeps the graph in the class, and
    case e only fires alongside a vanishing second slack."""
    for n in range(2, 7):
        for g in wt_catalog(n):
            step = bk.peel(g)
            if step.case == "e":
                d = seqcore.normalize(g.degrees())
                assert seqcore.eg_difference(d, 2) == 0
            if len(step.removed) < n:
                rest = g.remove_vertices(step.removed)
                assert gc.is_wt_by_degrees(rest), (n, g.edges(), step)


# === recognition =======================================================


def test_recognize_values():
    script = bk.recognize(gc.path_graph(4))
    assert script == bk.BuildScript("P4")
    out = bk.recognize(gc.cycle_graph(4))
    assert isinstance(out, gc.ForbiddenWitness)
    assert out.family_member == "C4"
    script = bk.recognize(kite())
    assert script.seed == "P4"
    assert len(script.ops) == 1
    assert script.ops[0].kind == bk.OP_WEAKLY_DOMINATING


def test_recognize_all_small_graphs():
    """Script exactly when the degree and forbidden routes agree the
    graph is WT, and the script rebuilds the graph up to isomorphism."""
    for n in range(1, 6):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            out = bk.recognize(g)
            got_script = isinstance(out, bk.BuildScript)
            assert got_script == gc.is_wt_by_degrees(g)
            assert got_script == gc.is_wt_by_forbidden(g)
            if got_script:
                assert gc.are_isomorphic(bk.run_script(out), g)


def test_recognize_matches_slack_test_and_witness_oracle():
    """Script exactly when the slack test says WT; otherwise the witness
    is the first oracle hit in family order, on every labeled graph
    through 6 vertices."""
    family = [(name, f.n, set(f.edges())) for name, f in gc.forbidden_family()]
    for n in range(1, 7):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            out = bk.recognize(g)
            if seqcore.classify(gc.degree_sequence(g)).weakly_threshold:
                assert isinstance(out, bk.BuildScript), (n, sorted(edges))
                continue
            expected = next(
                (name, hit)
                for name, k, f_edges in family
                if k <= n
                for hit in [induced_subgraph_witness(n, edges, k, f_edges)]
                if hit is not None
            )
            assert (out.family_member, out.vertices) == expected, (n, sorted(edges))


def test_recognize_route_check_survives_optimize():
    """With the witness search disabled, a rejected graph must raise
    even when python -O strips asserts."""
    code = (
        "from wtgraph import buildkit, graphcore\n"
        "from wtgraph.errors import InvariantViolation\n"
        "assert not __debug__\n"  # stripped under -O; fails loudly if not
        "graphcore.find_forbidden = lambda g: None\n"
        "try:\n"
        "    buildkit.recognize(graphcore.cycle_graph(4))\n"
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


# === realization =======================================================


def test_realize_values():
    assert gc.are_isomorphic(bk.realize((2, 2, 1, 1)), gc.path_graph(4))
    assert gc.are_isomorphic(bk.realize((3, 2, 2, 1)), paw())
    assert gc.are_isomorphic(bk.realize((3, 3, 2, 1, 1)), sp4_on_k1())
    assert bk.realize((0,)).n == 1


def test_realize_rejects_non_wt():
    with pytest.raises(NotWeaklyThreshold):
        bk.realize((1, 1, 1, 1))
    with pytest.raises(NotWeaklyThreshold):
        bk.realize((1, 1, 1))


def test_realize_degree_match():
    for n in range(1, 8):
        for d in all_graphic_sequences(n):
            if not all(x <= 1 for x in seqcore.eg_profile(d).deltas):
                continue
            assert seqcore.normalize(bk.realize(d).degrees()) == d


def test_threshold_sequences_have_one_realization():
    for n in range(1, 6):
        for d in all_graphic_sequences(n):
            if any(x != 0 for x in seqcore.eg_profile(d).deltas):
                continue
            forms = {
                gc.canonical_form(gc.SimpleGraph(n, e)) for e in realizations(d)
            }
            assert len(forms) == 1, d
            assert gc.canonical_form(bk.realize(d)) in forms


# === exhaustive generation =============================================


def test_wt_graph_counts():
    assert [len(bk.enumerate_wt_graphs(n)) for n in range(1, 8)] == [
        1,
        2,
        4,
        9,
        21,
        52,
        134,
    ]


def test_wt_sequence_counts():
    assert [len(bk.enumerate_wt_sequences(n)) for n in range(1, 8)] == [
        1,
        2,
        4,
        9,
        21,
        50,
        120,
    ]


def test_wt_sequences_n4():
    assert bk.enumerate_wt_sequences(4) == {
        (0, 0, 0, 0),
        (1, 1, 0, 0),
        (2, 1, 1, 0),
        (2, 2, 1, 1),
        (2, 2, 2, 0),
        (3, 1, 1, 1),
        (3, 2, 2, 1),
        (3, 3, 2, 2),
        (3, 3, 3, 3),
    }


def test_enumeration_bounds():
    with pytest.raises(SizeLimit):
        bk.enumerate_wt_graphs(17)
    with pytest.raises(SizeLimit):
        bk.enumerate_wt_sequences(11)
    with pytest.raises(ValueError):
        bk.enumerate_wt_graphs(0)


def test_catalog_agrees_with_sequences():
    # every catalog graph's sequence is enumerated, and every sequence
    # has a catalog realization
    for n in range(1, 7):
        seqs = {seqcore.normalize(g.degrees()) for g in wt_catalog(n)}
        assert seqs == bk.enumerate_wt_sequences(n)


def test_catalog_persists_between_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("WT_CATALOG_DIR", str(tmp_path))
    first = bk.enumerate_wt_graphs(5)
    stored = sorted(p.name for p in tmp_path.iterdir())
    assert stored == [f"level_{k}.txt" for k in range(1, 6)]
    for line in (tmp_path / "level_5.txt").read_text().splitlines():
        order, hexcode, seq = line.split(" ")
        assert order == "5"
        g = gc.graph_from_canonical_form(bytes.fromhex(hexcode))
        assert seqcore.format_sequence(seqcore.normalize(g.degrees())) == seq
    assert bk.enumerate_wt_graphs(5) == first
    # a corrupt level is recomputed, not trusted
    (tmp_path / "level_3.txt").write_text("garbage\n")
    assert bk.enumerate_wt_graphs(5) == first
    # so is a level missing a line, or with one swapped for a non-member
    level_4 = tmp_path / "level_4.txt"
    good = level_4.read_text().splitlines()
    c4 = gc.canonical_form(gc.cycle_graph(4))
    for lines in (good[1:], good[1:] + [f"4 {c4.hex()} 2,2,2,2"]):
        level_4.write_text("".join(line + "\n" for line in lines))
        assert len(bk.enumerate_wt_graphs(4)) == 9
        assert bk.enumerate_wt_graphs(5) == first
        assert level_4.read_text().splitlines() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == stored


def test_type1_only_closure_counts():
    """Dominating/isolated additions alone generate the 2^(n-1)
    threshold graphs."""
    level = {gc.canonical_form(bk.seed_graph("K1"))}
    for n in range(2, 8):
        nxt = set()
        for code in level:
            g = gc.graph_from_canonical_form(code)
            nxt.add(gc.canonical_form(bk.apply_op(g, bk.dominating())))
            nxt.add(gc.canonical_form(bk.apply_op(g, bk.isolated())))
        level = nxt
        assert len(level) == 2 ** (n - 1)


def test_type2_only_closure_is_indecomposable():
    level = {gc.canonical_form(bk.seed_graph("P4"))}
    for n in range(4, 8):
        indecomposable = {
            c
            for c in bk.enumerate_wt_graphs(n)
            if decomp.is_indecomposable_graph(gc.graph_from_canonical_form(c))
        }
        assert level == indecomposable, n
        nxt = set()
        for code in level:
            g = gc.graph_from_canonical_form(code)
            degs = g.degrees()
            for v in range(g.n):
                if degs[v] == min(degs):
                    nxt.add(gc.canonical_form(bk.apply_op(g, bk.weakly_dominating(v))))
                if degs[v] == max(degs):
                    nxt.add(gc.canonical_form(bk.apply_op(g, bk.weakly_isolated(v))))
        level = nxt


# === script normalization ==============================================


def placement_holds(ops):
    for i, a in enumerate(ops):
        if a.kind not in bk.TYPE1:
            continue
        for j in range(i + 1, len(ops)):
            if ops[j].kind in bk.TYPE2 and not any(
                ops[k].kind == bk.OP_SEMIJOINED_P4 for k in range(i + 1, j)
            ):
                return False
    return True


def test_normalize_script_examples():
    s = bk.BuildScript("K1", (bk.isolated(), bk.weakly_isolated(0)))
    t = bk.normalize_script(s)
    assert t.ops[0].kind == bk.OP_WEAKLY_ISOLATED
    assert t.ops[1].kind == bk.OP_ISOLATED
    assert gc.are_isomorphic(bk.run_script(s), bk.run_script(t))

    s = bk.BuildScript("P4", (bk.isolated(), bk.weakly_dominating(4)))
    t = bk.normalize_script(s)
    assert [op.kind for op in t.ops] == [bk.OP_DOMINATING, bk.OP_ISOLATED]
    assert gc.are_isomorphic(bk.run_script(s), bk.run_script(t))

    assert bk.normalize_script(bk.BuildScript("P4")) == bk.BuildScript("P4")


def test_normalize_script_random():
    rng = random.Random(23)
    for _ in range(150):
        seed = rng.choice(["K1", "P4"])
        g = bk.seed_graph(seed)
        ops = []
        for _ in range(rng.randrange(0, 6)):
            degs = g.degrees()
            pool = [bk.dominating(), bk.isolated(), bk.semijoined_p4()]
            pool.append(
                bk.weakly_dominating(
                    rng.choice([v for v in range(g.n) if degs[v] == min(degs)])
                )
            )
            pool.append(
                bk.weakly_isolated(
                    rng.choice([v for v in range(g.n) if degs[v] == max(degs)])
                )
            )
            op = rng.choice(pool)
            ops.append(op)
            g = bk.apply_op(g, op)
        s = bk.BuildScript(seed, tuple(ops))
        t = bk.normalize_script(s)
        assert placement_holds(t.ops), bk.format_script(s)
        assert gc.are_isomorphic(bk.run_script(s), bk.run_script(t))
