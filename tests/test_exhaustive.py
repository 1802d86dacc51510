import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import all_edge_subsets, induced_subgraph_witness
import wtgraph
from wtgraph import buildkit as bk, exhaustive as ex, graphcore as gc
from wtgraph.errors import SizeLimit


def _edges(n, mask):
    return [(u, v) for v in range(n) for u in range(v) if mask >> (v * (v - 1) // 2 + u) & 1]


def test_pure_scan_small_orders():
    labeled = {1: 1, 2: 2, 3: 8, 4: 58, 5: 632}
    for n, want in labeled.items():
        r = ex.scan_all(n)
        assert r.total == 1 << (n * (n - 1) // 2)
        assert r.wt_count == want
        assert r.consistent
        assert r.first_disagreement is None
        assert r.sequences == bk.enumerate_wt_sequences(n)


def test_wt_count_matches_direct_filter():
    for n in (4, 5):
        direct = sum(
            1
            for edges in all_edge_subsets(n)
            if gc.is_wt_by_degrees(gc.SimpleGraph(n, edges))
        )
        assert ex.scan_all(n).wt_count == direct


def test_routes_spot_values():
    p4 = ex.edge_mask(4, [(0, 1), (1, 2), (2, 3)])
    assert ex.routes(4, p4) == (True, True, True)
    c4 = ex.edge_mask(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert ex.routes(4, c4) == (False, False, False)
    two_k2 = ex.edge_mask(4, [(0, 1), (2, 3)])
    assert ex.routes(4, two_k2) == (False, False, False)
    c5 = ex.edge_mask(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert ex.routes(5, c5) == (False, False, False)
    sp4 = bk.apply_op(gc.SimpleGraph(1, []), bk.semijoined_p4())
    assert ex.routes(5, ex.edge_mask(5, sp4.edges())) == (True, True, True)


def test_routes_match_module_recognizers():
    """Each kernel route answers like an independent recognizer on every
    labeled graph of small orders.  The obstruction route shares its
    tables with graphcore, so its reference is the brute-force witness
    search over the seven family members."""
    family = [(f.n, set(f.edges())) for _, f in gc.forbidden_family()]
    for n in (4, 5):
        for edges in all_edge_subsets(n):
            g = gc.SimpleGraph(n, edges)
            r1, r2, r3 = ex.routes(n, ex.edge_mask(n, edges))
            assert r1 == gc.is_wt_by_degrees(g)
            assert r2 == all(
                induced_subgraph_witness(n, edges, k, f_edges) is None
                for k, f_edges in family
                if k <= n
            )
            assert r3 == isinstance(bk.recognize(g), bk.BuildScript)


def test_routes_match_modules_sampled_order_seven():
    rng = random.Random(71)
    for _ in range(120):
        mask = rng.randrange(1 << 21)
        r1, r2, r3 = ex.routes(7, mask)
        g = gc.SimpleGraph(7, _edges(7, mask))
        assert r1 == r2 == r3 == gc.is_wt_by_degrees(g)


def test_scan_bounds():
    with pytest.raises(SizeLimit):
        ex.scan_all(8)
    with pytest.raises(ValueError):
        ex.scan_all(0)
    with pytest.raises(ValueError):
        ex.routes(4, 1 << 6)
    with pytest.raises(ValueError):
        ex.routes(0, 0)


def test_edge_mask_validation():
    assert ex.edge_mask(3, [(0, 1)]) == 1
    with pytest.raises(ValueError):
        ex.edge_mask(3, [(0, 3)])
    with pytest.raises(ValueError):
        ex.edge_mask(3, [(1, 1)])


def test_import_builds_no_tables():
    """The screen's codes and gather tables, the forbidden family and
    the witness search's side-keyed tables are built on first use, not
    when the command line front end is imported, and numpy stays out of
    the process."""
    code = (
        "import sys\n"
        "import wtgraph.cli\n"
        "from wtgraph import exhaustive, graphcore\n"
        "print(exhaustive._obstruction_codes.cache_info().currsize,"
        " exhaustive._top_tables.cache_info().currsize,"
        " graphcore.labeling_codes.cache_info().currsize,"
        " graphcore._family.cache_info().currsize,"
        " graphcore._member_groups.cache_info().currsize,"
        " 'numpy' in sys.modules)\n"
    )
    src = str(Path(wtgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "0", "0", "0", "0", "False"]


@pytest.mark.parametrize("route", ["_obstruction_route", "_reduction_route"])
def test_memo_cannot_hide_a_planted_disagreement(monkeypatch, route):
    """One route errs on a single order-5 residual: P4 plus an isolated
    vertex.  The scan's memo hands that wrong verdict to every order-6
    graph that reaches it, so the scan must report exactly what a walk
    of ``routes`` over every mask reports, with no memo shared between
    masks."""
    n = 6
    target = ex.edge_mask(n - 1, [(0, 1), (1, 2), (2, 3)])
    true_route = getattr(ex, route)

    def planted(order, mask, *rest):
        verdict = true_route(order, mask, *rest)
        return not verdict if (order, mask) == (n - 1, target) else verdict

    monkeypatch.setattr(ex, route, planted)
    r = ex.scan_all(n)
    walk = [mask for mask in range(1 << 15) if len(set(ex.routes(n, mask))) > 1]
    assert r.disagreements == len(walk) > 0
    assert r.first_disagreement == walk[0]


@lru_cache(maxsize=None)
def _wt_catalog(n):
    return sorted(bk.enumerate_wt_graphs(n))


@st.composite
def _labeled_graphs(draw):
    """(n, mask, permutation) on 6 to 8 vertices.  The mask is uniform,
    and so mostly outside the class, or a member of the class from the
    canonical catalog; the permutation relabels it."""
    n = draw(st.integers(6, 8))
    if draw(st.booleans()):
        mask = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    else:
        codes = _wt_catalog(n)
        g = gc.graph_from_canonical_form(codes[draw(st.integers(0, len(codes) - 1))])
        mask = ex.edge_mask(n, g.edges())
    return n, mask, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(_labeled_graphs())
def test_routes_agree_and_ignore_labels(case):
    n, mask, perm = case
    edges = _edges(n, mask)
    verdicts = ex.routes(n, mask)
    assert verdicts == (gc.is_wt_by_degrees(gc.SimpleGraph(n, edges)),) * 3
    relabelled = ex.edge_mask(n, [(perm[u], perm[v]) for u, v in edges])
    assert ex.routes(n, relabelled) == verdicts
