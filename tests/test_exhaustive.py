import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import all_edge_subsets, induced_subgraph_witness
import wtgraph
from wtgraph import buildkit as bk, exhaustive as ex, graphcore as gc
from wtgraph.errors import SizeLimit


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
        edges = [
            (u, v)
            for v in range(7)
            for u in range(v)
            if mask >> (v * (v - 1) // 2 + u) & 1
        ]
        g = gc.SimpleGraph(7, edges)
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
    """The screen's tables and subset layouts are built on first use,
    not when the command line front end is imported."""
    code = (
        "import wtgraph.cli\n"
        "from wtgraph import exhaustive, graphcore\n"
        "print(exhaustive._obstruction_tables.cache_info().currsize,"
        " exhaustive._subset_layouts.cache_info().currsize,"
        " graphcore.labeling_codes.cache_info().currsize)\n"
    )
    src = str(Path(wtgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "0", "0"]
