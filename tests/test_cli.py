import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wtgraph
from wtgraph import decomp, graphcore as gc
from wtgraph.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_classify(capsys):
    code, out, err = run(capsys, ["seq", "3,3,2,1,1"])
    assert code == 0
    assert out.splitlines() == [
        "sequence: 3,3,2,1,1",
        "graphic: true",
        "split: true",
        "weakly_threshold: true",
        "threshold: false",
        "m: 3",
        "deltas: 1,0,0",
    ]
    assert err == ""


def test_seq_not_graphic_exit(capsys):
    code, out, _ = run(capsys, ["seq", "1,1,1"])
    assert code == 3
    assert "graphic: false" in out


def test_seq_parse_error(capsys):
    code, out, err = run(capsys, ["seq", "x,y"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_seq_json_schema(capsys):
    code, out, _ = run(capsys, ["seq", "3,3,2,1,1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["command", "input", "result", "status"]
    assert report["command"] == "seq"
    assert report["input"] == "3,3,2,1,1"
    assert report["status"] == "ok"
    assert report["result"]["weakly_threshold"] is True
    assert report["result"]["deltas"] == [1, 0, 0]
    assert report["result"]["m"] == 3
    # printed form parses back to the same object
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_seq_realize(capsys):
    code, out, _ = run(capsys, ["seq", "2,2,1,1", "--realize"])
    assert code == 0
    assert "realization: n=4;edges=0-1,1-2,2-3" in out.splitlines()
    code, _, err = run(capsys, ["seq", "2,2,2,2", "--realize"])
    assert code == 4
    assert "error:" in err


def test_graph_classify(capsys):
    code, out, _ = run(capsys, ["graph", "classify", "n=4;edges=0-1,1-2,2-3"])
    assert code == 0
    assert "weakly_threshold: true" in out
    assert "script: seed=P4;ops=" in out
    code, out, _ = run(
        capsys, ["graph", "classify", "n=4;edges=0-1,1-2,2-3,3-0"]
    )
    assert code == 4
    assert "witness: C4 at 0,1,2,3" in out


def test_graph_classify_g6(capsys):
    code, out, _ = run(capsys, ["graph", "recognize", "--g6", "Cr"])
    assert code == 4
    assert "witness: C4" in out


def test_graph_parse_errors(capsys):
    for text in ["garbage", "n=x;edges=", "n=4;edges=0-9", "n=4;edges=1+2"]:
        code, out, err = run(capsys, ["graph", "classify", text])
        assert code == 2, text
        assert "error:" in err


def test_graph_decompose(capsys):
    code, out, _ = run(
        capsys, ["graph", "decompose", "n=4;edges=0-1,0-2,1-2,2-3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "heads: [0;] [;0] [0;]" in lines
    assert "tail: 0" in lines


def test_graph_decompose_composed(capsys):
    head = decomp.splitted_graph_from_terms(decomp.parse_splitted("2,2;1,1"))
    tail = gc.SimpleGraph(5, [(0, 1), (2, 3)])
    g = decomp.compose_graph(head, tail)
    code, out, _ = run(capsys, ["graph", "decompose", gc.format_edge_list(g)])
    assert code == 0
    lines = out.splitlines()
    assert "heads: [2,2;1,1] [;0]" in lines
    assert "tail: 1,1,1,1" in lines


def test_graph_decompose_size_bound(capsys):
    # decomposition is bounded only by the 64-vertex graph cap
    code, out, _ = run(capsys, ["graph", "decompose", "n=17;edges="])
    assert code == 0
    assert "heads: " + " ".join(["[;0]"] * 16) in out.splitlines()
    code, _, err = run(capsys, ["graph", "decompose", "n=65;edges="])
    assert code == 5
    assert "error:" in err


def test_graph_recognize(capsys):
    kite = "n=5;edges=0-1,1-2,2-3,4-0,4-1,4-2"
    code, out, _ = run(capsys, ["graph", "recognize", kite])
    assert code == 0
    assert out.splitlines() == ["script: seed=P4;ops=WD(0)"]


def test_graph_complement(capsys):
    code, out, _ = run(capsys, ["graph", "complement", "n=4;edges=0-1,1-2,2-3"])
    assert code == 0
    assert out.splitlines() == ["complement: n=4;edges=0-2,0-3,1-3"]


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "6", "--what", "table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tg\th\ts\tw\tthreshold"
    assert lines[6] == "6\t4\t6\t50\t52\t32"


def test_enumerate_sequences(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--what", "sequences"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "0,0,0,0"
    assert lines[-1] == "3,3,3,3"


def test_enumerate_graphs(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "1", "--what", "graphs"])
    assert code == 0
    assert out.splitlines() == ["@"]
    code, out, _ = run(capsys, ["enumerate", "--n", "4", "--what", "graphs"])
    assert len(out.splitlines()) == 9


def test_enumerate_bound(capsys):
    code, _, err = run(capsys, ["enumerate", "--n", "11", "--what", "sequences"])
    assert code == 5
    assert "bounded" in err


def test_enumerate_export(tmp_path, capsys):
    target = tmp_path / "seqs.txt"
    code, out, _ = run(
        capsys,
        ["enumerate", "--n", "4", "--what", "sequences", "--export", str(target)],
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 9 and lines[0] == "0,0,0,0"


def test_oracle_small(capsys):
    code, out, _ = run(capsys, ["oracle", "--max-n", "2"])
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed (max_n=2)"


def test_oracle_bound(capsys):
    code, _, err = run(capsys, ["oracle", "--max-n", "8"])
    assert code == 5
    assert "bounded" in err
    code, _, _ = run(capsys, ["oracle", "--max-n", "0"])
    assert code == 2


def test_oracle_json(capsys):
    code, out, _ = run(capsys, ["oracle", "--max-n", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is True
    assert sorted(report) == ["command", "input", "result", "status"]


def test_oracle_count_check_survives_optimize():
    """A wrong graph count must fail the oracle even when python -O
    strips asserts."""
    code = (
        "import sys\n"
        "from wtgraph import census, cli\n"
        "assert not __debug__\n"  # stripped under -O; fails loudly if not
        "true_count = census.count_wt_graphs\n"
        "census.count_wt_graphs = lambda n: 22 if n == 5 else true_count(n)\n"
        "sys.exit(cli.main(['oracle', '--max-n', '5', '--json']))\n"
    )
    src = str(Path(wtgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["result"]["passed"] is False
    assert report["result"]["checks"][-1] == "FAIL (21, 22)"


def test_ferrers(capsys):
    code, out, _ = run(capsys, ["ferrers", "3,3,2,1,1"])
    assert code == 0
    assert out.splitlines() == [
        "* 1 1 1 0",
        "1 * 1 1 0",
        "1 1 * 0 0",
        "1 0 0 * 0",
        "1 0 0 0 *",
    ]


def test_ferrers_errors(capsys):
    code, _, _ = run(capsys, ["ferrers", ""])
    assert code == 2
    code, _, err = run(capsys, ["ferrers", "4,1,1"])
    assert code == 3
    assert "error:" in err


@pytest.mark.skipif(shutil.which("wt") is None, reason="binary not on PATH")
def test_installed_binary():
    r = subprocess.run(
        ["wt", "seq", "3,3,2,1,1"], capture_output=True, text=True
    )
    assert r.returncode == 0
    assert "weakly_threshold: true" in r.stdout
