"""Command line front end.

Subcommands: ``seq`` classifies a degree sequence, ``graph`` works on
one graph (classify, decompose, recognize, complement), ``enumerate``
prints catalogs or the count table, ``oracle`` runs the cross-check
battery, ``ferrers`` renders the corrected diagram of a sequence.

Exit codes are a stable contract: 0 ok, 2 parse failure, 3 not
graphic, 4 outside the class, 5 over a size bound.  Output is plain
deterministic text, or a one-line JSON report with top-level keys
{command, input, result, status} behind ``--json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import buildkit, census, decomp, exhaustive, graphcore, majorize, seqcore
from .errors import EmptySequence, RowOverflow, SizeLimit

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_GRAPHIC = 3
EXIT_NOT_IN_CLASS = 4
EXIT_SIZE = 5

ORACLE_MAX = 7


def _bool(x: bool) -> str:
    return "true" if x else "false"


class _Reporter:
    """Collects one command's output and prints it once, in one format."""

    def __init__(self, command: str, input_obj, as_json: bool):
        self.command = command
        self.input_obj = input_obj
        self.as_json = as_json

    def emit(self, result: dict, lines: list[str], code: int = EXIT_OK) -> int:
        if self.as_json:
            print(
                json.dumps(
                    {
                        "command": self.command,
                        "input": self.input_obj,
                        "result": result,
                        "status": "ok",
                    },
                    sort_keys=True,
                )
            )
        else:
            for line in lines:
                print(line)
        return code

    def fail(self, message: str, code: int) -> int:
        if self.as_json:
            print(
                json.dumps(
                    {
                        "command": self.command,
                        "input": self.input_obj,
                        "result": {"message": message},
                        "status": "error",
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"error: {message}", file=sys.stderr)
        return code


def _cmd_seq(args) -> int:
    rep = _Reporter("seq", args.sequence, args.json)
    try:
        d = seqcore.parse_sequence(args.sequence)
    except (ValueError, EmptySequence) as e:
        return rep.fail(str(e), EXIT_PARSE)
    cls = seqcore.classify(d)
    prof = seqcore.eg_profile(d)
    result = {
        "graphic": cls.graphic,
        "split": cls.split,
        "weakly_threshold": cls.weakly_threshold,
        "threshold": cls.threshold,
        "m": prof.m,
        "deltas": list(prof.deltas),
    }
    lines = [
        f"sequence: {seqcore.format_sequence(d)}",
        f"graphic: {_bool(cls.graphic)}",
        f"split: {_bool(cls.split)}",
        f"weakly_threshold: {_bool(cls.weakly_threshold)}",
        f"threshold: {_bool(cls.threshold)}",
        f"m: {prof.m}",
        "deltas: " + ",".join(str(x) for x in prof.deltas),
    ]
    if args.realize:
        if not cls.weakly_threshold:
            return rep.fail(
                f"sequence {seqcore.format_sequence(d)} is outside the class,"
                " no realization here",
                EXIT_NOT_IN_CLASS,
            )
        text = graphcore.format_edge_list(buildkit.realize(d))
        result["realization"] = text
        lines.append(f"realization: {text}")
    return rep.emit(result, lines, EXIT_OK if cls.graphic else EXIT_NOT_GRAPHIC)


def _parse_graph(args) -> graphcore.SimpleGraph:
    if args.g6:
        return graphcore.from_graph6(args.graph)
    return graphcore.parse_edge_list(args.graph)


def _witness_dict(w: graphcore.ForbiddenWitness) -> dict:
    return {"name": w.family_member, "vertices": list(w.vertices)}


def _witness_line(w: graphcore.ForbiddenWitness) -> str:
    return f"witness: {w.family_member} at " + ",".join(
        str(v) for v in w.vertices
    )


def _cmd_graph(args) -> int:
    rep = _Reporter(f"graph {args.action}", args.graph, args.json)
    try:
        g = _parse_graph(args)
    except SizeLimit as e:
        return rep.fail(str(e), EXIT_SIZE)
    except (ValueError, EmptySequence) as e:
        return rep.fail(str(e), EXIT_PARSE)
    try:
        if args.action == "classify":
            return _graph_classify(rep, g)
        if args.action == "decompose":
            return _graph_decompose(rep, g)
        if args.action == "recognize":
            return _graph_recognize(rep, g)
        return rep.emit(
            {"complement": graphcore.format_edge_list(graphcore.complement(g))},
            [f"complement: {graphcore.format_edge_list(graphcore.complement(g))}"],
        )
    except SizeLimit as e:
        return rep.fail(str(e), EXIT_SIZE)


def _graph_classify(rep: _Reporter, g: graphcore.SimpleGraph) -> int:
    degs = seqcore.normalize(g.degrees())
    out = buildkit.recognize(g)
    result = {
        "degrees": list(degs),
        "weakly_threshold": isinstance(out, buildkit.BuildScript),
    }
    lines = [
        f"graph: {graphcore.format_edge_list(g)}",
        f"degrees: {seqcore.format_sequence(degs)}",
        f"weakly_threshold: {_bool(result['weakly_threshold'])}",
    ]
    if isinstance(out, buildkit.BuildScript):
        text = buildkit.format_script(out)
        result["script"] = text
        result["witness"] = None
        lines.append(f"script: {text}")
        return rep.emit(result, lines)
    result["script"] = None
    result["witness"] = _witness_dict(out)
    lines.append(_witness_line(out))
    return rep.emit(result, lines, EXIT_NOT_IN_CLASS)


def _graph_decompose(rep: _Reporter, g: graphcore.SimpleGraph) -> int:
    dec = decomp.decompose_graph(g)
    head_codes = [
        decomp.format_splitted(h.splitted_sequence()) for h in dec.heads
    ]
    tail_degs = seqcore.normalize(dec.tail.degrees())
    result = {
        "heads": head_codes,
        "tail": list(tail_degs),
        "components": len(head_codes) + 1,
    }
    lines = [
        f"graph: {graphcore.format_edge_list(g)}",
        "heads: " + (" ".join(f"[{c}]" for c in head_codes) if head_codes else "-"),
        f"tail: {seqcore.format_sequence(tail_degs)}",
    ]
    return rep.emit(result, lines)


def _graph_recognize(rep: _Reporter, g: graphcore.SimpleGraph) -> int:
    out = buildkit.recognize(g)
    if isinstance(out, buildkit.BuildScript):
        text = buildkit.format_script(out)
        return rep.emit(
            {"script": text, "witness": None}, [f"script: {text}"]
        )
    return rep.emit(
        {"script": None, "witness": _witness_dict(out)},
        [_witness_line(out)],
        EXIT_NOT_IN_CLASS,
    )


def _cmd_enumerate(args) -> int:
    rep = _Reporter(
        "enumerate", {"n": args.n, "what": args.what}, args.json
    )
    if args.n < 1:
        return rep.fail(f"order must be positive: {args.n}", EXIT_PARSE)
    try:
        if args.what == "sequences":
            items = sorted(buildkit.enumerate_wt_sequences(args.n))
            lines = [seqcore.format_sequence(d) for d in items]
            result = {"items": [list(d) for d in items]}
        elif args.what == "graphs":
            codes = sorted(buildkit.enumerate_wt_graphs(args.n))
            lines = [
                graphcore.to_graph6(graphcore.graph_from_canonical_form(c))
                for c in codes
            ]
            result = {"items": lines}
        else:
            tsv = census.format_count_table_tsv(args.n)
            lines = tsv.splitlines()
            header, *rows = lines
            result = {
                "header": header.split("\t"),
                "rows": [[int(x) for x in row.split("\t")] for row in rows],
            }
    except SizeLimit as e:
        return rep.fail(str(e), EXIT_SIZE)
    if args.export:
        with open(args.export, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        result["exported"] = args.export
        return rep.emit(result, [], EXIT_OK)
    return rep.emit(result, lines, EXIT_OK)


def _oracle_checks(n: int, notes: list[str]) -> None:
    """One order's battery; raises AssertionError on the first failure."""
    r = exhaustive.scan_all(n)
    assert r.disagreements == 0, (
        f"n={n}: {r.disagreements} route disagreements,"
        f" first at mask {r.first_disagreement}"
    )
    assert r.complement_mismatches == 0, (
        f"n={n}: {r.complement_mismatches} complement mismatches"
    )
    notes.append(f"n={n} scan ok (total={r.total} wt={r.wt_count})")

    if n <= 5:
        graphs = [
            graphcore.SimpleGraph(n, edges)
            for edges in _all_edge_lists(n)
        ]
    else:
        graphs = [
            graphcore.graph_from_canonical_form(c)
            for c in buildkit.enumerate_wt_graphs(n)
        ]
        rng = random.Random(n)
        nbits = n * (n - 1) // 2
        for _ in range(300):
            mask = rng.randrange(1 << nbits)
            graphs.append(
                graphcore.SimpleGraph(n, _mask_edges(n, mask))
            )
    for g in graphs:
        dec = decomp.decompose_graph(g)
        back = decomp.recompose_graph(dec)
        assert graphcore.are_isomorphic(g, back), (
            f"n={n}: decomposition round trip broke on {g.edges()}"
        )
    notes.append(f"n={n} decomposition ok ({len(graphs)} graphs)")

    checked = 0
    for total in range(0, n * (n - 1) + 1, 2):
        for d in majorize.graphic_sequences(n, total):
            assert decomp.check_eg_concatenation(d).matches, (
                f"n={n}: concatenation mismatch on {d}"
            )
            checked += 1
    notes.append(f"n={n} concatenation ok ({checked} sequences)")

    for total in range(0, n * (n - 1) + 1, 2):
        up = majorize.verify_upward_closure(n, total)
        assert not up.counterexamples, (
            f"n={n}: upward closure broke at total {total}:"
            f" {up.counterexamples[0]}"
        )
    notes.append(f"n={n} upward closure ok")

    census.oracle_crosscheck(n)
    notes.append(f"n={n} counts ok")


def _all_edge_lists(n: int):
    nbits = n * (n - 1) // 2
    for mask in range(1 << nbits):
        yield _mask_edges(n, mask)


def _mask_edges(n: int, mask: int):
    return [
        (u, v)
        for v in range(n)
        for u in range(v)
        if mask >> (v * (v - 1) // 2 + u) & 1
    ]


def _cmd_oracle(args) -> int:
    rep = _Reporter("oracle", {"max_n": args.max_n}, args.json)
    if args.max_n < 1:
        return rep.fail(f"order must be positive: {args.max_n}", EXIT_PARSE)
    if args.max_n > ORACLE_MAX:
        return rep.fail(
            f"oracle runs bounded at order {ORACLE_MAX}", EXIT_SIZE
        )
    notes: list[str] = []
    try:
        for n in range(1, args.max_n + 1):
            _oracle_checks(n, notes)
    except AssertionError as e:
        notes.append(f"FAIL {e}")
        code = rep.emit({"passed": False, "checks": notes}, notes, 1)
        return code
    notes.append(f"all checks passed (max_n={args.max_n})")
    return rep.emit({"passed": True, "checks": notes}, notes, EXIT_OK)


def _cmd_ferrers(args) -> int:
    rep = _Reporter("ferrers", args.sequence, args.json)
    try:
        d = seqcore.parse_sequence(args.sequence)
    except (ValueError, EmptySequence) as e:
        return rep.fail(str(e), EXIT_PARSE)
    try:
        diagram = seqcore.ferrers(d)
    except RowOverflow as e:
        return rep.fail(str(e), EXIT_NOT_GRAPHIC)
    rendered = seqcore.render_ferrers(diagram)
    lines = rendered.splitlines()
    return rep.emit({"rows": lines}, lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="one-line JSON report"
    )
    p = argparse.ArgumentParser(
        prog="wt",
        description="degree-sequence and graph tools for the one-unit-slack class",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser(
        "seq", parents=[common], help="classify a degree sequence"
    )
    ps.add_argument("sequence", help="comma-separated terms, e.g. 3,3,2,1,1")
    ps.add_argument(
        "--realize",
        action="store_true",
        help="also build a realization (class members only)",
    )

    pg = sub.add_parser("graph", parents=[common], help="work on one graph")
    pg.add_argument(
        "action", choices=["classify", "decompose", "recognize", "complement"]
    )
    pg.add_argument("graph", help="n=4;edges=0-1,1-2,2-3 or graph6 with --g6")
    pg.add_argument(
        "--g6", action="store_true", help="read the graph as graph6 text"
    )

    pe = sub.add_parser(
        "enumerate", parents=[common], help="catalogs and count tables"
    )
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument(
        "--what", choices=["sequences", "graphs", "table"], required=True
    )
    pe.add_argument("--export", help="write the listing to this path")

    po = sub.add_parser(
        "oracle", parents=[common], help="run the cross-check battery"
    )
    po.add_argument("--max-n", type=int, required=True, dest="max_n")

    pf = sub.add_parser(
        "ferrers", parents=[common], help="render a corrected diagram"
    )
    pf.add_argument("sequence")
    return p


_DISPATCH = {
    "seq": _cmd_seq,
    "graph": _cmd_graph,
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
    "ferrers": _cmd_ferrers,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
