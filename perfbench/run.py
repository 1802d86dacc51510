"""One benchmark for wtgraph: graph queries, catalog enumeration and the
oracle battery, end to end and per layer.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout that holds ``src/wtgraph``.  The
program runs in child processes with ``src`` on ``PYTHONPATH`` and
``WT_CATALOG_DIR`` removed; this process only makes inputs, times, and
checks outputs against ``reference``, which does not import wtgraph.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The full record
of each run, with the environment and every traced function, is written
to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("queries", "enumerate", "oracle")
CPUS = sorted(os.sched_getaffinity(0))  # rounds take the cores in turn
RUN_LIMIT_S = 170  # every run ends, checks included, within 180 s

# queries: per order, WT graphs (each followed by its near miss) and
# random graphs; a round of 216 leaves ten samples above the 95th
# percentile
QUERY_ORDERS = range(8, 17)
WT_PER_ORDER = 8
RANDOM_PER_ORDER = 8
ROUTES_MAX = 8  # exhaustive.routes covers orders up to 8
# rounds each untraced run makes at least (see round_policy); the
# costliest queries and the graph catalog take as long as a slow spell
# of a shared core, so they need a third repeat to catch a fast one
MIN_ROUNDS = {"queries": 3, "enumerate": 3, "oracle": 2}
# queries times this many set-up-only worker starts before its stream
# and as many after it, so that setup_s, like the operations, is taken
# from starts spread over the run
SETUP_STARTS = 3

ENUMERATE_GRAPHS = ("enumerate", "--n", "9", "--what", "graphs", "--json")
ENUMERATE_SEQUENCES = ("enumerate", "--n", "10", "--what", "sequences", "--json")
ORACLE_MAX_N = 6  # order 7 takes over a minute, longer than a run
ORACLE = ("oracle", "--max-n", str(ORACLE_MAX_N), "--json")

SELF_TIMES = (
    "graphcore.find_forbidden",
    "graphcore.contains_induced",
    "buildkit.recognize",
    "buildkit.peel",
    "decomp.decompose_graph",
    "exhaustive.routes",
    "graphcore.canonical_form",
    "buildkit.enumerate_wt_graphs",
    "graphcore.graph_from_canonical_form",
    "buildkit.enumerate_wt_sequences",
    "majorize.graphic_sequences",
    "exhaustive.scan_all",
    "majorize.verify_upward_closure",
    "decomp.check_eg_concatenation",
    "decomp.is_indecomposable_graph",
    "census.oracle_crosscheck",
)
CALL_COUNTS = (
    "graphcore.contains_induced",
    "buildkit.peel",
    "exhaustive.routes",
    "graphcore.canonical_form",
    "buildkit.apply_op",
    "seqcore.eg_profile",
)
QUERY_KINDS = ("wt", "near", "random")


# --- the query stream ------------------------------------------------------


def wt_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A WT graph on n vertices from a random construction script, with
    its vertices relabelled at random."""
    adj = [{1}, {0, 2}, {1, 3}, {2}] if n >= 4 and rng.random() < 0.25 else [set()]
    while len(adj) < n:
        degs = [len(a) for a in adj]
        kind = rng.choice(["D", "I", "WD", "WI"] + (["SP4"] if n - len(adj) >= 4 else []))
        want = {"WD": min(degs), "WI": max(degs)}.get(kind)
        target = rng.choice([v for v, d in enumerate(degs) if d == want]) if want is not None else None
        reference.apply_op(adj, kind, target)
    label = list(range(n))
    rng.shuffle(label)
    return sorted(
        (min(label[u], label[v]), max(label[u], label[v]))
        for u in range(n)
        for v in adj[u]
        if u < v
    )


def near_miss(rng: random.Random, n: int, edges) -> list[tuple[int, int]] | None:
    """The graph with one pair toggled, drawn among the pairs whose
    toggle takes it out of the class; None when every toggle stays in
    it (as for complete and empty graphs)."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    present = set(edges)
    for p in pairs:
        toggled = sorted(present ^ {p})
        if not reference.is_wt_graph(n, toggled):
            return toggled
    return None


def _query(n: int, edges, kind: str) -> dict:
    """One stream item; ``mask`` is the scan's edge mask, given only
    where ``exhaustive.routes`` runs."""
    mask = sum(1 << (v * (v - 1) // 2 + u) for u, v in edges) if n <= ROUTES_MAX else None
    return {"n": n, "edges": [list(e) for e in edges], "kind": kind, "mask": mask}


def queries_stream(seed: int) -> list[dict]:
    rng = random.Random(seed)
    stream = []
    for n in QUERY_ORDERS:
        for _ in range(WT_PER_ORDER):
            near = None
            while near is None:
                wt = wt_graph(rng, n)
                near = near_miss(rng, n, wt)
            stream += [_query(n, wt, "wt"), _query(n, near, "near")]
        for _ in range(RANDOM_PER_ORDER):
            rand = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
            stream.append(_query(n, rand, "random"))
    rng.shuffle(stream)
    return stream


def round_policy(args) -> tuple[float, int]:
    """(seconds, rounds) a run measures at least.

    Every operation runs in at least two rounds, the rounds pinned to
    the cores in turn, and a run reports each operation's fastest round.
    On a machine whose cores are shared with other tenants, one core's
    speed swings by up to 1.7x, for seconds or minutes, nearly
    independently of the other core's; the fastest of repeats spaced a
    round apart and spread over the cores is the steady figure.  A
    traced run spends half its time untraced and repeats as many rounds
    traced.
    """
    return (args.seconds / 2, 1) if args.trace else (args.seconds, MIN_ROUNDS[args.workload])


# --- child processes -------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WT_CATALOG_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Worker:
    """A ``worker.py`` child, timed from spawn to its ready line."""

    def __init__(self, env: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            bufsize=0,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with {self.proc.returncode} before it was ready")
        self.ready = json.loads(line)

    def run(self, job: dict, deadline: float) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(job).encode(), timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.decode().splitlines()[-1])


def cold_start(env: dict) -> float:
    """Spawn-to-ready seconds of a worker started only to time its set-up."""
    worker = Worker(env)
    worker.proc.communicate(b"")
    if worker.proc.returncode != 0:
        raise RuntimeError(f"worker exited with {worker.proc.returncode}")
    return worker.setup_s


# --- checks ----------------------------------------------------------------


def check_queries(stream: list, reply: dict) -> list[str]:
    problems = []
    if not reply["consistent"]:
        problems.append("outputs changed from one round to the next")
    for i, (q, out, seq) in enumerate(zip(stream, reply["outputs"], reply["sequence_decompositions"])):
        if "error" in out:
            problems.append(f"query {i} ({q['kind']}, n={q['n']}, edges={q['edges']}) failed: {out['error']}")
            continue
        graph = (q["n"], [tuple(e) for e in q["edges"]])
        found = reference.check_recognition(graph, out["recognition"])
        found += reference.check_decomposition(graph, out["decomposition"], seq)
        if q["mask"] is not None and out["routes"] != [reference.is_wt_graph(*graph)] * 3:
            found.append(f"routes {out['routes']} disagree with the slack test")
        problems += [f"query {i} ({q['kind']}, n={q['n']}, edges={q['edges']}): {p}" for p in found]
    return problems


def check_wt_output(argv, stdout: str) -> list[str]:
    try:
        report = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return [f"wt {' '.join(argv)} printed no JSON result: {stdout[-200:]!r}"]
    if argv == ENUMERATE_GRAPHS:
        graphs = [reference.from_graph6(t) for t in report["items"]]
        return reference.check_graph_catalog(9, graphs)
    if argv == ENUMERATE_SEQUENCES:
        return reference.check_sequence_catalog(10, report["items"])
    problems = [] if report["passed"] else ["oracle did not report passed"]
    for n in range(1, ORACLE_MAX_N + 1):
        want = "n={} scan ok (total={} wt={})".format(n, *reference.labelled_wt_counts(n))
        got = [c for c in report["checks"] if c.startswith(f"n={n} scan ")]
        if got != [want]:
            problems.append(f"oracle reports {got}, numpy counts give {want!r}")
    return problems


# --- workloads -------------------------------------------------------------


def run_queries(args, env: dict, deadline: float) -> dict:
    stream = queries_stream(args.seed)
    setups = [cold_start(env) for _ in range(SETUP_STARTS)]
    worker = Worker(env)
    job = {"job": "queries", "graphs": stream, "cpus": CPUS, "trace": bool(args.trace)}
    job.update(zip(("seconds", "min_rounds"), round_policy(args)))
    reply = worker.run(job, deadline)
    setups += [worker.setup_s] + [cold_start(env) for _ in range(SETUP_STARTS)]
    return {
        "setup_s": setups,
        "backend": worker.ready["backend"],
        "attempted": len(stream) * len(reply["latencies"]),
        "failed": reply["failed"],
        "latencies": [list(op) for op in zip(*reply["latencies"])],
        "problems": check_queries(stream, reply),
        "traces": [reply.get("trace")],
        "import_s": [worker.ready["import_s"]],
        "split": reply.get("split"),
        "overhead_s": reply.get("overhead_s"),
        "peak_rss_mb": reply["peak_rss_mb"],
    }


def run_commands(args, env: dict, deadline: float) -> dict:
    """enumerate and oracle: whole rounds of fresh processes, each
    running one ``wt`` command."""
    rng = random.Random(args.seed)
    commands = [ENUMERATE_GRAPHS, ENUMERATE_SEQUENCES] if args.workload == "enumerate" else [ORACLE]
    m = {"setup_s": [], "attempted": 0, "failed": 0, "peak_rss_mb": 0.0, "traces": [], "import_s": [], "split": None, "problems": []}
    outputs, latencies = defaultdict(list), defaultdict(list)

    def one(argv, trace: bool, cpu: int) -> float:
        t0 = time.perf_counter()
        worker = Worker(env)
        reply = worker.run({"job": "cli", "argv": list(argv), "cpu": cpu, "trace": trace}, deadline)
        dt = time.perf_counter() - t0
        m["backend"] = worker.ready["backend"]
        outputs[argv].append(reply["stdout"])
        if reply["exit"] != 0:
            m["problems"].append(f"wt {' '.join(argv)} exited with {reply['exit']}")
        if trace:
            m["traces"].append(reply["trace"])
            m["import_s"].append(worker.ready["import_s"])
        else:
            m["setup_s"].append(worker.setup_s)
            m["attempted"] += 1
            m["failed"] += reply["exit"] != 0
            latencies[argv].append(dt if reply["exit"] == 0 else None)
            m["peak_rss_mb"] = max(m["peak_rss_mb"], reply["peak_rss_mb"])
        return dt

    seconds, min_rounds = round_policy(args)
    rounds, wall = 0, 0.0
    while rounds < min_rounds or wall < seconds:
        rounds += 1
        cpu = CPUS[(rounds - 1) % len(CPUS)]
        wall += sum(one(argv, False, cpu) for argv in rng.sample(commands, len(commands)))
    if args.trace:
        traced = sum(one(argv, True, CPUS[i % len(CPUS)]) for i in range(rounds) for argv in commands)
        m["overhead_s"] = traced - wall
    m["latencies"] = list(latencies.values())
    for argv, outs in outputs.items():
        m["problems"] += check_wt_output(argv, outs[0])
        if any(o != outs[0] for o in outs):
            m["problems"].append(f"wt {' '.join(argv)} printed different outputs across runs")
    return m


# --- metrics ---------------------------------------------------------------


def end_to_end(m: dict) -> dict:
    """Timings from each operation's fastest round (see round_policy),
    leaving out the rounds where it failed; setup_s is the fastest of
    the run's cold worker starts."""
    best = [min(t for t in times if t is not None) for times in m["latencies"] if any(t is not None for t in times)]
    if not best:
        sys.exit("every operation failed; nothing to time")
    # a 95th percentile needs twenty operations; below that (enumerate,
    # oracle) op_p95_ms reads the slowest operation instead
    p95 = statistics.quantiles(best, n=20, method="inclusive")[18] if len(best) >= 20 else max(best)
    return {
        "setup_s": (min(m["setup_s"]), "s"),
        "ops_per_s": (len(best) / sum(best), "ops/s"),
        "op_p50_ms": (statistics.median(best) * 1000, "ms"),
        "op_p95_ms": (p95 * 1000, "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def per_layer(m: dict) -> dict:
    funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
    witnesses = distinct = masks = 0
    for t in m["traces"]:
        for name, st in t["functions"].items():
            f = funcs[name]
            for key in ("calls", "self_s", "total_s"):
                f[key] += st[key]
            f["max_s"] = max(f["max_s"], st["max_s"])
        witnesses += t["witnesses"]
        distinct += t["distinct_codes"]
        masks += t["masks"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.self_s": (funcs[name]["self_s"], "s") for name in SELF_TIMES}
    out.update({f"{name}.calls": (funcs[name]["calls"], "count") for name in CALL_COUNTS})
    canon = funcs["graphcore.canonical_form"]
    out["graphcore.find_forbidden.witness_ratio"] = (ratio(witnesses, funcs["graphcore.find_forbidden"]["calls"]), "ratio")
    out["graphcore.canonical_form.max_ms"] = (canon["max_s"] * 1000, "ms")
    out["graphcore.canonical_form.distinct_ratio"] = (ratio(distinct, canon["calls"]), "ratio")
    out["exhaustive.scan_all.masks_per_s"] = (ratio(masks, funcs["exhaustive.scan_all"]["total_s"]), "1/s")
    split = m["split"] or {}
    for op in ("recognize", "decompose"):
        for kind in QUERY_KINDS:
            out[f"{op}.{kind}.self_s"] = (split.get(f"{op}.{kind}", 0.0), "s")
    out["cli.self_s"] = (funcs["cli.main"]["self_s"], "s")
    out["import.wtgraph_s"] = (statistics.median(m["import_s"]), "s")
    out["trace.overhead_s"] = (m["overhead_s"], "s")
    return out, dict(funcs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        sys.exit("refusing to measure: -O and PYTHONOPTIMIZE strip the asserts the program checks with")
    if not (SRC / "wtgraph" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'wtgraph'} is missing")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    run = run_queries if args.workload == "queries" else run_commands
    m = run(args, env, deadline)
    for p in m["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    traced = {}
    if args.trace:
        metrics, traced = per_layer(m)
    else:
        metrics = end_to_end(m)
    result = {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_env = {
        "backend": m["backend"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": nx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": record_env, "result": result, "problems": m["problems"], "functions": traced}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env: " + json.dumps(record_env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
