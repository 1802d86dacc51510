"""Child process of the benchmark, the one that runs the program.

It imports wtgraph, prints one ready line, then reads one JSON job
from stdin and prints one JSON reply (an empty stdin ends it at once):

- ``{"job": "queries", "graphs": [...], "seconds": s, "min_rounds": r,
  "cpus": [...], "trace": t}``: closed loop over the query stream, in
  whole rounds, for at least ``s`` seconds and ``r`` rounds, round i
  pinned to ``cpus[i % len(cpus)]``.  With ``t`` true, the same rounds
  then run again traced.
- ``{"job": "cli", "argv": [...], "cpu": c, "trace": t}``: one ``wt``
  command pinned to core ``c``, traced when ``t`` is true.

Each reply carries the process's peak RSS.  It is read from the
process's own memory map, because the parent's image before exec
counts in the peak that ``getrusage`` gives for children.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import json
import os
import sys
import time

clock = time.perf_counter
T0 = clock()
from wtgraph import buildkit, cli, decomp, exhaustive, graphcore  # noqa: E402

IMPORT_S = clock() - T0


def _recognition(out) -> dict:
    if isinstance(out, buildkit.BuildScript):
        return {"script": buildkit.format_script(out), "witness": None}
    return {"script": None, "witness": {"name": out.family_member, "vertices": list(out.vertices)}}


def _decomposition(dec) -> dict:
    heads = [
        {
            "n": h.graph.n,
            "edges": h.graph.edges(),
            "independent": sorted(h.independent),
            "clique": sorted(h.clique),
        }
        for h in dec.heads
    ]
    return {"heads": heads, "tail": {"n": dec.tail.n, "edges": dec.tail.edges()}}


def _round(graphs: list, split: dict, cpu: int):
    """One pass over the stream on one core: wall time, per-op
    latencies (None for an operation that raised), raw results."""
    os.sched_setaffinity(0, {cpu})
    latencies, results = [], []
    start = clock()
    for q in graphs:
        t0 = clock()
        try:
            g = graphcore.SimpleGraph(q["n"], q["edges"])
            t1 = clock()
            rec = buildkit.recognize(g)
            t2 = clock()
            dec = decomp.decompose_graph(g)
            t3 = clock()
            routes = exhaustive.routes(q["n"], q["mask"]) if q["mask"] is not None else None
            results.append((rec, dec, routes))
            split[f"recognize.{q['kind']}"] += t2 - t1
            split[f"decompose.{q['kind']}"] += t3 - t2
            latencies.append(clock() - t0)
        except Exception as e:  # an operation that raises counts as failed, untimed
            results.append(f"{type(e).__name__}: {e}")
            latencies.append(None)
    return clock() - start, latencies, results


def _serialize(results: list) -> list:
    out = []
    for r in results:
        if isinstance(r, str):
            out.append({"error": r})
        else:
            rec, dec, routes = r
            out.append(
                {
                    "recognition": _recognition(rec),
                    "decomposition": _decomposition(dec),
                    "routes": list(routes) if routes is not None else None,
                }
            )
    return out


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sequence_decomposition(q: dict) -> dict:
    degs = [0] * q["n"]
    for u, v in q["edges"]:
        degs[u] += 1
        degs[v] += 1
    dec = decomp.decompose_sequence(degs)
    return {
        "heads": [[list(h.clique_terms), list(h.independent_terms)] for h in dec.heads],
        "tail": list(dec.tail),
    }


def run_queries(job: dict) -> dict:
    graphs = job["graphs"]
    kinds = sorted({q["kind"] for q in graphs})
    split = {f"{op}.{k}": 0.0 for op in ("recognize", "decompose") for k in kinds}
    cpus = job["cpus"]
    wall, rounds, failed = 0.0, [], 0
    first = None
    consistent = True
    while len(rounds) < job["min_rounds"] or wall < job["seconds"]:
        dt, lat, results = _round(graphs, split, cpus[len(rounds) % len(cpus)])
        wall += dt
        rounds.append(lat)
        failed += sum(isinstance(r, str) for r in results)
        serial = _serialize(results)
        if first is None:
            first = serial
        consistent = consistent and serial == first
    reply = {
        "peak_rss_mb": _peak_rss_mb(),
        "latencies": rounds,
        "failed": failed,
        "outputs": first,
        "consistent": consistent,
        "sequence_decompositions": [_sequence_decomposition(q) for q in graphs],
    }
    if job["trace"]:
        from tracer import Tracer

        split = dict.fromkeys(split, 0.0)
        tracer = Tracer()
        tracer.install()
        traced_wall = 0.0
        try:
            for i in range(len(rounds)):
                traced_wall += _round(graphs, split, cpus[i % len(cpus)])[0]
        finally:
            tracer.uninstall()
        reply.update(trace=tracer.summary(), split=split, overhead_s=traced_wall - wall)
    return reply


def run_cli(job: dict) -> dict:
    os.sched_setaffinity(0, {job["cpu"]})
    out = io.StringIO()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
    except Exception as e:  # a command that raises counts as failed
        code = f"{type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    reply = {"exit": code, "stdout": out.getvalue(), "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        reply["trace"] = tracer.summary()
    return reply


def main() -> None:
    print(json.dumps({"backend": exhaustive.BACKEND, "import_s": IMPORT_S}), flush=True)
    text = sys.stdin.read()
    if not text:  # a worker started only to time its set-up
        return
    job = json.loads(text)
    if job["job"] == "queries":
        reply = run_queries(job)
    else:
        reply = run_cli(job)
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
