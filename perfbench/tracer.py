"""Per-layer tracing applied from outside the program.

``Tracer.install`` replaces every public module-level function of each
wtgraph layer with a wrapper that counts calls and accounts time.  The
package's modules call one another through module attributes
(``gc.find_forbidden(...)``) and their own globals, so the wrappers see
calls between layers and within one.  The scan kernel ``_pyscan`` is
private to ``exhaustive`` and stays inside its spans.

A span's self time is its duration minus the durations of the wrapped
calls made under it.  Spans live in memory; ``summary`` hands them out
as plain data when the traced work is over.
"""

import functools
import importlib
import time

LAYERS = ("seqcore", "graphcore", "majorize", "decomp", "buildkit", "census", "exhaustive", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.witnesses = 0
        self.codes: set = set()
        self.masks = 0
        self._open: list[float] = []
        self._saved: list = []
        # results some metrics are made of: witnesses found, distinct
        # canonical codes, and the masks a scan walked
        self._observers = {
            "graphcore.find_forbidden": self._count_witness,
            "graphcore.canonical_form": self.codes.add,
            "exhaustive.scan_all": self._count_masks,
        }

    def _count_witness(self, result):
        self.witnesses += result is not None

    def _count_masks(self, result):
        self.masks += result.total

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"wtgraph.{layer}")
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        st = self.stats.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
        opened = self._open
        observe = self._observers.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = opened.pop()
                if opened:
                    opened[-1] += dt
                st["calls"] += 1
                st["self_s"] += dt - children
                st["total_s"] += dt
                st["max_s"] = max(st["max_s"], dt)
            if observe is not None:
                observe(result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "functions": {k: v for k, v in self.stats.items() if v["calls"]},
            "witnesses": self.witnesses,
            "distinct_codes": len(self.codes),
            "masks": self.masks,
        }
