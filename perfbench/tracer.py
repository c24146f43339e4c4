"""Per-layer spans recorded from outside pwcalc.

The tracer wraps each layer module's public functions, plus the private
kernels the benchmark names, and rebinds every module-level name in the
pwcalc package that refers to one of them. A function is often bound under
several names (`lebesgue_sequence` in partitions, quadvar, harness and the
package; `_grid_hits` in partitions, truncvar and integration), and wrapping
only the defining module would miss the calls that go through the others.
Imports inside function bodies look the module attribute up at call time,
so they reach the wrappers too.

A span's self time is its duration minus the full wall time of the spans it
encloses, the tracer's own bookkeeping in them included, so bookkeeping
never lands in any layer's self time. It lands in `trace.overhead_s`. The
spans keep one stack, so the traced pass runs at PWCALC_THREADS=1.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import tracemalloc
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("paths", "partitions", "quadvar", "bdg", "integration", "truncvar", "harness")
PRIVATE_KERNELS = {"partitions": ("_grid_hits",), "truncvar": ("_ttv_batch",)}
# spans whose peak traced allocation the memory pass records
PEAK_SPANS = ("partitions._grid_hits", "bdg.certificate_p")
# certificate_p self time is split at this sequence length: bdg's dense
# O(K^2)-memory kernel runs up to it, a per-index loop above it
DENSE_K = 1200
_MB = 2.0**20


def _path_key(path) -> bytes:
    """Content key of a sampled path. id() would be recycled: the harness
    frees each member's path after use."""
    h = hashlib.blake2b(digest_size=16)
    h.update(path.times)
    h.update(path.values)
    return h.digest()


def _grid_hits(t, a, result):
    t.counts["partitions.samples"] += len(a["path"])
    t.counts["partitions.stops"] += len(result[0])
    t.keys["partitions._grid_hits"].add((_path_key(a["path"]), a["d"], a["r"]))


def _stamps(t, a, result):
    t.counts["quadvar.stamps"] += len(result)


# per-span counters, run after a successful call with its bound arguments
_COUNTERS = {
    "paths.generate": lambda t, a, r: t.counts.update({"paths.samples": len(r)}),
    "partitions._grid_hits": _grid_hits,
    "quadvar.qv_at": _stamps,
    "quadvar.qcov_at": _stamps,
    "bdg.certificate_p": lambda t, a, r: t.counts.update({"bdg.cells": len(a["x"]) ** 2}),
    "integration.step_approximation": lambda t, a, r: t.keys[
        "integration.step_approximation"
    ].add((_path_key(a["f"]), a["m"])),
    "truncvar._ttv_batch": lambda t, a, r: t.counts.update(
        {"truncvar.ttv_cells": int(a["values"].shape[0]) * int(a["values"].shape[1])}
    ),
    "harness.run": lambda t, a, r: t.counts.update({"harness.members": a["config"].ensemble_size}),
}

# span name suffix chosen from the arguments before the call
_LABELS = {
    "bdg.certificate_p": lambda a: ".small_k" if len(a["x"]) <= DENSE_K else ".large_k",
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.memory = False
        self._rebound = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost spans of a name or a layer
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.peak_mb = defaultdict(float)
        self._stack = []  # time spent in enclosed spans, one entry per open span
        self._open = Counter()

    # ------------------------------------------------------------------ install

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pwcalc.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in PRIVATE_KERNELS.get(layer, ()))
                ):
                    wrappers[obj] = self._wrap(layer, obj)
        for name, mod in list(sys.modules.items()):
            if name != "pwcalc" and not name.startswith("pwcalc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        count = _COUNTERS.get(name)
        label = _LABELS.get(name)
        sig = inspect.signature(fn) if count or label else None
        peak = name in PEAK_SPANS
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = perf_counter()
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            key = name + label(bound) if label else name
            stack, opened = tracer._stack, tracer._open
            stack.append(0.0)
            opened[key] += 1
            opened[layer] += 1
            mem = peak and tracer.memory
            if mem:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                dur = end - start
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - stack.pop()
                for k in (key, layer):
                    opened[k] -= 1
                    if opened[k] == 0:
                        tracer.incl_s[k] += dur
                if mem:
                    used = (tracemalloc.get_traced_memory()[1] - base) / _MB
                    tracer.peak_mb[name] = max(tracer.peak_mb[name], used)
                if ok and count:
                    count(tracer, bound, result)
                if stack:
                    stack[-1] += perf_counter() - enter
            return result

        return span

    # ------------------------------------------------------------------ metrics

    def unique_ratio(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since the last reset.

        Ratios with nothing to divide by are 0.
        """
        s, c = self.self_s, self.calls
        m = {
            "paths.generate.self_s": s["paths.generate"],
            "paths.samples": self.counts["paths.samples"],
            "paths.evaluate_many.self_s": s["paths.evaluate_many"],
            "paths.evaluate_many.calls": c["paths.evaluate_many"],
            "partitions._grid_hits.self_s": s["partitions._grid_hits"],
            "partitions._grid_hits.calls": c["partitions._grid_hits"],
            "partitions.lebesgue_sequence.self_s": s["partitions.lebesgue_sequence"],
            "partitions.stops": self.counts["partitions.stops"],
            "partitions.stops_per_sample": _ratio(
                self.counts["partitions.stops"], self.counts["partitions.samples"]
            ),
            "partitions.unique_ratio": self.unique_ratio("partitions._grid_hits"),
            "partitions.merge.self_s": s["partitions.merge"],
            "partitions._grid_hits.peak_mb": self.peak_mb["partitions._grid_hits"],
            "quadvar.simple_qv.self_s": s["quadvar.simple_qv"],
            "quadvar.sup_distance.self_s": s["quadvar.sup_distance"],
            "quadvar.qv_at.self_s": s["quadvar.qv_at"],
            "quadvar.qv_estimate_dyadic.calls": c["quadvar.qv_estimate_dyadic"],
            "quadvar.stamps": self.counts["quadvar.stamps"],
            "bdg.certificate_p.small_k.self_s": s["bdg.certificate_p.small_k"],
            "bdg.certificate_p.large_k.self_s": s["bdg.certificate_p.large_k"],
            "bdg.certificate_p1.self_s": s["bdg.certificate_p1"],
            "bdg.cells": self.counts["bdg.cells"],
            "bdg.certificate_p.peak_mb": self.peak_mb["bdg.certificate_p"],
            "integration.step_approximation.self_s": s["integration.step_approximation"],
            "integration.step_approximation.calls": c["integration.step_approximation"],
            "integration.step_approximation.unique_ratio": self.unique_ratio(
                "integration.step_approximation"
            ),
            "integration.capital_process.self_s": s["integration.capital_process"],
            "integration.empirical_dqv.self_s": s["integration.empirical_dqv"],
            "integration.empirical_dinf.self_s": s["integration.empirical_dinf"],
            "integration.model_free_integral.self_s": s["integration.model_free_integral"],
            "truncvar._ttv_batch.self_s": s["truncvar._ttv_batch"],
            "truncvar.ttv_cells": self.counts["truncvar.ttv_cells"],
            "truncvar.ttv_sweep.self_s": s["truncvar.ttv_sweep"],
            "truncvar.ttv_sweep.calls": c["truncvar.ttv_sweep"],
            "truncvar.transition_count.self_s": s["truncvar.transition_count"],
            # all harness work happens inside run, so the layer's self time
            # is the time in run outside every other layer's spans
            "harness.run.self_s": self.layer_self("harness"),
            "harness.serial_share": 1.0
            - _ratio(self.incl_s["harness.parallel_map"], self.incl_s["harness.run"]),
            "harness.members": self.counts["harness.members"],
        }
        for layer in LAYERS[:-1]:
            m[f"{layer}.self_s"] = self.layer_self(layer)
            m[f"{layer}.incl_s"] = self.incl_s[layer]
        return m

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def median_metrics(samples: list) -> dict:
    """Median of each metric over traced passes; counts stay whole numbers."""
    out = {}
    for k in samples[0]:
        vals = [m[k] for m in samples]
        ints = all(isinstance(v, int) for v in vals)
        out[k] = statistics.median_low(vals) if ints else statistics.median(vals)
    return out
