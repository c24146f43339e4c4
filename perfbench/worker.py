"""One measuring process of the benchmark; run.py starts it.

    worker.py setup --workload W --seed N
    worker.py serve --workload W --seed N
    worker.py peak --workload W --seed N
    worker.py trace --workload W --seed N --seconds S

`setup` times `import pwcalc` plus building the workload, so it imports
nothing heavy before its clock starts, and prints one JSON line. `serve`
builds the workload, prints a JSON line when ready, then runs one untraced
pass per `pass` line on standard input and answers each with a JSON line.
It runs at the PWCALC_THREADS its caller set, and brackets each pass with
the reference work of reference.py to give its scaled time too. `peak`
runs one pass in a process that never loads the reference's arrays, and
prints it with the process's peak resident memory. `trace` runs the
self-test, then untraced and traced passes in turn at one thread, then one
pass under tracemalloc, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time


def one_pass(w, before=None, after=None) -> dict:
    """Run and time one pass, then check it outside the timed region.

    run.py fails a pass that raised, failed a pathwise check, or whose
    digest differs from the workload's other passes.
    """
    import workloads

    gc.collect()
    if before:
        before()
    t0 = time.perf_counter()
    try:
        outputs = workloads.run_pass(w)
    except Exception as exc:  # a failed pass is counted, not fatal
        outputs = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if after:
        after()
    if outputs is None:
        return {"time": elapsed, "digest": "", "ok": False, "error": error, "parts": {}}
    parts, ok = workloads.check(w, outputs)
    return {"time": elapsed, "digest": workloads.pass_digest(parts), "ok": ok, "error": None,
            "parts": parts}


def _setup(args):
    t0 = time.perf_counter()
    import pwcalc
    import workloads

    workloads.build(args.workload, args.seed)
    _emit({"setup_s": time.perf_counter() - t0, "pwcalc": pwcalc.__file__})


def _peak(args):
    import resource

    import workloads

    result = one_pass(workloads.build(args.workload, args.seed))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(result)


def _serve(args):
    import os

    import reference
    import workloads

    w = workloads.build(args.workload, args.seed)
    # Each CPU of a shared host runs at its own, drifting speed. A process on
    # one thread would time whichever CPU the scheduler left it on, so its
    # passes take the allowed CPUs in turn.
    cpus = sorted(os.sched_getaffinity(0)) if os.environ.get("PWCALC_THREADS") == "1" else []
    reference.reference_s()  # warm-up
    _emit({"ready": True})
    for i, line in enumerate(sys.stdin):
        if line.strip() != "pass":
            break
        if cpus:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        before = reference.reference_s()
        result = one_pass(w)
        result["scaled"] = reference.scaled(result["time"], before, reference.reference_s())
        _emit(result)
    _emit({"done": True})


def _selftest(tr, seed: int) -> list:
    import pwcalc
    import workloads

    mismatches = []
    for experiment, expected in workloads.SELFTEST:
        tr.reset()
        tr.enabled = True
        try:
            pwcalc.run(workloads.experiment_config(experiment, seed, 2))
        finally:
            tr.enabled = False
        for span, n in expected.items():
            if tr.calls[span] != n:
                mismatches.append(f"{experiment}: {span} called {tr.calls[span]} times, expected {n}")
    return mismatches


def _trace(args):
    import statistics
    import tracemalloc

    import tracer
    import workloads

    w = workloads.build(args.workload, args.seed)
    tr = tracer.Tracer()
    tr.install()
    mismatches = _selftest(tr, args.seed)
    samples = []

    def start():
        tr.reset()
        tr.enabled = True

    def stop():
        tr.enabled = False
        samples.append(tr.metrics())

    # untraced and traced passes alternate, so host drift hits both alike;
    # the first round warms up and is not timed
    plain, traced = [one_pass(w)], [one_pass(w, start, stop)]
    samples.clear()
    started = time.perf_counter()
    while len(plain) < 3 or time.perf_counter() - started < args.seconds:
        plain.append(one_pass(w))
        traced.append(one_pass(w, start, stop))
    metrics = tracer.median_metrics(samples)

    def start_memory():
        tr.reset()
        tr.memory = tr.enabled = True
        tracemalloc.start()

    def stop_memory():
        tracemalloc.stop()
        tr.memory = tr.enabled = False

    memory = one_pass(w, start_memory, stop_memory)
    tr.uninstall()
    for name in tracer.PEAK_SPANS:
        metrics[f"{name}.peak_mb"] = tr.peak_mb[name]
    metrics["trace.overhead_s"] = statistics.median(
        p["time"] for p in traced[1:]
    ) - statistics.median(p["time"] for p in plain[1:])
    _emit({"metrics": metrics, "selftest_mismatches": mismatches,
           "passes": plain + traced + [memory]})


def _emit(obj):
    print(json.dumps(obj), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "serve", "peak", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    {"setup": _setup, "serve": _serve, "peak": _peak, "trace": _trace}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
