"""pwcalc benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload grid-qv --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; pwcalc is imported from its `src`.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1, the per-layer ones.
Every measurement runs in a fresh child process (worker.py), so import
time, thread count and peak memory belong to that process alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
MIN_TIMED = 4
# every worker is killed once this much time has passed since start
RUN_LIMIT_S = 170
_T0 = time.monotonic()


def remaining() -> float:
    return max(1.0, RUN_LIMIT_S - (time.monotonic() - _T0))


def host_probe() -> dict:
    """Each part of the reference work, timed three times, so a run that
    hit a noisy stretch of the host shows it."""

    def timed(fn):
        out = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            out.append(round(time.perf_counter() - t0, 6))
        return out

    return {f"{part.__name__}_s": timed(part) for part in reference.PARTS}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _command(mode: str, args, threads: int = 1):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PWCALC_THREADS=str(threads))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return cmd, env


def run_worker(mode: str, args) -> dict:
    """Run a one-shot worker to completion; return its last JSON line."""
    cmd, env = _command(mode, args)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=remaining())
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Server:
    """A `serve` worker at a fixed thread count, driven one pass at a time."""

    def __init__(self, args, threads: int):
        cmd, env = _command("serve", args, threads)
        self.threads = threads
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.passes = []

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker at {self.threads} threads ended early")
        return json.loads(line)

    def wait_ready(self):
        self._reply()

    def run_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        self.passes.append(self._reply())

    def finish(self) -> dict:
        self.proc.stdin.close()
        final = self._reply()
        self.proc.wait(timeout=remaining())
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def judge(passes: list, label: str) -> tuple[int, int, str]:
    """Passes attempted and failed for one workload and seed.

    A pass fails if it raised, failed a pathwise check, or its digest differs
    from the first pass's: every pass, whatever the thread count or tracing,
    must give the same report bytes.
    """
    ref = passes[0]["digest"]
    failed = 0
    for p in passes:
        failed += not p["ok"] or p["digest"] != ref
        if p["error"]:
            print(f"{label}: pass raised {p['error']}")
    return len(passes), failed, ref


def setup_sample(args) -> tuple[float, float]:
    """One fresh process's set-up time, scaled and raw."""
    before = reference.reference_s()
    res = run_worker("setup", args)
    after = reference.reference_s()
    src = (ROOT / "src").resolve()
    if not Path(res["pwcalc"]).resolve().is_relative_to(src):
        raise RuntimeError(f"pwcalc imported from {res['pwcalc']}, not from {src}")
    return reference.scaled(res["setup_s"], before, after), res["setup_s"]


def end_to_end(args) -> tuple[dict, int, int, bool]:
    # One process per thread count. Their passes alternate, and a fresh
    # set-up process runs after each round, so the host's drift over the run
    # hits every metric alike. The first round warms up and is not timed.
    servers = [Server(args, 1), Server(args, 2)]
    watchdog = threading.Timer(remaining(), lambda: [s.proc.kill() for s in servers])
    watchdog.start()
    setup = []
    try:
        for server in servers:
            server.wait_ready()
        started = None
        while True:
            for server in servers:
                server.run_pass()
            if started is None:
                started = time.perf_counter()
                continue
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args))
            # an even count, so the 1-thread passes cover each CPU equally
            timed = len(servers[0].passes) - 1
            if timed >= MIN_TIMED and timed % 2 == 0 \
                    and time.perf_counter() - started >= args.seconds:
                break
        for server in servers:
            server.finish()
    finally:
        watchdog.cancel()
        for server in servers:
            server.kill()
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))
    peak = run_worker("peak", args)
    t1, t2 = ([p["time"] for p in s.passes[1:]] for s in servers)
    attempted, failed, digest = judge(servers[0].passes + servers[1].passes + [peak],
                                      args.workload)
    for part, d in sorted(servers[0].passes[0]["parts"].items()):
        print(f"report sha256 {part}: {d}")
    print(f"workload sha256 {args.workload}: {digest} (all passes at 1 and 2 threads)")
    # times scaled by the reference work around them (reference.py), so
    # most of the host's drift cancels; the raw seconds are printed beside
    scaled = {"wall_s": [p["scaled"] for p in servers[0].passes[1:]],
              "wall_s_t2": [p["scaled"] for p in servers[1].passes[1:]],
              "setup_s": [s for s, _ in setup]}
    raw = {"wall_s": t1, "wall_s_t2": t2, "setup_s": [r for _, r in setup]}
    values = {name: statistics.median(samples) for name, samples in scaled.items()}
    values["peak_rss_mb"] = peak["maxrss_kb"] / 1024.0
    for name, samples in scaled.items():
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        r1, r2, r3 = statistics.quantiles(raw[name], n=4)
        print(f"{name}: median {q2:.4f} s, quartiles {q1:.4f} {q3:.4f}, n={len(samples)}; "
              f"raw median {r2:.4f} s, quartiles {r1:.4f} {r3:.4f}")
    print(f"peak_rss_mb: {values['peak_rss_mb']:.1f}")
    print(f"failed_ratio: {failed}/{attempted}")
    return values, attempted, failed, failed == 0


def per_layer(args) -> tuple[dict, int, int, bool]:
    res = run_worker("trace", args)
    attempted, failed, digest = judge(res["passes"], args.workload)
    print(f"workload sha256 {args.workload}: {digest} (untraced, traced and tracemalloc passes)")
    for line in res["selftest_mismatches"]:
        print(f"self-test: {line}")
    m = res["metrics"]
    layers = tracer.LAYERS[:-1]  # harness's self time is harness.run.self_s
    total = sum(m[f"{layer}.self_s"] for layer in layers) + m["harness.run.self_s"]
    for layer in layers:
        print(f"layer {layer:12s} self {m[f'{layer}.self_s']:.4f} s "
              f"({m[f'{layer}.self_s'] / total:6.1%}), incl {m[f'{layer}.incl_s']:.4f} s")
    print(f"layer {'harness':12s} self {m['harness.run.self_s']:.4f} s "
          f"({m['harness.run.self_s'] / total:6.1%})")
    ok = failed == 0 and not res["selftest_mismatches"]
    return m, attempted, failed, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "pwcalc" / "__init__.py").is_file():
        print(f"no pwcalc source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    print("env: " + json.dumps(environment()))
    print("host probe: " + json.dumps(host_probe()))
    measure = per_layer if args.trace else end_to_end
    values, attempted, failed, correct = measure(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
