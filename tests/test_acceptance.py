"""Acceptance gate: every standing correctness and convergence claim.

Criteria 1-6 are exact pathwise theorems checked on fixed-seed corpora with
zero tolerated violations. Criteria 7-12 are ensemble convergence claims run
at the default experiment configurations. Each test prints one verdict line;
run with `pytest tests/test_acceptance.py -v -s` to see them all.
"""

import time

import numpy as np
import pytest

from pwcalc import (
    GridSpec,
    PathGeneratorConfig,
    SampledPath,
    StoppingSequence,
    banach_indicatrix_integral,
    bdg_witness_strategy,
    capital_process,
    certificate_p,
    certificate_p1,
    certify_path,
    default_config,
    evaluate_many,
    generate,
    lebesgue_sequence,
    merge_error_bound_check,
    run,
    ttv_dp_oracle,
    ttv_sweep,
    witness_identity_gap,
)
from pwcalc import harness

_CORPUS_SEED = 20260816


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"missing check {name}")


# ---------------------------------------------------------------- corpora


@pytest.fixture(scope="module")
def sequence_corpus():
    rng = np.random.default_rng(_CORPUS_SEED)
    out = []
    for _ in range(10_000):
        k = int(rng.integers(1, 65))
        law = int(rng.integers(0, 4))
        if law == 0:
            inc = rng.standard_normal(k)
        elif law == 1:
            inc = rng.laplace(0.0, 1.0, size=k)
        elif law == 2:
            inc = rng.uniform(-2.0, 2.0, size=k)
        else:
            inc = rng.standard_t(3, size=k)
        inc[rng.random(k) < 0.1] = 0.0
        out.append(float(rng.uniform(0.1, 3.0)) * np.cumsum(inc))
    return out


@pytest.fixture(scope="module")
def path_pairs():
    rng = np.random.default_rng(_CORPUS_SEED + 1)
    kinds = ("wiener", "geometric", "custom-seeded")
    pairs = []
    for i in range(1_000):
        cfg = PathGeneratorConfig(
            kinds[i % 3],
            step=2.0**-8,
            seed=90_000 + i,
            volatility=float(rng.uniform(0.5, 1.5)),
        )
        x = generate(cfg)
        spread = float(np.max(x.values) - np.min(x.values))
        d = max(spread, 1e-6) * float(rng.uniform(0.08, 0.4))
        r = float(rng.uniform(0.0, d)) % d
        pairs.append((x, lebesgue_sequence(x, GridSpec(d, r))))
    return pairs


# ------------------------------------------------- default experiment runs


def _run_preset(name):
    """The experiment at its preset, on every CPU the process may use: reports
    do not depend on the thread count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PWCALC_THREADS", str(harness._usable_cpus()))
        return run(default_config(name))


@pytest.fixture(scope="module")
def sandwich_run():
    t0 = time.perf_counter()
    rep = _run_preset("sandwich")
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qv_run():
    return _run_preset("qv-converge")


@pytest.fixture(scope="module")
def ttv_run():
    return _run_preset("ttv-converge")


@pytest.fixture(scope="module")
def rates_run():
    return _run_preset("distance-rates")


@pytest.fixture(scope="module")
def integral_run():
    return _run_preset("integral-converge")


@pytest.fixture(scope="module")
def isometry_run():
    return _run_preset("isometry-mc")


# ------------------------------------------------------------- criteria


def test_criterion_01_bdg_p1_zero_violations(sequence_corpus, path_pairs):
    t0 = time.perf_counter()
    violations = 0
    for x in sequence_corpus:
        if not certificate_p1(x).holds:
            violations += 1
    for x, seq in path_pairs:
        if not certify_path(x, seq, 1.0).holds:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"maximal-inequality certificates p=1 on 11000 cases: "
        f"{violations} violations, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_bdg_p_above_one_zero_violations(sequence_corpus, path_pairs):
    t0 = time.perf_counter()
    violations = 0
    for p in (1.5, 2.0, 3.0):
        for x in sequence_corpus:
            if not certificate_p(x, p).holds:
                violations += 1
        for x, seq in path_pairs:
            if not certify_path(x, seq, p).holds:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    assert _verdict(
        2,
        ok,
        f"certificates p in (1.5, 2, 3) on 11000 cases x 3: "
        f"{violations} violations, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_merge_bound_zero_violations():
    rng = np.random.default_rng(_CORPUS_SEED + 2)
    t0 = time.perf_counter()
    violations = 0
    for i in range(1_000):
        kind = ("wiener", "custom-seeded")[i % 2]
        x = generate(PathGeneratorConfig(kind, step=2.0**-8, seed=40_000 + i))
        base = max(float(np.max(x.values) - np.min(x.values)), 1e-6)
        d = base * float(rng.uniform(0.03, 0.12))
        sigma = lebesgue_sequence(x, GridSpec(d))
        if i % 2 == 0:
            dp = base * float(rng.uniform(0.02, 0.5))
            tau = lebesgue_sequence(x, GridSpec(dp, float(rng.uniform(0.0, dp)) % dp))
        else:
            k = int(rng.integers(1, 40))
            ts = np.unique(np.concatenate(([0.0], rng.uniform(0.0, 1.0, size=k))))
            tau = StoppingSequence(ts, evaluate_many(x, ts), x.horizon)
        if not merge_error_bound_check(x, sigma, tau, 2.0 * d).holds:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    assert _verdict(
        3,
        ok,
        f"4*delta^2 merge bound on 1000 triples: "
        f"{violations} violations, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_04_banach_indicatrix_identity():
    rng = np.random.default_rng(_CORPUS_SEED + 3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 201))
        law = int(rng.integers(0, 3))
        if law == 0:
            inc = rng.standard_normal(n - 1)
        elif law == 1:
            inc = rng.laplace(size=n - 1)
        else:
            inc = rng.uniform(-1.0, 1.0, size=n - 1)
        vals = float(rng.uniform(-1, 1)) + np.concatenate(([0.0], np.cumsum(inc)))
        p = SampledPath(np.arange(n, dtype=float), vals)
        c = float(rng.uniform(0.01, 0.6)) * max(float(vals.max() - vals.min()), 1e-6)
        ref = ttv_dp_oracle(p, c)
        gap = max(
            abs(ttv_sweep(p, c) - ref), abs(banach_indicatrix_integral(p, c) - ref)
        )
        worst = max(worst, gap / (1.0 + abs(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    assert _verdict(
        4,
        ok,
        f"sweep = indicatrix integral = DP oracle on 10000 instances: "
        f"worst relative gap {worst:.2e} (<= 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_sandwich_bounds(sandwich_run):
    rep, elapsed = sandwich_run
    chk = _check(rep, "sandwich-bounds-hold")
    ok = chk.passed and elapsed < 60.0
    assert _verdict(
        5,
        ok,
        f"variation sandwich m=3..8, 100 wiener seeds + zigzags: "
        f"{chk.details['failures']} failures, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_witness_identities():
    rng = np.random.default_rng(_CORPUS_SEED + 4)
    t0 = time.perf_counter()
    worst_qv = 0.0
    worst_bdg = 0.0
    kinds = ("wiener", "geometric", "custom-seeded")
    for i in range(1_000):
        x = generate(PathGeneratorConfig(kinds[i % 3], step=2.0**-8, seed=70_000 + i))
        base = max(float(np.max(x.values) - np.min(x.values)), 1e-6)
        d = base * float(rng.uniform(0.08, 0.4))
        seq = lebesgue_sequence(x, GridSpec(d, float(rng.uniform(0.0, d)) % d))
        hi = 1.0 + float(np.max(np.abs(x.values)))
        thr = hi if i % 2 == 0 else max(float(rng.uniform(0.3, 0.9)) * hi, 1e-6)
        worst_qv = max(worst_qv, witness_identity_gap(x, seq, thr))
        cert = certify_path(x, seq, 1.0)
        cap = capital_process(bdg_witness_strategy(x, seq, 1.0, hi), x)
        gap = float(np.max(np.abs(evaluate_many(cap, seq.times) - cert.hx)))
        worst_bdg = max(worst_bdg, gap)
        if i % 5 == 0:
            cert2 = certify_path(x, seq, 2.0)
            cap2 = capital_process(bdg_witness_strategy(x, seq, 2.0, hi), x)
            gap2 = float(np.max(np.abs(evaluate_many(cap2, seq.times) - cert2.gx)))
            worst_bdg = max(worst_bdg, gap2)
    elapsed = time.perf_counter() - t0
    ok = worst_qv <= 1e-9 and worst_bdg <= 1e-9
    assert _verdict(
        6,
        ok,
        f"witness identities on 1000 cases: qv gap {worst_qv:.2e}, "
        f"certificate-integral gap {worst_bdg:.2e} (<= 1e-9), {elapsed:.1f}s",
    )


def test_criterion_07_qv_convergence(qv_run):
    dec = _check(qv_run, "median-consecutive-gap-decreasing")
    term = _check(qv_run, "terminal-mean-matches-target")
    ok = dec.passed and term.passed
    meds = ", ".join(f"{m}:{v:.3f}" for m, v in dec.details["medians"].items())
    assert _verdict(
        7,
        ok,
        f"qv refinement on 200 wiener paths: median gaps [{meds}] "
        f"decreasing={dec.passed}; terminal mean {term.details['mean']:.3f} "
        f"vs {term.details['target']:.1f}, z={term.details['z']:.1f} "
        f"(<= 3): {term.passed}",
    )


def test_criterion_08_ttv_convergence(ttv_run):
    dec = _check(ttv_run, "median-ttv-distance-decreasing")
    fin = _check(ttv_run, "final-ttv-distance-small")
    ok = dec.passed and fin.passed
    assert _verdict(
        8,
        ok,
        f"threshold-variation estimates m=4..12: decreasing={dec.passed}; "
        f"final median {fin.details['final_median']:.4f} (< 0.05): {fin.passed}",
    )


def test_criterion_09_step_approximation_rate(rates_run):
    checks = [c for c in rates_run.checks if c.name.startswith("dqv-rate-m=")]
    assert len(checks) == 9
    ok = all(c.passed for c in checks)
    worst = max(c.details["dqv"] - c.details["bound"] for c in checks)
    assert _verdict(
        9,
        ok,
        f"step-approximation distance <= 12.5*2^-m + 3 SE for m=0..8: "
        f"{sum(c.passed for c in checks)}/9 within bound, worst margin {worst:.2e}",
    )


def test_criterion_10_integration_continuity(rates_run):
    checks = [c for c in rates_run.checks if c.name.startswith("continuity-m=")]
    assert len(checks) == 9
    ok = all(c.passed for c in checks)
    failing = [c.name for c in checks if not c.passed]
    assert _verdict(
        10,
        ok,
        f"integral distance <= 6x integrand distance + 3 SE: "
        f"{sum(c.passed for c in checks)}/9 pairs within bound"
        + (f", failing: {failing}" if failing else ""),
    )


def test_criterion_11_covariation_of_integrals(integral_run):
    chk = _check(integral_run, "covariation-identity-refines")
    meds = ", ".join(f"{j}:{v:.4f}" for j, v in chk.details["medians"].items())
    assert _verdict(
        11,
        chk.passed,
        f"covariation identity under refinement: medians [{meds}], "
        f"final < 0.02 and decreasing: {chk.passed}",
    )


def test_criterion_12_isometry_monte_carlo(isometry_run):
    chk = _check(isometry_run, "isometry-means-agree")
    assert _verdict(
        12,
        chk.passed,
        f"displacement^2 vs qv means on 10000 wiener paths: "
        f"{chk.details['mean_displacement_sq']:.4f} vs {chk.details['mean_qv']:.4f}, "
        f"paired z={chk.details['z']:.1f} (<= 3)",
    )
