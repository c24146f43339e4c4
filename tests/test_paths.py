"""Paths: construction, interpolation, exact hitting solves, generators."""

import hashlib
import json
import math
import platform
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwcalc import (
    INFINITE_TIME,
    DiscreteSequence,
    ExperimentConfig,
    GridSpec,
    PathGeneratorConfig,
    ResourceLimitError,
    SampledPath,
    StepProcess,
    StoppingSequence,
    capital_process,
    cli,
    evaluate,
    evaluate_many,
    generate,
    hitting_time_abs,
    lebesgue_sequence,
    qv_at,
    harness,
    run,
    simple_qv,
    step_approximation,
)
from pwcalc import paths
from pwcalc.paths import _exit_times

ZIGZAG3 = SampledPath(np.arange(4.0), np.asarray([0.0, 1.0, 0.0, 1.0]))


def _bits(v: float) -> bytes:
    return struct.pack("d", v)


def test_rejects_bad_samples():
    with pytest.raises(ValueError):
        SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0]))
    with pytest.raises(ValueError):
        SampledPath(np.asarray([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledPath(np.asarray([0.5, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, math.nan]))
    with pytest.raises(ValueError):
        SampledPath(np.asarray([], dtype=float), np.asarray([], dtype=float))


def test_single_sample_path():
    p = SampledPath(np.zeros(1), np.asarray([2.5]))
    assert p.horizon == 0.0
    assert len(p) == 1
    assert evaluate(p, 0.0) == 2.5


def _inputs(kind):
    """Fresh writeable arrays for one value of the kind."""
    t, v = np.asarray([0.0, 1.0, 2.0]), np.asarray([0.0, 1.0, -1.0])
    return (t, v) if kind in ("path", "stops") else (v,)


def _build(kind, arrays):
    if kind == "path":
        return SampledPath(*arrays)
    if kind == "stops":
        return StoppingSequence(*arrays, 2.0)
    if kind == "step":
        return StepProcess(StoppingSequence(np.asarray([0.0, 1.0, 2.0]), np.zeros(3), 2.0), *arrays)
    return DiscreteSequence(*arrays)


def _held(value):
    names = ("times", "values", "x", "abs_max", "bracket")
    return [getattr(value, n) for n in names if hasattr(value, n)]


@pytest.mark.parametrize("kind", ["path", "stops", "step", "sequence"])
def test_no_caller_can_mutate_a_value(kind):
    inputs = _inputs(kind)
    value = _build(kind, inputs)
    held = _held(value)
    # the value's arrays and the caller's are one frozen memory
    assert all(np.shares_memory(a, b) for a, b in zip(held, inputs))
    for a in held + list(inputs):
        with pytest.raises(ValueError):
            a[0] = 5.0
    # a read-only input is accepted, and its writeable base cannot reach the value
    bases = _inputs(kind)
    views = [b.view() for b in bases]
    for view in views:
        view.setflags(write=False)
    again = _build(kind, views)
    for b in bases:
        b[0] = 5.0
    assert all(np.array_equal(a, b) for a, b in zip(_held(again), held))


def test_derived_sequence_arrays_are_not_arguments():
    with pytest.raises(TypeError):
        DiscreteSequence(np.zeros(2), abs_max=np.ones(2))
    with pytest.raises(TypeError):
        DiscreteSequence(np.zeros(2), bracket=np.ones(2))


def _chord():
    return generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=5))


def _bridge():
    return generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=5), bridge_level=2)


def _read_only_samples():
    t, v = np.linspace(0.0, 1.0, 9), np.cos(np.arange(9.0))
    t.setflags(write=False)
    v.setflags(write=False)
    return SampledPath(t, v)


@pytest.mark.parametrize(
    "make",
    [
        _chord,
        _bridge,
        lambda: simple_qv(_chord(), lebesgue_sequence(_chord(), GridSpec(2.0**-3))),
        lambda: capital_process(step_approximation(_chord(), 3), _chord()),
        _read_only_samples,
        lambda: SampledPath(np.linspace(0.0, 1.0, 17)[::2], np.arange(9.0)[::-1]),
    ],
    ids=["chord", "bridge", "qv-curve", "capital", "read-only-input", "strided-input"],
)
def test_interp_reads_the_samples_in_place(make, monkeypatch):
    # np.interp copies an argument it cannot write, a whole curve per call
    path, seen, interp = make(), [], np.interp

    def spy(x, xp, fp, *args, **kwargs):
        seen.append((xp, fp))
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    evaluate_many(path, np.asarray([0.0, 0.3, path.horizon]))
    evaluate(path, 0.5)
    assert len(seen) == 2
    for xp, fp in seen:
        assert xp.flags.writeable and fp.flags.writeable
        assert np.shares_memory(xp, path.times) and np.shares_memory(fp, path.values)


def test_evaluate_exact_at_samples_and_linear_between():
    assert evaluate(ZIGZAG3, 2.0) == 0.0
    assert evaluate(ZIGZAG3, 0.25) == 0.25
    assert evaluate(ZIGZAG3, 1.5) == 0.5
    with pytest.raises(ValueError):
        evaluate(ZIGZAG3, 3.5)
    with pytest.raises(ValueError):
        evaluate(ZIGZAG3, -0.1)


def test_evaluate_many_matches_scalar():
    ts = np.linspace(0.0, 3.0, 17)
    many = evaluate_many(ZIGZAG3, ts)
    assert np.array_equal(many, [evaluate(ZIGZAG3, t) for t in ts])


def test_hitting_time_solved_on_segment():
    line = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
    assert hitting_time_abs(line, 0.3) == 0.3
    down = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, -1.0]))
    assert hitting_time_abs(down, 0.5) == 0.5


def test_hitting_time_start_and_miss():
    assert hitting_time_abs(ZIGZAG3, 2.0) == INFINITE_TIME
    # already at or past the level at time 0: the start itself is the hit
    high = SampledPath(np.asarray([0.0, 1.0]), np.asarray([-0.5, 0.0]))
    assert hitting_time_abs(high, 0.5) == 0.0
    with pytest.raises(ValueError):
        hitting_time_abs(ZIGZAG3, 0.0)


def _hitting_time_reference(path, threshold):
    """hitting_time_abs as it was with a start argument, at start 0."""
    start = 0.0
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    v0 = evaluate(path, start)
    if abs(v0) >= threshold:
        return float(start)
    t, v = path.times, path.values
    i0 = int(np.searchsorted(t, start, side="right"))
    a = np.concatenate(([v0], v[i0:-1])) if i0 < t.size else np.asarray([v0])
    b = v[i0:] if i0 < t.size else np.asarray([], dtype=np.float64)
    if b.size == 0:
        return INFINITE_TIME
    ta = np.concatenate(([start], t[i0:-1]))
    tb = t[i0:]
    hit = np.maximum(np.abs(a), np.abs(b)) >= threshold
    if not np.any(hit):
        return INFINITE_TIME
    i = int(np.argmax(hit))
    aa, bb, t0, t1 = a[i], b[i], ta[i], tb[i]
    cands = []
    for lvl in (threshold, -threshold):
        if (bb - aa) != 0.0:
            th = (lvl - aa) / (bb - aa)
            if 0.0 <= th <= 1.0:
                cands.append(t0 + (t1 - t0) * th)
    if not cands:
        return float(t0)
    return float(min(cands))


@st.composite
def _paths_and_levels(draw):
    n = draw(st.integers(1, 25))
    grid = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5])
    steps = draw(st.lists(st.one_of(grid, st.floats(-2, 2)), min_size=n, max_size=n))
    # a running sum of grid steps has flat runs and samples exactly on levels
    vals = np.cumsum(steps) if draw(st.booleans()) else np.asarray(steps)
    gaps = draw(st.lists(st.floats(1e-3, 2), min_size=n - 1, max_size=n - 1))
    path = SampledPath(np.concatenate(([0.0], np.cumsum(gaps))), vals)
    on_samples = [abs(float(x)) for x in vals if x != 0.0]
    level = st.one_of(
        st.sampled_from(on_samples) if on_samples else st.just(0.5),
        st.sampled_from([0.5, 1.0, 1.5, 1e3]),  # 1e3: above every |X|, never reached
        st.floats(1e-6, 8),
    )
    return path, draw(st.lists(level, min_size=1, max_size=12))


@given(case=_paths_and_levels())
@example(case=(ZIGZAG3, [1.0, 0.5, 2.0, 1.0]))
@example(case=(SampledPath(np.zeros(1), np.asarray([0.75])), [0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_exit_times_are_bitwise_the_segment_solver(case):
    path, levels = case
    got = _exit_times(path, levels)
    want = np.asarray([_hitting_time_reference(path, lv) for lv in levels])
    assert got.tobytes() == want.tobytes()
    for lv, t in zip(levels, got):
        assert _bits(hitting_time_abs(path, lv)) == _bits(float(t))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_exit_times_refuse_non_positive_levels(bad):
    with pytest.raises(ValueError, match="threshold must be positive"):
        _exit_times(ZIGZAG3, [0.5, bad])
    with pytest.raises(ValueError, match="threshold must be positive"):
        hitting_time_abs(ZIGZAG3, bad)


@given(
    vals=st.lists(st.floats(-5, 5), min_size=2, max_size=30),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=60)
def test_interpolation_stays_between_segment_endpoints(vals, frac):
    p = SampledPath(np.arange(len(vals), dtype=float), np.asarray(vals))
    t = frac * p.horizon
    v = evaluate(p, t)
    i = min(int(t), len(vals) - 2)
    lo, hi = sorted((vals[i], vals[i + 1]))
    assert lo - 1e-12 <= v <= hi + 1e-12


@given(vals=st.lists(st.floats(-3, 3), min_size=2, max_size=30), th=st.floats(0.1, 4))
@settings(max_examples=60)
def test_hitting_time_is_the_first_hit(vals, th):
    p = SampledPath(np.arange(len(vals), dtype=float), np.asarray(vals))
    t = hitting_time_abs(p, th)
    if t == INFINITE_TIME:
        assert float(np.max(np.abs(p.values))) < th
    else:
        assert abs(evaluate(p, t)) >= th - 1e-9 * (1.0 + th)
        strictly_before = p.times < t
        assert np.all(np.abs(p.values[strictly_before]) < th + 1e-12)


def test_generator_determinism():
    cfg = PathGeneratorConfig("wiener", step=2.0**-4, seed=7)
    x1, x2 = generate(cfg), generate(cfg)
    assert np.array_equal(x1.values, x2.values)
    assert len(x1) == 17 and x1.values[0] == 0.0
    other = generate(PathGeneratorConfig("wiener", step=2.0**-4, seed=8))
    assert not np.array_equal(x1.values, other.values)


def test_generator_kinds():
    zig = generate(PathGeneratorConfig("zigzag", horizon=3.0, step=1.0))
    assert np.array_equal(zig.values, [0.0, 1.0, 0.0, 1.0])
    const = generate(PathGeneratorConfig("constant", drift=2.5))
    assert np.all(const.values == 2.5)
    geo = generate(PathGeneratorConfig("geometric", step=2.0**-4, seed=1))
    assert geo.values[0] == 1.0 and np.all(geo.values > 0)
    sine = generate(PathGeneratorConfig("sine", step=2.0**-4, volatility=2.0))
    assert sine.values[4] == pytest.approx(2.0, abs=1e-12)  # quarter-period peak
    cst = generate(PathGeneratorConfig("custom-seeded", step=2.0**-4, seed=3))
    assert cst.values[0] == 0.0 and len(cst) == 17


def test_wiener_drift_only_is_a_line():
    x = generate(PathGeneratorConfig("wiener", step=2.0**-4, volatility=0.0, drift=1.0))
    assert np.allclose(x.values, x.times, atol=1e-12)


def test_generator_validation():
    with pytest.raises(ValueError):
        PathGeneratorConfig("brownian")
    with pytest.raises(ValueError):
        PathGeneratorConfig("wiener", horizon=0.0)
    with pytest.raises(ValueError):
        PathGeneratorConfig("wiener", step=2.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"step": 5e-324},  # horizon / step overflows to inf
        {"step": 1e-310},
        {"horizon": math.inf},
        {"seed": -5},
        {"volatility": math.nan},  # generate would fail on non-finite values
        {"volatility": math.inf},
        {"drift": math.inf},
        {"drift": -math.inf},
    ],
)
def test_generator_edges_fail_when_the_config_is_built(kw):
    with pytest.raises(ValueError):
        PathGeneratorConfig("wiener", **kw)


def test_one_sample_limit_bounds_every_member(monkeypatch):
    # the limit is patched small, so no case allocates at full size
    monkeypatch.setattr(paths, "MAX_SAMPLES", 1024)
    for kind in paths.GENERATOR_KINDS:
        assert len(generate(PathGeneratorConfig(kind, step=2.0**-9))) == 513
    # 16 steps of 2^5 leaves, up to 3 samples a leaf: 1537 samples at most
    with pytest.raises(ResourceLimitError):
        generate(PathGeneratorConfig("wiener", step=2.0**-4), bridge_level=4)

    def allocated(*args, **kwargs):
        raise AssertionError("a member past the limit allocated its samples")

    # chord members are refused before their sample times are made
    monkeypatch.setattr(np, "linspace", allocated)
    for kind in paths.GENERATOR_KINDS:
        with pytest.raises(ResourceLimitError, match="limit 1024"):
            generate(PathGeneratorConfig(kind, step=2.0**-10))


# ------------------------------------------------ Brownian-bridge resolution


def _exit_stats(step, level, members):
    """First exit time from (-mesh, mesh) and its side, per member resolved
    on the mesh 2^-level."""
    times, sides = [], []
    for seed in range(members):
        cfg = PathGeneratorConfig("wiener", horizon=32 * step, step=step, seed=seed)
        seq = lebesgue_sequence(generate(cfg, bridge_level=level), GridSpec(2.0**-level))
        assert len(seq) > 1, "no exit before the horizon"
        times.append(seq.times[1])
        sides.append(seq.values[1] > 0.0)
    return np.asarray(times), np.asarray(sides)


def test_bridge_first_exit_mean_and_side():
    # mesh = sqrt(step): a chord member exits late, at a sample outside the band
    step, level = 2.0**-10, 5
    times, sides = _exit_stats(step, level, 2000)
    se = times.std(ddof=1) / math.sqrt(times.size)
    assert abs(times.mean() - 2.0 ** (-2 * level)) <= 3.0 * se  # mesh^2
    assert abs(sides.mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(sides.size)


def test_bridge_level_qv_matches_horizon():
    # mesh 2^-6 = sqrt(step)
    qv = []
    for seed in range(16):
        x = generate(PathGeneratorConfig("wiener", step=2.0**-12, seed=seed), bridge_level=6)
        qv.append(qv_at(x, lebesgue_sequence(x, GridSpec(2.0**-6)), np.asarray([x.horizon]))[0])
    qv = np.asarray(qv)
    assert abs(qv.mean() - 1.0) <= 3.0 * qv.std(ddof=1) / math.sqrt(qv.size)


def test_bridge_keeps_samples_and_is_deterministic():
    cfg = PathGeneratorConfig("wiener", step=2.0**-8, seed=4)
    x = generate(cfg)
    y = generate(cfg, bridge_level=3)
    assert len(y) > len(x)
    at = np.searchsorted(y.times, x.times)
    assert np.array_equal(y.times[at], x.times)
    assert np.array_equal(y.values[at], x.values)
    # every added sample is a touch, exactly on a level of 2^-3 Z
    touches = np.delete(y.values, at) * 2.0**3
    assert touches.size and np.array_equal(touches, np.round(touches))
    z = generate(cfg, bridge_level=np.int64(3))
    assert np.array_equal(y.times, z.times) and np.array_equal(y.values, z.values)


def test_bridge_resolved_members_are_pinned_bitwise():
    # tree depths 0, 1, 7 and 13: one leaf per step, two, and four blocks
    # of 128 and of 8192 leaves per step
    h = hashlib.sha256()
    for step, level, vol in ((2.0**-12, 6, 0.7), (2.0**-16, 8, 1.0), (2.0**-10, 8, 1.0),
                             (2.0**-4, 8, 1.0)):
        x = generate(PathGeneratorConfig("wiener", step=step, seed=5, volatility=vol), level)
        h.update(x.times.tobytes())
        h.update(x.values.tobytes())
    assert h.hexdigest() == "b1028c3486426fab30b2e6a35fda8e137730b05afc330cb86ce9337e27343cb4"


def test_a_bridge_resolved_member_holds_only_its_samples():
    # the output buffers are sized to the bound of 3 * leaves samples per
    # step; at step 2^-16 and level 8 a member uses about half of them
    cfg = PathGeneratorConfig("wiener", step=2.0**-16, seed=1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = generate(cfg, bridge_level=8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    samples = x.times.nbytes + x.values.nbytes
    assert abs(held - samples) <= 0.05 * samples


def test_no_bridge_level_is_the_chord_generator():
    cfg = PathGeneratorConfig("wiener", step=2.0**-10, seed=12, volatility=0.7, drift=0.3)
    n = 2**10
    rng = np.random.default_rng(12)
    inc = rng.standard_normal(n) * (0.7 * math.sqrt(1.0 / n)) + 0.3 / n
    for x in (generate(cfg), generate(cfg, bridge_level=None)):
        assert np.array_equal(x.times, np.linspace(0.0, 1.0, n + 1))
        assert np.array_equal(x.values, np.concatenate(([0.0], np.cumsum(inc))))


@pytest.mark.parametrize("kind", [k for k in paths.GENERATOR_KINDS if k != "wiener"])
def test_bridge_level_is_for_wiener_members_only(kind):
    with pytest.raises(ValueError, match=f"wiener paths only, not {kind}"):
        generate(PathGeneratorConfig(kind), bridge_level=4)


@pytest.mark.parametrize(
    "level", [-1024, 1075, -(2**70), 2**70], ids=["-1024", "1075", "-2^70", "2^70"]
)
def test_bridge_level_out_of_range_is_refused(level):
    # 2^-level must be a finite nonzero float
    with pytest.raises(ValueError, match=r"must be in \[-1023, 1074\]"):
        generate(PathGeneratorConfig("wiener"), bridge_level=level)


@pytest.mark.parametrize(
    "level", [4.0, np.float64(4.0), True, "4", (4,)],
    ids=["float", "numpy-float", "bool", "str", "tuple"],
)
def test_bridge_level_that_is_no_int_is_refused(level):
    with pytest.raises(TypeError, match="must be an int"):
        generate(PathGeneratorConfig("wiener"), bridge_level=level)


def test_a_bridge_grid_key_is_refused_as_unknown(tmp_path):
    # resolution is an argument of generate, never a generator setting
    said = "generator: unknown keys ['bridge_grid']"
    with pytest.raises(ValueError) as err:
        PathGeneratorConfig.from_json_dict({"kind": "wiener", "bridge_grid": [2.0**-4, 0.0]})
    assert str(err.value) == said
    with pytest.raises(TypeError):
        PathGeneratorConfig("wiener", bridge_grid=(2.0**-4, 0.0))
    doc = ExperimentConfig("isometry-mc", PathGeneratorConfig("wiener"), m_hi=4).to_json_dict()
    doc["generator"]["bridge_grid"] = [2.0**-4, 0.0]
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_json_dict(doc)
    assert str(err.value) == said
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli.main(["isometry-mc", "--config", str(f)])
    assert str(err.value.code) == f"{f}: {said}"


def test_bridge_resolved_isometry_is_thread_count_free(monkeypatch, pool_sizes):
    # members of 2^10 steps run serially; a cutoff of 2^10 puts them on a pool
    cfg = ExperimentConfig(
        "isometry-mc",
        PathGeneratorConfig("wiener", step=2.0**-10, seed=0),
        ensemble_size=6,
        m_hi=5,
    )
    reports = []
    for cutoff in (harness.PARALLEL_MIN_SAMPLES, 2**10):
        monkeypatch.setattr(harness, "PARALLEL_MIN_SAMPLES", cutoff)
        for threads in ("1", "2"):
            monkeypatch.setenv("PWCALC_THREADS", threads)
            reports.append(run(cfg).to_json_dict())
    assert pool_sizes == [2]
    assert all(r == reports[0] for r in reports)


def test_bridge_resolution_is_bounded():
    # leaves of mesh^2/4 on a grid 2^-12 under steps of 2^-8: 2^27 samples
    with pytest.raises(ResourceLimitError):
        generate(PathGeneratorConfig("wiener", step=2.0**-8), bridge_level=12)


def test_bridge_levels_at_the_extremes_fail_fast_or_keep_the_samples():
    cfg = PathGeneratorConfig("wiener", step=2.0**-4, seed=2)
    # mesh 2^1023: the leaf variance (1/mesh)^2 step underflows to 0, so no
    # level is touched
    x, y = generate(cfg, bridge_level=-1023), generate(cfg)
    assert x.times.tobytes() == y.times.tobytes()
    assert x.values.tobytes() == y.values.tobytes()
    # mesh 2^-1074: the leaf variance overflows a float
    with pytest.raises(ResourceLimitError):
        generate(cfg, bridge_level=1074)


def _curve_call():
    x = generate(PathGeneratorConfig("wiener", step=2.0**-16, seed=1))
    seq = lebesgue_sequence(x, GridSpec(2.0**-10, 0.0))
    return lambda: simple_qv(x, seq)


def _bridge_call():
    cfg = PathGeneratorConfig("wiener", step=2.0**-16, seed=1)
    return lambda: generate(cfg, bridge_level=8)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is set on glibc")
@pytest.mark.parametrize("make", [_curve_call, _bridge_call], ids=["simple-qv", "bridge"])
def test_freed_curve_memory_is_reused(make):
    # glibc's default maps each multi-megabyte curve or resolver array in
    # anew and unmaps it when freed: about 2.8k minor faults per simple_qv
    # call and 9.1k per resolved member here, against 0 once freed memory
    # stays in the process
    import resource

    call = make()
    call()
    calls = 10
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls < 300


def _raises(exc):
    def cdll(name):
        raise exc("no C library")

    return cdll


@pytest.mark.parametrize(
    "cdll",
    [_raises(OSError), _raises(TypeError), lambda name: object()],
    ids=["no-libc", "no-handle", "no-mallopt"],
)
def test_allocator_policy_is_skipped_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(paths.ctypes, "CDLL", cdll)
    assert paths._retain_freed_memory() is None
