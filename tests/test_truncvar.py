"""Truncated variation, crossing counts, transition sums, sandwich bounds."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pwcalc import (
    GridSpec,
    PathGeneratorConfig,
    SampledPath,
    banach_indicatrix_integral,
    crossing_profile,
    generate,
    sandwich_check,
    transition_count,
    ttv_dp_oracle,
    ttv_sweep,
)
from pwcalc import partitions, paths, truncvar
from pwcalc.partitions import _grid_hits
from pwcalc.paths import REL_TOL

ZIGZAG3 = SampledPath(np.arange(4.0), np.asarray([0.0, 1.0, 0.0, 1.0]))
ZIGZAG4 = SampledPath(np.arange(5.0), np.asarray([0.0, 1.0, 0.0, 1.0, 0.0]))


def _walk(vals):
    return SampledPath(np.arange(len(vals), dtype=float), np.asarray(vals))


def test_ttv_zigzag_thresholds():
    assert ttv_sweep(ZIGZAG3, 0.0) == 3.0
    assert ttv_sweep(ZIGZAG3, 0.25) == pytest.approx(2.25, abs=1e-12)
    assert ttv_sweep(ZIGZAG3, 0.5) == pytest.approx(1.5, abs=1e-12)
    assert ttv_sweep(ZIGZAG3, 1.0) == 0.0
    with pytest.raises(ValueError):
        ttv_sweep(ZIGZAG3, -0.1)


def test_ttv_window_interpolates_endpoints():
    # [0, 2.5] ends halfway up the last rise: 0 -> 1 -> 0 -> 0.5
    assert ttv_sweep(ZIGZAG3, 0.5, 2.5) == pytest.approx(1.0, abs=1e-12)
    assert ttv_sweep(ZIGZAG3, 0.25, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert ttv_sweep(ZIGZAG3, 0.0, 2.5) == 2.5
    assert ttv_sweep(ZIGZAG3, 0.0, 2.0) == 2.0
    assert ttv_sweep(ZIGZAG3, 0.0, 0.0) == 0.0
    assert ttv_sweep(ZIGZAG3, 0.5, 3.0) == ttv_sweep(ZIGZAG3, 0.5)
    for t in (3.5, -0.5, float("nan")):
        with pytest.raises(ValueError):
            ttv_sweep(ZIGZAG3, 0.1, t)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 30),
    end=st.floats(0.0, 1.0),
    where=st.sampled_from(["between", "sample", "zero", "horizon"]),
)
@settings(max_examples=100, deadline=None)
def test_window_values_are_bitwise_the_interpolated_window(seed, n, end, where):
    rng = np.random.default_rng(seed)
    times = np.union1d([0.0], rng.uniform(0.0, 3.0, n))
    path = SampledPath(times, rng.normal(size=times.size))
    t = {
        "between": end * path.horizon,
        "sample": times[rng.integers(times.size)],
        "zero": 0.0,
        "horizon": path.horizon,
    }[where]
    inner = path.times[(path.times > 0.0) & (path.times < t)]
    ref = paths.evaluate_many(path, np.concatenate(([0.0], inner, [t])))
    assert truncvar._window_values(path, t).tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        truncvar._window_values(path, np.nextafter(path.horizon, np.inf))


@given(vals=st.lists(st.floats(-4, 4), min_size=2, max_size=50), c=st.floats(0, 3))
@settings(max_examples=60, deadline=None)
def test_sweep_equals_dp_oracle(vals, c):
    p = _walk(vals)
    a, b = ttv_sweep(p, c), ttv_dp_oracle(p, c)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


@given(vals=st.lists(st.floats(-4, 4), min_size=2, max_size=50), c=st.floats(0.05, 2))
@settings(max_examples=60, deadline=None)
def test_banach_identity(vals, c):
    p = _walk(vals)
    a, b = banach_indicatrix_integral(p, c), ttv_sweep(p, c)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


@given(
    vals=st.lists(st.floats(-4, 4), min_size=2, max_size=40),
    c1=st.floats(0, 1),
    c2=st.floats(0, 1),
)
@settings(max_examples=40)
def test_ttv_monotone_in_threshold(vals, c1, c2):
    lo, hi = sorted((c1, c2))
    p = _walk(vals)
    assert ttv_sweep(p, hi) <= ttv_sweep(p, lo) + 1e-12


@given(vals=st.lists(st.floats(-4, 4), min_size=2, max_size=40))
@settings(max_examples=40)
def test_ttv_zero_threshold_is_total_variation(vals):
    p = _walk(vals)
    tv = float(np.sum(np.abs(np.diff(p.values))))
    assert ttv_sweep(p, 0.0) == pytest.approx(tv, rel=1e-12, abs=1e-12)


@given(
    seeds=st.lists(st.integers(0, 100), min_size=1, max_size=5),
    cs=st.lists(st.floats(0.01, 1), min_size=1, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_batch_matches_per_path(seeds, cs):
    ens = [generate(PathGeneratorConfig("wiener", step=2.0**-6, seed=s)) for s in seeds]
    mat = np.stack([x.values for x in ens])
    batch = truncvar._ttv_batch(mat, cs)
    assert batch.shape == (len(cs), len(ens))
    for c, row in zip(cs, batch):
        assert row.tobytes() == truncvar._ttv_batch(mat, c).tobytes()
        assert row.tobytes() == np.asarray([ttv_sweep(x, c) for x in ens]).tobytes()


# The recurrences and the per-m sandwich as they were before the batched
# state was stacked and the shifted families were shared; the kernels must
# stay bitwise equal to them.


def _sweep_reference(x: np.ndarray, c: float) -> float:
    x = x.tolist()
    best = 0.0
    m_minus = -x[0]
    m_plus = x[0]
    for i in range(1, len(x)):
        xi = x[i]
        vi = max(best, m_minus + xi - c, m_plus - xi - c)
        if vi > best:
            best = vi
        if vi - xi > m_minus:
            m_minus = vi - xi
        if vi + xi > m_plus:
            m_plus = vi + xi
    return best


def _ttv_batch_reference(values: np.ndarray, c) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    cs = np.asarray(c, dtype=np.float64)
    col = cs.reshape(-1, 1)
    best = np.zeros((col.size, x.shape[0]))
    m_minus = np.tile(-x[:, 0], (col.size, 1))
    m_plus = np.tile(x[:, 0], (col.size, 1))
    for i in range(1, x.shape[1]):
        xi = x[:, i]
        vi = np.maximum(best, np.maximum(m_minus + xi, m_plus - xi) - col)
        np.maximum(best, vi, out=best)
        np.maximum(m_minus, vi - xi, out=m_minus)
        np.maximum(m_plus, vi + xi, out=m_plus)
    return best.reshape(cs.shape + x.shape[:1])


def _sandwich_reference(path, m, threshold=None, t=None):
    if m < 3:
        raise ValueError("sandwich needs m >= 3")
    big = threshold if threshold is not None else 1.0 + float(np.max(np.abs(path.values)))
    sigma = paths.hitting_time_abs(path, big)
    t_eff = min(path.horizon if t is None else t, sigma, path.horizon)
    c = float(m) ** -2
    middle = ttv_sweep(path, c, t_eff)
    lower = (m - 1) * _shifted_transition_sum_reference(path, m - 1, t_eff)
    upper = (m + 1) * _shifted_transition_sum_reference(path, m + 1, t_eff)
    tol = REL_TOL * (1.0 + abs(middle))
    return truncvar.SandwichReport(
        m=m,
        threshold=big,
        t_eff=t_eff,
        lower=lower,
        middle=middle,
        upper=upper,
        holds_lower=bool(lower <= middle + tol),
        holds_upper=bool(middle <= upper + tol),
    )


def _bits(v: float) -> bytes:
    return struct.pack("d", v)


_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300])
_CHUNK = truncvar.COLUMN_CHUNK


@st.composite
def _value_matrices(draw):
    rows = draw(st.integers(1, 4))
    # one column; a few; more than one chunk of columns with a partial last one
    cols = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(_CHUNK + 2, 2 * _CHUNK + 40)))
    elements = st.one_of(_EDGES, st.floats(-4, 4))
    steps = draw(arrays(np.float64, (rows, cols), elements=elements, fill=_EDGES))
    # a cumulative sum of steps from the edge values has flat runs
    return np.cumsum(steps, axis=1) if draw(st.booleans()) else steps


@given(
    values=_value_matrices(),
    cs=st.lists(st.one_of(st.just(0.0), _EDGES.map(abs), st.floats(0, 3)), min_size=1, max_size=3),
    scalar=st.booleans(),
)
@example(values=np.zeros((1, 2 * _CHUNK + 38)), cs=[0.0], scalar=True)
@example(values=np.asarray([[-0.0, 0.0]]), cs=[0.0], scalar=False)
@settings(max_examples=80, deadline=None)
def test_kernels_are_bitwise_the_reference_recurrences(values, cs, scalar):
    c = cs[0] if scalar else cs
    batch = truncvar._ttv_batch(values, c)
    # the batch adds 0.0 to the reference's result: -0.0 becomes +0.0, all else keeps its bits
    assert batch.tobytes() == (_ttv_batch_reference(values, c) + 0.0).tobytes()
    for ci in np.atleast_1d(c):
        for row in values:
            sweep = truncvar._sweep_from_values(row, float(ci))
            assert _bits(sweep) == _bits(_sweep_reference(row, float(ci)))


@given(
    values=_value_matrices(),
    cs=st.lists(st.one_of(st.just(0.0), _EDGES.map(abs), st.floats(0, 3)), min_size=1, max_size=3),
)
@example(values=np.asarray([[-0.0, 0.0]]), cs=[0.0])
@example(values=np.asarray([[0.0, -0.0, -0.0], [-0.0, -0.0, 0.0]]), cs=[0.0, 1.0])
@settings(max_examples=80, deadline=None)
def test_ttv_batch_is_bitwise_the_scalar_recurrence(values, cs):
    batch = truncvar._ttv_batch(values, cs)
    for c, out in zip(cs, batch):
        scalar = np.asarray([truncvar._sweep_from_values(row, c) for row in values])
        assert out.tobytes() == scalar.tobytes()


def test_ttv_batch_memory_stays_bounded():
    values = np.cumsum(np.random.default_rng(3).standard_normal((64, 8193)), axis=1)
    cs = [float(m) ** -2 for m in range(4, 13)]
    truncvar._ttv_batch(values, cs)
    tracemalloc.start()
    try:
        truncvar._ttv_batch(values, cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # signed columns are staged a chunk at a time: no whole-matrix copy
    assert peak < values.nbytes / 8


def _crossing_counts(path, z, c):
    return int(truncvar._crossing_counts_multi(path.values, np.asarray([z]), c)[0])


def test_crossing_counts_zigzag():
    assert _crossing_counts(ZIGZAG3, 0.5, 0.5) == 3
    assert _crossing_counts(ZIGZAG3, 5.0, 0.5) == 0
    # corridor edges are closed: touching the far edge completes a crossing
    touch = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 0.75]))
    assert _crossing_counts(touch, 0.5, 0.5) == 1
    with pytest.raises(ValueError):
        crossing_profile(ZIGZAG3, 0.0)


def _crossing_count_loop(x, z, c):
    lo, hi = z - 0.5 * c, z + 0.5 * c
    state = 1 if x[0] >= hi else (-1 if x[0] <= lo else 0)
    count = 0
    for v in x[1:]:
        if v >= hi:
            count += state == -1
            state = 1
        elif v <= lo:
            count += state == 1
            state = -1
    return count


@given(
    vals=st.lists(st.floats(-4, 4), min_size=1, max_size=40),
    z=st.floats(-4, 4),
    c=st.floats(0.05, 2),
)
@example(vals=[1e16 + 4, 1e16, 1e16 - 4], z=1e16, c=1.0)  # band edges round together
@settings(max_examples=60)
def test_crossing_count_matches_the_scalar_loop(vals, z, c):
    x = np.asarray(vals)
    count = truncvar._crossing_counts_multi(x, np.asarray([z]), c)[0]
    assert count == _crossing_count_loop(x, z, c)


def test_crossing_profile_integrates_to_ttv():
    prof = crossing_profile(ZIGZAG3, 0.5)
    assert np.all(prof.z_lo < prof.z_hi)
    assert np.all(prof.counts >= 0)
    assert prof.integral() == pytest.approx(1.5, abs=1e-12)
    assert banach_indicatrix_integral(ZIGZAG3, 0.5) == pytest.approx(1.5, abs=1e-12)


def test_transition_counts_quarter_grid():
    assert transition_count(ZIGZAG4, GridSpec(0.25, 0.0)) == 16
    assert transition_count(ZIGZAG4, GridSpec(0.25, 0.125)) == 12
    assert transition_count(ZIGZAG3, GridSpec(0.25, 0.0)) == 12
    assert transition_count(ZIGZAG3, GridSpec(0.25, 0.125)) == 9
    assert transition_count(ZIGZAG3, GridSpec(0.25, 0.0), t=1.0) == 4
    assert transition_count(ZIGZAG3, GridSpec(5.0, 0.0)) == 0


def _transition_count_reference(path, grid, t=None):
    """transition_count before one sweep served a family, verbatim."""
    if t is not None and np.isnan(t):
        raise ValueError("t must not be NaN")
    ts, _, on_grid = _grid_hits(path, grid.mesh, grid.offset)
    upto = path.horizon if t is None else t
    h = int(np.searchsorted(ts, upto, side="right"))
    if h == 0:
        return 0
    return h - 1 + (1 if on_grid else 0)


def _shifted_transition_sum_reference(path, n, t):
    """_shifted_transition_sum with one grid-hit extraction per offset, verbatim."""
    d = float(n) ** -2
    total = 0.0
    for k in range(n):
        total += d * d * _transition_count_reference(path, GridSpec(d, k * float(n) ** -3), t)
    return total


# X_0 on and off the grid, exact touches, flat runs at a level
_COUNT_PATHS = [
    ZIGZAG3,
    _walk([0.0, 0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 0.0, 0.5]),
    _walk([0.1, 0.5, 0.25, 0.5, 0.5, -0.75, 0.3]),
    _walk([0.3]),
    generate(PathGeneratorConfig("wiener", step=2.0**-3, seed=3)),
]


@pytest.mark.parametrize("block", [partitions._BLOCK, 4, 1])
@pytest.mark.parametrize("x", _COUNT_PATHS)
@pytest.mark.parametrize(
    "mesh, offsets", [(0.25, [0.0, 0.125]), (1.0 / 9.0, [k / 27.0 for k in range(3)])]
)
def test_transition_counts_are_the_per_offset_counts(monkeypatch, block, x, mesh, offsets):
    hits = np.unique(np.concatenate([_grid_hits(x, mesh, r)[0] for r in offsets]))
    # a time between two hits on one segment lies inside a run of several levels
    seg = np.searchsorted(x.times, hits, side="right")
    inside = [0.5 * (a + b) for a, b, same in zip(hits, hits[1:], seg[1:] == seg[:-1]) if same]
    assert inside or x.times.size == 1
    ts = [None, 0.0, 1e-9, *hits, *inside, x.horizon, x.horizon + 1.0, -1.0]
    want = [[_transition_count_reference(x, GridSpec(mesh, r), t) for r in offsets] for t in ts]
    # a sweep of several offsets carries each one's latest stop across blocks
    monkeypatch.setattr(partitions, "_BLOCK", block)
    for t, counts in zip(ts, want):
        assert partitions._transition_counts(x, mesh, offsets, t).tolist() == counts
        assert [transition_count(x, GridSpec(mesh, r), t) for r in offsets] == counts


def test_shifted_transition_sums():
    assert truncvar._shifted_transition_sum(ZIGZAG3, 2, 3.0) == pytest.approx(
        1.3125, abs=1e-15
    )
    assert truncvar._shifted_transition_sum(ZIGZAG4, 2, 4.0) == pytest.approx(
        1.75, abs=1e-15
    )


def test_sandwich_zigzag_exact_values():
    (rep,) = sandwich_check(ZIGZAG3, [3])
    assert rep.holds and rep.holds_lower and rep.holds_upper
    assert rep.m == 3 and rep.t_eff == 3.0
    assert rep.lower == pytest.approx(2.625, abs=1e-12)
    assert rep.middle == pytest.approx(3.0 * (1.0 - 1.0 / 9.0), abs=1e-12)
    assert rep.upper == pytest.approx(2.859375, abs=1e-12)
    rep4 = sandwich_check(ZIGZAG4, [3])[0]
    assert rep4.lower == pytest.approx(3.5, abs=1e-12)
    assert rep4.middle == pytest.approx(4.0 * (1.0 - 1.0 / 9.0), abs=1e-12)
    assert rep4.upper == pytest.approx(3.8125, abs=1e-12)
    assert rep4.holds
    with pytest.raises(ValueError):
        sandwich_check(ZIGZAG3, [2])


def test_sandwich_threshold_stops_early():
    rep = sandwich_check(ZIGZAG3, [3], threshold=0.5)[0]
    assert rep.t_eff == 0.5
    assert rep.threshold == 0.5
    assert rep.lower == pytest.approx(0.375, abs=1e-12)
    assert rep.middle == pytest.approx(0.5 - 1.0 / 9.0, abs=1e-12)
    assert rep.upper == pytest.approx(29.0 / 64.0, abs=1e-12)
    assert rep.holds


@given(seed=st.integers(0, 40), m=st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=30, deadline=None)
def test_sandwich_property_wiener(seed, m):
    x = generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=seed))
    assert sandwich_check(x, [m])[0].holds


@pytest.mark.parametrize(
    "kw", [{}, {"threshold": 0.5}, {"t": 0.6}, {"threshold": 0.7, "t": 0.4}]
)
def test_sandwich_sums_each_family_once(monkeypatch, kw):
    x = generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=12))
    refs = [_sandwich_reference(x, m, **kw) for m in range(3, 9)]
    calls = {"_transition_counts": 0, "_grid_hits": 0, "hitting_time_abs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        truncvar, "_transition_counts", counted("_transition_counts", truncvar._transition_counts)
    )
    monkeypatch.setattr(partitions, "_grid_hits", counted("_grid_hits", partitions._grid_hits))
    monkeypatch.setattr(
        truncvar, "hitting_time_abs", counted("hitting_time_abs", paths.hitting_time_abs)
    )
    reps = sandwich_check(x, range(3, 9), **kw)
    # families n = 2..9, one sweep each; one grid-hit extraction per offset
    # took 44, and per m 66
    assert calls == {"_transition_counts": 8, "_grid_hits": 0, "hitting_time_abs": 1}
    assert [rep.m for rep in reps] == list(range(3, 9))
    for rep, ref in zip(reps, refs):
        for field in dataclasses.fields(ref):
            got, want = getattr(rep, field.name), getattr(ref, field.name)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want) if isinstance(want, float) else got == want


def test_nan_edges_fail_fast():
    nan = float("nan")
    for fn in (ttv_sweep, ttv_dp_oracle, banach_indicatrix_integral, crossing_profile):
        with pytest.raises(ValueError, match="c must be"):
            fn(ZIGZAG3, nan)
    with pytest.raises(ValueError, match="c must be"):
        truncvar._ttv_batch(ZIGZAG3.values[None, :], [0.5, nan])
    with pytest.raises(ValueError, match="threshold must be positive"):
        paths.hitting_time_abs(ZIGZAG3, nan)
    with pytest.raises(ValueError, match="threshold must be positive"):
        sandwich_check(ZIGZAG3, [3], threshold=nan)
    with pytest.raises(ValueError, match="t must not be NaN"):
        transition_count(ZIGZAG3, GridSpec(0.25, 0.0), t=nan)
    with pytest.raises(ValueError, match="t must not be NaN"):
        sandwich_check(ZIGZAG3, [3], t=nan)
