"""Quadratic variation and covariation curves with exact stop accounting."""

import dataclasses
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcalc import (
    GridSpec,
    PathGeneratorConfig,
    SampledPath,
    StoppingSequence,
    evaluate,
    evaluate_many,
    generate,
    lebesgue_sequence,
    merge,
    merge_error_bound_check,
    qv_at,
    qv_estimate_dyadic,
    simple_qcov,
    simple_qv,
    sup_distance,
)
from pwcalc import partitions, paths
from pwcalc.paths import ResourceLimitError, _interp
from pwcalc.partitions import _merge_stops
from pwcalc.quadvar import _bridge_terminal_qv, _qcov_along, _sup_gaps, _terminal_qv, qcov_at

ZIGZAG3 = SampledPath(np.arange(4.0), np.asarray([0.0, 1.0, 0.0, 1.0]))
LINE01 = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
UNIT = lebesgue_sequence(ZIGZAG3, GridSpec(1.0, 0.0))


def _wiener(seed, step=2.0**-8):
    return generate(PathGeneratorConfig("wiener", step=step, seed=seed))


def polarization_qcov(x, y, seq):
    """Covariation via (qv(x+y) - qv(x-y)) / 4, the reference for simple_qcov."""
    stamps = np.union1d(x.times, y.times)
    xv = evaluate_many(x, stamps)
    yv = evaluate_many(y, stamps)
    out = np.union1d(stamps, seq.times)
    qvs = []
    for vals in (xv + yv, xv - yv):
        path = SampledPath(stamps, vals)
        # the same stop times, with values realized on the sum or difference path
        reseated = StoppingSequence(seq.times, evaluate_many(path, seq.times), path.horizon)
        qvs.append(qv_at(path, reseated, out))
    return SampledPath(out, 0.25 * (qvs[0] - qvs[1]))


def test_qv_unit_grid_zigzag():
    curve = simple_qv(ZIGZAG3, UNIT)
    assert evaluate(curve, 3.0) == 3.0
    # partial increment past the last stop counts quadratically
    at = qv_at(ZIGZAG3, UNIT, np.asarray([0.5, 1.5, 3.0]))
    assert np.array_equal(at, [0.25, 1.25, 3.0])


def test_qv_curve_exact_at_stamps():
    seq = lebesgue_sequence(ZIGZAG3, GridSpec(0.4, 0.0))
    curve = simple_qv(ZIGZAG3, seq)
    assert np.array_equal(curve.values, qv_at(ZIGZAG3, seq, curve.times))


def test_qv_dyadic_line():
    curves = qv_estimate_dyadic(LINE01, 3)
    finals = [float(c.values[-1]) for c in curves]
    assert finals == [1.0, 0.5, 0.25, 0.125]
    with pytest.raises(ValueError):
        qv_estimate_dyadic(LINE01, -1)


@pytest.mark.parametrize("x", [LINE01, _wiener(3)], ids=["line", "wiener"])
def test_qv_dyadic_curve_k_is_the_qv_along_grid_k(x):
    for k, curve in enumerate(qv_estimate_dyadic(x, 3)):
        ref = simple_qv(x, lebesgue_sequence(x, GridSpec(2.0**-k)))
        assert curve.times.tobytes() == ref.times.tobytes()
        assert curve.values.tobytes() == ref.values.tobytes()


def test_simple_qv_horizon_mismatch():
    short = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
    with pytest.raises(ValueError):
        simple_qv(short, UNIT)


def test_qcov_zigzag_against_line():
    y = SampledPath(np.asarray([0.0, 3.0]), np.asarray([0.0, 3.0]))
    direct = simple_qcov(ZIGZAG3, y, UNIT)
    assert evaluate(direct, 3.0) == 1.0
    assert qcov_at(ZIGZAG3, y, UNIT, np.asarray([1.5]))[0] == 0.75
    pol = polarization_qcov(ZIGZAG3, y, UNIT)
    assert sup_distance(direct, pol) <= 1e-12


@given(seed=st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_qcov_diagonal_is_qv(seed):
    x = _wiener(seed)
    seq = lebesgue_sequence(x, GridSpec(0.1, 0.0))
    assert sup_distance(simple_qcov(x, x, seq), simple_qv(x, seq)) <= 1e-12


@given(seed=st.integers(0, 30), d=st.floats(0.05, 0.3))
@settings(max_examples=20, deadline=None)
def test_polarization_identity(seed, d):
    x = _wiener(seed)
    y = _wiener(seed + 1000)
    seq = lebesgue_sequence(x, GridSpec(d, 0.0))
    gap = sup_distance(simple_qcov(x, y, seq), polarization_qcov(x, y, seq))
    assert gap <= 1e-10


@pytest.mark.parametrize("step_y", [2.0**-8, 1.0 / 200], ids=["equal-grids", "different-grids"])
def test_qcov_stamps_are_bitwise_the_union(monkeypatch, step_y):
    # equal grids are their own union, so their union is not sorted again
    x, y = _wiener(4), generate(PathGeneratorConfig("wiener", step=step_y, seed=5))
    grid = GridSpec(0.05, 0.025)
    seq = merge(lebesgue_sequence(x, grid), lebesgue_sequence(y, grid), x)
    stamps, idx = _merge_stops(np.union1d(x.times, y.times), seq.times)
    values = _qcov_along(x, y, seq, stamps, idx)
    unions = []
    union1d = np.union1d
    monkeypatch.setattr(np, "union1d", lambda a, b: unions.append(1) or union1d(a, b))
    curve = simple_qcov(x, y, seq)
    assert curve.times.tobytes() == stamps.tobytes()
    assert curve.values.tobytes() == values.tobytes()
    assert len(unions) == (step_y != 2.0**-8)


def test_merge_error_bound_zigzag_and_wiener():
    x = _wiener(3)
    sigma = lebesgue_sequence(x, GridSpec(0.05, 0.0))
    tau = lebesgue_sequence(x, GridSpec(0.07, 0.013))
    rep = merge_error_bound_check(x, sigma, tau, 0.1)
    assert rep.holds
    assert rep.lhs <= rep.rhs + 1e-9 * (1.0 + abs(rep.rhs))


def test_merge_error_bound_rejects_coarse_cover():
    x = _wiener(3)
    sigma = lebesgue_sequence(x, GridSpec(0.05, 0.0))
    with pytest.raises(ValueError):
        merge_error_bound_check(x, sigma, sigma, 0.001)


@given(
    seed=st.integers(0, 40),
    d=st.floats(0.03, 0.15),
    dp=st.floats(0.02, 0.3),
    off=st.floats(0.0, 0.99),
)
@settings(max_examples=30, deadline=None)
def test_merge_error_bound_property(seed, d, dp, off):
    x = _wiener(seed)
    sigma = lebesgue_sequence(x, GridSpec(d, 0.0))
    tau = lebesgue_sequence(x, GridSpec(dp, off * dp))
    assert merge_error_bound_check(x, sigma, tau, 2.0 * d).holds


def test_sup_distance_checks_all_stamps():
    a = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
    b = SampledPath(np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 1.0, 0.0]))
    assert sup_distance(a, b) == 1.0
    with pytest.raises(ValueError):
        sup_distance(a, SampledPath(np.asarray([0.0, 2.0]), np.zeros(2)))


def _sup_gap_upto_reference(a, b, t_hi):
    """The sup gap localized_integral took before _sup_gaps, verbatim."""
    stamps = np.union1d(a.times, b.times)
    stamps = stamps[stamps <= t_hi]
    if stamps.size == 0 or stamps[-1] != t_hi:
        stamps = np.append(stamps, t_hi)
    return float(np.max(np.abs(evaluate_many(a, stamps) - evaluate_many(b, stamps))))


def _running_sups_reference(yi, zi, t_levels):
    """empirical_dinf's running-max sups before _sup_gaps, verbatim."""
    stamps = np.union1d(yi.times, zi.times)
    gap = np.abs(evaluate_many(yi, stamps) - evaluate_many(zi, stamps))
    running = np.maximum.accumulate(gap)
    out = []
    for t_n in t_levels:
        j = int(np.searchsorted(stamps, t_n, side="right")) - 1
        at_t = abs(float(_interp(t_n, yi)) - float(_interp(t_n, zi)))
        out.append(max(float(running[j]), at_t))
    return out


def _random_stamps(rng, n):
    return np.union1d([0.0, 2.0], rng.uniform(0.0, 2.0, n))


@given(seed=st.integers(0, 10**6), na=st.integers(0, 40), nb=st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_sup_gaps_are_bitwise_the_replaced_forms(seed, na, nb):
    rng = np.random.default_rng(seed)
    ta = _random_stamps(rng, na)
    tb = np.union1d(_random_stamps(rng, nb), ta[::3])  # some stamps shared
    a, b = SampledPath(ta, rng.normal(size=ta.size)), SampledPath(tb, rng.normal(size=tb.size))
    # t at stamps of either curve, between stamps, at 0 and at the horizon
    picks = [a.times[rng.integers(a.times.size)], b.times[rng.integers(b.times.size)]]
    ts = np.sort(np.concatenate((picks, rng.uniform(0.0, 2.0, 4), [0.0, 2.0])))
    sups = _sup_gaps(a, b, ts)
    assert sups.tobytes() == np.asarray(_running_sups_reference(a, b, ts)).tobytes()
    ref = np.asarray([_sup_gap_upto_reference(a, b, t) for t in ts])
    assert sups.tobytes() == ref.tobytes()
    assert np.float64(sup_distance(a, b)).tobytes() == sups[-1].tobytes()


# (step, horizon, level, volatility, drift) of wiener members resolved on
# 2^-level: 1 to 32 leaves per step and 1 to 16 blocks
_BRIDGE_CASES = [
    (2.0**-4, 1.0, 3, 1.0, 0.0),
    (2.0**-6, 2.5, 0, 1.0, 0.3),
    (2.0**-8, 1.0, 3, 0.7, -1.0),
    (2.0**-10, 0.75, 8, 2.0, 0.0),
    (2.0**-12, 1.0, 8, -1.0, 0.3),
    (2.0**-16, 1.0, 8, 1.0, 0.0),
    # volatility 0: the chord is the member
    (2.0**-8, 1.0, 5, 0.0, 0.3),
    # d*d subnormal, and d*d underflowing to 0; values within 2^53 meshes
    (2.0**-10, 1.0, 520, 2.0**-515, 0.0),
    (2.0**-6, 1.0, 540, 2.0**-535, 0.0),
]


def _bits(x) -> bytes:
    return struct.pack("d", x)


def _resolved_pair(cfg, level):
    """(X_T - X_0)^2 and the terminal QV of the member resolved on 2^-level."""
    x = generate(cfg, level)
    (qv,) = _terminal_qv([x.values], GridSpec(2.0**-level))
    return _bits((x.values[-1] - x.values[0]) ** 2), _bits(qv)


def _kernel_pair(cfg, level):
    """_resolved_pair from the chord, through the kernel."""
    x = generate(cfg)
    return _bits((x.values[-1] - x.values[0]) ** 2), _bits(_bridge_terminal_qv(x, cfg, level))


def _bridge_configs(cases, seeds=(0, 1)):
    for step, horizon, level, vol, drift in cases:
        for seed in seeds:
            cfg = PathGeneratorConfig(
                "wiener", horizon=horizon, step=step, seed=seed, volatility=vol, drift=drift
            )
            yield cfg, level


def test_bridge_terminal_qv_is_bitwise_the_resolved_member():
    assert 0.0 < (2.0**-520) ** 2 < sys.float_info.min and (2.0**-540) ** 2 == 0.0
    moved = 0
    for cfg, level in _bridge_configs(_BRIDGE_CASES):
        want = _resolved_pair(cfg, level)
        assert _kernel_pair(cfg, level) == want
        moved += struct.unpack("d", want[1])[0] > 0.0
    assert moved >= len(_BRIDGE_CASES) * 2 - 2  # only d*d = 0 reads 0


@pytest.mark.parametrize("block", [1, 3, 7])
def test_bridge_terminal_qv_does_not_depend_on_the_blocks(monkeypatch, block):
    # 1 to 8 leaves per step, so a block of one segment holds several leaves
    cases = [(2.0**-6, 1.0, 3, 1.0, 0.3), (2.0**-8, 1.0, 5, 0.7, 0.0), (2.0**-5, 1.5, 4, 2.0, 0.0)]
    want = [_kernel_pair(cfg, level) for cfg, level in _bridge_configs(cases)]
    monkeypatch.setattr(paths, "_BRIDGE_BLOCK", block)
    monkeypatch.setattr(partitions, "_BLOCK", block)
    for (cfg, level), pair in zip(_bridge_configs(cases), want):
        assert _kernel_pair(cfg, level) == pair
        assert _resolved_pair(cfg, level) == pair


def _raised(fn):
    """The type and message of what fn raises, or None."""
    try:
        fn()
    except (ResourceLimitError, ValueError) as exc:
        return type(exc), str(exc).split(" ")[:4]
    return None


def test_bridge_terminal_qv_refuses_as_generate_and_the_sweep(monkeypatch):
    def both(cfg, level):
        want = _raised(lambda: _resolved_pair(cfg, level))
        assert want is not None and _raised(lambda: _kernel_pair(cfg, level)) == want
        return want[0]

    # 2^9 leaves on each of 2^8 steps pass the sample bound
    assert both(PathGeneratorConfig("wiener", step=2.0**-8), 12) is ResourceLimitError
    # values 2^60 meshes from the grid
    far = PathGeneratorConfig("wiener", step=2.0**-4, volatility=2.0**-20, drift=2.0**40)
    assert both(far, 20) is ValueError
    cfg = PathGeneratorConfig("wiener", step=2.0**-8, seed=3)
    with monkeypatch.context() as patch:
        # 8 leaves on each of 2^8 steps
        patch.setattr(paths, "MAX_SAMPLES", 2**12)
        assert both(cfg, 5) is ResourceLimitError
    with monkeypatch.context() as patch:
        patch.setattr(partitions, "MAX_GRID_HITS", 10)
        assert both(cfg, 5) is ResourceLimitError
        assert both(dataclasses.replace(cfg, volatility=0.0, drift=1.0), 5) is ResourceLimitError
