"""Step processes, capital processes, witness identities, model-free integrals."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcalc import (
    ConsistencyError,
    GridSpec,
    PathGeneratorConfig,
    SampledPath,
    StepProcess,
    StoppingSequence,
    bdg_witness_strategy,
    capital_process,
    certify_path,
    empirical_dinf,
    empirical_dqv,
    evaluate_many,
    generate,
    lebesgue_sequence,
    localized_integral,
    model_free_integral,
    qv_at,
    step_approximation,
    stieltjes_integral,
    sup_distance,
    witness_identity_gap,
    witness_strategy_qv,
)
from pwcalc import integration
from pwcalc.integration import _stopped_path
from pwcalc.paths import _exit_times
from pwcalc.quadvar import _sup_gaps

ZIGZAG3 = SampledPath(np.arange(4.0), np.asarray([0.0, 1.0, 0.0, 1.0]))
LINE01 = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
UNIT = lebesgue_sequence(ZIGZAG3, GridSpec(1.0, 0.0))


def _wiener(seed, step=2.0**-7):
    return generate(PathGeneratorConfig("wiener", step=step, seed=seed))


def step_values_at(sp: StepProcess, ts: np.ndarray) -> np.ndarray:
    """Reference step lookup; before the first stop the value is values[0]."""
    idx = np.searchsorted(sp.seq.times, np.asarray(ts, dtype=np.float64), side="right") - 1
    idx = np.maximum(idx, 0)
    return sp.values[idx]


def test_step_process_validation():
    seq = StoppingSequence(np.asarray([0.0, 1.0]), np.zeros(2), 2.0)
    with pytest.raises(ValueError):
        StepProcess(seq, np.zeros(3))
    with pytest.raises(ValueError):
        StepProcess(seq, np.asarray([math.nan, 0.0]))


def test_step_values_left_constant_right_continuous():
    seq = StoppingSequence(np.asarray([0.0, 1.0, 2.0]), np.zeros(3), 2.0)
    sp = StepProcess(seq, np.asarray([1.0, 2.0, 3.0]))
    out = step_values_at(sp, np.asarray([0.0, 0.5, 1.0, 1.5, 2.0]))
    assert np.array_equal(out, [1.0, 1.0, 2.0, 2.0, 3.0])


def test_capital_process_zigzag():
    strat = StepProcess(UNIT, np.asarray([1.0, -1.0, 1.0, 0.0]))
    cap = capital_process(strat, ZIGZAG3)
    at = evaluate_many(cap, np.asarray([0.0, 0.5, 1.0, 2.0, 3.0]))
    assert np.array_equal(at, [0.0, 0.5, 1.0, 2.0, 3.0])


def test_capital_process_horizon_mismatch():
    strat = StepProcess(UNIT, np.zeros(4))
    with pytest.raises(ValueError):
        capital_process(strat, LINE01)


@given(seed=st.integers(0, 30))
@settings(max_examples=15, deadline=None)
def test_capital_matches_left_riemann_on_union_mesh(seed):
    x = _wiener(seed)
    seq = lebesgue_sequence(x, GridSpec(0.2, 0.0))
    rng = np.random.default_rng(seed)
    strat = StepProcess(seq, rng.uniform(-2, 2, size=len(seq)))
    cap = capital_process(strat, x)
    mesh = np.union1d(x.times, seq.times)
    g = step_values_at(strat, mesh[:-1])
    riemann = np.concatenate(([0.0], np.cumsum(g * np.diff(evaluate_many(x, mesh)))))
    assert np.allclose(evaluate_many(cap, mesh), riemann, atol=1e-10)


def test_witness_identity_gap_zero_on_zigzag():
    assert witness_identity_gap(ZIGZAG3, UNIT, 2.0) == 0.0


@given(seed=st.integers(0, 40), d=st.floats(0.05, 0.4))
@settings(max_examples=30, deadline=None)
def test_witness_identity_gap_small(seed, d):
    x = generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=seed))
    seq = lebesgue_sequence(x, GridSpec(d, 0.0))
    big = 1.0 + float(np.max(np.abs(x.values)))
    assert witness_identity_gap(x, seq, big) <= 1e-9


def _witness_gap_reference(x, seq, sigma):
    """integration._witness_gap with qv_at's search per stamp, verbatim."""
    w = seq.values
    cap = capital_process(integration._stopped_strategy(seq, 2.0 * (w - w[0]), sigma), x)
    stamps = integration._prefix_stamps(cap.times, min(sigma, x.horizon))
    lhs = evaluate_many(cap, stamps)
    dx = evaluate_many(x, stamps) - x.values[0]
    rhs = dx * dx - qv_at(x, seq, stamps)
    return float(np.max(np.abs(lhs - rhs)))


def test_witness_gap_takes_each_stamp_index_from_the_merge():
    # stopped inside a segment, at a stop, and never; stops that repeat
    repeated = StoppingSequence(
        np.asarray([0.0, 0.5, 0.5, 1.5, 3.0, 3.0]), np.asarray([0.0, 0.5, 0.5, 0.5, 1.0, 1.0]), 3.0
    )
    cases = [(ZIGZAG3, UNIT), (ZIGZAG3, repeated)]
    for seed in range(4):
        x = generate(PathGeneratorConfig("wiener", step=2.0**-8, seed=seed))
        cases += [(x, lebesgue_sequence(x, GridSpec(d, 0.01))) for d in (0.05, 0.3)]
    for x, seq in cases:
        for sigma in (0.3, float(seq.times[len(seq) // 2]), x.horizon, math.inf):
            got = integration._witness_gap(x, seq, sigma)
            assert struct.pack("d", got) == struct.pack("d", _witness_gap_reference(x, seq, sigma))


def test_witness_positions_cut_at_threshold():
    strat = witness_strategy_qv(ZIGZAG3, UNIT, 0.75)
    assert np.array_equal(strat.values, np.zeros(4))
    assert witness_identity_gap(ZIGZAG3, UNIT, 0.75) == 0.0


def test_bdg_witness_capital_equals_certificate_integral():
    cert = certify_path(ZIGZAG3, UNIT, 1.0)
    strat = bdg_witness_strategy(ZIGZAG3, UNIT, 1.0, 2.0)
    cap = capital_process(strat, ZIGZAG3)
    at_stops = evaluate_many(cap, UNIT.times)
    assert np.allclose(at_stops, cert.hx, atol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(cert.hx, [0.0, 0.0, -s, -s], atol=1e-15)


def test_bdg_witness_p2():
    cert = certify_path(ZIGZAG3, UNIT, 2.0)
    strat = bdg_witness_strategy(ZIGZAG3, UNIT, 2.0, 2.0)
    cap = capital_process(strat, ZIGZAG3)
    assert np.allclose(evaluate_many(cap, UNIT.times), cert.gx, atol=1e-12)


def test_step_approximation_lattices():
    sp = step_approximation(ZIGZAG3, 0)
    assert np.array_equal(sp.seq.times, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(sp.values, [0.0, 1.0, 0.0, 1.0])
    sp1 = step_approximation(LINE01, 1)
    assert np.array_equal(sp1.seq.times, [0.0, 0.5, 1.0])
    assert np.array_equal(sp1.values, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        step_approximation(LINE01, -1)


def test_step_approximation_rejects_an_unrepresentable_mesh():
    # 2^-m is 0.0 from m = 1075 on; f_0 / 2^-m overflows sooner when f_0 != 0
    shifted = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.3, 1.4]))
    for f, m in ((LINE01, 1075), (LINE01, 1100), (ZIGZAG3, 1100), (shifted, 1060)):
        with pytest.raises(ValueError, match="too large"):
            step_approximation(f, m)


def test_step_approximation_anchors_at_start():
    f = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.3, 1.4]))
    sp = step_approximation(f, 1)
    assert sp.values[0] == 0.3
    assert np.array_equal(sp.values, [0.3, 1.0 * 0.5 + 0.3, 2.0 * 0.5 + 0.3])


@given(seed=st.integers(0, 30), m=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_step_approximation_uniform_error(seed, m):
    f = _wiener(seed)
    sp = step_approximation(f, m)
    ts = np.union1d(f.times, sp.seq.times)
    gap = np.abs(evaluate_many(f, ts) - step_values_at(sp, ts))
    assert float(gap.max()) <= 2.0**-m + 1e-12


@given(seed=st.integers(0, 30), m=st.integers(0, 6), shift=st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_step_approximation_is_the_level_sequence(seed, m, shift):
    w = _wiener(seed)
    f = SampledPath(w.times, w.values + shift)
    q = 2.0**-m
    f0 = float(f.values[0])
    r = f0 - q * math.floor(f0 / q)
    seq = lebesgue_sequence(f, GridSpec(q, r if 0.0 <= r < q else 0.0))
    sp = step_approximation(f, m)
    assert sp.seq.times.tobytes() == seq.times.tobytes()
    assert sp.seq.values.tobytes() == seq.values.tobytes()
    assert sp.values.tobytes() == seq.values.tobytes()


def test_model_free_integral_line():
    res = model_free_integral(LINE01, LINE01, 6)
    assert len(res.curves) == 7
    expected = [2.0 ** -(m + 2) for m in range(6)]
    assert list(res.sup_distances) == pytest.approx(expected, abs=1e-15)
    final = float(np.interp(1.0, res.curves[-1].times, res.curves[-1].values))
    assert final == pytest.approx(63.0 / 128.0, abs=1e-15)
    with pytest.raises(ValueError):
        model_free_integral(LINE01, ZIGZAG3, 2)


def test_stieltjes_left_point():
    seq = StoppingSequence(np.asarray([0.0, 0.5]), np.zeros(2), 1.0)
    g = StepProcess(seq, np.asarray([1.0, 2.0]))
    v = SampledPath(np.asarray([0.0, 0.5, 1.0]), np.asarray([0.0, 0.25, 0.5]))
    assert stieltjes_integral(g, v) == 0.75
    assert stieltjes_integral(g, v, 0.75) == 0.5
    assert stieltjes_integral(g, v, 0.0) == 0.0
    with pytest.raises(ValueError):
        stieltjes_integral(g, v, 2.0)
    with pytest.raises(TypeError):
        stieltjes_integral(v, v)


def test_stieltjes_variation_guard():
    v = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 2e12]))
    g = StepProcess(StoppingSequence(np.zeros(1), np.ones(1), 1.0), np.ones(1))
    with pytest.raises(ValueError, match="finite-variation guard"):
        stieltjes_integral(g, v)


def test_localized_integral_consistency():
    res = localized_integral(LINE01, LINE01, [0.25, 0.5, 2.0], 3)
    assert list(res.sigmas) == pytest.approx([0.25, 0.5, 1.0], abs=1e-15)
    assert list(res.gaps) == [0.0, 0.0]
    full = model_free_integral(LINE01, LINE01, 3).curves[-1]
    assert sup_distance(res.curve, full) == 0.0
    with pytest.raises(ValueError):
        localized_integral(LINE01, LINE01, [], 3)
    with pytest.raises(ValueError):
        localized_integral(LINE01, LINE01, [-1.0], 3)


def _localized_reference(f, x, levels, m_max):
    """(curve, sigmas, gaps) of localized_integral, one curve built per level."""
    sigmas = np.minimum(_exit_times(f, levels), f.horizon).tolist()
    curves = [capital_process(step_approximation(_stopped_path(f, s), m_max), x) for s in sigmas]
    gaps = [float(_sup_gaps(a, b, [s])[0]) for a, b, s in zip(curves, curves[1:], sigmas)]
    return curves[-1], sigmas, gaps


@pytest.mark.parametrize("levels, distinct", [([1.0, 2.0, 4.0], 2), ([0.5, 1.0, 1.25], 3)])
def test_localized_integral_builds_one_curve_per_sigma(monkeypatch, levels, distinct):
    # max |f| = 1.5, so sigma(f, 2) = sigma(f, 4) = horizon: both stop f at
    # the horizon, which is f itself
    w = _wiener(8, step=2.0**-10)
    f = SampledPath(w.times, w.values * (1.5 / np.max(np.abs(w.values))))
    curve, sigmas, gaps = _localized_reference(f, f, levels, 5)
    built, swept = [], []
    monkeypatch.setattr(
        integration, "step_approximation", lambda g, m: built.append(g) or step_approximation(g, m)
    )
    # two levels that share a sigma share a curve, whose stamps need no sweep
    monkeypatch.setattr(integration, "_sup_gaps", lambda *a: swept.append(a) or _sup_gaps(*a))
    res = localized_integral(f, f, levels, 5)
    assert len(built) == len(swept) + 1 == distinct
    assert res.sigmas == sigmas and _bits(res.gaps) == _bits(gaps)
    assert res.curve.times.tobytes() == curve.times.tobytes()
    assert res.curve.values.tobytes() == curve.values.tobytes()


def _bits(values) -> list:
    return [struct.pack("d", v) for v in values]


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_shared_curve_gap_is_bitwise_the_sweep_near_the_float_maximum():
    # f crosses 1, 2 and 4 at one rounded time, 0.05, where it is still 0.9:
    # every level stops f there and holds 0.9 against x. The capital climbs
    # to 0.9 * 1.7e308 over [0, 0.1], a slope past the float maximum, so the
    # curve is infinite between its stamps 0 and 0.1, and the gap at 0.05 is
    # NaN, as the full sweep finds it
    f = SampledPath(np.asarray([0.0, 0.05, 1.0]), np.asarray([0.9, 0.9, 1e300]))
    x = SampledPath(np.asarray([0.0, 0.1, 1.0]), np.asarray([0.0, 1.7e308, 1.7e308]))
    curve, sigmas, gaps = _localized_reference(f, x, [1.0, 2.0, 4.0], 3)
    assert sigmas == [0.05] * 3 and math.isnan(gaps[0]) and math.isnan(gaps[1])
    assert np.max(curve.values) > 1e308
    res = localized_integral(f, x, [1.0, 2.0, 4.0], 3)
    assert res.sigmas == sigmas and _bits(res.gaps) == _bits(gaps)
    assert res.curve.values.tobytes() == curve.values.tobytes()
    # the gap of a curve with itself is 0 where it is finite, NaN where not
    for t in (0.0, 0.05, 0.1, 0.5, 1.0):
        at = float(integration._interp(t, res.curve))
        assert _bits([abs(at - at)]) == _bits(_sup_gaps(res.curve, res.curve, [t]))


def test_consistency_error_is_runtime_error():
    assert issubclass(ConsistencyError, RuntimeError)


def test_empirical_dinf_fixed_curves():
    y = SampledPath(np.asarray([0.0, 1.0]), np.zeros(2))
    rep = empirical_dinf(lambda x: y, lambda x: x, [LINE01])
    assert rep.value == pytest.approx(1.0 - 2.0**-8, abs=1e-15)
    assert rep.std_error == 0.0
    assert rep.per_path.shape == (1,)


def test_empirical_dqv_constant_gap():
    seq0 = StoppingSequence(np.zeros(1), np.zeros(1), 1.0)
    g = StepProcess(seq0, np.ones(1))
    h = StepProcess(seq0, np.zeros(1))
    rep = empirical_dqv(lambda x: g, lambda x: h, [LINE01])
    assert rep.value == pytest.approx((1.0 - 2.0**-8) * 0.125, abs=1e-12)


def test_empirical_distances_vanish_on_equal_arguments():
    paths = [generate(PathGeneratorConfig("wiener", step=2.0**-6, seed=s)) for s in (0, 1)]

    def fm(x):
        return step_approximation(x, 2)

    assert empirical_dqv(fm, fm, paths).value == 0.0
    with pytest.raises(ValueError):
        empirical_dqv(fm, fm, [])


@pytest.mark.parametrize("n_levels", [0, -1])
def test_empirical_distances_refuse_no_levels(n_levels):
    def fm(x):
        return step_approximation(x, 2)

    with pytest.raises(ValueError, match="n_levels"):
        empirical_dqv(fm, fm, [LINE01], n_levels=n_levels)
    with pytest.raises(ValueError, match="n_levels"):
        empirical_dinf(lambda x: x, lambda x: x, [LINE01], n_levels=n_levels)


def test_empirical_dqv_refuses_negative_qv_level():
    with pytest.raises(ValueError, match="qv_level"):
        empirical_dqv(lambda x: x, lambda x: x, [LINE01], qv_level=-1)
