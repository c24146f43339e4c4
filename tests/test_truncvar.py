"""Truncated variation, crossing counts, transition sums, sandwich bounds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from pwcalc import truncvar

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
    assert ttv_sweep(ZIGZAG3, 0.5, 0.5, 2.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ttv_sweep(ZIGZAG3, 0.1, 2.0, 1.0)


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
        assert np.array_equal(row, truncvar._ttv_batch(mat, c))
        assert np.allclose(row, [ttv_sweep(x, c) for x in ens], atol=1e-12)


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


def test_shifted_transition_sums():
    assert truncvar._shifted_transition_sum(ZIGZAG3, 2, 3.0) == pytest.approx(
        1.3125, abs=1e-15
    )
    assert truncvar._shifted_transition_sum(ZIGZAG4, 2, 4.0) == pytest.approx(
        1.75, abs=1e-15
    )


def test_sandwich_zigzag_exact_values():
    rep = sandwich_check(ZIGZAG3, 3)
    assert rep.holds and rep.holds_lower and rep.holds_upper
    assert rep.m == 3 and rep.t_eff == 3.0
    assert rep.lower == pytest.approx(2.625, abs=1e-12)
    assert rep.middle == pytest.approx(3.0 * (1.0 - 1.0 / 9.0), abs=1e-12)
    assert rep.upper == pytest.approx(2.859375, abs=1e-12)
    rep4 = sandwich_check(ZIGZAG4, 3)
    assert rep4.lower == pytest.approx(3.5, abs=1e-12)
    assert rep4.middle == pytest.approx(4.0 * (1.0 - 1.0 / 9.0), abs=1e-12)
    assert rep4.upper == pytest.approx(3.8125, abs=1e-12)
    assert rep4.holds
    with pytest.raises(ValueError):
        sandwich_check(ZIGZAG3, 2)


def test_sandwich_threshold_stops_early():
    rep = sandwich_check(ZIGZAG3, 3, threshold=0.5)
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
    assert sandwich_check(x, m).holds
