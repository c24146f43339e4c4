"""Level sequences: snapping, reversal dedup, covers, merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcalc import (
    GridSpec,
    PathGeneratorConfig,
    ResourceLimitError,
    SampledPath,
    StoppingSequence,
    evaluate_many,
    generate,
    lebesgue_sequence,
    merge,
    verify_fine_cover,
)
from pwcalc.partitions import _merge_stops

ZIGZAG3 = SampledPath(np.arange(4.0), np.asarray([0.0, 1.0, 0.0, 1.0]))


def _wiener(seed, step=2.0**-8):
    return generate(PathGeneratorConfig("wiener", step=step, seed=seed))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0)
    with pytest.raises(ValueError):
        GridSpec(0.5, 0.5)
    with pytest.raises(ValueError):
        GridSpec(0.5, -0.1)


def test_stopping_sequence_validation():
    with pytest.raises(ValueError):
        StoppingSequence(np.asarray([0.5]), np.asarray([0.0]), 1.0)
    with pytest.raises(ValueError):
        StoppingSequence(np.asarray([0.0, 2.0]), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        StoppingSequence(np.asarray([0.0, 1.0, 0.5]), np.zeros(3), 1.0)


def test_zigzag_on_grid_sequence():
    seq = lebesgue_sequence(ZIGZAG3, GridSpec(0.4, 0.0))
    assert np.allclose(seq.times, [0.0, 0.4, 0.8, 1.6, 2.0, 2.4, 2.8], atol=1e-12)
    assert np.array_equal(seq.values, [0.0, 0.4, 0.8, 0.4, 0.0, 0.4, 0.8])
    assert seq.horizon == 3.0


def test_zigzag_off_grid_start():
    # each direction reversal swallows one re-hit of the turn level
    seq = lebesgue_sequence(ZIGZAG3, GridSpec(0.5, 0.25))
    assert np.allclose(seq.times, [0.0, 0.25, 0.75, 1.75, 2.75], atol=1e-12)
    assert np.array_equal(seq.values, [0.0, 0.25, 0.75, 0.25, 0.75])


@given(seed=st.integers(0, 50), mi=st.integers(2, 5), off=st.floats(0.0, 0.99))
@settings(max_examples=40, deadline=None)
def test_sequence_structure(seed, mi, off):
    x = _wiener(seed)
    d = 2.0**-mi
    r = off * d
    seq = lebesgue_sequence(x, GridSpec(d, r))
    assert seq.times[0] == 0.0 and seq.values[0] == x.values[0]
    assert np.all(np.diff(seq.times) > 0)
    assert seq.times[-1] <= x.horizon
    if len(seq) > 1:
        # stops after the first sit on the level grid and move one mesh at a time
        k = np.round((seq.values[1:] - r) / d)
        assert np.array_equal(seq.values[1:], k * d + r)
        assert np.all(np.abs(np.abs(np.diff(seq.values[1:])) - d) < 1e-12)
        assert abs(seq.values[1] - seq.values[0]) <= d + 1e-12


def test_cover_zigzag_witness():
    seq = lebesgue_sequence(ZIGZAG3, GridSpec(0.4, 0.0))
    rep = verify_fine_cover(ZIGZAG3, seq, 0.4)
    assert not rep.holds
    assert rep.worst_oscillation == pytest.approx(0.6, abs=1e-12)
    assert rep.witness_interval[0] == pytest.approx(0.8, abs=1e-12)
    assert rep.witness_interval[1] == pytest.approx(1.6, abs=1e-12)
    assert verify_fine_cover(ZIGZAG3, seq, 0.6 + 1e-9).holds
    with pytest.raises(ValueError):
        verify_fine_cover(ZIGZAG3, seq, -0.1)


@given(seed=st.integers(0, 50), mi=st.integers(2, 5), off=st.floats(0.0, 0.99))
@settings(max_examples=30, deadline=None)
def test_lebesgue_sequence_covers_at_twice_the_mesh(seed, mi, off):
    x = _wiener(seed)
    d = 2.0**-mi
    seq = lebesgue_sequence(x, GridSpec(d, off * d))
    assert verify_fine_cover(x, seq, 2.0 * d).holds


def _cover_reference(path, seq):
    """verify_fine_cover's per-interval loop before it was vectorized, verbatim."""
    bounds = np.append(seq.times, path.horizon)
    stamps = np.union1d(path.times, bounds)
    vals = evaluate_many(path, stamps)
    idx = np.searchsorted(stamps, bounds, side="left")
    worst = -1.0
    witness = (0.0, 0.0)
    for n in range(len(bounds) - 1):
        lo, hi = idx[n], idx[n + 1]
        seg = vals[lo : hi + 1]
        osc = float(seg.max() - seg.min()) if seg.size else 0.0
        if osc > worst:
            worst = osc
            witness = (float(bounds[n]), float(bounds[n + 1]))
    return max(worst, 0.0), witness


@given(
    seed=st.integers(0, 50), n=st.integers(1, 12), repeats=st.integers(0, 3), end=st.booleans()
)
@settings(max_examples=60, deadline=None)
def test_cover_is_the_per_interval_loop(seed, n, repeats, end):
    x = _wiener(seed, step=2.0**-5)
    rng = np.random.default_rng(seed)
    # stops at and between samples, repeated, and possibly at the horizon
    at_samples = x.times[rng.integers(x.times.size, size=n)]
    picks = np.concatenate((rng.uniform(0.0, x.horizon, n), at_samples))
    times = np.sort(np.concatenate(([0.0], picks, picks[:repeats], [x.horizon] if end else [])))
    seq = StoppingSequence(times, evaluate_many(x, times), x.horizon)
    rep = verify_fine_cover(x, seq, 0.5)
    assert (rep.worst_oscillation, rep.witness_interval) == _cover_reference(x, seq)


def test_merge_unions_stop_times():
    a = lebesgue_sequence(ZIGZAG3, GridSpec(0.4, 0.0))
    b = lebesgue_sequence(ZIGZAG3, GridSpec(0.5, 0.25))
    m = merge(a, b, ZIGZAG3)
    assert np.array_equal(m.times, np.union1d(a.times, b.times))
    # merged values come from the path, not from either level grid
    idx = np.searchsorted(m.times, a.times)
    assert np.allclose(m.values[idx], evaluate_many(ZIGZAG3, m.times[idx]), atol=1e-12)


def test_merge_rejects_horizon_mismatch():
    a = lebesgue_sequence(ZIGZAG3, GridSpec(0.4))
    short = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]))
    b = lebesgue_sequence(short, GridSpec(0.4))
    with pytest.raises(ValueError):
        merge(a, b, ZIGZAG3)


def test_resource_limit_guard():
    with pytest.raises(ResourceLimitError):
        lebesgue_sequence(ZIGZAG3, GridSpec(0.01), max_hits=10)


@pytest.mark.parametrize(
    "values,mesh",
    [
        ([1e7, 1e7 + 1e-6], 1e-12),  # 10^6 hits, but level indices past 2^53
        ([0.0, 1e300], 1e-12),
        ([0.0, 1e300], 1.0),
        ([2.0**53 - 4, 2.0**53], 1.0),
    ],
)
def test_level_indices_past_float_precision_are_refused(values, mesh):
    path = SampledPath(np.asarray([0.0, 1.0]), np.asarray(values))
    with pytest.raises(ValueError):
        lebesgue_sequence(path, GridSpec(mesh))


def test_level_indices_just_inside_float_precision():
    k = 2.0**53 - 4
    path = SampledPath(np.asarray([0.0, 3.0]), np.asarray([k, k + 3.0]))
    seq = lebesgue_sequence(path, GridSpec(1.0))
    assert np.array_equal(seq.times, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(seq.values, [k, k + 1.0, k + 2.0, k + 3.0])


def _sorted(min_size=0):
    # + 0.0 turns -0.0 into 0.0: union1d and the merge may keep either zero
    floats = st.lists(st.floats(-4.0, 4.0), min_size=min_size, max_size=30)
    return floats.map(lambda v: np.sort(np.asarray(v, dtype=np.float64)) + 0.0)


@given(times=_sorted(), own=_sorted(1), shared=st.lists(st.integers(0, 100), max_size=30))
@settings(max_examples=200, deadline=None)
def test_merge_stops_is_union_and_searchsorted(times, own, shared):
    # stops repeat, and some are drawn from times
    picked = times[np.asarray(shared, dtype=np.intp) % times.size] if times.size else own
    stops = np.sort(np.concatenate((own, own[:2], picked)))
    merged, idx = _merge_stops(times, stops)
    union = np.union1d(times, stops)
    assert merged.tobytes() == union.tobytes()
    assert idx.tobytes() == (np.searchsorted(stops, union, "right") - 1).tobytes()
