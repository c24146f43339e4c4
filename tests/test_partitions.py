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
from pwcalc import partitions
from pwcalc.partitions import MAX_GRID_HITS, _BLOCK, _grid_hits, _level_runs, _merge_stops
from pwcalc.partitions import _stop_values
from pwcalc.paths import _scratch

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


def _grid_hits_reference(path, d, r, max_hits=MAX_GRID_HITS):
    """partitions._grid_hits before the sweep served several offsets, verbatim.

    All successive different-level grid hits of the path, in time order.

    Returns (hit_times, hit_levels, start_on_grid); levels are int64 grid
    indices, hit value = level * d + r. hit_times excludes time 0.

    The path is swept in blocks of _BLOCK segments, so no per-sample
    temporary is longer than a block. Within a block, hits are expanded only
    after re-touches of the current level are dropped. The resource limit is
    checked on the running count of swept levels before a block's hits are
    expanded.
    """
    t, v = path.times, path.values
    # level indices are exact floats, and fit in int64, below 2^53
    if max(float(v.max()) - r, r - float(v.min())) / d >= 2.0**53:
        raise ValueError("path values lie 2^53 or more meshes from the grid offset")
    n = t.size - 1
    j0 = np.round((v[0] - r) / d)
    start_on_grid = bool(j0 * d + r == v[0])
    prev = int(j0) if start_on_grid else None  # level of the latest stop, if on the grid
    swept = 0
    out_t, out_l = [], []
    rows = _scratch("sweep", _BLOCK + 1, 4)
    per_seg = _scratch("sweep-seg", _BLOCK, 4)
    flags = _scratch("sweep-flags", _BLOCK, 2, bool)
    for b in range(0, n, _BLOCK):
        nb = min(n, b + _BLOCK) - b
        lo, hi, rise, cnt = (x[: nb + 1] for x in rows)
        np.subtract(v[b : b + nb + 1], r, out=lo)
        lo /= d
        np.ceil(lo, out=hi)
        np.floor(lo, out=lo)
        # a segment going up sweeps floor(a)+1 .. floor(b), going down
        # ceil(a)-1 .. ceil(b)
        rise, cnt = rise[:nb], cnt[:nb]
        np.subtract(lo[1:], lo[:-1], out=rise)
        np.subtract(hi[:-1], hi[1:], out=cnt)
        np.maximum(cnt, rise, out=cnt)
        np.greater(cnt, 0.0, out=flags[0][:nb])
        seg = np.flatnonzero(flags[0][:nb])
        if seg.size == 0:
            continue
        c, step, first, last = (x[: seg.size] for x in per_seg)
        up, again = (x[: seg.size] for x in flags)
        np.take(cnt, seg, out=c, mode="clip")
        swept += int(c.sum())
        if swept > max_hits:
            raise ResourceLimitError(
                f"grid hit extraction would produce over {swept:.3g} stops (limit {max_hits:g})"
            )
        np.take(rise, seg, out=step, mode="clip")
        np.greater(step, 0.0, out=up)
        np.take(lo, seg, out=first, mode="clip")
        first += 1.0
        np.take(hi, seg, out=last, mode="clip")
        last -= 1.0
        first -= last
        first *= up
        first += last
        np.multiply(up, 2.0, out=step)
        step -= 1.0
        # at a reversal the first level swept is the level of the latest stop
        np.subtract(c, 1.0, out=last)
        last *= step
        last += first
        again[0] = prev is not None and first[0] == prev
        np.equal(first[1:], last[:-1], out=again[1:])
        prev = int(last[-1])
        c -= again
        np.multiply(again, step, out=last)
        first += last
        np.greater(c, 0.0, out=up)
        keep = np.flatnonzero(up)
        if keep.size == 0:
            continue
        seg = seg[keep]
        seg += b
        cnt = c[keep].astype(np.int64)
        step = step[keep]
        first = first[keep]
        # kept hit i of the block has level first[s] + step[s] * (i - start[s])
        start = np.cumsum(cnt)
        start -= cnt
        first -= step * start
        own = np.repeat(np.arange(seg.size), cnt)
        buf = np.take(step, own)
        lev = np.arange(own.size, dtype=np.float64)
        lev *= buf
        lev += np.take(first, own, out=buf, mode="clip")
        t1, v1 = t[seg + 1], v[seg + 1]
        t0, v0 = t[seg], v[seg]
        ts = lev * d
        ts += r
        ts -= np.take(v0, own, out=buf, mode="clip")
        v1 -= v0
        ts /= np.take(v1, own, out=buf, mode="clip")
        np.subtract(t1, t0, out=v1)
        ts *= np.take(v1, own, out=buf, mode="clip")
        ts += np.take(t0, own, out=buf, mode="clip")
        np.maximum(ts, buf, out=ts)
        np.minimum(ts, np.take(t1, own, out=buf, mode="clip"), out=ts)
        out_t.append(ts)
        out_l.append(lev.astype(np.int64))
    if not out_t:
        return (np.empty(0), np.empty(0, dtype=np.int64), start_on_grid)
    return np.concatenate(out_t), np.concatenate(out_l), start_on_grid


# X_0 on and off the grid, exact touches, flat runs at a level, reversals at
# a level, a single sample
EDGE_PATHS = [
    ZIGZAG3,
    SampledPath(np.arange(9.0), np.asarray([0.0, 0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 0.0, 0.5])),
    SampledPath(np.arange(7.0), np.asarray([0.1, 0.5, 0.25, 0.5, 0.5, -0.75, 0.3])),
    SampledPath(np.asarray([0.0]), np.asarray([0.3])),
]


@pytest.mark.parametrize("block", [_BLOCK, 3, 1])
@pytest.mark.parametrize("mesh, r", [(0.25, 0.0), (0.25, 0.125), (0.1, 0.05), (2.0**-6, 0.0)])
def test_grid_hits_are_bitwise_the_per_offset_sweep(monkeypatch, block, mesh, r):
    # the reference runs whole blocks; the sweep's blocks must not show
    monkeypatch.setattr(partitions, "_BLOCK", block)
    paths = EDGE_PATHS + [_wiener(seed, step=2.0**-7) for seed in range(3)]
    if block == _BLOCK:
        paths.append(_wiener(3, step=2.0**-16))
    for x in paths:
        got, want = _grid_hits(x, mesh, r), _grid_hits_reference(x, mesh, r)
        assert got[2] is want[2]
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("mesh, r", [(0.25, 0.0), (0.25, 0.125), (0.1, 0.05), (2.0**-6, 0.0)])
def test_stop_values_are_the_sequence_values_without_hit_times(monkeypatch, mesh, r):
    paths = EDGE_PATHS + [_wiener(seed, step=2.0**-10) for seed in range(3)]
    want = [lebesgue_sequence(x, GridSpec(mesh, r)).values.tobytes() for x in paths]

    def no_times(*args, **kwargs):
        raise AssertionError("stop values solve no hit time")

    monkeypatch.setattr(partitions, "_grid_hits", no_times)
    assert [_stop_values(x, mesh, r).tobytes() for x in paths] == want


def test_every_offset_of_a_sweep_is_guarded():
    # levels 1..4 on offset 0 but 1..3 on offset 0.1: the limit of 3 stops
    # only the first
    x = SampledPath(np.asarray([0.0, 1.0]), np.asarray([0.1, 1.0]))
    for offsets, limited in (([0.1], False), ([0.1, 0.0], True), ([0.0, 0.1], True)):
        if limited:
            with pytest.raises(ResourceLimitError):
                list(_level_runs(x, 0.25, offsets, max_hits=3)[1])
        else:
            assert [k for k, *_ in _level_runs(x, 0.25, offsets, max_hits=3)[1]] == [0]
    # (r - min) / mesh is 2^53 - 1 on offset 0 but rounds to 2^53 on offset 0.5
    low = SampledPath(np.asarray([0.0, 1.0]), np.asarray([-(2.0**53 - 1.0), 0.0]))
    assert _level_runs(low, 1.0, [0.0])[0] == [True]
    for offsets in ([0.5], [0.0, 0.5]):
        with pytest.raises(ValueError, match="2\\^53"):
            _level_runs(low, 1.0, offsets)
