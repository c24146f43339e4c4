"""Grid stopping-time sequences for piecewise-linear paths.

The level sequence of a path X on the grid d*Z + r stops at tau_0 = 0 and then
at each first time the path hits a grid level different from the level of the
previous stop. On a continuous path consecutive stop values are adjacent grid
levels, so stop values are snapped to exact k*d + r floats; the one exception
is the initial value, which is the raw X_0 whether or not it lies on the grid.

All hits are extracted in one vectorized pass: each linear segment owns the
grid levels it sweeps strictly after its start sample (so a sample lying
exactly on a level belongs to the segment that ends there), and re-touches of
the current level are dropped. A hit exactly on a level counts as reaching it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ResourceLimitError, SampledPath, _frozen, _scratch, evaluate_many

MAX_GRID_HITS = 10**8

# segments per block of _grid_hits: bounds the temporaries, keeps each numpy
# call long
_BLOCK = 32768


@dataclass(frozen=True)
class GridSpec:
    """Grid d*Z + r with mesh d > 0 and offset 0 <= r < d."""

    mesh: float
    offset: float = 0.0

    def __post_init__(self):
        if not self.mesh > 0.0:
            raise ValueError("mesh must be positive")
        if not (0.0 <= self.offset < self.mesh):
            raise ValueError("offset must lie in [0, mesh)")


@dataclass(frozen=True)
class StoppingSequence:
    """Finite non-decreasing stop times starting at 0 with realized values.

    The list is finite; conceptually every later stop is +inf, so horizon
    truncation of any downstream sum picks up the final partial increment.
    """

    times: np.ndarray
    values: np.ndarray
    horizon: float

    def __post_init__(self):
        (t, _), (v, _) = _frozen(self.times, "stop times"), _frozen(self.values, "stop values")
        if t.shape != v.shape or t.size < 1:
            raise ValueError("times and values must be matching 1-d arrays")
        if t[0] != 0.0:
            raise ValueError("stopping sequences start at time 0")
        if t.size > 1 and np.any(t[1:] < t[:-1]):
            raise ValueError("stop times must be non-decreasing")
        if t[-1] > self.horizon:
            raise ValueError("stop times must not exceed the horizon")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.times.size)


def _merge_stops(times: np.ndarray, stops: np.ndarray):
    """np.union1d(times, stops) and, at each of its values, the index of the
    last stop at or before it, for sorted times and non-decreasing stops,
    from one stable merge of the two runs (a stable sort merges presorted
    runs in linear time, where searchsorted would search for every value)."""
    both = np.concatenate((stops, times))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    # stops come first among equal values, so the last of them closes a value
    last = np.empty(merged.size, dtype=bool)
    last[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    idx = np.cumsum(order < stops.size)
    idx -= 1
    return merged[last], idx[last]


def _grid_hits(path: SampledPath, d: float, r: float, max_hits: int = MAX_GRID_HITS):
    """All successive different-level grid hits of the path, in time order.

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


def lebesgue_sequence(
    path: SampledPath, grid: GridSpec, max_hits: int = MAX_GRID_HITS
) -> StoppingSequence:
    """Level sequence of the path on the grid, stop values snapped to it."""
    return _level_sequence(path, grid.mesh, grid.offset, max_hits)


def _level_sequence(path: SampledPath, d: float, r: float, max_hits=MAX_GRID_HITS):
    """Stops at 0 and at each grid hit of the path on d*Z + r, values snapped."""
    ts, lev, _ = _grid_hits(path, d, r, max_hits)
    times = np.concatenate(([0.0], ts))
    values = np.empty(times.size)
    values[0] = path.values[0]
    np.multiply(lev, d, out=values[1:])
    values[1:] += r
    return StoppingSequence(times, values, path.horizon)


@dataclass(frozen=True)
class CoverReport:
    holds: bool
    worst_oscillation: float
    witness_interval: tuple[float, float]


def verify_fine_cover(path: SampledPath, seq: StoppingSequence, delta: float) -> CoverReport:
    """Check sup-inf of the path over every stop interval is <= delta.

    Intervals are [tau_n, tau_{n+1}] plus the final [tau_K, horizon]. The
    worst oscillation and its interval are reported whether or not the bound
    holds.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    bounds = np.append(seq.times, path.horizon)
    stamps = np.union1d(path.times, bounds)
    vals = evaluate_many(path, stamps)
    idx = np.searchsorted(stamps, bounds, side="left")
    # interval n runs from vals[idx[n]] to vals[idx[n + 1]], both included
    ends = vals[idx[1:]]
    osc = np.maximum(np.maximum.reduceat(vals, idx[:-1]), ends)
    osc -= np.minimum(np.minimum.reduceat(vals, idx[:-1]), ends)
    n = int(np.argmax(osc))  # the first widest interval
    worst, witness = float(osc[n]), (float(bounds[n]), float(bounds[n + 1]))
    return CoverReport(holds=bool(worst <= delta), worst_oscillation=worst, witness_interval=witness)


def merge(a: StoppingSequence, b: StoppingSequence, path: SampledPath) -> StoppingSequence:
    """Sorted union of stop times (exact-equality dedup), values re-evaluated."""
    if a.horizon != b.horizon:
        raise ValueError("cannot merge sequences with different horizons")
    if a.horizon != path.horizon:
        raise ValueError("merge path horizon must match the sequences")
    times = np.union1d(a.times, b.times)
    values = evaluate_many(path, times)
    return StoppingSequence(times, values, path.horizon)
