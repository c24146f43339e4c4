"""Grid stopping-time sequences for piecewise-linear paths.

The level sequence of a path X on the grid d*Z + r stops at tau_0 = 0 and then
at each first time the path hits a grid level different from the level of the
previous stop. On a continuous path consecutive stop values are adjacent grid
levels, so stop values are snapped to exact k*d + r floats; the one exception
is the initial value, which is the raw X_0 whether or not it lies on the grid.

All hits are extracted in one vectorized pass, for one mesh and any number of
offsets at once: each linear segment owns the grid levels it sweeps strictly
after its start sample (so a sample lying exactly on a level belongs to the
segment that ends there), and re-touches of the current level are dropped. A
hit exactly on a level counts as reaching it. Hit times are solved only by
the readers that need them.
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


def _level_runs(path: SampledPath, d: float, offsets, max_hits: int = MAX_GRID_HITS):
    """The grid sweep: the level runs of the path on d*Z + r for each r of offsets.

    Returns (start_on_grid, runs). start_on_grid[k] says whether X_0 lies on
    grid k. runs yields, block by block and offset by offset, (k, seg, cnt,
    first, step): offset k's runs of the block in time order, run i hitting
    the cnt[i] levels first[i], first[i] + step[i], ... on segment seg[i],
    with step[i] = +1 or -1. A run hits every level its segment sweeps
    strictly after its start sample, less a re-touch of the level of the
    latest stop, so no two consecutive hits share a level. The arrays are
    fresh, but the sweep works in this thread's scratch rows: consume one
    sweep before starting another.

    The path is swept in blocks of about _BLOCK / len(offsets) segments, so
    no temporary holds more cells than a single-offset block of _BLOCK
    segments. The resource limit is checked per offset, on its running
    count of swept levels, before a block's runs are yielded.
    """
    v, offsets = path.values, list(offsets)
    vmax, vmin, v0 = float(v.max()), float(v.min()), float(v[0])
    start_on_grid, prev = [], []
    for r in offsets:
        # level indices are exact floats, and fit in int64, below 2^53
        if max(vmax - r, r - vmin) / d >= 2.0**53:
            raise ValueError("path values lie 2^53 or more meshes from the grid offset")
        j0 = round((v0 - r) / d)
        start_on_grid.append(j0 * d + r == v0)
        # the level of the offset's latest stop, if on the grid
        prev.append(j0 if start_on_grid[-1] else None)
    return start_on_grid, _runs(v, d, offsets, prev, max_hits)


def _row_bounds(cells: np.ndarray, rows: int, width: int) -> list:
    """bounds such that cells[bounds[k]:bounds[k + 1]] lie in row k, for
    sorted flat indices into rows of width cells."""
    if rows == 1:  # no search: a single-offset sweep pays nothing for the rows
        return [0, cells.size]
    return np.searchsorted(cells, np.arange(rows + 1) * width).tolist()


def _runs(v: np.ndarray, d: float, offsets: list, prev: list, max_hits: int):
    """_level_runs' blocks, given each offset's latest stop level."""
    n, rows = v.size - 1, len(offsets)
    # segments per block: a block of every offset fits the rows of one
    # single-offset block, so the scratch rows never grow
    size = max(1, (_BLOCK + 1) // rows - 1)
    swept = [0] * rows
    # one row of cells per offset, one column per sample; the last column
    # starts no segment
    cells = _scratch("sweep", rows * (size + 1), 4)
    per_seg = _scratch("sweep-seg", rows * size, 4)
    flags = _scratch("sweep-flags", rows * (size + 1), 2, bool)
    for b in range(0, n, size):
        nb = min(n, b + size) - b
        width = nb + 1
        lo, hi, rise, cnt = (x[: rows * width] for x in cells)
        for k, r in enumerate(offsets):
            row = lo[k * width : (k + 1) * width]
            if r:
                np.subtract(v[b : b + width], r, out=row)
                row /= d
            else:  # v - 0.0 is v, bit for bit: one pass fewer
                np.divide(v[b : b + width], d, out=row)
        np.ceil(lo, out=hi)
        np.floor(lo, out=lo)
        # a segment going up sweeps floor(a)+1 .. floor(b), going down
        # ceil(a)-1 .. ceil(b)
        np.subtract(lo[1:], lo[:-1], out=rise[:-1])
        np.subtract(hi[:-1], hi[1:], out=cnt[:-1])
        np.maximum(cnt[:-1], rise[:-1], out=cnt[:-1])
        cnt[nb::width] = 0.0
        crosses = flags[0][: rows * width]
        np.greater(cnt, 0.0, out=crosses)
        seg = np.flatnonzero(crosses)
        if seg.size == 0:
            continue
        at = _row_bounds(seg, rows, width)
        live = [k for k in range(rows) if at[k] < at[k + 1]]
        c, step, first, last = (x[: seg.size] for x in per_seg)
        up, again = (x[: seg.size] for x in flags)
        np.take(cnt, seg, out=c, mode="clip")
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
        np.equal(first[1:], last[:-1], out=again[1:])
        for k in live:
            swept[k] += int(c[at[k] : at[k + 1]].sum())
            if swept[k] > max_hits:
                raise ResourceLimitError(
                    f"grid hit extraction would produce over {swept[k]:.3g} stops "
                    f"(limit {max_hits:g})"
                )
            again[at[k]] = prev[k] is not None and first[at[k]] == prev[k]
            prev[k] = int(last[at[k + 1] - 1])
        c -= again
        np.multiply(again, step, out=last)
        first += last
        np.greater(c, 0.0, out=up)
        keep = np.flatnonzero(up)
        if keep.size == 0:
            continue
        seg = seg[keep]
        at = _row_bounds(seg, rows, width)
        cnt, first, step = c[keep].astype(np.int64), first[keep], step[keep]
        for k in range(rows):
            if at[k] < at[k + 1]:
                runs = slice(at[k], at[k + 1])
                # flat cell index to segment index
                seg[runs] += b - k * width
                yield k, seg[runs], cnt[runs], first[runs], step[runs]


def _run_levels(cnt: np.ndarray, first: np.ndarray, step: np.ndarray):
    """The levels the runs hit, in order, and the run of each hit."""
    # hit i has level first[s] + step[s] * (i - start[s]) for its run s
    start = np.cumsum(cnt)
    start -= cnt
    base = step * start
    np.subtract(first, base, out=base)
    own = np.repeat(np.arange(cnt.size), cnt)
    buf = np.take(step, own)
    lev = np.arange(own.size, dtype=np.float64)
    lev *= buf
    lev += np.take(base, own, out=buf, mode="clip")
    return own, lev


def _hit_times(path: SampledPath, seg, own, lev, d: float, r: float) -> np.ndarray:
    """The time of each hit of level lev on segment seg[own], from the chord."""
    t, v = path.times, path.values
    end = seg + 1
    t1, v1 = t[end], v[end]
    t0, v0 = t[seg], v[seg]
    ts = lev * d
    ts += r
    buf = np.take(v0, own)
    ts -= buf
    v1 -= v0
    ts /= np.take(v1, own, out=buf, mode="clip")
    np.subtract(t1, t0, out=v1)
    ts *= np.take(v1, own, out=buf, mode="clip")
    ts += np.take(t0, own, out=buf, mode="clip")
    np.maximum(ts, buf, out=ts)
    np.minimum(ts, np.take(t1, own, out=buf, mode="clip"), out=ts)
    return ts


def _grid_hits(path: SampledPath, d: float, r: float, max_hits: int = MAX_GRID_HITS):
    """All successive different-level grid hits of the path, in time order.

    Returns (hit_times, hit_levels, start_on_grid); levels are int64 grid
    indices, hit value = level * d + r. hit_times excludes time 0. Each
    block of the sweep is expanded to its hits before the next is swept.
    """
    on_grid, runs = _level_runs(path, d, [r], max_hits)
    out_t, out_l = [], []
    for _, seg, cnt, first, step in runs:
        own, lev = _run_levels(cnt, first, step)
        out_t.append(_hit_times(path, seg, own, lev, d, r))
        out_l.append(lev.astype(np.int64))
    if not out_t:
        return (np.empty(0), np.empty(0, dtype=np.int64), bool(on_grid[0]))
    if len(out_t) == 1:  # one block's arrays are fresh: no copy
        return out_t[0], out_l[0], bool(on_grid[0])
    return np.concatenate(out_t), np.concatenate(out_l), bool(on_grid[0])


def _stop_values(path: SampledPath, d: float, r: float) -> np.ndarray:
    """The values of the level sequence on d*Z + r, bitwise
    lebesgue_sequence(...).values, without solving a hit time."""
    _, runs = _level_runs(path, d, [r])
    levels = [_run_levels(cnt, first, step)[1] for _, _, cnt, first, step in runs]
    return _snap(path, np.concatenate(levels) if levels else np.empty(0), d, r)


def _snap(path: SampledPath, lev: np.ndarray, d: float, r: float) -> np.ndarray:
    """Stop values: the raw X_0, then each grid level of lev snapped to
    lev * d + r."""
    values = np.empty(lev.size + 1)
    values[0] = path.values[0]
    np.multiply(lev, d, out=values[1:])
    values[1:] += r
    return values


def _transition_counts(path: SampledPath, mesh: float, offsets, t: float | None = None):
    """truncvar.transition_count on the grid mesh*Z + r for each r of
    offsets, from one sweep of the path.

    A run of level hits on a segment that ends by t counts whole, and one on
    a segment that starts after t not at all. Only the run on the segment
    holding t has its hit times solved, by _grid_hits' own arithmetic, so
    every count equals the number of _grid_hits times at or before t.
    """
    if t is not None and np.isnan(t):
        raise ValueError("t must not be NaN")
    upto = path.horizon if t is None else t
    # segment j holds upto, and runs on earlier segments end by it; j is the
    # segment count once upto reaches the horizon
    j = int(np.searchsorted(path.times, upto, side="right")) - 1
    on_grid, runs = _level_runs(path, mesh, offsets)
    hits = np.zeros(len(on_grid), dtype=np.int64)
    for k, seg, cnt, first, step in runs:
        i = int(np.searchsorted(seg, j))
        hits[k] += int(cnt[:i].sum())
        if i < seg.size and seg[i] == j:
            run = slice(i, i + 1)
            own, lev = _run_levels(cnt[run], first[run], step[run])
            ts = _hit_times(path, seg[run], own, lev, mesh, float(offsets[k]))
            hits[k] += int(np.count_nonzero(ts <= upto))
    return np.where(hits > 0, hits - 1 + on_grid, 0)


def lebesgue_sequence(
    path: SampledPath, grid: GridSpec, max_hits: int = MAX_GRID_HITS
) -> StoppingSequence:
    """Level sequence of the path on the grid, stop values snapped to it."""
    return _level_sequence(path, grid.mesh, grid.offset, max_hits)


def _level_sequence(path: SampledPath, d: float, r: float, max_hits=MAX_GRID_HITS):
    """Stops at 0 and at each grid hit of the path on d*Z + r, values snapped."""
    ts, lev, _ = _grid_hits(path, d, r, max_hits)
    return StoppingSequence(np.concatenate(([0.0], ts)), _snap(path, lev, d, r), path.horizon)


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
