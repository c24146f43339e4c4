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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .paths import ResourceLimitError, SampledPath, _frozen, evaluate_many

MAX_GRID_HITS = 10**8

# segments per block of the grid sweep, for one offset: bounds the
# temporaries, keeps each numpy call long
_BLOCK = 32768


@dataclass(frozen=True)
class GridSpec:
    """Grid d*Z + r with finite mesh d > 0 and offset 0 <= r < d."""

    mesh: float
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mesh < math.inf:
            raise ValueError("mesh must be positive and finite")
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


def _level_runs(path: SampledPath, d: float, offsets):
    """The grid sweep: the level runs of the path on d*Z + r for each r of offsets.

    Returns (start_on_grid, runs). start_on_grid[k] says whether X_0 lies on
    grid k, and runs[k] = (seg, cnt, first, step) are offset k's runs over
    the whole path in time order: run i hits the cnt[i] levels first[i],
    first[i] + step[i], ... on segment seg[i], with step[i] = +1 or -1. A
    run hits every level its segment sweeps strictly after its start sample,
    less a re-touch of the level of the latest stop, so no two consecutive
    hits share a level.

    No temporary holds more cells than a single-offset block of _BLOCK
    segments, and the block buffers are allocated once per call. The limit
    MAX_GRID_HITS is read as the sweep runs and checked per offset, on its
    running count of swept levels, so it trips before any reader expands a hit.
    """
    v, offsets = path.values, list(offsets)
    vmax, vmin, v0 = float(v.max()), float(v.min()), float(v[0])
    start_on_grid, prev = [], []
    for r in offsets:
        _check_span(max(vmax - r, r - vmin) / d)
        j0 = round((v0 - r) / d)
        start_on_grid.append(j0 * d + r == v0)
        # the level of the offset's latest stop, if on the grid
        prev.append(j0 if start_on_grid[-1] else None)
    n = v.size - 1
    # a block holds at most _BLOCK + 1 cells: the whole path for as many
    # offsets as fit, else _BLOCK segments of one offset, so only one-offset
    # blocks carry a latest stop to the next block
    group = max(1, min(len(offsets), (_BLOCK + 1) // (n + 1)))
    size = max(1, min(n, _BLOCK))
    swept = [0] * len(offsets)
    pieces = [[] for _ in offsets]
    # one row of cells per offset, one column per sample; the last column
    # starts no segment
    cells = np.empty(group * (size + 1))
    bufs = _sweep_buffers(cells.size)
    for g, b in itertools.product(range(0, len(offsets), group), range(0, n, size)):
        ks = range(g, min(len(offsets), g + group))
        rows, nb = len(ks), min(n, b + size) - b
        width = nb + 1
        lo = cells[: rows * width]
        for j, k in enumerate(ks):
            row, r = lo[j * width : (j + 1) * width], offsets[k]
            if r:
                np.subtract(v[b : b + width], r, out=row)
                row /= d
            else:  # v - 0.0 is v, bit for bit: one pass fewer
                np.divide(v[b : b + width], d, out=row)
        block = _block_runs(lo, bufs, width, ks, prev, swept)
        if block is None:
            continue
        seg, c, first, step = block
        keep = np.flatnonzero(c > 0.0)
        if keep.size == 0:
            continue
        seg = seg[keep]
        at = _row_bounds(seg, rows, width)
        cnt, first, step = c[keep].astype(np.int64), first[keep], step[keep]
        for j, k in enumerate(ks):
            if at[j] < at[j + 1]:
                runs = slice(at[j], at[j + 1])
                # flat cell index to segment index
                seg[runs] += b - j * width
                pieces[k].append((seg[runs], cnt[runs], first[runs], step[runs]))
    return start_on_grid, [_joined(p) for p in pieces]


def _check_span(meshes: float) -> None:
    """ValueError unless the path's values lie within meshes < 2^53 grid
    meshes of the offset: level indices are exact floats, and fit in int64,
    below 2^53."""
    if meshes >= 2.0**53:
        raise ValueError("path values lie 2^53 or more meshes from the grid offset")


def _sweep_buffers(cells: int) -> tuple:
    """The work buffers of _block_runs for blocks of up to cells cells."""
    return np.empty((3, cells)), np.empty((4, cells)), np.empty((2, cells), dtype=bool)


def _block_runs(lo: np.ndarray, bufs: tuple, width: int, ks, prev: list, swept: list):
    """The level runs of one block of the grid sweep, the one place that
    turns a path's values into runs.

    lo holds the block's samples in grid units, (v - r) / d, one row of width
    samples for each offset k of ks; the last sample of a row starts no
    segment, and the next block of the same offset starts on it. lo is
    overwritten. prev[k], the level of offset k's latest stop or None, and
    swept[k], its running count of swept levels, are carried to the end of
    the block; ResourceLimitError once a count passes MAX_GRID_HITS.

    Returns None when no segment sweeps a level, else (seg, cnt, first,
    step), in row order: run i hits the cnt[i] levels first[i],
    first[i] + step[i], ... on the segment that starts at flat cell seg[i],
    and a run whose only level was a re-touch of the level of the latest
    stop has cnt 0. All but seg are views of bufs.
    """
    rows, nb = len(ks), width - 1
    hi, rise, cnt = (x[: rows * width] for x in bufs[0])
    np.ceil(lo, out=hi)
    np.floor(lo, out=lo)
    # a segment going up sweeps floor(a)+1 .. floor(b), going down
    # ceil(a)-1 .. ceil(b)
    np.subtract(lo[1:], lo[:-1], out=rise[:-1])
    np.subtract(hi[:-1], hi[1:], out=cnt[:-1])
    np.maximum(cnt[:-1], rise[:-1], out=cnt[:-1])
    cnt[nb::width] = 0.0
    crosses = bufs[2][0][: rows * width]
    np.greater(cnt, 0.0, out=crosses)
    seg = np.flatnonzero(crosses)
    if seg.size == 0:
        return None
    at = _row_bounds(seg, rows, width)
    live = [j for j in range(rows) if at[j] < at[j + 1]]
    c, step, first, last = (x[: seg.size] for x in bufs[1])
    up, again = (x[: seg.size] for x in bufs[2])
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
    for j in live:
        k = ks[j]
        swept[k] += int(c[at[j] : at[j + 1]].sum())
        if swept[k] > MAX_GRID_HITS:
            raise ResourceLimitError(
                f"grid hit extraction would produce over {swept[k]:.3g} stops "
                f"(limit {MAX_GRID_HITS:g})"
            )
        again[at[j]] = prev[k] is not None and first[at[j]] == prev[k]
        prev[k] = int(last[at[j + 1] - 1])
    c -= again
    np.multiply(again, step, out=last)
    first += last
    return seg, c, first, step


def _row_bounds(cells: np.ndarray, rows: int, width: int) -> list:
    """bounds such that cells[bounds[k]:bounds[k + 1]] lie in row k, for
    sorted flat indices into rows of width cells."""
    if rows == 1:  # no search: a single-offset sweep pays nothing for the rows
        return [0, cells.size]
    return np.searchsorted(cells, np.arange(rows + 1) * width).tolist()


def _joined(pieces: list) -> tuple:
    """One offset's (seg, cnt, first, step) over the whole path, from its
    blocks' pieces in time order."""
    if len(pieces) == 1:  # one block's arrays are fresh: no copy
        return pieces[0]
    if not pieces:
        return (np.empty(0, np.intp), np.empty(0, np.int64), np.empty(0), np.empty(0))
    return tuple(np.concatenate(field) for field in zip(*pieces))


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


def _grid_hits(path: SampledPath, d: float, r: float):
    """All successive different-level grid hits of the path, in time order.

    Returns (hit_times, hit_levels, start_on_grid); levels are int64 grid
    indices, hit value = level * d + r. hit_times excludes time 0.
    """
    (on_grid,), ((seg, cnt, first, step),) = _level_runs(path, d, [r])
    own, lev = _run_levels(cnt, first, step)
    return _hit_times(path, seg, own, lev, d, r), lev.astype(np.int64), on_grid


def _stop_values(path: SampledPath, d: float, r: float) -> np.ndarray:
    """The values of the level sequence on d*Z + r, bitwise
    lebesgue_sequence(...).values, without solving a hit time."""
    _, ((_, cnt, first, step),) = _level_runs(path, d, [r])
    return _snap(path, _run_levels(cnt, first, step)[1], d, r)


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
    if t is not None and not t >= 0.0:
        raise ValueError("t must not be NaN" if np.isnan(t) else "t must not be negative")
    upto = path.horizon if t is None else t
    # segment j holds upto, and runs on earlier segments end by it; j is the
    # segment count once upto reaches the horizon
    j = int(np.searchsorted(path.times, upto, side="right")) - 1
    on_grid, runs = _level_runs(path, mesh, offsets)
    hits = np.zeros(len(on_grid), dtype=np.int64)
    for k, (seg, cnt, first, step) in enumerate(runs):
        i = int(np.searchsorted(seg, j))
        hits[k] = int(cnt[:i].sum())
        if i < seg.size and seg[i] == j:
            run = slice(i, i + 1)
            own, lev = _run_levels(cnt[run], first[run], step[run])
            ts = _hit_times(path, seg[run], own, lev, mesh, float(offsets[k]))
            hits[k] += int(np.count_nonzero(ts <= upto))
    return np.where(hits > 0, hits - 1 + on_grid, 0)


def lebesgue_sequence(path: SampledPath, grid: GridSpec) -> StoppingSequence:
    """Level sequence on the grid, values snapped; ResourceLimitError past MAX_GRID_HITS stops."""
    return _level_sequence(path, grid.mesh, grid.offset)


def _level_sequence(path: SampledPath, d: float, r: float):
    """Stops at 0 and at each grid hit of the path on d*Z + r, values snapped."""
    ts, lev, _ = _grid_hits(path, d, r)
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
