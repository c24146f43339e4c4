"""Simple quadratic variation and covariation along stopping sequences.

For a stopping sequence tau and path X, the simple quadratic variation at t is

    qv(t) = sum_n (X(tau_n ^ t) - X(tau_{n-1} ^ t))^2,

where the finite stop list is conceptually followed by +inf stops, so the sum
always ends with the partial increment (X(t) - X(tau_last))^2. Covariation is
the analogous product sum.

Curves are emitted as sampled paths on the union of path sample times and
stop times; between stamps a curve is interpreted linearly (the exact curve
is quadratic there, the stamps themselves are exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitions import GridSpec, StoppingSequence, lebesgue_sequence, merge, verify_fine_cover
from .partitions import _block_runs, _check_span, _merge_stops, _stop_values, _sweep_buffers
from .paths import REL_TOL, PathGeneratorConfig, SampledPath, _bridge_blocks, _interp
from .paths import evaluate_many


@dataclass(frozen=True)
class CheckReport:
    lhs: float
    rhs: float
    holds: bool


def _ineq_holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + REL_TOL * (1.0 + abs(rhs))


def qv_at(path: SampledPath, seq: StoppingSequence, ts: np.ndarray) -> np.ndarray:
    """Exact simple quadratic variation of the path along seq at times ts."""
    ts = np.asarray(ts, dtype=np.float64)
    shape = ts.shape
    ts = ts.reshape(-1)
    idx = np.searchsorted(seq.times, ts, side="right")
    idx -= 1
    out = _qv_along(path, seq.values, ts, idx)
    return out.reshape(shape) if shape else out[0]


def _qv_along(path: SampledPath, w: np.ndarray, ts: np.ndarray, idx: np.ndarray):
    """qv_at on 1-d ts, given the stop values w and the index of the last
    stop at or before each of ts."""
    cum = np.empty(w.size)
    cum[0] = 0.0
    sq = np.diff(w)
    sq *= sq
    np.cumsum(sq, out=cum[1:])
    out = evaluate_many(path, ts)
    buf = np.take(w, idx)
    out -= buf
    out *= out
    out += np.take(cum, idx, out=buf, mode="clip")
    return out


def _terminal_qv(samples, grid: GridSpec) -> list:
    """Simple QV at the horizon, along its level sequence on grid, of each
    path whose samples are a row of samples, bitwise qv_at's: the stop
    values of the whole stack from one sweep, then each row's sum of squared
    stop increments, run as _qv_along runs it, and the square of its last
    sample, the path's value at its horizon, less its last stop value. For
    ttv-converge's references and isometry-mc's non-wiener members."""
    samples = list(samples)
    out = []
    for v, w in zip(samples, _stop_values(samples, grid.mesh, grid.offset)):
        sq = np.diff(w)
        sq *= sq
        total = float(np.cumsum(sq)[-1]) if sq.size else 0.0
        last = float(v[-1] - w[-1])
        out.append(last * last + total)
    return out


def _bridge_terminal_qv(chord: SampledPath, config: PathGeneratorConfig, level: int) -> float:
    """_terminal_qv([generate(config, level).values], GridSpec(2^-level)), bitwise,
    for chord = generate(config) of a wiener config and a level in [0, 1074],
    without building the resolved member: no resolved time, hit array or
    buffer of 3 samples per leaf is made.

    Each block of the bridge resolver goes to the grid sweep as it is made,
    and of its runs only the count K of hits and the level L of the latest
    stop are kept. X_0 = 0 lies on the grid d*Z, d = 2^-level, and every
    later stop value is a level times d, exactly, so each squared increment
    is d*d and _qv_along's cumulative sum of K of them is K * (d*d), exactly:
    K < 2^53 times one power of two, or 0 where d*d underflows. The checks
    and exceptions are those of generate and the sweep, with the 2^53 range
    checked on each block as it comes.
    """
    d = 2.0**-level
    bridge = _bridge_blocks(chord.values, config, config.horizon / config.segments, d)
    if bridge is None:
        return _terminal_qv([chord.values], GridSpec(d))[0]
    prev, swept, hits = [0], [0], 0
    for u, *leaf_arrays in bridge[1]:
        _check_span(max(u.max(), -u.min()))
        runs = _block_runs(u, _sweep_buffers(u.size), [0, u.size], range(1), prev, swept)
        if runs is not None:
            hits += int(runs[1].sum())
        # the next block is built without this one's arrays
        del u, leaf_arrays, runs
    last = chord.values[-1] - prev[0] * d
    return float(hits * (d * d) + last * last)


def qcov_at(
    x: SampledPath, y: SampledPath, seq: StoppingSequence, ts: np.ndarray
) -> np.ndarray:
    """Exact simple quadratic covariation of x and y along seq at times ts."""
    ts = np.asarray(ts, dtype=np.float64)
    idx = np.searchsorted(seq.times, ts, side="right") - 1
    return _qcov_along(x, y, seq, ts, idx)


def _qcov_along(x: SampledPath, y: SampledPath, seq: StoppingSequence, ts, idx):
    """qcov_at, given the index of the last stop at or before each of ts."""
    wx = evaluate_many(x, seq.times)
    wy = evaluate_many(y, seq.times)
    cum = np.concatenate(([0.0], np.cumsum(np.diff(wx) * np.diff(wy))))
    return cum[idx] + (evaluate_many(x, ts) - wx[idx]) * (evaluate_many(y, ts) - wy[idx])


def simple_qv(path: SampledPath, seq: StoppingSequence) -> SampledPath:
    """Simple quadratic variation curve of the path along seq."""
    if seq.horizon != path.horizon:
        raise ValueError("sequence horizon must match the path")
    stamps, idx = _merge_stops(path.times, seq.times)
    return SampledPath(stamps, _qv_along(path, seq.values, stamps, idx))


def simple_qcov(x: SampledPath, y: SampledPath, seq: StoppingSequence) -> SampledPath:
    """Simple quadratic covariation curve of x and y along seq."""
    if x.horizon != y.horizon:
        raise ValueError("paths must share a horizon")
    if seq.horizon != x.horizon:
        raise ValueError("sequence horizon must match the paths")
    # the union of two equal, strictly increasing grids is either of them
    tx, ty = x.times, y.times
    stamps, idx = _merge_stops(tx if np.array_equal(tx, ty) else np.union1d(tx, ty), seq.times)
    return SampledPath(stamps, _qcov_along(x, y, seq, stamps, idx))


def merge_error_bound_check(
    x: SampledPath,
    sigma: StoppingSequence,
    tau: StoppingSequence,
    delta: float,
) -> CheckReport:
    """Check qv-along-merge of the curve (qv^sigma - qv^merge) <= 4 delta^2 qv^merge.

    Requires sigma to cover the path finely at accuracy delta (oscillation of
    the path over every sigma interval, final interval to the horizon
    included, at most delta); raises otherwise.
    """
    cover = verify_fine_cover(x, sigma, delta)
    if not cover.holds:
        raise ValueError(
            f"sigma does not cover the path at accuracy {delta:.17g} "
            f"(worst oscillation {cover.worst_oscillation:.17g})"
        )
    ups = merge(sigma, tau, x)
    h = x.horizon
    pts = np.append(ups.times, h)
    d_vals = qv_at(x, sigma, pts) - qv_at(x, ups, pts)
    lhs = float(np.sum(np.diff(d_vals) ** 2))
    rhs = float(4.0 * delta * delta * qv_at(x, ups, np.asarray([h]))[0])
    return CheckReport(lhs=lhs, rhs=rhs, holds=_ineq_holds(lhs, rhs))


def qv_estimate_dyadic(path: SampledPath, m_max: int) -> list[SampledPath]:
    """Simple qv curves along level sequences at meshes 2^0, ..., 2^-m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    out = []
    for m in range(m_max + 1):
        seq = lebesgue_sequence(path, GridSpec(2.0**-m, 0.0))
        out.append(simple_qv(path, seq))
    return out


def sup_distance(a: SampledPath, b: SampledPath) -> float:
    """Exact sup |a - b| for piecewise-linear curves on a common horizon."""
    if a.horizon != b.horizon:
        raise ValueError("curves must share a horizon")
    return float(_sup_gaps(a, b, [a.horizon])[0])


def _sup_gaps(a: SampledPath, b: SampledPath, ts) -> np.ndarray:
    """sup |a - b| over [0, t] for each t of the non-decreasing ts: the one
    sup-gap kernel, behind sup_distance, the consistency gaps of the
    localized integrals and integration.empirical_dinf.

    A curve takes its own values at its own stamps, so the sup over the
    union of stamps up to t is the larger of the sups over each curve's
    stamps up to t, and the gap at t. Each curve's stamps between two
    consecutive t are reduced once.
    """
    sups = []
    for c, d in ((a, b), (b, a)):
        gap = _interp(c.times, d)
        np.subtract(c.values, gap, out=gap)
        np.abs(gap, out=gap)
        worst, lo = 0.0, 0
        for hi in np.searchsorted(c.times, ts, side="right").tolist():
            if hi > lo:
                worst, lo = max(worst, float(gap[lo:hi].max())), hi
            sups.append(worst)
    sups = np.reshape(sups, (2, -1))
    return np.maximum(np.maximum(sups[0], sups[1]), np.abs(_interp(ts, a) - _interp(ts, b)))
