"""Truncated total variation, level-crossing counts, and the qv sandwich.

The c-truncated total variation of a path over [0, t] is

    ttv(c, [0, t]) = sup over partitions of sum_i max(|dx_i| - c, 0),

the supremum over finite increasing time partitions of the window. Every
window is such a prefix, as every localization in the paper is; the oracle
and the crossing functions read the whole path. For a
piecewise-linear path the supremum is attained on a subset of the sample
times plus the interpolated value at t, which makes both the O(n^2)
reference and the O(n) single pass exact.

Crossing counts use closed thresholds: touching a band edge counts as
reaching that side. With that convention the number of completed mesh
transitions of a level sequence equals the sum of crossing counts of the
grid cells, and integrating the crossing count over band centers recovers
the truncated variation (Banach indicatrix form).

The sandwich check brackets ttv at threshold m^-2 between completed
transition sums of the two neighboring shifted families:

  (m-1) * sum_{k=0}^{m-2} qv_c(mesh (m-1)^-2, offset k (m-1)^-3)
      <= ttv(m^-2, [0, sigma_M ^ t])
      <= (m+1) * sum_{k=0}^{m} qv_c(mesh (m+1)^-2, offset k (m+1)^-3)

where qv_c = mesh^2 * (number of completed transitions, the initial one
counting only when X_0 lies exactly on the grid). The completed-transition
form is what makes both bounds exact pathwise; adding the partial first and
last increments of the plain simple quadratic variation can push the lower
side above ttv by order mesh^2. m >= 3 is required for the lower side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitions import GridSpec, _transition_counts
from .paths import REL_TOL, SampledPath, _interp, hitting_time_abs


def _window_values(path: SampledPath, t: float) -> np.ndarray:
    """Sample values on [0, t], the last one interpolated at t."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError("window must satisfy 0 <= t <= horizon")
    # samples before t as stored: interpolation at a sample returns it
    hi = max(int(np.searchsorted(path.times, t, side="left")), 1)
    return np.append(path.values[:hi], _interp(t, path))


# (rows x samples) cells the quadratic references hold at a time
BLOCK_CELLS = 2**16


def ttv_dp_oracle(path: SampledPath, c: float) -> float:
    """Quadratic-time reference maximization, straight from the definition:
    v_i = max over j < i of v_j + max(|x_i - x_j| - c, 0), one row at a time.
    The gains of a block of rows are computed at once."""
    if not c >= 0.0:
        raise ValueError("threshold c must be nonnegative")
    x = path.values
    n = x.size
    v = np.zeros(n)
    rows = max(1, BLOCK_CELLS // n)
    for a in range(1, n, rows):
        b = min(a + rows, n)
        gains = np.maximum(np.abs(x[a:b, None] - x[:b]) - c, 0.0)
        for i, g in enumerate(gains, start=a):
            v[i] = float(np.max(v[:i] + g[:i]))
    return float(v.max())


def _sweep_from_values(x: np.ndarray, c: float) -> float:
    """Final ttv(c) of the values."""
    it = iter(x.tolist())  # on one row, a loop over floats beats numpy about tenfold
    x0 = next(it)
    best = 0.0
    m_minus = -x0
    m_plus = x0
    for xi in it:
        # v_i = max(best, m_minus + x_i - c, m_plus - x_i - c) >= best, so it
        # is the new best
        v = m_minus + xi - c
        if v > best:
            best = v
        v = m_plus - xi - c
        if v > best:
            best = v
        if best - xi > m_minus:
            m_minus = best - xi
        if best + xi > m_plus:
            m_plus = best + xi
    return best


def ttv_sweep(path: SampledPath, c: float, t: float | None = None) -> float:
    """Single-pass truncated variation on [0, t]; equals ttv_dp_oracle.

    Keeps running maxima of v_j, v_j - x_j, v_j + x_j over processed points,
    which is enough because each new partition leg contributes
    max(x_i - x_j - c, x_j - x_i - c, 0).
    """
    if not c >= 0.0:
        raise ValueError("threshold c must be nonnegative")
    x = path.values if t is None else _window_values(path, t)
    return _sweep_from_values(x, c)


# cells (thresholds x rows x columns) of signed columns staged at a time;
# the stage holds two floats per cell
STAGE_CELLS = 2**14


def _ttv_batch(values: np.ndarray, c) -> np.ndarray:
    """Final ttv(c) for each row of a matrix of window values.

    c is one threshold or a vector of them, giving one row of results per
    threshold. The state (m_minus, m_plus) is one contiguous (2, width)
    array, width = thresholds x rows, threshold-major, and each signed
    column (x_i, -x_i) is staged tiled to that width, so every update is six
    ufunc calls on contiguous operands: m_plus - x_i is m_plus + (-x_i) and
    v_i + x_i is v_i - (-x_i) exactly, so one add and one subtract serve
    both halves. Columns are staged STAGE_CELLS // width at a time, at
    least one, never the matrix. ttv-converge takes every member's ttv(c)
    from one call.
    """
    x = np.asarray(values, dtype=np.float64)
    cs = np.asarray(c, dtype=np.float64)
    if not np.all(cs >= 0.0):
        raise ValueError("threshold c must be nonnegative")
    rows, n = x.shape
    width = cs.size * rows
    best = np.zeros(width)
    if width == 0:
        return best.reshape(cs.shape + (rows,))
    col = np.repeat(cs.reshape(-1), rows)
    # np.negative runs only on contiguous rows here: numpy 2.4's float64
    # negative reads a 64-byte input stride wrongly when its output is strided
    state = np.empty((2, cs.size, rows))
    state[1] = x[:, 0]
    np.negative(state[1], out=state[0])
    state = state.reshape(2, width)
    pair = np.empty_like(state)
    lo, hi = pair
    vi = np.empty_like(best)
    chunk = max(1, STAGE_CELLS // width)
    # signed[i] is the signed column (x_i, -x_i), written by copies alone: a
    # ufunc writing into a strided half of signed allocates a stage-sized buffer
    signed = np.empty((chunk, 2, cs.size, rows))
    neg = np.empty(rows * chunk)
    for j in range(1, n, chunk):
        block = x[:, j : j + chunk]
        k = block.shape[1]
        negated = neg[: rows * k].reshape(rows, k)
        negated[...] = block
        np.negative(negated, out=negated)
        signed[:k, 0] = block.T[:, None, :]
        signed[:k, 1] = negated.T[:, None, :]
        for sx in signed[:k].reshape(k, 2, width):
            np.add(state, sx, out=pair)
            np.maximum(lo, hi, out=vi)
            np.subtract(vi, col, out=vi)
            np.maximum(best, vi, out=best)
            np.subtract(best, sx, out=pair)
            np.maximum(state, pair, out=state)
    best += 0.0  # a tie of zeros in np.maximum may leave -0.0; the scalar form gives +0.0
    return best.reshape(cs.shape + (rows,))


def _crossing_counts_multi(x: np.ndarray, centers: np.ndarray, c: float) -> np.ndarray:
    """Crossing counts of many bands at once.

    Each sample puts a band on a side: +1 at or above its top edge, which
    wins a tie (lo == hi once c/2 rounds away), -1 at or below its bottom
    edge, 0 between. A crossing is a decided side opposite the last decided
    side before it, which a running maximum of indices carries over the 0s.
    Bands go BLOCK_CELLS // samples at a time, at least one.
    """
    lo = centers - 0.5 * c
    hi = centers + 0.5 * c
    count = np.empty(centers.size, dtype=np.int64)
    bands = max(1, BLOCK_CELLS // x.size)
    index = np.arange(x.size)
    for a in range(0, centers.size, bands):
        up = x >= hi[a : a + bands, None]
        side = up.astype(np.int8) - ((x <= lo[a : a + bands, None]) & ~up)
        last = np.maximum.accumulate(np.where(side != 0, index, 0), axis=1)
        before = np.take_along_axis(side, last[:, :-1], axis=1)
        count[a : a + bands] = np.count_nonzero(side[:, 1:] * before == -1, axis=1)
    return count


@dataclass(frozen=True)
class CrossingProfile:
    """Piecewise-constant crossing counts over a partition of band centers."""

    z_lo: np.ndarray
    z_hi: np.ndarray
    counts: np.ndarray

    def integral(self) -> float:
        return float(np.sum((self.z_hi - self.z_lo) * self.counts))


def crossing_profile(path: SampledPath, c: float) -> CrossingProfile:
    """Counts as a function of the band center z, exact between breakpoints.

    The count can only change where a band edge passes a sample value, so the
    breakpoints are {x_i - c/2, x_i + c/2}; each gap is scored at its
    midpoint.
    """
    if not c > 0.0:
        raise ValueError("band width c must be positive")
    x = path.values
    edges = np.unique(np.concatenate((x - 0.5 * c, x + 0.5 * c)))
    if edges.size < 2:
        return CrossingProfile(edges[:1], edges[:1], np.zeros(1, dtype=np.int64))
    mids = 0.5 * (edges[:-1] + edges[1:])
    counts = _crossing_counts_multi(x, mids, c)
    return CrossingProfile(edges[:-1], edges[1:], counts)


def banach_indicatrix_integral(path: SampledPath, c: float) -> float:
    """Integral over band centers of the crossing count; equals ttv(c)."""
    return crossing_profile(path, c).integral()


def transition_count(path: SampledPath, grid: GridSpec, t: float | None = None) -> int:
    """Completed mesh transitions of the level sequence by time t.

    The first move counts only when X_0 lies exactly on the grid; the partial
    move in progress at t never counts. This is the count whose mesh^2
    multiple matches cell crossing sums exactly.
    """
    return int(_transition_counts(path, [(grid.mesh, grid.offset)], t)[0])


@dataclass(frozen=True)
class SandwichReport:
    m: int
    threshold: float
    t_eff: float
    lower: float
    middle: float
    upper: float
    holds_lower: bool
    holds_upper: bool

    @property
    def holds(self) -> bool:
        return self.holds_lower and self.holds_upper


def _shifted_transition_sums(path: SampledPath, ns, t: float) -> dict:
    """{n: sum_k mesh^2 * transitions for the n-offset family at mesh n^-2}
    for each n of ns, from one sweep of the stack of all their grids."""
    ns = sorted(ns)
    grids = [(float(n) ** -2, k * float(n) ** -3) for n in ns for k in range(n)]
    counts = iter(_transition_counts(path, grids, t).tolist())
    sums = {}
    for n in ns:
        d = float(n) ** -2
        total = 0.0
        for _ in range(n):
            total += d * d * next(counts)
        sums[n] = total
    return sums


def sandwich_check(
    path: SampledPath, ms, threshold: float | None = None, t: float | None = None
) -> list[SandwichReport]:
    """Bracket ttv(m^-2) between the two neighboring shifted-family sums.

    Returns one report per m of ms, in order. The stopped time t_eff does not
    depend on m, and the family n serves both m = n + 1 and m = n - 1, so
    each distinct family is summed once, and all of them from one sweep of
    the path: 44 grids for m = 3..8.
    """
    ms = list(ms)
    if any(m < 3 for m in ms):
        raise ValueError("sandwich needs m >= 3")
    big = threshold if threshold is not None else 1.0 + float(np.max(np.abs(path.values)))
    sigma = hitting_time_abs(path, big)
    t_eff = min(path.horizon if t is None else t, sigma, path.horizon)
    sums = _shifted_transition_sums(path, {m + side for m in ms for side in (-1, 1)}, t_eff)
    family = {n: n * total for n, total in sums.items()}
    reports = []
    for m in ms:
        middle = ttv_sweep(path, float(m) ** -2, t_eff)
        lower, upper = family[m - 1], family[m + 1]
        tol = REL_TOL * (1.0 + abs(middle))
        reports.append(
            SandwichReport(
                m=m,
                threshold=big,
                t_eff=t_eff,
                lower=lower,
                middle=middle,
                upper=upper,
                holds_lower=bool(lower <= middle + tol),
                holds_upper=bool(middle <= upper + tol),
            )
        )
    return reports
