"""Simple strategies, model-free integrals, and empirical pseudo-distances.

A simple strategy is a step process: it holds position g_{n-1} on
[tau_{n-1}, tau_n), and its capital against a path X is

    (G.X)(t) = sum_n g_{n-1} (X(tau_n ^ t) - X(tau_{n-1} ^ t)),

exact and piecewise linear between the union of stop and sample times. Step
approximation of a sampled integrand F stops each time F moves 2^-m from its
value at the previous stop; on a continuous path every exit is by exactly
2^-m, so the stops are the level sequence of F on the grid anchored at F_0
and sup |F - F^m| <= 2^-m holds pathwise. Capital curves of successive
approximations form the model-free integral; localization by sigma(F, N)
leaves the curves identical on [0, sigma(F, N)], which is checked, not
assumed.

The empirical pseudo-distances replace the upper expectation with an
ensemble mean (the only surrogate available at desk scale):

    dqv(G, H)  = sum_N 2^-N mean_i sqrt( int_0^{T_N} (G-H)^2 dQ_i )
    dinf(Y, Z) = sum_N 2^-N mean_i  sup_{[0, T_N]} |Y - Z|

with T_N = sigma(X_i, N) ^ horizon and Q_i a dyadic qv estimate of X_i.
Standard errors come from the per-path aggregate contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdg import BdgCertificate, certify_path
from .partitions import StoppingSequence, _level_sequence, _merge_stops
from .paths import REL_TOL, SampledPath, _exit_times, _frozen, _interp, evaluate_many
from .paths import hitting_time_abs
from .quadvar import _qv_along, _sup_gaps, qv_estimate_dyadic, sup_distance

_MAX_VARIATION = 1e12


class ConsistencyError(RuntimeError):
    """Raised when two constructions that must agree pathwise do not."""


@dataclass(frozen=True)
class StepProcess:
    """Right-continuous step function holding values[n] on [tau_n, tau_{n+1}):
    the one type of integrands and simple strategies."""

    seq: StoppingSequence
    values: np.ndarray

    def __post_init__(self):
        v, _ = _frozen(self.values, "step values")
        if v.shape != self.seq.times.shape:
            raise ValueError("one value per stop time required")
        object.__setattr__(self, "values", v)


def capital_process(g: StepProcess, x: SampledPath) -> SampledPath:
    """Capital from zero of holding g's values against x, exact at and between stamps."""
    tau = g.seq.times
    if g.seq.horizon != x.horizon:
        raise ValueError("strategy and path horizons differ")
    pos = g.values
    wx = evaluate_many(x, tau)
    cum = np.concatenate(([0.0], np.cumsum(pos[:-1] * np.diff(wx))))
    stamps, idx = _merge_stops(x.times, tau)
    vals = cum[idx] + pos[idx] * (evaluate_many(x, stamps) - wx[idx])
    return SampledPath(stamps, vals)


def witness_strategy_qv(x: SampledPath, seq: StoppingSequence, threshold: float) -> StepProcess:
    """Strategy whose capital is (X_t - X_0)^2 - qv(t) up to sigma(X, threshold).

    Positions are 2 (X(tau_n) - X_0), zeroed from the first stop at or past
    sigma; the identity telescopes exactly at every stamp t <= sigma.
    """
    w = seq.values
    return _stopped_strategy(seq, 2.0 * (w - w[0]), hitting_time_abs(x, threshold))


def _stopped_strategy(seq: StoppingSequence, positions: np.ndarray, sigma: float) -> StepProcess:
    """A copy of positions held along seq, zeroed from the first stop at or past sigma."""
    g = np.array(positions)
    g[seq.times >= sigma] = 0.0
    return StepProcess(seq, g)


def _prefix_stamps(stamps: np.ndarray, t: float) -> np.ndarray:
    """The sorted stamps in [0, t], with t last."""
    head = stamps[: int(np.searchsorted(stamps, t, side="right"))]
    return head if head.size and head[-1] == t else np.append(head, t)


def witness_identity_gap(x: SampledPath, seq: StoppingSequence, threshold: float) -> float:
    """Max |capital - ((X_t - X_0)^2 - qv(t))| over stamps t <= sigma."""
    return _witness_gap(x, seq, hitting_time_abs(x, threshold))


def _witness_gap(x: SampledPath, seq: StoppingSequence, sigma: float) -> float:
    """witness_identity_gap for a sigma already solved.

    The capital's stamps hold every stop, so each stop up to t = min(sigma,
    horizon) is one of the stamps up to t: the count of stops at or before
    each stamp, less one, is qv_at's index of its last stop, found without
    a search per stamp."""
    w = seq.values
    t = min(sigma, x.horizon)
    cap = capital_process(_stopped_strategy(seq, 2.0 * (w - w[0]), sigma), x)
    stamps = _prefix_stamps(cap.times, t)
    lhs = evaluate_many(cap, stamps)
    dx = evaluate_many(x, stamps) - x.values[0]
    stops = seq.times[: int(np.searchsorted(seq.times, t, side="right"))]
    idx = np.cumsum(np.bincount(np.searchsorted(stamps, stops), minlength=stamps.size))
    idx -= 1
    rhs = dx * dx - _qv_along(x, w, stamps, idx)
    return float(np.max(np.abs(lhs - rhs)))


def bdg_witness_strategy(
    x: SampledPath, seq: StoppingSequence, p: float, threshold: float
) -> StepProcess:
    """Positions from the certificate weights, zeroed from sigma on.

    The weights are h for p = 1 and g for p > 1, taken from certify_path on
    the shifted sampled sequence.
    """
    cert = certify_path(x, seq, p)
    return _stopped_strategy(seq, cert.h if p == 1.0 else cert.g, hitting_time_abs(x, threshold))


def _bdg_witness_gap(x: SampledPath, seq: StoppingSequence, cert: BdgCertificate, sigma: float):
    """Max |capital - (h.x)| at stops up to sigma, for the p = 1 certificate of x along seq."""
    cap = capital_process(_stopped_strategy(seq, cert.h, sigma), x)
    at_stops = evaluate_many(cap, seq.times)
    live = seq.times <= sigma
    return float(np.max(np.abs(at_stops[live] - cert.hx[live]))) if np.any(live) else 0.0


def step_approximation(f: SampledPath, m: int) -> StepProcess:
    """Stops each time f moves 2^-m from its last stop value; holds f there.

    Equals the level sequence of f on the 2^-m grid anchored at f_0, so stop
    values after the first are exact lattice floats and
    sup_t |f(t) - approx(t)| <= 2^-m pathwise.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    q = 2.0**-m
    f0 = float(f.values[0])
    # 2^-m underflows to 0 from m = 1075 on, and f0 / 2^-m overflows sooner
    if q == 0.0 or math.isinf(f0 / q):
        raise ValueError(f"m = {m} is too large: the 2^-m grid cannot be anchored at f_0")
    r = f0 - q * math.floor(f0 / q)
    if not 0.0 <= r < q:
        r = 0.0
    seq = _level_sequence(f, q, r)
    return StepProcess(seq, seq.values)


@dataclass(frozen=True)
class ModelFreeResult:
    """Capital curves of successive step approximations, with Cauchy gaps;
    steps[m] is the step approximation curves[m] integrates."""

    curves: list
    sup_distances: list
    steps: list


def model_free_integral(f: SampledPath, x: SampledPath, m_max: int) -> ModelFreeResult:
    """Curves (F^m . X) for m = 0..m_max plus consecutive sup-distances."""
    if f.horizon != x.horizon:
        raise ValueError("integrand and integrator horizons differ")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    steps = [step_approximation(f, m) for m in range(m_max + 1)]
    curves = [capital_process(g, x) for g in steps]
    gaps = [sup_distance(curves[i], curves[i + 1]) for i in range(len(curves) - 1)]
    return ModelFreeResult(curves=curves, sup_distances=gaps, steps=steps)


def _left_values(g, mesh: np.ndarray) -> np.ndarray:
    """g at the left ends mesh[:-1] of a sorted mesh holding every stop of g
    before mesh[-1]."""
    if isinstance(g, StepProcess):
        return g.values[_merge_stops(mesh, g.seq.times)[1][: mesh.size - 1]]
    if isinstance(g, SampledPath):
        return evaluate_many(g, mesh[:-1])
    raise TypeError("integrand must be a StepProcess or SampledPath")


def _integrand_times(g) -> np.ndarray:
    return g.seq.times if isinstance(g, StepProcess) else g.times


def _product_step(g: StepProcess, h: StepProcess) -> StepProcess:
    """Step process on merged stops with values G*H (left limits)."""
    times, ig = _merge_stops(h.seq.times, g.seq.times)
    _, ih = _merge_stops(g.seq.times, h.seq.times)
    vals = g.values[ig] * h.values[ih]
    return StepProcess(StoppingSequence(times, vals, g.seq.horizon), vals)


def stieltjes_integral(g: StepProcess, v: SampledPath, t: float | None = None) -> float:
    """Left-point Stieltjes integral of the step process g against v on [0, t].

    Exact, on a mesh of every stop of g and stamp of v. The integrator must
    have finite variation; a blowup guard rejects oscillation sums past 1e12.
    Any other integrand is a TypeError.
    """
    if not isinstance(g, StepProcess):
        raise TypeError("integrand must be a StepProcess")
    upto = v.horizon if t is None else t
    if not 0.0 <= upto <= v.horizon:
        raise ValueError("integration limit out of range")
    if float(np.sum(np.abs(np.diff(v.values)))) > _MAX_VARIATION:
        raise ValueError("integrator variation exceeds the finite-variation guard")
    stamps, idx = _merge_stops(v.times, g.seq.times)
    mesh = _prefix_stamps(stamps, upto)
    dv = np.diff(evaluate_many(v, mesh))
    return float(np.sum(g.values[idx[: mesh.size - 1]] * dv))


def _stopped_path(f: SampledPath, sigma: float) -> SampledPath:
    if sigma >= f.horizon:
        return f
    times = np.union1d(f.times, [sigma])
    vals = evaluate_many(f, np.minimum(times, sigma))
    return SampledPath(times, vals)


@dataclass(frozen=True)
class LocalizedResult:
    curve: SampledPath
    levels: list
    sigmas: list
    gaps: list


def localized_integral(
    f: SampledPath, x: SampledPath, n_schedule, m_max: int
) -> LocalizedResult:
    """Model-free integral of f localized at sigma(f, N) over the schedule.

    Successive localizations must coincide on [0, sigma(f, N)] for the
    smaller N; any disagreement past tolerance raises ConsistencyError since
    it can only come from an implementation fault.
    """
    return _localized_integral(f, x, n_schedule, m_max, None)


def _localized_integral(f, x, n_schedule, m_max: int, whole) -> LocalizedResult:
    """localized_integral, given whole, the curve
    capital_process(step_approximation(f, m_max), x) of every level f does
    not reach, when the caller holds it already, else None."""
    levels = sorted(float(n) for n in n_schedule)
    if not levels or levels[0] <= 0.0:
        raise ValueError("localization levels must be positive")
    sigmas = _localization_times(f, levels).tolist()
    # every level whose sigma reaches the horizon stops f at the horizon: one
    # curve per distinct sigma
    built = {} if whole is None else {f.horizon: whole}
    for s in sigmas:
        if s not in built:
            built[s] = capital_process(step_approximation(_stopped_path(f, s), m_max), x)
    curves = [built[s] for s in sigmas]
    gaps = []
    for i in range(len(curves) - 1):
        if curves[i] is curves[i + 1]:
            # a curve takes its own values at its stamps, so of _sup_gaps
            # only the gap at sigma is left: 0, or NaN where the curve
            # overflows there
            at = float(_interp(sigmas[i], curves[i]))
            gap = abs(at - at)
        else:
            gap = float(_sup_gaps(curves[i], curves[i + 1], [sigmas[i]])[0])
        gaps.append(gap)
        scale = 1.0 + float(np.max(np.abs(curves[i].values)))
        if gap > REL_TOL * scale:
            raise ConsistencyError(
                f"localized integrals at N={levels[i]} and N={levels[i + 1]} "
                f"differ by {gap:.3g} on the common window"
            )
    return LocalizedResult(curve=curves[-1], levels=levels, sigmas=sigmas, gaps=gaps)


@dataclass(frozen=True)
class EmpiricalDistanceReport:
    """Ensemble mean of a localized pseudo-distance with its standard error."""

    value: float
    std_error: float
    per_path: np.ndarray
    reference_mean: float | None = None  # d_QV only: mean terminal value of the qv estimate


def _mean_report(per_path: np.ndarray, reference_mean=None) -> EmpiricalDistanceReport:
    n = per_path.size
    se = float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EmpiricalDistanceReport(
        value=float(np.mean(per_path)),
        std_error=se,
        per_path=per_path,
        reference_mean=reference_mean,
    )


def _localization_times(x: SampledPath, levels) -> np.ndarray:
    """T_N = sigma(x, N) ^ horizon for each level N, non-decreasing in N,
    from one exit-time solve: localized_integral, empirical_dqv and
    empirical_dinf take all of a path's localization times from one call,
    and each window is the prefix [0, T_N]."""
    return np.minimum(_exit_times(x, levels), x.horizon)


def empirical_dqv(
    g, h, paths, n_levels: int = 8, qv_level: int = 6
) -> EmpiricalDistanceReport:
    """Ensemble surrogate of the localized qv pseudo-distance between g and h.

    g and h are callables path -> process (step approximations are
    path-dependent). The integrator is the finest dyadic qv estimate at
    qv_level.
    """
    if qv_level < 0:
        raise ValueError("qv_level must be nonnegative")
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one path")
    per_path = np.zeros(len(paths))
    q_end = np.zeros(len(paths))
    for i, x in enumerate(paths):
        t_levels = _localization_times(x, np.arange(1.0, n_levels + 1))
        gi, hi = g(x), h(x)
        q = qv_estimate_dyadic(x, qv_level)[-1]
        q_end[i] = q.values[-1]
        mesh = np.union1d(np.union1d(q.times, _integrand_times(gi)), _integrand_times(hi))
        gap = _left_values(gi, mesh) - _left_values(hi, mesh)
        qvals = evaluate_many(q, mesh)
        cum = np.concatenate(([0.0], np.cumsum(gap * gap * np.diff(qvals))))
        js = (np.searchsorted(mesh, t_levels, side="right") - 1).tolist()
        contrib = 0.0
        for n, (j, q_n) in enumerate(zip(js, _interp(t_levels, q).tolist()), start=1):
            part = gap[j] ** 2 * (q_n - qvals[j]) if j < gap.size else 0.0
            contrib += 2.0**-n * math.sqrt(max(cum[j] + part, 0.0))
        per_path[i] = contrib
    return _mean_report(per_path, float(np.mean(q_end)))


def empirical_dinf(y, z, x_paths, n_levels: int = 8) -> EmpiricalDistanceReport:
    """Ensemble surrogate of the localized sup pseudo-distance between curves.

    y and z are callables path -> curve; localization times come from the
    driving paths in x_paths.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    x_paths = list(x_paths)
    if not x_paths:
        raise ValueError("need at least one path")
    per_path = np.zeros(len(x_paths))
    for i, x in enumerate(x_paths):
        sups = _sup_gaps(y(x), z(x), _localization_times(x, np.arange(1.0, n_levels + 1)))
        per_path[i] = sum(2.0**-n * s for n, s in enumerate(sups.tolist(), start=1))
    return _mean_report(per_path)
