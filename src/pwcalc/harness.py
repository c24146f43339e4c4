"""Experiment runner: ensembles, convergence tables, and reports.

Each experiment draws a deterministic ensemble (member i uses seed
base_seed + i), computes its tables, and scores two kinds of checks:

  pathwise     exact theorems; any violation is a hard failure
  statistical  ensemble means or medians against tolerance or 3-SE bands;
               warnings by default, failures under strict mode

Reports are byte-identical across runs for a fixed config and seed;
timestamps live in a separate metadata file next to report.json.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import bdg, integration, partitions, quadvar, truncvar
from .partitions import GridSpec, lebesgue_sequence
from .paths import (
    INFINITE_TIME,
    REL_TOL,
    PathGeneratorConfig,
    SampledPath,
    _check_json_fields,
    generate,
)
from .quadvar import simple_qv, sup_distance

SCHEMA_VERSION = 1


def thread_count() -> int:
    raw = os.environ.get("PWCALC_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# ensembles of members with fewer samples run on the calling thread
PARALLEL_MIN_SAMPLES = 2**15


def parallel_map(fn, items, workers: int):
    """Map over ensemble members; results keyed by index, so any schedule
    yields the same list.

    workers is the pool size, which _ensemble_workers sizes; one worker
    loops on the calling thread. Each worker keeps its own bdg weight rows.
    An ensemble gets a pool only when its members reach PARALLEL_MIN_SAMPLES
    samples: two threads that each make many short numpy calls hand the GIL
    back and forth on every call that releases it, which costs more than the
    second core gains. The sandwich preset (100 members of 2^12 steps) took
    1.43 s on one thread and 2.28 s on two (2-core box).
    """
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def tree_sum(values) -> float:
    """Pairwise reduction in index order; independent of scheduling."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
        vals = nxt
    return vals[0]


def tree_mean(values) -> float:
    values = list(values)
    return tree_sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings. seed is the experiment's one seed: building
    the config sets its generator's seed to it, and member i is the generator
    at seed + i. Of _EXPERIMENT_FIELDS, the fields some _EXPERIMENT_TABLE row
    reads, each experiment reads those its row names. A value other than the
    default in any other is refused: it would change the report's echo and
    not its tables. Values are checked when the config is built: the levels
    against the range where 2^-level is a positive float, n_levels in
    [1, 1074], and each p in p_list by bdg.bdg_constant, which refuses a p
    whose C_p is no finite float."""

    experiment: str
    generator: PathGeneratorConfig
    ensemble_size: int = 100
    seed: int = 0
    m_lo: int = 0
    m_hi: int = 8
    c_exponents: tuple = ()
    p_list: tuple = (1.0, 1.5, 2.0, 3.0)
    n_levels: int = 8
    qv_level: int = 6
    est_level: int = 7
    integrand_level: int = 3
    threshold: float | None = None
    strict_mc: bool = False
    oracle: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENT_TABLE:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        reads = _EXPERIMENT_TABLE[self.experiment].reads
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for name in _EXPERIMENT_FIELDS:
            value, default = getattr(self, name), defaults[name]
            if isinstance(default, tuple):  # a list field, held as a tuple
                value = tuple(value)
                object.__setattr__(self, name, value)
                # swept, an empty list would check nothing
                if name in reads and not value:
                    raise ValueError(f"{name} must not be empty for {self.experiment}")
            if name not in reads and value != default:
                raise ValueError(
                    f"{name} is not read by {self.experiment}; leave it at {default!r}"
                )
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed ({self.seed}) must be >= 0")
        # a mesh 2^-m, and distance-rates' weight 2^-n of localisation level
        # n, underflow to 0 past 1074; integral-converge builds levels up to
        # integrand_level + 2
        for name, low, top in (("m_lo", 0, 1074), ("m_hi", 0, 1074), ("n_levels", 1, 1074),
                               ("qv_level", 0, 1074), ("est_level", 0, 1074),
                               ("integrand_level", 0, 1072)):
            if not low <= getattr(self, name) <= top:
                raise ValueError(f"{name} ({getattr(self, name)}) must be in [{low}, {top}]")
        if self.m_lo > self.m_hi:
            raise ValueError(f"m_lo ({self.m_lo}) must not exceed m_hi ({self.m_hi})")
        if not all(0 < c < math.inf for c in self.c_exponents):
            raise ValueError(f"c_exponents {self.c_exponents} must all be > 0 and finite")
        try:  # C_p must be a finite float at each p
            for p in self.p_list:
                bdg.bdg_constant(p)
        except ValueError as exc:
            raise ValueError(f"p_list {self.p_list}: {exc}") from None
        if self.threshold is not None and not self.threshold > 0:
            raise ValueError(f"threshold ({self.threshold}) must be None or > 0")
        if self.generator.seed != self.seed:
            gen = dataclasses.replace(self.generator, seed=self.seed)
            object.__setattr__(self, "generator", gen)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)  # converts the generator as its to_json_dict does
        d["c_exponents"] = list(self.c_exponents)
        d["p_list"] = list(self.p_list)
        d["schema_version"] = SCHEMA_VERSION
        # runtime plumbing, not experiment configuration; keeps reports
        # byte-identical across output locations
        d["output_dir"] = None
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}")
        _check_json_fields(ExperimentConfig, d, "config")
        d["generator"] = PathGeneratorConfig.from_json_dict(d["generator"])
        return ExperimentConfig(**d)


@dataclass
class Check:
    name: str
    kind: str  # "pathwise" or "statistical"
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    experiment: str
    config: ExperimentConfig
    checks: list
    tables: dict

    @property
    def pathwise_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.kind == "pathwise")

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return _jsonable(
            {
                "schema_version": SCHEMA_VERSION,
                "experiment": self.experiment,
                "config": self.config.to_json_dict(),
                "checks": [
                    {"name": c.name, "kind": c.kind, "passed": c.passed, "details": c.details}
                    for c in self.checks
                ],
                "tables": self.tables,
            }
        )


def _member_generator(cfg: ExperimentConfig, i: int) -> PathGeneratorConfig:
    """cfg's generator for ensemble member i: seed cfg.seed + i."""
    return dataclasses.replace(cfg.generator, seed=cfg.seed + i)


def _member(cfg: ExperimentConfig, i: int) -> SampledPath:
    """Ensemble member i, the chord path through its samples."""
    return generate(_member_generator(cfg, i))


def _ensemble_workers(cfg: ExperimentConfig) -> int:
    """Pool size of cfg's ensemble, whose members each reach
    cfg.generator.segments samples: 1 below PARALLEL_MIN_SAMPLES, else one
    worker per member and per CPU the process may run on, up to
    PWCALC_THREADS."""
    if cfg.generator.segments < PARALLEL_MIN_SAMPLES:
        return 1
    return min(thread_count(), cfg.ensemble_size, _usable_cpus())


def _each_member(cfg: ExperimentConfig, fn) -> list:
    """[fn(i, member i) for every member i], in member order, whatever the
    thread count."""
    return parallel_map(
        lambda i: fn(i, _member(cfg, i)),
        range(cfg.ensemble_size),
        _ensemble_workers(cfg),
    )


def _median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def _medians(keys, columns) -> dict:
    """{key: median of its column}, in key order."""
    return {k: _median(col) for k, col in zip(keys, columns)}


def _jsonable(obj):
    """Recursively coerce to JSON-safe values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    return obj


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=np.float64)
    se = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(tree_mean(arr)), se


def _z(diff: float, se: float) -> float:
    """|diff| in standard errors. An exact zero agrees even when se is 0 (a
    deterministic ensemble); any other diff at se = 0 is infinitely far."""
    return 0.0 if diff == 0.0 else (abs(diff) / se if se > 0 else math.inf)


def _mesh_over_sqrt_step(cfg: ExperimentConfig, mesh: float) -> float:
    """A grid's mesh in units of the generator's sqrt(step); grid estimators
    on chord members lose quadratic variation as this ratio falls."""
    return mesh / math.sqrt(cfg.generator.step)


def _qv_target(cfg: ExperimentConfig) -> float | None:
    """Displacement variance of a wiener generator over the full horizon."""
    gen = cfg.generator
    return gen.horizon * gen.volatility**2 if gen.kind == "wiener" else None


def _over_target(mean: float, cfg: ExperimentConfig) -> dict:
    target = _qv_target(cfg)
    return {} if not target else {"reference_mean_over_target": mean / target}


def _non_increasing(values) -> bool:
    vals = [float(v) for v in values]
    slack = 1e-12 * (1.0 + max((abs(v) for v in vals), default=0.0))
    return all(vals[i + 1] <= vals[i] + slack for i in range(len(vals) - 1))


# --------------------------------------------------------------------------
# experiments


def _exp_bdg_certify(cfg: ExperimentConfig):
    def one(i, x):
        rng = np.random.default_rng(cfg.seed + 900_000 + i)
        spread = float(np.max(x.values) - np.min(x.values))
        mesh = max(spread, 1e-6) * float(rng.uniform(0.08, 0.4))
        offset = float(rng.uniform(0.0, mesh))
        offset = 0.0 if offset >= mesh else offset
        seq = lebesgue_sequence(x, GridSpec(mesh, offset))
        # the p = 1 certificate serves the rows and both witness checks, which
        # run unstopped
        cert1 = bdg.certify_path(x, seq, 1.0)
        rows = [
            {"member": i, "p": p, "stops": len(seq),
             "holds": bool((cert1 if p == 1.0 else bdg.certify_path(x, seq, p)).holds)}
            for p in cfg.p_list
        ]
        return rows, (
            integration._witness_gap(x, seq, INFINITE_TIME),
            integration._bdg_witness_gap(x, seq, cert1, INFINITE_TIME),
        )

    per_member, gaps = zip(*_each_member(cfg, one))
    rows = [row for member_rows in per_member for row in member_rows]
    violations = sum(not row["holds"] for row in rows)
    worst_gap = max([0.0, *(g for pair in gaps for g in pair)])
    checks = [
        Check(
            "bdg-certificates-hold",
            "pathwise",
            violations == 0,
            {"violations": violations, "cases": len(rows)},
        ),
        Check(
            "witness-identities-exact",
            "pathwise",
            worst_gap <= REL_TOL,
            {"worst_gap": worst_gap, "tolerance": REL_TOL},
        ),
    ]
    return checks, {"certificates": rows}


def _exp_qv_converge(cfg: ExperimentConfig):
    ms = list(range(cfg.m_lo, cfg.m_hi + 1))
    level = ms[-2] if len(ms) > 1 else ms[-1]

    def one(i, x):
        # one curve at a time beside its predecessor: a member's curves are
        # each as long as the member
        gaps, prev = [], None
        for m in ms:
            curve = simple_qv(x, lebesgue_sequence(x, GridSpec(2.0**-m, 0.0)))
            if prev is not None:
                gaps.append(sup_distance(prev, curve))
            if m == level:
                terminal = float(curve.values[-1])
            prev = curve
        return (*gaps, terminal)

    *gap_columns, terminal = zip(*_each_member(cfg, one))
    medians = _medians(ms[:-1], gap_columns)
    mean, se = _mean_se(terminal)
    checks = [
        Check(
            "median-consecutive-gap-decreasing",
            "statistical",
            _non_increasing(medians.values()),
            {"medians": {str(m): v for m, v in medians.items()},
             "mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, 2.0**-ms[-1]),
             **_over_target(mean, cfg)},
        ),
    ]
    target = _qv_target(cfg)
    if target is not None:
        z = _z(mean - target, se)
        checks.append(
            Check(
                "terminal-mean-matches-target",
                "statistical",
                bool(z <= 3.0),
                {"mean": mean, "se": se, "target": target, "z": z,
                 "estimate_level": level,
                 "mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, 2.0**-level),
                 **_over_target(mean, cfg)},
            )
        )
    table = [{"m": m, "median_gap": v} for m, v in medians.items()]
    return checks, {"consecutive_gaps": table, "terminal": [{"mean": mean, "se": se}]}


def _exp_ttv_converge(cfg: ExperimentConfig):
    exps = list(cfg.c_exponents)
    grid = GridSpec(2.0**-cfg.est_level, 0.0)
    values, est = zip(*_each_member(cfg, lambda i, x: (x.values, quadvar._terminal_qv(x, grid))))
    est = np.asarray(est)
    cs = [float(m) ** -2 for m in exps]
    ttv = truncvar._ttv_batch(np.stack(values), cs)
    medians = _medians(exps, (np.abs(c * t - est) for c, t in zip(cs, ttv)))
    final = medians[exps[-1]]
    # the dyadic reference on chord members, and how close c comes to sqrt(step)
    diag = {"mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, grid.mesh),
            **_over_target(float(tree_mean(est)), cfg)}
    checks = [
        Check(
            "median-ttv-distance-decreasing",
            "statistical",
            _non_increasing(medians[m] for m in exps),
            {"medians": {str(m): v for m, v in medians.items()}, **diag},
        ),
        Check(
            "final-ttv-distance-small",
            "statistical",
            bool(final < 0.05),
            {"final_median": final, "tolerance": 0.05, "estimate_level": cfg.est_level,
             "c_over_sqrt_step": _mesh_over_sqrt_step(cfg, cs[-1]), **diag},
        ),
    ]
    table = [{"m": m, "c": c, "median_abs_diff": medians[m]} for m, c in zip(exps, cs)]
    return checks, {"ttv_vs_dyadic": table}


def _exp_sandwich(cfg: ExperimentConfig):
    ms = list(range(cfg.m_lo, cfg.m_hi + 1))

    def reports(x):
        return truncvar.sandwich_check(x, ms, cfg.threshold)

    fixtures = [
        ("zigzag-1", generate(PathGeneratorConfig("zigzag", horizon=3.0, step=1.0, seed=0))),
        ("zigzag-half", generate(
            PathGeneratorConfig("zigzag", horizon=2.0, step=0.25, seed=0, volatility=0.5)
        )),
    ]
    labelled = _each_member(cfg, lambda i, x: (str(i), reports(x)))
    labelled += [(name, reports(x)) for name, x in fixtures]
    rows = [
        {"member": label, "m": rep.m, "lower": rep.lower, "middle": rep.middle,
         "upper": rep.upper, "holds": bool(rep.holds)}
        for label, reps in labelled
        for rep in reps
    ]
    failures = sum(not row["holds"] for row in rows)
    checks = [
        Check("sandwich-bounds-hold", "pathwise", failures == 0, {"failures": failures})
    ]
    return checks, {"sandwich": rows}


def _exp_isometry_mc(cfg: ExperimentConfig):
    m = cfg.m_hi
    grid = GridSpec(2.0**-m, 0.0)
    # E[X_T^2] = E[QV_T] needs a martingale between samples: each wiener
    # member's QV is taken with its Brownian bridges resolved on the grid
    # the check uses
    wiener = cfg.generator.kind == "wiener"

    def one(i, x):
        if wiener:
            qv = quadvar._bridge_terminal_qv(x, _member_generator(cfg, i), m)
        else:
            qv = quadvar._terminal_qv(x, grid)
        return float((x.values[-1] - x.values[0]) ** 2), qv

    disp, qv = (np.asarray(col) for col in zip(*_each_member(cfg, one)))
    diff_mean, diff_se = _mean_se(disp - qv)
    z = _z(diff_mean, diff_se)
    dm, dse = _mean_se(disp)
    qm, qse = _mean_se(qv)
    checks = [
        Check(
            "isometry-means-agree",
            "statistical",
            bool(z <= 3.0),
            {
                "mean_displacement_sq": dm,
                "mean_qv": qm,
                "paired_diff_mean": diff_mean,
                "paired_diff_se": diff_se,
                "z": z,
                "mesh_level": m,
                "mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, grid.mesh),
                "qv_over_displacement": qm / dm if dm else math.inf,
            },
        )
    ]
    table = [
        {"quantity": "displacement_sq", "mean": dm, "se": dse},
        {"quantity": "qv_estimate", "mean": qm, "se": qse},
    ]
    return checks, {"isometry": table}


def _exp_bdg_mc(cfg: ExperimentConfig):
    grid = GridSpec(0.05, 0.0)

    def one(i, x):
        s = bdg._terminal_sequence(x, grid)
        return float(s.abs_max[-1]), float(s.bracket[-1])

    xs, br = (np.asarray(col) for col in zip(*_each_member(cfg, one)))
    checks = []
    table = []
    for p in cfg.p_list:
        cp = bdg.bdg_constant(p)
        m1, s1 = _mean_se(cp * br ** (0.5 * p) - xs**p)
        m2, s2 = _mean_se(cp * xs**p - br ** (0.5 * p))
        checks.append(
            Check(
                f"bdg-mean-bounds-p={p:g}",
                "statistical",
                bool(m1 >= -3.0 * s1 and m2 >= -3.0 * s2),
                {"margin_max_side": m1, "se_max_side": s1,
                 "margin_bracket_side": m2, "se_bracket_side": s2, "cp": cp},
            )
        )
        table.append({"p": p, "cp": cp, "margin_max_side": m1, "margin_bracket_side": m2})
    return checks, {"bdg_mc": table}


def _exp_integral_converge(cfg: ExperimentConfig):
    js = list(range(cfg.m_lo, cfg.m_hi + 1))

    def one(i, x):
        y = _member(cfg, 1_000_000_000 + i)
        h = integration.step_approximation(y, cfg.integrand_level)
        # g, the step approximation of x, and its capital curve against x are
        # those the integral of x against itself builds
        mf = integration.model_free_integral(x, x, cfg.integrand_level + 2)
        g, gx = mf.steps[cfg.integrand_level], mf.curves[cfg.integrand_level]
        hy = integration.capital_process(h, y)
        gh = integration._product_step(g, h)

        def gap(d):
            # half-mesh offset keeps the grid off the integrand's stop levels
            grid = GridSpec(d, 0.5 * d)
            seq = partitions.merge(lebesgue_sequence(x, grid), lebesgue_sequence(y, grid), x)
            lhs = float(quadvar.qcov_at(gx, hy, seq, np.asarray([x.horizon]))[0])
            rhs = integration.stieltjes_integral(gh, quadvar.simple_qcov(x, y, seq), x.horizon)
            return abs(lhs - rhs)

        local = _localization_check(x, mf) if i == 0 else None
        return (*(gap(2.0**-j) for j in js), mf.sup_distances, local)

    *gap_columns, sups, local = zip(*_each_member(cfg, one))
    medians = _medians(js, gap_columns)
    cmed = [_median(col) for col in zip(*sups)]
    checks = [
        Check(
            "covariation-identity-refines",
            "statistical",
            bool(_non_increasing(medians.values()) and medians[js[-1]] < 0.02),
            {"medians": {str(j): v for j, v in medians.items()}, "final_tolerance": 0.02},
        ),
        Check(
            "integral-cauchy-gaps-decreasing",
            "statistical",
            bool(_non_increasing(cmed)),
            {"medians": [float(v) for v in cmed]},
        ),
        local[0],
    ]
    return checks, {
        "covariation": [{"j": j, "median_gap": v} for j, v in medians.items()],
        "cauchy": [{"m": m, "median_sup_gap": v} for m, v in enumerate(cmed)],
    }


def _localization_check(x: SampledPath, mf: integration.ModelFreeResult) -> Check:
    # localization consistency is pathwise: any disagreement raises; mf, the
    # integral of x against itself, holds the curve of the levels x does not reach
    try:
        integration._localized_integral(x, x, [1.0, 2.0, 4.0], len(mf.curves) - 1, mf.curves[-1])
    except integration.ConsistencyError as exc:
        return Check("localization-consistent", "pathwise", False, {"error": str(exc)})
    return Check("localization-consistent", "pathwise", True, {})


def _exp_distance_rates(cfg: ExperimentConfig):
    ms = list(range(cfg.m_lo, cfg.m_hi + 1))
    ens = _each_member(cfg, lambda i, x: x)
    levels = {"n_levels": cfg.n_levels, "qv_level": cfg.qv_level}

    def fm(m):
        return lambda x: integration.step_approximation(x, m)

    def fm_curve(m):
        return lambda x: integration.capital_process(integration.step_approximation(x, m), x)

    rate_rows = []
    checks = []
    for m in ms:
        rep = integration.empirical_dqv(fm(m), lambda x: x, ens, **levels)
        bound = 12.5 * 2.0**-m
        ok = bool(rep.value <= bound + 3.0 * rep.std_error)
        rate_rows.append(
            {"m": m, "dqv": rep.value, "se": rep.std_error, "bound": bound, "holds": ok}
        )
        checks.append(
            Check(f"dqv-rate-m={m}", "statistical", ok,
                  {"dqv": rep.value, "bound": bound, "se": rep.std_error})
        )
    pair_rows = []
    pairs = [(m, m + 1) for m in ms[:-1]] + ([(ms[0], ms[-1])] if len(ms) > 1 else [])
    for a, b in pairs:
        dq = integration.empirical_dqv(fm(a), fm(b), ens, **levels)
        di = integration.empirical_dinf(fm_curve(a), fm_curve(b), ens, n_levels=cfg.n_levels)
        mean, se = _mean_se(di.per_path - 6.0 * dq.per_path)
        ok = bool(mean <= 3.0 * se)
        pair_rows.append(
            {"m": a, "m_prime": b, "dinf": di.value, "dqv": dq.value,
             "margin": mean, "se": se, "holds": ok}
        )
        checks.append(
            Check(
                f"continuity-m={a}-vs-{b}",
                "statistical",
                ok,
                {"dinf": di.value, "dqv": dq.value, "margin": mean, "se": se,
                 "mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, 2.0**-b),
                 "qv_mesh_over_sqrt_step": _mesh_over_sqrt_step(cfg, 2.0**-cfg.qv_level),
                 **_over_target(dq.reference_mean, cfg)},
            )
        )
    return checks, {"rates": rate_rows, "continuity": pair_rows}


@dataclass(frozen=True)
class _Experiment:
    """One experiment: the function that runs it, its preset's generator and
    ensemble size, and the fields of ExperimentConfig it reads, at their
    preset values."""

    fn: object  # config -> (checks, tables)
    generator: PathGeneratorConfig
    ensemble_size: int
    reads: dict


def _wiener(step: float) -> PathGeneratorConfig:
    return PathGeneratorConfig("wiener", step=step)


# presets sized to the standing convergence checks
_EXPERIMENT_TABLE = {
    "bdg-certify": _Experiment(
        _exp_bdg_certify, PathGeneratorConfig("custom-seeded", step=2.0**-8), 200,
        {"p_list": (1.0, 1.5, 2.0, 3.0)},
    ),
    "qv-converge": _Experiment(
        _exp_qv_converge, _wiener(2.0**-16), 200, {"m_lo": 4, "m_hi": 10}
    ),
    "ttv-converge": _Experiment(
        _exp_ttv_converge, _wiener(2.0**-16), 200,
        {"c_exponents": tuple(range(4, 13)), "est_level": 7},
    ),
    "sandwich": _Experiment(
        _exp_sandwich, _wiener(2.0**-12), 100, {"m_lo": 3, "m_hi": 8, "threshold": None}
    ),
    "isometry-mc": _Experiment(_exp_isometry_mc, _wiener(2.0**-16), 10_000, {"m_hi": 8}),
    "bdg-mc": _Experiment(_exp_bdg_mc, _wiener(2.0**-12), 2000, {"p_list": (1.0, 2.0)}),
    "integral-converge": _Experiment(
        _exp_integral_converge, _wiener(2.0**-16), 100,
        {"m_lo": 1, "m_hi": 5, "integrand_level": 3},
    ),
    "distance-rates": _Experiment(
        _exp_distance_rates, _wiener(2.0**-12), 200,
        {"m_lo": 0, "m_hi": 8, "n_levels": 8, "qv_level": 6},
    ),
}

EXPERIMENTS = tuple(_EXPERIMENT_TABLE)

# the settings some experiment reads, in field order; a config refuses a value
# other than the default in any of them that its experiment does not read
_EXPERIMENT_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
    if any(f.name in row.reads for row in _EXPERIMENT_TABLE.values())
)


def default_config(experiment: str, seed: int = 0) -> ExperimentConfig:
    """experiment's preset at seed; KeyError for an unknown experiment."""
    row = _EXPERIMENT_TABLE[experiment]
    return ExperimentConfig(
        experiment, row.generator, ensemble_size=row.ensemble_size, seed=seed, **row.reads
    )


def run(config: ExperimentConfig) -> Report:
    """Run one experiment; deterministic for a fixed config and seed."""
    started, faults = time.time(), _minor_faults()
    checks, tables = _EXPERIMENT_TABLE[config.experiment].fn(config)
    if config.oracle:
        checks.extend(_oracle_checks(config))
    report = Report(config.experiment, config, checks, tables)
    if config.output_dir:
        if faults is not None:
            faults = _minor_faults() - faults
        _write_artifacts(report, config.output_dir, time.time() - started, faults)
    return report


def _minor_faults() -> int | None:
    """Minor page faults of this process so far, or None without resource."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _oracle_checks(cfg: ExperimentConfig) -> list:
    """Brute-force cross-checks on a small deterministic subsample."""
    rng = np.random.default_rng(cfg.seed + 777)
    worst_rel = 0.0
    for i in range(5):
        x = _member(cfg, i)
        short = SampledPath(x.times[:201], x.values[:201])
        c = float(rng.uniform(0.05, 0.5)) * max(
            1e-6, float(np.max(short.values) - np.min(short.values))
        )
        sweep = truncvar.ttv_sweep(short, c)
        oracle = truncvar.ttv_dp_oracle(short, c)
        banach = truncvar.banach_indicatrix_integral(short, c)
        gap = max(abs(sweep - oracle), abs(banach - oracle))
        worst_rel = max(worst_rel, gap / (1.0 + abs(oracle)))
    return [
        Check(
            "oracle-ttv-crosscheck",
            "pathwise",
            worst_rel <= REL_TOL,
            {"worst_relative_gap": worst_rel},
        )
    ]


# --------------------------------------------------------------------------
# artifacts


def _write_artifacts(
    report: Report, out_dir: str, duration: float, minor_faults: int | None
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    doc = report.to_json_dict()
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    meta = {
        "written_at_unix": time.time(),
        "duration_s": duration,
        "numpy": np.__version__,
        "workers": _ensemble_workers(report.config),
    }
    if minor_faults is not None:
        meta["minor_faults"] = minor_faults
    with open(os.path.join(out_dir, "run_metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, rows in report.tables.items():
        if not rows:
            continue
        cols = sorted({k for row in rows for k in row})
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for row in rows:
                w.writerow(row)
