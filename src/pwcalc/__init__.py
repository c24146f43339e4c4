"""Pathwise stochastic calculus on sampled paths.

Stopping-time partitions, simple quadratic variation, maximal-inequality
certificates with trading-strategy witnesses, model-free integrals of
step integrands, and truncated-variation estimators, plus an experiment
harness that verifies the pathwise theorems exactly and the convergence
claims statistically.
"""

from .bdg import BdgCertificate, DiscreteSequence, certificate_p, certificate_p1, certify_path
from .harness import ExperimentConfig, Report, default_config, run
from .integration import (
    ConsistencyError,
    StepProcess,
    bdg_witness_strategy,
    capital_process,
    empirical_dinf,
    empirical_dqv,
    localized_integral,
    model_free_integral,
    step_approximation,
    stieltjes_integral,
    witness_identity_gap,
    witness_strategy_qv,
)
from .partitions import (
    GridSpec,
    ResourceLimitError,
    StoppingSequence,
    lebesgue_sequence,
    merge,
    verify_fine_cover,
)
from .paths import (
    INFINITE_TIME,
    PathGeneratorConfig,
    SampledPath,
    evaluate,
    evaluate_many,
    generate,
    hitting_time_abs,
)
from .quadvar import (
    merge_error_bound_check,
    qv_at,
    qv_estimate_dyadic,
    simple_qcov,
    simple_qv,
    sup_distance,
)
from .truncvar import (
    CrossingProfile,
    banach_indicatrix_integral,
    crossing_profile,
    sandwich_check,
    transition_count,
    ttv_dp_oracle,
    ttv_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BdgCertificate",
    "ConsistencyError",
    "CrossingProfile",
    "DiscreteSequence",
    "ExperimentConfig",
    "GridSpec",
    "INFINITE_TIME",
    "PathGeneratorConfig",
    "Report",
    "ResourceLimitError",
    "SampledPath",
    "StepProcess",
    "StoppingSequence",
    "banach_indicatrix_integral",
    "bdg_witness_strategy",
    "capital_process",
    "certificate_p",
    "certificate_p1",
    "certify_path",
    "crossing_profile",
    "default_config",
    "empirical_dinf",
    "empirical_dqv",
    "evaluate",
    "evaluate_many",
    "generate",
    "hitting_time_abs",
    "lebesgue_sequence",
    "localized_integral",
    "merge",
    "merge_error_bound_check",
    "model_free_integral",
    "qv_at",
    "qv_estimate_dyadic",
    "run",
    "sandwich_check",
    "simple_qcov",
    "simple_qv",
    "step_approximation",
    "stieltjes_integral",
    "sup_distance",
    "transition_count",
    "ttv_dp_oracle",
    "ttv_sweep",
    "verify_fine_cover",
    "witness_identity_gap",
    "witness_strategy_qv",
]
