"""Spectral recovery of a unit direction from one-bit responses.

Estimates a unit-norm parameter vector from binary observations generated
through an unknown link function, using pairwise-difference second moments:
power iteration in the classical regime and a Fantope-initialized truncated
power method in the sparse high-dimensional regime.
"""

from .errors import ConfigError, NumericalError
from .estimator import (
    KIND_DIFFERENCE,
    KIND_SUM,
    MomentMatrix,
    expected_moment,
    second_moment,
    second_moment_sum,
)
from .harness import (
    CSV_HEADER,
    ExperimentRow,
    RunConfig,
    default_config,
    estimation_error,
    rows_to_csv,
    run_diag,
    run_eigenstructure,
    run_experiment,
    run_lowdim,
    run_sparse,
    select_matrix_kind,
    write_csv,
)
from .links import (
    FlippedLogistic,
    LinkModel,
    MomentSummary,
    OneBitCS,
    OneBitPR,
    TheoryDiagnostics,
    link_eval,
    moments,
    theory_diagnostics,
    theta_median,
)
from .rng import derive_rng
from .sparse import (
    FantopeSolution,
    SparseConfig,
    fantope_admm,
    fantope_project,
    soft_threshold,
    sparse_recover,
    truncate,
    truncated_power_method,
)
from .spectral import RecoveryReport, power_method, sign_normalize, top_two_eigs
from .synth import (
    Dataset,
    GroundTruth,
    draw_labels,
    generate_dataset,
    sample_beta_dense,
    sample_beta_sparse,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "NumericalError",
    "FlippedLogistic",
    "OneBitCS",
    "OneBitPR",
    "LinkModel",
    "MomentSummary",
    "TheoryDiagnostics",
    "link_eval",
    "moments",
    "theta_median",
    "theory_diagnostics",
    "Dataset",
    "GroundTruth",
    "draw_labels",
    "generate_dataset",
    "sample_beta_dense",
    "sample_beta_sparse",
    "MomentMatrix",
    "KIND_DIFFERENCE",
    "KIND_SUM",
    "second_moment",
    "second_moment_sum",
    "expected_moment",
    "RecoveryReport",
    "power_method",
    "top_two_eigs",
    "sign_normalize",
    "SparseConfig",
    "FantopeSolution",
    "soft_threshold",
    "fantope_project",
    "fantope_admm",
    "truncate",
    "truncated_power_method",
    "sparse_recover",
    "RunConfig",
    "ExperimentRow",
    "default_config",
    "estimation_error",
    "select_matrix_kind",
    "run_eigenstructure",
    "run_lowdim",
    "run_sparse",
    "run_diag",
    "run_experiment",
    "rows_to_csv",
    "write_csv",
    "derive_rng",
]
