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
    sample_moment,
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
    run_experiment,
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
from .spectral import (
    RecoveryReport,
    orient_by_first_moment,
    power_method,
    sign_normalize,
    top_two_eigs,
)
from .synth import (
    Dataset,
    GroundTruth,
    draw_labels,
    generate_dataset,
    sample_beta_dense,
    sample_beta_sparse,
)

__version__ = "0.1.0"
