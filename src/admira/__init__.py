"""Greedy low-rank matrix recovery from underdetermined linear
measurements, with entry-sampling and Gaussian measurement operators, a
singular-value-thresholding baseline, isometry-constant estimation, and
a reproducible benchmark harness."""

from .analysis import (
    BandProfile,
    ErrorBudget,
    check_isometry_inequalities,
    iteration_bound,
    nuclear_norm,
    profile,
    snr_meas,
    snr_recon,
    unrecoverable_energy,
)
from .baseline import SvtConfig, soft_threshold_factored, svt_solve
from .bench import (
    ProblemSpec,
    TrialRecord,
    degrees_of_freedom,
    generate_problem,
    run_phase,
    run_table1,
    run_table2,
    run_trial,
    solve_once,
)
from .linalg import (
    AtomSet,
    FactoredMatrix,
    LanczosConvergenceError,
    best_rank_r,
    full_svd,
    svd_of_factored,
    truncated_svd,
)
from .operators import (
    GaussianOperator,
    MeasurementOperator,
    RipEstimate,
    SamplingOperator,
    estimate_delta_profile,
)
from .solver import (
    RankSearchResult,
    SolverConfig,
    SolverReport,
    admira_solve,
    least_squares_on_span,
    rank_search,
)

__all__ = [
    "AtomSet",
    "BandProfile",
    "ErrorBudget",
    "FactoredMatrix",
    "GaussianOperator",
    "LanczosConvergenceError",
    "MeasurementOperator",
    "ProblemSpec",
    "RankSearchResult",
    "RipEstimate",
    "SamplingOperator",
    "SolverConfig",
    "SolverReport",
    "SvtConfig",
    "TrialRecord",
    "admira_solve",
    "best_rank_r",
    "check_isometry_inequalities",
    "degrees_of_freedom",
    "estimate_delta_profile",
    "full_svd",
    "generate_problem",
    "iteration_bound",
    "least_squares_on_span",
    "nuclear_norm",
    "profile",
    "rank_search",
    "run_phase",
    "run_table1",
    "run_table2",
    "run_trial",
    "snr_meas",
    "snr_recon",
    "soft_threshold_factored",
    "solve_once",
    "svd_of_factored",
    "svt_solve",
    "truncated_svd",
    "unrecoverable_energy",
]

__version__ = "0.1.0"
