"""Federated estimation of high-dimensional VAR models.

Each client's stacked transition matrix is modelled as a shared low-rank
component plus a client-specific sparse deviation. The package provides
the single-client ADMM estimator, a differentially private federated
procedure for the shared component with local FISTA refinement, rank
selection, and an experiment harness.
"""

from .dp import (
    NOISE_MODES,
    NoisePolicy,
    PrivacyBudget,
    add_gaussian_noise,
    gaussian_sigma,
    round_sigma,
    split_budget,
)
from .fed_core import (
    FedConfig,
    FistaConfig,
    FitReport,
    RoundTrace,
    default_eta,
    default_rounds,
    fit_federated,
    initial_shared_estimate,
    local_gradient,
    momentum_sequence,
    refine_fista,
    sample_size_weights,
    stage1_round,
    stage1_run,
)
from .matops import (
    MatrixNorms,
    SvdFactors,
    TangentBasis,
    linf_project,
    norms,
    soft_threshold,
    svd_truncate,
    svt,
    tangent_project,
)
from .metrics import Band, RmsfeRecord, percentile_band, rmsfe
from .rank_select import (
    RankConfig,
    client_rank,
    default_r_bar,
    ridge_ratio_rank,
    select_rank,
)
from .single_client import (
    BASELINE_KINDS,
    AdmmConfig,
    AdmmState,
    default_admm_config,
    fit_admm,
    fit_baseline,
)
from .var import (
    CoefDecomposition,
    LagDesign,
    TimeSeriesPanel,
    assemble_dgp,
    companion_matrix,
    companion_spectral_radius,
    enforce_stationarity,
    forecast_one_step,
    gen_low_rank,
    lag_design,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "BASELINE_KINDS",
    "Band",
    "CoefDecomposition",
    "FedConfig",
    "FistaConfig",
    "FitReport",
    "LagDesign",
    "MatrixNorms",
    "NOISE_MODES",
    "NoisePolicy",
    "PrivacyBudget",
    "RankConfig",
    "RmsfeRecord",
    "RoundTrace",
    "SvdFactors",
    "TangentBasis",
    "TimeSeriesPanel",
    "add_gaussian_noise",
    "assemble_dgp",
    "client_rank",
    "companion_matrix",
    "companion_spectral_radius",
    "default_admm_config",
    "default_eta",
    "default_r_bar",
    "default_rounds",
    "enforce_stationarity",
    "fit_admm",
    "fit_baseline",
    "fit_federated",
    "forecast_one_step",
    "gaussian_sigma",
    "gen_low_rank",
    "initial_shared_estimate",
    "lag_design",
    "linf_project",
    "local_gradient",
    "momentum_sequence",
    "norms",
    "percentile_band",
    "refine_fista",
    "ridge_ratio_rank",
    "rmsfe",
    "round_sigma",
    "sample_size_weights",
    "select_rank",
    "simulate",
    "soft_threshold",
    "split_budget",
    "stage1_round",
    "stage1_run",
    "svd_truncate",
    "svt",
    "tangent_project",
    "__version__",
]
