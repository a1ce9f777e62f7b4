"""Federated estimation of high-dimensional VAR models.

Each client's stacked transition matrix is modelled as a shared low-rank
component plus a client-specific sparse deviation. The package provides
the single-client ADMM estimator, a differentially private federated
procedure for the shared component with local FISTA refinement, rank
selection, and an experiment harness.
"""

from .dp import NoisePolicy, gaussian_sigma
from .fed_core import (
    FedConfig,
    FitReport,
    default_eta,
    default_rounds,
    fit_federated,
    initial_shared_estimate,
    refine_fista,
    stage1_run,
)
from .metrics import rmsfe
from .rank_select import client_rank, select_rank
from .single_client import AdmmConfig, default_admm_config, fit_admm, fit_baseline
from .var import (
    CoefDecomposition,
    LagDesign,
    TimeSeriesPanel,
    assemble_dgp,
    forecast_one_step,
    lag_design,
    simulate,
)

__version__ = "0.1.0"

# The entry points, which validate their input.  The kernels they call
# (fedvar.matops, fedvar.fed_core.local_gradient, ...) stay importable by
# module and assume input the entry points have already checked.
__all__ = [
    "AdmmConfig",
    "CoefDecomposition",
    "FedConfig",
    "FitReport",
    "LagDesign",
    "NoisePolicy",
    "TimeSeriesPanel",
    "assemble_dgp",
    "client_rank",
    "default_admm_config",
    "default_eta",
    "default_rounds",
    "fit_admm",
    "fit_baseline",
    "fit_federated",
    "forecast_one_step",
    "gaussian_sigma",
    "initial_shared_estimate",
    "lag_design",
    "refine_fista",
    "rmsfe",
    "select_rank",
    "simulate",
    "stage1_run",
    "__version__",
]
