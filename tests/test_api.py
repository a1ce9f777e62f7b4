import pathlib
import re

import numpy as np

import fedvar
from fedvar.harness import ExperimentConfig, experiments

ENTRY_POINTS = {
    "TimeSeriesPanel", "LagDesign", "CoefDecomposition", "lag_design", "simulate",
    "assemble_dgp", "forecast_one_step",
    "NoisePolicy", "PrivacyBudget", "gaussian_sigma",
    "FedConfig", "FistaConfig", "FitReport", "fit_federated", "stage1_run",
    "refine_fista", "initial_shared_estimate", "default_rounds", "default_eta",
    "AdmmConfig", "fit_admm", "fit_baseline", "default_admm_config",
    "select_rank", "client_rank",
    "rmsfe", "__version__",
}


def test_all_is_the_entry_points_and_resolves():
    assert len(fedvar.__all__) == len(set(fedvar.__all__))
    assert set(fedvar.__all__) == ENTRY_POINTS
    for name in fedvar.__all__:
        assert getattr(fedvar, name) is not None
    # kernels stay reachable through their modules
    assert callable(fedvar.matops.svt)
    assert callable(fedvar.fed_core.local_gradient)


def test_readme_quick_start_runs_the_harness_configuration():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    # the example builds what the harness builds at its default scales
    cfg = ExperimentConfig(kind="t_sweep", seed=0)
    designs = scope["designs"]
    (want,) = experiments.fed_config(cfg, [designs])
    got = scope["fed_cfg"]
    assert (got.rank, got.rounds, got.step_rho) == (want.rank, want.rounds, want.step_rho)
    assert np.array_equal(got.init_a0, want.init_a0)
    assert scope["fista_cfgs"] == [experiments.fista_config(cfg, ds) for ds in designs]
    assert len(scope["decomps"]) == len(designs)
