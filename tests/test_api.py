import fedvar

ENTRY_POINTS = {
    "TimeSeriesPanel", "LagDesign", "CoefDecomposition", "lag_design", "simulate",
    "assemble_dgp", "forecast_one_step",
    "NoisePolicy", "PrivacyBudget", "gaussian_sigma",
    "FedConfig", "FistaConfig", "FitReport", "fit_federated", "stage1_run",
    "refine_fista", "initial_shared_estimate", "default_rounds", "default_eta",
    "AdmmConfig", "fit_admm", "fit_baseline", "default_admm_config",
    "RankConfig", "select_rank", "client_rank", "default_r_bar",
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
