import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve

from fedvar import fed_core, matops, single_client, var
from fedvar.single_client import AdmmConfig, fit_admm, fit_baseline

import oracles
from oracles import admm_raw, admm_solo, prefix_panel, scale_to_radius


def fit_one(design, cfg):
    """One problem through fit_admm: its decomposition and its AdmmState."""
    (dec,), report = fit_admm([design], [cfg])
    return dec, report.members[0]


def make_noiseless(seed=0, d=4, p=1, r=2, t_factor=50):
    """Design whose targets are exactly x @ a.T for a known rank-r a."""
    rng = np.random.default_rng(seed)
    a = scale_to_radius(var.gen_low_rank(d, p, r, rng), p, 0.8)
    panel = var.simulate(a, p, t_factor * p * d, rng, burn_in=100)
    design = var.lag_design(panel)
    return var.LagDesign(x=design.x, y=design.x @ a.T), a


def make_noisy(seed=1, d=5, p=1, t_len=300):
    rng = np.random.default_rng(seed)
    a = scale_to_radius(rng.standard_normal((d, p * d)), p, 0.8)
    panel = var.simulate(a, p, t_len, rng, burn_in=100)
    return var.lag_design(panel), a


class TestFitAdmm:
    def test_noiseless_recovery(self):
        design, a = make_noiseless()
        cfg = AdmmConfig(lam=1e-6, omega=1e6)
        decomp, state = fit_one(design, cfg)
        assert state.converged
        assert np.linalg.norm(decomp.a - a) < 1e-3
        # the huge l1 penalty empties the sparse part
        np.testing.assert_array_equal(decomp.delta, np.zeros_like(a))

    def test_zero_penalties_match_least_squares(self, monkeypatch):
        design, _ = make_noisy()
        # both residuals at most 1e-9
        tol = 1e-9 / np.sqrt(design.pd * design.d)
        monkeypatch.setattr(single_client, "_ADMM_EPS", tol)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 20_000)
        decomp, _ = fit_one(design, AdmmConfig(lam=0.0, omega=0.0))
        ls, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        assert np.linalg.norm(decomp.a - ls.T) < 1e-6

    @pytest.mark.filterwarnings("ignore:ADMM stopped")
    def test_objective_decreases(self, monkeypatch):
        # the penalized objective at the fit is no higher than after one
        # iteration, which is no higher than at the zero start
        design, _ = make_noisy(seed=2)
        cfg = AdmmConfig(lam=0.1, omega=0.05)

        def objective(dec):
            return (
                design.loss(dec.a)
                + cfg.lam * np.linalg.norm(dec.a0, "nuc")
                + cfg.omega * np.abs(dec.delta).sum()
            )

        with monkeypatch.context() as m:
            m.setattr(single_client, "_ADMM_MAX_ITER", 1)
            first, _ = fit_one(design, cfg)
        fit, state = fit_one(design, cfg)
        assert state.converged and state.iterations > 1
        assert objective(fit) <= objective(first) + 1e-10
        assert objective(first) <= design.syy

    def test_zeta_clips_shared_part(self):
        design, _ = make_noisy(seed=3)
        cfg = AdmmConfig(lam=0.01, omega=10.0, zeta=0.05)
        decomp, _ = fit_one(design, cfg)
        assert np.max(np.abs(decomp.a0)) <= 0.05 + 1e-12

    def test_pins(self):
        design, _ = make_noisy(seed=4)
        decomp, _ = fit_one(
            design, AdmmConfig(lam=0.1, omega=0.05, pin_delta=True)
        )
        np.testing.assert_array_equal(decomp.delta, np.zeros_like(decomp.delta))

    def test_deterministic(self):
        design, _ = make_noisy(seed=5)
        cfg = AdmmConfig(lam=0.07, omega=0.02, zeta=1.0)
        d1, s1 = fit_one(design, cfg)
        d2, s2 = fit_one(design, cfg)
        assert np.array_equal(d1.a0, d2.a0)
        assert np.array_equal(d1.delta, d2.delta)
        assert s1.iterations == s2.iterations

    def test_last_residuals_meet_the_tolerance(self):
        design, _ = make_noisy(seed=6)
        _, state = fit_one(design, AdmmConfig(lam=0.1, omega=0.05))
        tol = 1e-6 * np.sqrt(design.pd * design.d)
        assert state.converged
        assert 0.0 < state.primal_residual <= tol
        assert 0.0 < state.dual_residual <= tol

    @pytest.mark.filterwarnings("ignore:ADMM stopped")
    def test_primal_residual_is_on_the_unrelaxed_step(self, monkeypatch):
        # one iteration from zero: B solves the ridge system, and the
        # residual is B - B0 - D, not the relaxed alpha B - B0 - D
        design, _ = make_noisy(seed=6)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 1)
        dec, state = fit_one(design, AdmmConfig(lam=0.1, omega=0.05))
        h = 2.0 * design.sxx + single_client._ADMM_RHO * np.eye(design.pd)
        b = np.linalg.solve(h, 2.0 * design.sxy)
        want = np.linalg.norm(b - dec.a0.T - dec.delta.T)
        assert state.iterations == 1
        assert state.primal_residual == pytest.approx(want, rel=1e-10)

    def test_max_iter_warning(self, monkeypatch):
        design, _ = make_noisy(seed=7)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 3)
        with pytest.warns(RuntimeWarning, match="max_iter=3"):
            _, state = fit_one(design, AdmmConfig(lam=0.1, omega=0.05))
        assert not state.converged
        assert state.iterations == 3

    @pytest.mark.parametrize("pin", ["none", "delta"])
    @pytest.mark.parametrize(
        "d, p, t_len", [(20, 1, 400), (12, 2, 40)], ids=["rank_table", "panel_forecast"]
    )
    def test_relaxed_fit_matches_unrelaxed_reference(self, d, p, t_len, pin):
        rng = np.random.default_rng(7)
        a0, deltas = var.assemble_dgp(d, p, 2, 1, rng)
        panel = var.simulate(a0 + deltas[0], p, t_len, rng, burn_in=100)
        design = var.lag_design(panel)
        cfg = single_client.default_admm_config(design)
        lam, omega = cfg.lam, cfg.omega
        if pin == "delta":
            cfg, omega = single_client.nuclear_only_config(cfg), np.inf
        dec, state = fit_one(design, cfg)
        assert state.converged
        # plain ADMM; 1,000 iterations already agree with 2,000 to 1e-12
        ref_a0, ref_delta = admm_raw(
            design.x, design.y, lam, omega, single_client._ADMM_RHO, 2000, 1.0
        )
        scale = np.linalg.norm(ref_a0 + ref_delta)
        assert np.linalg.norm(dec.a0 - ref_a0) <= 1e-4 * scale
        assert np.linalg.norm(dec.delta - ref_delta) <= 1e-4 * scale

    def test_relaxation_cuts_iterations(self, monkeypatch):
        # the empirical comparison's use: every origin's fit under both
        # methods, from zero, in one stack
        designs = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            a0, deltas = var.assemble_dgp(12, 2, 2, 1, rng, ratio=5.0)
            panel = var.simulate(a0 + deltas[0], 2, 48, rng, burn_in=100)
            designs += [var.lag_design(prefix_panel(panel, t)) for t in range(40, 49)]
        cfgs = [single_client.default_admm_config(ds) for ds in designs]
        cfgs += [single_client.nuclear_only_config(cfg) for cfg in cfgs]

        def total_iterations():
            return fit_admm(designs * 2, cfgs)[1].iterations

        relaxed = total_iterations()
        monkeypatch.setattr(single_client, "_ADMM_RELAX", 1.0)
        assert relaxed <= 0.8 * total_iterations()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(lam=-1.0, omega=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(lam=0.0, omega=0.0, zeta=0.0)


STACK_CAP = 45


def mixed_stack(d, p, t_len):
    """Six same-shape problems whose configs mix nuclear + l1 fits at
    several penalties, pin_delta fits and zeta set and unset.  Run to
    convergence, the members need 31, 88, 75, 38, 73 and 1175 iterations
    at 24x12 and 54, 21, 16, 22, 50 and 664 at 20x20, so under a cap of
    STACK_CAP some converge and the rest, members 4 and 5 among them, are
    capped."""
    rng = np.random.default_rng(d + t_len)
    designs, cfgs = [], []
    variants = [
        {},
        {"pin_delta": True, "omega": 0.0},
        {"lam": 0.0},
        {"zeta": 0.05},
        {},
        {"pin_delta": True, "omega": 0.0, "zeta": 0.05},
    ]
    for j, changes in enumerate(variants):
        a0, deltas = var.assemble_dgp(d, p, 2, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], p, t_len + j, rng, burn_in=100)
        design = var.lag_design(panel)
        cfgs.append(replace(single_client.default_admm_config(design), **changes))
        designs.append(design)
    return designs, cfgs


class TestStackedAdmm:
    """fit_admm runs a stack of problems; each equals its fit on its own."""

    @pytest.mark.filterwarnings("ignore:ADMM stopped")
    @pytest.mark.parametrize(
        "d, p, t_len", [(12, 2, 44), (20, 1, 400)], ids=["24x12", "20x20"]
    )
    def test_members_equal_their_one_problem_fits_bitwise(self, d, p, t_len, monkeypatch):
        designs, cfgs = mixed_stack(d, p, t_len)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", STACK_CAP)
        decomps, report = fit_admm(designs, cfgs)
        assert len(decomps) == len(report.members) == len(designs)
        for dec, state, design, cfg in zip(decomps, report.members, designs, cfgs):
            (want_dec,), want_report = fit_admm([design], [cfg])
            (want,) = want_report.members
            # iterations, convergence and the last residuals, all exact
            assert state == want
            assert dec.a0.tobytes() == want_dec.a0.tobytes()
            assert dec.delta.tobytes() == want_dec.delta.tobytes()
        # the mix has members that stop early, capped and converged
        assert any(s.converged for s in report.members)
        assert report.members[4].converged is False
        assert report.iterations == sum(s.iterations for s in report.members)
        assert report.converged is False

    @pytest.mark.filterwarnings("ignore:ADMM stopped")
    @pytest.mark.parametrize(
        "d, p, t_len", [(12, 2, 44), (20, 1, 400)], ids=["24x12", "20x20"]
    )
    def test_members_within_the_bound_of_the_solo_oracle(self, d, p, t_len, monkeypatch):
        """Against admm_solo, which thresholds by np.linalg.svd and solves
        the ridge system by cho_solve: each svt call is within
        (k + 1)(k + l) u (1 + R^2 / 2) s_in of the exact threshold (matops,
        R = _GRAM_RATIO, s_in the largest singular value thresholded), and
        the oracle's dgesdd within (k + 1)(k + l) u s_in.  Each ridge solve
        through the explicit inverse of A = 2 sxx + rho I is within about
        pd u kappa(A) ||rhs|| / rho of the exact solution, with
        kappa(A) <= 1 + 2 ||sxx||_2 / rho (single_client, beside
        _ADMM_RHO), and a Cholesky solve's forward error is of the same
        order; relaxation scales the solve's error by alpha.  ADMM's
        iteration map is nonexpansive, so after n iterations the iterates
        differ by at most n times the sum, and each residual, a difference
        of two iterates, by twice that.  The stop iteration is the same."""
        designs, cfgs = mixed_stack(d, p, t_len)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", STACK_CAP)
        tops, rhs_norms = [], []

        def spy(m, tau):
            tops.append(np.linalg.norm(m, 2, axis=(1, 2)).max())
            return matops.svt(m, tau)

        def spy_solve(factor, rhs):
            rhs_norms.append(np.linalg.norm(rhs))
            return cho_solve(factor, rhs)

        monkeypatch.setattr(single_client, "svt", spy)
        monkeypatch.setattr(oracles, "cho_solve", spy_solve)
        decomps, report = fit_admm(designs, cfgs)
        k, l = sorted((d, p * d))
        ratio, rho = matops._GRAM_RATIO, single_client._ADMM_RHO
        u = 2.0**-53
        per_svt = (k + 1) * (k + l) * u * (2.0 + ratio**2 / 2.0) * max(tops)
        moved = 0.0
        for dec, state, design, cfg in zip(decomps, report.members, designs, cfgs):
            want_dec, want = admm_solo(design, cfg, max_iter=STACK_CAP)
            assert state.iterations == want.iterations
            assert state.converged == want.converged
            kappa = 1.0 + 2.0 * np.linalg.norm(design.sxx, 2) / rho
            per_solve = 2.0 * p * d * u * kappa * max(rhs_norms) / rho
            per_step = per_svt + single_client._ADMM_RELAX * per_solve
            bound = state.iterations * per_step
            assert abs(state.primal_residual - want.primal_residual) <= 2.0 * bound
            assert abs(state.dual_residual - want.dual_residual) <= 2.0 * bound
            assert np.linalg.norm(dec.a0 - want_dec.a0) <= bound
            assert np.linalg.norm(dec.delta - want_dec.delta) <= bound
            moved = max(moved, np.abs(dec.a0 - want_dec.a0).max())
            rhs_norms.clear()
        # the Gram path ran: some member is not bitwise the oracle
        assert moved > 0.0

    def test_report_converged_when_every_member_did(self):
        designs, cfgs = mixed_stack(12, 2, 44)
        _, report = fit_admm(designs[:4], cfgs[:4])
        assert all(s.converged for s in report.members)
        assert report.converged is True

    def test_each_capped_member_warns_once(self, monkeypatch):
        designs, cfgs = mixed_stack(12, 2, 44)
        # members 0 and 3 converge in 31 and 38 iterations, 1 and 2 need more
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 40)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _, report = fit_admm(designs[:4], cfgs[:4])
        runtime = [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 2
        assert all("max_iter=40" in str(w.message) for w in runtime)
        assert [s.iterations for s in report.members] == [31, 40, 40, 38]
        assert [s.converged for s in report.members] == [True, False, False, True]

    def test_memory_is_not_sized_by_the_cap(self, monkeypatch):
        # a 4-member fit of 50 to 96 iterations under a cap of 200,000:
        # per-iteration records sized by the cap would take 2 x 200,000 x 4
        # floats, 12.8 MB
        rng = np.random.default_rng(23)
        designs = []
        for _ in range(4):
            a0, deltas = var.assemble_dgp(6, 1, 2, 1, rng, ratio=5.0)
            designs.append(var.lag_design(var.simulate(a0 + deltas[0], 1, 200, rng)))
        cfgs = [single_client.default_admm_config(ds) for ds in designs]
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 200_000)
        tracemalloc.start()
        try:
            _, report = fit_admm(designs, cfgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak < 2**20

    def test_stack_arguments_validated(self):
        designs, cfgs = mixed_stack(12, 2, 44)
        with pytest.raises(ValueError, match="2 ADMM configs for 3 designs"):
            fit_admm(designs[:3], cfgs[:2])
        other, _ = make_noisy(d=5)
        with pytest.raises(ValueError, match="shape"):
            fit_admm([designs[0], other], cfgs[:2])
        with pytest.raises(ValueError, match="at least one"):
            fit_admm([], [])


class TestBaselines:
    def test_least_squares_noiseless_exact(self):
        design, a = make_noiseless(seed=8)
        fit = fit_baseline(design)
        assert np.linalg.norm(fit - a) < 1e-8

    def test_least_squares_matches_lstsq(self):
        design, _ = make_noisy(seed=9)
        fit = fit_baseline(design)
        ls, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        assert np.linalg.norm(fit - ls.T) < 1e-6

    def test_least_squares_warns_on_deficient_design(self):
        x = np.zeros((6, 3))
        x[:, 0] = np.arange(6.0) + 1
        design = var.LagDesign(x=x, y=np.ones((6, 3)))
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            fit_baseline(design)

    def test_nuclear_only_shape_and_shrinkage(self):
        design, _ = make_noisy(seed=10)
        light, heavy = (
            fit_one(
                design, single_client.nuclear_only_config(AdmmConfig(lam=lam, omega=0.05))
            )[0]
            for lam in (0.01, 20.0)
        )
        assert heavy.a0.shape == (design.d, design.pd)
        # the sparse part is pinned at zero whatever omega was
        np.testing.assert_array_equal(light.delta, np.zeros_like(light.delta))
        s_light = np.linalg.svd(light.a0, compute_uv=False)
        s_heavy = np.linalg.svd(heavy.a0, compute_uv=False)
        # a dominating penalty collapses the spectrum
        assert s_heavy[0] < 0.05 * s_light[0]

    def test_l1_only_agrees_with_pinned_admm(self):
        # the ADMM side is the oracle's, with the shared part held at zero
        design, _ = make_noisy(seed=11, d=4, t_len=200)
        omega = 0.1
        (fista,), _ = fed_core.refine_fista(
            [design],
            np.zeros((1, design.d, design.pd)),
            [omega],
            3000,
        )
        decomp, _ = admm_solo(
            design, AdmmConfig(lam=0.0, omega=omega), pin_a0=True, max_iter=5000
        )
        assert np.linalg.norm(fista - decomp.delta) < 1e-4
