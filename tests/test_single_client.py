import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedvar import fed_core, single_client, var
from fedvar.single_client import AdmmConfig, fit_admm, fit_baseline

from oracles import admm_raw, admm_solo, prefix_panel, scale_to_radius


def fit_one(design, cfg, start=None):
    """One problem through fit_admm: its decomposition and its AdmmState."""
    (dec,), report = fit_admm([design], [cfg], None if start is None else [start])
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

    def test_residual_histories(self):
        design, _ = make_noisy(seed=6)
        _, state = fit_one(design, AdmmConfig(lam=0.1, omega=0.05))
        assert len(state.primal_residuals) == state.iterations
        assert len(state.dual_residuals) == state.iterations
        assert state.primal_residuals[-1] <= 1e-6 * np.sqrt(
            design.pd * design.d
        )

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
        assert state.primal_residuals == [pytest.approx(want, rel=1e-10)]

    def test_max_iter_warning(self, monkeypatch):
        design, _ = make_noisy(seed=7)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 3)
        with pytest.warns(RuntimeWarning, match="max_iter=3"):
            _, state = fit_one(design, AdmmConfig(lam=0.1, omega=0.05))
        assert not state.converged
        assert state.iterations == 3

    @pytest.mark.parametrize(
        "cfg",
        [
            AdmmConfig(lam=0.07, omega=0.02, zeta=1.0),
            AdmmConfig(lam=0.1, omega=0.0, pin_delta=True),
        ],
    )
    def test_warm_start_from_own_final_converges_at_once(self, cfg):
        design, _ = make_noisy(seed=5)
        cold, state = fit_one(design, cfg)
        assert state.converged and state.iterations > 1
        b0, d_mat, u = state.final
        assert b0.shape == d_mat.shape == u.shape == (design.pd, design.d)
        np.testing.assert_array_equal(b0.T, cold.a0)
        np.testing.assert_array_equal(d_mat.T, cold.delta)
        warm, again = fit_one(design, cfg, start=state.final)
        assert again.converged and again.iterations == 1
        # one more iteration moves the iterate by about the dual residual
        tol = 1e-6 * np.sqrt(design.pd * design.d)
        assert np.linalg.norm(warm.a - cold.a) <= 10 * tol

    def test_warm_start_on_a_longer_sample_matches_cold_fit(self):
        # the forecasters' use: the previous origin's fit starts the next
        rng = np.random.default_rng(8)
        a0, deltas = var.assemble_dgp(6, 2, 2, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], 2, 60, rng, burn_in=100)
        short, long = var.lag_design(prefix_panel(panel, 59)), var.lag_design(panel)
        cfg = single_client.default_admm_config(long)
        _, prev = fit_one(short, single_client.default_admm_config(short))
        warm, _ = fit_one(long, cfg, start=prev.final)
        cold, _ = fit_one(long, cfg)
        # both stop at residuals <= 1e-6 sqrt(pd d), about 8.5e-6 here
        assert np.linalg.norm(warm.a - cold.a) <= 1e-4 * np.linalg.norm(cold.a)

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
        # the forecasters' warm-started origin chain and the nuclear-only fits
        def total_iterations():
            n = 0
            for seed in range(4):
                rng = np.random.default_rng(seed)
                a0, deltas = var.assemble_dgp(12, 2, 2, 1, rng, ratio=5.0)
                panel = var.simulate(a0 + deltas[0], 2, 48, rng, burn_in=100)
                last = None
                for t_len in range(40, 49):
                    design = var.lag_design(prefix_panel(panel, t_len))
                    cfg = single_client.default_admm_config(design)
                    _, state = fit_one(design, cfg, start=last)
                    last = state.final
                    n += state.iterations
                    pinned = single_client.nuclear_only_config(cfg)
                    n += fit_one(design, pinned)[1].iterations
            return n

        relaxed = total_iterations()
        monkeypatch.setattr(single_client, "_ADMM_RELAX", 1.0)
        assert relaxed <= 0.8 * total_iterations()

    def test_start_validated_at_entry(self):
        design, _ = make_noisy(seed=6)
        cfg = AdmmConfig(lam=0.1, omega=0.05)
        good = np.zeros((design.pd, design.d))
        with pytest.raises(ValueError, match="triple"):
            fit_one(design, cfg, start=(good, good))
        wide = np.zeros((design.pd, design.d + 1))
        with pytest.raises(ValueError, match=r"start D shape \(5, 6\)"):
            fit_one(design, cfg, start=(good, wide, good))
        with pytest.raises(ValueError, match="start U"):
            fit_one(design, cfg, start=(good, good, np.zeros(design.d)))
        bad = good.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="start B0 contains non-finite"):
            fit_one(design, cfg, start=(bad, good, good))

    def test_pinned_component_starts_at_zero(self):
        design, _ = make_noisy(seed=4)
        ones = np.ones((design.pd, design.d))
        start = (ones, ones, np.zeros_like(ones))
        dec, state = fit_one(
            design, AdmmConfig(lam=0.1, omega=0.05, pin_delta=True), start=start
        )
        np.testing.assert_array_equal(dec.delta, np.zeros_like(dec.delta))
        np.testing.assert_array_equal(start[1], ones)  # caller's arrays untouched

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(lam=-1.0, omega=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(lam=0.0, omega=0.0, zeta=0.0)


STACK_CAP = 45


def mixed_stack(d, p, t_len):
    """Six same-shape problems whose configs mix nuclear + l1 fits at
    several penalties, pin_delta fits and zeta set and unset, half of them
    warm-started from the nuclear + l1 fit of a shorter sample (so the
    pinned ones are handed a nonzero part they must zero).  Run to
    convergence, the members need 31, 94, 75, 42, 73 and 1175 iterations
    at 24x12 and 54, 22, 15, 30, 50 and 664 at 20x20, so under a cap of
    STACK_CAP some converge and the rest, members 4 and 5 among them, are
    capped."""
    rng = np.random.default_rng(d + t_len)
    designs, cfgs, starts = [], [], []
    variants = [
        ({}, False),
        ({"pin_delta": True, "omega": 0.0}, True),
        ({"lam": 0.0}, True),
        ({"zeta": 0.05}, True),
        ({}, False),
        ({"pin_delta": True, "omega": 0.0, "zeta": 0.05}, False),
    ]
    for j, (changes, warm) in enumerate(variants):
        a0, deltas = var.assemble_dgp(d, p, 2, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], p, t_len + j, rng, burn_in=100)
        design = var.lag_design(panel)
        cfgs.append(replace(single_client.default_admm_config(design), **changes))
        designs.append(design)
        start = None
        if warm:
            short = var.lag_design(prefix_panel(panel, t_len + j - 1))
            start = admm_solo(short, single_client.default_admm_config(short))[1].final
        starts.append(start)
    return designs, cfgs, starts


class TestStackedAdmm:
    """fit_admm runs a stack of problems; each equals its fit on its own."""

    @pytest.mark.filterwarnings("ignore:ADMM stopped")
    @pytest.mark.parametrize(
        "d, p, t_len", [(12, 2, 44), (20, 1, 400)], ids=["24x12", "20x20"]
    )
    def test_members_equal_the_solo_oracle_bitwise(self, d, p, t_len, monkeypatch):
        designs, cfgs, starts = mixed_stack(d, p, t_len)
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", STACK_CAP)
        decomps, report = fit_admm(designs, cfgs, starts)
        assert len(decomps) == len(report.members) == len(designs)
        for dec, state, design, cfg, start in zip(
            decomps, report.members, designs, cfgs, starts
        ):
            want_dec, want = admm_solo(design, cfg, start, max_iter=STACK_CAP)
            assert state.iterations == want.iterations
            assert state.converged == want.converged
            assert state.primal_residuals == want.primal_residuals
            assert state.dual_residuals == want.dual_residuals
            for got_m, want_m in zip(state.final, want.final):
                assert got_m.tobytes() == want_m.tobytes()
            assert dec.a0.tobytes() == want_dec.a0.tobytes()
            assert dec.delta.tobytes() == want_dec.delta.tobytes()
        # the mix has members that stop early, capped and converged
        assert any(s.converged for s in report.members)
        assert report.members[4].converged is False
        assert report.iterations == sum(s.iterations for s in report.members)
        assert report.converged is False

    def test_report_converged_when_every_member_did(self):
        designs, cfgs, _ = mixed_stack(12, 2, 44)
        _, report = fit_admm(designs[:4], cfgs[:4])
        assert all(s.converged for s in report.members)
        assert report.converged is True

    def test_each_capped_member_warns_once(self, monkeypatch):
        designs, cfgs, _ = mixed_stack(12, 2, 44)
        # member 1 starts at its own solution and converges at once
        _, own = fit_one(designs[1], cfgs[1])
        monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 3)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            _, report = fit_admm(designs[:3], cfgs[:3], [None, own.final, None])
        runtime = [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 2
        assert all("max_iter=3" in str(w.message) for w in runtime)
        assert [s.iterations for s in report.members] == [3, 1, 3]
        assert [s.converged for s in report.members] == [False, True, False]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda good: (good, good), "problem 2: start must be a"),
            (lambda good: (good, np.zeros((3, 3)), good), r"problem 2: start D shape \(3, 3\)"),
            (lambda good: (good, good, np.full_like(good, np.nan)),
             "problem 2: start U contains non-finite"),
        ],
        ids=["not_a_triple", "wrong_shape", "non_finite"],
    )
    def test_bad_start_in_any_member_refused_before_any_iteration(
        self, bad, message, monkeypatch
    ):
        designs, cfgs, _ = mixed_stack(12, 2, 44)
        good = np.zeros((designs[0].pd, designs[0].d))
        calls = []
        monkeypatch.setattr(
            single_client, "dpotrs", lambda *a, **k: calls.append(a) or (None, 0)
        )
        starts = [None, (good, good, good), bad(good), None]
        with pytest.raises(ValueError, match=message):
            fit_admm(designs[:4], cfgs[:4], starts)
        assert calls == []

    def test_stack_arguments_validated(self):
        designs, cfgs, _ = mixed_stack(12, 2, 44)
        with pytest.raises(ValueError, match="2 ADMM configs for 3 designs"):
            fit_admm(designs[:3], cfgs[:2])
        with pytest.raises(ValueError, match="1 starts for 2 designs"):
            fit_admm(designs[:2], cfgs[:2], [None])
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
            np.zeros((design.d, design.pd)),
            [fed_core.FistaConfig(varpi=omega, iters=3000)],
        )
        decomp, _ = admm_solo(
            design, AdmmConfig(lam=0.0, omega=omega), pin_a0=True, max_iter=5000
        )
        assert np.linalg.norm(fista - decomp.delta) < 1e-4
