from dataclasses import replace

import numpy as np
import pytest

from fedvar import dp, fed_core, matops, var
from fedvar.harness import ExperimentConfig, experiments
from fedvar.fed_core import (
    FedConfig,
    FistaState,
    default_eta,
    default_rounds,
    fit_federated,
    initial_shared_estimate,
    local_gradient,
    momentum_sequence,
    refine_fista,
    sample_size_weights,
    stage1_run,
)
from fedvar.single_client import AdmmConfig, default_admm_config

from oracles import (
    fista_q_sequence,
    numerical_gradient,
    oracle_instance,
    plain_fista,
    pooled_rrr,
    raw_loss,
    restart_fista,
    stage1_full_svd,
    tangent_project_basis,
)


def make_world(seed=0, d=5, p=1, r=2, k=3, t_len=200, ratio=None):
    rng = np.random.default_rng(seed)
    a0, deltas = var.assemble_dgp(d, p, r, k, rng, ratio=ratio)
    panels = [
        var.simulate(a0 + dk, p, t_len, rng, burn_in=100) for dk in deltas
    ]
    designs = [var.lag_design(pn) for pn in panels]
    return a0, deltas, panels, designs


def spy_generator(log):
    """A Generator class that logs each spawn call and each standard_normal
    call, with its seed sequence's spawn key; spawn gives children of the
    same class, so a spawned round generator logs its draws too."""

    class SpyGenerator(np.random.Generator):
        def spawn(self, n_children):
            log.append(("spawn", self.bit_generator.seed_seq.spawn_key, n_children))
            return super().spawn(n_children)

        def standard_normal(self, size=None):
            log.append(("draw", self.bit_generator.seed_seq.spawn_key, size))
            return super().standard_normal(size)

    return SpyGenerator


class TestGradientAndSteps:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        design = var.LagDesign(
            x=rng.standard_normal((40, 6)), y=rng.standard_normal((40, 3))
        )
        a0 = rng.standard_normal((3, 6))

        def loss(a):
            resid = design.y - design.x @ a.T
            return float(np.sum(resid * resid)) / design.t_len

        got = local_gradient(design, a0)
        want = numerical_gradient(loss, a0)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_gradient_zero_at_least_squares(self):
        rng = np.random.default_rng(2)
        design = var.LagDesign(
            x=rng.standard_normal((50, 4)), y=rng.standard_normal((50, 2))
        )
        ls, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        np.testing.assert_allclose(
            local_gradient(design, ls.T), np.zeros((2, 4)), atol=1e-10
        )

    def test_default_eta_identity_design(self):
        # X'X = T I  =>  eta = 1/2
        design = var.LagDesign(x=np.eye(4) * 2.0, y=np.ones((4, 2)))
        assert default_eta(design) == pytest.approx(0.5)

    def test_default_rounds(self):
        # ceil(10 ln 2000) = ceil(76.009) = 77
        assert default_rounds(2000) == 77
        assert default_rounds(400) == 60
        with pytest.raises(ValueError):
            default_rounds(1)

    def test_momentum_sequence_frozen(self):
        got = momentum_sequence(3)
        assert got[0] == 1.0
        assert got[1] == pytest.approx(1.618033988749895, abs=1e-12)
        assert got[2] == pytest.approx(2.193527085331054, abs=1e-12)
        assert got[3] == pytest.approx(2.749791340120445, abs=1e-12)
        np.testing.assert_allclose(got, fista_q_sequence(3), atol=1e-15)


class TestRefineFista:
    def test_zero_penalty_converges_to_least_squares(self):
        rng = np.random.default_rng(3)
        design = var.LagDesign(
            x=rng.standard_normal((120, 6)), y=rng.standard_normal((120, 3))
        )
        a0 = np.zeros((3, 6))
        (delta,), _ = refine_fista([design], [a0], [0.0], 2000)
        ls, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        assert np.linalg.norm(delta - ls.T) < 1e-8

    def test_objective_trace(self):
        # the objective at the start and after 20 iterations, from runs
        # capped at 0 and at 20
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        trace = []
        for iters in (0, 20):
            (delta,), (state,) = refine_fista([design], [a0], [0.05], iters)
            assert state == FistaState(iters, False)
            trace.append(design.loss(a0 + delta) + 0.05 * np.sum(np.abs(delta)))
        assert trace[-1] <= trace[0] + 1e-10

    def test_zero_iters_returns_zero(self):
        _, _, _, designs = make_world(seed=5)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (delta,), (state,) = refine_fista([design], [a0], [0.1], 0)
        np.testing.assert_array_equal(delta, np.zeros_like(delta))
        assert state == FistaState(0, False)

    def test_huge_penalty_keeps_zero(self):
        _, _, _, designs = make_world(seed=6)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (delta,), _ = refine_fista([design], [a0], [1e6], 20)
        np.testing.assert_array_equal(delta, np.zeros_like(delta))

    def test_shape_mismatch(self):
        _, _, _, designs = make_world(seed=7)
        with pytest.raises(ValueError):
            refine_fista([designs[0]], np.zeros((1, 2, 2)), [0.1], 20)

    def test_stops_before_cap_near_long_reference(self):
        # Gram condition number about 1.7: the proximal-gradient map is a
        # strong contraction, so once a step is below 1e-10 the remaining
        # distance to the solution is a small multiple of it.
        rng = np.random.default_rng(4)
        design = var.LagDesign(
            x=rng.standard_normal((200, 6)), y=rng.standard_normal((200, 3))
        )
        a0 = np.zeros((3, 6))
        (delta,), (state,) = refine_fista([design], [a0], [0.05], 20_000)
        assert state.converged and state.iterations < 100
        ref, ref_iters = plain_fista(
            design.x, design.y, a0, 0.05, default_eta(design), tol=0.0, cap=20_000
        )
        assert ref_iters > state.iterations
        assert np.linalg.norm(delta - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    def test_restart_beats_plain_fista_on_ill_conditioned_oracle(self):
        # instance 32 of the acceptance optimizer-oracle check (seed
        # 20240516): d=6, p=2, T=54, Gram condition number about 1.7e3
        design = oracle_instance(20240516, 32)
        assert (design.d, design.pd, design.t_len) == (6, 12, 54)
        evals = np.linalg.eigvalsh(design.sxx)
        assert evals[-1] / evals[0] > 1e3
        varpi = float(np.sqrt(np.log(design.pd) / design.t_len))
        eta = default_eta(design)
        a0 = np.zeros((design.d, design.pd))
        cap = 40_000
        (delta,), (state,) = refine_fista([design], [a0], [varpi], cap)
        plain, plain_iters = plain_fista(
            design.x, design.y, a0, varpi, eta, fed_core._FISTA_TOL, cap
        )
        assert state.converged
        assert state.iterations < plain_iters < cap
        assert np.linalg.norm(delta - plain) < 1e-6

    def test_iterates_match_raw_design_restart_fista(self):
        for seed in (4, 5, 6):
            _, _, _, designs = make_world(seed=seed, d=4, p=2, ratio=5.0)
            design = designs[0]
            a0 = 0.1 * np.random.default_rng(seed).standard_normal((design.d, design.pd))
            eta = default_eta(design)
            for iters in (1, 2, 10, 40):
                (delta,), (state,) = refine_fista([design], [a0], [0.05], iters)
                assert state == FistaState(iters, False)
                want = restart_fista(design.x, design.y, a0, 0.05, eta, iters)
                assert np.linalg.norm(delta - want) <= 1e-10 * np.linalg.norm(want)

    def test_trace_entries_are_the_objective_at_each_iterate(self):
        # a run capped at n iterations ends at the n-th iterate of a longer
        # run: its objective, from the statistics, is the raw-design
        # reference's objective at that iterate
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        rng = np.random.default_rng(5)
        a0 = 0.1 * rng.standard_normal((design.d, design.pd))
        varpi, eta = 0.05, default_eta(design)
        for n in range(31):
            (delta,), (state,) = refine_fista([design], [a0], [varpi], n)
            assert state == FistaState(n, False)
            value = design.loss(a0 + delta) + varpi * np.sum(np.abs(delta))
            ref = restart_fista(design.x, design.y, a0, varpi, eta, n)
            want = raw_loss(design.x, design.y, a0 + ref) + varpi * np.sum(np.abs(ref))
            assert abs(value - want) <= 1e-12 * abs(want)

    def test_iterations_count_the_proximal_steps(self, monkeypatch):
        # every iteration makes exactly one proximal step
        calls = []
        real = fed_core.soft_threshold

        def counting(m, tau):
            calls.append(1)
            return real(m, tau)

        monkeypatch.setattr(fed_core, "soft_threshold", counting)
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        for iters, stops_early in ((5, False), (5000, True)):
            calls.clear()
            _, (state,) = refine_fista([design], [a0], [0.05], iters)
            assert state == FistaState(len(calls), stops_early)
            assert (len(calls) < iters) == stops_early

    def test_converged_exactly_when_the_step_rule_stops(self):
        # a problem stopped by the tolerance converged, also when that is at
        # its cap; one cap lower it is stopped by the cap alone
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (free,), (state,) = refine_fista([design], [a0], [0.05], 5000)
        n = state.iterations
        assert state.converged and 1 < n < 5000
        (at_cap,), (state,) = refine_fista([design], [a0], [0.05], n)
        assert state == FistaState(n, True)
        assert at_cap.tobytes() == free.tobytes()
        _, (state,) = refine_fista([design], [a0], [0.05], n - 1)
        assert state == FistaState(n - 1, False)


class TestStackedRefinement:
    """refine_fista runs a stack of problems in one loop; each member's
    result is that of a one-problem call."""

    # under this cap three members stop by the step rule (after 67, 98 and
    # 103 iterations) and two by the cap (they would run 132 and 137)
    CAP = 120

    def _stack(self):
        rng = np.random.default_rng(9)
        a0, deltas = var.assemble_dgp(4, 2, 1, 5, rng, ratio=5.0)
        designs = [
            var.lag_design(var.simulate(a0 + dl, 2, t, rng, burn_in=100))
            for dl, t in zip(deltas, (40, 55, 70, 90, 120))
        ]
        varpis = [0.05, 0.0, 0.02, 0.1, 0.03]  # the second with no penalty
        return designs, 0.5 * a0, varpis

    def test_members_equal_their_solo_runs(self):
        designs, shared, varpis = self._stack()
        deltas, states = refine_fista(designs, [shared] * 5, varpis, self.CAP)
        assert deltas.shape == (5, 4, 8)
        assert [s.converged for s in states] == [False, False, True, True, True]
        runs = [s.iterations for s in states]
        assert runs[:2] == [self.CAP] * 2 and max(runs[2:]) < self.CAP
        for j, (dsn, varpi) in enumerate(zip(designs, varpis)):
            (solo,), (solo_state,) = refine_fista([dsn], [shared], [varpi], self.CAP)
            assert np.array_equal(deltas[j], solo)
            assert states[j] == solo_state
        # the order of the stack does not matter either
        back, back_states = refine_fista(designs[::-1], [shared] * 5, varpis[::-1], self.CAP)
        assert np.array_equal(back[::-1], deltas)
        assert back_states[::-1] == states

    def test_zero_cap_leaves_every_member_at_zero(self):
        designs, shared, varpis = self._stack()
        deltas, states = refine_fista(designs, [shared] * 5, varpis, 0)
        assert deltas.shape == (5, 4, 8) and not deltas.any()
        assert states == [FistaState(0, False)] * 5

    def test_members_around_their_own_shared_parts_equal_solo_runs(self):
        designs, shared, varpis = self._stack()
        rng = np.random.default_rng(10)
        parts = [shared + 0.1 * rng.standard_normal(shared.shape) for _ in designs]
        deltas, states = refine_fista(designs, parts, varpis, self.CAP)
        for j, (dsn, part, varpi) in enumerate(zip(designs, parts, varpis)):
            (solo,), (solo_state,) = refine_fista([dsn], [part], [varpi], self.CAP)
            assert deltas[j].tobytes() == solo.tobytes()
            assert states[j] == solo_state
        # the shared part matters: around one common part the result differs
        common, _ = refine_fista(designs, [shared] * 5, varpis, self.CAP)
        assert not np.array_equal(common[0], deltas[0])

    def test_member_matches_raw_design_restart_fista(self):
        # the first member runs to the cap
        designs, shared, varpis = self._stack()
        deltas, _ = refine_fista(designs, [shared] * 5, varpis, self.CAP)
        dsn = designs[0]
        want = restart_fista(dsn.x, dsn.y, shared, varpis[0], default_eta(dsn), self.CAP)
        assert np.linalg.norm(deltas[0] - want) <= 1e-10 * np.linalg.norm(want)

    def test_bad_stacks_rejected(self):
        designs, shared, varpis = self._stack()
        with pytest.raises(ValueError, match="at least one"):
            refine_fista([], [], [], 20)
        with pytest.raises(ValueError, match="1 penalties for 2 designs"):
            refine_fista(designs[:2], [shared] * 2, varpis[:1], 20)
        with pytest.raises(ValueError, match="3 penalties for 2 designs"):
            refine_fista(designs[:2], [shared] * 2, varpis[:3], 20)
        _, _, _, other = make_world(seed=7, d=4, p=1)
        with pytest.raises(ValueError, match="shape"):
            refine_fista([designs[0], other[0]], [shared] * 2, varpis[:2], 20)
        with pytest.raises(ValueError, match=r"a0_hats shape \(1, 4, 8\)"):
            refine_fista(designs[:2], [shared], varpis[:2], 20)
        with pytest.raises(ValueError, match="non-finite"):
            refine_fista(designs[:2], [shared, np.full_like(shared, np.inf)], varpis[:2], 20)

    @pytest.mark.parametrize("bad", [-0.1, -np.inf, np.nan])
    def test_negative_or_nan_penalty_rejected(self, bad):
        designs, shared, _ = self._stack()
        with pytest.raises(ValueError, match="penalties must be nonnegative"):
            refine_fista(designs[:2], [shared] * 2, [0.05, bad], 20)

    def test_negative_cap_rejected(self):
        designs, shared, varpis = self._stack()
        with pytest.raises(ValueError, match="iters must be >= 0"):
            refine_fista(designs, [shared] * 5, varpis, -1)


class TestStageOne:
    def test_zero_step_is_identity_on_truncation(self):
        a0, _, _, designs = make_world(seed=8, ratio=None)
        cfg = FedConfig(rank=2, rounds=5, step_rho=0.0, init_a0=a0)
        (out,), (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(0)])
        trunc, _ = fed_core.svd_truncate(a0, 2)
        np.testing.assert_allclose(out, trunc, atol=1e-12)
        assert len(traces) == 5

    def test_noiseless_rounds_reduce_error(self):
        a0, _, _, designs = make_world(seed=9, d=6, k=4, t_len=400, ratio=None)
        rng = np.random.default_rng(1)
        init = a0 + 0.5 * rng.standard_normal(a0.shape)
        eta = min(default_eta(d) for d in designs)
        cfg = FedConfig(rank=2, rounds=40, step_rho=eta, init_a0=init)
        (out,), _ = stage1_run([designs], [cfg], [np.random.default_rng(2)])
        init_err = np.linalg.norm(
            fed_core.svd_truncate(init, 2)[0] - a0
        )
        assert np.linalg.norm(out - a0) < 0.5 * init_err
        assert np.linalg.svd(out, compute_uv=False)[2] < 1e-10

    def test_single_round_matches_run(self):
        # lambda_max of the pooled Gram matrix is 74.5, so the step is 0.75
        # of the stability bound
        a0, _, _, designs = make_world(seed=10, ratio=None)
        cfg = FedConfig(rank=2, rounds=1, step_rho=0.01, init_a0=a0)
        (out,), (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(3)])
        # one round by hand: weighted tangent-projected gradients, then retract
        start, f = fed_core.svd_truncate(a0, 2)
        agg = sum(
            w * tangent_project_basis(local_gradient(ds, start), f.u, f.v)
            for w, ds in zip(sample_size_weights(designs), designs)
        )
        want, _ = fed_core.svd_truncate(start - 0.01 * agg, 2)
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert len(traces) == 1
        assert len(traces[0].grad_norms) == len(designs)
        assert traces[0].sigma == 0.0

    def test_grad_norms_equal_numpy_norm(self):
        # inside the stability bound of every world: lambda_max of the
        # pooled Gram matrix is at most 146.9 (seed 12)
        for seed in (10, 11, 12):
            a0, _, _, designs = make_world(seed=seed, d=6, k=4, ratio=None)
            cfg = FedConfig(rank=2, rounds=1, step_rho=0.005, init_a0=a0)
            _, (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(3)])
            start, _ = fed_core.svd_truncate(a0, 2)
            want = [float(np.linalg.norm(local_gradient(ds, start))) for ds in designs]
            assert list(traces[0].grad_norms) == want

        # a run of n rounds is n chained one-round runs on the same stream
        noisy = replace(
            cfg,
            rounds=4,
            noise=dp.NoisePolicy.fixed(2.0, 0.1),
        )
        (whole,), _ = stage1_run([designs], [noisy], [np.random.default_rng(4)])
        rng, iterate = np.random.default_rng(4), a0
        for _ in range(4):
            one = replace(noisy, rounds=1, init_a0=iterate)
            (iterate,), _ = stage1_run([designs], [one], [rng])
        np.testing.assert_allclose(iterate, whole, atol=1e-10)

    def test_noise_free_run_matches_full_svd_loop(self):
        # the factored step against per-client projection + full SVD
        for seed, d, p, r, k in ((23, 5, 1, 2, 3), (24, 6, 2, 3, 4), (25, 4, 3, 2, 2)):
            a0, _, _, designs = make_world(seed=seed, d=d, p=p, r=r, k=k, ratio=5.0)
            init = a0 + 0.3 * np.random.default_rng(seed).standard_normal(a0.shape)
            eta = min(default_eta(dsn) for dsn in designs)
            cfg = FedConfig(rank=r, rounds=30, step_rho=eta, init_a0=init)
            (got,), _ = stage1_run([designs], [cfg], [np.random.default_rng(0)])
            want = stage1_full_svd(designs, r, 30, eta, init)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_noisy_round_spawns_one_generator(self, monkeypatch):
        draws = []

        def record(m, sigma, z):
            draws.append((sigma, z))
            return dp.add_gaussian_noise(m, sigma, z)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", record)
        a0, _, _, designs = make_world(seed=26, k=4, ratio=None)
        base = FedConfig(rank=2, rounds=6, step_rho=0.05, init_a0=a0)
        noisy = replace(
            base,
            noise=dp.NoisePolicy.fixed(2.0, 0.1),
        )
        sigma = dp.round_sigma(noisy.noise, 6)
        for cfg, spawned, want_sigma in ((noisy, 6, sigma), (base, 0, 0.0)):
            draws.clear()
            rng = np.random.default_rng(5)
            stage1_run([designs], [cfg], [rng])
            assert rng.bit_generator.seed_seq.n_children_spawned == spawned
            assert len(draws) == 6 * len(designs)
            assert all(s == want_sigma for s, _ in draws)
            # one draw per round, its rows taken by the clients in order
            k = len(designs)
            per_round = [
                [z for _, z in draws[i : i + k]] for i in range(0, len(draws), k)
            ]
            if spawned:
                blocks = [zs[0].base for zs in per_round]
                assert all(b.shape == (k,) + a0.shape for b in blocks)
                assert len({id(b) for b in blocks}) == 6
                for block, zs in zip(blocks, per_round):
                    assert all(z.base is block for z in zs)
                    assert [z.tobytes() for z in zs] == [row.tobytes() for row in block]
            else:
                assert all(z is None for zs in per_round for z in zs)

    def test_noise_recorded_and_seed_sensitive(self):
        a0, _, _, designs = make_world(seed=11, ratio=None)
        cfg = FedConfig(
            rank=2,
            rounds=3,
            step_rho=0.05,
            init_a0=a0,
            noise=dp.NoisePolicy.fixed(2.0, 0.1),
        )
        (out1,), (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(4)])
        (out2,), _ = stage1_run([designs], [cfg], [np.random.default_rng(4)])
        (out3,), _ = stage1_run([designs], [cfg], [np.random.default_rng(5)])
        assert np.array_equal(out1, out2)
        assert not np.array_equal(out1, out3)
        assert traces[0].sigma == pytest.approx(1.1237723622487465)

    def test_weights(self):
        _, _, _, designs = make_world(seed=12, k=3, t_len=100)
        w = sample_size_weights(designs)
        assert w == (pytest.approx(1 / 3),) * 3

    def test_config_validation(self):
        init = np.zeros((5, 5))
        with pytest.raises(ValueError):
            FedConfig(rank=0, rounds=1, step_rho=0.1, init_a0=init)
        with pytest.raises(ValueError):
            FedConfig(rank=1, rounds=-1, step_rho=0.1, init_a0=init)
        with pytest.raises(ValueError):
            FedConfig(rank=1, rounds=1, step_rho=-0.1, init_a0=init)
        with pytest.raises(TypeError):
            FedConfig(rank=1, rounds=1, step_rho=0.1)  # the start is required

    def test_calibrated_budget_split_over_the_rounds_run(self):
        a0, _, _, designs = make_world(seed=27, ratio=None)
        noisy = FedConfig(
            rank=2, rounds=10, step_rho=0.05, init_a0=a0,
            noise=dp.NoisePolicy.calibrated(0.7, 1.0, 0.1),
        )
        for rounds in (1, 3, 10):
            _, (trace,) = stage1_run(
                [designs], [replace(noisy, rounds=rounds)], [np.random.default_rng(1)]
            )
            want = dp.gaussian_sigma(0.7, 1.0 / rounds, 0.1 / rounds)
            assert [t.sigma for t in trace] == [want] * rounds
        # ten one-round runs, each on a tenth of the budget, chain to the run
        (whole,), _ = stage1_run([designs], [noisy], [np.random.default_rng(1)])
        tenth = dp.NoisePolicy.calibrated(0.7, 1.0 / 10, 0.1 / 10)
        rng, iterate = np.random.default_rng(1), a0
        for _ in range(10):
            one = replace(noisy, rounds=1, noise=tenth, init_a0=iterate)
            (iterate,), _ = stage1_run([designs], [one], [rng])
        np.testing.assert_allclose(iterate, whole, atol=1e-10)

    def test_zero_round_calibrated_run_returns_the_truncated_start(self, monkeypatch):
        draws = []
        monkeypatch.setattr(fed_core, "add_gaussian_noise", lambda *a: draws.append(a))
        a0, _, _, designs = make_world(seed=27, ratio=None)
        init = a0 + 0.1 * np.random.default_rng(2).standard_normal(a0.shape)
        cfg = FedConfig(
            rank=2, rounds=0, step_rho=0.05, init_a0=init,
            noise=dp.NoisePolicy.calibrated(1.0, 1.0, 0.1),
        )
        rng = np.random.default_rng(3)
        (out,), (trace,) = stage1_run([designs], [cfg], [rng])
        assert np.array_equal(out, fed_core.svd_truncate(init, 2)[0])
        assert trace == [] and draws == []
        assert rng.bit_generator.seed_seq.n_children_spawned == 0

    def _members(self):
        a0, _, _, designs = make_world(seed=28, d=6, k=4, ratio=None)
        rng = np.random.default_rng(29)
        base = FedConfig(rank=2, rounds=7, step_rho=0.05, init_a0=a0)
        cfgs = [
            base,
            replace(base, noise=dp.NoisePolicy.fixed(2.0, 0.1)),
            replace(
                base,
                step_rho=0.08,
                init_a0=a0 + 0.2 * rng.standard_normal(a0.shape),
                noise=dp.NoisePolicy.calibrated(0.5, 4.0, 0.1),
            ),
            replace(base, noise=dp.NoisePolicy.fixed(2.0, 0.1, scale=0.3)),
        ]
        return designs, cfgs

    def test_round_generators_are_sequential_spawn_children(self, monkeypatch):
        # a noisy member spawns its R round generators in one spawn(R)
        # call: they are the children R spawn(1) calls give, and round n's
        # clients take, in order, the rows of one (K, d, pd) draw from
        # child n's fresh state
        designs, cfgs = self._members()
        seen = []
        real = fed_core.add_gaussian_noise

        def spy(m, sigma, z):
            seen.append(z)
            return real(m, sigma, z)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", spy)
        cfg, n_clients = cfgs[1], len(designs)
        stage1_run([designs], [cfg], [np.random.default_rng(6)])
        assert len(seen) == cfg.rounds * n_clients
        parent = np.random.default_rng(6)
        shape = (n_clients,) + cfg.init_a0.shape
        for n in range(cfg.rounds):
            want = parent.spawn(1)[0].standard_normal(shape)
            this_round = seen[n * n_clients : (n + 1) * n_clients]
            assert np.stack(this_round).tobytes() == want.tobytes()

    def test_members_equal_their_solo_runs(self):
        designs, cfgs = self._members()
        seeds = (5, 6, 6, 7)  # two members with equal seeds, separate generators
        outs, traces = stage1_run(
            [designs] * 4, cfgs, [np.random.default_rng(s) for s in seeds]
        )
        assert outs.shape == (4, 6, 6) and len(traces) == 4
        assert len({tr[0].sigma for tr in traces}) == 4
        for cfg, seed, out, trace in zip(cfgs, seeds, outs, traces):
            (want,), (want_trace,) = stage1_run(
                [designs], [cfg], [np.random.default_rng(seed)]
            )
            assert np.array_equal(out, want)
            assert trace == want_trace
        back, back_traces = stage1_run(
            [designs] * 4, cfgs[::-1], [np.random.default_rng(s) for s in seeds[::-1]]
        )
        assert np.array_equal(back[::-1], outs)
        assert back_traces[::-1] == traces

    def test_members_of_own_clients_and_rounds_equal_their_solo_runs(
        self, monkeypatch
    ):
        # members over different clients (so different client weights), of
        # one to three clients, and of different round counts, under no,
        # fixed and calibrated noise, with one zero-round member, leave the
        # stack at different rounds
        draws = []

        def record(m, sigma, rng):
            draws.append(sigma)
            return dp.add_gaussian_noise(m, sigma, rng)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", record)
        a0, deltas = var.assemble_dgp(5, 1, 2, 3, np.random.default_rng(30))
        sets = []
        for t_len in (60, 90, 150, 75, 120):
            rng = np.random.default_rng(t_len)
            panels = [
                var.simulate(a0 + dk, 1, t_len + 15 * k, rng, burn_in=100)
                for k, dk in enumerate(deltas)
            ]
            sets.append([var.lag_design(pn) for pn in panels])
        sets = [designs[:k] for designs, k in zip(sets, (3, 1, 3, 2, 2))]
        base = FedConfig(rank=2, rounds=9, step_rho=0.05, init_a0=a0)
        cfgs = [
            base,
            replace(base, rounds=4, noise=dp.NoisePolicy.fixed(2.0, 0.1)),
            replace(base, rounds=0, noise=dp.NoisePolicy.calibrated(0.5, 2.0, 0.1)),
            replace(base, rounds=6, noise=dp.NoisePolicy.calibrated(0.5, 2.0, 0.1)),
            replace(base, rounds=2, step_rho=0.08),
        ]
        seeds = (1, 2, 3, 4, 5)
        rngs = [np.random.default_rng(s) for s in seeds]
        outs, traces = stage1_run(sets, cfgs, rngs)
        assert [len(tr) for tr in traces] == [9, 4, 0, 6, 2]
        # each noisy member spawned once per round it ran, and drew once per
        # client of its own in each of them
        spawned = [g.bit_generator.seed_seq.n_children_spawned for g in rngs]
        assert spawned == [0, 4, 0, 6, 0]
        assert len(draws) == sum(len(ds) * len(tr) for ds, tr in zip(sets, traces))
        for designs, cfg, seed, out, trace in zip(sets, cfgs, seeds, outs, traces):
            solo_rng = np.random.default_rng(seed)
            (want,), (want_trace,) = stage1_run([designs], [cfg], [solo_rng])
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace
            assert all(len(tr.grad_norms) == len(designs) for tr in trace)
            assert solo_rng.bit_generator.seed_seq.n_children_spawned == (
                cfg.rounds if cfg.noise.mode != "none" else 0
            )
        assert np.array_equal(outs[2], fed_core.svd_truncate(a0, 2)[0])

    def test_members_on_one_generator_share_one_spawn_and_one_draw_per_round(self):
        # the k_sweep shape: members of 2, 3, 4 and 4 clients with their own
        # round counts, all given one generator object
        a0, _, _, designs = make_world(seed=31, k=4, ratio=None)
        base = FedConfig(rank=2, rounds=3, step_rho=0.05, init_a0=a0,
                         noise=dp.NoisePolicy.fixed(2.0, 0.1))
        sets = [designs[:2], designs[:3], designs, designs]
        cfgs = [
            base,
            replace(base, rounds=5, noise=dp.NoisePolicy.calibrated(0.5, 2.0, 0.1)),
            replace(base, rounds=6),
            replace(base, rounds=4, step_rho=0.08),
        ]
        log = []
        rng = spy_generator(log)(np.random.PCG64(11))
        outs, traces = stage1_run(sets, cfgs, [rng] * len(sets))
        # one spawn, for the longest member's 6 rounds
        assert [e for e in log if e[0] == "spawn"] == [("spawn", (), 6)]
        assert rng.bit_generator.seed_seq.n_children_spawned == 6
        # one draw per round, child n's, covering the widest member's clients
        assert [e for e in log if e[0] == "draw"] == [
            ("draw", (n,), (4,) + a0.shape) for n in range(6)
        ]
        for members, cfg, out, trace in zip(sets, cfgs, outs, traces):
            (want,), (want_trace,) = stage1_run(
                [members], [cfg], [np.random.default_rng(11)]
            )
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace

    def test_one_generator_for_two_members_shares_its_stream(self):
        designs, cfgs = self._members()
        first, second = cfgs[1], replace(cfgs[3], rounds=4)
        rng = np.random.default_rng(12)
        outs, traces = stage1_run([designs] * 2, [first, second], [rng, rng])
        assert rng.bit_generator.seed_seq.n_children_spawned == 7
        # both members draw from the children 0.. of one spawn, as each
        # would on a fresh generator of the seed
        for cfg, out, trace in zip((first, second), outs, traces):
            (want,), (want_trace,) = stage1_run(
                [designs], [cfg], [np.random.default_rng(12)]
            )
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace
        # not the children after the first member's, as a second call on
        # the same generator would give
        after = np.random.default_rng(12)
        after.spawn(7)
        (later,), _ = stage1_run([designs], [second], [after])
        assert not np.array_equal(outs[1], later)

    def test_equally_seeded_generators_are_distinct_streams(self):
        # two objects of one seed: each spawns its own round generators and
        # draws its own blocks, so they share nothing but their seed
        designs, cfgs = self._members()
        first, second = cfgs[1], replace(cfgs[3], rounds=4)
        log = []
        spy = spy_generator(log)
        a, b = spy(np.random.PCG64(12)), spy(np.random.PCG64(12))
        outs, traces = stage1_run([designs] * 2, [first, second], [a, b])
        assert [e for e in log if e[0] == "spawn"] == [("spawn", (), 7), ("spawn", (), 4)]
        assert [g.bit_generator.seed_seq.n_children_spawned for g in (a, b)] == [7, 4]
        # rounds 0-3 draw a block from each object's child, rounds 4-6 from
        # a's alone
        shape = (len(designs),) + first.init_a0.shape
        assert [e for e in log if e[0] == "draw"] == [
            ("draw", (n,), shape) for n in range(7) for _ in range(2 if n < 4 else 1)
        ]
        for cfg, out, trace in zip((first, second), outs, traces):
            (want,), (want_trace,) = stage1_run(
                [designs], [cfg], [np.random.default_rng(12)]
            )
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace

    def test_stream_block_is_as_wide_as_its_widest_member(self):
        # a wider noise-free member on the same generator object, or a
        # wider member of another stream, does not widen a stream's draw
        designs, cfgs = self._members()
        sets = [designs[:2], designs, designs[:3]]
        members = [cfgs[1], cfgs[0], cfgs[3]]
        log = []
        spy = spy_generator(log)
        shared = spy(np.random.PCG64(13))
        rngs = [shared, shared, spy(np.random.PCG64(14))]
        outs, traces = stage1_run(sets, members, rngs)
        shape = cfgs[0].init_a0.shape
        draws = [e for e in log if e[0] == "draw"]
        assert draws == [
            e for n in range(7) for e in (("draw", (n,), (2,) + shape),
                                          ("draw", (n,), (3,) + shape))
        ]
        for ds, cfg, s, out, trace in zip(sets, members, (13, 13, 14), outs, traces):
            (want,), (want_trace,) = stage1_run([ds], [cfg], [np.random.default_rng(s)])
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace

    def test_list_and_array_seeds_need_no_hashing(self):
        # a list or uint32 array entropy is not hashable; streams are keyed
        # by the generator object, so no seed is read: each object is one
        # stream, and a member given an object already in the call shares it
        designs, cfgs = self._members()
        entropies = ([3, 1, 4], np.array([3, 1, 4], dtype=np.uint32), [3, 1, 5])
        log = []
        spy = spy_generator(log)
        rngs = [spy(np.random.PCG64(e)) for e in entropies]
        for g in rngs:
            with pytest.raises(TypeError):
                hash(g.bit_generator.seed_seq.entropy)
        noisy = [cfgs[1], cfgs[2], cfgs[3], cfgs[3]]
        outs, traces = stage1_run([designs] * 4, noisy, rngs + [rngs[0]])
        assert [e for e in log if e[0] == "spawn"] == [("spawn", (), 7)] * 3
        assert len([e for e in log if e[0] == "draw"]) == 3 * 7  # one per stream and round
        for e, cfg, out, trace in zip(entropies + entropies[:1], noisy, outs, traces):
            (want,), (want_trace,) = stage1_run(
                [designs], [cfg], [np.random.default_rng(e)]
            )
            assert out.tobytes() == want.tobytes()
            assert trace == want_trace

    def test_round_by_hand(self):
        # one noisy round, bitwise: one (d, pd) draw per client, in client
        # order from one child generator, a client-order weighted sum, one
        # tangent step
        designs, cfgs = self._members()
        cfg = replace(cfgs[2], rounds=1)
        rng = np.random.default_rng(8)
        (got,), (trace,) = stage1_run([designs], [cfg], [rng])
        sigma = dp.round_sigma(cfg.noise, 1)
        start, factors = fed_core.svd_truncate(cfg.init_a0, cfg.rank)
        child = np.random.default_rng(8).spawn(1)[0]
        agg = np.zeros_like(start)
        for w, ds in zip(sample_size_weights(designs), designs):
            z = child.standard_normal(start.shape)
            agg += w * dp.add_gaussian_noise(local_gradient(ds, start), sigma, z)
        one = matops.SvdFactors(u=factors.u[None], s=factors.s[None], v=factors.v[None])
        (want,), _ = matops.tangent_step(one, agg[None], [cfg.step_rho])
        assert np.array_equal(got, want)
        assert [(t.round_index, t.sigma) for t in trace] == [(0, sigma)]

    def test_bad_stacks_rejected(self):
        designs, cfgs = self._members()
        rngs = [np.random.default_rng(c) for c in range(4)]
        sets = [designs] * 4
        with pytest.raises(ValueError, match="at least one federation"):
            stage1_run([], [], [])
        with pytest.raises(ValueError, match="3 generators for 4 federation configs"):
            stage1_run(sets, cfgs, rngs[:3])
        with pytest.raises(ValueError, match="3 client lists for 4 federation configs"):
            stage1_run(sets[:3], cfgs, rngs)
        bad = [cfgs[0], replace(cfgs[1], rank=1)] + cfgs[2:]
        with pytest.raises(ValueError, match="member 1 has rank 1, member 0 has rank 2"):
            stage1_run(sets, bad, rngs)
        with pytest.raises(ValueError, match="member 1 has no clients"):
            stage1_run([designs, []] + sets[2:], cfgs, rngs)
        _, _, _, other = make_world(seed=14, d=4, k=4)
        with pytest.raises(ValueError, match="shape"):
            stage1_run([designs, other] + sets[2:], cfgs, rngs)

    def test_mismatched_clients_rejected(self):
        _, _, _, designs = make_world(seed=13, d=5)
        _, _, _, other = make_world(seed=14, d=4)
        cfg = FedConfig(rank=1, rounds=1, step_rho=0.1, init_a0=np.zeros((5, 5)))
        with pytest.raises(ValueError, match="shape"):
            stage1_run([designs + [other[0]]], [cfg], [np.random.default_rng(0)])


def _stage1_worlds(seed):
    """(label, designs, noise-free harness FedConfig) of each federation of
    replication 0 of a T sweep, a K sweep and a privacy heatmap at the
    default sizes, plus the K sweep's ten clients cut to row prefixes of
    400, 370, ..., 130 rows, so that the sample-size weights differ."""
    out = []
    for kind, draw in (("t_sweep", experiments._draw_t_sweep),
                       ("k_sweep", experiments._draw_k_sweep),
                       ("privacy_heatmap", experiments._draw_privacy_heatmap)):
        noise = "fixed_scale" if kind == "privacy_heatmap" else "none"
        cfg = ExperimentConfig(kind=kind, seed=seed, reps=1, noise_mode=noise)
        worlds = draw(cfg, 0)
        sets = [[var.lag_design(pn) for pn in client_panels]
                for client_panels in experiments._simulate_worlds(cfg, worlds)]
        if kind == "k_sweep":
            clients = sets[0]
            sets = [clients[:k] for k in cfg.k_grid]
            sets.append([var.LagDesign(x=ds.x[:t], y=ds.y[:t])
                         for ds, t in zip(clients, range(400, 100, -30))])
        for designs, fcfg in zip(sets, experiments.fed_config(cfg, sets)):
            fcfg = replace(fcfg, noise=dp.NoisePolicy.none())
            sizes = sorted({ds.t_len for ds in designs})
            t_lens = "-".join(str(t) for t in sizes[:: len(sizes) - 1 or 1])
            out.append((f"{kind} K={len(designs)} T={t_lens}", designs, fcfg))
    return out


class TestStageOneLimit:
    def test_noise_free_rounds_reach_pooled_reduced_rank_regression(self):
        # Noise-free stage 1 is gradient descent on the pooled loss over
        # the rank-r matrices, with the harness step rho = rho_scale /
        # lambda_max(S), S the pooled Gram matrix; its limit is the closed
        # form oracles.pooled_rrr, which shares only the pooled statistics
        # with it.  Each federation runs 16 times its harness rounds, N,
        # and once N - 1 rounds, all in one stack.
        #
        # The bound.  Near the limit a round is a gradient step on a
        # quadratic of Hessian 2 S, kept on the tangent space: it contracts
        # by at most 1 - 2 rho lambda_min(S), as 2 rho lambda_max(S) =
        # 2 rho_scale <= 1.  The manifold's curvature there, the normal
        # part of the gradient (of size s_{r+1}, the (r+1)-th singular value
        # of C S^-1/2) against the limit's r-th singular value (s_r), slows
        # it by the relative eigengap 1 - s_{r+1} / s_r, so the local rate
        # is q = 1 - 2 rho lambda_min(S) (1 - s_{r+1} / s_r).  An iterate
        # of a q-contraction lies within q / (1 - q) times its last step
        # of the fixed point.  Rounding adds a floor: sums of pd terms, the
        # inverse square root of S (condition number kappa) and the rank-r
        # truncation (amplified by s_1 / (s_r - s_{r+1}), Wedin's bound)
        # give 100 pd kappa s_1 / (s_r - s_{r+1}) u relative, the factor
        # 100 as in test_reference.py.  A world that converges slowly
        # shows a small eigengap or a large kappa in the printed line.
        u = 2.0**-53
        worlds = _stage1_worlds(seed=3)
        cfgs = [replace(fcfg, rounds=16 * fcfg.rounds - last)
                for _, _, fcfg in worlds for last in (1, 0)]
        outs, _ = stage1_run([designs for _, designs, _ in worlds for _ in (1, 0)],
                             cfgs, [np.random.default_rng(0)] * len(cfgs))
        for (label, designs, fcfg), before, after in zip(worlds, outs[::2], outs[1::2]):
            want, sv, evals = pooled_rrr(designs, fcfg.rank)
            r, scale = fcfg.rank, np.linalg.norm(want)
            gap = (sv[r - 1] - sv[r]) / sv[r - 1]
            q = 1.0 - 2.0 * fcfg.step_rho * evals[0] * gap
            kappa = evals[-1] / evals[0]
            floor = 100 * designs[0].pd * kappa * (sv[0] / (sv[r - 1] - sv[r])) * u
            step = np.linalg.norm(after - before) / scale
            bound = q / (1.0 - q) * step + floor
            dist = np.linalg.norm(after - want) / scale
            print(f"{label}: {16 * fcfg.rounds} rounds, distance {dist:.2e}, "
                  f"bound {bound:.2e}; eigengap s_r - s_r+1 = {sv[r - 1] - sv[r]:.3g} "
                  f"({gap:.3f} of s_r), kappa(S) {kappa:.0f}, rate {q:.4f}")
            assert dist <= bound, label


class TestFitFederated:
    def test_end_to_end_improves_on_init(self):
        a0, _, _, designs = make_world(seed=17, d=6, k=4, t_len=300, ratio=8.0)
        (init,) = initial_shared_estimate(
            [designs[0]], 2, [default_admm_config(designs[0])]
        )
        eta = min(default_eta(d) for d in designs)
        cfg = FedConfig(rank=2, rounds=40, step_rho=eta, init_a0=init)
        (decomps,), (report,) = fit_federated(
            [designs], [cfg], [[0.05] * len(designs)], [np.random.default_rng(6)]
        )
        assert len(decomps) == 4
        for dec in decomps:
            assert dec.a0.shape == (6, 6)
            assert np.array_equal(dec.a0, decomps[0].a0)
        assert len(report.stage1_trace) == 40
        assert report.fista_states == [FistaState(fed_core._REFINE_ITERS, False)] * 4
        err_init = np.linalg.norm(init - a0)
        err_final = np.linalg.norm(decomps[0].a0 - a0)
        assert err_final < err_init

    def test_per_client_configs_and_validation(self):
        _, _, _, designs = make_world(seed=18, k=2)
        eta = min(default_eta(d) for d in designs)
        cfg = FedConfig(rank=1, rounds=2, step_rho=eta, init_a0=np.eye(5))
        varpis = [0.1, 0.2]
        rngs = [np.random.default_rng(7)]
        (decomps,), _ = fit_federated([designs], [cfg], [varpis], rngs)
        assert len(decomps) == 2
        # two steps of 1 / (2 ||sxx||_op) move the shared estimate less than
        # the start's own norm, 1 (they move it 0.80)
        start = fed_core.svd_truncate(cfg.init_a0, 1)[0]
        for dec in decomps:
            assert np.isfinite(dec.a0).all() and np.isfinite(dec.delta).all()
            assert np.linalg.norm(dec.a0 - start) <= 1.0
        short, long = [0.1], [0.1, 0.2, 0.3]
        for sets, bad in (
            ([designs], [short]),  # too few penalties for the member's clients
            ([designs], [long]),  # too many
            ([designs, designs], [varpis, short]),  # ... for the second member's
            ([designs, designs], [varpis]),  # one list for two members
            ([designs], [varpis, varpis]),  # two lists for one member
        ):
            with pytest.raises(ValueError, match="refinement penalties"):
                fit_federated(sets, [cfg] * len(sets), bad, rngs * len(sets))

    def test_every_refinement_stops_by_the_cap(self, monkeypatch):
        # the cap is one constant for every (member, client) problem
        monkeypatch.setattr(fed_core, "_REFINE_ITERS", 3)
        _, _, _, designs = make_world(seed=18, k=3)
        eta = min(default_eta(d) for d in designs)
        cfg = FedConfig(rank=1, rounds=2, step_rho=eta, init_a0=np.eye(5))
        sets = [designs, designs[:2]]
        _, reports = fit_federated(
            sets, [cfg] * 2, [[0.1, 0.2, 0.0], [1e6, 0.1]],
            [np.random.default_rng(s) for s in (7, 8)],
        )
        states = [s for report in reports for s in report.fista_states]
        assert len(states) == 5
        assert all(s.iterations <= 3 for s in states)
        # a huge penalty keeps the deviation at zero, which the step rule
        # stops after one step
        assert states[3] == FistaState(1, True)

    def test_members_equal_their_one_member_calls(self):
        # members over different clients, numbers of clients and sample
        # sizes, with their own rounds (one of them zero), noise, step and
        # refinement penalties
        a0, deltas = var.assemble_dgp(5, 2, 2, 3, np.random.default_rng(40), ratio=5.0)
        sets = []
        for t_len in (70, 120, 95, 150):
            rng = np.random.default_rng(t_len)
            panels = [
                var.simulate(a0 + dk, 2, t_len + 20 * k, rng, burn_in=100)
                for k, dk in enumerate(deltas)
            ]
            sets.append([var.lag_design(pn) for pn in panels])
        sets = [designs[:k] for designs, k in zip(sets, (3, 1, 3, 2))]
        base = FedConfig(rank=2, rounds=8, step_rho=0.05, init_a0=a0)
        cfgs = [
            base,
            replace(base, rounds=5, noise=dp.NoisePolicy.fixed(2.0, 0.1)),
            replace(base, rounds=0, noise=dp.NoisePolicy.calibrated(0.5, 2.0, 0.1)),
            replace(base, rounds=7, step_rho=0.08,
                    noise=dp.NoisePolicy.calibrated(0.5, 2.0, 0.1)),
        ]
        varpis = [
            [v * (k + 1) for k in range(len(designs))]
            for designs, v in zip(sets, (0.02, 0.05, 0.01, 0.1))
        ]
        seeds = (11, 12, 13, 14)
        decomps, reports = fit_federated(
            sets, cfgs, varpis, [np.random.default_rng(s) for s in seeds]
        )
        assert [len(r.stage1_trace) for r in reports] == [8, 5, 0, 7]
        for c, (designs, cfg, pens, seed) in enumerate(zip(sets, cfgs, varpis, seeds)):
            (want,), (want_report,) = fit_federated(
                [designs], [cfg], [pens], [np.random.default_rng(seed)]
            )
            report = reports[c]
            assert report.stage1_trace == want_report.stage1_trace
            assert len(report.fista_states) == len(designs)
            assert report.fista_states == want_report.fista_states
            assert len(decomps[c]) == len(designs)
            for got, exp in zip(decomps[c], want):
                assert got.a0.tobytes() == exp.a0.tobytes()
                assert got.delta.tobytes() == exp.delta.tobytes()
        # the deviations differ across members, so none was refined around
        # another member's estimate
        assert len({decomps[c][0].delta.tobytes() for c in range(4)}) == 4


class TestEntryPointValidation:
    """The kernels do not validate; the entry points and configs do."""

    def test_stage1_rejects_nonfinite_init(self):
        _, _, _, designs = make_world(seed=19)
        for bad in (np.nan, np.inf):
            init = np.zeros((5, 5))
            init[1, 2] = bad
            cfg = FedConfig(rank=1, rounds=1, step_rho=0.1, init_a0=init)
            with pytest.raises(ValueError, match="non-finite"):
                stage1_run([designs], [cfg], [np.random.default_rng(0)])

    def test_rank_above_min_rejected(self):
        _, _, _, designs = make_world(seed=20, d=4, p=2)  # min(d, pd) = 4
        cfg = FedConfig(rank=5, rounds=1, step_rho=0.1, init_a0=np.zeros((4, 8)))
        varpis = [0.1] * len(designs)
        with pytest.raises(ValueError, match="rank 5 outside"):
            fit_federated([designs], [cfg], [varpis], [np.random.default_rng(0)])
        admm_cfg = default_admm_config(designs[0])
        for rank in (0, 5):
            with pytest.raises(ValueError, match="outside"):
                initial_shared_estimate([designs[0]], rank, [admm_cfg])
        (start,) = initial_shared_estimate([designs[0]], 4, [admm_cfg])
        assert start.shape == (4, 8)

    def test_negative_thresholds_rejected_by_configs(self):
        # svt and soft_threshold take their thresholds from these configs
        # (refine_fista checks its own penalties)
        with pytest.raises(ValueError):
            AdmmConfig(lam=0.1, omega=-0.1)
        with pytest.raises(ValueError):
            AdmmConfig(lam=-0.1, omega=0.1)

    def test_fista_divergence_raises(self, monkeypatch):
        _, _, _, designs = make_world(seed=21)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        # a step far past 1 / (2 ||sxx||) makes the iterates blow up
        monkeypatch.setattr(fed_core, "default_eta", lambda design: 1e6)
        raised = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for iters in (1, 10, 50, 200):
                try:
                    (delta,), _ = refine_fista([design], [a0], [0.1], iters)
                except ValueError as exc:
                    assert "non-finite" in str(exc)
                    raised += 1
                else:
                    assert np.all(np.isfinite(delta))
        assert raised >= 1

    def test_stage1_divergence_raises(self):
        a0, _, _, designs = make_world(seed=22)
        bound = 1.0 / fed_core.pooled_operator_norm(designs)
        cfg = FedConfig(rank=2, rounds=120, step_rho=0.5 * bound, init_a0=a0)
        rngs = [np.random.default_rng(0)] * 2
        # a step at the stability bound cannot contract, so it is refused
        # before any round, naming its member
        for step in (bound, 1e6):
            with pytest.raises(ValueError, match="member 1: step_rho .* stability bound"):
                stage1_run([designs] * 2, [cfg, replace(cfg, step_rho=step)], rngs)
        # a step inside it from a start of entries near the largest float
        # overflows the gradient, which tangent_step refuses
        huge = replace(cfg, init_a0=1e307 * a0 / np.abs(a0).max())
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                stage1_run([designs], [huge], rngs[:1])
