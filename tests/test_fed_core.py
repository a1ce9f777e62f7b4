from dataclasses import replace

import numpy as np
import pytest

from fedvar import dp, fed_core, matops, var
from fedvar.fed_core import (
    FedConfig,
    FistaConfig,
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
        (delta,), _ = refine_fista([design], [a0], [FistaConfig(varpi=0.0, iters=2000)])
        ls, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        assert np.linalg.norm(delta - ls.T) < 1e-8

    def test_objective_trace(self):
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (delta,), (trace,) = refine_fista(
            [design], [a0], [FistaConfig(varpi=0.05, iters=20)]
        )
        assert len(trace) == 21
        assert trace[-1] <= trace[0] + 1e-10

    def test_zero_iters_returns_zero(self):
        _, _, _, designs = make_world(seed=5)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (delta,), (trace,) = refine_fista(
            [design], [a0], [FistaConfig(varpi=0.1, iters=0)]
        )
        np.testing.assert_array_equal(delta, np.zeros_like(delta))
        assert len(trace) == 1

    def test_huge_penalty_keeps_zero(self):
        _, _, _, designs = make_world(seed=6)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        (delta,), _ = refine_fista([design], [a0], [FistaConfig(varpi=1e6, iters=20)])
        np.testing.assert_array_equal(delta, np.zeros_like(delta))

    def test_shape_mismatch(self):
        _, _, _, designs = make_world(seed=7)
        with pytest.raises(ValueError):
            refine_fista([designs[0]], np.zeros((1, 2, 2)), [FistaConfig(varpi=0.1)])

    def test_stops_before_cap_near_long_reference(self):
        # Gram condition number about 1.7: the proximal-gradient map is a
        # strong contraction, so once a step is below 1e-10 the remaining
        # distance to the solution is a small multiple of it.
        rng = np.random.default_rng(4)
        design = var.LagDesign(
            x=rng.standard_normal((200, 6)), y=rng.standard_normal((200, 3))
        )
        a0 = np.zeros((3, 6))
        cfg = FistaConfig(varpi=0.05, iters=20_000)
        (delta,), (trace,) = refine_fista([design], [a0], [cfg])
        assert len(trace) - 1 < 100
        ref, ref_iters = plain_fista(
            design.x, design.y, a0, 0.05, default_eta(design), tol=0.0, cap=20_000
        )
        assert ref_iters > len(trace) - 1
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
        cfg = FistaConfig(varpi=varpi, iters=40_000)
        (delta,), (trace,) = refine_fista([design], [a0], [cfg])
        plain, plain_iters = plain_fista(
            design.x, design.y, a0, varpi, eta, fed_core._FISTA_TOL, cfg.iters
        )
        assert len(trace) - 1 < plain_iters < cfg.iters
        assert np.linalg.norm(delta - plain) < 1e-6

    def test_iterates_match_raw_design_restart_fista(self):
        for seed in (4, 5, 6):
            _, _, _, designs = make_world(seed=seed, d=4, p=2, ratio=5.0)
            design = designs[0]
            a0 = 0.1 * np.random.default_rng(seed).standard_normal((design.d, design.pd))
            eta = default_eta(design)
            for iters in (1, 2, 10, 40):
                cfg = FistaConfig(varpi=0.05, iters=iters)
                (delta,), (trace,) = refine_fista([design], [a0], [cfg])
                assert len(trace) - 1 == iters
                want = restart_fista(design.x, design.y, a0, 0.05, eta, iters)
                assert np.linalg.norm(delta - want) <= 1e-10 * np.linalg.norm(want)

    def test_trace_entries_are_the_objective_at_each_iterate(self):
        # a run capped at n iterations ends at the n-th iterate of a longer run
        _, _, _, designs = make_world(seed=4, ratio=5.0)
        design = designs[0]
        rng = np.random.default_rng(5)
        a0 = 0.1 * rng.standard_normal((design.d, design.pd))
        varpi = 0.05
        _, (trace,) = refine_fista([design], [a0], [FistaConfig(varpi=varpi, iters=30)])
        assert len(trace) == 31
        for n, value in enumerate(trace):
            (delta,), _ = refine_fista([design], [a0], [FistaConfig(varpi=varpi, iters=n)])
            want = design.loss(a0 + delta) + varpi * np.sum(np.abs(delta))
            assert abs(value - want) <= 1e-12 * abs(want)

    def test_trace_has_one_value_per_iteration_run(self, monkeypatch):
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
            cfg = FistaConfig(varpi=0.05, iters=iters)
            _, (trace,) = refine_fista([design], [a0], [cfg])
            assert len(trace) - 1 == len(calls)
            assert (len(calls) < iters) == stops_early


class TestStackedRefinement:
    """refine_fista runs a stack of problems in one loop; each member's
    result is that of a one-problem call."""

    def _stack(self):
        rng = np.random.default_rng(9)
        a0, deltas = var.assemble_dgp(4, 2, 1, 5, rng, ratio=5.0)
        designs = [
            var.lag_design(var.simulate(a0 + dl, 2, t, rng, burn_in=100))
            for dl, t in zip(deltas, (40, 55, 70, 90, 120))
        ]
        cfgs = [
            FistaConfig(varpi=0.05, iters=5000),  # stops early
            FistaConfig(varpi=0.0, iters=5000),  # no penalty
            FistaConfig(varpi=0.02, iters=12),  # capped
            FistaConfig(varpi=0.1, iters=0),  # no iteration
            FistaConfig(varpi=0.03, iters=7),  # capped
        ]
        return designs, 0.5 * a0, cfgs

    def test_members_equal_their_solo_runs(self):
        designs, shared, cfgs = self._stack()
        deltas, traces = refine_fista(designs, [shared] * 5, cfgs)
        assert deltas.shape == (5, 4, 8)
        runs = [len(tr) - 1 for tr in traces]
        assert runs[0] < 5000 and runs[1] < 5000 and runs[0] != runs[1]
        assert runs[2:] == [12, 0, 7]
        for j, (dsn, cfg) in enumerate(zip(designs, cfgs)):
            (solo,), (solo_trace,) = refine_fista([dsn], [shared], [cfg])
            assert np.array_equal(deltas[j], solo)
            assert np.array_equal(traces[j], solo_trace)
        # the order of the stack does not matter either
        back, back_traces = refine_fista(designs[::-1], [shared] * 5, cfgs[::-1])
        assert np.array_equal(back[::-1], deltas)
        for got, want in zip(back_traces[::-1], traces):
            assert np.array_equal(got, want)

    def test_members_around_their_own_shared_parts_equal_solo_runs(self):
        designs, shared, cfgs = self._stack()
        rng = np.random.default_rng(10)
        parts = [shared + 0.1 * rng.standard_normal(shared.shape) for _ in designs]
        deltas, traces = refine_fista(designs, parts, cfgs)
        for j, (dsn, part, cfg) in enumerate(zip(designs, parts, cfgs)):
            (solo,), (solo_trace,) = refine_fista([dsn], [part], [cfg])
            assert deltas[j].tobytes() == solo.tobytes()
            assert np.array_equal(traces[j], solo_trace)
        # the shared part matters: around one common part the result differs
        common, _ = refine_fista(designs, [shared] * 5, cfgs)
        assert not np.array_equal(common[0], deltas[0])

    def test_member_matches_raw_design_restart_fista(self):
        designs, shared, cfgs = self._stack()
        deltas, _ = refine_fista(designs, [shared] * 5, cfgs)
        dsn, cfg = designs[2], cfgs[2]
        want = restart_fista(dsn.x, dsn.y, shared, cfg.varpi, default_eta(dsn), cfg.iters)
        assert np.linalg.norm(deltas[2] - want) <= 1e-10 * np.linalg.norm(want)

    def test_bad_stacks_rejected(self):
        designs, shared, cfgs = self._stack()
        with pytest.raises(ValueError, match="at least one"):
            refine_fista([], [], [])
        with pytest.raises(ValueError, match="1 refinement configs for 2 designs"):
            refine_fista(designs[:2], [shared] * 2, cfgs[:1])
        _, _, _, other = make_world(seed=7, d=4, p=1)
        with pytest.raises(ValueError, match="shape"):
            refine_fista([designs[0], other[0]], [shared] * 2, cfgs[:2])
        with pytest.raises(ValueError, match=r"a0_hats shape \(1, 4, 8\)"):
            refine_fista(designs[:2], [shared], cfgs[:2])
        with pytest.raises(ValueError, match="non-finite"):
            refine_fista(designs[:2], [shared, np.full_like(shared, np.inf)], cfgs[:2])


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
        a0, _, _, designs = make_world(seed=10, ratio=None)
        cfg = FedConfig(rank=2, rounds=1, step_rho=0.05, init_a0=a0)
        (out,), (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(3)])
        # one round by hand: weighted tangent-projected gradients, then retract
        start, f = fed_core.svd_truncate(a0, 2)
        agg = sum(
            w * tangent_project_basis(local_gradient(ds, start), f.u, f.v)
            for w, ds in zip(sample_size_weights(designs), designs)
        )
        want, _ = fed_core.svd_truncate(start - 0.05 * agg, 2)
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert len(traces) == 1
        assert len(traces[0].grad_norms) == len(designs)
        assert traces[0].sigma == 0.0

    def test_grad_norms_equal_numpy_norm(self):
        for seed in (10, 11, 12):
            a0, _, _, designs = make_world(seed=seed, d=6, k=4, ratio=None)
            cfg = FedConfig(rank=2, rounds=1, step_rho=0.05, init_a0=a0)
            _, (traces,) = stage1_run([designs], [cfg], [np.random.default_rng(3)])
            start, _ = fed_core.svd_truncate(a0, 2)
            want = [float(np.linalg.norm(local_gradient(ds, start))) for ds in designs]
            assert list(traces[0].grad_norms) == want

        # a run of n rounds is n chained one-round runs on the same stream
        noisy = replace(
            cfg,
            rounds=4,
            noise=dp.NoisePolicy.fixed(),
            budget=dp.PrivacyBudget(epsilon=2.0, delta=0.1),
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

        def record(m, sigma, rng):
            draws.append((sigma, rng))
            return dp.add_gaussian_noise(m, sigma, rng)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", record)
        a0, _, _, designs = make_world(seed=26, k=4, ratio=None)
        base = FedConfig(rank=2, rounds=6, step_rho=0.05, init_a0=a0)
        noisy = replace(
            base,
            noise=dp.NoisePolicy.fixed(),
            budget=dp.PrivacyBudget(epsilon=2.0, delta=0.1),
        )
        sigma = dp.round_sigma(noisy.noise, noisy.budget, 6)
        for cfg, spawned, want_sigma in ((noisy, 6, sigma), (base, 0, 0.0)):
            draws.clear()
            rng = np.random.default_rng(5)
            stage1_run([designs], [cfg], [rng])
            assert rng.bit_generator.seed_seq.n_children_spawned == spawned
            assert len(draws) == 6 * len(designs)
            assert all(s == want_sigma for s, _ in draws)
            # one generator per round, shared by the clients in order
            k = len(designs)
            per_round = [
                [g for _, g in draws[i : i + k]] for i in range(0, len(draws), k)
            ]
            assert all(len({id(g) for g in gens}) == 1 for gens in per_round)
            firsts = [gens[0] for gens in per_round]
            if spawned:
                assert None not in firsts and len({id(g) for g in firsts}) == 6
            else:
                assert firsts == [None] * 6

    def test_noise_recorded_and_seed_sensitive(self):
        a0, _, _, designs = make_world(seed=11, ratio=None)
        cfg = FedConfig(
            rank=2,
            rounds=3,
            step_rho=0.05,
            init_a0=a0,
            noise=dp.NoisePolicy.fixed(),
            budget=dp.PrivacyBudget(epsilon=2.0, delta=0.1),
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
        budget = dp.PrivacyBudget(1.0, 0.1)
        noisy = FedConfig(
            rank=2, rounds=10, step_rho=0.05, init_a0=a0,
            noise=dp.NoisePolicy.calibrated(0.7), budget=budget,
        )
        for rounds in (1, 3, 10):
            _, (trace,) = stage1_run(
                [designs], [replace(noisy, rounds=rounds)], [np.random.default_rng(1)]
            )
            want = dp.gaussian_sigma(0.7, 1.0 / rounds, 0.1 / rounds)
            assert [t.sigma for t in trace] == [want] * rounds
        # ten one-round runs, each on a tenth of the budget, chain to the run
        (whole,), _ = stage1_run([designs], [noisy], [np.random.default_rng(1)])
        tenth = dp.PrivacyBudget(1.0 / 10, 0.1 / 10)
        rng, iterate = np.random.default_rng(1), a0
        for _ in range(10):
            one = replace(noisy, rounds=1, budget=tenth, init_a0=iterate)
            (iterate,), _ = stage1_run([designs], [one], [rng])
        np.testing.assert_allclose(iterate, whole, atol=1e-10)

    def test_zero_round_calibrated_run_returns_the_truncated_start(self, monkeypatch):
        draws = []
        monkeypatch.setattr(fed_core, "add_gaussian_noise", lambda *a: draws.append(a))
        a0, _, _, designs = make_world(seed=27, ratio=None)
        init = a0 + 0.1 * np.random.default_rng(2).standard_normal(a0.shape)
        cfg = FedConfig(
            rank=2, rounds=0, step_rho=0.05, init_a0=init,
            noise=dp.NoisePolicy.calibrated(1.0), budget=dp.PrivacyBudget(1.0, 0.1),
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
        budget = dp.PrivacyBudget(epsilon=2.0, delta=0.1)
        cfgs = [
            base,
            replace(base, noise=dp.NoisePolicy.fixed(), budget=budget),
            replace(
                base,
                step_rho=0.08,
                init_a0=a0 + 0.2 * rng.standard_normal(a0.shape),
                noise=dp.NoisePolicy.calibrated(0.5),
                budget=replace(budget, epsilon=4.0),
            ),
            replace(base, noise=dp.NoisePolicy.fixed(scale=0.3), budget=budget),
        ]
        return designs, cfgs

    def test_round_generators_are_sequential_spawn_children(self, monkeypatch):
        # a noisy member spawns its R round generators in one spawn(R)
        # call: they are the children R spawn(1) calls give, and each
        # round's first client draws from its child's fresh state
        designs, cfgs = self._members()
        seen = []
        real = fed_core.add_gaussian_noise

        def spy(m, sigma, rng):
            seen.append((rng.bit_generator.seed_seq.spawn_key, rng.bit_generator.state))
            return real(m, sigma, rng)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", spy)
        cfg, n_clients = cfgs[1], len(designs)
        stage1_run([designs], [cfg], [np.random.default_rng(6)])
        assert len(seen) == cfg.rounds * n_clients
        parent = np.random.default_rng(6)
        for n in range(cfg.rounds):
            child = parent.spawn(1)[0]
            this_round = seen[n * n_clients : (n + 1) * n_clients]
            assert {key for key, _ in this_round} == {child.bit_generator.seed_seq.spawn_key}
            assert this_round[0][1] == child.bit_generator.state

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
        budget = dp.PrivacyBudget(epsilon=2.0, delta=0.1)
        base = FedConfig(rank=2, rounds=9, step_rho=0.05, init_a0=a0)
        cfgs = [
            base,
            replace(base, rounds=4, noise=dp.NoisePolicy.fixed(), budget=budget),
            replace(base, rounds=0, noise=dp.NoisePolicy.calibrated(0.5), budget=budget),
            replace(base, rounds=6, noise=dp.NoisePolicy.calibrated(0.5), budget=budget),
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

    def test_round_by_hand(self):
        # one noisy round, bitwise: client-order draws from one child
        # generator, a client-order weighted sum, one tangent step
        designs, cfgs = self._members()
        cfg = replace(cfgs[2], rounds=1)
        rng = np.random.default_rng(8)
        (got,), (trace,) = stage1_run([designs], [cfg], [rng])
        sigma = dp.round_sigma(cfg.noise, cfg.budget, 1)
        start, factors = fed_core.svd_truncate(cfg.init_a0, cfg.rank)
        child = np.random.default_rng(8).spawn(1)[0]
        agg = np.zeros_like(start)
        for w, ds in zip(sample_size_weights(designs), designs):
            agg += w * dp.add_gaussian_noise(local_gradient(ds, start), sigma, child)
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


class TestFitFederated:
    def test_end_to_end_improves_on_init(self):
        a0, _, _, designs = make_world(seed=17, d=6, k=4, t_len=300, ratio=8.0)
        (init,) = initial_shared_estimate(
            [designs[0]], 2, [default_admm_config(designs[0])]
        )
        eta = min(default_eta(d) for d in designs)
        cfg = FedConfig(rank=2, rounds=40, step_rho=eta, init_a0=init)
        fcfgs = [FistaConfig(varpi=0.05, iters=20)] * len(designs)
        (decomps,), (report,) = fit_federated(
            [designs], [cfg], [fcfgs], [np.random.default_rng(6)]
        )
        assert len(decomps) == 4
        for dec in decomps:
            assert dec.a0.shape == (6, 6)
            assert np.array_equal(dec.a0, report.a0_hat)
        assert len(report.stage1_trace) == 40
        assert len(report.fista_traces) == 4
        err_init = np.linalg.norm(init - a0)
        err_final = np.linalg.norm(report.a0_hat - a0)
        assert err_final < err_init

    def test_per_client_configs_and_validation(self):
        _, _, _, designs = make_world(seed=18, k=2)
        cfg = FedConfig(
            rank=1, rounds=2, step_rho=0.05,
            init_a0=np.zeros((5, 5)) + np.eye(5)[:5],
        )
        fcfgs = [FistaConfig(varpi=0.1), FistaConfig(varpi=0.2)]
        rngs = [np.random.default_rng(7)]
        (decomps,), _ = fit_federated([designs], [cfg], [fcfgs], rngs)
        assert len(decomps) == 2
        short = [FistaConfig(varpi=0.1)]
        for sets, bad in (
            ([designs], [short]),  # too few configs for the member's clients
            ([designs, designs], [fcfgs, short]),  # ... for the second member's
            ([designs, designs], [fcfgs]),  # one list for two members
            ([designs], [fcfgs, fcfgs]),  # two lists for one member
        ):
            with pytest.raises(ValueError, match="refinement configs"):
                fit_federated(sets, [cfg] * len(sets), bad, rngs * len(sets))

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
        budget = dp.PrivacyBudget(epsilon=2.0, delta=0.1)
        base = FedConfig(rank=2, rounds=8, step_rho=0.05, init_a0=a0)
        cfgs = [
            base,
            replace(base, rounds=5, noise=dp.NoisePolicy.fixed(), budget=budget),
            replace(base, rounds=0, noise=dp.NoisePolicy.calibrated(0.5), budget=budget),
            replace(base, rounds=7, step_rho=0.08,
                    noise=dp.NoisePolicy.calibrated(0.5), budget=budget),
        ]
        fista_cfgs = [
            [FistaConfig(varpi=v * (k + 1), iters=n) for k in range(len(designs))]
            for designs, (v, n) in zip(sets, ((0.02, 20), (0.05, 200), (0.01, 0), (0.1, 60)))
        ]
        seeds = (11, 12, 13, 14)
        decomps, reports = fit_federated(
            sets, cfgs, fista_cfgs, [np.random.default_rng(s) for s in seeds]
        )
        assert [len(r.stage1_trace) for r in reports] == [8, 5, 0, 7]
        for c, (designs, cfg, fcfgs, seed) in enumerate(zip(sets, cfgs, fista_cfgs, seeds)):
            (want,), (want_report,) = fit_federated(
                [designs], [cfg], [fcfgs], [np.random.default_rng(seed)]
            )
            report = reports[c]
            assert report.a0_hat.tobytes() == want_report.a0_hat.tobytes()
            assert report.stage1_trace == want_report.stage1_trace
            assert len(report.fista_traces) == len(want_report.fista_traces) == len(designs)
            for got_tr, want_tr in zip(report.fista_traces, want_report.fista_traces):
                assert got_tr.tobytes() == want_tr.tobytes()
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
        fcfgs = [FistaConfig(varpi=0.1)] * len(designs)
        with pytest.raises(ValueError, match="rank 5 outside"):
            fit_federated([designs], [cfg], [fcfgs], [np.random.default_rng(0)])
        admm_cfg = default_admm_config(designs[0])
        for rank in (0, 5):
            with pytest.raises(ValueError, match="outside"):
                initial_shared_estimate([designs[0]], rank, [admm_cfg])
        (start,) = initial_shared_estimate([designs[0]], 4, [admm_cfg])
        assert start.shape == (4, 8)

    def test_negative_thresholds_rejected_by_configs(self):
        # svt and soft_threshold take their thresholds from these configs
        with pytest.raises(ValueError):
            AdmmConfig(lam=0.1, omega=-0.1)
        with pytest.raises(ValueError):
            AdmmConfig(lam=-0.1, omega=0.1)
        with pytest.raises(ValueError):
            FistaConfig(varpi=-0.1)

    def test_fista_divergence_raises(self, monkeypatch):
        _, _, _, designs = make_world(seed=21)
        design = designs[0]
        a0 = np.zeros((design.d, design.pd))
        # a step far past 1 / (2 ||sxx||) makes the iterates blow up
        monkeypatch.setattr(fed_core, "default_eta", lambda design: 1e6)
        raised = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for iters in (1, 10, 50, 200):
                cfg = FistaConfig(varpi=0.1, iters=iters)
                try:
                    (delta,), _ = refine_fista([design], [a0], [cfg])
                except ValueError as exc:
                    assert "non-finite" in str(exc)
                    raised += 1
                else:
                    assert np.all(np.isfinite(delta))
        assert raised >= 1

    def test_stage1_divergence_raises(self):
        a0, _, _, designs = make_world(seed=22)
        cfg = FedConfig(rank=2, rounds=120, step_rho=1e6, init_a0=a0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                stage1_run([designs], [cfg], [np.random.default_rng(0)])
