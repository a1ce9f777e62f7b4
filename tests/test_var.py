import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvar import var

from oracles import quadratic_roots, simulate_reference


class TestCompanion:
    def test_p2_diagonal_example(self):
        # per-coordinate lag polynomial x^2 - 0.5 x - 0.24 has roots 0.8, -0.3
        a = np.hstack([0.5 * np.eye(2), 0.24 * np.eye(2)])
        r1, r2 = quadratic_roots(-0.5, -0.24)
        assert max(abs(r1), abs(r2)) == pytest.approx(0.8)
        assert var.companion_spectral_radius(a, 2) == pytest.approx(0.8)

    def test_p1_matches_characteristic_polynomial(self):
        a = np.array([[0.3, 0.5], [0.1, -0.2]])
        # eigenvalues of a 2x2 from its characteristic polynomial
        r1, r2 = quadratic_roots(-np.trace(a), np.linalg.det(a))
        want = max(abs(r1), abs(r2))
        assert var.companion_spectral_radius(a, 1) == pytest.approx(want)

    def test_companion_layout(self):
        a = np.arange(8, dtype=float).reshape(2, 4)
        comp = var.companion_matrix(a, 2)
        np.testing.assert_array_equal(comp[:2], a)
        np.testing.assert_array_equal(comp[2:, :2], np.eye(2))
        np.testing.assert_array_equal(comp[2:, 2:], np.zeros((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            var.companion_matrix(np.zeros((2, 3)), 2)


class TestStationarityScaling:
    def test_radius_scales_linearly_in_c(self):
        rng = np.random.default_rng(0)
        for p in (1, 2, 3):
            a = rng.standard_normal((3, 3 * p))
            base = var.companion_spectral_radius(a, p)
            for c in (0.1, 0.5, 2.0):
                scaled = var.scale_lag_blocks(a, p, c)
                got = var.companion_spectral_radius(scaled, p)
                assert got == pytest.approx(c * base, rel=1e-9)

    def test_enforce_hits_target_exactly(self):
        rng = np.random.default_rng(1)
        for p in (1, 3):
            a = rng.standard_normal((4, 4 * p))
            out = var.enforce_stationarity(a, p, target_radius=0.9)
            assert var.companion_spectral_radius(out, p) == pytest.approx(
                0.9, abs=1e-10
            )

    def test_zero_matrix_unchanged(self):
        a = np.zeros((3, 6))
        out = var.enforce_stationarity(a, 2)
        np.testing.assert_array_equal(out, a)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            var.enforce_stationarity(np.eye(2), 1, target_radius=1.0)
        with pytest.raises(ValueError):
            var.enforce_stationarity(np.eye(2), 1, target_radius=0.0)


class TestGenerators:
    def test_low_rank_has_rank_r(self):
        rng = np.random.default_rng(2)
        a0 = var.gen_low_rank(6, 2, 2, rng)
        assert a0.shape == (6, 12)
        s = np.linalg.svd(a0, compute_uv=False)
        assert s[1] > 1e-6
        assert s[2] < 1e-10


class TestAssembleDgp:
    def test_shapes_radius_and_ratio(self):
        rng = np.random.default_rng(5)
        a0, deltas = var.assemble_dgp(8, 1, 2, 4, rng, ratio=5.0)
        assert a0.shape == (8, 8)
        assert len(deltas) == 4
        radii = [var.companion_spectral_radius(a0 + dk, 1) for dk in deltas]
        assert max(radii) == pytest.approx(0.9, abs=1e-9)
        assert all(r <= 0.9 + 1e-9 for r in radii)
        # common scaling at p=1 preserves the Frobenius ratio exactly
        for dk in deltas:
            assert np.linalg.norm(a0) / np.linalg.norm(dk) == pytest.approx(
                5.0, rel=1e-9
            )
        s = np.linalg.svd(a0, compute_uv=False)
        assert s[2] < 1e-9  # rank 2 survives scaling

    def test_none_ratio_zeroes_deltas(self):
        rng = np.random.default_rng(6)
        a0, deltas = var.assemble_dgp(5, 2, 1, 3, rng, ratio=None)
        for dk in deltas:
            np.testing.assert_array_equal(dk, np.zeros((5, 10)))
        assert var.companion_spectral_radius(a0, 2) == pytest.approx(
            0.9, abs=1e-9
        )

    def test_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            var.assemble_dgp(5, 1, 1, 0, rng)
        with pytest.raises(ValueError):
            var.assemble_dgp(5, 1, 1, 2, rng, ratio=-1.0)

    def test_deviations_lie_in_ball(self):
        # small rank-1 worlds often need a common factor above 1, which
        # scales the deviations up after their support is chosen
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(rng.integers(3, 7))
            p = int(rng.integers(1, 3))
            q = float(rng.choice([0.1, 0.5, 1.0]))
            _, deltas = var.assemble_dgp(d, p, 1, 3, rng, q=q, s_q=10.0)
            for dk in deltas:
                assert np.sum(np.abs(dk) ** q) <= 10.0 * (1 + 1e-12)

    def test_default_deviations_are_sparse(self):
        _, deltas = var.assemble_dgp(20, 1, 2, 5, np.random.default_rng(9))
        for dk in deltas:
            assert 1 <= np.count_nonzero(dk) <= 20

    def test_q_and_s_q_shape_deviations(self):
        def deviation(q, s_q):
            rng = np.random.default_rng(10)
            return var.assemble_dgp(20, 1, 2, 1, rng, q=q, s_q=s_q)[1][0]

        base = deviation(0.1, 10.0)
        for q, s_q in ((0.5, 10.0), (0.1, 5.0)):
            other = deviation(q, s_q)
            assert np.count_nonzero(other) != np.count_nonzero(base)
            assert np.max(np.abs(other - base)) > 1e-3

    def test_variates_consumed_match_plain_draws(self):
        # one (d, p*d) draw for a0 and one per client, whatever (q, s_q)
        d, p, k = 6, 2, 3
        for q, s_q in ((0.1, 10.0), (1.0, 2.0)):
            rng = np.random.default_rng(11)
            a0, deltas = var.assemble_dgp(d, p, 2, k, rng, q=q, s_q=s_q)
            panel = var.simulate(a0 + deltas[0], p, 20, rng, burn_in=5)

            ref = np.random.default_rng(11)
            for _ in range(k + 1):
                ref.standard_normal((d, p * d))
            design = var.lag_design(panel)
            resid = design.y - design.x @ (a0 + deltas[0]).T
            draws = ref.standard_normal((5 + p + 20, d))
            np.testing.assert_allclose(resid, draws[5 + p :], atol=1e-10)

    def test_shared_part_is_the_rescaled_low_rank_draw(self):
        a0, _ = var.assemble_dgp(8, 1, 2, 4, np.random.default_rng(12))
        raw = var.gen_low_rank(8, 1, 2, np.random.default_rng(12))
        c = np.linalg.norm(a0) / np.linalg.norm(raw)
        np.testing.assert_allclose(a0, c * raw, atol=1e-12)

    def test_impossible_ball_rejected(self):
        # one entry of Frobenius norm ||a0||_F / ratio already exceeds s_q
        with pytest.raises(ValueError, match="fits in the ball"):
            var.assemble_dgp(
                20, 1, 2, 1, np.random.default_rng(13), q=0.5, s_q=1e-3
            )


class TestSimulate:
    def test_zero_coefficients_reproduce_draws(self):
        seed = np.random.SeedSequence(11)
        panel = var.simulate(
            np.zeros((3, 3)), 1, 10, np.random.default_rng(seed), burn_in=5
        )
        draws = np.random.default_rng(np.random.SeedSequence(11)).standard_normal(
            (5 + 1 + 10, 3)
        )
        np.testing.assert_array_equal(panel.observations, draws[6:])
        np.testing.assert_array_equal(panel.presample, draws[5:6])

    def test_zero_noise_gives_zero_path(self):
        panel = var.simulate(
            0.5 * np.eye(2),
            1,
            8,
            np.random.default_rng(0),
            burn_in=3,
            noise_chol=np.zeros((2, 2)),
        )
        np.testing.assert_array_equal(panel.observations, np.zeros((8, 2)))

    def test_rejects_nonstationary(self):
        with pytest.raises(ValueError, match="non-stationary"):
            var.simulate(1.05 * np.eye(2), 1, 10, np.random.default_rng(0))

    def test_ar1_stationary_variance(self):
        # AR(1) with phi = 0.5 and unit innovations has variance 4/3
        panel = var.simulate(
            np.array([[0.5]]), 1, 200_000, np.random.default_rng(12), burn_in=500
        )
        assert np.var(panel.observations) == pytest.approx(4.0 / 3.0, rel=0.03)

    def test_innovation_replay_identity(self):
        # y_t - A x_t recovers the very innovations that were drawn
        rng = np.random.default_rng(13)
        a = var.enforce_stationarity(rng.standard_normal((3, 6)), 2, 0.8)
        panel = var.simulate(a, 2, 50, np.random.default_rng(99), burn_in=10)
        design = var.lag_design(panel)
        resid = design.y - design.x @ a.T
        draws = np.random.default_rng(99).standard_normal((10 + 2 + 50, 3))
        np.testing.assert_allclose(resid, draws[12:], atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 8),
        p=st.integers(1, 3),
        t_len=st.integers(1, 40),
        burn_in=st.integers(0, 20),
        with_chol=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_recursion_bitwise(
        self, d, p, t_len, burn_in, with_chol, seed
    ):
        rng = np.random.default_rng(seed)
        a = var.enforce_stationarity(rng.standard_normal((d, p * d)), p, 0.9)
        chol = np.tril(rng.standard_normal((d, d))) if with_chol else None
        got_rng = np.random.default_rng(seed + 1)
        want_rng = np.random.default_rng(seed + 1)
        panel = var.simulate(a, p, t_len, got_rng, burn_in=burn_in, noise_chol=chol)
        presample, observations = simulate_reference(
            a, p, t_len, want_rng, burn_in=burn_in, noise_chol=chol
        )
        assert np.array_equal(panel.presample, presample)
        assert np.array_equal(panel.observations, observations)
        # the same number of innovations was drawn
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_path_does_not_depend_on_coefficient_layout(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d, p = 3 + seed % 6, 1 + seed % 3
            a = var.enforce_stationarity(rng.standard_normal((d, p * d)), p, 0.9)
            c_rng = np.random.default_rng(seed + 100)
            f_rng = np.random.default_rng(seed + 100)
            c_path = var.simulate(a, p, 30, c_rng, burn_in=20)
            f_path = var.simulate(np.asfortranarray(a), p, 30, f_rng, burn_in=20)
            assert np.array_equal(c_path.presample, f_path.presample)
            assert np.array_equal(c_path.observations, f_path.observations)
            assert c_rng.bit_generator.state == f_rng.bit_generator.state


class TestLagDesignAndForecast:
    def test_manual_alignment(self):
        panel = var.TimeSeriesPanel(
            presample=np.array([[1.0], [2.0]]),
            observations=np.array([[3.0], [4.0]]),
        )
        design = var.lag_design(panel)
        np.testing.assert_array_equal(design.x, [[2.0, 1.0], [3.0, 2.0]])
        np.testing.assert_array_equal(design.y, [[3.0], [4.0]])

    def test_forecast_matches_design_row(self):
        rng = np.random.default_rng(14)
        a = var.enforce_stationarity(rng.standard_normal((2, 4)), 2, 0.8)
        panel = var.simulate(a, 2, 30, np.random.default_rng(3), burn_in=20)
        design = var.lag_design(panel)
        full = np.vstack([panel.presample, panel.observations])
        # forecast made from data up to observation i-1 uses design row i
        for i in (0, 10, 29):
            recent = full[i : i + 2]
            np.testing.assert_allclose(
                var.forecast_one_step(a, recent), a @ design.x[i], atol=1e-12
            )

    def test_decomposition_sum(self):
        dec = var.CoefDecomposition(
            a0=np.eye(2), delta=0.5 * np.eye(2), rank=1
        )
        np.testing.assert_array_equal(dec.a, 1.5 * np.eye(2))

    def test_panel_prefix(self):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 2)), observations=np.arange(10.0).reshape(5, 2)
        )
        pre = panel.prefix(3)
        assert pre.t_len == 3
        np.testing.assert_array_equal(pre.observations, panel.observations[:3])
        with pytest.raises(ValueError):
            panel.prefix(6)
