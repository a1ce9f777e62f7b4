import math

import numpy as np
import pytest

from fedvar import dp

from oracles import gaussian_sigma_ref


class TestGaussianSigma:
    def test_unit_sensitivity_frozen_values(self):
        # sqrt(2 ln 25) and sqrt(2 ln 12.5)/2, frozen from the longhand form
        assert dp.gaussian_sigma(1.0, 1.0, 0.05) == pytest.approx(
            2.537272482359039, abs=1e-12
        )
        assert dp.gaussian_sigma(1.0, 2.0, 0.1) == pytest.approx(
            1.1237723622487465, abs=1e-12
        )

    def test_matches_longhand_reference(self):
        for sens, eps, delta in [(1, 1, 0.05), (1, 2, 0.1), (3.5, 0.2, 0.01)]:
            assert dp.gaussian_sigma(sens, eps, delta) == pytest.approx(
                gaussian_sigma_ref(sens, eps, delta), abs=1e-14
            )

    def test_linear_in_sensitivity(self):
        base = dp.gaussian_sigma(1.0, 0.7, 0.2)
        assert dp.gaussian_sigma(2.0, 0.7, 0.2) == pytest.approx(2 * base)
        assert dp.gaussian_sigma(0.0, 0.7, 0.2) == 0.0

    def test_monotone_in_budget(self):
        s = [dp.gaussian_sigma(1.0, e, 0.1) for e in (0.5, 1.0, 2.0, 4.0)]
        assert s == sorted(s, reverse=True)
        s = [dp.gaussian_sigma(1.0, 1.0, d) for d in (0.01, 0.05, 0.2)]
        assert s == sorted(s, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            dp.gaussian_sigma(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            dp.gaussian_sigma(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dp.gaussian_sigma(-1.0, 1.0, 0.1)


class TestBudgetAndPolicy:
    @pytest.mark.parametrize(
        "mode, eps, delta, match",
        [
            # NaN passes a "<= 0" check, and an infinite epsilon would
            # calibrate no noise
            ("fixed_scale", 0.0, 0.1, "epsilon must be positive and finite"),
            ("calibrated", -1.0, 0.1, "epsilon must be positive and finite"),
            ("fixed_scale", math.inf, 0.1, "epsilon must be positive and finite"),
            ("calibrated", math.nan, 0.1, "epsilon must be positive and finite"),
            ("fixed_scale", 1.0, 0.0, r"delta must lie in \(0, 1\)"),
            ("calibrated", 1.0, 1.0, r"delta must lie in \(0, 1\)"),
            ("fixed_scale", 1.0, 1.5, r"delta must lie in \(0, 1\)"),
            ("calibrated", 1.0, math.inf, r"delta must lie in \(0, 1\)"),
            ("fixed_scale", 1.0, math.nan, r"delta must lie in \(0, 1\)"),
            ("fixed_scale", None, 0.1, "needs an epsilon and a delta"),
            ("calibrated", 1.0, None, "needs an epsilon and a delta"),
            ("calibrated", None, None, "needs an epsilon and a delta"),
            ("none", 1.0, None, "takes no epsilon or delta"),
            ("none", None, 0.1, "takes no epsilon or delta"),
        ],
    )
    def test_privacy_parameters_validated(self, mode, eps, delta, match):
        with pytest.raises(ValueError, match=match):
            dp.NoisePolicy(mode=mode, epsilon=eps, delta=delta, sensitivity=1.0)

    def test_round_sigma_none(self):
        assert dp.round_sigma(dp.NoisePolicy.none(), 10) == 0.0

    def test_round_sigma_fixed_scale_uses_full_budget(self):
        # kappa=0.1 at (eps, delta) = (0.2, 0.05): 0.1*sqrt(2 ln 25)/0.2
        policy = dp.NoisePolicy.fixed(0.2, 0.05, scale=0.1)
        got = dp.round_sigma(policy, 50)
        assert got == pytest.approx(1.2686362411795196, abs=1e-12)
        # unchanged by the round count
        assert dp.round_sigma(policy, 1) == got

    def test_round_sigma_calibrated_splits_budget(self):
        got = dp.round_sigma(dp.NoisePolicy.calibrated(1.0, 2.0, 0.1), 10)
        want = gaussian_sigma_ref(1.0, 0.2, 0.01)
        assert got == pytest.approx(want, abs=1e-14)
        # no round is run, so nothing is drawn and nothing divides by zero
        for policy in (dp.NoisePolicy.calibrated(1.0, 2.0, 0.1),
                       dp.NoisePolicy.fixed(2.0, 0.1)):
            assert dp.round_sigma(policy, 0) == 0.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            dp.NoisePolicy(mode="bogus")
        # an infinite sensitivity or scale would calibrate infinite noise
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite sensitivity"):
                dp.NoisePolicy.calibrated(bad, 1.0, 0.1)
            with pytest.raises(ValueError, match="positive finite scale"):
                dp.NoisePolicy.fixed(1.0, 0.1, scale=bad)


class TestAddNoise:
    def test_zero_sigma_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        out = dp.add_gaussian_noise(m, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, m)
        assert out is not m

    def test_noise_sd_close(self):
        rng = np.random.default_rng(1)
        noise = dp.add_gaussian_noise(
            np.zeros((500, 400)), 2.0, rng.standard_normal((500, 400))
        )
        assert np.std(noise) == pytest.approx(2.0, rel=0.02)

    def test_mean_preserved(self):
        rng = np.random.default_rng(2)
        m = 5.0 * np.ones((400, 400))
        out = dp.add_gaussian_noise(m, 0.5, rng.standard_normal(m.shape))
        assert np.mean(out) == pytest.approx(5.0, abs=0.01)

    def test_bytes_of_the_scaled_draw_added_in_place(self):
        # m + sigma z, bitwise the in-place scale-then-add over the draw
        rng = np.random.default_rng(3)
        m, z = rng.standard_normal((2, 20, 20))
        want = z.copy()
        want *= 0.7
        want += m
        out = dp.add_gaussian_noise(m, 0.7, z)
        assert out.tobytes() == want.tobytes()
        assert out is not z and out is not m

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            dp.add_gaussian_noise(np.zeros((2, 2)), -0.1, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2), ()])
    def test_block_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"noise shape .*, expected \(2, 2\)"):
            dp.add_gaussian_noise(np.zeros((2, 2)), 0.5, np.zeros(shape))
