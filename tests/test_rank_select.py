import numpy as np
import pytest

from fedvar import rank_select, single_client, var
from fedvar.rank_select import (
    RankConfig,
    client_rank,
    default_r_bar,
    ridge_ratio_rank,
    select_rank,
)


class TestRidgeRatio:
    def test_frozen_example(self):
        # sv (5, 3, 0.01, 0.005), c = 0.01: ratios are
        # 3.01/5.01, 0.02/3.01, 0.015/0.02 -> minimum at r = 2
        sv = (5.0, 3.0, 0.01, 0.005)
        ratios = [3.01 / 5.01, 0.02 / 3.01, 0.015 / 0.02]
        assert ratios[0] == pytest.approx(0.6007984031936128)
        assert ratios[1] == pytest.approx(0.006644518272425249)
        assert ratios[2] == pytest.approx(0.75)
        assert ridge_ratio_rank(sv, 0.01, 4) == 2

    def test_zero_padding_detects_full_drop(self):
        assert ridge_ratio_rank((5.0,), 0.01, 3) == 1

    def test_tiny_values_floored(self):
        got = ridge_ratio_rank((5.0, 3.0, 1e-15, 1e-16), 0.01, 4)
        assert got == ridge_ratio_rank((5.0, 3.0, 0.0, 0.0), 0.01, 4) == 2

    def test_flat_spectrum_ties_to_smallest(self):
        # all ratios equal 0.5 as c -> 0
        assert ridge_ratio_rank((4.0, 2.0, 1.0, 0.5), 1e-12, 4) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            ridge_ratio_rank((1.0, 2.0), 0.01, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            ridge_ratio_rank((1.0, -0.5), 0.01, 3)
        with pytest.raises(ValueError):
            ridge_ratio_rank((1.0, 0.5), 0.0, 3)
        with pytest.raises(ValueError):
            ridge_ratio_rank((1.0, 0.5), 0.01, 1)

    def test_exact_low_rank_plus_noise(self):
        rng = np.random.default_rng(0)
        a0 = var.gen_low_rank(8, 1, 2, rng)
        noisy = a0 + 1e-6 * rng.standard_normal(a0.shape)
        sv = np.linalg.svd(noisy, compute_uv=False)
        c = 1e-2 * np.sqrt(8 / 400)
        assert ridge_ratio_rank(sv, c, default_r_bar(8, 8)) == 2


class TestSelectRank:
    def _fit_with_rank(self, r, d=6):
        vals = np.zeros(d)
        vals[:r] = np.linspace(5.0, 3.0, r)
        return np.diag(vals)

    def test_mode(self):
        fits = [self._fit_with_rank(r) for r in (2, 2, 3)]
        cfg = RankConfig(r_bar=5)
        global_rank, picks = select_rank(fits, [400, 400, 400], cfg)
        assert picks == [2, 2, 3]
        assert global_rank == 2

    def test_tie_resolves_to_smaller(self):
        fits = [self._fit_with_rank(r) for r in (1, 1, 2, 2)]
        cfg = RankConfig(r_bar=5)
        global_rank, _ = select_rank(fits, [400] * 4, cfg)
        assert global_rank == 1

    def test_penalty_uses_client_sample_size(self):
        # same fit, different T: the ridge constant changes but the pick
        # stays stable for a clean spectrum
        fit = self._fit_with_rank(2)
        cfg = RankConfig(r_bar=5)
        assert client_rank(fit, 100, cfg) == client_rank(fit, 1600, cfg) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_rank([np.eye(3)], [100, 200], RankConfig(r_bar=3))
        with pytest.raises(ValueError):
            select_rank([], [], RankConfig(r_bar=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RankConfig(r_bar=1)
        with pytest.raises(ValueError):
            RankConfig(r_bar=4, penalty_coeff=0.0)

    def test_default_r_bar(self):
        assert default_r_bar(20, 20) == 10
        assert default_r_bar(5, 10) == 5
        assert default_r_bar(1, 1) == 2


class TestPipelineSmoke:
    def test_recovers_rank_on_simulated_world(self):
        # d=20, T=1600, lam_scale 1.4: the ratio criterion finds the
        # spectral cliff even when the raw fit keeps a small-sv tail
        rng = np.random.default_rng(np.random.SeedSequence(20240516, spawn_key=(0,)))
        a0, deltas = var.assemble_dgp(20, 1, 2, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], 1, 1600, rng, burn_in=200)
        design = var.lag_design(panel)
        cfg = single_client.default_admm_config(design, lam_scale=1.4, omega_scale=1.0)
        (decomp,), _ = single_client.fit_admm([design], [cfg])
        rank_cfg = RankConfig(r_bar=default_r_bar(20, 20))
        global_rank, per_client = select_rank([decomp.a0], [1600], rank_cfg)
        assert global_rank == 2
        assert per_client == [2]
