import numpy as np
import pytest

from fedvar import var
from fedvar.metrics import Band, percentile_band, rmsfe


class TestPercentileBand:
    def test_linear_interpolation_frozen(self):
        band = percentile_band(np.arange(1.0, 101.0))
        assert band == Band(
            lo=pytest.approx(5.95), hi=pytest.approx(95.05), mean=pytest.approx(50.5)
        )

    def test_constant_vector(self):
        band = percentile_band([2.0, 2.0, 2.0])
        assert band == Band(2.0, 2.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile_band([])
        with pytest.raises(ValueError):
            percentile_band([1.0], lo=60.0, hi=40.0)


class TestRmsfe:
    def test_zero_forecaster_hand_values(self):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 2)),
            observations=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        )
        zero = lambda prefix: np.zeros(2)
        records, agg = rmsfe(zero, panel, n_origins=2)
        assert [r.variable for r in records] == [0, 1]
        assert records[0].rmsfe == pytest.approx(np.sqrt((9 + 25) / 2))
        assert records[1].rmsfe == pytest.approx(np.sqrt((16 + 36) / 2))
        assert agg.variable is None
        assert agg.rmsfe == pytest.approx(
            (np.sqrt(17.0) + np.sqrt(26.0)) / 2
        )
        _, pooled = rmsfe(zero, panel, n_origins=2, aggregate="pooled")
        assert pooled.rmsfe == pytest.approx(np.sqrt(86.0 / 4.0))

    def test_perfect_forecaster_scores_zero(self):
        # deterministic decay y_t = 0.9 y_{t-1} known to the forecaster
        obs = np.array([[0.9**t, 2 * 0.9**t] for t in range(1, 11)])
        panel = var.TimeSeriesPanel(
            presample=np.array([[1.0, 2.0]]), observations=obs
        )
        forecaster = lambda prefix: 0.9 * np.vstack(
            [prefix.presample, prefix.observations]
        )[-1]
        records, agg = rmsfe(forecaster, panel, n_origins=5)
        assert agg.rmsfe == pytest.approx(0.0, abs=1e-12)

    def test_forecaster_sees_expanding_prefixes(self):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 1)), observations=np.arange(8.0).reshape(8, 1)
        )
        seen = []

        def forecaster(prefix):
            seen.append(prefix.t_len)
            return np.zeros(1)

        rmsfe(forecaster, panel, n_origins=3)
        assert seen == [5, 6, 7]

    def test_validation(self):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 1)), observations=np.ones((5, 1))
        )
        with pytest.raises(ValueError):
            rmsfe(lambda p: np.zeros(1), panel, n_origins=5)
        with pytest.raises(ValueError):
            rmsfe(lambda p: np.zeros(2), panel, n_origins=2)
        with pytest.raises(ValueError):
            rmsfe(lambda p: np.zeros(1), panel, n_origins=2, aggregate="median")
