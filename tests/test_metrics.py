import numpy as np
import pytest

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


class TestRmsfe:
    def test_zero_forecaster_hand_values(self):
        actual = np.array([[3.0, 4.0], [5.0, 6.0]])
        per_var, agg = rmsfe(actual, np.zeros((2, 2)))
        np.testing.assert_allclose(per_var, [np.sqrt(17.0), np.sqrt(26.0)])
        assert agg == pytest.approx((np.sqrt(17.0) + np.sqrt(26.0)) / 2)
        _, pooled = rmsfe(actual, np.zeros((2, 2)), aggregate="pooled")
        assert pooled == pytest.approx(np.sqrt(86.0 / 4.0))

    def test_errors_are_actual_minus_predicted_per_row(self):
        actual = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        predicted = np.array([[0.0, 3.0], [0.0, 0.0], [2.0, 0.0]])
        per_var, agg = rmsfe(actual, predicted)
        # errors (1, -3), (2, 0), (-2, 0): squares 1+4+4 and 9 over 3 rows
        np.testing.assert_allclose(per_var, [np.sqrt(3.0), np.sqrt(3.0)])
        assert agg == pytest.approx(np.sqrt(3.0))
        _, pooled = rmsfe(actual, predicted, aggregate="pooled")
        assert pooled == pytest.approx(np.sqrt(18.0 / 6.0))

    def test_perfect_forecaster_scores_zero(self):
        actual = np.arange(10.0).reshape(5, 2)
        per_var, agg = rmsfe(actual, actual.copy())
        np.testing.assert_array_equal(per_var, [0.0, 0.0])
        assert agg == 0.0

    def test_validation(self):
        ones = np.ones((3, 2))
        with pytest.raises(ValueError, match="equal"):
            rmsfe(ones, np.ones((3, 1)))
        with pytest.raises(ValueError, match="equal"):
            rmsfe(ones, np.ones((2, 2)))
        with pytest.raises(ValueError, match="equal"):
            rmsfe(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="at least one"):
            rmsfe(np.ones((0, 2)), np.ones((0, 2)))
        with pytest.raises(ValueError, match="aggregate"):
            rmsfe(ones, ones, aggregate="median")
