"""Evaluation metrics: one-step forecast error over a run of forecast
origins, and 5-95 percentile band summaries.

``rmsfe`` scores forecasts already made: row h of ``predicted`` is the
forecast of row h of ``actual``.  The harness makes them from one lag
design per client: the forecast for origin t uses coefficients fitted on
rows [:t] of that design and is scored on row t, so no fit sees the row
it forecasts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def rmsfe(actual, predicted, aggregate="mean"):
    """Root mean squared one-step forecast error per variable and across
    variables.

    ``actual`` and ``predicted`` are (n_origins, d) arrays whose row h
    holds the observation at the h-th forecast origin and its forecast.
    In the empirical comparison, for client k at origin t, the actual row
    is y[t] of k's lag design and the forecast is entry (k, t), fitted on
    rows [:t] of that design, times x[t].  The aggregate is
    either the mean of the per-variable values ("mean") or the square
    root of the pooled mean squared error ("pooled").

    Returns (per_variable, aggregate): a length-d array and a float.
    """
    if aggregate not in ("mean", "pooled"):
        raise ValueError("aggregate must be 'mean' or 'pooled'")
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.ndim != 2 or actual.shape != predicted.shape:
        raise ValueError(
            f"actual {actual.shape} and predicted {predicted.shape} must be "
            "equal (n_origins, d) shapes"
        )
    if actual.size == 0:
        raise ValueError("need at least one origin and one variable")
    sq = (actual - predicted) ** 2
    per_var = np.sqrt(sq.mean(axis=0))
    if aggregate == "mean":
        return per_var, float(per_var.mean())
    return per_var, float(np.sqrt(sq.mean()))


class Band(NamedTuple):
    lo: float
    hi: float
    mean: float


def percentile_band(values):
    """The 5th and 95th percentiles (linear interpolation) plus the mean."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    q_lo, q_hi = np.percentile(values, [5.0, 95.0])
    return Band(lo=float(q_lo), hi=float(q_hi), mean=float(values.mean()))
