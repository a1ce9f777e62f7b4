"""Evaluation metrics: rolling out-of-sample forecast error and
percentile band summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class RmsfeRecord:
    """Root mean squared one-step forecast error; variable None is the
    cross-variable aggregate."""

    variable: int | None
    rmsfe: float
    n_origins: int


def rmsfe(forecaster, panel, n_origins=20, aggregate="mean"):
    """Expanding-window forecast evaluation over the last origins.

    ``forecaster`` maps a panel prefix to a length-d prediction of the
    next observation; it is refit at every origin.  Origins are visited
    in increasing order, one call each, so a forecaster may carry state
    from one origin to the next.  Per-variable records
    come first; the aggregate is either the mean of per-variable values
    ("mean") or the square root of the pooled mean squared error
    ("pooled").

    Returns (per_variable_records, aggregate_record).
    """
    if aggregate not in ("mean", "pooled"):
        raise ValueError("aggregate must be 'mean' or 'pooled'")
    t_len, d = panel.t_len, panel.d
    if not 1 <= n_origins <= t_len - 1:
        raise ValueError(
            f"n_origins {n_origins} outside [1, {t_len - 1}] for this panel"
        )
    sq = np.zeros((n_origins, d))
    for h in range(n_origins):
        i = t_len - n_origins + h
        pred = np.asarray(forecaster(panel.prefix(i)), dtype=np.float64)
        if pred.shape != (d,):
            raise ValueError(f"forecaster returned shape {pred.shape}, want ({d},)")
        sq[h] = (panel.observations[i] - pred) ** 2
    per_var = np.sqrt(sq.mean(axis=0))
    records = [
        RmsfeRecord(variable=j, rmsfe=float(per_var[j]), n_origins=n_origins)
        for j in range(d)
    ]
    if aggregate == "mean":
        agg = float(per_var.mean())
    else:
        agg = float(np.sqrt(sq.mean()))
    return records, RmsfeRecord(variable=None, rmsfe=agg, n_origins=n_origins)


class Band(NamedTuple):
    lo: float
    hi: float
    mean: float


def percentile_band(values, lo=5.0, hi=95.0):
    """Percentile band (linear interpolation) plus the mean."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if not 0 <= lo <= hi <= 100:
        raise ValueError("need 0 <= lo <= hi <= 100")
    q_lo, q_hi = np.percentile(values, [lo, hi])
    return Band(lo=float(q_lo), hi=float(q_hi), mean=float(values.mean()))
