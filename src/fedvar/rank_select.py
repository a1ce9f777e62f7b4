"""Rank selection for the shared component.

Each client picks the rank minimizing the ridge-stabilized ratio of
successive singular values of its local shared-part estimate; the global
rank is the mode of the client picks.  A client's search range
[1, r_bar - 1], r_bar = max(2, min(d, pd, 10)), and its ridge constant
c = _RIDGE_COEFF * sqrt(pd / T_k) are read from the shape of its (d, pd)
estimate and its sample size T_k.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .matops import check_matrix

# the coefficient of the ridge constant c = _RIDGE_COEFF * sqrt(pd / T_k)
_RIDGE_COEFF = 1e-2


def ridge_ratio_rank(singular_values, c, r_bar):
    """argmin over r in [1, r_bar - 1] of (sv[r+1] + c) / (sv[r] + c).

    The singular values must be nonincreasing; shorter spectra are
    zero-padded to r_bar and values below 1e-12 are floored to zero.
    Ties resolve to the smallest rank (first minimizer).
    """
    sv = np.asarray(singular_values, dtype=np.float64).ravel()
    if c <= 0:
        raise ValueError("ridge constant c must be positive")
    if r_bar < 2:
        raise ValueError("r_bar must be >= 2")
    if sv.size and np.any(np.diff(sv) > 1e-9):
        raise ValueError("singular values must be nonincreasing")
    if sv.size and sv[-1] < -1e-12:
        raise ValueError("singular values must be nonnegative")
    sv = np.where(sv < 1e-12, 0.0, sv)
    if sv.size < r_bar:
        sv = np.concatenate([sv, np.zeros(r_bar - sv.size)])
    ratios = (sv[1:r_bar] + c) / (sv[: r_bar - 1] + c)
    return int(np.argmin(ratios)) + 1


def client_rank(a0_fit, t_len):
    """Candidate rank from one client's (d, pd) shared-part estimate and
    its sample size: the ridge-ratio argmin over [1, r_bar - 1] with
    r_bar = max(2, min(d, pd, 10)) and c = _RIDGE_COEFF * sqrt(pd / t_len)."""
    a0_fit = check_matrix(a0_fit, "a0_fit")
    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    d, pd = a0_fit.shape
    c = _RIDGE_COEFF * math.sqrt(pd / t_len)
    sv = np.linalg.svd(a0_fit, compute_uv=False)
    return ridge_ratio_rank(sv, c, max(2, min(d, pd, 10)))


def select_rank(a0_fits, t_lens):
    """Mode of the per-client candidate ranks; ties resolve to the
    smallest rank.  Returns (global_rank, per_client_ranks)."""
    if len(a0_fits) != len(t_lens) or not a0_fits:
        raise ValueError("need one sample size per fit, at least one client")
    picks = [client_rank(fit, t) for fit, t in zip(a0_fits, t_lens)]
    counts = Counter(picks)
    top = max(counts.values())
    global_rank = min(r for r, n in counts.items() if n == top)
    return global_rank, picks
