"""Differential privacy helpers: Gaussian-mechanism calibration, per-round
budget splitting by basic composition, and the noise policies used by the
federated gradient rounds.  A budget is spent over the rounds a run makes,
so the split reads the rounds from the run, not from the budget.

Noise is always applied to the full gradient matrix.  Which variables are
sensitive is not carried here: a panel's ``PanelSpec.sensitive`` lists
them, and run manifests record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOISE_MODES = ("none", "fixed_scale", "calibrated")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total (epsilon, delta) budget of one run, whatever its rounds."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NoisePolicy:
    """How per-round gradient noise is scaled.

    none        : no noise, budget ignored
    fixed_scale : sigma = scale * sqrt(2 log(1.25/delta)) / epsilon with the
                  full budget, the same in every round
    calibrated  : Gaussian mechanism at the stated sensitivity under the
                  per-round budget (epsilon/R, delta/R) of a run of R
                  rounds
    """

    mode: str
    sensitivity: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if self.mode == "calibrated" and self.sensitivity <= 0:
            raise ValueError("calibrated mode needs a positive sensitivity")
        if self.mode == "fixed_scale" and self.scale <= 0:
            raise ValueError("fixed_scale mode needs a positive scale")

    @classmethod
    def none(cls):
        return cls(mode="none")

    @classmethod
    def fixed(cls, scale=1.0):
        return cls(mode="fixed_scale", scale=scale)

    @classmethod
    def calibrated(cls, sensitivity):
        return cls(mode="calibrated", sensitivity=sensitivity)


def gaussian_sigma(sensitivity, epsilon, delta):
    """Gaussian-mechanism noise scale sensitivity*sqrt(2 log(1.25/delta))/eps."""
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def split_budget(budget, rounds):
    """Per-round (epsilon, delta) of ``rounds`` >= 1 rounds under basic
    composition."""
    return budget.epsilon / rounds, budget.delta / rounds


def round_sigma(policy, budget, rounds):
    """Noise scale of each of the ``rounds`` gradient rounds of a run under
    the given policy.  A run of no rounds draws no noise, so its sigma is
    0 in every mode."""
    if policy.mode == "none":
        return 0.0
    if budget is None:
        raise ValueError(f"mode {policy.mode!r} requires a privacy budget")
    if rounds == 0:
        return 0.0
    if policy.mode == "fixed_scale":
        return policy.scale * gaussian_sigma(1.0, budget.epsilon, budget.delta)
    eps_round, delta_round = split_budget(budget, rounds)
    return gaussian_sigma(policy.sensitivity, eps_round, delta_round)


def add_gaussian_noise(m, sigma, rng):
    """Add i.i.d. N(0, sigma^2) noise entrywise; sigma 0 is the identity."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    if sigma == 0.0:
        return m.copy()
    return m + sigma * rng.standard_normal(m.shape)
