"""Differential privacy helpers: Gaussian-mechanism calibration and the
noise policies of the federated gradient rounds.  A policy holds the
(epsilon, delta) of a whole run; a calibrated one spends it over the
rounds the run makes, which ``round_sigma`` reads from the run.

``add_gaussian_noise`` scales a standard-normal draw that the caller
makes, so a caller may draw the noise of several messages in one call.
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
class NoisePolicy:
    """How per-round gradient noise is scaled, at the (epsilon, delta) of
    the whole run.

    none        : no noise; takes no epsilon or delta
    fixed_scale : sigma = scale * sqrt(2 log(1.25/delta)) / epsilon in
                  every round; (epsilon, delta) only set this scale, and
                  with no sensitivity the mode gives no privacy guarantee
    calibrated  : Gaussian mechanism at the stated sensitivity under the
                  per-round budget (epsilon/R, delta/R) of a run of R
                  rounds

    A noisy mode needs epsilon in (0, inf) and delta in (0, 1), or it
    raises ValueError when built.
    """

    mode: str
    epsilon: float | None = None
    delta: float | None = None
    sensitivity: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}")
        if self.mode == "none":
            if (self.epsilon, self.delta) != (None, None):
                raise ValueError("mode 'none' takes no epsilon or delta")
            return
        if None in (self.epsilon, self.delta):
            raise ValueError(f"mode {self.mode!r} needs an epsilon and a delta")
        # NaN fails every comparison, so each check is stated as what holds
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        name = "sensitivity" if self.mode == "calibrated" else "scale"
        value = getattr(self, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{self.mode} mode needs a positive finite {name}, got {value}")

    @classmethod
    def none(cls):
        return cls(mode="none")

    @classmethod
    def fixed(cls, epsilon, delta, scale=1.0):
        return cls(mode="fixed_scale", epsilon=epsilon, delta=delta, scale=scale)

    @classmethod
    def calibrated(cls, sensitivity, epsilon, delta):
        return cls(mode="calibrated", epsilon=epsilon, delta=delta, sensitivity=sensitivity)


def gaussian_sigma(sensitivity, epsilon, delta):
    """Gaussian-mechanism noise scale sensitivity*sqrt(2 log(1.25/delta))/eps.
    It is proved (epsilon, delta)-private only for epsilon < 1 (Dwork & Roth
    2014, Thm A.1); a calibrated run of few rounds can ask for more (one
    round at epsilon 2), where the sigma is this value with no proof."""
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def round_sigma(policy, rounds):
    """Noise scale of each of the R = ``rounds`` gradient rounds of a run:
    calibrated at (epsilon/R, delta/R) per round by basic composition;
    fixed_scale the same for any R, with no guarantee.  A run of no rounds
    draws no noise, so its sigma is 0 in every mode."""
    if policy.mode == "none" or rounds == 0:
        return 0.0
    if policy.mode == "fixed_scale":
        return policy.scale * gaussian_sigma(1.0, policy.epsilon, policy.delta)
    return gaussian_sigma(policy.sensitivity, policy.epsilon / rounds, policy.delta / rounds)


def add_gaussian_noise(m, sigma, z):
    """m + sigma * z, the Gaussian mechanism given z, a draw of i.i.d.
    N(0, 1) entries of m's shape; sigma 0 returns a copy of m and does
    not read z.  A z of another shape raises ValueError."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    if sigma == 0.0:
        return m.copy()
    z = np.asarray(z, dtype=np.float64)
    if z.shape != m.shape:
        raise ValueError(f"noise shape {z.shape}, expected {m.shape}")
    # IEEE * and + commute, so the bytes are those of m + sigma * z
    out = sigma * z
    out += m
    return out
