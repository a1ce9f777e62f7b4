"""Single-client estimation of the low-rank + sparse coefficient pair by
ADMM, plus the reference baselines (nuclear-norm only, l1 only, least
squares) used for comparisons.

Internally the solver works with (pd, d) coefficient blocks B = B0 + D so
the ridge system factors once per fit; results are transposed back to the
package-wide (d, pd) orientation on output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .matops import linf_project, norms, soft_threshold, svt
from .var import CoefDecomposition, LagDesign


@dataclass
class AdmmConfig:
    """Penalties and solver controls for one ADMM fit.

    zeta None disables the sup-norm clip on the low-rank part.  pin_a0
    forces B0 = 0 (pure l1 problem); pin_delta forces D = 0 (pure
    nuclear-norm problem).  Tolerances default to 1e-6 * sqrt(pd * d),
    scaling the Frobenius residual with the problem size.
    """

    lam: float
    omega: float
    zeta: float | None = None
    rho: float = 1.0
    eps_pri: float | None = None
    eps_dual: float | None = None
    max_iter: int = 2000
    pin_a0: bool = False
    pin_delta: bool = False
    track_objective: bool = False

    def __post_init__(self):
        if self.lam < 0 or self.omega < 0:
            raise ValueError("penalties must be nonnegative")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.zeta is not None and self.zeta <= 0:
            raise ValueError("zeta must be positive (or None to disable)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.pin_a0 and self.pin_delta:
            raise ValueError("cannot pin both components")


@dataclass
class AdmmState:
    """Solver diagnostics for one fit."""

    iterations: int
    converged: bool
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)
    objective_values: list = field(default_factory=list)


def default_admm_config(design, lam_scale=1.0, omega_scale=1.0, **kwargs):
    """Penalties on the sqrt(pd/T) and sqrt(log(pd)/T) rate scales."""
    t_len, pd = design.t_len, design.pd
    lam = lam_scale * math.sqrt(pd / t_len)
    omega = omega_scale * math.sqrt(math.log(pd) / t_len)
    return AdmmConfig(lam=lam, omega=omega, **kwargs)


def objective(design, a0, delta, lam, omega):
    """Penalized least-squares objective at a candidate (a0, delta)."""
    return design.loss(a0 + delta) + lam * norms(a0).nuclear + omega * norms(delta).l1


def fit_admm(design, cfg):
    """Solve the nuclear + l1 penalized regression by scaled-dual ADMM.

    Updates per iteration, all in the (pd, d) orientation:
      B   <- (2 sxx + rho I)^{-1} (2 sxy + rho (B0 + D - U))
      B0  <- clip_zeta( svt_{lam/rho}(B - D + U) )
      D   <- soft_{omega/rho}(B - B0 + U)
      U   <- U + B - B0 - D
    with primal residual R = B - B0 - D and dual residual
    S = rho ((B0 - B0_prev) + (D - D_prev)).

    Returns the decomposition (transposed back to (d, pd)) and an
    AdmmState with residual histories.
    """
    if not isinstance(design, LagDesign):
        raise TypeError("design must be a LagDesign")
    d, pd = design.d, design.pd

    tol = 1e-6 * math.sqrt(pd * d)
    eps_pri = cfg.eps_pri if cfg.eps_pri is not None else tol
    eps_dual = cfg.eps_dual if cfg.eps_dual is not None else tol

    h = 2.0 * design.sxx + cfg.rho * np.eye(pd)
    try:
        chol = cho_factor(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - h is pd + rho I
        raise RuntimeError(f"ridge system factorization failed: {exc}") from exc
    g = 2.0 * design.sxy

    b0 = np.zeros((pd, d))
    d_mat = np.zeros((pd, d))
    u = np.zeros((pd, d))
    state = AdmmState(iterations=0, converged=False)

    for it in range(1, cfg.max_iter + 1):
        b = cho_solve(chol, g + cfg.rho * (b0 + d_mat - u))
        b0_prev, d_prev = b0, d_mat
        if not cfg.pin_a0:
            b0 = svt(b - d_mat + u, cfg.lam / cfg.rho)
            if cfg.zeta is not None:
                b0 = linf_project(b0, cfg.zeta)
        if not cfg.pin_delta:
            d_mat = soft_threshold(b - b0 + u, cfg.omega / cfg.rho)
        r = b - b0 - d_mat
        u = u + r
        s = cfg.rho * ((b0 - b0_prev) + (d_mat - d_prev))
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(u))):
            raise RuntimeError(f"ADMM produced non-finite iterates at iteration {it}")
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        state.primal_residuals.append(r_norm)
        state.dual_residuals.append(s_norm)
        if cfg.track_objective:
            state.objective_values.append(
                objective(design, b0.T, d_mat.T, cfg.lam, cfg.omega)
            )
        state.iterations = it
        if r_norm <= eps_pri and s_norm <= eps_dual:
            state.converged = True
            break

    if not state.converged:
        warnings.warn(
            f"ADMM stopped at max_iter={cfg.max_iter} with residuals "
            f"(primal {state.primal_residuals[-1]:.2e}, "
            f"dual {state.dual_residuals[-1]:.2e})",
            RuntimeWarning,
        )

    a0_hat = b0.T
    sv = np.linalg.svd(a0_hat, compute_uv=False) if a0_hat.any() else np.zeros(1)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    decomp = CoefDecomposition(a0=a0_hat, delta=d_mat.T, rank=rank)
    return decomp, state


BASELINE_KINDS = ("nuclear_only", "l1_only", "least_squares")


def fit_baseline(design, kind, tuning=None):
    """Reference fits returning a stacked (d, pd) coefficient matrix.

    nuclear_only  : ADMM with the sparse part pinned to zero
    l1_only       : accelerated proximal gradient with no shared part
    least_squares : ridge-jittered normal equations sxx B = sxy (jitter
                    1e-8 tr(sxx)/pd keeps degenerate designs solvable;
                    rank deficiency triggers a warning)
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}")
    tuning = dict(tuning or {})

    if kind == "least_squares":
        if tuning:
            raise ValueError(f"least_squares takes no tuning, got {sorted(tuning)}")
        gram, cross = design.sxx, design.sxy
        jitter = 1e-8 * np.trace(gram) / design.pd
        if np.linalg.matrix_rank(gram) < design.pd:
            # keep degenerate designs solvable with a small ridge
            warnings.warn(
                "rank-deficient design in least_squares fit", RuntimeWarning
            )
            gram = gram + jitter * np.eye(design.pd)
        try:
            coef = cho_solve(cho_factor(gram), cross)
        except np.linalg.LinAlgError:
            warnings.warn(
                "near-singular design in least_squares fit", RuntimeWarning
            )
            coef = cho_solve(
                cho_factor(gram + jitter * np.eye(design.pd)), cross
            )
        return coef.T

    if kind == "nuclear_only":
        allowed = {"lam", "zeta", "rho", "max_iter"}
        unknown = set(tuning) - allowed
        if unknown:
            raise ValueError(f"unknown tuning keys {sorted(unknown)}")
        base = default_admm_config(design)
        cfg = AdmmConfig(
            lam=tuning.get("lam", base.lam),
            omega=0.0,
            zeta=tuning.get("zeta"),
            rho=tuning.get("rho", 1.0),
            max_iter=tuning.get("max_iter", 2000),
            pin_delta=True,
        )
        decomp, _ = fit_admm(design, cfg)
        return decomp.a0

    # l1_only
    allowed = {"omega", "iters", "step_eta"}
    unknown = set(tuning) - allowed
    if unknown:
        raise ValueError(f"unknown tuning keys {sorted(unknown)}")
    from .fed_core import FistaConfig, default_eta, refine_fista

    base = default_admm_config(design)
    cfg = FistaConfig(
        varpi=tuning.get("omega", base.omega),
        step_eta=tuning.get("step_eta", default_eta(design)),
        iters=tuning.get("iters", 500),
    )
    delta, _ = refine_fista(design, np.zeros((design.d, design.pd)), cfg)
    return delta
