"""Single-client estimation of the low-rank + sparse coefficient pair by
ADMM, plus the reference baselines used for comparisons: least squares
(``fit_baseline``) and l1 only (``refine_fista`` with no shared part, on
``l1_only_config``).  The nuclear-norm-only fit is ADMM on
``nuclear_only_config``.

Internally the solver works with (pd, d) coefficient blocks B = B0 + D so
the ridge system factors once per fit; results are transposed back to the
package-wide (d, pd) orientation on output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs

from .fed_core import FistaConfig
from .matops import check_matrix, linf_project, soft_threshold, svt
from .var import CoefDecomposition, LagDesign

# fit_admm's over-relaxation factor alpha, from a sweep over 1.5-1.8 (records
# in BENCH_relax.json).  Up to 1.7, a larger alpha needs fewer iterations
# (on two benchmark workloads, 33% fewer than alpha = 1 at 1.5 and 39% at
# 1.7), but stopped at the same tolerance it lands further from the solution:
# seed-11 d=20 replication output moved from its alpha = 1 values by up to
# 8.7e-5 relative at 1.5, 9.7e-5 at 1.6 and 1.3e-4 at 1.7.
_ADMM_RELAX = 1.5

# fit_admm's penalty parameter rho; AdmmState.final's dual is scaled by 1/rho
_ADMM_RHO = 1.0


@dataclass
class AdmmConfig:
    """Penalties and solver controls for one ADMM fit.

    zeta None disables the sup-norm clip on the low-rank part.  pin_a0
    forces B0 = 0 (pure l1 problem); pin_delta forces D = 0 (pure
    nuclear-norm problem).  Tolerances default to 1e-6 * sqrt(pd * d),
    scaling the Frobenius residual with the problem size.  The penalty
    parameter rho is the module constant _ADMM_RHO.
    """

    lam: float
    omega: float
    zeta: float | None = None
    eps_pri: float | None = None
    eps_dual: float | None = None
    max_iter: int = 2000
    pin_a0: bool = False
    pin_delta: bool = False

    def __post_init__(self):
        if self.lam < 0 or self.omega < 0:
            raise ValueError("penalties must be nonnegative")
        if self.zeta is not None and self.zeta <= 0:
            raise ValueError("zeta must be positive (or None to disable)")
        for name in ("eps_pri", "eps_dual"):
            if getattr(self, name) is not None and not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative (or None for the default)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.pin_a0 and self.pin_delta:
            raise ValueError("cannot pin both components")


@dataclass
class AdmmState:
    """Solver diagnostics for one fit.

    final is the last (B0, D, U) in the solver's (pd, d) orientation, U
    being the dual scaled by 1/_ADMM_RHO; pass it as fit_admm's start to
    warm start a fit of a nearby problem.
    """

    iterations: int
    converged: bool
    final: tuple = ()
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)


def default_admm_config(design, lam_scale=1.0, omega_scale=1.0, **kwargs):
    """Penalties on the sqrt(pd/T) and sqrt(log(pd)/T) rate scales."""
    t_len, pd = design.t_len, design.pd
    lam = lam_scale * math.sqrt(pd / t_len)
    omega = omega_scale * math.sqrt(math.log(pd) / t_len)
    return AdmmConfig(lam=lam, omega=omega, **kwargs)


def nuclear_only_config(cfg):
    """cfg with the sparse part pinned to zero: the nuclear-only problem."""
    return replace(cfg, omega=0.0, pin_delta=True)


def fit_admm(design, cfg, start=None):
    """Solve the nuclear + l1 penalized regression by scaled-dual ADMM.

    Updates per iteration, all in the (pd, d) orientation, over-relaxed
    (Eckstein & Bertsekas, Math. Programming 1992; Boyd et al., Found.
    Trends ML 2011, sec. 3.4.3) by alpha = _ADMM_RELAX, with the penalty
    parameter rho = _ADMM_RHO:
      B   <- (2 sxx + rho I)^{-1} (2 sxy + rho (B0 + D - U))
      Bh  <- alpha B + (1 - alpha) (B0 + D)
      B0  <- clip_zeta( svt_{lam/rho}(Bh - D + U) )
      D   <- soft_{omega/rho}(Bh - B0 + U)
      U   <- U + Bh - B0 - D
    with primal residual R = B - B0 - D on the un-relaxed B and dual
    residual S = rho ((B0 + D) - (B0_prev + D_prev)).  Relaxation changes
    the path, not the fixed point: there B = B0 + D, so Bh = B.

    start None begins at B0 = D = U = 0; otherwise it is a (B0, D, U)
    triple of finite (pd, d) arrays, such as a previous fit's
    AdmmState.final (a warm start; it is the same triple under
    relaxation).  A pinned component starts at zero whatever start holds.

    Returns the decomposition (transposed back to (d, pd)) and an
    AdmmState with residual histories and the final triple.
    """
    if not isinstance(design, LagDesign):
        raise TypeError("design must be a LagDesign")
    d, pd = design.d, design.pd
    b0, d_mat, u = (np.zeros((pd, d)) for _ in range(3))
    if start is not None:
        if len(start) != 3:
            raise ValueError("start must be a (B0, D, U) triple")
        checked = []
        for m, name in zip(start, ("B0", "D", "U")):
            m = check_matrix(m, f"start {name}")
            if m.shape != (pd, d):
                raise ValueError(f"start {name} shape {m.shape}, expected ({pd}, {d})")
            checked.append(m)
        # a pinned component stays at zero
        b0 = b0 if cfg.pin_a0 else checked[0]
        d_mat = d_mat if cfg.pin_delta else checked[1]
        u = checked[2]

    tol = 1e-6 * math.sqrt(pd * d)
    eps_pri = cfg.eps_pri if cfg.eps_pri is not None else tol
    eps_dual = cfg.eps_dual if cfg.eps_dual is not None else tol

    h = 2.0 * design.sxx + _ADMM_RHO * np.eye(pd)
    try:
        factor, lower = cho_factor(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - h is pd + rho I
        raise RuntimeError(f"ridge system factorization failed: {exc}") from exc
    g = 2.0 * design.sxy
    state = AdmmState(iterations=0, converged=False)

    z = b0 + d_mat
    for it in range(1, cfg.max_iter + 1):
        # the LAPACK solve cho_solve makes, without its per-call finiteness
        # scan; the guard below catches non-finite iterates
        b, info = dpotrs(factor, g + _ADMM_RHO * (z - u), lower=lower)
        if info != 0:  # pragma: no cover - only for an invalid argument
            raise RuntimeError(f"ridge solve failed: LAPACK dpotrs info={info}")
        b_hat = _ADMM_RELAX * b + (1.0 - _ADMM_RELAX) * z
        z_prev = z
        if not cfg.pin_a0:
            b0 = svt(b_hat - d_mat + u, cfg.lam / _ADMM_RHO)
            if cfg.zeta is not None:
                b0 = linf_project(b0, cfg.zeta)
        if not cfg.pin_delta:
            d_mat = soft_threshold(b_hat - b0 + u, cfg.omega / _ADMM_RHO)
        z = b0 + d_mat
        r = b - z
        u = u + (b_hat - z)
        s = _ADMM_RHO * (z - z_prev)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(u))):
            raise RuntimeError(f"ADMM produced non-finite iterates at iteration {it}")
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        state.primal_residuals.append(r_norm)
        state.dual_residuals.append(s_norm)
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

    state.final = (b0, d_mat, u)
    return CoefDecomposition(a0=b0.T, delta=d_mat.T), state


def fit_baseline(design):
    """The least-squares reference fit, a stacked (d, pd) coefficient matrix:
    ridge-jittered normal equations sxx B = sxy (jitter 1e-8 tr(sxx)/pd
    keeps degenerate designs solvable; rank deficiency triggers a
    warning)."""
    gram, cross = design.sxx, design.sxy
    jitter = 1e-8 * np.trace(gram) / design.pd
    if np.linalg.matrix_rank(gram) < design.pd:
        # keep degenerate designs solvable with a small ridge
        warnings.warn("rank-deficient design in least_squares fit", RuntimeWarning)
        gram = gram + jitter * np.eye(design.pd)
    try:
        coef = cho_solve(cho_factor(gram), cross)
    except np.linalg.LinAlgError:
        warnings.warn("near-singular design in least_squares fit", RuntimeWarning)
        coef = cho_solve(cho_factor(gram + jitter * np.eye(design.pd)), cross)
    return coef.T


def l1_only_config(omega):
    """The l1-only baseline's refine_fista config, for a zero shared part:
    penalty omega at refine_fista's default step, capped at 500 iterations."""
    return FistaConfig(varpi=omega, iters=500)
