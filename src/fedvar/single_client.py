"""Single-client estimation of the low-rank + sparse coefficient pair by
ADMM, plus the least-squares reference fit ``fit_baseline``.  The
nuclear-norm-only fit is ADMM on ``nuclear_only_config``; the l1-only
baseline is ``fed_core.refine_fista`` around a zero shared part.

``fit_admm`` is one lockstep loop over any number of same-shape problems,
and one fit is the one-problem call: each problem keeps its own ridge
inverse, pin_delta and penalties, all share the module's stop rule, the
elementwise updates run once over the stack, and a problem's result is
bitwise that of its one-problem call.  The harness fits a replication's
single-client problems, the starts of its federations and every
(method, client, origin) fit of the empirical comparison as such stacks.

Internally the solver works with (pd, d) coefficient blocks B = B0 + D so
the ridge system is inverted once per fit; results are transposed back to
the package-wide (d, pd) orientation on output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .matops import _dots, linf_project, soft_threshold, svt
from .var import CoefDecomposition, LagDesign

# fit_admm's over-relaxation factor alpha, from a sweep over 1.5-1.8 (records
# in BENCH_relax.json).  Up to 1.7, a larger alpha needs fewer iterations
# (on two benchmark workloads, 33% fewer than alpha = 1 at 1.5 and 39% at
# 1.7), but stopped at the same tolerance it lands further from the solution:
# seed-11 d=20 replication output moved from its alpha = 1 values by up to
# 8.7e-5 relative at 1.5, 9.7e-5 at 1.6 and 1.3e-4 at 1.7.
_ADMM_RELAX = 1.5

# fit_admm's penalty parameter rho; AdmmState.final's dual is scaled by 1/rho.
# It also bounds the rounding of the ridge solve.  fit_admm multiplies by the
# computed inverse X of A = 2 sxx + rho I, whose eigenvalues lie in
# [rho, rho + 2 ||sxx||_2], so ||A^-1||_2 <= 1/rho and
# kappa(A) <= 1 + 2 ||sxx||_2 / rho.  numpy inverts by LU with partial
# pivoting (dgesv on the identity), which solves for each column of X
# backward stably, so each column is within about pd u kappa(A) ||A^-1||_2
# of the exact one, u = 2^-53 (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 9 and 14).  The product X rhs adds at most
# pd u ||X||_2 ||rhs||.  So a solve is within about
# pd u kappa(A) ||A^-1||_2 ||rhs|| <= pd u kappa(A) ||rhs|| / rho of the
# exact solution x, which is pd u kappa(A) ||x|| when rhs is not weighted
# towards A's smallest eigenvalues, the order of a Cholesky solve's own
# forward error.  On the benchmark's designs kappa(A) lies between 8 and
# 330, so a solve's error stays well below svt's (matops._GRAM_RATIO).
_ADMM_RHO = 1.0

# fit_admm's stop rule: both residuals at most _ADMM_EPS * sqrt(pd * d),
# which scales the Frobenius residual with the problem size, or
# _ADMM_MAX_ITER iterations, whichever comes first
_ADMM_EPS = 1e-6
_ADMM_MAX_ITER = 2000


@dataclass
class AdmmConfig:
    """Penalties of one ADMM fit.

    zeta None disables the sup-norm clip on the low-rank part.  pin_delta
    forces D = 0 (pure nuclear-norm problem).  The solver controls are
    module constants: the penalty parameter rho is _ADMM_RHO, and a fit
    stops once both residuals are at most _ADMM_EPS * sqrt(pd * d) or
    after _ADMM_MAX_ITER iterations.
    """

    lam: float
    omega: float
    zeta: float | None = None
    pin_delta: bool = False

    def __post_init__(self):
        if self.lam < 0 or self.omega < 0:
            raise ValueError("penalties must be nonnegative")
        if self.zeta is not None and self.zeta <= 0:
            raise ValueError("zeta must be positive (or None to disable)")


@dataclass
class AdmmState:
    """Solver diagnostics for one problem of a fit_admm call.

    final is the last (B0, D, U) in the solver's (pd, d) orientation, U
    being the dual scaled by 1/_ADMM_RHO.
    """

    iterations: int
    converged: bool
    final: tuple = ()
    primal_residuals: list = field(default_factory=list)
    dual_residuals: list = field(default_factory=list)


@dataclass
class AdmmReport:
    """Diagnostics of one fit_admm call: members holds each problem's
    AdmmState in the order of the designs; iterations sums theirs, and
    converged holds when every problem converged."""

    members: list

    @property
    def iterations(self):
        return sum(s.iterations for s in self.members)

    @property
    def converged(self):
        return all(s.converged for s in self.members)


def default_admm_config(design, lam_scale=1.0, omega_scale=1.0, **kwargs):
    """Penalties on the sqrt(pd/T) and sqrt(log(pd)/T) rate scales."""
    t_len, pd = design.t_len, design.pd
    lam = lam_scale * math.sqrt(pd / t_len)
    omega = omega_scale * math.sqrt(math.log(pd) / t_len)
    return AdmmConfig(lam=lam, omega=omega, **kwargs)


def nuclear_only_config(cfg):
    """cfg with the sparse part pinned to zero: the nuclear-only problem."""
    return replace(cfg, omega=0.0, pin_delta=True)


def _check_designs(designs):
    """The (d, pd) shape of a nonempty list of same-shape LagDesigns."""
    if not designs:
        raise ValueError("need at least one client design")
    d, pd = designs[0].d, designs[0].pd
    for k, dsn in enumerate(designs):
        if not isinstance(dsn, LagDesign):
            raise TypeError("designs must be LagDesign instances")
        if (dsn.d, dsn.pd) != (d, pd):
            raise ValueError(
                f"client {k} has shape ({dsn.d}, {dsn.pd}), expected ({d}, {pd})"
            )
    return d, pd


def fit_admm(designs, cfgs):
    """Solve the nuclear + l1 penalized regression by scaled-dual ADMM for
    a stack of same-shape problems, problem j on designs[j] under cfgs[j].

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

    The problems run in one lockstep loop.  Each keeps its own inverse of
    the ridge system, taken once per fit by one batched ``np.linalg.inv``,
    so the ridge solve is one batched product per iteration, within the
    bound stated beside _ADMM_RHO of an exact solve.  Each keeps its own
    pin_delta, zeta and lam.  The singular value thresholding is one
    ``matops.svt`` call over the stack per iteration (the
    eigendecomposition of each problem's d x d Gram matrix, within svt's
    stated bound of the dgesdd threshold, and dgesdd itself for
    lam = 0), and the elementwise updates and the residual norms run
    once over the stack.  Every problem stops once both residuals are at
    most _ADMM_EPS * sqrt(pd * d), one tolerance for the stack since its
    problems share a shape, or after _ADMM_MAX_ITER iterations.  A
    problem that stops leaves the stack, so its iterates, residual
    histories and iteration count are bitwise those of its one-problem
    call (the inverse, each slice of the batched product and svt's
    result for a member do not depend on the stack).
    Each problem that stops at the cap warns once.

    Every problem starts at B0 = D = U = 0.

    Returns one decomposition per problem (transposed back to (d, pd)) and
    an AdmmReport holding each problem's AdmmState.
    """
    designs, cfgs = list(designs), list(cfgs)
    d, pd = _check_designs(designs)
    n = len(designs)
    if len(cfgs) != n:
        raise ValueError(f"{len(cfgs)} ADMM configs for {n} designs")

    b0, d_mat, u = np.zeros((3, n, pd, d))
    ridge = np.stack([2.0 * dsn.sxx for dsn in designs]) + _ADMM_RHO * np.eye(pd)
    try:
        ainv = np.linalg.inv(ridge)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pd + rho I
        raise RuntimeError(f"ridge system inversion failed: {exc}") from exc
    g = np.stack([2.0 * dsn.sxy for dsn in designs])

    tol, max_iter = _ADMM_EPS * math.sqrt(pd * d), _ADMM_MAX_ITER
    # per-problem constants; the arrays shrink with the stack, lam is read
    # by problem index
    lam = np.array([c.lam / _ADMM_RHO for c in cfgs])
    omega = np.array([c.omega / _ADMM_RHO for c in cfgs])[:, None, None]
    zeta = np.array([math.inf if c.zeta is None else c.zeta for c in cfgs])[:, None, None]
    pin_delta = np.array([c.pin_delta for c in cfgs])
    clip = any(c.zeta is not None for c in cfgs)

    # per-problem results, filled as problems leave the stack; the final
    # triple is C-ordered, as the one-problem iterates are
    finals = np.empty((3, n, pd, d))
    runs = np.zeros(n, dtype=np.intp)
    converged = np.zeros(n, dtype=bool)
    # (live, primal, dual) residual norms of each iteration run
    history = []

    live = np.arange(n)
    z = b0 + d_mat
    for it in range(1, max_iter + 1):
        b = ainv @ (g + _ADMM_RHO * (z - u))
        b_hat = _ADMM_RELAX * b + (1.0 - _ADMM_RELAX) * z
        z_prev = z
        b0 = svt(b_hat - d_mat + u, lam[live])
        if clip:
            b0 = linf_project(b0, zeta)
        d_mat = soft_threshold(b_hat - b0 + u, omega)
        d_mat[pin_delta] = 0.0
        z = b0 + d_mat
        r = b - z
        u = u + (b_hat - z)
        s = _ADMM_RHO * (z - z_prev)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(u))):
            raise RuntimeError(f"ADMM produced non-finite iterates at iteration {it}")
        # ||R||_F by the dot kernel np.linalg.norm uses, in the same order,
        # so a problem's residuals do not depend on the stack
        r_norm = np.sqrt(_dots(r, r))
        s_norm = np.sqrt(_dots(s, s))
        history.append((live, r_norm, s_norm))
        done = (r_norm <= tol) & (s_norm <= tol)
        stop = done | (it == max_iter)
        if stop.any():
            gone = live[stop]
            finals[:, gone] = (b0[stop], d_mat[stop], u[stop])
            runs[gone], converged[gone] = it, done[stop]
            if stop.all():
                break
            keep = ~stop
            live, omega, zeta, pin_delta, ainv, g, b0, d_mat, u, z = (
                a[keep]
                for a in (live, omega, zeta, pin_delta, ainv, g, b0, d_mat, u, z)
            )

    primal, dual = np.empty((2, len(history), n))
    for i, (rows, r_norm, s_norm) in enumerate(history):
        primal[i, rows], dual[i, rows] = r_norm, s_norm
    states = []
    for j in range(n):
        hist_r, hist_s = primal[: runs[j], j].tolist(), dual[: runs[j], j].tolist()
        if not converged[j]:
            warnings.warn(
                f"ADMM stopped at max_iter={max_iter} with residuals "
                f"(primal {hist_r[-1]:.2e}, dual {hist_s[-1]:.2e})",
                RuntimeWarning,
            )
        states.append(
            AdmmState(
                iterations=int(runs[j]),
                converged=bool(converged[j]),
                final=tuple(finals[:, j]),
                primal_residuals=hist_r,
                dual_residuals=hist_s,
            )
        )
    decomps = [CoefDecomposition(a0=s.final[0].T, delta=s.final[1].T) for s in states]
    return decomps, AdmmReport(members=states)


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
        # a Cholesky factor exists exactly when gram is numerically positive
        # definite; it is only the test, the solve below takes gram itself
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        warnings.warn("near-singular design in least_squares fit", RuntimeWarning)
        gram = gram + jitter * np.eye(design.pd)
    coef = np.linalg.solve(gram, cross)
    return coef.T

