"""Dense matrix primitives: truncated SVD, shrinkage operators, tangent-space
projection, the factored tangent step on the fixed-rank manifold, and the
handful of norms used throughout the package.

All routines work on float64 ndarrays and are deterministic: no randomized
algorithms, and the factors ``svd_truncate`` returns are sign-fixed so
repeated calls on equal input return bitwise-equal factors.  ``svt`` and
``tangent_step`` return points that do not depend on the signs, so they
skip the fix.

The kernels (``svd_truncate``, ``svt``, ``soft_threshold``,
``linf_project``, ``tangent_project``, ``tangent_step``) sit inside solver
loops and do not validate: they assume finite 2-D float64 arrays of
matching shapes and the parameter ranges stated in each docstring.  The
solvers' entry points and configs check those once.  Only what reaches
LAPACK's SVD and QR (and ``tangent_step``'s direction, from which its
LAPACK input is built) is checked for non-finite entries, because LAPACK
may not return on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr

# Dense SVD only; refuse anything bigger than this per side.
SVD_DIM_CAP = 1024


def check_matrix(m, name="matrix"):
    """Coerce to a 2-D float64 array and reject NaN/inf entries."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors, singular values in nonincreasing order.

    u : (m, k) orthonormal columns
    s : (k,) nonnegative, nonincreasing
    v : (n, k) orthonormal columns, so that u @ diag(s) @ v.T reconstructs.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def matrix(self):
        return (self.u * self.s) @ self.v.T


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal bases (u, v) of the row/column spaces of a rank-r point."""

    u: np.ndarray
    v: np.ndarray


def _fix_signs(u, v):
    # Sign convention: first nonzero entry of each left singular vector is
    # nonnegative.  Makes the factorization unique for distinct singular
    # values and repeat calls bitwise-identical.  Negation is exact, so
    # u * signs and v * signs change nothing but the signs.
    first = np.argmax(u != 0, axis=0)
    signs = np.where(u[first, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return u * signs, v * signs


def _require_finite(m, what):
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")


def _svd(m):
    if max(m.shape) > SVD_DIM_CAP:
        raise ValueError(
            f"matrix side {max(m.shape)} exceeds dense-SVD cap {SVD_DIM_CAP}"
        )
    # LAPACK's divide-and-conquer SVD can loop without end on inf entries.
    _require_finite(m, "SVD input")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed to converge: {exc}") from exc
    return u, s, vt.T


def svd_truncate(m, r):
    """Best rank-r approximation of ``m`` together with its thin factors.

    Parameters
    ----------
    m : (d1, d2) float64 array; non-finite entries raise ValueError
    r : int, 1 <= r <= min(d1, d2); not checked

    Returns
    -------
    approx : (d1, d2) array, rank <= r
    factors : SvdFactors with k = r columns
    """
    u, s, v = _svd(m)
    u, v = _fix_signs(u[:, :r], v[:, :r])
    factors = SvdFactors(u=u, s=s[:r], v=v)
    return factors.matrix(), factors


def svt(m, tau):
    """Singular value thresholding: shrink every singular value by tau.

    Assumes a 2-D float64 ``m`` and tau >= 0; neither is checked.
    Non-finite entries raise ValueError.
    """
    u, s, v = _svd(m)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ v.T


def soft_threshold(m, tau):
    """Entrywise soft threshold sign(x) * max(|x| - tau, 0).

    Assumes a finite float64 array ``m`` and tau >= 0; not checked.
    """
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def linf_project(m, zeta):
    """Clip entries into [-zeta, zeta] (projection onto the sup-norm ball).

    Assumes a finite float64 array ``m`` and zeta >= 0; not checked.
    """
    return np.clip(m, -zeta, zeta)


def tangent_project(b, basis):
    """Project ``b`` onto the tangent space of the fixed-rank manifold.

    At a rank-r point with column space span(u) and row space span(v), the
    tangent space holds matrices of the form u@u.T@b + b@v@v.T - u@u.T@b@v@v.T.
    The projection is linear, idempotent, and nonexpansive in Frobenius norm.
    Assumes a finite float64 ``b`` of shape (u.shape[0], v.shape[0]); not
    checked.
    """
    u, v = basis.u, basis.v
    ub = u @ (u.T @ b)
    bv = (b @ v) @ v.T
    return ub + bv - (u @ (u.T @ bv))


def _orthonormal_columns(a):
    """Q of the thin QR a = Q R: min(a.shape) orthonormal columns spanning
    a's column space, by LAPACK dgeqrf and dorgqr called directly (the
    numpy and scipy wrappers cost more than the arithmetic at these sizes).
    Assumes a finite float64 ``a``; not checked."""
    qr, tau, _, info = dgeqrf(a)
    if info == 0:
        q, _, info = dorgqr(qr[:, : tau.shape[0]], tau)
    if info != 0:  # pragma: no cover - only for an invalid argument
        raise RuntimeError(f"QR failed: LAPACK info={info}")
    return q


def tangent_step(factors, z, rho):
    """Rank-r truncation of ``X - rho * P_T(z)`` and its thin factors, where
    X = u diag(s) v' is the point ``factors`` describes and P_T the
    projection onto its tangent space (``tangent_project`` at (u, v)).

    The step never forms P_T(z) or a full SVD.  With m = u'zv and
    Vp = z'u - v m', the point X - rho P_T(z) equals
    [u diag(s) - rho zv, -rho u] [v, Vp]', a product of a d1 x 2r and a
    2r x d2 factor (Vandereycken, SIAM J. Optim. 2013).  One thin QR
    [v, Vp] = Q R and one thin SVD of the d1 x min(d2, 2r) core
    [u diag(s) - rho zv, -rho u] R' then give the truncation, so a step
    costs O((d1 + d2) r^2) after the two products with z.  No sign fix:
    the point does not depend on the signs of the factors.

    Parameters
    ----------
    factors : SvdFactors of the point, u (d1, r) and v (d2, r) with
        orthonormal columns; not checked
    z : (d1, d2) float64 array, the step direction
    rho : float >= 0, the step size; not checked

    Returns
    -------
    approx : (d1, d2) array, rank <= r
    factors : SvdFactors with r columns, singular values nonincreasing

    A non-finite ``z``, or a step whose QR input or core overflows, raises
    ValueError.
    """
    u, s, v = factors.u, factors.s, factors.v
    # checked on its own: a BLAS may skip zero multipliers, so an inf where
    # u and v have zero rows need not reach the products below
    _require_finite(z, "tangent step direction")
    zv = z @ v
    right = np.concatenate((v, z.T @ u - v @ (u.T @ zv).T), axis=1)
    _require_finite(right, "tangent step QR input")
    q = _orthonormal_columns(right)
    core = np.concatenate((u * s - rho * zv, -rho * u), axis=1) @ (right.T @ q)
    _require_finite(core, "tangent step core")
    uc, sc, vct, info = dgesdd(core, full_matrices=0)
    if info != 0:
        raise ValueError(f"SVD failed to converge: LAPACK dgesdd info={info}")
    r = s.shape[0]
    out = SvdFactors(u=uc[:, :r], s=sc[:r], v=q @ vct[:r].T)
    return out.matrix(), out


class MatrixNorms(NamedTuple):
    frobenius: float
    nuclear: float
    operator: float
    linf: float  # max absolute entry
    l1: float  # sum of absolute entries


def norms(m):
    """Frobenius, nuclear, operator, entrywise-max and entrywise-l1 norms."""
    m = check_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return MatrixNorms(
        frobenius=float(np.linalg.norm(m)),
        nuclear=float(s.sum()),
        operator=float(s[0]) if s.size else 0.0,
        linf=float(np.max(np.abs(m))) if m.size else 0.0,
        l1=float(np.sum(np.abs(m))),
    )
