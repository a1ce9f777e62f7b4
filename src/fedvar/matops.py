"""Dense matrix primitives: truncated SVD, shrinkage operators, tangent-space
projection, and the handful of norms used throughout the package.

All routines work on float64 ndarrays and are deterministic: no randomized
algorithms, and the factors ``svd_truncate`` returns are sign-fixed so
repeated calls on equal input return bitwise-equal factors.  ``svt``
returns a matrix, which does not depend on the signs, so it skips the fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def _svd(m):
    if max(m.shape) > SVD_DIM_CAP:
        raise ValueError(
            f"matrix side {max(m.shape)} exceeds dense-SVD cap {SVD_DIM_CAP}"
        )
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed to converge: {exc}") from exc
    return u, s, vt.T


def svd_truncate(m, r):
    """Best rank-r approximation of ``m`` together with its thin factors.

    Parameters
    ----------
    m : (d1, d2) array
    r : int, 1 <= r <= min(d1, d2)

    Returns
    -------
    approx : (d1, d2) array, rank <= r
    factors : SvdFactors with k = r columns
    """
    m = check_matrix(m)
    if not 1 <= r <= min(m.shape):
        raise ValueError(f"rank r={r} outside [1, {min(m.shape)}]")
    u, s, v = _svd(m)
    u, v = _fix_signs(u[:, :r], v[:, :r])
    factors = SvdFactors(u=u, s=s[:r], v=v)
    return factors.matrix(), factors


def svt(m, tau):
    """Singular value thresholding: shrink every singular value by tau."""
    m = check_matrix(m)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u, s, v = _svd(m)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ v.T


def soft_threshold(m, tau):
    """Entrywise soft threshold sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def linf_project(m, zeta):
    """Clip entries into [-zeta, zeta] (projection onto the sup-norm ball)."""
    if zeta < 0:
        raise ValueError("zeta must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    return np.clip(m, -zeta, zeta)


def tangent_project(b, basis):
    """Project ``b`` onto the tangent space of the fixed-rank manifold.

    At a rank-r point with column space span(u) and row space span(v), the
    tangent space holds matrices of the form u@u.T@b + b@v@v.T - u@u.T@b@v@v.T.
    The projection is linear, idempotent, and nonexpansive in Frobenius norm.
    """
    b = check_matrix(b)
    u, v = basis.u, basis.v
    if u.shape[0] != b.shape[0] or v.shape[0] != b.shape[1]:
        raise ValueError(
            f"basis shapes {u.shape}/{v.shape} incompatible with b {b.shape}"
        )
    ub = u @ (u.T @ b)
    bv = (b @ v) @ v.T
    return ub + bv - (u @ (u.T @ bv))


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
