"""Dense matrix primitives: truncated SVD, shrinkage operators, tangent-space
projection and the factored tangent step on the fixed-rank manifold.

All routines work on float64 ndarrays and are deterministic: no randomized
algorithms, and the factors ``svd_truncate`` returns are sign-fixed so
repeated calls on equal input return bitwise-equal factors.  ``svt`` and
``tangent_step`` return points that do not depend on the signs, so they
skip the fix.

The kernels (``svd_truncate``, ``svt``, ``soft_threshold``,
``linf_project``, ``tangent_project``, ``tangent_step``) sit inside solver
loops and do not validate: they assume finite 2-D float64 arrays (for
``tangent_step``, stacks of them) of matching shapes and the parameter
ranges stated in each docstring.  The solvers' entry points and configs
check those once.  Only what reaches LAPACK's SVD and QR (and
``tangent_step``'s direction, from which its LAPACK input is built) is
checked for non-finite entries, because LAPACK may not return on them.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``tangent_step`` holds a stack of C such factorizations in one: u
    (C, m, k), s (C, k) and v (C, n, k).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def matrix(self):
        return (self.u * self.s[..., None, :]) @ self.v.swapaxes(-1, -2)

    @classmethod
    def stack(cls, members):
        """One stacked SvdFactors from equal-shape 2-D ones, each slice in
        the memory layout of its member (see ``_stack``)."""
        return cls(
            u=_stack([f.u for f in members]),
            s=np.stack([f.s for f in members]),
            v=_stack([f.v for f in members]),
        )


def _stack(mats):
    """Stack equal-shape 2-D arrays so that each slice has the strides of
    its source when the sources share one layout: Fortran-ordered sources
    give Fortran-ordered slices.  BLAS may round a product differently for
    each layout of its operands, so only then is a batched product bitwise
    the product of the sources."""
    if all(m.flags.f_contiguous and not m.flags.c_contiguous for m in mats):
        return np.stack([m.T for m in mats]).transpose(0, 2, 1)
    return np.stack(mats)


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
    """Rank-r truncation of ``X_c - rho_c * P_c(z_c)`` and its thin factors,
    for each member c of a stack, where X_c = u_c diag(s_c) v_c' is the
    point ``factors`` describes and P_c the projection onto its tangent
    space (``tangent_project`` at (u_c, v_c)).

    The step never forms P_c(z_c) or a full SVD.  With m = u'zv and
    Vp = z'u - v m', the point X - rho P(z) equals
    [u diag(s) - rho zv, -rho u] [v, Vp]', a product of a d1 x 2r and a
    2r x d2 factor (Vandereycken, SIAM J. Optim. 2013).  One thin QR
    [v, Vp] = Q R and one thin SVD of the d1 x min(d2, 2r) core
    [u diag(s) - rho zv, -rho u] R' then give the truncation, so a step
    costs O((d1 + d2) r^2) after the two products with z.  No sign fix:
    the point does not depend on the signs of the factors.

    The products run batched over the stack.  The QR (dgeqrf, dorgqr) and
    the SVD (dgesdd) stay one direct LAPACK call per member: numpy's
    batched ``svd`` rounds differently from dgesdd (singular values up to
    about 1e-15 relative apart) and is no faster on five 20 x 4 cores,
    and its batched ``qr`` costs three times one direct call when the
    stack has one member (one BLAS thread).  A member's result is
    bitwise that of a one-member stack.

    Parameters
    ----------
    factors : SvdFactors of the C points, u (C, d1, r), s (C, r) and
        v (C, d2, r), u and v with orthonormal columns; not checked
    z : (C, d1, d2) float64 array, the step directions
    rho : (C,) floats >= 0, the step sizes; not checked

    Returns
    -------
    approx : (C, d1, d2) array, each member of rank <= r
    factors : SvdFactors of the same shapes, singular values nonincreasing

    A non-finite ``z``, or a step whose QR input or core overflows, raises
    ValueError.
    """
    u, s, v = factors.u, factors.s, factors.v
    # checked on its own: a BLAS may skip zero multipliers, so an inf where
    # u and v have zero rows need not reach the products below
    _require_finite(z, "tangent step direction")
    rho = np.asarray(rho, dtype=np.float64)[:, None, None]
    zv = z @ v
    m_t = (u.swapaxes(1, 2) @ zv).swapaxes(1, 2)
    right = np.concatenate((v, z.swapaxes(1, 2) @ u - v @ m_t), axis=2)
    _require_finite(right, "tangent step QR input")
    # LAPACK returns Fortran-ordered arrays; each is stored transposed in a
    # C-ordered stack, so that a slice has the strides of the 2-D output
    # (q, uc[:, :r], vct[:r].T) and a batched product equals the 2-D
    # product of the outputs bit for bit (see ``_stack``)
    n, d1, d2 = z.shape
    k = min(d2, right.shape[2])
    qt = np.empty((n, k, d2))
    for c in range(n):
        qt[c] = _orthonormal_columns(right[c]).T
    q = qt.swapaxes(1, 2)
    left = np.concatenate((u * s[:, None, :] - rho * zv, -rho * u), axis=2)
    core = left @ (right.swapaxes(1, 2) @ q)
    _require_finite(core, "tangent step core")
    r = s.shape[1]
    ut, s_out = np.empty((n, r, d1)), np.empty((n, r))
    vt = np.empty((n, k, min(d1, k)))
    for c in range(n):
        uc, sc, vct, info = dgesdd(core[c], full_matrices=0)
        if info != 0:
            raise ValueError(f"SVD failed to converge: LAPACK dgesdd info={info}")
        ut[c], s_out[c], vt[c] = uc[:, :r].T, sc[:r], vct.T
    out = SvdFactors(u=ut.swapaxes(1, 2), s=s_out, v=q @ vt[:, :, :r])
    return out.matrix(), out
