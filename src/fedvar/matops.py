"""Dense matrix primitives: truncated SVD, shrinkage operators, tangent-space
projection and the factored tangent step on the fixed-rank manifold.

All routines work on float64 ndarrays and are deterministic: no randomized
algorithms, and the factors ``svd_truncate`` returns are sign-fixed so
repeated calls on equal input return bitwise-equal factors.  ``svt`` and
``tangent_step`` return points that do not depend on the signs, so they
skip the fix.  Every decomposition is one batched ``numpy.linalg`` call
over a stack, which runs LAPACK on each member in turn.
``svd_truncate`` and ``tangent_step`` take LAPACK's dgesdd SVD, and
``tangent_step`` its dgeqrf/dorgqr QR.  ``svt`` takes the
eigendecomposition of each matrix's smaller Gram matrix, which is not
bitwise dgesdd's threshold but stays within the bound derived beside
``_GRAM_RATIO``; a matrix outside that guard is thresholded from dgesdd.

The kernels (``svd_truncate``, ``svt``, ``soft_threshold``,
``linf_project``, ``tangent_project``, ``tangent_step``) sit inside solver
loops and do not validate: they assume finite 2-D float64 arrays (for
``svd_truncate``, ``svt`` and ``tangent_step``, stacks of them) of
matching shapes and the parameter ranges stated in each docstring.  The
solvers' entry points and configs check those once.  Only what reaches
LAPACK's SVD, eigendecomposition and QR (and ``tangent_step``'s
direction, from which its LAPACK input is built) is checked for
non-finite entries, because LAPACK may not return on them.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    A stack of C such factorizations is one SvdFactors with u (C, m, k),
    s (C, k) and v (C, n, k), as ``svd_truncate`` of a stack returns and
    ``tangent_step`` takes and returns.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def matrix(self):
        return (self.u * self.s[..., None, :]) @ self.v.swapaxes(-1, -2)


def _fix_signs(u, v):
    # Sign convention: first nonzero entry of each left singular vector is
    # nonnegative.  Makes the factorization unique for distinct singular
    # values and repeat calls bitwise-identical.  Negation is exact, so
    # u * signs and v * signs change nothing but the signs.  Works on the
    # last two axes, so a stack's members are fixed one by one.
    first = np.argmax(u != 0, axis=-2)[..., None, :]
    lead = np.take_along_axis(u, first, axis=-2)
    signs = np.where(lead < 0, -1.0, 1.0)
    return u * signs, v * signs


def _require_finite(m, what):
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")


def _check_sides(m):
    """Cap each matrix's two sides (a stack's last two axes, not its
    member count)."""
    side = max(m.shape[-2:])
    if side > SVD_DIM_CAP:
        raise ValueError(f"matrix side {side} exceeds dense-SVD cap {SVD_DIM_CAP}")


def _check_svd_input(m):
    """Cap each matrix's sides and refuse non-finite entries."""
    _check_sides(m)
    # LAPACK's divide-and-conquer SVD can loop without end on inf entries.
    _require_finite(m, "SVD input")


def _svd(m):
    """Thin SVD factors (u, s, v) of a matrix or of each member of a stack."""
    _check_svd_input(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed to converge: {exc}") from exc
    return u, s, vt.swapaxes(-1, -2)


def svd_truncate(m, r):
    """Best rank-r approximation of ``m``, or of each member of a stack,
    together with its thin factors.  A stack takes one batched SVD and
    one batched product, as ``svt`` does, and each member's results are
    bitwise those of its own 2-D call, whatever the stack's layout.

    Parameters
    ----------
    m : (d1, d2) float64 array or (n, d1, d2) stack of them; non-finite
        entries raise ValueError
    r : int, 1 <= r <= min(d1, d2); not checked

    Returns
    -------
    approx : array of m's shape, each matrix of rank <= r
    factors : SvdFactors with k = r columns, stacked when m is
    """
    u, s, v = _svd(m)
    u, v = _fix_signs(u[..., :r], v[..., :r])
    factors = SvdFactors(u=u, s=s[..., :r], v=v)
    return factors.matrix(), factors


# The Gram path of ``svt`` and its guard.  With k the smaller and l the
# larger side of m, G the k x k Gram matrix (m'm for a tall m, mm' for a
# wide one) and h(x) = max(1 - tau/sqrt(x), 0), the threshold is exactly
# m h(G) (or h(G) m): each singular value s of m becomes s h(s^2) =
# max(s - tau, 0).  In floating point, with unit roundoff u = 2^-53 and
# s_max the largest singular value:
#   - the product G carries an error of at most l u ||m||_F^2 <= k l u
#     s_max^2 in Frobenius norm, and eigh's eigenpairs are exact, to
#     within rounding of the vectors, for a matrix within a modest
#     multiple of k u s_max^2 of that (backward stability), so the
#     decomposed matrix is G + E with ||E||_F <~ k (k + l) u s_max^2;
#   - h is Lipschitz with constant 1/(2 tau^2), its slope at x = tau^2,
#     and a function Lipschitz on the reals is Lipschitz with the same
#     constant on symmetric matrices in Frobenius norm, so
#     ||h(G + E) - h(G)||_F <= ||E||_F / (2 tau^2);
#   - multiplying by m (||m||_2 = s_max) and rounding h (a few u for the
#     square root, division and subtraction of each shrink factor, about
#     k u for the eigenvectors' departure from orthogonality and k^2 u
#     for the two products) add at most about (k + 1)(k + l) u s_max, the
#     order of dgesdd's own error.
# So the result is within (k + 1)(k + l) u s_max (1 + s_max^2 / (2 tau^2))
# of the exact threshold, first order.  The bound grows without limit as tau
# falls (tau = 0, where h is not Lipschitz at 0, included), so a member
# takes the Gram path only when s_max < _GRAM_RATIO tau; every other
# member goes to dgesdd.  At 300 the error is at most (k + 1)(k + l) u
# (1 + 4.5e4) s_max, 4.2e-9 s_max at 20 x 20, far below ADMM's stop
# tolerance.  In two seed-11 replications each of rank_table (d=20),
# single_client_curve and t_sweep (d=8), ADMM's thresholds met s_max / tau
# of 5 to 57, so they take the Gram path.
_GRAM_RATIO = 300.0


def svt(m, tau):
    """Singular value thresholding of each member of a stack: shrink every
    singular value of m[c] by tau[c].

    ``m`` is an (n, a, b) float64 stack, in any memory layout, and ``tau``
    n thresholds >= 0 (a 2-D ``m`` with a scalar ``tau`` is one matrix);
    neither is checked.  Non-finite entries in any member, and a side a
    or b above SVD_DIM_CAP, raise ValueError; the number of members is
    not capped.

    SVT needs only the singular triplets above the threshold (Cai,
    Candes & Shen, SIAM J. Optim. 2010), and the Gram matrix on the
    smaller side has them at a fraction of an SVD's cost.  The stack
    takes one batched product for the Gram matrices, one batched
    ``np.linalg.eigh`` (LAPACK dsyevd on each member in turn), and two
    batched products for m V diag(max(1 - tau/s, 0)) V' (V diag(...) V' m
    for a wide m), where s^2 are the eigenvalues above tau^2.  A member
    whose largest singular value reaches _GRAM_RATIO tau, tau = 0
    included, is thresholded from its dgesdd SVD instead, bitwise as
    ``(u * max(s - tau, 0)) @ vt`` of ``np.linalg.svd``.  The result is
    within (min(a, b) + 1)(a + b) u s_max (1 + s_max^2 / (2 tau^2)) of
    the exact threshold, with u = 2^-53 and s_max the largest singular value
    (derivation above _GRAM_RATIO).

    Each member's result is bitwise that of its own call, in a stack of
    either layout: the gufuncs copy every member into the same Fortran
    buffer, and the products' slices keep the strides of a 2-D product.
    It does not depend on the signs of the eigenvectors, since each
    enters twice.  ADMM thresholds every problem of its stack in one
    call per iteration.
    """
    if m.ndim == 2:
        return svt(m[None], np.reshape(tau, 1))[0]
    _check_sides(m)
    # each member's largest entry: non-finite for a non-finite member, and
    # above 1e150 its Gram matrix may overflow, which eigh may not return
    # on; such a member is zeroed for the Gram path and goes to dgesdd
    top = np.abs(m).max(axis=(1, 2))
    _require_finite(top, "SVD input")
    huge = top > 1e150
    src = m
    if huge.any():
        src = m.copy(order="K")
        src[huge] = 0.0
    tau = np.asarray(tau, dtype=np.float64)
    tall = m.shape[1] >= m.shape[2]
    gram = src.swapaxes(1, 2) @ src if tall else src @ src.swapaxes(1, 2)
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition failed to converge: {exc}") from exc
    # the singular values; rounding may leave a zero eigenvalue negative
    s = np.sqrt(np.maximum(w, 0.0))
    t = tau[:, None]
    keep = s > t
    shrink = np.where(keep, 1.0 - t / np.where(keep, s, 1.0), 0.0)
    h = (v * shrink[:, None, :]) @ v.swapaxes(1, 2)
    out = m @ h if tall else h @ m
    # the guard, stated so that a huge tau cannot overflow it
    svd = huge | ~(s[:, -1] / _GRAM_RATIO < tau)
    if svd.any():
        u, s, v = _svd(m[svd])
        s = np.maximum(s - tau[svd, None], 0.0)
        out[svd] = (u * s[:, None, :]) @ v.swapaxes(1, 2)
    return out


def _dots(a, b):
    """Inner products <a_j, b_j> of two (K, d, pd) stacks.  numpy takes
    each by the dot kernel np.vdot uses, so a value does not depend on K
    or on the other members of the stack."""
    n = a.shape[0]
    return np.matmul(a.reshape(n, 1, -1), b.reshape(n, -1, 1)).reshape(n)


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
    ``basis`` is anything with attributes ``u`` (d1, r) and ``v`` (d2, r),
    each with orthonormal columns, such as the SvdFactors of the point.
    Assumes a finite float64 ``b`` of shape (d1, d2); not checked.
    """
    u, v = basis.u, basis.v
    ub = u @ (u.T @ b)
    bv = (b @ v) @ v.T
    return ub + bv - (u @ (u.T @ bv))


def _transposed(a):
    """a stored as the C-ordered stack of its members' transposes: the
    same values, each slice with Fortran strides."""
    return np.ascontiguousarray(a.swapaxes(1, 2)).swapaxes(1, 2)


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

    The stack takes one batched ``np.linalg.qr`` (dgeqrf and dorgqr on
    each member), one batched ``np.linalg.svd`` (dgesdd) and batched
    products, and each member's result is bitwise that of a one-member
    stack and of one direct LAPACK call per member (checked against
    scipy's LAPACK wrappers at numpy 2.4, scipy 1.17).  Timed with one BLAS
    thread (minimum of 15 x 200 calls, r = 2), against those per-member
    calls: 56 us against 39 us for one 20 x 20 member, where numpy's
    wrappers cost more than the arithmetic; 88 against 89 us for five;
    118 against 135 us for nine 12 x 24 members, and 371 against 574 us
    for 45.

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
    # numpy's batched QR and SVD factor each member in a Fortran-ordered
    # buffer, as a direct LAPACK call does, and return C-ordered stacks.
    # Each output is stored transposed, so that a slice has the strides of
    # LAPACK's Fortran-ordered 2-D output (q, uc[:, :r], vct[:r].T) and a
    # batched product equals the 2-D product of the outputs bit for bit
    q, _ = np.linalg.qr(right)
    q = _transposed(q)
    left = np.concatenate((u * s[:, None, :] - rho * zv, -rho * u), axis=2)
    core = left @ (right.swapaxes(1, 2) @ q)
    _require_finite(core, "tangent step core")
    try:
        uc, s_out, vct = np.linalg.svd(core, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed to converge: {exc}") from exc
    r = s.shape[1]
    vc = np.ascontiguousarray(vct.swapaxes(1, 2))
    out = SvdFactors(u=_transposed(uc[:, :, :r]), s=s_out[:, :r], v=q @ vc[:, :, :r])
    return out.matrix(), out
