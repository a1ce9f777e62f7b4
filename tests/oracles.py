"""Independent reference implementations used to derive expected values.

Everything here is written against a different code path than the package
(eigendecompositions instead of SVD, power iteration, explicit basis
construction, finite differences) so tests do not compare a routine with
itself.
"""

import numpy as np


def svd_via_gram(m):
    """SVD factors from the eigendecomposition of M^T M / M M^T."""
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m
    evals, v = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals, v = evals[order], v[:, order]
    s = np.sqrt(np.clip(evals, 0.0, None))
    u = np.zeros((m.shape[0], s.size))
    for j, sj in enumerate(s):
        if sj > 1e-12:
            u[:, j] = m @ v[:, j] / sj
    return u, s, v


def rank_r_part(m, r):
    """Best rank-r approximation via the Gram-matrix eigendecomposition."""
    u, s, v = svd_via_gram(m)
    return (u[:, :r] * s[:r]) @ v[:, :r].T


def operator_norm_power(m, iters=2000, seed=7):
    """Largest singular value by power iteration on M^T M."""
    m = np.asarray(m, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m.shape[1])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = m.T @ (m @ x)
        n = np.linalg.norm(y)
        if n == 0.0:
            return 0.0
        x = y / n
    return float(np.sqrt(x @ (m.T @ (m @ x))))


def tangent_project_basis(b, u, v):
    """Least-squares projection onto an explicit tangent-space basis.

    Spans the tangent space with the (non-orthogonal) generators
    u_i e_j^T and e_i v_j^T, orthonormalizes the vectorized set with QR,
    and projects b onto it.
    """
    b = np.asarray(b, dtype=np.float64)
    d1, d2 = b.shape
    r = u.shape[1]
    gens = []
    for i in range(r):
        for j in range(d2):
            g = np.outer(u[:, i], np.eye(d2)[j])
            gens.append(g.ravel())
    for i in range(d1):
        for j in range(r):
            g = np.outer(np.eye(d1)[i], v[:, j])
            gens.append(g.ravel())
    gmat = np.array(gens).T  # (d1*d2, n_gens)
    q, rr = np.linalg.qr(gmat)
    keep = np.abs(np.diag(rr)) > 1e-10
    q = q[:, keep]
    proj = q @ (q.T @ b.ravel())
    return proj.reshape(d1, d2)


def numerical_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def quadratic_roots(b, c):
    """Roots of x^2 + b x + c = 0."""
    disc = complex(b * b - 4 * c) ** 0.5
    return (-b + disc) / 2, (-b - disc) / 2


def fista_q_sequence(n):
    """The momentum scalar recursion q_{k+1} = (1 + sqrt(1 + 4 q_k^2)) / 2."""
    q = [1.0]
    for _ in range(n):
        q.append((1.0 + np.sqrt(1.0 + 4.0 * q[-1] ** 2)) / 2.0)
    return q


def gaussian_sigma_ref(sensitivity, eps, delta):
    """Gaussian-mechanism scale, written out longhand."""
    import math

    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / eps


def fix_signs_loop(u, v):
    """Column-by-column sign rule: flip column j of u and v when the first
    nonzero entry of u[:, j] is negative."""
    u = u.copy()
    v = v.copy()
    for j in range(u.shape[1]):
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


def raw_gradient(x, y, a):
    """(2/T) (A X' - Y') X, straight from the design."""
    return (2.0 / x.shape[0]) * ((a @ x.T - y.T) @ x)


def raw_loss(x, y, a):
    """(1/T) ||Y - X A'||_F^2 from the residuals."""
    resid = y - x @ a.T
    return float(np.sum(resid * resid)) / x.shape[0]


def admm_raw(x, y, lam, omega, rho, iters):
    """Scaled-dual ADMM for the nuclear + l1 regression, built from the
    raw design with a dense solve and an explicit SVD, for a fixed number
    of iterations.  Returns (a0, delta), both (d, pd)."""
    t_len, pd = x.shape
    h = (2.0 / t_len) * (x.T @ x) + rho * np.eye(pd)
    g = (2.0 / t_len) * (x.T @ y)
    b0 = np.zeros((pd, y.shape[1]))
    dm = np.zeros_like(b0)
    u = np.zeros_like(b0)
    for _ in range(iters):
        b = np.linalg.solve(h, g + rho * (b0 + dm - u))
        left, s, right = np.linalg.svd(b - dm + u, full_matrices=False)
        b0 = (left * np.maximum(s - lam / rho, 0.0)) @ right
        z = b - b0 + u
        dm = np.sign(z) * np.maximum(np.abs(z) - omega / rho, 0.0)
        u = u + b - b0 - dm
    return b0.T, dm.T
