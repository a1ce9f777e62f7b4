"""Independent reference implementations used to derive expected values.

Everything here is written against a different code path than the package
(eigendecompositions instead of SVD, power iteration, explicit basis
construction, finite differences) so tests do not compare a routine with
itself.
"""

import math
import warnings

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr

from fedvar import fed_core, single_client, var
from fedvar.harness import experiments
from fedvar.matops import SvdFactors, linf_project, soft_threshold


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


def plain_fista(x, y, a0_hat, varpi, eta, tol, cap):
    """Textbook FISTA (Beck & Teboulle 2009) from the raw design, with no
    restart, stopped as refine_fista is: once a step is at most
    tol * max(1, ||delta||_F), or after cap iterations.  Returns the
    deviation and the number of iterations run."""
    t_len = x.shape[0]
    delta = np.zeros_like(a0_hat)
    y_pt, t = delta, 1.0
    for n in range(1, cap + 1):
        grad = (2.0 / t_len) * (((a0_hat + y_pt) @ x.T - y.T) @ x)
        z = y_pt - eta * grad
        nxt = np.sign(z) * np.maximum(np.abs(z) - eta * varpi, 0.0)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y_pt = nxt + ((t - 1.0) / t_next) * (nxt - delta)
        step = np.sqrt(np.sum((nxt - delta) ** 2))
        delta, t = nxt, t_next
        if step <= tol * max(1.0, np.sqrt(np.sum(delta**2))):
            return delta, n
    return delta, cap


def restart_fista(x, y, a0_hat, varpi, eta, iters):
    """FISTA with gradient-scheme momentum restart (O'Donoghue & Candes
    2015), the gradient taken from the raw design at a0_hat plus the
    extrapolated point, for a fixed number of iterations."""
    t_len = x.shape[0]
    delta = np.zeros_like(a0_hat)
    y_pt, t = delta, 1.0
    for _ in range(iters):
        grad = (2.0 / t_len) * (((a0_hat + y_pt) @ x.T - y.T) @ x)
        z = y_pt - eta * grad
        nxt = np.sign(z) * np.maximum(np.abs(z) - eta * varpi, 0.0)
        if np.sum((y_pt - nxt) * (nxt - delta)) > 0.0:
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y_pt = nxt + ((t - 1.0) / t_next) * (nxt - delta)
        delta, t = nxt, t_next
    return delta


def oracle_instance(seed, index):
    """The design of the index-th instance that the acceptance test's
    optimizer-oracle check draws from default_rng(seed), replaying the
    draws of the instances before it."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        d = int(rng.integers(3, 7))
        p = int(rng.integers(1, 3))
        t = int(rng.integers(40, 120))
        a0, deltas = var.assemble_dgp(d, p, min(2, d - 1), 1, rng)
        panel = var.simulate(a0 + deltas[0], p, t, rng, burn_in=100)
    return var.lag_design(panel)


def cold_single_forecaster(cfg, method):
    """Single-client ADMM forecaster ("single_nuc_l1" or "single_nuclear")
    that starts every origin's fit from zero."""

    def forecast(prefix_panel):
        design = var.lag_design(prefix_panel)
        acfg = experiments.admm_config(design, cfg)
        if method == "single_nuclear":
            acfg = single_client.nuclear_only_config(acfg)
        coef = single_client.fit_admm([design], [acfg])[0][0].a
        full = np.vstack([prefix_panel.presample, prefix_panel.observations])
        return var.forecast_one_step(coef, full[-cfg.p:])

    return forecast


def cold_l1_forecaster(cfg):
    """The "single_l1" forecaster fitted on its own at each origin: a
    one-problem refine_fista call from a zero shared part on that origin's
    design, at the harness's penalty omega_scale sqrt(log(pd) / T) and
    the baseline's cap of 500 iterations."""

    def forecast(prefix_panel):
        design = var.lag_design(prefix_panel)
        omega = cfg.omega_scale * np.sqrt(np.log(design.pd) / design.t_len)
        (coef,), _ = fed_core.refine_fista(
            [design],
            np.zeros((1, design.d, design.pd)),
            [omega],
            500,
        )
        full = np.vstack([prefix_panel.presample, prefix_panel.observations])
        return var.forecast_one_step(coef, full[-cfg.p:])

    return forecast


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


def stage1_full_svd(designs, rank, rounds, step_rho, init_a0):
    """Noise-free stage 1 as first written: each client's gradient, from
    the raw design, projected onto the tangent space on its own with the
    explicit projectors P_u = u u', P_v = v v' (b - (I - P_u) b (I - P_v)),
    the sample-size-weighted sum stepped, and the step retracted by a full
    SVD truncated to the rank."""
    sizes = np.array([dsn.t_len for dsn in designs], dtype=np.float64)
    weights = sizes / sizes.sum()

    def truncate(m):
        u, s, vt = np.linalg.svd(m)
        return u[:, :rank], (u[:, :rank] * s[:rank]) @ vt[:rank], vt[:rank].T

    u, a0, v = truncate(np.asarray(init_a0, dtype=np.float64))
    for _ in range(rounds):
        off_u = np.eye(u.shape[0]) - u @ u.T
        off_v = np.eye(v.shape[0]) - v @ v.T
        agg = np.zeros_like(a0)
        for w, dsn in zip(weights, designs):
            g = raw_gradient(dsn.x, dsn.y, a0)
            agg += w * (g - off_u @ g @ off_v)
        u, a0, v = truncate(a0 - step_rho * agg)
    return a0


def pooled_rrr(designs, rank):
    """The rank-``rank`` minimizer of the pooled loss sum_k w_k L_k(A),
    w_k = T_k / sum_j T_j, in closed form: reduced-rank regression.

    The pooled loss is tr(A S A') - 2 tr(A C') + const with S = sum_k w_k
    sxx_k and C = sum_k w_k sxy_k', that is ||A S^1/2 - C S^-1/2||_F^2 +
    const, so its minimizer is [C S^-1/2]_r S^-1/2, [.]_r the best rank-r
    part (Izenman, J. Multivariate Anal. 1975).  Returns it, the singular
    values of C S^-1/2 (descending) and the eigenvalues of S (ascending).
    """
    sizes = np.array([dsn.t_len for dsn in designs], dtype=np.float64)
    weights = sizes / sizes.sum()
    s = sum(w * dsn.sxx for w, dsn in zip(weights, designs))
    c = sum(w * dsn.sxy.T for w, dsn in zip(weights, designs))
    evals, q = np.linalg.eigh(s)
    inv_root = (q / np.sqrt(evals)) @ q.T
    u, sv, vt = np.linalg.svd(c @ inv_root)
    return (u[:, :rank] * sv[:rank]) @ vt[:rank] @ inv_root, sv, evals


def admm_raw(x, y, lam, omega, rho, iters, relax):
    """Scaled-dual ADMM for the nuclear + l1 regression, built from the
    raw design with a dense solve and an explicit SVD, for a fixed number
    of iterations, with the ridge step over-relaxed by the factor relax
    (1 is plain ADMM).  An infinite lam or omega pins that part at zero.
    Returns (a0, delta), both (d, pd)."""
    t_len, pd = x.shape
    h = (2.0 / t_len) * (x.T @ x) + rho * np.eye(pd)
    g = (2.0 / t_len) * (x.T @ y)
    b0 = np.zeros((pd, y.shape[1]))
    dm = np.zeros_like(b0)
    u = np.zeros_like(b0)
    for _ in range(iters):
        b = np.linalg.solve(h, g + rho * (b0 + dm - u))
        b = relax * b + (1.0 - relax) * (b0 + dm)
        left, s, right = np.linalg.svd(b - dm + u, full_matrices=False)
        b0 = (left * np.maximum(s - lam / rho, 0.0)) @ right
        z = b - b0 + u
        dm = np.sign(z) * np.maximum(np.abs(z) - omega / rho, 0.0)
        u = u + b - b0 - dm
    return b0.T, dm.T


def admm_solo(design, cfg, pin_a0=False, tol=None, max_iter=2000):
    """One ADMM fit on its own, as fit_admm ran before it stacked problems:
    the same over-relaxed scaled-dual updates from zero and max_iter
    warning, for one design, with the ridge system solved by cho_solve
    and the singular value threshold taken from np.linalg.svd.  It stops
    once both residuals are at most tol (None for fit_admm's default,
    1e-6 sqrt(pd d)) or after max_iter iterations.  pin_a0 holds B0 at
    zero, which leaves the pure l1 problem (the package fits that with
    refine_fista).  Returns the decomposition and an AdmmState."""
    d, pd = design.d, design.pd
    rho, relax = single_client._ADMM_RHO, single_client._ADMM_RELAX
    b0, d_mat, u = (np.zeros((pd, d)) for _ in range(3))

    tol = 1e-6 * math.sqrt(pd * d) if tol is None else tol
    factor = cho_factor(2.0 * design.sxx + rho * np.eye(pd))
    g = 2.0 * design.sxy
    converged = False

    z = b0 + d_mat
    for it in range(1, max_iter + 1):
        b = cho_solve(factor, g + rho * (z - u))
        b_hat = relax * b + (1.0 - relax) * z
        z_prev = z
        if not pin_a0:
            left, s, right = np.linalg.svd(b_hat - d_mat + u, full_matrices=False)
            b0 = (left * np.maximum(s - cfg.lam / rho, 0.0)) @ right
            if cfg.zeta is not None:
                b0 = linf_project(b0, cfg.zeta)
        if not cfg.pin_delta:
            d_mat = soft_threshold(b_hat - b0 + u, cfg.omega / rho)
        z = b0 + d_mat
        r = b - z
        u = u + (b_hat - z)
        s = rho * (z - z_prev)
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        if r_norm <= tol and s_norm <= tol:
            converged = True
            break

    if not converged:
        warnings.warn(
            f"ADMM stopped at max_iter={max_iter} with residuals "
            f"(primal {r_norm:.2e}, dual {s_norm:.2e})",
            RuntimeWarning,
        )
    state = single_client.AdmmState(it, converged, r_norm, s_norm)
    return var.CoefDecomposition(a0=b0.T, delta=d_mat.T), state


def prefix_panel(panel, t_len):
    """The panel cut to its first t_len observations, presample kept."""
    return var.TimeSeriesPanel(
        presample=panel.presample, observations=panel.observations[:t_len]
    )


def reference_rmsfe(forecaster, panel, n_origins, aggregate="mean"):
    """Expanding-window RMSFE scored the long way: at each of the last
    n_origins indices i, in increasing order, forecaster gets the panel
    cut to its first i observations and its length-d forecast is scored
    against observation i, so a forecaster that sees only what it is given
    cannot look ahead.  Returns the per-variable values followed by the
    aggregate, the order empirical_rmsfe records them in."""
    t_len = panel.t_len
    sq = np.zeros((n_origins, panel.d))
    for h in range(n_origins):
        i = t_len - n_origins + h
        pred = np.asarray(forecaster(prefix_panel(panel, i)), dtype=np.float64)
        sq[h] = (panel.observations[i] - pred) ** 2
    per_var = np.sqrt(sq.mean(axis=0))
    agg = per_var.mean() if aggregate == "mean" else np.sqrt(sq.mean())
    return [float(v) for v in per_var] + [float(agg)]


def scale_to_radius(a, p, radius):
    """a with lag block j scaled by c**j so that its companion spectral
    radius is radius (a test fixture for a stationary VAR)."""
    return var.scale_lag_blocks(a, p, radius / var.companion_spectral_radius(a, p))


def prefix_designs(panels, origin, client):
    """Lag designs for one client's forecast origin across the federation.

    The target client contributes exactly its first `origin`
    observations; every other client contributes what it has up to that
    same time index, so no fit sees data at or beyond the target time.
    """
    designs = []
    for j, pn in enumerate(panels):
        t = origin if j == client else min(origin, pn.t_len)
        designs.append(var.lag_design(prefix_panel(pn, t)))
    return designs


def per_client_federated_forecaster(cfg, panels, client):
    """Federated forecaster that refits the whole federation for every
    (client, origin) pair: every client's design rebuilt, the start
    refitted and stage 1 rerun on the noise stream (0, 1, client, origin).
    Without noise it must forecast exactly as one federation per origin."""

    def forecast(prefix_panel):
        origin = prefix_panel.t_len
        designs = prefix_designs(panels, origin, client)
        nrng = experiments._noise_rng(cfg.seed, 0, client, origin)
        (fcfg,) = experiments.fed_config(cfg, [designs])
        (a0_hat,), _ = fed_core.stage1_run([designs], [fcfg], [nrng])
        (delta,), _ = fed_core.refine_fista(
            [designs[client]],
            [a0_hat],
            [experiments.refine_penalty(cfg, designs[client])],
            fed_core._REFINE_ITERS,
        )
        full = np.vstack([prefix_panel.presample, prefix_panel.observations])
        return var.forecast_one_step(a0_hat + delta, full[-cfg.p:])

    return forecast


def simulate_reference(a, p, t_len, rng, burn_in=200):
    """VAR(p) path by the straightforward recursion: each step accumulates
    its lag terms onto a copy of its innovation, skipping lags before the
    start. Draws the same innovations as ``var.simulate``; returns
    (presample, observations)."""
    d = a.shape[0]
    total = burn_in + p + t_len
    eps = rng.standard_normal((total, d))
    blocks = [a[:, j * d : (j + 1) * d] for j in range(p)]
    y = np.zeros((total, d))
    for t in range(total):
        acc = eps[t].copy()
        for j, blk in enumerate(blocks):
            s = t - j - 1
            if s >= 0:
                acc += blk @ y[s]
        y[t] = acc
    return y[burn_in : burn_in + p], y[burn_in + p :]


def tangent_step_lapack(factors, z, rho):
    """matops.tangent_step with its QR and SVD taken one member at a time
    by direct LAPACK calls (dgeqrf and dorgqr, then dgesdd), each output
    stored transposed in a C-ordered stack so that a slice keeps the
    strides of LAPACK's Fortran-ordered result.  The products around them
    are tangent_step's own, batched over the stack."""
    u, s, v = factors.u, factors.s, factors.v
    rho = np.asarray(rho, dtype=np.float64)[:, None, None]
    zv = z @ v
    m_t = (u.swapaxes(1, 2) @ zv).swapaxes(1, 2)
    right = np.concatenate((v, z.swapaxes(1, 2) @ u - v @ m_t), axis=2)
    n, d1, d2 = z.shape
    k = min(d2, right.shape[2])
    qt = np.empty((n, k, d2))
    for c in range(n):
        qr, tau, _, info = dgeqrf(right[c])
        assert info == 0
        q, _, info = dorgqr(qr[:, : tau.shape[0]], tau)
        assert info == 0
        qt[c] = q.T
    q = qt.swapaxes(1, 2)
    left = np.concatenate((u * s[:, None, :] - rho * zv, -rho * u), axis=2)
    core = left @ (right.swapaxes(1, 2) @ q)
    r = s.shape[1]
    ut, s_out = np.empty((n, r, d1)), np.empty((n, r))
    vt = np.empty((n, k, min(d1, k)))
    for c in range(n):
        uc, sc, vct, info = dgesdd(core[c], full_matrices=0)
        assert info == 0
        ut[c], s_out[c], vt[c] = uc[:, :r].T, sc[:r], vct.T
    out = SvdFactors(u=ut.swapaxes(1, 2), s=s_out, v=q @ vt[:, :, :r])
    return out.matrix(), out
