"""Federated two-stage estimation.

A client is summarised by the sufficient statistics of its lag design,
(sxx, sxy, syy) = (X'X/T, X'Y/T, tr(Y'Y)/T), computed once per design;
no round or iteration below touches the raw T x pd data.

Stage I iterates privatized gradient rounds on the shared low-rank
component from the start ``FedConfig.init_a0`` (``harness.fed_config``
builds it from the largest client's single-client fit): each client
computes its local loss gradient at the current iterate and adds
Gaussian noise; the server sums the noisy gradients with the sample-size
weights T_k / T, projects the sum once onto the tangent space of
the fixed-rank manifold (the projection is linear, so this equals the
weighted sum of projected gradients) and retracts to rank r.  Projection
and retraction are one factored step, ``matops.tangent_step``: a thin QR
and the SVD of a d x 2r core, never a full SVD.  The message a client
sends per round is that one d x pd gradient.

Stage II refines each client's sparse deviation locally by accelerated
proximal gradient (FISTA) around the frozen shared estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dp import NoisePolicy, add_gaussian_noise, round_sigma
from .matops import check_matrix, soft_threshold, svd_truncate, tangent_step
from .var import CoefDecomposition, LagDesign

# refine_fista stops once a step is at most this times max(1, ||delta||_F);
# 1e-8 left the acceptance oracle's sparse-only gap at 2e-5, 1e-10 at 6e-8
_FISTA_TOL = 1e-10


@dataclass
class FedConfig:
    """Controls for the shared-component gradient rounds.

    init_a0 is the start, truncated to rank r before the first round;
    ``harness.fed_config`` builds it from the largest client.  A noisy
    run needs a budget spread over at least ``rounds`` rounds.
    """

    rank: int
    rounds: int
    step_rho: float
    init_a0: np.ndarray
    noise: NoisePolicy = field(default_factory=NoisePolicy.none)
    budget: object = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.step_rho < 0:
            raise ValueError("step_rho must be nonnegative")


@dataclass
class FistaConfig:
    """Sparse-refinement controls.

    step_eta None uses the inverse of twice the operator norm of the
    client's scaled Gram matrix.  iters caps the iterations; the run
    stops earlier once a step moves the deviation by at most
    _FISTA_TOL * max(1, ||delta||_F) in Frobenius norm.
    """

    varpi: float
    step_eta: float | None = None
    iters: int = 20

    def __post_init__(self):
        if self.varpi < 0:
            raise ValueError("varpi must be nonnegative")
        if self.step_eta is not None and self.step_eta <= 0:
            raise ValueError("step_eta must be positive")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")


@dataclass(frozen=True)
class RoundTrace:
    """Per-round diagnostics of one gradient round."""

    round_index: int
    sigma: float
    grad_norms: tuple
    a0_error: float | None = None


@dataclass
class FitReport:
    """Diagnostics of a full federated fit."""

    a0_hat: np.ndarray
    stage1_trace: list
    fista_traces: list


def local_gradient(design, a0):
    """Gradient 2 (A sxx - sxy') of the local loss at the point a0.

    This equals (2/T) (A X' - Y') X but costs O(d pd^2) whatever T is.
    The (d, pd) result is what a client sends the server in a round.
    Assumes a finite float64 a0 of shape (design.d, design.pd); not
    checked, since the solvers call it with iterates they built.
    """
    return 2.0 * (a0 @ design.sxx - design.sxy.T)


def default_eta(design):
    """Step size 1 / (2 ||X'X/T||_op)."""
    top = float(np.linalg.eigvalsh(design.sxx)[-1])
    if top <= 0:
        raise ValueError("degenerate design: zero Gram matrix")
    return 1.0 / (2.0 * top)


def default_rounds(total_t):
    """ceil(10 log T) gradient rounds for total sample size T."""
    if total_t < 2:
        raise ValueError("total sample size must be >= 2")
    return int(math.ceil(10.0 * math.log(total_t)))


def momentum_sequence(iters):
    """FISTA scalars q_0=1, q_{n+1} = (1 + sqrt(1 + 4 q_n^2)) / 2."""
    q = [1.0]
    for _ in range(iters):
        q.append((1.0 + math.sqrt(1.0 + 4.0 * q[-1] ** 2)) / 2.0)
    return q


def sample_size_weights(designs):
    """Client weights T_k / sum_j T_j."""
    sizes = np.array([d.t_len for d in designs], dtype=np.float64)
    return tuple(sizes / sizes.sum())


def _check_designs(designs):
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


def _check_rank(rank, d, pd):
    if not 1 <= rank <= min(d, pd):
        raise ValueError(f"rank {rank} outside [1, {min(d, pd)}]")


def initial_shared_estimate(design, rank, admm_cfg):
    """Single-client ADMM estimate of one design, truncated to ``rank``."""
    from .single_client import fit_admm

    _check_rank(rank, *_check_designs([design]))
    decomp, _ = fit_admm(design, admm_cfg)
    out, _ = svd_truncate(decomp.a0, rank)
    return out


def stage1_run(designs, cfg, rng, truth_a0=None):
    """Run all gradient rounds; returns the shared estimate and the trace.

    The start is truncated to rank r once, by SVD.  Each round then sums
    the clients' noisy gradients with their weights and makes one
    ``matops.tangent_step`` from the factors of the current iterate: one
    tangent projection of the aggregate and a factored retraction of the
    rank-2r step.  A step that overflows is refused by it with ValueError.

    A noisy round spawns one child generator from ``rng``, and the
    clients draw their noise from it in client order; a noise-free round
    spawns nothing.  A run of n rounds therefore equals n chained
    one-round runs on the same ``rng``.
    """
    d, pd = _check_designs(designs)
    _check_rank(cfg.rank, d, pd)
    sigma = round_sigma(cfg.noise, cfg.budget)
    # each round spends budget/budget.rounds; more rounds would overspend it
    if cfg.noise.mode != "none" and cfg.budget.rounds < cfg.rounds:
        raise ValueError(
            f"budget spread over {cfg.budget.rounds} rounds, but {cfg.rounds} are run"
        )
    weights = sample_size_weights(designs)

    init = check_matrix(cfg.init_a0, "init_a0")
    if init.shape != (d, pd):
        raise ValueError(f"init_a0 shape {init.shape}, expected ({d}, {pd})")

    a0, factors = svd_truncate(init, cfg.rank)
    traces = []
    for n in range(cfg.rounds):
        noise_rng = rng.spawn(1)[0] if sigma > 0 else None
        agg = np.zeros_like(a0)
        grad_norms = []
        for dsn, w in zip(designs, weights):
            grad = local_gradient(dsn, a0)
            grad_norms.append(math.sqrt(float(np.vdot(grad, grad))))
            agg += w * add_gaussian_noise(grad, sigma, noise_rng)
        a0, factors = tangent_step(factors, agg, cfg.step_rho)
        err = None if truth_a0 is None else float(np.linalg.norm(a0 - truth_a0))
        traces.append(RoundTrace(n, sigma, tuple(grad_norms), a0_error=err))
    return a0, traces


def refine_fista(design, a0_hat, cfg):
    """Accelerated proximal gradient for the client's sparse deviation.

    Starting from zero, iterates soft-thresholded gradient steps on
    delta |-> loss(a0_hat + delta) with momentum extrapolation; the
    shared part stays frozen.  The momentum restarts whenever the last
    step points against the gradient mapping, the gradient scheme of
    O'Donoghue & Candes (Found. Comput. Math., 2015).  Stops after
    cfg.iters iterations or once a step is at most
    _FISTA_TOL * max(1, ||delta||_F).  Returns the final iterate and the
    objective value at each iterate run (including the start).
    """
    a0_hat = check_matrix(a0_hat, "a0_hat")
    if a0_hat.shape != (design.d, design.pd):
        raise ValueError(
            f"a0_hat shape {a0_hat.shape} incompatible with design "
            f"({design.d}, {design.pd})"
        )
    eta = cfg.step_eta if cfg.step_eta is not None else default_eta(design)
    sxx, cross, syy = design.sxx, 2.0 * design.sxy.T, design.syy

    # M(delta) = (a0_hat + delta) sxx is the one product an iteration makes:
    # the gradient at the extrapolated point delta + beta (delta - delta_prev)
    # is 2 (M + beta (M - M_prev)) - cross, and the loss at delta is
    # syy - <a0_hat + delta, cross - M>, design.loss written with M.
    delta = np.zeros_like(a0_hat)
    extrap = delta
    m = a0_hat @ sxx
    grad = 2.0 * m - cross
    q = momentum_sequence(cfg.iters)
    k = 0  # momentum index, reset to 0 by a restart
    trace = [syy - float(np.vdot(a0_hat, cross - m))]
    for _ in range(cfg.iters):
        delta_next = soft_threshold(extrap - eta * grad, eta * cfg.varpi)
        step = delta_next - delta
        if float(np.vdot(extrap - delta_next, step)) > 0.0:
            k = 0
        beta = (q[k] - 1.0) / q[k + 1]
        extrap = delta_next + beta * step
        k += 1
        delta = delta_next
        point = a0_hat + delta
        m_next = point @ sxx
        trace.append(
            syy
            - float(np.vdot(point, cross - m_next))
            + cfg.varpi * float(np.sum(np.abs(delta)))
        )
        step_norm = math.sqrt(float(np.vdot(step, step)))
        # an overflowing step gives inf <= inf; leave it to the check below
        if math.isfinite(step_norm) and step_norm <= _FISTA_TOL * max(
            1.0, math.sqrt(float(np.vdot(delta, delta)))
        ):
            break
        grad = 2.0 * (m_next + beta * (m_next - m)) - cross
        m = m_next
    if not np.all(np.isfinite(delta)):
        raise ValueError("FISTA produced a non-finite deviation; lower step_eta")
    return delta, trace


def fit_federated(designs, fed_cfg, fista_cfgs, rng, truth_a0=None):
    """Two-stage federated fit over the clients' lag designs.

    fista_cfgs holds one FistaConfig per client.  Returns one
    decomposition per client and a FitReport with both stages' traces.
    """
    if len(fista_cfgs) != len(designs):
        raise ValueError(
            f"{len(fista_cfgs)} refinement configs for {len(designs)} clients"
        )
    a0_hat, stage1_trace = stage1_run(designs, fed_cfg, rng, truth_a0=truth_a0)

    decomps = []
    fista_traces = []
    for dsn, fcfg in zip(designs, fista_cfgs):
        delta, trace = refine_fista(dsn, a0_hat, fcfg)
        decomps.append(CoefDecomposition(a0=a0_hat, delta=delta))
        fista_traces.append(trace)
    report = FitReport(
        a0_hat=a0_hat, stage1_trace=stage1_trace, fista_traces=fista_traces
    )
    return decomps, report
