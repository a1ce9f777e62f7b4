"""Federated two-stage estimation.

A client is summarised by the sufficient statistics of its lag design,
(sxx, sxy, syy) = (X'X/T, X'Y/T, tr(Y'Y)/T), computed once per design;
no round or iteration below touches the raw T x pd data.

Stage I iterates privatized gradient rounds on the shared low-rank
component: each client computes its local loss gradient at the current
iterate, adds Gaussian noise, and projects the result onto the tangent
space of the fixed-rank manifold; the server takes a weighted step and
retracts by rank-r SVD truncation.  The message a client sends per
round is that one d x pd gradient.

Stage II refines each client's sparse deviation locally by accelerated
proximal gradient (FISTA) around the frozen shared estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dp import NoisePolicy, add_gaussian_noise, round_sigma
from .matops import TangentBasis, check_matrix, soft_threshold, svd_truncate, tangent_project
from .var import CoefDecomposition, LagDesign, lag_design


@dataclass
class FedConfig:
    """Controls for the shared-component gradient rounds.

    weights None means sample-size weights T_k / T.  init_a0 None lets
    the run start from the largest client's single-client estimate,
    truncated to the target rank.
    """

    rank: int
    rounds: int
    step_rho: float
    noise: NoisePolicy = field(default_factory=NoisePolicy.none)
    budget: object = None
    init_a0: np.ndarray | None = None
    weights: tuple | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.step_rho < 0:
            raise ValueError("step_rho must be nonnegative")


@dataclass
class FistaConfig:
    """Sparse-refinement controls; step_eta None uses the inverse of twice
    the operator norm of the client's scaled Gram matrix."""

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
    init_a0: np.ndarray
    weights: tuple
    rounds: int
    stage1_trace: list
    fista_traces: list
    metrics: dict = field(default_factory=dict)


def local_gradient(design, a0):
    """Gradient 2 (A sxx - sxy') of the local loss at the point a0.

    This equals (2/T) (A X' - Y') X but costs O(d pd^2) whatever T is.
    The (d, pd) result is what a client sends the server in a round.
    """
    a0 = check_matrix(a0, "a0")
    if a0.shape != (design.d, design.pd):
        raise ValueError(
            f"a0 shape {a0.shape} incompatible with design "
            f"({design.d}, {design.pd})"
        )
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


def _resolve_weights(designs, cfg):
    if cfg.weights is None:
        return sample_size_weights(designs)
    w = tuple(float(v) for v in cfg.weights)
    if len(w) != len(designs):
        raise ValueError(f"{len(w)} weights for {len(designs)} clients")
    if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to one")
    return w


def initial_shared_estimate(designs, rank, admm_cfg=None):
    """Rank-truncated single-client estimate from the largest client.

    Ties on sample size resolve to the lowest client index.
    """
    from .single_client import default_admm_config, fit_admm

    _check_designs(designs)
    sizes = [d.t_len for d in designs]
    k_star = int(np.argmax(sizes))
    design = designs[k_star]
    cfg = admm_cfg if admm_cfg is not None else default_admm_config(design)
    decomp, _ = fit_admm(design, cfg)
    out, _ = svd_truncate(decomp.a0, rank)
    return out


def _round(a0_n, basis, designs, weights, cfg, sigma, rng, truth_a0, index):
    rngs = rng.spawn(len(designs))
    agg = np.zeros_like(a0_n)
    grad_norms = []
    for dsn, w, child in zip(designs, weights, rngs):
        grad = local_gradient(dsn, a0_n)
        grad_norms.append(float(np.linalg.norm(grad)))
        noisy = add_gaussian_noise(grad, sigma, child)
        agg += w * tangent_project(noisy, basis)
    a0_next, factors = svd_truncate(a0_n - cfg.step_rho * agg, cfg.rank)
    err = None
    if truth_a0 is not None:
        err = float(np.linalg.norm(a0_next - truth_a0))
    trace = RoundTrace(
        round_index=index, sigma=sigma, grad_norms=tuple(grad_norms), a0_error=err
    )
    return a0_next, factors, trace


def stage1_round(a0_n, designs, cfg, rng, truth_a0=None):
    """One privatized gradient round from the iterate a0_n."""
    _check_designs(designs)
    weights = _resolve_weights(designs, cfg)
    sigma = round_sigma(cfg.noise, cfg.budget)
    a0_n, factors = svd_truncate(check_matrix(a0_n, "a0_n"), cfg.rank)
    basis = TangentBasis(u=factors.u, v=factors.v)
    a0_next, _, trace = _round(
        a0_n, basis, designs, weights, cfg, sigma, rng, truth_a0, index=0
    )
    return a0_next, trace


def stage1_run(designs, cfg, rng, truth_a0=None):
    """Run all gradient rounds; returns the shared estimate and the trace.

    The tangent basis of each round is reused from the SVD factors of the
    previous round's retraction, so each round costs one truncation.
    """
    d, pd = _check_designs(designs)
    weights = _resolve_weights(designs, cfg)
    if not 1 <= cfg.rank <= min(d, pd):
        raise ValueError(f"rank {cfg.rank} outside [1, {min(d, pd)}]")
    sigma = round_sigma(cfg.noise, cfg.budget)

    init = cfg.init_a0
    if init is None:
        init = initial_shared_estimate(designs, cfg.rank)
    init = check_matrix(init, "init_a0")
    if init.shape != (d, pd):
        raise ValueError(f"init_a0 shape {init.shape}, expected ({d}, {pd})")

    a0, factors = svd_truncate(init, cfg.rank)
    traces = []
    for n in range(cfg.rounds):
        basis = TangentBasis(u=factors.u, v=factors.v)
        a0, factors, trace = _round(
            a0, basis, designs, weights, cfg, sigma, rng, truth_a0, index=n
        )
        traces.append(trace)
    return a0, traces


def refine_fista(design, a0_hat, cfg):
    """Accelerated proximal gradient for the client's sparse deviation.

    Starting from zero, iterates soft-thresholded gradient steps on
    delta |-> loss(a0_hat + delta) with momentum extrapolation; the
    shared part stays frozen.  Returns the final iterate and the
    objective value at each iterate (including the start).
    """
    a0_hat = check_matrix(a0_hat, "a0_hat")
    if a0_hat.shape != (design.d, design.pd):
        raise ValueError(
            f"a0_hat shape {a0_hat.shape} incompatible with design "
            f"({design.d}, {design.pd})"
        )
    eta = cfg.step_eta if cfg.step_eta is not None else default_eta(design)

    def obj(delta):
        return design.loss(a0_hat + delta) + cfg.varpi * float(np.sum(np.abs(delta)))

    delta = np.zeros_like(a0_hat)
    extrap = delta
    q = momentum_sequence(cfg.iters)
    trace = [obj(delta)]
    for n in range(cfg.iters):
        grad = local_gradient(design, a0_hat + extrap)
        delta_next = soft_threshold(extrap - eta * grad, eta * cfg.varpi)
        extrap = delta_next + ((q[n] - 1.0) / q[n + 1]) * (delta_next - delta)
        delta = delta_next
        trace.append(obj(delta))
    return delta, trace


def fit_federated(panels, fed_cfg, fista_cfgs, rng, truth_a0=None):
    """Two-stage federated fit from raw panels.

    fista_cfgs may be one FistaConfig (broadcast to every client) or a
    sequence with one entry per client.  Returns one decomposition per
    client and a FitReport with both stages' traces.
    """
    designs = [lag_design(p) for p in panels]
    d, pd = _check_designs(designs)
    weights = _resolve_weights(designs, fed_cfg)

    if isinstance(fista_cfgs, FistaConfig):
        fista_cfgs = [fista_cfgs] * len(designs)
    fista_cfgs = list(fista_cfgs)
    if len(fista_cfgs) != len(designs):
        raise ValueError(
            f"{len(fista_cfgs)} refinement configs for {len(designs)} clients"
        )

    init = fed_cfg.init_a0
    if init is None:
        init = initial_shared_estimate(designs, fed_cfg.rank)
    run_cfg = FedConfig(
        rank=fed_cfg.rank,
        rounds=fed_cfg.rounds,
        step_rho=fed_cfg.step_rho,
        noise=fed_cfg.noise,
        budget=fed_cfg.budget,
        init_a0=init,
        weights=weights,
    )
    a0_hat, stage1_trace = stage1_run(designs, run_cfg, rng, truth_a0=truth_a0)

    decomps = []
    fista_traces = []
    for dsn, fcfg in zip(designs, fista_cfgs):
        delta, trace = refine_fista(dsn, a0_hat, fcfg)
        decomps.append(
            CoefDecomposition(a0=a0_hat, delta=delta, rank=fed_cfg.rank)
        )
        fista_traces.append(trace)

    report = FitReport(
        a0_hat=a0_hat,
        init_a0=check_matrix(init, "init_a0"),
        weights=weights,
        rounds=fed_cfg.rounds,
        stage1_trace=stage1_trace,
        fista_traces=fista_traces,
    )
    return decomps, report
