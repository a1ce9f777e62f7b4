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
sends per round is that one d x pd gradient.  ``stage1_run`` runs any
number of federations over the same clients (members of one rank and
one number of rounds, each with its own start, step, noise and
generator) in one lockstep loop: a round takes every (member, client)
gradient in one batched product and makes one tangent step over the
stack, and a member's result is bitwise that of its one-member call.
The harness fits the cells of a privacy heatmap in one call.

Stage II refines each client's sparse deviation by accelerated proximal
gradient (FISTA) around the frozen shared estimate.  ``refine_fista`` is
one stacked loop over any number of same-shape problems around one
shared estimate: each iteration makes one batched product and one soft
threshold for every problem still running, and each problem stops on its
own, so a problem's result does not depend on what it is stacked with.
The clients of a fit are refined in one call; the harness also fits the
l1-only baseline (shared part zero) of every forecast origin in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dp import NoisePolicy, add_gaussian_noise, round_sigma
from .matops import (
    SvdFactors,
    check_matrix,
    soft_threshold,
    svd_truncate,
    tangent_step,
)
from .var import CoefDecomposition, LagDesign

# refine_fista stops once a step is at most this times max(1, ||delta||_F);
# 1e-8 left the acceptance oracle's sparse-only gap at 2e-5, 1e-10 at 6e-8
_FISTA_TOL = 1e-10


@dataclass
class FedConfig:
    """Controls for the shared-component gradient rounds.

    init_a0 is the start, truncated to rank r before the first round;
    ``harness.fed_config`` builds it from the largest client.  A noisy
    run needs a budget; a calibrated one is spent evenly over the
    ``rounds`` rounds run.
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

    The step is ``default_eta`` of the client's design, the inverse of
    twice the operator norm of its scaled Gram matrix.  iters caps the
    iterations; the run stops earlier once a step moves the deviation by
    at most _FISTA_TOL * max(1, ||delta||_F) in Frobenius norm.
    """

    varpi: float
    iters: int = 20

    def __post_init__(self):
        if self.varpi < 0:
            raise ValueError("varpi must be nonnegative")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")


@dataclass(frozen=True)
class RoundTrace:
    """Per-round diagnostics of one gradient round."""

    round_index: int
    sigma: float
    grad_norms: tuple


@dataclass
class FitReport:
    """Diagnostics of a full federated fit."""

    a0_hat: np.ndarray
    stage1_trace: list
    fista_traces: list


def local_gradient(design, a0):
    """Gradient 2 (A sxx - sxy') of the local loss at the point a0.

    This equals (2/T) (A X' - Y') X but costs O(d pd^2) whatever T is.
    The (d, pd) result is what a client sends the server in a round;
    ``stage1_run`` computes the same expression for every (member,
    client) pair at once.  Assumes a finite float64 a0 of shape
    (design.d, design.pd); not checked.
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


def initial_shared_estimate(designs, rank, admm_cfgs):
    """Starts of several federations: for each same-shape design, its
    single-client ADMM estimate under the matching config, truncated to
    ``rank``.  The fits are one stacked ``fit_admm`` call, and each start
    is bitwise that of a one-design call."""
    from .single_client import fit_admm

    _check_rank(rank, *_check_designs(designs))
    decomps, _ = fit_admm(designs, admm_cfgs)
    return [svd_truncate(dec.a0, rank)[0] for dec in decomps]


def _check_members(cfgs, rngs, d, pd):
    """Each member's sigma and rank-r start, after the checks of one
    federation; the stack must share rank and rounds."""
    if not cfgs:
        raise ValueError("need at least one federation config")
    if len(rngs) != len(cfgs):
        raise ValueError(f"{len(rngs)} generators for {len(cfgs)} federation configs")
    rank, rounds = cfgs[0].rank, cfgs[0].rounds
    _check_rank(rank, d, pd)
    sigmas, starts = [], []
    for c, cfg in enumerate(cfgs):
        if (cfg.rank, cfg.rounds) != (rank, rounds):
            raise ValueError(
                f"member {c} has rank {cfg.rank} and {cfg.rounds} rounds, "
                f"member 0 has rank {rank} and {rounds} rounds"
            )
        sigmas.append(round_sigma(cfg.noise, cfg.budget, rounds))
        init = check_matrix(cfg.init_a0, "init_a0")
        if init.shape != (d, pd):
            raise ValueError(f"init_a0 shape {init.shape}, expected ({d}, {pd})")
        starts.append(svd_truncate(init, rank))
    return sigmas, starts


def stage1_run(designs, cfgs, rngs):
    """Run the gradient rounds of C federations over the same clients in
    lockstep, member c under cfgs[c] with noise from rngs[c].  Returns the
    (C, d, pd) shared estimates and, per member, its trace: one RoundTrace
    (sigma and each client's gradient norm) per round.  One federation is
    the one-member call.

    The members share rank and rounds and may differ in start, step, noise
    and budget.  A calibrated member spends its budget (eps, delta) evenly
    over the R rounds run, (eps/R, delta/R) per round; a zero-round run
    draws no noise and returns the truncated start.  Each start is
    truncated to rank r once, by SVD.  A round
    takes every (member, client) gradient in one batched product, sums each
    member's noisy gradients with the client weights in client order, and
    makes one ``matops.tangent_step`` over the stack: per member, one
    tangent projection of its aggregate and a factored retraction of the
    rank-2r step.  A step that overflows is refused by it with ValueError.

    In a noisy round a member spawns one child generator from its rngs[c],
    and its clients draw their noise from it in client order; a noise-free
    member spawns nothing.  A member's estimate and trace are therefore
    bitwise those of its one-member call, and a run of n rounds equals n
    chained one-round runs on the same generators, each with a per-round
    budget of (eps/n, delta/n).
    """
    cfgs, rngs = list(cfgs), list(rngs)
    d, pd = _check_designs(designs)
    sigmas, starts = _check_members(cfgs, rngs, d, pd)
    weights = sample_size_weights(designs)
    sxx = np.stack([ds.sxx for ds in designs])
    sxy_t = np.stack([ds.sxy.T for ds in designs])
    rho = np.array([cfg.step_rho for cfg in cfgs])

    a0s = np.stack([a0 for a0, _ in starts])
    factors = SvdFactors.stack([f for _, f in starts])
    traces = [[] for _ in cfgs]
    for n in range(cfgs[0].rounds):
        # local_gradient of every (member, client) pair: (C, K, d, pd)
        grads = 2.0 * (a0s[:, None] @ sxx - sxy_t)
        flat = grads.reshape(-1, d, pd)
        norms = np.sqrt(_dots(flat, flat)).reshape(grads.shape[:2]).tolist()
        noisy = np.empty_like(grads)
        for c, (sigma, rng) in enumerate(zip(sigmas, rngs)):
            noise_rng = rng.spawn(1)[0] if sigma > 0 else None
            for k in range(len(designs)):
                noisy[c, k] = add_gaussian_noise(grads[c, k], sigma, noise_rng)
            traces[c].append(RoundTrace(n, sigma, tuple(norms[c])))
        agg = np.zeros_like(a0s)
        for k, w in enumerate(weights):
            agg += w * noisy[:, k]
        a0s, factors = tangent_step(factors, agg, rho)
    return a0s, traces


def _dots(a, b):
    """Inner products <a_j, b_j> of two (K, d, pd) stacks.  numpy takes
    each by the dot kernel np.vdot uses, so a value does not depend on K
    or on the other members of the stack."""
    n = a.shape[0]
    return np.matmul(a.reshape(n, 1, -1), b.reshape(n, -1, 1)).reshape(n)


def refine_fista(designs, a0_hat, cfgs):
    """Accelerated proximal gradient for a stack of sparse deviations.

    Problem j starts from zero and iterates soft-thresholded gradient
    steps on delta |-> loss_j(a0_hat + delta) + varpi_j ||delta||_1 with
    momentum extrapolation, where loss_j is designs[j]'s loss and the
    frozen shared part a0_hat is the same for every problem.  The
    momentum restarts whenever the last step points against the gradient
    mapping, the gradient scheme of O'Donoghue & Candes (Found. Comput.
    Math., 2015).  Problem j steps by eta_j = default_eta(designs[j]) and
    stops after cfgs[j].iters iterations or once a step is at most
    _FISTA_TOL * max(1, ||delta_j||_F).

    The designs share one (d, pd) shape, and all problems run in one loop:
    each iteration makes one stacked product over the problems still
    running and one soft threshold at their own eta_j varpi_j.  A problem
    that stops leaves the stack, so its iterate, its trace and its
    iteration count are those of a run on its own.  Returns the (K, d, pd)
    final iterates and, per problem, the objective value at each iterate
    run (including the start).
    """
    designs, cfgs = list(designs), list(cfgs)
    d, pd = _check_designs(designs)
    if len(cfgs) != len(designs):
        raise ValueError(f"{len(cfgs)} refinement configs for {len(designs)} designs")
    a0_hat = check_matrix(a0_hat, "a0_hat")
    if a0_hat.shape != (d, pd):
        raise ValueError(
            f"a0_hat shape {a0_hat.shape} incompatible with designs ({d}, {pd})"
        )
    eta = np.array([default_eta(ds) for ds in designs])
    varpi = np.array([c.varpi for c in cfgs])
    caps = np.array([c.iters for c in cfgs])
    n_probs, max_iters = len(designs), int(caps.max())

    # per-problem constants of the working stack, one row per running problem
    live = np.arange(n_probs)
    sxx = np.stack([ds.sxx for ds in designs])
    cross = np.stack([2.0 * ds.sxy.T for ds in designs])
    syy = np.array([ds.syy for ds in designs])
    thresh = (eta * varpi)[:, None, None]
    eta = eta[:, None, None]

    # M(delta) = (a0_hat + delta) sxx is the one product an iteration makes:
    # the gradient at the extrapolated point delta + beta (delta - delta_prev)
    # is 2 (M + beta (M - M_prev)) - cross, and the loss at delta is
    # syy - <a0_hat + delta, cross - M>, design.loss written with M.
    deltas = np.zeros((n_probs, d, pd))
    runs = np.zeros(n_probs, dtype=np.intp)  # iterations each problem ran
    objective = np.empty((max_iters + 1, n_probs))
    delta = deltas.copy()
    extrap = delta
    point = a0_hat + delta
    m = point @ sxx
    grad = 2.0 * m - cross
    objective[0] = syy - _dots(point, cross - m)
    q = np.array(momentum_sequence(max_iters))
    k = np.zeros(n_probs, dtype=np.intp)  # momentum indices, reset by a restart
    done = caps == 0
    for n in range(1, max_iters + 1):
        if done.any():
            keep = ~done
            (live, sxx, cross, syy, varpi, caps, eta, thresh,
             delta, extrap, m, grad, k) = (
                a[keep] for a in (live, sxx, cross, syy, varpi, caps, eta,
                                  thresh, delta, extrap, m, grad, k)
            )
        delta_next = soft_threshold(extrap - eta * grad, thresh)
        step = delta_next - delta
        k[_dots(extrap - delta_next, step) > 0.0] = 0
        beta = ((q[k] - 1.0) / q[k + 1])[:, None, None]
        extrap = delta_next + beta * step
        k += 1
        delta = delta_next
        point = a0_hat + delta
        m_next = point @ sxx
        objective[n, live] = (
            syy
            - _dots(point, cross - m_next)
            + varpi * np.abs(delta).reshape(len(live), -1).sum(axis=1)
        )
        step_norm = np.sqrt(_dots(step, step))
        # an overflowing step gives inf <= inf; leave it to the check below
        done = (caps == n) | (
            np.isfinite(step_norm)
            & (step_norm <= _FISTA_TOL * np.maximum(1.0, np.sqrt(_dots(delta, delta))))
        )
        if done.any():
            # a stopped problem's row leaves the stack at the next iteration
            deltas[live[done]] = delta[done]
            runs[live[done]] = n
            if done.all():
                break
        grad = 2.0 * (m_next + beta * (m_next - m)) - cross
        m = m_next
    if not np.all(np.isfinite(deltas)):
        raise ValueError("FISTA produced a non-finite deviation")
    return deltas, [objective[: r + 1, j] for j, r in enumerate(runs)]


def fit_federated(designs, fed_cfg, fista_cfgs, rng):
    """Two-stage federated fit over the clients' lag designs.

    Stage I is the one-member ``stage1_run`` call under fed_cfg and rng;
    stage II refines every client's deviation in one ``refine_fista``
    call, client k under fista_cfgs[k].  Returns one decomposition per
    client and a FitReport with both stages' traces.
    """
    if len(fista_cfgs) != len(designs):
        raise ValueError(
            f"{len(fista_cfgs)} refinement configs for {len(designs)} clients"
        )
    (a0_hat,), (stage1_trace,) = stage1_run(designs, [fed_cfg], [rng])
    deltas, fista_traces = refine_fista(designs, a0_hat, fista_cfgs)
    decomps = [CoefDecomposition(a0=a0_hat, delta=delta) for delta in deltas]
    report = FitReport(
        a0_hat=a0_hat, stage1_trace=stage1_trace, fista_traces=fista_traces
    )
    return decomps, report
