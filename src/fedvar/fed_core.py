"""Federated two-stage estimation.

A client is summarised by the sufficient statistics of its lag design,
(sxx, sxy, syy) = (X'X/T, X'Y/T, tr(Y'Y)/T), computed once per design;
no round or iteration below touches the raw T x pd data.

Stage I iterates privatized gradient rounds on the shared low-rank
component from the start ``FedConfig.init_a0``, truncated to rank r
(``harness.fed_config`` builds it from the largest client's
single-client fit, as ``initial_shared_estimate`` does with
``single_client.fit_admm``): each client computes its local loss
gradient at the current iterate and adds Gaussian noise; the server sums
the noisy gradients with the sample-size weights T_k / T, projects the
sum once onto the tangent space of the fixed-rank manifold (the
projection is linear, so this equals the weighted sum of projected
gradients) and retracts to rank r.  Projection and retraction are one
factored step, ``matops.tangent_step``: a thin QR and the SVD of a
d x 2r core, never a full SVD.  The message a client sends per round is
that one d x pd gradient.  ``stage1_run`` runs any number of federations
(members of one rank, each with its own clients' designs, number of
clients, start, step, noise, generator and number of rounds) in one
lockstep loop: a round takes every (member, client) gradient in one
batched product and makes one tangent step over the members still
running, a member leaves the stack once its rounds are run, and its
result is bitwise that of its one-member call.  A member's noise is one
``dp.NoisePolicy``, its (epsilon, delta) included, and a step at or past
1 / lambda_max of its pooled Gram matrix is refused.  Members given one
generator object share its noise stream: the object spawns its round
generators once, and each round draws one standard-normal block, from
which every client of every such member takes its row.  Distinct objects
are distinct streams, whatever their seeds.  The harness fits the cells
of a privacy heatmap, and the client counts of a K sweep, in one call
each, with one generator object per replication, so each such call
draws a replication's noise once per round.

Stage II refines each client's sparse deviation by accelerated proximal
gradient (FISTA) around a frozen shared estimate.  ``refine_fista`` is
one stacked loop over any number of same-shape problems, each with its
own shared estimate and l1 penalty, under one iteration cap: each
iteration makes one batched product and one soft threshold for every
problem still running, and each problem stops on its own, so a problem's
result does not depend on what it is stacked with.  The harness fits the
l1-only baseline (shared part zero) of every forecast origin in one call.

``fit_federated`` is the two-stage fit, stacked like its stages: one
``stage1_run`` over its federations, then one ``refine_fista`` over every
(federation, client) pair around that federation's estimate, capped at
_REFINE_ITERS.  The harness fits the sample sizes of a T sweep, and every
forecast origin of the empirical comparison together with its
full-sample fit, in one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dp import NoisePolicy, add_gaussian_noise, round_sigma
from .matops import (
    SvdFactors,
    _dots,
    check_matrix,
    soft_threshold,
    svd_truncate,
    tangent_step,
)
from . import single_client
from .single_client import _check_designs
from .var import CoefDecomposition

# refine_fista stops once a step is at most this times max(1, ||delta||_F);
# 1e-8 left the acceptance oracle's sparse-only gap at 2e-5, 1e-10 at 6e-8
_FISTA_TOL = 1e-10
# fit_federated's refinement cap; it binds on every call, each measured
# refinement stopping at it short of _FISTA_TOL (ROADMAP item 8)
_REFINE_ITERS = 20


@dataclass
class FedConfig:
    """Controls for the shared-component gradient rounds.

    init_a0 is the start, truncated to rank r before the first round;
    ``harness.fed_config`` builds it from the largest client.  ``noise``
    holds the run's (epsilon, delta), which a calibrated policy spends
    evenly over the ``rounds`` rounds run.
    """

    rank: int
    rounds: int
    step_rho: float
    init_a0: np.ndarray
    noise: NoisePolicy = field(default_factory=NoisePolicy.none)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.step_rho < 0:
            raise ValueError("step_rho must be nonnegative")


@dataclass(frozen=True)
class RoundTrace:
    """Per-round diagnostics of one gradient round."""

    round_index: int
    sigma: float
    grad_norms: tuple


@dataclass(frozen=True)
class FistaState:
    """How one problem of a refine_fista call stopped: the iterations run,
    and whether a step met the tolerance (False for a problem stopped by
    its cap alone)."""

    iterations: int
    converged: bool


@dataclass
class FitReport:
    """Diagnostics of one federation's two-stage fit: stage I's
    RoundTraces and one FistaState per client, of at most _REFINE_ITERS."""

    stage1_trace: list
    fista_states: list


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


def pooled_operator_norm(designs):
    """Top eigenvalue of the pooled Gram sum_k T_k sxx_k / sum_k T_k, if > 0."""
    total = sum(ds.t_len for ds in designs)
    gram = sum(ds.t_len * ds.sxx for ds in designs) / total
    top = float(np.linalg.eigvalsh(gram)[-1])
    if top <= 0:
        raise ValueError("degenerate designs: zero pooled Gram matrix")
    return top


def _check_rank(rank, d, pd):
    if not 1 <= rank <= min(d, pd):
        raise ValueError(f"rank {rank} outside [1, {min(d, pd)}]")


def initial_shared_estimate(designs, rank, admm_cfgs):
    """Starts of several federations, a (n, d, pd) stack: for each of n
    same-shape designs, its single-client ADMM estimate under the matching
    config, truncated to ``rank``.  The fits are one stacked ``fit_admm``
    call and the truncations one stacked ``svd_truncate`` call, so each
    start is bitwise that of a one-design call."""
    _check_rank(rank, *_check_designs(designs))
    decomps, _ = single_client.fit_admm(designs, admm_cfgs)
    return svd_truncate(np.stack([dec.a0 for dec in decomps]), rank)[0]


def _check_members(design_sets, cfgs, rngs):
    """The (d, pd) shape of every member's clients, each member's sigma,
    and the checked (C, d, pd) stack of their starts ``init_a0``, after
    the checks of one federation; the stack must share rank, and each
    step lie inside the stability bound."""
    if not cfgs:
        raise ValueError("need at least one federation config")
    if len(rngs) != len(cfgs):
        raise ValueError(f"{len(rngs)} generators for {len(cfgs)} federation configs")
    if len(design_sets) != len(cfgs):
        raise ValueError(
            f"{len(design_sets)} client lists for {len(cfgs)} federation configs"
        )
    d, pd = _check_designs([ds for designs in design_sets for ds in designs])
    rank = cfgs[0].rank
    _check_rank(rank, d, pd)
    sigmas, inits = [], []
    for c, (designs, cfg) in enumerate(zip(design_sets, cfgs)):
        if not designs:
            raise ValueError(f"member {c} has no clients")
        if cfg.rank != rank:
            raise ValueError(f"member {c} has rank {cfg.rank}, member 0 has rank {rank}")
        init = check_matrix(cfg.init_a0, "init_a0")
        if init.shape != (d, pd):
            raise ValueError(f"init_a0 shape {init.shape}, expected ({d}, {pd})")
        bound = 1.0 / pooled_operator_norm(designs)
        if cfg.step_rho >= bound:
            raise ValueError(f"member {c}: step_rho {cfg.step_rho} is at or past "
                             f"the stability bound 1 / lambda_max(S) = {bound}")
        sigmas.append(round_sigma(cfg.noise, cfg.rounds))
        inits.append(init)
    return d, pd, sigmas, np.stack(inits)


def _noise_streams(rngs, cfgs, sigmas, sizes):
    """The noise stream of each generator object given to a noisy member,
    keyed by the object's id: the round generators it spawns, as many as
    its longest noisy member runs, and the client count of its widest."""
    streams = {}
    for rng, cfg, sigma, size in zip(rngs, cfgs, sigmas, sizes):
        if sigma > 0:
            _, rounds, width = streams.get(id(rng), (rng, 0, 0))
            streams[id(rng)] = (rng, max(rounds, cfg.rounds), max(width, size))
    return {key: (rng.spawn(rounds), width) for key, (rng, rounds, width) in streams.items()}


def stage1_run(design_sets, cfgs, rngs):
    """Run the gradient rounds of C federations in lockstep, member c over
    the clients design_sets[c] under cfgs[c] with noise from rngs[c].
    Returns the (C, d, pd) shared estimates and, per member, its trace:
    one RoundTrace (sigma and each client's gradient norm) per round run.
    One federation is the one-member call.

    Every client is of one (d, pd) shape and the members share rank; they
    may differ in their clients' designs, number of clients, start, step,
    noise and number of rounds.  A member of fewer clients than the
    largest is padded with zero-weight clients of zero data, which draw
    no noise and add zero to its sum; its trace holds its own clients'
    gradient norms only.  A calibrated member spends its policy's (eps,
    delta) evenly over the R rounds it runs, (eps/R, delta/R) per round;
    a zero-round member draws no noise and returns its truncated start.
    The starts are truncated to rank r once, all in one stacked
    ``matops.svd_truncate`` call.  A round takes every (member, client)
    gradient in one batched product, sums each member's noisy gradients
    with its own client weights in client order, and makes one
    ``matops.tangent_step`` over the stack: per member, one tangent
    projection of its aggregate and a factored retraction of the rank-2r
    step.  A member that has run its rounds leaves the stack.  Before any
    round, a member whose step_rho is at or past 1 / lambda_max(S), S the
    pooled Gram matrix of its clients (``pooled_operator_norm``), is
    refused with ValueError: the pooled loss has Hessian 2 S, so such a
    step does not contract along S's top direction, which lies in the
    tangent space.  A step that overflows is refused by ``tangent_step``.

    A noisy member spawns its R round generators from its rngs[c] in one
    ``spawn(R)`` call, which gives the children of R ``spawn(1)`` calls.
    Round n draws one (K, d, pd) standard-normal block from child n, K
    the member's number of clients, and client k's noise is sigma times
    row k: bitwise the K (d, pd) draws its clients would make from child
    n in client order.  ``add_gaussian_noise`` is still called once per
    (member, client, round).  Members given the same generator object
    share its stream: the object calls ``spawn`` once, for as many round
    generators as the longest of its noisy members runs, and each round
    draws one block as wide as the widest of them, so one object passed
    for several members gives them shared noise (``var.simulate_paths``,
    by contrast, has paths on one object draw from it in turn).  Distinct
    objects are distinct streams, whatever their seeds, so N members that
    need independent noise take N generators of distinct seeds.  A
    noise-free member spawns nothing and reads no draw.  A member's
    estimate and trace are therefore bitwise those of its one-member call
    on a generator in the state rngs[c] had at the call, and a run of n
    rounds equals n chained one-round runs on the same generators, each
    calibrated at (eps/n, delta/n).
    """
    cfgs, rngs = list(cfgs), list(rngs)
    design_sets = [list(designs) for designs in design_sets]
    d, pd, sigmas, inits = _check_members(design_sets, cfgs, rngs)
    sizes = [len(designs) for designs in design_sets]
    n_clients = max(sizes)
    # per-member constants of the working stack, one row per running member,
    # a member of fewer clients padded with zero-weight clients of zero data
    weights = np.zeros((len(cfgs), n_clients, 1, 1))
    sxx = np.zeros((len(cfgs), n_clients, pd, pd))
    sxy_t = np.zeros((len(cfgs), n_clients, d, pd))
    for c, designs in enumerate(design_sets):
        weights[c, : sizes[c], 0, 0] = sample_size_weights(designs)
        sxx[c, : sizes[c]] = [ds.sxx for ds in designs]
        sxy_t[c, : sizes[c]] = [ds.sxy.T for ds in designs]
    rho = np.array([cfg.step_rho for cfg in cfgs])
    rounds = np.array([cfg.rounds for cfg in cfgs])
    streams = _noise_streams(rngs, cfgs, sigmas, sizes)
    quiet = [None] * n_clients  # a noise-free member's clients read no draw

    a0s, factors = svd_truncate(inits, cfgs[0].rank)
    out = np.empty_like(a0s)  # each member's estimate, filled as it leaves
    live = np.arange(len(cfgs))
    traces = [[] for _ in cfgs]
    ends = set(rounds.tolist())
    for n in range(int(rounds.max())):
        if n in ends:
            # the members that have run their n rounds leave the stack
            gone = rounds[live] == n
            out[live[gone]] = a0s[gone]
            keep = ~gone
            live, weights, sxx, sxy_t, rho, a0s, u, s, v = (
                a[keep] for a in (live, weights, sxx, sxy_t, rho, a0s,
                                  factors.u, factors.s, factors.v)
            )
            factors = SvdFactors(u=u, s=s, v=v)
        # local_gradient of every (member, client) pair: (C, K, d, pd), in
        # place, bitwise 2.0 * (a0 @ sxx - sxy.T)
        grads = a0s[:, None] @ sxx
        grads -= sxy_t
        grads *= 2.0
        flat = grads.reshape(-1, d, pd)
        norms = np.sqrt(_dots(flat, flat)).reshape(grads.shape[:2]).tolist()
        # one standard-normal block per stream still running, as wide as
        # its largest member: client k's noise is row k, bitwise its own
        # (d, pd) draw in client order
        blocks = {
            key: gens[n].standard_normal((width, d, pd))
            for key, (gens, width) in streams.items() if n < len(gens)
        }
        noisy = np.empty_like(grads)
        for j, c in enumerate(live.tolist()):
            sigma = sigmas[c]
            z = blocks[id(rngs[c])] if sigma > 0 else quiet
            for k in range(sizes[c]):
                noisy[j, k] = add_gaussian_noise(grads[j, k], sigma, z[k])
            noisy[j, sizes[c] :] = 0.0  # padding: no noise, and zero weight
            traces[c].append(RoundTrace(n, sigma, tuple(norms[j][: sizes[c]])))
        # each member's weighted sum, in client order; IEEE * commutes, so
        # weighting in place gives the bytes of weights * noisy
        noisy *= weights
        agg = np.zeros_like(a0s)
        for k in range(n_clients):
            agg += noisy[:, k]
        a0s, factors = tangent_step(factors, agg, rho)
    out[live] = a0s
    return out, traces


def refine_fista(designs, a0_hats, varpis, iters):
    """Accelerated proximal gradient for a stack of sparse deviations.

    Problem j starts from zero and iterates soft-thresholded gradient
    steps on delta |-> loss_j(a0_hats[j] + delta) + varpis[j] ||delta||_1
    with momentum extrapolation, where loss_j is designs[j]'s loss and
    a0_hats[j] its frozen shared part.  The momentum restarts whenever
    the last step points against the gradient mapping, the gradient
    scheme of O'Donoghue & Candes (Found. Comput. Math., 2015).  Problem
    j steps by eta_j = default_eta(designs[j]) and stops after ``iters``,
    the call's one cap, or once a step is at most _FISTA_TOL *
    max(1, ||delta_j||_F).  A negative or NaN penalty, or a negative cap,
    raises ValueError.

    The designs share one (d, pd) shape, ``a0_hats`` is a (K, d, pd)
    stack of finite shared parts, one per problem, and all problems run
    in one loop: each iteration makes one stacked product over the
    problems still running and one soft threshold at their own
    eta_j varpi_j.  A problem that stops leaves the stack, so its
    iterate and its FistaState are those of a run on its own.  Returns
    the (K, d, pd) final iterates and, per problem, a FistaState: the
    iterations run and whether the step rule stopped it.
    """
    designs = list(designs)
    d, pd = _check_designs(designs)
    n_probs = len(designs)
    varpis = np.asarray(varpis, dtype=np.float64)
    if varpis.shape != (n_probs,):
        raise ValueError(f"{varpis.size} penalties for {n_probs} designs")
    if not (varpis >= 0).all():  # NaN fails the comparison too
        raise ValueError("penalties must be nonnegative")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    a0 = np.asarray(a0_hats, dtype=np.float64)
    if a0.shape != (n_probs, d, pd):
        raise ValueError(
            f"a0_hats shape {a0.shape} incompatible with {n_probs} designs "
            f"of shape ({d}, {pd})"
        )
    if not np.isfinite(a0).all():
        raise ValueError("a0_hats contains non-finite entries")
    eta = np.array([default_eta(ds) for ds in designs])

    # per-problem constants of the working stack, one row per running problem
    live = np.arange(n_probs)
    sxx = np.stack([ds.sxx for ds in designs])
    cross = np.stack([2.0 * ds.sxy.T for ds in designs])
    thresh = (eta * varpis)[:, None, None]
    eta = eta[:, None, None]

    # M(delta) = (a0 + delta) sxx is the one product an iteration makes:
    # the gradient at the extrapolated point delta + beta (delta - delta_prev)
    # is 2 (M + beta (M - M_prev)) - cross.
    deltas = np.zeros((n_probs, d, pd))
    runs = np.zeros(n_probs, dtype=np.intp)  # iterations each problem ran
    converged = np.zeros(n_probs, dtype=bool)  # stopped by the step rule
    delta = deltas.copy()
    extrap = delta
    m = (a0 + delta) @ sxx
    grad = 2.0 * m - cross
    q = np.array(momentum_sequence(iters))
    k = np.zeros(n_probs, dtype=np.intp)  # momentum indices, reset by a restart
    done = np.zeros(n_probs, dtype=bool)
    for n in range(1, iters + 1):
        if done.any():
            keep = ~done
            live, a0, sxx, cross, eta, thresh, delta, extrap, m, grad, k = (
                a[keep] for a in (live, a0, sxx, cross, eta, thresh,
                                  delta, extrap, m, grad, k)
            )
        delta_next = soft_threshold(extrap - eta * grad, thresh)
        step = delta_next - delta
        k[_dots(extrap - delta_next, step) > 0.0] = 0
        beta = ((q[k] - 1.0) / q[k + 1])[:, None, None]
        extrap = delta_next + beta * step
        k += 1
        delta = delta_next
        m_next = (a0 + delta) @ sxx
        step_norm = np.sqrt(_dots(step, step))
        # an overflowing step gives inf <= inf; leave it to the check below
        small = np.isfinite(step_norm) & (
            step_norm <= _FISTA_TOL * np.maximum(1.0, np.sqrt(_dots(delta, delta)))
        )
        done = small | (n == iters)
        if done.any():
            # a stopped problem's row leaves the stack at the next iteration
            deltas[live[done]] = delta[done]
            runs[live[done]] = n
            converged[live[done]] = small[done]
            if done.all():
                break
        grad = 2.0 * (m_next + beta * (m_next - m)) - cross
        m = m_next
    if not np.all(np.isfinite(deltas)):
        raise ValueError("FISTA produced a non-finite deviation")
    return deltas, [FistaState(int(r), bool(c)) for r, c in zip(runs, converged)]


def fit_federated(design_sets, fed_cfgs, varpis, rngs):
    """Two-stage federated fits of C federations over their clients' lag
    designs, member c over design_sets[c] under fed_cfgs[c], the
    refinement penalties varpis[c] (one per client) and the generator
    rngs[c].

    Stage I is one ``stage1_run`` call over the members, so members given
    one generator object share its noise stream; stage II refines
    every (member, client) deviation around its member's estimate in one
    ``refine_fista`` call, capped at _REFINE_ITERS iterations.  Returns,
    per member, one decomposition per client, each holding the member's
    shared estimate as its a0, and a FitReport with its stage-I trace and
    its clients' FistaStates; a member's results are bitwise those of its
    one-member call.
    """
    n_pens, n_clients = [len(v) for v in varpis], [len(d) for d in design_sets]
    if n_pens != n_clients:
        raise ValueError(f"refinement penalties per member {n_pens}, clients {n_clients}")
    a0_hats, stage1_traces = stage1_run(design_sets, fed_cfgs, rngs)
    deltas, fista_states = refine_fista(
        [ds for designs in design_sets for ds in designs],
        np.repeat(a0_hats, n_clients, axis=0),
        [v for member in varpis for v in member],
        _REFINE_ITERS,
    )
    ends = np.cumsum(n_clients).tolist()
    parts = [slice(end - k, end) for k, end in zip(n_clients, ends)]
    decomps = [[CoefDecomposition(a0=a0, delta=dl) for dl in deltas[part]]
               for a0, part in zip(a0_hats, parts)]
    reports = [FitReport(stage1_trace=trace, fista_states=fista_states[part])
               for trace, part in zip(stage1_traces, parts)]
    return decomps, reports
