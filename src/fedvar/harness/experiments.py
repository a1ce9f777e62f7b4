"""Experiment runners: deterministic replications, CSV/JSON emission.

Every replication rebuilds its generator from SeedSequence(seed,
spawn_key=(rep,)), so a replication's records depend only on the seed
and its index, not on how many replications the run has. Noise draws
for private fits come from the separate spawn_key=(rep, 1) stream; grid
cells within a replication therefore share both the simulated world and
the noise directions, which pairs the cells for sharper comparisons.

A simulation kind's replication runs in two steps (``Simulation``).
Its draw builds each of its worlds on a fresh world generator:
``assemble_dgp``, then every client's coefficients checked stationary.
``run_experiment`` gathers the drawn replications into chunks of at
most CHUNK_BYTES of paths and simulates a chunk's worlds in one
``var.simulate_paths`` call, each path bitwise its own ``var.simulate``;
it then fits the whole chunk in one call of the kind's fit, which feeds
every replication of the chunk into the solver stacks one replication
would use, and releases the paths before the next chunk.  Each solver
member is bitwise its one-member call, so records do not depend on the
chunking either.  When a chunk's fit raises, its replications are fitted
again one by one, so a failing replication aborts alone.  rank_table and
single_client_curve draw every sample size of a world from one
generator, so each world is simulated once, at the largest T, and a
smaller T's design is the row prefix of that world's design, bitwise
the design of a world simulated at that T.  The multi-client kinds draw
their clients in turn from one generator, so their sample sizes are not
nested; they only stack.

The empirical protocol reads each client through one lag design: the
coefficients of every method at forecast origin t are fitted on the
design's rows [:t], kept in one cache of row prefixes, and scored on
row t, so no fit looks ahead.  The federation of an origin draws noise
from spawn_key=(0, 1, origin), and the full-sample federation that
``fedvar fit`` saves from spawn_key=(0, 1); all of them are one stacked
``fed_core.fit_federated`` call, and the l1-only baselines are one
stacked ``refine_fista`` call.
The two single-client ADMM methods fit every (client, origin) entry from
zero in one ``fit_admm`` call; an origin's federation starts from the fit
in that stack of its largest client, and the starts not in it are one
more stacked ADMM call.  The simulation
kinds fit all of a chunk's single-client problems in one ``fit_admm``
call; a k or T sweep starts its federations from those fits, and a
privacy heatmap fits its starts in one more call.  A T sweep fits every
world's federation in one ``fit_federated`` call.  A K sweep fits the
federations of each replication's first k clients, for every k of its
grid, in one stacked ``stage1_run`` call, and a privacy heatmap each
replication's noise-free cell and all its (eps, delta) cells in
another.  Every member of a replication is given that replication's one
noise generator object, so a stage-1 run shares one stream among them:
each round makes one standard-normal draw whose rows are the noise of
every noisy member's clients in turn, each member reading what it would
draw run alone on a fresh generator of the stream.  Distinct
replications' generators are distinct objects of distinct seeds, so
their streams stay distinct.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .. import __version__, fed_core, metrics, rank_select, single_client, var
from ..dp import NoisePolicy
from ..matops import svd_truncate
from .config import FORMAT_VERSION, config_hash
from .panels import load_panels

log = logging.getLogger("fedvar.harness")

# Innovation rows every simulated path discards before its presample.
_BURN_IN = 200
# Bytes of simulated paths one chunk of replications holds at most (a
# replication larger than this is a chunk of its own): at d = 20, four
# rank_table or eight privacy_heatmap replications.
CHUNK_BYTES = 4 * 2**20

FIELDNAMES = {
    "single_client_curve": ("rep", "t_len", "metric", "value"),
    "rank_table": ("rep", "true_rank", "t_len", "metric", "value"),
    "privacy_heatmap": ("rep", "noise", "eps", "delta", "metric", "value"),
    "k_sweep": ("rep", "n_clients", "metric", "value"),
    "t_sweep": ("rep", "t_len", "metric", "value"),
    "empirical": ("rep", "client", "method", "variable", "metric", "value"),
}

EMPIRICAL_METHODS = (
    "federated",
    "single_nuc_l1",
    "single_nuclear",
    "single_l1",
    "least_squares",
)


@dataclass(frozen=True)
class RunResult:
    out_dir: str
    raw_csv: str
    summary_json: str
    manifest_json: str
    records: tuple
    summary: dict
    manifest: dict


def resolve_threads():
    """Replications run serially in the calling thread, so this is 1.

    Only the benchmark's machine record (``perfbench/run.py``) still
    imports it; it goes with the next change to the benchmark.
    """
    return 1


def _world_rng(seed, rep):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def _noise_rng(seed, rep, *extra):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 1, *extra)))


def admm_config(design, cfg):
    """Single-client ADMM penalties for one design under the config's scales."""
    return single_client.default_admm_config(
        design, lam_scale=cfg.lam_scale, omega_scale=cfg.omega_scale, zeta=cfg.zeta
    )


@dataclass(frozen=True)
class World:
    """One drawn world before simulation: the shared part a0, one deviation
    per client, the sample size every client is simulated at, and the
    generator its clients draw their innovations from, in client order."""

    a0: np.ndarray
    deltas: list
    t_len: int
    rng: np.random.Generator


def _draw_world(cfg, rep, k, t_len, rank=None):
    """A world of k clients on the replication's own world generator, each
    client's coefficients checked stationary, so a world that cannot be
    simulated aborts its replication alone, before its chunk runs."""
    rng = _world_rng(cfg.seed, rep)
    a0, deltas = var.assemble_dgp(
        cfg.d,
        cfg.p,
        cfg.rank if rank is None else rank,
        k,
        rng,
        q=cfg.q,
        s_q=cfg.s_q,
        ratio=cfg.ratio,
        target_radius=cfg.target_radius,
    )
    for dl in deltas:
        var.check_stationary(a0 + dl, cfg.p)
    return World(a0=a0, deltas=deltas, t_len=t_len, rng=rng)


def _simulate_worlds(cfg, worlds):
    """Every world's client panels, in world order, from one
    ``var.simulate_paths`` call; each is bitwise its own ``simulate``."""
    paths = [(w.a0 + dl, w.t_len, w.rng) for w in worlds for dl in w.deltas]
    if not paths:
        return [[] for _ in worlds]
    coefs, t_lens, rngs = zip(*paths)
    panels = iter(var.simulate_paths(coefs, cfg.p, t_lens, rngs, _BURN_IN))
    return [[next(panels) for _ in w.deltas] for w in worlds]


def _path_bytes(cfg, worlds):
    """Bytes of the (paths, longest path, d) stack that simulates
    ``worlds``."""
    t_lens = [w.t_len for w in worlds for _ in w.deltas]
    if not t_lens:
        return 0
    return len(t_lens) * (_BURN_IN + cfg.p + max(t_lens)) * cfg.d * 8


def _row_prefix(full, t):
    """Rows [:t] of a lag design: the design of the path's first t
    observations, bitwise, since a C-ordered row prefix stays C-ordered."""
    return full if t == full.t_len else var.LagDesign(x=full.x[:t], y=full.y[:t])


def _noise_policy(cfg, eps, delta):
    """The config's noise mode at (eps, delta), spent over the whole run."""
    if cfg.noise_mode == "fixed_scale":
        return NoisePolicy.fixed(eps, delta, scale=cfg.kappa)
    if cfg.noise_mode == "calibrated":
        return NoisePolicy.calibrated(cfg.sensitivity, eps, delta)
    return NoisePolicy.none()


def fed_config(cfg, design_sets, fitted=()):
    """The federated configs of runs over each list of designs in
    ``design_sets``, one per list, in order.

    rounds is cfg.rounds or ceil(10 log sum_k T_k); the step is
    rho_scale over the pooled Gram operator norm; the start is the
    rank-truncated single-client ADMM fit of the largest client, the
    lowest-indexed one among clients of equal size; the noise is
    cfg.noise_mode at (cfg.eps, cfg.delta) over all the rounds.
    ``fitted`` holds (design, fit) pairs of single-client ADMM fits under
    the config's scales that the caller already has, as ``fit_single``
    returns them; a largest design among them (by identity) starts from
    its fit, bitwise the start a new fit would give.  The distinct
    largest designs (by identity) without a fit are fitted in one
    ``fit_single`` stack, and every distinct start is truncated in one
    stacked ``svd_truncate`` call; lists that share a largest design
    share its start.
    """
    known = {id(ds): dec for ds, dec in fitted}
    largest = [max(designs, key=lambda ds: ds.t_len) for designs in design_sets]
    distinct = list({id(ds): ds for ds in largest}.values())
    todo = [ds for ds in distinct if id(ds) not in known]
    if todo:
        known.update(zip(map(id, todo), fit_single(cfg, todo)))
    starts, _ = svd_truncate(np.stack([known[id(ds)].a0 for ds in distinct]), cfg.rank)
    inits = dict(zip(map(id, distinct), starts))
    fcfgs = []
    for designs, big in zip(design_sets, largest):
        rounds = cfg.rounds
        if rounds is None:
            rounds = fed_core.default_rounds(sum(ds.t_len for ds in designs))
        rho = cfg.rho_scale / fed_core.pooled_operator_norm(designs)
        fcfgs.append(fed_core.FedConfig(
            rank=cfg.rank, rounds=rounds, step_rho=rho, init_a0=inits[id(big)],
            noise=_noise_policy(cfg, cfg.eps, cfg.delta),
        ))
    return fcfgs


def refine_penalty(cfg, design):
    """Refinement penalty varpi_scale sqrt(log(pd) / T) for one design."""
    return float(cfg.varpi_scale * np.sqrt(np.log(design.pd) / design.t_len))


def fit_single(cfg, designs):
    """Each design's single-client ADMM fit under the config's scales, all
    in one stacked ``fit_admm`` call."""
    decomps, _ = single_client.fit_admm(designs, [admm_config(ds, cfg) for ds in designs])
    return decomps


def _draw_single_client_curve(cfg, rep):
    # nested sample sizes: one world at the largest T, the others its prefixes
    return [_draw_world(cfg, rep, 1, max(cfg.t_grid))]


def _per_rep(items, n):
    """Consecutive slices of ``n`` items, one per replication of a chunk."""
    return [items[i : i + n] for i in range(0, len(items), n)]


def _fit_single_client_curve(cfg, chunk):
    """Every sample size of every replication in one stacked ADMM call."""
    fulls = [var.lag_design(panel) for _, _, ((panel,),) in chunk]
    decomps = fit_single(cfg, [_row_prefix(full, t) for full in fulls for t in cfg.t_grid])
    out = []
    for (rep, (world,), _), fits in zip(chunk, _per_rep(decomps, len(cfg.t_grid))):
        recs = []
        for t_len, dec in zip(cfg.t_grid, fits):
            errs = _fit_errors([dec], world.a0, world.deltas)
            for part in ("ak", "a0", "delta"):
                recs.append({"rep": rep, "t_len": t_len, "metric": f"{part}_err",
                             "value": errs[part][0]})
        out.append(recs)
    return out


def _draw_rank_table(cfg, rep):
    # one world per true rank at the largest T, the smaller T its prefixes
    return [_draw_world(cfg, rep, 1, max(cfg.t_grid), rank=r) for r in cfg.rank_grid]


def _fit_rank_table(cfg, chunk):
    """Every (true rank, T) cell of every replication in one stacked ADMM
    call."""
    fulls = [var.lag_design(pn) for _, _, panels in chunk for (pn,) in panels]
    cells = [(r, t) for r in cfg.rank_grid for t in cfg.t_grid]
    decomps = fit_single(cfg, [_row_prefix(full, t) for full in fulls for t in cfg.t_grid])
    out = []
    for (rep, _, _), fits in zip(chunk, _per_rep(decomps, len(cells))):
        recs = []
        for (true_rank, t_len), dec in zip(cells, fits):
            picked = rank_select.client_rank(dec.a0, t_len)
            base = {"rep": rep, "true_rank": true_rank, "t_len": t_len}
            recs.append({**base, "metric": "selected_rank", "value": picked})
            recs.append({**base, "metric": "correct", "value": int(picked == true_rank)})
        out.append(recs)
    return out


def _draw_privacy_heatmap(cfg, rep):
    return [_draw_world(cfg, rep, cfg.n_clients, cfg.t_len)]


def _fit_privacy_heatmap(cfg, chunk):
    """A noise-free cell, then one cell per (delta, eps) pair of the grids
    under cfg.noise_mode, every cell of every replication fitted in one
    stacked stage-1 call; a replication's cells share its world, its
    start and its one noise generator object, so each noisy cell reads
    the noise it would draw run alone."""
    design_sets = [[var.lag_design(pn) for pn in client_panels]
                   for _, _, (client_panels,) in chunk]
    grid = [(eps, dl) for dl in (cfg.delta_grid or (cfg.delta,)) for eps in cfg.eps_grid]
    cells = [("none", "", "")] + [(cfg.noise_mode, eps, dl) for eps, dl in grid]
    members, fcfgs = [], []
    for designs, base in zip(design_sets, fed_config(cfg, design_sets)):
        members += [designs] * len(cells)
        fcfgs.append(replace(base, noise=NoisePolicy.none()))
        fcfgs += [replace(base, noise=_noise_policy(cfg, eps, dl)) for eps, dl in grid]
    a0_hats, _ = fed_core.stage1_run(
        members, fcfgs,
        [g for rep, _, _ in chunk for g in [_noise_rng(cfg.seed, rep)] * len(cells)],
    )
    out = []
    for (rep, (world,), _), hats in zip(chunk, _per_rep(a0_hats, len(cells))):
        out.append([
            {"rep": rep, "noise": mode, "eps": eps, "delta": dl, "metric": "a0_err",
             "value": float(np.linalg.norm(a0_hat - world.a0))}
            for (mode, eps, dl), a0_hat in zip(cells, hats)
        ])
    return out


def _fit_errors(decomps, a0, deltas):
    errs = {"a0": [], "delta": [], "ak": []}
    for dec, dl in zip(decomps, deltas):
        errs["a0"].append(float(np.linalg.norm(dec.a0 - a0)))
        errs["delta"].append(float(np.linalg.norm(dec.delta - dl)))
        errs["ak"].append(float(np.linalg.norm(dec.a - (a0 + dl))))
    return errs


def _draw_k_sweep(cfg, rep):
    return [_draw_world(cfg, rep, max(cfg.k_grid), cfg.t_len)]


def _fit_k_sweep(cfg, chunk):
    """Every client of every replication in one stacked ADMM call, and
    every replication's federations of its first k clients, for every k
    of the grid, in one stacked stage-1 call, each replication's on its
    one noise generator object."""
    clients = [[var.lag_design(pn) for pn in client_panels]
               for _, _, (client_panels,) in chunk]
    flat = [ds for designs in clients for ds in designs]
    fits = fit_single(cfg, flat)
    design_sets = [designs[:k] for designs in clients for k in cfg.k_grid]
    a0_hats, _ = fed_core.stage1_run(
        design_sets,
        fed_config(cfg, design_sets, zip(flat, fits)),
        [g for rep, _, _ in chunk for g in [_noise_rng(cfg.seed, rep)] * len(cfg.k_grid)],
    )
    out = []
    per_rep = zip(chunk, _per_rep(fits, max(cfg.k_grid)), _per_rep(a0_hats, len(cfg.k_grid)))
    for (rep, (world,), _), rep_fits, hats in per_rep:
        singles = _fit_errors(rep_fits, world.a0, world.deltas)
        recs = []
        for k, a0_hat in zip(cfg.k_grid, hats):
            fed_err = float(np.linalg.norm(a0_hat - world.a0))
            single_mean = float(np.mean(singles["a0"][:k]))
            base = {"rep": rep, "n_clients": k}
            recs.append({**base, "metric": "fed_a0_err", "value": fed_err})
            recs.append({**base, "metric": "single_a0_err_mean", "value": single_mean})
            recs.append({**base, "metric": "benefit_a0", "value": single_mean - fed_err})
        out.append(recs)
    return out


def _draw_t_sweep(cfg, rep):
    # one world per sample size, each on a fresh world generator; its
    # clients draw in turn, so the sizes are not row prefixes of each other
    return [_draw_world(cfg, rep, cfg.n_clients, t) for t in cfg.t_grid]


def _fit_t_sweep(cfg, chunk):
    """Every world's single-client fits, over every replication, are one
    stacked ADMM call, which also gives each federation its start.  The
    worlds' federations are one ``fit_federated`` call; a replication's
    worlds share its one noise generator object, so each reads the noise
    it would draw run alone."""
    design_sets = [[var.lag_design(pn) for pn in client_panels]
                   for _, _, panels in chunk for client_panels in panels]
    flat = [ds for designs in design_sets for ds in designs]
    single_fits = fit_single(cfg, flat)
    fed_fits, _ = fed_core.fit_federated(
        design_sets,
        fed_config(cfg, design_sets, zip(flat, single_fits)),
        [[refine_penalty(cfg, ds) for ds in designs] for designs in design_sets],
        [g for rep, worlds, _ in chunk for g in [_noise_rng(cfg.seed, rep)] * len(worlds)],
    )
    k, n_worlds = cfg.n_clients, len(cfg.t_grid)
    out = []
    for (rep, worlds, _), rep_singles, rep_feds in zip(
        chunk, _per_rep(single_fits, n_worlds * k), _per_rep(fed_fits, n_worlds)
    ):
        recs = []
        for i, (t_len, world, fitted) in enumerate(zip(cfg.t_grid, worlds, rep_feds)):
            singles = _fit_errors(rep_singles[i * k : (i + 1) * k], world.a0, world.deltas)
            fed = _fit_errors(fitted, world.a0, world.deltas)
            fed_a0, fed_ak = fed["a0"][0], float(np.mean(fed["ak"]))
            base = {"rep": rep, "t_len": t_len}
            for metric, value in (
                ("fed_a0_err", fed_a0),
                ("fed_delta_err_mean", float(np.mean(fed["delta"]))),
                ("fed_ak_err_mean", fed_ak),
                ("single_a0_err_mean", float(np.mean(singles["a0"]))),
                ("single_delta_err_mean", float(np.mean(singles["delta"]))),
                ("single_ak_err_mean", float(np.mean(singles["ak"]))),
                ("benefit_a0", float(np.mean(singles["a0"])) - fed_a0),
                ("benefit_ak", float(np.mean(singles["ak"])) - fed_ak),
            ):
                recs.append({**base, "metric": metric, "value": value})
        out.append(recs)
    return out


def empirical_rmsfe(cfg, designs, rep):
    """RMSFE records of every method for each client's full lag design
    (``var.lag_design`` of its loaded panel), in the order of cfg.panels,
    tagged with replication ``rep`` and the client's PanelSpec.label, and
    the full-sample federated fit: one decomposition per client.

    Client k forecasts from the origins t = T_k - n_origins, ..., T_k - 1;
    a design too short for that, or a rank outside [1, d], raises
    ValueError before any fit.  Each
    method fits a table of coefficients keyed by (k, t): entry (k, t) is
    fitted on rows [:t] of client k's design, a row prefix kept in one
    cache, and scored on row t, predicting y[t] by the entry times x[t],
    so no fit looks ahead.  The federation of origin t is fitted once, on
    rows [:min(t, T_k)] of every client's design, with noise from
    spawn_key=(0, 1, t), and refines every client at t, including those
    that do not forecast from t; the full-sample fit is one more
    federation, at origin max T_k over every whole design, with noise from
    spawn_key=(0, 1).  All these federations are one ``fit_federated``
    call.  The two ADMM methods fit every (client, origin) entry from zero,
    all of them under both methods in one ``fit_admm`` call; each
    federation of an origin starts from the nuclear + l1 fit of its largest
    client there when that fit is in the stack, and the other starts (the
    full-sample fit's among them) are one more stacked ADMM call.  The
    l1-only baselines are one ``refine_fista`` call.
    """
    lengths = [ds.t_len for ds in designs]
    for spec, length in zip(cfg.panels, lengths):
        if not 1 <= cfg.n_origins <= length - 1:
            raise ValueError(
                f"n_origins {cfg.n_origins} outside [1, {length - 1}] "
                f"for panel {spec.path}"
            )
    if not 1 <= cfg.rank <= designs[0].d:
        raise ValueError(f"rank {cfg.rank} outside [1, d={designs[0].d}] for the panels")
    origins = [(k, t) for k, length in enumerate(lengths)
               for t in range(length - cfg.n_origins, length)]

    @functools.cache
    def design(k, t):
        return _row_prefix(designs[k], t)

    prefixes = [design(k, t) for k, t in origins]
    acfgs = [admm_config(ds, cfg) for ds in prefixes]
    admm_fits, _ = single_client.fit_admm(
        prefixes * 2, acfgs + [single_client.nuclear_only_config(c) for c in acfgs]
    )
    nuc_l1, nuclear = admm_fits[: len(origins)], admm_fits[len(origins) :]

    # every origin's federation; the last member, at origin max T_k, is the
    # full-sample fit
    fed_origins = sorted({t for _, t in origins})
    design_sets = [
        [design(k, min(origin, t)) for k, t in enumerate(lengths)]
        for origin in [*fed_origins, max(lengths)]
    ]
    fed_fits, _ = fed_core.fit_federated(
        design_sets,
        fed_config(cfg, design_sets, zip(prefixes, nuc_l1)),
        [[refine_penalty(cfg, ds) for ds in designs] for designs in design_sets],
        [_noise_rng(cfg.seed, 0, origin) for origin in fed_origins]
        + [_noise_rng(cfg.seed, 0)],
    )
    full_fit = fed_fits.pop()

    # the l1-only baseline: the ADMM fit's penalty omega around a zero
    # shared part, capped at 500 iterations
    zero = np.zeros((len(prefixes), prefixes[0].d, prefixes[0].pd))
    l1_deltas, _ = fed_core.refine_fista(prefixes, zero, [c.omega for c in acfgs], 500)

    tables = {
        "federated": {(k, t): dec.a for t, fits in zip(fed_origins, fed_fits)
                      for k, dec in enumerate(fits)},
        "single_nuc_l1": {o: dec.a for o, dec in zip(origins, nuc_l1)},
        "single_nuclear": {o: dec.a for o, dec in zip(origins, nuclear)},
        "single_l1": dict(zip(origins, l1_deltas)),
        "least_squares": {o: single_client.fit_baseline(ds) for o, ds in zip(origins, prefixes)},
    }

    recs = []
    for k, (spec, full) in enumerate(zip(cfg.panels, designs)):
        scored = range(full.t_len - cfg.n_origins, full.t_len)
        for method in EMPIRICAL_METHODS:
            predicted = np.array([tables[method][k, t] @ full.x[t] for t in scored])
            per_var, agg = metrics.rmsfe(
                full.y[scored.start :], predicted, aggregate=cfg.rmsfe_agg
            )
            base = {"rep": rep, "client": spec.label, "method": method, "metric": "rmsfe"}
            for j, value in enumerate(per_var.tolist()):
                recs.append({**base, "variable": j + 1, "value": value})
            recs.append({**base, "variable": "all", "value": agg})
    return recs, full_fit


def _rep_empirical(cfg, rep):
    panels = load_panels(cfg.panels, cfg.p)
    return empirical_rmsfe(cfg, [var.lag_design(pn) for pn in panels], rep)[0]


class Simulation(NamedTuple):
    """A simulation kind's replication in two steps.  ``draw(cfg, rep)``
    returns the replication's worlds, drawn on its own world generator.
    ``fit(cfg, chunk)`` takes a chunk of replications, a list of (rep,
    worlds, panels) with each world's list of client panels, and returns
    each replication's records in chunk order; it fits the whole chunk in
    the solver stacks one replication would use, so a replication's
    records are bitwise those of its one-element chunk."""

    draw: Callable
    fit: Callable


SIMULATIONS = {
    "single_client_curve": Simulation(_draw_single_client_curve, _fit_single_client_curve),
    "rank_table": Simulation(_draw_rank_table, _fit_rank_table),
    "privacy_heatmap": Simulation(_draw_privacy_heatmap, _fit_privacy_heatmap),
    "k_sweep": Simulation(_draw_k_sweep, _fit_k_sweep),
    "t_sweep": Simulation(_draw_t_sweep, _fit_t_sweep),
}


def _format_cell(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_raw(path, fieldnames, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for rec in records:
            writer.writerow([_format_cell(rec[name]) for name in fieldnames])


def _summarize(records, fieldnames):
    label_names = [n for n in fieldnames if n not in ("rep", "value")]
    groups = {}
    for rec in records:
        key = "|".join(f"{n}={rec[n]}" for n in label_names)
        groups.setdefault(key, []).append(float(rec["value"]))
    out = {}
    for key, values in groups.items():
        band = metrics.percentile_band(values)
        out[key] = {
            "mean": band.mean,
            "p5": band.lo,
            "p95": band.hi,
            "n": len(values),
        }
    return out


def _run_dir(cfg):
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = os.path.join(cfg.out_dir, cfg.kind, stamp)
    path, n = base, 1
    while os.path.exists(path):
        path = f"{base}-{n}"
        n += 1
    return path


def _guarded(cfg, rep, step):
    """step(), or None, logged as replication rep's abort, if it raises."""
    try:
        return step()
    except Exception:
        log.exception("replication %d of seed %d aborted", rep, cfg.seed)
        return None


def _run_simulation(cfg, sim):
    """Every replication's records, or None for one that aborted, in
    replication order.  Replications are drawn one after another and
    gathered into chunks of at most CHUNK_BYTES of paths; each chunk's
    worlds are simulated in one ``var.simulate_paths`` call, the chunk is
    fitted in one ``sim.fit`` call, and its paths are released before the
    next chunk is simulated.  A draw that raises aborts its replication
    alone.  So does a fit: when a chunk's fit raises, its replications are
    fitted again one by one, and only those that raise alone abort, each
    with its own log line.  Warnings the failed stacked fit gave may then
    repeat."""
    results = [None] * cfg.reps

    def run(chunk):
        panels = iter(_simulate_worlds(cfg, [w for _, worlds in chunk for w in worlds]))
        items = [(rep, worlds, [next(panels) for _ in worlds]) for rep, worlds in chunk]
        if len(items) > 1:
            try:
                for (rep, _, _), recs in zip(items, sim.fit(cfg, items), strict=True):
                    results[rep] = recs
                return
            except Exception:
                pass  # refit one by one below, so a failure aborts its replication alone
        for item in items:
            results[item[0]] = _guarded(cfg, item[0], lambda: sim.fit(cfg, [item])[0])

    chunk = []
    for rep in range(cfg.reps):
        worlds = _guarded(cfg, rep, lambda: sim.draw(cfg, rep))
        if worlds is None:
            continue
        if chunk and _path_bytes(cfg, [w for _, ws in chunk for w in ws] + worlds) > CHUNK_BYTES:
            run(chunk)
            chunk = []
        chunk.append((rep, worlds))
    if chunk:
        run(chunk)
    return results


def run_experiment(cfg, run_dir=None):
    """Run every replication of ``cfg`` and write raw.csv, summary.json,
    manifest.json.  The config is complete and checked once it is built
    (see ``ExperimentConfig``), so no value outside its range reaches a
    replication.

    Replications run in the calling thread, simulated and fitted a chunk
    at a time (see ``_run_simulation``), and their records are emitted in
    replication order. A replication whose
    draw or fit raises is logged and skipped; the run fails once more than 1% of
    replications abort.  An empirical run has one replication, whose
    errors propagate: a missing or mismatched panel, or an n_origins too
    large for a panel, raises ValueError before any fit.
    """
    fieldnames = FIELDNAMES[cfg.kind]
    if cfg.kind == "empirical":
        # one replication over fixed panels, with no abort to tolerate: its
        # errors propagate, a bad panel or n_origins as a ValueError
        results = [_rep_empirical(cfg, 0)]
    else:
        results = _run_simulation(cfg, SIMULATIONS[cfg.kind])

    aborted = sum(r is None for r in results)
    if aborted > 0.01 * cfg.reps:
        raise RuntimeError(
            f"{aborted} of {cfg.reps} replications aborted; see the log for seeds"
        )
    records = []
    for result in results:
        if result is not None:
            records.extend(result)

    out_dir = run_dir if run_dir is not None else _run_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    raw_csv = os.path.join(out_dir, "raw.csv")
    summary_json = os.path.join(out_dir, "summary.json")
    manifest_json = os.path.join(out_dir, "manifest.json")

    _write_raw(raw_csv, fieldnames, records)

    summary = {
        "format_version": FORMAT_VERSION,
        "experiment": cfg.kind,
        "replications": cfg.reps,
        "aborted_replications": aborted,
        "groups": _summarize(records, fieldnames),
    }
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    manifest = {
        "format_version": FORMAT_VERSION,
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "replications": cfg.reps,
        "aborted_replications": aborted,
    }
    if cfg.kind == "empirical":
        manifest["sensitive_indices"] = {s.label: list(s.sensitive) for s in cfg.panels}
    with open(manifest_json, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        out_dir=out_dir,
        raw_csv=raw_csv,
        summary_json=summary_json,
        manifest_json=manifest_json,
        records=tuple(records),
        summary=summary,
        manifest=manifest,
    )
