"""Experiment runners: deterministic replications, CSV/JSON emission.

Every replication rebuilds its generator from SeedSequence(seed,
spawn_key=(rep,)), so a replication's records depend only on the seed
and its index, not on how many replications the run has. Noise draws
for private fits come from the separate spawn_key=(rep, 1) stream; grid
cells within a replication therefore share both the simulated world and
the noise directions, which pairs the cells for sharper comparisons.
The empirical protocol reads each client through one lag design: the
coefficients of every method at forecast origin t are fitted on the
design's rows [:t], kept in one cache of row prefixes, and scored on
row t, so no fit looks ahead.  The federation of an origin draws noise
from spawn_key=(0, 1, origin), and the full-sample federation that
``fedvar fit`` saves from spawn_key=(0, 1); all of them are one stacked
``fed_core.fit_federated`` call, and the l1-only baselines are one
stacked ``refine_fista`` call.
The two single-client ADMM methods fit one stack per origin step, every
client's fit under both methods in one ``fit_admm`` call, each
warm-started from its own fit at the step before; the starts of all the
federations are one more stacked ADMM call.  The simulation
kinds fit all of a replication's single-client problems in one
``fit_admm`` call, and the starts of all its federations in another.
A T sweep fits its worlds' federations in one ``fit_federated`` call.
A privacy heatmap fits its noise-free cell and all its (eps, delta)
cells in one stacked ``stage1_run`` call; each cell keeps its own
generator, built from the replication's noise stream, so a cell's draws
do not depend on the other cells.  Within a stage-1 run, each noisy
round spawns one generator from a member's stream and its clients draw
from it in turn.  Before rounds drew this
way (one spawned generator per client per round), the same stream gave
other draws, so noisy results from earlier versions differ; noise-free
results are unchanged up to rounding (within 1e-12 relative).
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .. import __version__, fed_core, metrics, rank_select, single_client, var
from ..dp import NoisePolicy, PrivacyBudget
from .config import FORMAT_VERSION, config_hash
from .panels import load_panels

log = logging.getLogger("fedvar.harness")

DEFAULT_GRIDS = {
    "single_client_curve": {"t_grid": (200, 400, 800, 1600)},
    "rank_table": {"t_grid": (400, 1600), "rank_grid": (1, 2, 3)},
    "privacy_heatmap": {"eps_grid": (0.5, 1.0, 2.0, 4.0)},
    "k_sweep": {"k_grid": (2, 5, 10)},
    "t_sweep": {"t_grid": (200, 400, 800)},
    "empirical": {},
}

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


def _pooled_operator_norm(designs):
    """Top eigenvalue of the pooled sum_k T_k sxx_k / sum_k T_k, if nonzero."""
    total = sum(ds.t_len for ds in designs)
    gram = sum(ds.t_len * ds.sxx for ds in designs) / total
    top = float(np.linalg.eigvalsh(gram)[-1])
    if top <= 0:
        raise ValueError("degenerate designs: zero pooled Gram matrix")
    return top


def _world(cfg, rng, k, rank=None, t_len=None):
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
    t = cfg.t_len if t_len is None else t_len
    panels = [var.simulate(a0 + dl, cfg.p, t, rng) for dl in deltas]
    return a0, deltas, panels


def _with_privacy(fcfg, cfg, eps=None, delta=None):
    """``fcfg`` with the config's noise mode at (eps, delta), which default
    to the config's own eps and delta; the budget covers the whole run."""
    if cfg.noise_mode == "none":
        return replace(fcfg, noise=NoisePolicy.none(), budget=None)
    eps = cfg.eps if eps is None else eps
    delta = cfg.delta if delta is None else delta
    budget = PrivacyBudget(epsilon=eps, delta=delta)
    if cfg.noise_mode == "fixed_scale":
        noise = NoisePolicy.fixed(scale=cfg.kappa)
    else:
        noise = NoisePolicy.calibrated(sensitivity=cfg.sensitivity)
    return replace(fcfg, noise=noise, budget=budget)


def fed_config(cfg, design_sets):
    """The federated configs of runs over each list of designs in
    ``design_sets``, one per list, in order.

    rounds is cfg.rounds or ceil(10 log sum_k T_k); the step is
    rho_scale over the pooled Gram operator norm; the start is the
    rank-truncated ADMM fit of the largest client, the lowest-indexed
    one among clients of equal size; the noise is cfg.noise_mode at
    (cfg.eps, cfg.delta) over all the rounds.  Every list's start comes
    from one stacked ``initial_shared_estimate`` call, which fits each
    distinct largest design (by identity) once; lists that share it
    share its start.
    """
    largest = [max(designs, key=lambda ds: ds.t_len) for designs in design_sets]
    distinct = list({id(ds): ds for ds in largest}.values())
    fits = fed_core.initial_shared_estimate(
        distinct, cfg.rank, [admm_config(ds, cfg) for ds in distinct]
    )
    inits = dict(zip(map(id, distinct), fits))
    fcfgs = []
    for designs, big in zip(design_sets, largest):
        rounds = cfg.rounds
        if rounds is None:
            rounds = fed_core.default_rounds(sum(ds.t_len for ds in designs))
        rho = cfg.rho_scale / _pooled_operator_norm(designs)
        fcfg = fed_core.FedConfig(
            rank=cfg.rank, rounds=rounds, step_rho=rho, init_a0=inits[id(big)]
        )
        fcfgs.append(_with_privacy(fcfg, cfg))
    return fcfgs


def fista_config(cfg, design):
    """Refinement penalty varpi_scale sqrt(log(pd) / T) for one design."""
    varpi = cfg.varpi_scale * np.sqrt(np.log(design.pd) / design.t_len)
    return fed_core.FistaConfig(varpi=varpi, iters=cfg.fista_iters)


def _fit_single(cfg, designs):
    """Each design's single-client ADMM fit under the config's scales, all
    in one stacked ``fit_admm`` call."""
    decomps, _ = single_client.fit_admm(designs, [admm_config(ds, cfg) for ds in designs])
    return decomps


def _rep_single_client_curve(cfg, rep):
    worlds = []
    for t_len in cfg.t_grid:
        rng = _world_rng(cfg.seed, rep)
        worlds.append(_world(cfg, rng, 1, t_len=t_len))
    decomps = _fit_single(cfg, [var.lag_design(panels[0]) for _, _, panels in worlds])
    recs = []
    for t_len, (a0, deltas, _), dec in zip(cfg.t_grid, worlds, decomps):
        errs = _fit_errors([dec], a0, deltas)
        for part in ("ak", "a0", "delta"):
            recs.append({"rep": rep, "t_len": t_len, "metric": f"{part}_err",
                         "value": errs[part][0]})
    return recs


def _rep_rank_table(cfg, rep):
    cells = [(r, t) for r in cfg.rank_grid for t in cfg.t_grid]
    designs = []
    for true_rank, t_len in cells:
        rng = _world_rng(cfg.seed, rep)
        _, _, panels = _world(cfg, rng, 1, rank=true_rank, t_len=t_len)
        designs.append(var.lag_design(panels[0]))
    recs = []
    for (true_rank, t_len), dec in zip(cells, _fit_single(cfg, designs)):
        picked = rank_select.client_rank(dec.a0, t_len)
        base = {"rep": rep, "true_rank": true_rank, "t_len": t_len}
        recs.append({**base, "metric": "selected_rank", "value": picked})
        recs.append({**base, "metric": "correct", "value": int(picked == true_rank)})
    return recs


def _rep_privacy_heatmap(cfg, rep):
    """A noise-free cell, then one cell per (delta, eps) pair of the grids
    under cfg.noise_mode, fitted in one stacked stage-1 call; every cell
    shares the world and the start, and draws from its own generator on
    the replication's noise stream."""
    rng = _world_rng(cfg.seed, rep)
    a0, deltas, panels = _world(cfg, rng, cfg.n_clients)
    designs = [var.lag_design(pn) for pn in panels]
    (base,) = fed_config(cfg, [designs])
    deltas_grid = cfg.delta_grid or (cfg.delta,)

    cells = [("none", None, None, replace(base, noise=NoisePolicy.none(), budget=None))]
    for dl in deltas_grid:
        for eps in cfg.eps_grid:
            cells.append((cfg.noise_mode, eps, dl, _with_privacy(base, cfg, eps, dl)))

    a0_hats, _ = fed_core.stage1_run(
        [designs] * len(cells),
        [fcfg for _, _, _, fcfg in cells],
        [_noise_rng(cfg.seed, rep) for _ in cells],
    )
    recs = []
    for (mode, eps, dl, _), a0_hat in zip(cells, a0_hats):
        recs.append(
            {
                "rep": rep,
                "noise": mode,
                "eps": "" if eps is None else eps,
                "delta": "" if dl is None else dl,
                "metric": "a0_err",
                "value": float(np.linalg.norm(a0_hat - a0)),
            }
        )
    return recs


def _fit_errors(decomps, a0, deltas):
    errs = {"a0": [], "delta": [], "ak": []}
    for dec, dl in zip(decomps, deltas):
        errs["a0"].append(float(np.linalg.norm(dec.a0 - a0)))
        errs["delta"].append(float(np.linalg.norm(dec.delta - dl)))
        errs["ak"].append(float(np.linalg.norm(dec.a - (a0 + dl))))
    return errs


def _rep_k_sweep(cfg, rep):
    k_max = max(cfg.k_grid)
    rng = _world_rng(cfg.seed, rep)
    a0, deltas, panels = _world(cfg, rng, k_max)
    designs = [var.lag_design(pn) for pn in panels]
    singles = _fit_errors(_fit_single(cfg, designs), a0, deltas)

    recs = []
    fcfgs = fed_config(cfg, [designs[:k] for k in cfg.k_grid])
    for k, fcfg in zip(cfg.k_grid, fcfgs):
        sub = designs[:k]
        (a0_hat,), _ = fed_core.stage1_run([sub], [fcfg], [_noise_rng(cfg.seed, rep)])
        fed_err = float(np.linalg.norm(a0_hat - a0))
        single_mean = float(np.mean(singles["a0"][:k]))
        base = {"rep": rep, "n_clients": k}
        recs.append({**base, "metric": "fed_a0_err", "value": fed_err})
        recs.append({**base, "metric": "single_a0_err_mean", "value": single_mean})
        recs.append({**base, "metric": "benefit_a0", "value": single_mean - fed_err})
    return recs


def _rep_t_sweep(cfg, rep):
    """One world per sample size; every world's single-client fits are one
    stacked ADMM call.  The worlds' federations are one ``fit_federated``
    call, each on its own generator from the replication's noise stream."""
    worlds = []
    for t_len in cfg.t_grid:
        rng = _world_rng(cfg.seed, rep)
        a0, deltas, panels = _world(cfg, rng, cfg.n_clients, t_len=t_len)
        worlds.append((a0, deltas, [var.lag_design(pn) for pn in panels]))
    design_sets = [designs for _, _, designs in worlds]
    single_fits = _fit_single(cfg, [ds for designs in design_sets for ds in designs])
    fed_fits, _ = fed_core.fit_federated(
        design_sets,
        fed_config(cfg, design_sets),
        [[fista_config(cfg, ds) for ds in designs] for designs in design_sets],
        [_noise_rng(cfg.seed, rep) for _ in design_sets],
    )
    k = cfg.n_clients

    recs = []
    for i, (t_len, (a0, deltas, _), fitted) in enumerate(zip(cfg.t_grid, worlds, fed_fits)):
        singles = _fit_errors(single_fits[i * k : (i + 1) * k], a0, deltas)
        fed = _fit_errors(fitted, a0, deltas)
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
    return recs


def empirical_rmsfe(cfg, designs, rep):
    """RMSFE records of every method for each client's full lag design
    (``var.lag_design`` of its loaded panel), in the order of cfg.panels,
    tagged with replication ``rep`` and the client's PanelSpec.label, and
    the full-sample federated fit: one decomposition per client.

    Client k forecasts from the origins t = T_k - n_origins, ..., T_k - 1
    (a design too short for that raises ValueError before any fit).  Each
    method fits a table of coefficients keyed by (k, t): entry (k, t) is
    fitted on rows [:t] of client k's design, a row prefix kept in one
    cache, and scored on row t, predicting y[t] by the entry times x[t],
    so no fit looks ahead.  The federation of origin t is fitted once, on
    rows [:min(t, T_k)] of every client's design, with noise from
    spawn_key=(0, 1, t), and refines every client at t, including those
    that do not forecast from t; the full-sample fit is one more
    federation, at origin max T_k over every whole design, with noise from
    spawn_key=(0, 1).  All these federations are one ``fit_federated``
    call, and their starts one stacked ADMM call.  The l1-only baselines
    are one ``refine_fista`` call.  The two ADMM methods
    fit every client's origins in increasing order, as one stack per
    origin step: step j fits, for every client and both methods, its j-th
    origin in one ``fit_admm`` call, each fit started from its own fit at
    step j - 1.
    """
    lengths = [ds.t_len for ds in designs]
    for spec, length in zip(cfg.panels, lengths):
        if not 1 <= cfg.n_origins <= length - 1:
            raise ValueError(
                f"n_origins {cfg.n_origins} outside [1, {length - 1}] "
                f"for panel {spec.path}"
            )
    origins = [(k, t) for k, length in enumerate(lengths)
               for t in range(length - cfg.n_origins, length)]

    @functools.cache
    def design(k, t):
        full = designs[k]
        return full if t == full.t_len else var.LagDesign(x=full.x[:t], y=full.y[:t])

    full_fit = None

    def federated():
        nonlocal full_fit
        # the last member, at origin max T_k, is the full-sample fit
        fed_origins = sorted({t for _, t in origins})
        members = [*fed_origins, max(lengths)]
        design_sets = [
            [design(k, min(origin, t)) for k, t in enumerate(lengths)] for origin in members
        ]
        decomps, _ = fed_core.fit_federated(
            design_sets,
            fed_config(cfg, design_sets),
            [[fista_config(cfg, ds) for ds in designs] for designs in design_sets],
            [_noise_rng(cfg.seed, 0, origin) for origin in fed_origins]
            + [_noise_rng(cfg.seed, 0)],
        )
        full_fit = decomps.pop()
        return {(k, t): dec.a for t, fits in zip(fed_origins, decomps)
                for k, dec in enumerate(fits)}

    def single_l1():
        designs = [design(k, t) for k, t in origins]
        omegas = [cfg.omega_scale * np.sqrt(np.log(ds.pd) / ds.t_len) for ds in designs]
        cfgs = [single_client.l1_only_config(omega) for omega in omegas]
        zero = np.zeros((len(designs), designs[0].d, designs[0].pd))
        deltas, _ = fed_core.refine_fista(designs, zero, cfgs)
        return dict(zip(origins, deltas))

    @functools.cache
    def admm():
        # one chain per (client, method); step j stacks every chain's j-th fit
        chains = [(k, nuclear_only) for nuclear_only in (False, True)
                  for k in range(len(lengths))]
        tables = {False: {}, True: {}}
        starts = [None] * len(chains)
        for j in range(cfg.n_origins):
            steps = [(k, lengths[k] - cfg.n_origins + j) for k, _ in chains]
            designs = [design(k, t) for k, t in steps]
            acfgs = [admm_config(ds, cfg) for ds in designs]
            acfgs = [single_client.nuclear_only_config(acfg) if nuclear_only else acfg
                     for acfg, (_, nuclear_only) in zip(acfgs, chains)]
            decomps, report = single_client.fit_admm(designs, acfgs, starts)
            for (_, nuclear_only), step, dec in zip(chains, steps, decomps):
                tables[nuclear_only][step] = dec.a
            starts = [state.final for state in report.members]
        return tables

    fits = {
        "federated": federated,
        "single_nuc_l1": lambda: admm()[False],
        "single_nuclear": lambda: admm()[True],
        "single_l1": single_l1,
        "least_squares": lambda: {
            (k, t): single_client.fit_baseline(design(k, t)) for k, t in origins
        },
    }
    tables = {method: fits[method]() for method in EMPIRICAL_METHODS}

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


REP_FUNCTIONS = {
    "single_client_curve": _rep_single_client_curve,
    "rank_table": _rep_rank_table,
    "privacy_heatmap": _rep_privacy_heatmap,
    "k_sweep": _rep_k_sweep,
    "t_sweep": _rep_t_sweep,
    "empirical": _rep_empirical,
}


def _fill_grids(cfg):
    updates = {}
    for name, default in DEFAULT_GRIDS[cfg.kind].items():
        if not getattr(cfg, name):
            updates[name] = default
    if cfg.kind == "empirical":
        updates["reps"] = 1
    return replace(cfg, **updates) if updates else cfg


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


def run_experiment(cfg, run_dir=None):
    """Run every replication and write raw.csv, summary.json, manifest.json.

    Replications run one after another in the calling thread, and their
    records are emitted in replication order. A replication that raises
    is logged and skipped; the run fails once more than 1% of
    replications abort.  An empirical run has one replication, whose
    errors propagate: a missing or mismatched panel, or an n_origins too
    large for a panel, raises ValueError before any fit.  A privacy
    heatmap needs a noise mode other than "none" and raises ValueError
    before any replication.
    """
    cfg = _fill_grids(cfg)
    if cfg.kind == "privacy_heatmap" and cfg.noise_mode == "none":
        raise ValueError(
            "privacy_heatmap needs noise_mode fixed_scale or calibrated, got 'none'"
        )
    rep_fn = REP_FUNCTIONS[cfg.kind]
    fieldnames = FIELDNAMES[cfg.kind]

    def worker(rep):
        try:
            return rep_fn(cfg, rep)
        except Exception:
            log.exception("replication %d of seed %d aborted", rep, cfg.seed)
            return None

    if cfg.kind == "empirical":
        # one replication over fixed panels, with no abort to tolerate: its
        # errors propagate, a bad panel or n_origins as a ValueError
        results = [rep_fn(cfg, 0)]
    else:
        results = [worker(rep) for rep in range(cfg.reps)]

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
