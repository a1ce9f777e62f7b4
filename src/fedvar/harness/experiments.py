"""Experiment runners: deterministic replications, CSV/JSON emission.

Every replication rebuilds its generator from SeedSequence(seed,
spawn_key=(rep,)), so records are identical whatever the thread count or
scheduling order. Noise draws for private fits come from the separate
spawn_key=(rep, 1) stream; grid cells within a replication therefore
share both the simulated world and the noise directions, which pairs the
cells for sharper comparisons.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .. import __version__, fed_core, metrics, rank_select, single_client, var
from ..dp import NoisePolicy, PrivacyBudget
from .config import FORMAT_VERSION, config_hash
from .panels import load_panel

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
    """Worker count: FEDVAR_THREADS if set, else min(8, cpu count)."""
    raw = os.environ.get("FEDVAR_THREADS", "").strip()
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("FEDVAR_THREADS must be a positive integer")
        return n
    return min(8, os.cpu_count() or 1)


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
    """Top eigenvalue of the pooled sum_k T_k sxx_k / sum_k T_k."""
    total = sum(ds.t_len for ds in designs)
    gram = sum(ds.t_len * ds.sxx for ds in designs) / total
    return float(np.linalg.eigvalsh(gram)[-1])


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
    panels = [
        var.simulate(a0 + dl, cfg.p, t, rng, client_id=str(i + 1))
        for i, dl in enumerate(deltas)
    ]
    return a0, deltas, panels


def _with_privacy(fcfg, cfg, eps=None, delta=None):
    """``fcfg`` with the config's noise mode at (eps, delta), which default
    to the config's own eps and delta; the budget spans fcfg.rounds."""
    if cfg.noise_mode == "none":
        return replace(fcfg, noise=NoisePolicy.none(), budget=None)
    eps = cfg.eps if eps is None else eps
    delta = cfg.delta if delta is None else delta
    budget = PrivacyBudget(epsilon=eps, delta=delta, rounds=fcfg.rounds)
    if cfg.noise_mode == "fixed_scale":
        noise = NoisePolicy.fixed(scale=cfg.kappa)
    else:
        noise = NoisePolicy.calibrated(sensitivity=cfg.sensitivity)
    return replace(fcfg, noise=noise, budget=budget)


def fed_config(cfg, designs):
    """The federated config of a run over ``designs``.

    rounds is cfg.rounds or ceil(10 log sum_k T_k); the step is
    rho_scale over the pooled Gram operator norm; the start is the
    rank-truncated ADMM fit of the largest client; the noise is
    cfg.noise_mode at (cfg.eps, cfg.delta) over all the rounds.
    """
    rounds = cfg.rounds
    if rounds is None:
        rounds = fed_core.default_rounds(sum(ds.t_len for ds in designs))
    rho = cfg.rho_scale / _pooled_operator_norm(designs)
    sizes = [ds.t_len for ds in designs]
    init = fed_core.initial_shared_estimate(
        designs, cfg.rank, admm_config(designs[int(np.argmax(sizes))], cfg)
    )
    fcfg = fed_core.FedConfig(rank=cfg.rank, rounds=rounds, step_rho=rho, init_a0=init)
    return _with_privacy(fcfg, cfg)


def fista_config(cfg, design):
    """Refinement penalty varpi_scale sqrt(log(pd) / T) for one design."""
    varpi = cfg.varpi_scale * np.sqrt(np.log(design.pd) / design.t_len)
    return fed_core.FistaConfig(varpi=varpi, iters=cfg.fista_iters)


def _rep_single_client_curve(cfg, rep):
    recs = []
    for t_len in cfg.t_grid:
        rng = _world_rng(cfg.seed, rep)
        a0, deltas, panels = _world(cfg, rng, 1, t_len=t_len)
        a_true = a0 + deltas[0]
        design = var.lag_design(panels[0])
        dec, _ = single_client.fit_admm(design, admm_config(design, cfg))
        for metric, value in (
            ("ak_err", np.linalg.norm(dec.a - a_true)),
            ("a0_err", np.linalg.norm(dec.a0 - a0)),
            ("delta_err", np.linalg.norm(dec.delta - deltas[0])),
        ):
            recs.append(
                {"rep": rep, "t_len": t_len, "metric": metric, "value": float(value)}
            )
    return recs


def _rep_rank_table(cfg, rep):
    recs = []
    rcfg = rank_select.RankConfig(r_bar=rank_select.default_r_bar(cfg.d, cfg.p * cfg.d))
    for true_rank in cfg.rank_grid:
        for t_len in cfg.t_grid:
            rng = _world_rng(cfg.seed, rep)
            a0, deltas, panels = _world(cfg, rng, 1, rank=true_rank, t_len=t_len)
            design = var.lag_design(panels[0])
            dec, _ = single_client.fit_admm(design, admm_config(design, cfg))
            picked = rank_select.client_rank(dec.a0, t_len, rcfg)
            base = {"rep": rep, "true_rank": true_rank, "t_len": t_len}
            recs.append({**base, "metric": "selected_rank", "value": picked})
            recs.append({**base, "metric": "correct", "value": int(picked == true_rank)})
    return recs


def _rep_privacy_heatmap(cfg, rep):
    """A noise-free cell, then one cell per (delta, eps) pair of the grids
    under cfg.noise_mode; every cell shares the world, the start and the
    noise stream."""
    rng = _world_rng(cfg.seed, rep)
    a0, deltas, panels = _world(cfg, rng, cfg.n_clients)
    designs = [var.lag_design(pn) for pn in panels]
    base = fed_config(cfg, designs)
    deltas_grid = cfg.delta_grid or (cfg.delta,)

    cells = [("none", None, None, replace(base, noise=NoisePolicy.none(), budget=None))]
    for dl in deltas_grid:
        for eps in cfg.eps_grid:
            cells.append((cfg.noise_mode, eps, dl, _with_privacy(base, cfg, eps, dl)))

    recs = []
    for mode, eps, dl, fcfg in cells:
        a0_hat, _ = fed_core.stage1_run(designs, fcfg, _noise_rng(cfg.seed, rep))
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


def _single_client_errors(cfg, designs, a0, deltas):
    errs = {"a0": [], "delta": [], "ak": []}
    for ds, dl in zip(designs, deltas):
        dec, _ = single_client.fit_admm(ds, admm_config(ds, cfg))
        errs["a0"].append(float(np.linalg.norm(dec.a0 - a0)))
        errs["delta"].append(float(np.linalg.norm(dec.delta - dl)))
        errs["ak"].append(float(np.linalg.norm(dec.a - (a0 + dl))))
    return errs


def _rep_k_sweep(cfg, rep):
    k_max = max(cfg.k_grid)
    rng = _world_rng(cfg.seed, rep)
    a0, deltas, panels = _world(cfg, rng, k_max)
    designs = [var.lag_design(pn) for pn in panels]
    singles = _single_client_errors(cfg, designs, a0, deltas)

    recs = []
    for k in cfg.k_grid:
        sub = designs[:k]
        fcfg = fed_config(cfg, sub)
        a0_hat, _ = fed_core.stage1_run(sub, fcfg, _noise_rng(cfg.seed, rep))
        fed_err = float(np.linalg.norm(a0_hat - a0))
        single_mean = float(np.mean(singles["a0"][:k]))
        base = {"rep": rep, "n_clients": k}
        recs.append({**base, "metric": "fed_a0_err", "value": fed_err})
        recs.append({**base, "metric": "single_a0_err_mean", "value": single_mean})
        recs.append({**base, "metric": "benefit_a0", "value": single_mean - fed_err})
    return recs


def _rep_t_sweep(cfg, rep):
    recs = []
    for t_len in cfg.t_grid:
        rng = _world_rng(cfg.seed, rep)
        a0, deltas, panels = _world(cfg, rng, cfg.n_clients, t_len=t_len)
        designs = [var.lag_design(pn) for pn in panels]
        singles = _single_client_errors(cfg, designs, a0, deltas)

        decomps, _ = fed_core.fit_federated(
            panels,
            fed_config(cfg, designs),
            fista_config(cfg, designs[0]),
            _noise_rng(cfg.seed, rep),
        )
        fed_a0 = float(np.linalg.norm(decomps[0].a0 - a0))
        fed_delta = float(
            np.mean([np.linalg.norm(dc.delta - dl) for dc, dl in zip(decomps, deltas)])
        )
        fed_ak = float(
            np.mean([np.linalg.norm(dc.a - (a0 + dl)) for dc, dl in zip(decomps, deltas)])
        )
        base = {"rep": rep, "t_len": t_len}
        for metric, value in (
            ("fed_a0_err", fed_a0),
            ("fed_delta_err_mean", fed_delta),
            ("fed_ak_err_mean", fed_ak),
            ("single_a0_err_mean", float(np.mean(singles["a0"]))),
            ("single_delta_err_mean", float(np.mean(singles["delta"]))),
            ("single_ak_err_mean", float(np.mean(singles["ak"]))),
            ("benefit_a0", float(np.mean(singles["a0"])) - fed_a0),
            ("benefit_ak", float(np.mean(singles["ak"])) - fed_ak),
        ):
            recs.append({**base, "metric": metric, "value": value})
    return recs


def _prefix_designs(panels, origin, client):
    """Lag designs for one client's forecast origin across the federation.

    The target client contributes exactly its first `origin`
    observations; every other client contributes what it has up to that
    same time index, so no fit sees data at or beyond the target time.
    """
    designs = []
    for j, pn in enumerate(panels):
        t = origin if j == client else min(origin, pn.t_len)
        designs.append(var.lag_design(pn.prefix(t)))
    return designs


def _federated_forecaster(cfg, panels, client):
    def forecast(prefix_panel):
        origin = prefix_panel.t_len
        designs = _prefix_designs(panels, origin, client)
        nrng = _noise_rng(cfg.seed, 0, client, origin)
        a0_hat, _ = fed_core.stage1_run(designs, fed_config(cfg, designs), nrng)
        delta, _ = fed_core.refine_fista(
            designs[client], a0_hat, fista_config(cfg, designs[client])
        )
        full = np.vstack([prefix_panel.presample, prefix_panel.observations])
        return var.forecast_one_step(a0_hat + delta, full[-cfg.p:])

    return forecast


def _single_forecaster(cfg, method):
    def forecast(prefix_panel):
        design = var.lag_design(prefix_panel)
        anchors = {
            "lam": cfg.lam_scale * np.sqrt(design.pd / design.t_len),
            "omega": cfg.omega_scale * np.sqrt(np.log(design.pd) / design.t_len),
        }
        if method == "single_nuc_l1":
            dec, _ = single_client.fit_admm(design, admm_config(design, cfg))
            coef = dec.a
        elif method == "single_nuclear":
            coef = single_client.fit_baseline(
                design, "nuclear_only", tuning={"lam": anchors["lam"], "zeta": cfg.zeta}
            )
        elif method == "single_l1":
            coef = single_client.fit_baseline(
                design, "l1_only", tuning={"omega": anchors["omega"]}
            )
        elif method == "least_squares":
            coef = single_client.fit_baseline(design, "least_squares")
        else:
            raise ValueError(f"unknown method {method!r}")
        full = np.vstack([prefix_panel.presample, prefix_panel.observations])
        return var.forecast_one_step(coef, full[-cfg.p:])

    return forecast


def _rep_empirical(cfg, rep):
    panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
    recs = []
    for k, panel in enumerate(panels):
        client = cfg.panels[k].client_id or str(k + 1)
        for method in EMPIRICAL_METHODS:
            if method == "federated":
                forecaster = _federated_forecaster(cfg, panels, k)
            else:
                forecaster = _single_forecaster(cfg, method)
            records, agg = metrics.rmsfe(
                forecaster, panel, n_origins=cfg.n_origins, aggregate=cfg.rmsfe_agg
            )
            base = {"rep": rep, "client": client, "method": method, "metric": "rmsfe"}
            for r in records:
                recs.append({**base, "variable": r.variable + 1, "value": r.rmsfe})
            recs.append({**base, "variable": "all", "value": agg.rmsfe})
    return recs


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

    Replications run concurrently but their records are emitted in
    replication order, so output bytes do not depend on scheduling. A
    replication that raises is logged and skipped; the run fails once
    more than 1% of replications abort.  A privacy heatmap needs a noise
    mode other than "none" and raises ValueError before any replication.
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

    threads = resolve_threads()
    if threads == 1 or cfg.reps == 1:
        results = [worker(rep) for rep in range(cfg.reps)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(cfg.reps)))

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
        manifest["sensitive_indices"] = {
            (spec.client_id or spec.path): list(spec.sensitive) for spec in cfg.panels
        }
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
