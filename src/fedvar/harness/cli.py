"""Command line entry point.

Subcommands: simulate (run one experiment kind), fit (estimate on CSV
panels and report forecast accuracy), forecast (one-step predictions
from saved estimates), rank-select (choose the shared rank from panels).
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .. import fed_core, rank_select, single_client, var
from .config import KINDS, RMSFE_AGGREGATES, from_json
from .experiments import (
    _rep_empirical,
    admm_config,
    fed_config,
    fista_config,
    run_experiment,
)
from .panels import load_panel

NOISE_FLAG_MODES = {"none": "none", "fixed": "fixed_scale", "calibrated": "calibrated"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="fedvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_config):
        p.add_argument("--config", required=need_config, help="JSON config path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--eps", type=float, help="override the privacy epsilon")
        p.add_argument("--delta", type=float, help="override the privacy delta")
        p.add_argument(
            "--noise-mode",
            choices=sorted(NOISE_FLAG_MODES),
            help="gradient noise policy",
        )
        p.add_argument("--reps", type=int, help="override the replication count")
        p.add_argument(
            "--rmsfe-agg",
            choices=RMSFE_AGGREGATES,
            help="forecast error aggregation across variables",
        )

    p_sim = sub.add_parser("simulate", help="run one experiment kind")
    p_sim.add_argument("kind", choices=KINDS)
    common(p_sim, need_config=False)

    p_fit = sub.add_parser("fit", help="fit estimators on configured panels")
    common(p_fit, need_config=True)

    p_fc = sub.add_parser("forecast", help="one-step forecasts from saved estimates")
    common(p_fc, need_config=True)
    p_fc.add_argument("--estimates", required=True, help="estimates.npz from fit")

    p_rank = sub.add_parser("rank-select", help="select the shared rank from panels")
    common(p_rank, need_config=True)

    return parser


def _load_config(args, kind=None):
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "eps": args.eps,
        "delta": args.delta,
        "noise_mode": NOISE_FLAG_MODES.get(getattr(args, "noise_mode", None)),
        "reps": args.reps,
        "rmsfe_agg": args.rmsfe_agg,
    }
    if kind is not None:
        overrides["kind"] = kind
    if args.config is None:
        if args.seed is None:
            raise ValueError("--seed is required when no --config is given")
        return from_json(text="{}", overrides={**overrides, "kind": kind})
    if not os.path.exists(args.config):
        raise ValueError(f"--config path not found: {args.config}")
    return from_json(path=args.config, overrides=overrides)


def _cmd_simulate(args):
    cfg = _load_config(args, kind=args.kind)
    result = run_experiment(cfg)
    print(result.out_dir)
    return 0


def _out_dir(args, default):
    path = args.out or default
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_fit(args):
    cfg = _load_config(args)
    if not cfg.panels:
        raise ValueError("fit needs a config with panels")
    out = _out_dir(args, "fit-out")

    panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
    designs = [var.lag_design(pn) for pn in panels]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
    decomps, _ = fed_core.fit_federated(
        panels, fed_config(cfg, designs), [fista_config(cfg, ds) for ds in designs], rng
    )
    arrays = {"a0": decomps[0].a0}
    for k, dec in enumerate(decomps):
        arrays[f"delta_{k + 1}"] = dec.delta
    np.savez(os.path.join(out, "estimates.npz"), **arrays)

    rows = _rep_empirical(cfg, 0)
    table = os.path.join(out, "rmsfe.csv")
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("client", "method", "variable", "rmsfe"))
        for row in rows:
            writer.writerow(
                (row["client"], row["method"], row["variable"], repr(float(row["value"])))
            )
    print(out)
    return 0


def _cmd_forecast(args):
    cfg = _load_config(args)
    if not cfg.panels:
        raise ValueError("forecast needs a config with panels")
    if not os.path.exists(args.estimates):
        raise ValueError(f"--estimates path not found: {args.estimates}")
    out = _out_dir(args, "forecast-out")

    with np.load(args.estimates) as data:
        a0 = data["a0"]
        deltas = [data[f"delta_{k + 1}"] for k in range(len(cfg.panels))]
    panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
    path = os.path.join(out, "forecasts.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("client", "variable", "forecast"))
        for spec, panel, delta in zip(cfg.panels, panels, deltas):
            full = np.vstack([panel.presample, panel.observations])
            pred = var.forecast_one_step(a0 + delta, full[-cfg.p:])
            client = spec.client_id or spec.path
            for j, value in enumerate(pred):
                writer.writerow((client, j + 1, repr(float(value))))
    print(path)
    return 0


def _cmd_rank_select(args):
    cfg = _load_config(args)
    if not cfg.panels:
        raise ValueError("rank-select needs a config with panels")
    panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
    fits, t_lens = [], []
    for panel in panels:
        design = var.lag_design(panel)
        dec, _ = single_client.fit_admm(design, admm_config(design, cfg))
        fits.append(dec.a0)
        t_lens.append(design.t_len)
    d = panels[0].d
    rcfg = rank_select.RankConfig(r_bar=rank_select.default_r_bar(d, cfg.p * d))
    rank, picks = rank_select.select_rank(fits, t_lens, rcfg)
    doc = {
        "rank": rank,
        "per_client": {
            spec.client_id or spec.path: pick
            for spec, pick in zip(cfg.panels, picks)
        },
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "rank-select": _cmd_rank_select,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"fedvar: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"fedvar: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
