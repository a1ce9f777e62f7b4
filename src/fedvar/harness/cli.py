"""Command line entry point.

Subcommands: simulate (run one experiment kind), fit (estimate on CSV
panels and report forecast accuracy), forecast (one-step predictions
from saved estimates), rank-select (choose the shared rank from panels).
Exit codes: 0 success, 1 usage error, 2 runtime failure, 141 output
pipe closed by its reader (nothing printed, the status a shell reports
for a command stopped by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .. import rank_select, single_client, var
from ..matops import check_matrix
from .config import KINDS, RMSFE_AGGREGATES, from_json
from .experiments import admm_config, empirical_rmsfe, run_experiment
from .panels import load_panels

NOISE_FLAG_MODES = {"none": "none", "fixed": "fixed_scale", "calibrated": "calibrated"}

# config-overriding flags by argparse dest; each command takes the ones it reads
FLAGS = {
    "seed": {"type": int, "help": "override the config seed"},
    "out": {"help": "override the output directory"},
    "eps": {"type": float, "help": "override the privacy epsilon"},
    "delta": {"type": float, "help": "override the privacy delta"},
    "noise_mode": {"choices": sorted(NOISE_FLAG_MODES), "help": "gradient noise policy"},
    "reps": {"type": int, "help": "override the replication count"},
    "rmsfe_agg": {
        "choices": RMSFE_AGGREGATES,
        "help": "forecast error aggregation across variables",
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    # allow_abbrev=False: a prefix such as --d must not stand for --delta
    parser = _Parser(prog="fedvar", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, flags=(), need_config=True):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", required=need_config, help="JSON config path")
        for dest in flags:
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])
        return p

    p_sim = command("simulate", "run one experiment kind", FLAGS, need_config=False)
    p_sim.add_argument("kind", choices=KINDS)
    # an empirical fit is one replication, so fit takes no --reps
    command("fit", "fit estimators on configured panels", [f for f in FLAGS if f != "reps"])
    p_fc = command("forecast", "one-step forecasts from saved estimates", ["out"])
    p_fc.add_argument("--estimates", required=True, help="estimates.npz from fit")
    command("rank-select", "select the shared rank from panels")
    return parser


def _load_config(args):
    """The command's config with its flags applied; a flag the command does
    not take, or one left unset, keeps the config's value."""
    overrides = {dest: getattr(args, dest, None) for dest in (*FLAGS, "kind")}
    overrides["out_dir"] = overrides.pop("out")
    overrides["noise_mode"] = NOISE_FLAG_MODES.get(overrides["noise_mode"])
    if args.config is None:
        if args.seed is None:
            raise ValueError("--seed is required when no --config is given")
        return from_json(text="{}", overrides=overrides)
    if not os.path.exists(args.config):
        raise ValueError(f"--config path not found: {args.config}")
    return from_json(path=args.config, overrides=overrides)


def _cmd_simulate(args):
    if args.kind == "empirical" and args.reps not in (None, 1):
        raise ValueError(f"the empirical kind runs one replication, got --reps {args.reps}")
    cfg = _load_config(args)
    result = run_experiment(cfg)
    print(result.out_dir)
    return 0


def _out_dir(args, default):
    path = args.out or default
    os.makedirs(path, exist_ok=True)
    return path


def _config_and_panels(args, command):
    """The config of a command that reads panels and its loaded panels,
    every one checked (see panels.load_panels) before anything is
    written."""
    cfg = _load_config(args)
    if not cfg.panels:
        raise ValueError(f"{command} needs a config with panels")
    return cfg, load_panels(cfg.panels, cfg.p)


def _cmd_fit(args):
    cfg, panels = _config_and_panels(args, "fit")
    # all fitting, and with it the n_origins check, comes before --out exists;
    # the saved estimates are the full-sample member of the origins' stacked fit
    rows, decomps = empirical_rmsfe(cfg, [var.lag_design(pn) for pn in panels], 0)
    out = _out_dir(args, "fit-out")

    arrays = {"a0": decomps[0].a0}
    for k, dec in enumerate(decomps):
        arrays[f"delta_{k + 1}"] = dec.delta
    np.savez(os.path.join(out, "estimates.npz"), **arrays)

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
    cfg, panels = _config_and_panels(args, "forecast")
    if not os.path.exists(args.estimates):
        raise ValueError(f"--estimates path not found: {args.estimates}")

    with np.load(args.estimates) as data:
        names = ["a0"] + [f"delta_{k + 1}" for k in range(len(cfg.panels))]
        missing = [name for name in names if name not in data.files]
        if missing:
            raise ValueError(
                f"--estimates {args.estimates} lacks {', '.join(missing)} "
                f"for {len(cfg.panels)} configured panels"
            )
        arrays = [check_matrix(data[name], f"--estimates {name}") for name in names]
    d = panels[0].d
    for name, arr in zip(names, arrays):
        if arr.shape != (d, cfg.p * d):
            raise ValueError(
                f"--estimates {args.estimates}: {name} has shape {arr.shape}, "
                f"the panels need ({d}, {cfg.p * d})"
            )
    a0, deltas = arrays[0], arrays[1:]
    path = os.path.join(_out_dir(args, "forecast-out"), "forecasts.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("client", "variable", "forecast"))
        for spec, panel, delta in zip(cfg.panels, panels, deltas):
            full = np.vstack([panel.presample, panel.observations])
            pred = var.forecast_one_step(a0 + delta, full[-cfg.p:])
            for j, value in enumerate(pred):
                writer.writerow((spec.label, j + 1, repr(float(value))))
    print(path)
    return 0


def _cmd_rank_select(args):
    cfg, panels = _config_and_panels(args, "rank-select")
    designs = [var.lag_design(panel) for panel in panels]
    decomps, _ = single_client.fit_admm(designs, [admm_config(ds, cfg) for ds in designs])
    rank, picks = rank_select.select_rank(
        [dec.a0 for dec in decomps], [ds.t_len for ds in designs]
    )
    doc = {
        "rank": rank,
        "per_client": {spec.label: pick for spec, pick in zip(cfg.panels, picks)},
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
        code = COMMANDS[args.command](args)
        # flushed here, so that a reader that is gone fails inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout to devnull, so the exit flush cannot raise again; no
        # SIGPIPE handler, since main also runs in-process
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"fedvar: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"fedvar: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
