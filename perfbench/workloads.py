"""The benchmark's three workloads.

Each workload runs in rounds. A round is one call into fedvar's public
entry points; a pass is a fixed list of rounds whose inputs all derive
from the benchmark seed. The first pass is always run in full and is
what the correctness checks and the accuracy figures read; rounds after
it repeat the pass's inputs, and their outputs must be byte-identical to
the first pass's.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import traceback

import numpy as np

import fedvar.harness
from fedvar import dp, var
from fedvar.harness import cli
from fedvar.harness.config import ExperimentConfig

from spans import replace_everywhere, restore


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def round_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Outcome:
    """What one round did: replications attempted and failed, and, for a
    round that did not fail, the fingerprint and parsed rows of its
    output table."""

    def __init__(self, attempted, failed, fingerprint=None, rows=None, extra=None):
        self.attempted = attempted
        self.failed = failed
        self.fingerprint = fingerprint
        self.rows = rows
        self.extra = extra


class _Simulation:
    """A replication study through ``fedvar.harness.run_experiment``; each
    round runs ``reps`` replications of one seed on the harness's own
    worker pool."""

    name = kind = ""
    reps = pass_rounds = 0
    world = {}

    def prepare(self, seed, work_dir):
        self.run_dir = os.path.join(work_dir, "run")
        self.configs = [
            ExperimentConfig(
                kind=self.kind, seed=s, reps=self.reps, out_dir=work_dir, **self.world
            )
            for s in round_seeds(seed, self.pass_rounds)
        ]

    def run_round(self, i):
        cfg = self.configs[i % self.pass_rounds]
        try:
            fedvar.harness.run_experiment(cfg, run_dir=self.run_dir)
        except Exception:
            traceback.print_exc()
            return Outcome(cfg.reps, cfg.reps)
        with open(os.path.join(self.run_dir, "manifest.json"), encoding="utf-8") as fh:
            aborted = json.load(fh)["aborted_replications"]
        raw = os.path.join(self.run_dir, "raw.csv")
        return Outcome(cfg.reps, aborted, sha256(raw), read_rows(raw))

    def post_check(self):
        return []


class PrivacySweep(_Simulation):
    """Privacy heatmap: error of the shared estimate against epsilon."""

    name = "privacy_sweep"
    kind = "privacy_heatmap"

    def __init__(self, quick=False):
        eps_grid = (0.5, 1.0, 2.0, 4.0)
        if quick:
            self.reps, self.pass_rounds = 4, 2
            sizes = {"d": 6, "n_clients": 3, "t_len": 120}
        else:
            self.reps, self.pass_rounds = 4, 10
            sizes = {"d": 20, "n_clients": 5, "t_len": 400}
        self.world = {
            **sizes, "p": 1, "rank": 2, "eps_grid": eps_grid, "delta": 0.1,
            "kappa": 1.0, "noise_mode": "fixed_scale",
        }

    def check(self, outcomes):
        problems = []
        cells = 1 + len(self.world["eps_grid"])
        by_eps = {}
        for o in outcomes:
            if len(o.rows) != self.reps * cells or o.failed:
                problems.append(
                    f"round has {len(o.rows)} rows and {o.failed} aborted "
                    f"replications, expected {self.reps * cells} and 0"
                )
            for row in o.rows:
                key = float(row["eps"]) if row["noise"] == "fixed_scale" else None
                by_eps.setdefault(key, []).append(float(row["value"]))
        means = {k: float(np.mean(v)) for k, v in by_eps.items()}
        noisy = [means.get(e, math.nan) for e in sorted(self.world["eps_grid"])]
        if not all(a >= b for a, b in zip(noisy, noisy[1:])):
            problems.append(f"mean error rises with epsilon: {noisy}")
        if not means.get(None, math.inf) < min(noisy):
            problems.append(
                f"noise-free error {means.get(None)} is not below every noisy cell {noisy}"
            )
        values = [v for vs in by_eps.values() for v in vs]
        return problems, {"a0_err": float(np.mean(values)), "err": float(np.mean(values))}

    def post_check(self):
        """One more replication, recording the sigma of every noise draw:
        each cell draws exactly rounds x clients times at
        kappa sqrt(2 ln(1.25/delta)) / eps (0 for the noise-free cell)."""
        w = self.world
        rounds = math.ceil(10.0 * math.log(w["n_clients"] * w["t_len"]))
        expected = [0.0] + [
            w["kappa"] * math.sqrt(2.0 * math.log(1.25 / w["delta"])) / eps
            for eps in w["eps_grid"]
        ]
        seen = []
        original = dp.add_gaussian_noise

        def record(m, sigma, rng):
            seen.append(float(sigma))
            return original(m, sigma, rng)

        patched = replace_everywhere(original, record)
        try:
            fedvar.harness.run_experiment(
                dataclasses.replace(self.configs[0], reps=1), run_dir=self.run_dir + "-sigma"
            )
        finally:
            restore(patched)
        problems = []
        for sigma in expected:
            n = sum(math.isclose(s, sigma, rel_tol=1e-12, abs_tol=1e-300) for s in seen)
            if n != rounds * w["n_clients"]:
                problems.append(
                    f"{n} noise draws at sigma {sigma!r}, expected {rounds * w['n_clients']}"
                )
        if len(seen) != len(expected) * rounds * w["n_clients"]:
            problems.append(f"{len(seen)} noise draws in all, some at an unexpected sigma")
        return problems


class RankRecovery(_Simulation):
    """Rank table: the single-client selector's hit rate by rank and T."""

    name = "rank_recovery"
    kind = "rank_table"

    def __init__(self, quick=False):
        if quick:
            self.reps, self.pass_rounds = 4, 2
            self.world = {"d": 20, "rank_grid": (3,), "t_grid": (400, 1600)}
        else:
            self.reps, self.pass_rounds = 8, 8
            self.world = {"d": 20, "rank_grid": (1, 2, 3), "t_grid": (400, 1600)}

    def check(self, outcomes):
        problems = []
        w = self.world
        per_round = self.reps * len(w["rank_grid"]) * len(w["t_grid"]) * 2
        hits, cells = {}, {}
        for o in outcomes:
            if len(o.rows) != per_round or o.failed:
                problems.append(
                    f"round has {len(o.rows)} rows and {o.failed} aborted "
                    f"replications, expected {per_round} and 0"
                )
            picked = {}
            for row in o.rows:
                key = (row["rep"], int(row["true_rank"]), int(row["t_len"]))
                picked.setdefault(key, {})[row["metric"]] = int(row["value"])
            for (_, true_rank, t_len), m in picked.items():
                if m["correct"] != int(m["selected_rank"] == true_rank):
                    problems.append(f"row {m} disagrees with true rank {true_rank}")
                hits[true_rank, t_len] = hits.get((true_rank, t_len), 0) + m["correct"]
                cells[true_rank, t_len] = cells.get((true_rank, t_len), 0) + 1
        # Selection is consistent: more data finds the true rank more
        # often. Near-perfect rates can only tie or dip by chance, so each
        # rank may fall by at most two binomial standard errors, and the
        # rate over all ranks must rise unless it is already 1.
        lo, hi = min(w["t_grid"]), max(w["t_grid"])
        rate = {}
        for t in (lo, hi):
            for r in w["rank_grid"] + (None,):
                keys = [(r, t)] if r is not None else [(q, t) for q in w["rank_grid"]]
                n = sum(cells.get(k, 0) for k in keys)
                rate[r, t] = (sum(hits.get(k, 0) for k in keys) / n, n) if n else (0.0, 1)
        for r in w["rank_grid"]:
            (p_lo, n_lo), (p_hi, n_hi) = rate[r, lo], rate[r, hi]
            p = (p_lo * n_lo + p_hi * n_hi) / (n_lo + n_hi)
            slack = 2.0 * math.sqrt(p * (1.0 - p) * (1.0 / n_lo + 1.0 / n_hi))
            if p_hi < p_lo - slack:
                problems.append(
                    f"rank {r}: hit rate falls from {p_lo:.3f} at T={lo} to "
                    f"{p_hi:.3f} at T={hi}, more than {slack:.3f}"
                )
        if not (rate[None, hi][0] > rate[None, lo][0] or rate[None, hi][0] == 1.0):
            problems.append(
                f"hit rate over all ranks does not rise from {rate[None, lo][0]:.3f} "
                f"at T={lo} to {rate[None, hi][0]:.3f} at T={hi}"
            )
        total_hits, total_cells = sum(hits.values()), sum(cells.values())
        return problems, {
            "rank_hits": total_hits,
            "rank_cells": total_cells,
            "hits_by_rank_and_t": {f"{r}/{t}": h for (r, t), h in sorted(hits.items())},
            "err": total_cells / total_hits if total_hits else math.inf,
        }


class PanelForecast:
    """``fedvar fit`` on generated CSV panels: each round fits one panel
    set and runs its rolling-origin comparison of every method."""

    name = "panel_forecast"

    def __init__(self, quick=False):
        if quick:
            self.d, self.k, self.t_len, self.n_origins, self.pass_rounds = 8, 3, 30, 3, 2
        else:
            self.d, self.k, self.t_len, self.n_origins, self.pass_rounds = 12, 5, 44, 8, 8
        self.p, self.rank = 2, 2

    def prepare(self, seed, work_dir):
        """Write each panel set: K level series whose first differences
        follow one world's VAR(p), plus the fit config that reads them
        back differenced and standardized."""
        self.work_dir = work_dir
        self.sets = []
        for j, set_seed in enumerate(round_seeds(seed, self.pass_rounds)):
            rng = np.random.default_rng(set_seed)
            a0, deltas = var.assemble_dgp(self.d, self.p, self.rank, self.k, rng, ratio=5.0)
            specs = []
            for k in range(self.k):
                panel = var.simulate(a0 + deltas[k], self.p, self.t_len, rng, burn_in=100)
                full = np.vstack([panel.presample, panel.observations])
                levels = np.vstack([np.zeros(self.d), np.cumsum(full, axis=0)]) + 100.0
                path = os.path.join(work_dir, f"set{j}-c{k + 1}.csv")
                fedvar.harness.write_panel(
                    var.TimeSeriesPanel(presample=levels[: self.p], observations=levels[self.p :]),
                    path,
                )
                specs.append(
                    {"path": path, "transforms": 1, "standardize": True, "client_id": f"c{k + 1}"}
                )
            config = {
                "kind": "empirical", "seed": set_seed, "d": self.d, "p": self.p,
                "rank": self.rank, "n_origins": self.n_origins, "panels": specs,
            }
            config_path = os.path.join(work_dir, f"set{j}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.sets.append((config_path, [s["path"] for s in specs]))

    def run_round(self, i):
        config_path, _ = self.sets[i % self.pass_rounds]
        out = os.path.join(self.work_dir, f"fit{i % self.pass_rounds}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fit", "--config", config_path, "--out", out])
        if code != 0:
            return Outcome(1, 1)
        table = os.path.join(out, "rmsfe.csv")
        with np.load(os.path.join(out, "estimates.npz")) as data:
            a0 = data["a0"]
        return Outcome(1, 0, sha256(table), read_rows(table), {"a0": a0, "set": i % self.pass_rounds})

    def _least_squares_rmsfe(self, path):
        """Per-variable and mean RMSFE of plain least squares over the
        same expanding windows, from the CSV alone."""
        with open(path, newline="", encoding="utf-8") as fh:
            levels = np.array([[float(c) for c in row] for row in list(csv.reader(fh))[1:]])
        series = np.diff(levels, axis=0)
        series = (series - series.mean(axis=0)) / series.std(axis=0)
        p = self.p
        t_len = series.shape[0] - p
        sq = []
        for i in range(t_len - self.n_origins, t_len):
            rows = range(p, p + i)
            x = np.array([np.concatenate([series[t - j] for j in range(1, p + 1)]) for t in rows])
            coef, *_ = np.linalg.lstsq(x, series[p : p + i], rcond=None)
            x_next = np.concatenate([series[p + i - j] for j in range(1, p + 1)])
            sq.append((series[p + i] - x_next @ coef) ** 2)
        per_var = np.sqrt(np.mean(sq, axis=0))
        return per_var, float(per_var.mean())

    def check(self, outcomes):
        problems = []
        per_round = self.k * 5 * (self.d + 1)
        by_method, ratios = {}, []
        for o in outcomes:
            if len(o.rows) != per_round:
                problems.append(f"rmsfe.csv has {len(o.rows)} rows, expected {per_round}")
            sv = np.linalg.svd(o.extra["a0"], compute_uv=False)
            if int(np.sum(sv > 1e-9 * sv[0])) > self.rank:
                problems.append(f"a0 has singular values {sv[: self.rank + 2]}, rank above {self.rank}")
            table = {(r["client"], r["method"], r["variable"]): float(r["rmsfe"]) for r in o.rows}
            for r in o.rows:
                if r["variable"] == "all":
                    by_method.setdefault(r["method"], []).append(float(r["rmsfe"]))
                    if r["method"] == "federated":
                        ls = table.get((r["client"], "least_squares", "all"), math.nan)
                        ratios.append(float(r["rmsfe"]) / ls)
            for k, path in enumerate(self.sets[o.extra["set"]][1]):
                per_var, agg = self._least_squares_rmsfe(path)
                want = list(per_var) + [agg]
                keys = [str(j + 1) for j in range(self.d)] + ["all"]
                got = [table.get((f"c{k + 1}", "least_squares", v), math.nan) for v in keys]
                gap = max(abs(g - w) / w for g, w in zip(got, want))
                if not gap <= 1e-9:
                    problems.append(f"least-squares RMSFE of c{k + 1} is {gap:.2e} off a recomputation")
        means = {m: float(np.mean(v)) for m, v in by_method.items()}
        ls = means.pop("least_squares", math.nan)
        if not all(ls > v for v in means.values()):
            problems.append(f"least squares {ls} is not the worst method: {means}")
        return problems, {
            "rmsfe_fed": means.get("federated", math.nan),
            "rmsfe_ls": ls,
            "err": float(np.mean(ratios)),
        }

    def post_check(self):
        return []


def check_rounds(wl, outcomes):
    """Check the first pass, and that every later round's output is
    byte-identical to the first-pass round with the same inputs.
    Returns the problems found and the workload's accuracy figures."""
    n = wl.pass_rounds
    problems, accuracy = wl.check([o for o in outcomes[:n] if o.fingerprint is not None])
    problems += wl.post_check()
    for i in range(n, len(outcomes)):
        again, ref = outcomes[i].fingerprint, outcomes[i % n].fingerprint
        if again is not None and ref is not None and again != ref:
            problems.append(f"round {i} output differs from round {i % n} on the same inputs")
    return problems, accuracy


WORKLOADS = {w.name: w for w in (PrivacySweep, RankRecovery, PanelForecast)}
