"""End-to-end statistical acceptance checks.

Each test prints one PASS/FAIL line with its measured values (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline). These are
slower than the unit suites: they run full replication studies at desk
scale and check directions, rates, and tolerances rather than internals.
"""

import math
import os
import time
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.stats import binomtest

from fedvar import fed_core, matops, single_client, var
from fedvar.dp import (
    NoisePolicy,
    add_gaussian_noise,
    gaussian_sigma,
    round_sigma,
)
from fedvar.harness import ExperimentConfig, PanelSpec, run_experiment, write_panel

from oracles import admm_solo

SEED = 20240516


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def group_mean(result, key):
    return result.summary["groups"][key]["mean"]


def test_rank_selection_consistency_across_sample_sizes(tmp_path):
    cfg = ExperimentConfig(
        kind="rank_table", seed=SEED, out_dir=str(tmp_path), reps=200
    )
    t0 = time.time()
    res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
    elapsed = time.time() - t0

    rates = {}
    for rec in res.records:
        if rec["metric"] == "correct":
            cell = (rec["true_rank"], rec["t_len"])
            rates.setdefault(cell, []).append(rec["value"])
    rates = {cell: float(np.mean(v)) for cell, v in rates.items()}

    lines = []
    ok = elapsed < 600.0
    for r in (1, 2, 3):
        lo, hi = rates[(r, 400)], rates[(r, 1600)]
        lines.append(f"r*={r}: {lo:.3f}->{hi:.3f}")
        ok = ok and hi >= 0.95 and hi > lo
    check(
        "rank-selection consistency",
        ok,
        f"{'; '.join(lines)}; runtime {elapsed:.0f}s (limit 600s)",
    )


def test_single_client_error_decay(tmp_path):
    cfg = ExperimentConfig(
        kind="single_client_curve", seed=SEED, out_dir=str(tmp_path), reps=100
    )
    res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
    ts = (200, 400, 800, 1600)
    ak = [group_mean(res, f"t_len={t}|metric=ak_err") for t in ts]
    dev = [group_mean(res, f"t_len={t}|metric=delta_err") for t in ts]

    decays = all(b < a for a, b in zip(ak, ak[1:]))
    dev_decays = all(b < a for a, b in zip(dev, dev[1:]))
    slope_total = np.polyfit(np.log(ts), np.log(ak), 1)[0]
    slope_dev = np.polyfit(np.log(ts), np.log(dev), 1)[0]
    # Deviations in the lq ball have Frobenius error of order
    # (s_q (log pd / T)^(1 - q/2))^(1/2), a log-log slope in T of
    # -(1 - q/2)/2 (-0.475 at q = 0.1): slower than the low-rank T^(-1/2),
    # so the deviation error need not shrink faster than the total.  The
    # bound allows 0.125 of Monte-Carlo noise on that slope.
    slope_bound = -(1.0 - cfg.q / 2.0) / 2.0 + 0.125
    consistent = slope_dev <= slope_bound
    check(
        "single-client error decay",
        decays and dev_decays and consistent,
        f"total means {[round(v, 3) for v in ak]} (strictly decreasing: {decays}); "
        f"deviation means {[round(v, 3) for v in dev]} "
        f"(strictly decreasing: {dev_decays}); log-log slopes "
        f"deviation {slope_dev:.3f} (bound {slope_bound:.3f}) vs total "
        f"{slope_total:.3f}",
    )


def test_federation_beats_single_client_without_noise(tmp_path):
    cfg = ExperimentConfig(
        kind="t_sweep",
        seed=SEED,
        out_dir=str(tmp_path),
        reps=100,
        t_grid=(400,),
        n_clients=5,
    )
    res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
    fed = group_mean(res, "t_len=400|metric=fed_a0_err")
    single = group_mean(res, "t_len=400|metric=single_a0_err_mean")
    benefits = [
        rec["value"] for rec in res.records if rec["metric"] == "benefit_a0"
    ]
    wins = sum(b > 0 for b in benefits)
    pval = binomtest(wins, len(benefits), alternative="greater").pvalue
    check(
        "federation benefit",
        fed < single and pval < 0.05,
        f"shared-part error federated {fed:.4f} vs single-client {single:.4f}; "
        f"benefit > 0 in {wins}/{len(benefits)} replications "
        f"(one-sided sign test p = {pval:.2e})",
    )


def test_privacy_error_monotone_in_epsilon(tmp_path):
    cfg = ExperimentConfig(
        kind="privacy_heatmap",
        seed=SEED,
        out_dir=str(tmp_path),
        reps=100,
        noise_mode="fixed_scale",
        delta=0.1,
    )
    res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
    by_eps = {}
    for rec in res.records:
        key = rec["eps"] if rec["eps"] != "" else None
        by_eps.setdefault(key, []).append(rec["value"])
    means = {k: float(np.mean(v)) for k, v in by_eps.items()}
    ndp = means.pop(None)
    eps_sorted = sorted(means)
    noisy = [means[e] for e in eps_sorted]

    monotone = all(b <= a for a, b in zip(noisy, noisy[1:]))
    dominated = all(ndp <= v for v in noisy)
    check(
        "privacy-utility monotonicity",
        monotone and dominated,
        "mean shared-part error by epsilon "
        + ", ".join(f"{e}: {m:.3f}" for e, m in zip(eps_sorted, noisy))
        + f"; without noise {ndp:.3f} (nonincreasing: {monotone}, "
        f"noise-free dominates: {dominated})",
    )


def test_gaussian_mechanism_calibration():
    sigma = gaussian_sigma(1.0, 2.0, 0.1)
    oracle = np.sqrt(2.0 * np.log(1.25 / 0.1)) / 2.0
    rng = np.random.default_rng(SEED)
    draws = add_gaussian_noise(
        np.zeros(1_000_000), sigma, rng.standard_normal(1_000_000)
    )
    sd = float(np.std(draws))
    ok = (
        abs(sigma - oracle) < 1e-12
        and abs(sigma - 1.1238) <= 1e-4
        and abs(sd - sigma) / sigma < 0.01
    )
    check(
        "gaussian mechanism calibration",
        ok,
        f"sigma(1, 2, 0.1) = {sigma:.10f} (vs 1.1238 +- 1e-4); "
        f"empirical sd over 1e6 draws = {sd:.4f} ({abs(sd - sigma) / sigma:.2%} off)",
    )


def test_optimizer_oracle_equivalence(monkeypatch):
    from scipy.linalg import cho_factor, cho_solve

    monkeypatch.setattr(single_client, "_ADMM_MAX_ITER", 20000)
    rng = np.random.default_rng(SEED)
    worst_l1, worst_ls = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(3, 7))
        p = int(rng.integers(1, 3))
        t = int(rng.integers(40, 120))
        a0, deltas = var.assemble_dgp(d, p, min(2, d - 1), 1, rng)
        panel = var.simulate(a0 + deltas[0], p, t, rng, burn_in=100)
        design = var.lag_design(panel)
        omega = float(np.sqrt(np.log(design.pd) / design.t_len))

        # the l1-only problem by ADMM with the shared part held at zero
        admm_dec, _ = admm_solo(
            design,
            single_client.AdmmConfig(lam=0.0, omega=omega),
            pin_a0=True,
            tol=1e-10,
            max_iter=20000,
        )
        (fista_delta,), _ = fed_core.refine_fista(
            [design],
            np.zeros((1, design.d, design.pd)),
            [omega],
            4000,
        )
        worst_l1 = max(worst_l1, float(np.linalg.norm(admm_dec.delta - fista_delta)))

        # both residuals at most 1e-11 (the product is exact at these shapes)
        monkeypatch.setattr(
            single_client, "_ADMM_EPS", 1e-11 / math.sqrt(design.pd * design.d)
        )
        (ls_dec,), _ = single_client.fit_admm(
            [design], [single_client.AdmmConfig(lam=0.0, omega=0.0)]
        )
        ls = cho_solve(cho_factor(design.x.T @ design.x), design.x.T @ design.y).T
        worst_ls = max(worst_ls, float(np.linalg.norm(ls_dec.a - ls)))

    a0, deltas = var.assemble_dgp(5, 2, 2, 1, rng)
    panel = var.simulate(a0 + deltas[0], 2, 80, rng, burn_in=100)
    design = var.lag_design(panel)
    point = rng.standard_normal((design.d, design.pd))
    grad = fed_core.local_gradient(design, point)

    def loss(a):
        resid = design.y - design.x @ a.T
        return float(np.sum(resid * resid)) / design.t_len

    h, worst_grad = 1e-6, 0.0
    for _ in range(20):
        direction = rng.standard_normal(point.shape)
        direction /= np.linalg.norm(direction)
        numeric = (loss(point + h * direction) - loss(point - h * direction)) / (2 * h)
        analytic = float(np.sum(grad * direction))
        worst_grad = max(worst_grad, abs(numeric - analytic) / abs(analytic))

    ok = worst_l1 < 1e-4 and worst_ls < 1e-6 and worst_grad < 1e-5
    check(
        "optimizer oracle equivalence",
        ok,
        f"worst sparse-only gap {worst_l1:.2e} (< 1e-4); "
        f"worst unpenalized-vs-LS gap {worst_ls:.2e} (< 1e-6); "
        f"worst gradient relative error {worst_grad:.2e} (< 1e-5) over 50 instances",
    )


def test_structural_invariants(tmp_path):
    rng = np.random.default_rng(SEED)
    failures = []

    # every gradient-round iterate stays on the rank-r manifold, noisy or not
    a0, deltas = var.assemble_dgp(8, 1, 2, 3, rng)
    designs = [
        var.lag_design(var.simulate(a0 + dk, 1, 150, rng, burn_in=100))
        for dk in deltas
    ]
    rounds = 25
    # every client has T=150, so the start is the first client's fit
    (start,) = fed_core.initial_shared_estimate(
        [designs[0]], 2, [single_client.default_admm_config(designs[0])]
    )
    for policy in (NoisePolicy.none(), NoisePolicy.fixed(2.0, 0.1, scale=0.5)):
        fcfg = fed_core.FedConfig(
            rank=2,
            rounds=rounds,
            step_rho=0.02,  # lambda_max of the pooled Gram matrix is 26.1
            init_a0=start,
            noise=policy,
        )
        iterate = start
        for _ in range(rounds):
            one = replace(fcfg, rounds=1, init_a0=iterate)
            (iterate,), _ = fed_core.stage1_run([designs], [one], [rng])
            if np.linalg.matrix_rank(iterate) > 2:
                failures.append(f"iterate rank {np.linalg.matrix_rank(iterate)} > 2")
                break

    # tangent projection is idempotent and self-adjoint
    _, basis = matops.svd_truncate(rng.standard_normal((8, 12)), 3)
    for _ in range(5):
        b = rng.standard_normal((8, 12))
        c = rng.standard_normal((8, 12))
        pb = matops.tangent_project(b, basis)
        idem = float(np.linalg.norm(matops.tangent_project(pb, basis) - pb))
        adj = abs(float(np.sum(pb * c) - np.sum(b * matops.tangent_project(c, basis))))
        if idem > 1e-10:
            failures.append(f"projection not idempotent ({idem:.1e})")
        if adj > 1e-10:
            failures.append(f"projection not self-adjoint ({adj:.1e})")

    # sup-norm cap on the shared part binds
    design = designs[0]
    zeta = 0.2
    (capped,), _ = single_client.fit_admm(
        [design],
        [single_client.default_admm_config(design, zeta=zeta)],
    )
    overshoot = float(np.max(np.abs(capped.a0))) - zeta
    if overshoot > 1e-12:
        failures.append(f"sup-norm cap exceeded by {overshoot:.1e}")

    # momentum scalars match a 50-digit evaluation of the recurrence
    getcontext().prec = 50
    q = fed_core.momentum_sequence(200)
    q_exact = [Decimal(1)]
    for _ in range(200):
        q_exact.append((1 + (1 + 4 * q_exact[-1] ** 2).sqrt()) / 2)
    q_gap = max(
        float(abs(Decimal(v) - e) / max(Decimal(1), e)) for v, e in zip(q, q_exact)
    )
    if q_gap > 1e-12:
        failures.append(f"momentum sequence off by {q_gap:.1e}")

    # identical (config, seed) gives identical bytes on rerun
    cfg = ExperimentConfig(
        kind="t_sweep",
        seed=SEED,
        out_dir=str(tmp_path),
        reps=4,
        d=8,
        t_grid=(120,),
        n_clients=3,
    )
    blobs = []
    for i in range(3):
        res = run_experiment(cfg, run_dir=str(tmp_path / f"run{i}"))
        with open(res.raw_csv, "rb") as fh:
            blobs.append(fh.read())
    if not blobs[0] == blobs[1] == blobs[2]:
        failures.append("raw CSV bytes differ across reruns")

    check(
        "structural invariants",
        not failures,
        "; ".join(failures)
        or "iterate ranks, tangent projection, sup-norm cap, momentum sequence, "
        "byte-identical reruns all hold",
    )


def test_empirical_protocol_on_synthetic_panels(tmp_path):
    d, p, k_clients, t_len, n_worlds = 12, 2, 5, 44, 20
    per_world = {}
    for w in range(n_worlds):
        rng = np.random.default_rng(np.random.SeedSequence(718, spawn_key=(w,)))
        a0, deltas = var.assemble_dgp(d, p, 2, k_clients, rng, ratio=5.0)
        specs = []
        for k in range(k_clients):
            panel = var.simulate(a0 + deltas[k], p, t_len, rng, burn_in=100)
            full = np.vstack([panel.presample, panel.observations])
            levels = np.vstack([np.zeros(d), np.cumsum(full, axis=0)]) + 100.0
            path = tmp_path / f"w{w}c{k + 1}.csv"
            write_panel(
                var.TimeSeriesPanel(presample=levels[:p], observations=levels[p:]),
                str(path),
            )
            specs.append(
                PanelSpec(
                    path=str(path),
                    transforms=1,
                    standardize=True,
                    client_id=f"c{k + 1}",
                )
            )
        cfg = ExperimentConfig(
            kind="empirical",
            seed=718 + w,
            out_dir=str(tmp_path),
            d=d,
            p=p,
            rank=2,
            n_origins=8,
            panels=tuple(specs),
        )
        res = run_experiment(cfg, run_dir=str(tmp_path / f"w{w}"))
        for rec in res.records:
            if rec["variable"] == "all":
                per_world.setdefault(rec["method"], []).append(rec["value"])

    means = {m: float(np.mean(v)) for m, v in per_world.items()}
    fed, nuc_l1 = means["federated"], means["single_nuc_l1"]
    ls = means["least_squares"]
    ls_worst = all(ls > v for m, v in means.items() if m != "least_squares")
    check(
        "empirical-mode protocol",
        fed <= nuc_l1 and ls_worst,
        f"mean forecast error over {n_worlds} worlds: "
        + ", ".join(f"{m} {v:.3f}" for m, v in sorted(means.items(), key=lambda x: x[1]))
        + f" (federated <= combined-penalty single: {fed <= nuc_l1}, "
        f"plain least squares worst: {ls_worst})",
    )
