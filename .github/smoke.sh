#!/usr/bin/env bash
# Smoke test of an importable fedvar: every simulation kind at one
# replication, a calibrated run written twice with one raw.csv, and fit,
# forecast, rank-select and the empirical kind on two small unequal panels.
# It works in a fresh temporary directory, so the only fedvar it can use is
# the one on the import path: the installed package, or a checkout's with
#   PYTHONPATH=$PWD/src bash .github/smoke.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
fedvar() { python -m fedvar.harness.cli "$@"; }

# rank_table and single_client_curve: one stacked ADMM call per
# replication; k_sweep: one stage-1 stack of federations of 2, 5 and 10
# clients; t_sweep: one stacked fit_federated call
for kind in single_client_curve rank_table k_sweep t_sweep; do
    fedvar simulate "$kind" --seed 1 --reps 1 --out sim >/dev/null
    echo "ok: simulate $kind"
done
# every heatmap cell spends its calibrated budget over the rounds it runs,
# all cells in one stage-1 stack; a second run writes the same raw.csv
first=$(fedvar simulate privacy_heatmap --seed 1 --reps 1 --noise-mode calibrated --out sim)
again=$(fedvar simulate privacy_heatmap --seed 1 --reps 1 --noise-mode calibrated --out sim)
cmp "$first/raw.csv" "$again/raw.csv"
echo "ok: simulate privacy_heatmap, calibrated, twice to one raw.csv"
# the CLI's fixed flag maps to the fixed_scale mode the privacy_sweep
# benchmark runs, which labels the noisy cells
fixed=$(fedvar simulate privacy_heatmap --seed 1 --reps 1 --noise-mode fixed --out sim)
grep -q ",fixed_scale," "$fixed/raw.csv"
echo "ok: simulate privacy_heatmap, fixed"

# two panels of 42 and 44 rows, and an empirical config over them
python - <<'EOF'
import json
import numpy as np
from fedvar import var
from fedvar.harness import write_panel

rng = np.random.default_rng(1)
a0, deltas = var.assemble_dgp(4, 1, 1, 2, rng, ratio=5.0)
panels = []
for k, t_len in enumerate((42, 44)):
    path = f"c{k + 1}.csv"
    write_panel(var.simulate(a0 + deltas[k], 1, t_len, rng), path)
    panels.append({"path": path, "client_id": f"c{k + 1}"})
doc = {"kind": "empirical", "seed": 1, "d": 4, "p": 1, "rank": 1,
       "n_origins": 4, "panels": panels}
with open("fit.json", "w") as fh:
    json.dump(doc, fh)
with open("fit-dp.json", "w") as fh:
    json.dump({**doc, "noise_mode": "calibrated"}, fh)
EOF

fedvar fit --config fit.json --out fit --rmsfe-agg pooled >/dev/null
fedvar fit --config fit.json --out fit-again --rmsfe-agg pooled >/dev/null
test -s fit/rmsfe.csv && test -s fit/estimates.npz
cmp fit/rmsfe.csv fit-again/rmsfe.csv
echo "ok: fit, pooled, twice to one rmsfe.csv"
# the calibrated origins run different numbers of rounds, so their noisy
# members leave the stage-1 stack at different rounds
fedvar fit --config fit-dp.json --out fit-dp >/dev/null
test -s fit-dp/rmsfe.csv && test -s fit-dp/estimates.npz
echo "ok: fit, calibrated"
fedvar forecast --config fit.json --estimates fit/estimates.npz --out forecast >/dev/null
test -s forecast/forecasts.csv
echo "ok: forecast"
fedvar rank-select --config fit.json >/dev/null
echo "ok: rank-select"
fedvar simulate empirical --config fit.json --out sim >/dev/null
echo "ok: simulate empirical"
