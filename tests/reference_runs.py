"""Reference outputs, checked by test_reference.py.

Simulation references are the raw.csv of every simulation kind at seed
3, 2 replications and the default sizes, under one noise mode the kind
takes; they live in tests/reference/ as <kind>-<noise_mode>.csv.  Fit
references are ``fedvar fit``'s outputs on two small panels (d=4, p=1,
rank 1, 42 and 44 rows, 4 origins, the panels .github/smoke.sh draws),
without noise and calibrated: rmsfe.csv as fit-<noise_mode>-rmsfe.csv
and a text dump of estimates.npz, one (array, row, col, value) line per
entry, as fit-<noise_mode>-estimates.csv.  A change that means to move
an output rewrites them with

    PYTHONPATH=src python3 tests/reference_runs.py

and the diff of tests/reference/ shows which cells moved.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from fedvar import var
from fedvar.harness import ExperimentConfig, run_experiment, write_panel
from fedvar.harness.cli import main as cli_main

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# every simulation kind under each noise mode it takes (a privacy
# heatmap refuses "none")
REFERENCE_RUNS = (
    ("single_client_curve", "none"),
    ("rank_table", "none"),
    ("privacy_heatmap", "fixed_scale"),
    ("privacy_heatmap", "calibrated"),
    ("k_sweep", "none"),
    ("k_sweep", "fixed_scale"),
    ("k_sweep", "calibrated"),
    ("t_sweep", "none"),
    ("t_sweep", "fixed_scale"),
    ("t_sweep", "calibrated"),
)

# fedvar fit's noise modes; a calibrated fit's origins are distinct noise
# streams
FIT_RUNS = ("none", "calibrated")


def reference_config(kind, noise_mode):
    return ExperimentConfig(kind=kind, seed=3, reps=2, noise_mode=noise_mode)


def reference_path(kind, noise_mode):
    return os.path.join(REFERENCE_DIR, f"{kind}-{noise_mode}.csv")


def fit_reference_path(noise_mode, output):
    return os.path.join(REFERENCE_DIR, f"fit-{noise_mode}-{output}.csv")


def run_reference(kind, noise_mode, run_dir):
    """The raw.csv text the current code writes for one reference run."""
    res = run_experiment(reference_config(kind, noise_mode), run_dir=run_dir)
    with open(res.raw_csv, encoding="utf-8") as fh:
        return fh.read()


def _estimates_text(path):
    """estimates.npz as CSV text: one line per entry of each array, in
    the file's order, its value written to round-trip."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("array", "row", "col", "value"))
    with np.load(path) as arrays:
        for name in arrays.files:
            for (i, j), value in np.ndenumerate(arrays[name]):
                writer.writerow((name, i, j, repr(float(value))))
    return out.getvalue()


def run_fit_reference(noise_mode, work):
    """The rmsfe.csv text and the estimates.npz dump that ``fedvar fit``
    writes on the two reference panels under noise_mode, keyed "rmsfe"
    and "estimates", run in the directory work."""
    rng = np.random.default_rng(1)
    a0, deltas = var.assemble_dgp(4, 1, 1, 2, rng, ratio=5.0)
    panels = []
    for k, t_len in enumerate((42, 44)):
        path = os.path.join(work, f"c{k + 1}.csv")
        write_panel(var.simulate(a0 + deltas[k], 1, t_len, rng), path)
        panels.append({"path": path, "client_id": f"c{k + 1}"})
    config = os.path.join(work, "fit.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"kind": "empirical", "seed": 1, "d": 4, "p": 1, "rank": 1,
                   "n_origins": 4, "panels": panels, "noise_mode": noise_mode}, fh)
    out = os.path.join(work, "fit")
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["fit", "--config", config, "--out", out])
    if status != 0:
        raise RuntimeError(f"fedvar fit exited {status}")
    with open(os.path.join(out, "rmsfe.csv"), encoding="utf-8") as fh:
        rmsfe = fh.read()
    return {"rmsfe": rmsfe, "estimates": _estimates_text(os.path.join(out, "estimates.npz"))}


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(path)


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    work = tempfile.mkdtemp()
    try:
        for kind, mode in REFERENCE_RUNS:
            text = run_reference(kind, mode, os.path.join(work, f"{kind}-{mode}"))
            _write(reference_path(kind, mode), text)
        for mode in FIT_RUNS:
            fit_dir = os.path.join(work, f"fit-{mode}")
            os.makedirs(fit_dir)
            for output, text in run_fit_reference(mode, fit_dir).items():
                _write(fit_reference_path(mode, output), text)
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
