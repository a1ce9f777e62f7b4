"""Reference outputs of every simulation kind, checked by test_reference.py.

Each reference is the raw.csv of one kind at seed 3, 2 replications and
the default sizes, under one noise mode the kind takes; they live in
tests/reference/ as <kind>-<noise_mode>.csv.  A change that means to move
an output rewrites them with

    PYTHONPATH=src python3 tests/reference_runs.py

and the diff of tests/reference/ shows which cells moved.
"""

import os
import shutil
import sys
import tempfile

from fedvar.harness import ExperimentConfig, run_experiment

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


def reference_config(kind, noise_mode):
    return ExperimentConfig(kind=kind, seed=3, reps=2, noise_mode=noise_mode)


def reference_path(kind, noise_mode):
    return os.path.join(REFERENCE_DIR, f"{kind}-{noise_mode}.csv")


def run_reference(kind, noise_mode, run_dir):
    """The raw.csv text the current code writes for one reference run."""
    res = run_experiment(reference_config(kind, noise_mode), run_dir=run_dir)
    with open(res.raw_csv, encoding="utf-8") as fh:
        return fh.read()


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    work = tempfile.mkdtemp()
    try:
        for kind, mode in REFERENCE_RUNS:
            text = run_reference(kind, mode, os.path.join(work, f"{kind}-{mode}"))
            with open(reference_path(kind, mode), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            print(reference_path(kind, mode))
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
