"""Every simulation kind's raw.csv against its checked-in reference.

The references in tests/reference/ are rewritten by reference_runs.py; a
change that moves an output must rewrite them, so the move shows in the
diff.  Label and integer cells must match exactly, and a float cell must
lie within REL_BOUND of its reference.
"""

import csv
import io
import math

import pytest

from fedvar import fed_core, single_client

from reference_runs import REFERENCE_RUNS, reference_path, run_reference

# The bound of a float cell, relative to its reference, with the same
# bound as an absolute floor for a cell near zero (a benefit is the
# difference of two errors of order one).  Another BLAS or CPU may sum a
# product's terms in another order, which moves a sum of n terms by at
# most about n u relative, u = 2**-53 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, section 3.1).  A cell is a norm, a mean of
# norms or a difference of two, of an estimate built from design
# statistics (sums over at most T_MAX rows) by at most ITERS solver
# iterations, each a product over at most PD terms: ADMM to its cap, the
# stage-1 rounds of the largest federation and the refinement's cap.  The
# iterations are nonexpansive, so their errors add, to about
# (T_MAX + ITERS * PD) u = 5e-12; a factor 100 covers the conditioning of
# the statistics and LAPACK's own SVD error.  The bound sits far below
# the smallest change this test is meant to catch, a noise scale moved by
# 1e-6 relative.  A rounding change can still flip a stop rule by one
# iteration, which no bound of this kind covers: the references are then
# rewritten and their diff read.
_U = 2.0**-53
T_MAX = 1600  # rank_table's and single_client_curve's longest path
PD = 20  # p * d at the default sizes
ITERS = (
    single_client._ADMM_MAX_ITER
    + fed_core.default_rounds(10 * 400)  # k_sweep's ten clients of 400 rows
    + fed_core._REFINE_ITERS
)
REL_BOUND = 100 * (T_MAX + ITERS * PD) * _U


def _gap(got, want):
    """How far a value cell moved from its reference: 0 within the bound,
    inf for an integer cell that changed, else the move relative to the
    reference."""
    if got == want:
        return 0.0
    try:
        int(want)
        return math.inf
    except ValueError:
        pass
    x, y = float(got), float(want)
    if math.isclose(x, y, rel_tol=REL_BOUND, abs_tol=REL_BOUND):
        return 0.0
    return abs(x - y) / max(abs(y), REL_BOUND)


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize(("kind", "noise_mode"), REFERENCE_RUNS,
                         ids=[f"{k}-{m}" for k, m in REFERENCE_RUNS])
def test_raw_csv_matches_reference(kind, noise_mode, tmp_path):
    with open(reference_path(kind, noise_mode), encoding="utf-8", newline="") as fh:
        want = _rows(fh.read())
    got = _rows(run_reference(kind, noise_mode, str(tmp_path / "run")))
    # every kind's last column is its value, the others label it
    assert got[0] == want[0] and want[0][-1] == "value"
    assert len(got) == len(want), f"{len(got) - 1} records, the reference has {len(want) - 1}"
    moved = []
    for line, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        assert g[:-1] == w[:-1], f"line {line}: labels {g} against {w}"
        gap = _gap(g[-1], w[-1])
        if gap:
            moved.append((gap, line, g[-1], w[-1]))
    worst = "; ".join(f"line {line}: {g} against {w}, {gap:.3g} relative"
                      for gap, line, g, w in sorted(moved, reverse=True)[:5])
    assert not moved, f"{len(moved)} cells outside the bound {REL_BOUND:.3g}; worst: {worst}"
