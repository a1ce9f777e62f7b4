"""The sufficient statistics (sxx, sxy, syy) of a lag design reproduce every
quantity the solvers used to compute from the raw T x pd design."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvar import fed_core, single_client, var
from fedvar.harness import experiments

from oracles import admm_raw, raw_gradient, raw_loss

REL = 1e-10


@st.composite
def designs(draw):
    """Lag design of a random panel with T in [3, 1600], p in {1, 2},
    plus a random (d, pd) point."""
    d = draw(st.integers(1, 6))
    p = draw(st.sampled_from((1, 2)))
    t_len = draw(st.integers(3, 1600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = var.TimeSeriesPanel(
        presample=rng.standard_normal((p, d)),
        observations=rng.standard_normal((t_len, d)),
    )
    return var.lag_design(panel), rng.standard_normal((d, p * d))


def assert_rel_close(got, want, scale=None):
    """||got - want||_F <= REL * ||want||_F, or REL * scale when given."""
    scale = np.linalg.norm(want) if scale is None else scale
    assert np.linalg.norm(np.asarray(got) - want) <= REL * scale


@settings(max_examples=60, deadline=None)
@given(designs())
def test_statistics_match_design(case):
    design, _ = case
    x, y, t_len = design.x, design.y, design.t_len
    np.testing.assert_array_equal(design.sxx, design.sxx.T)
    assert_rel_close(design.sxx, x.T @ x / t_len)
    assert_rel_close(design.sxy, x.T @ y / t_len)
    assert design.syy == pytest.approx(np.sum(y * y) / t_len, rel=REL)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_gram_gradient_matches_raw(case):
    design, a = case
    got = fed_core.local_gradient(design, a)
    assert_rel_close(got, raw_gradient(design.x, design.y, a))


@settings(max_examples=60, deadline=None)
@given(designs())
def test_closed_form_objective_matches_residuals(case):
    design, a = case
    want = raw_loss(design.x, design.y, a)
    assert design.loss(a) == pytest.approx(want, rel=REL)


@settings(max_examples=30, deadline=None)
@given(designs())
def test_fista_objective_trace_matches_residuals(case):
    design, a = case
    varpi = 0.05
    (delta,), (trace,) = fed_core.refine_fista(
        [design], a, [fed_core.FistaConfig(varpi=varpi, iters=5)]
    )
    start = raw_loss(design.x, design.y, a)
    end = raw_loss(design.x, design.y, a + delta) + varpi * np.sum(np.abs(delta))
    assert trace[0] == pytest.approx(start, rel=REL)
    assert trace[-1] == pytest.approx(end, rel=REL)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_default_eta_matches_raw(case):
    design, _ = case
    top = np.linalg.eigvalsh(design.x.T @ design.x / design.t_len)[-1]
    assert fed_core.default_eta(design) == pytest.approx(1.0 / (2.0 * top), rel=REL)


@pytest.mark.filterwarnings("ignore:ADMM stopped")
@settings(max_examples=30, deadline=None)
@given(designs())
def test_admm_matches_raw_design(case):
    design, _ = case
    cfg = single_client.AdmmConfig(lam=0.01, omega=0.01)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(single_client, "_ADMM_MAX_ITER", 30)
        m.setattr(single_client, "_ADMM_EPS", 0.0)
        (decomp,), report = single_client.fit_admm([design], [cfg])
    state = report.members[0]
    # zero tolerances stop early only when both residuals are exactly zero
    x, y, t_len = design.x, design.y, design.t_len
    a0, delta = admm_raw(
        x, y, 0.01, 0.01, single_client._ADMM_RHO, state.iterations,
        single_client._ADMM_RELAX,
    )
    # The thresholds can shrink either part, or both, to rounding size, so
    # the error is measured against the ridge step that feeds them.
    h = 2.0 * x.T @ x / t_len + single_client._ADMM_RHO * np.eye(design.pd)
    scale = np.linalg.norm(np.linalg.solve(h, 2.0 * x.T @ y / t_len))
    assert_rel_close(decomp.a0, a0, scale)
    assert_rel_close(decomp.delta, delta, scale)


def test_pooled_operator_norm_matches_stacked_design():
    rng = np.random.default_rng(3)
    designs_ = [
        var.LagDesign(x=rng.standard_normal((t, 4)), y=rng.standard_normal((t, 2)))
        for t in (5, 40, 300)
    ]
    x = np.vstack([ds.x for ds in designs_])
    want = np.linalg.eigvalsh(x.T @ x / x.shape[0])[-1]
    got = experiments._pooled_operator_norm(designs_)
    assert got == pytest.approx(want, rel=REL)


def test_statistics_are_read_only():
    design = var.LagDesign(x=np.eye(3), y=np.ones((3, 1)))
    with pytest.raises(ValueError):
        design.sxx[0, 0] = 5.0
    with pytest.raises(ValueError):
        design.sxy[0, 0] = 5.0
