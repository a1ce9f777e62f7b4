import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedvar import matops

from oracles import (
    fix_signs_loop,
    rank_r_part,
    tangent_project_basis,
)


def small_matrices(max_side=6):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda mn: st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=mn[0] * mn[1],
            max_size=mn[0] * mn[1],
        ).map(lambda vals: np.array(vals, dtype=np.float64).reshape(mn))
    )


class TestSvdTruncate:
    def test_rank_one_part_frozen(self):
        # M = [[3,0],[4,5]]: M^T M = [[25,20],[20,25]], eigenvalues 45 and 5,
        # so the rank-1 part is 1.5 * [[1,1],[3,3]].
        m = np.array([[3.0, 0.0], [4.0, 5.0]])
        approx, factors = matops.svd_truncate(m, 1)
        expected = np.array([[1.5, 1.5], [4.5, 4.5]])
        np.testing.assert_allclose(approx, expected, atol=1e-12)
        np.testing.assert_allclose(
            factors.s, [np.sqrt(45.0)], atol=1e-12
        )

    def test_matches_gram_eigendecomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((5, 7))
            for r in (1, 2, 4):
                approx, _ = matops.svd_truncate(m, r)
                np.testing.assert_allclose(approx, rank_r_part(m, r), atol=1e-9)

    def test_full_rank_is_identity_map(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6))
        approx, factors = matops.svd_truncate(m, 4)
        np.testing.assert_allclose(approx, m, atol=1e-12)
        np.testing.assert_allclose(factors.matrix(), m, atol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8))
        a1, f1 = matops.svd_truncate(m, 3)
        a2, f2 = matops.svd_truncate(m.copy(), 3)
        assert np.array_equal(a1, a2)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 5))
        _, f = matops.svd_truncate(m, 5)
        for j in range(f.u.shape[1]):
            col = f.u[:, j]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] > 0

    def test_vectorised_sign_rule_matches_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = rng.standard_normal((7, 5))
            v = rng.standard_normal((4, 5))
            for j, lead in enumerate(rng.integers(0, 7, size=5)):
                u[:lead, j] = 0.0  # 0 to 6 leading zeros
            u[:, 2] = 0.0  # an all-zero column keeps its sign
            u[1, 3] = -0.0
            got_u, got_v = matops._fix_signs(u, v)
            want_u, want_v = fix_signs_loop(u, v)
            for got, want in ((got_u, want_u), (got_v, want_v)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_dim_cap(self):
        big = np.zeros((matops.SVD_DIM_CAP + 1, 2))
        with pytest.raises(ValueError, match="cap"):
            matops.svd_truncate(big, 1)

    def test_rejects_nonfinite(self):
        # LAPACK may never return on inf entries, so the SVD refuses them
        for bad in (np.nan, np.inf, -np.inf):
            m = np.array([[1.0, bad], [0.0, 1.0]])
            with pytest.raises(ValueError, match="non-finite"):
                matops.svd_truncate(m, 1)
            with pytest.raises(ValueError, match="non-finite"):
                matops.svt(m, 0.1)


class TestShrinkage:
    def test_svt_diagonal(self):
        m = np.diag([3.0, 2.0, 1.0])
        out = matops.svt(m, 1.5)
        np.testing.assert_allclose(out, np.diag([1.5, 0.5, 0.0]), atol=1e-12)

    def test_svt_orthogonal_invariance(self):
        # svt commutes with orthogonal rotations of both sides
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 5))
        q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        left = matops.svt(q1 @ m @ q2, 0.7)
        right = q1 @ matops.svt(m, 0.7) @ q2
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_svt_bitwise_independent_of_sign_fix(self):
        rng = np.random.default_rng(13)
        for shape in ((5, 5), (4, 9), (20, 20), (12, 24)):
            m = rng.standard_normal(shape)
            u, s, v = matops._svd(m)
            s = np.maximum(s - 0.3, 0.0)
            fu, fv = matops._fix_signs(u, v)
            assert not np.array_equal(fu, u)  # some column was flipped
            with_fix = (fu * s) @ fv.T
            assert np.array_equal(matops.svt(m, 0.3), with_fix)
            assert np.array_equal((u * s) @ v.T, with_fix)

    def test_svt_zero_tau_identity(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 7))
        np.testing.assert_allclose(matops.svt(m, 0.0), m, atol=1e-10)

    def test_soft_threshold_example(self):
        assert matops.soft_threshold(np.array([[-2.25]]), 0.25)[0, 0] == -2.0

    @given(
        x=st.floats(-100, 100, allow_nan=False),
        tau=st.floats(0, 50, allow_nan=False),
    )
    def test_soft_threshold_properties(self, x, tau):
        out = float(matops.soft_threshold(np.array([[x]]), tau)[0, 0])
        assert abs(out - x) <= tau + 1e-12
        if abs(x) <= tau:
            assert out == 0.0
        else:
            assert np.sign(out) == np.sign(x)
            assert abs(out) == pytest.approx(abs(x) - tau)


class TestLinfProject:
    def test_clip(self):
        m = np.array([[2.0, -0.3], [-5.0, 0.9]])
        out = matops.linf_project(m, 1.0)
        np.testing.assert_allclose(out, [[1.0, -0.3], [-1.0, 0.9]])

    @settings(max_examples=50)
    @given(small_matrices(4), st.floats(0, 5, allow_nan=False))
    def test_feasible_and_fixed_point(self, m, zeta):
        out = matops.linf_project(m, zeta)
        assert np.max(np.abs(out)) <= zeta + 1e-15
        np.testing.assert_array_equal(matops.linf_project(out, zeta), out)


class TestTangentProject:
    def _basis(self, rng, d1, d2, r):
        m = rng.standard_normal((d1, d2))
        _, f = matops.svd_truncate(m, r)
        return matops.TangentBasis(u=f.u, v=f.v), m

    def test_matches_explicit_basis_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            basis, _ = self._basis(rng, 5, 6, 2)
            b = rng.standard_normal((5, 6))
            got = matops.tangent_project(b, basis)
            want = tangent_project_basis(b, basis.u, basis.v)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        basis, _ = self._basis(rng, 6, 6, 3)
        b = rng.standard_normal((6, 6))
        p1 = matops.tangent_project(b, basis)
        p2 = matops.tangent_project(p1, basis)
        np.testing.assert_allclose(p1, p2, atol=1e-11)

    def test_nonexpansive(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            basis, _ = self._basis(rng, 4, 7, 2)
            b = rng.standard_normal((4, 7))
            assert (
                np.linalg.norm(matops.tangent_project(b, basis))
                <= np.linalg.norm(b) + 1e-12
            )

    def test_self_adjoint(self):
        # <P(a), b> == <a, P(b)>
        rng = np.random.default_rng(9)
        basis, _ = self._basis(rng, 5, 5, 2)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        lhs = np.sum(matops.tangent_project(a, basis) * b)
        rhs = np.sum(a * matops.tangent_project(b, basis))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_base_point_is_fixed(self):
        rng = np.random.default_rng(10)
        basis, m = self._basis(rng, 5, 6, 2)
        point, _ = matops.svd_truncate(m, 2)
        np.testing.assert_allclose(
            matops.tangent_project(point, basis), point, atol=1e-11
        )

    def test_shape_mismatch(self):
        basis = matops.TangentBasis(u=np.eye(3)[:, :1], v=np.eye(4)[:, :1])
        with pytest.raises(ValueError):
            matops.tangent_project(np.zeros((2, 4)), basis)


@st.composite
def tangent_step_cases(draw):
    """(point, direction, rho) with r up to min(d, pd), so 2r > min(d, pd)
    is drawn too; points and directions include zero, and directions
    include one already in the tangent space."""
    d, pd = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(1, min(d, pd)))
    rho = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    point = draw(st.sampled_from(("random", "zero")))
    direction = draw(st.sampled_from(("random", "zero", "tangent")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((d, pd)) if point == "random" else np.zeros((d, pd))
    _, factors = matops.svd_truncate(x, r)
    basis = matops.TangentBasis(u=factors.u, v=factors.v)
    z = np.zeros((d, pd)) if direction == "zero" else rng.standard_normal((d, pd))
    if direction == "tangent":
        z = matops.tangent_project(z, basis)
    return factors, basis, z, rho


def solo_step(factors, z, rho):
    """tangent_step on a one-member stack, unstacked."""
    got, f = matops.tangent_step(matops.SvdFactors.stack([factors]), z[None], [rho])
    return got[0], matops.SvdFactors(u=f.u[0], s=f.s[0], v=f.v[0])


class TestTangentStep:
    @settings(max_examples=300, deadline=None)
    @given(tangent_step_cases())
    def test_matches_projection_then_full_svd(self, case):
        factors, basis, z, rho = case
        r = factors.s.shape[0]
        target = factors.matrix() - rho * matops.tangent_project(z, basis)
        sv = np.linalg.svd(target, compute_uv=False)
        # the rank-r truncation is unique only with a gap after sigma_r
        assume(
            sv.size == r or sv[r] <= 1e-13 * sv[0] or sv[r - 1] - sv[r] >= 1e-3 * sv[0]
        )
        want, _ = matops.svd_truncate(target, r)
        got, f = solo_step(factors, z, rho)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert f.u.shape == factors.u.shape and f.v.shape == factors.v.shape
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(r), atol=1e-12)
        assert np.all(f.s >= 0) and np.all(np.diff(f.s) <= 0)

    def test_nonfinite_direction_raises(self):
        rng = np.random.default_rng(15)
        _, factors = matops.svd_truncate(rng.standard_normal((5, 7)), 2)
        for bad in (np.nan, np.inf, -np.inf):
            for pos in ((0, 0), (4, 6), (2, 3)):
                z = rng.standard_normal((5, 7))
                z[pos] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    solo_step(factors, z, 0.1)

    def test_overflowing_step_raises(self):
        rng = np.random.default_rng(16)
        _, factors = matops.svd_truncate(rng.standard_normal((5, 7)), 2)
        _, ones = matops.svd_truncate(np.ones((5, 7)), 1)
        cases = (
            # finite direction whose products with u and v overflow
            (ones, np.full((5, 7), 1.5e308), 0.1, "QR input"),
            # finite QR input, core overflows through rho
            (factors, 1e10 * rng.standard_normal((5, 7)), 1e300, "core"),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            for f, z, rho, where in cases:
                with pytest.raises(ValueError, match=f"{where} contains non-finite"):
                    solo_step(f, z, rho)

    def test_stack_equals_solo_steps(self):
        rng = np.random.default_rng(17)
        members = [
            (matops.svd_truncate(rng.standard_normal((6, 9)), 2)[1],
             rng.standard_normal((6, 9)), rho)
            for rho in (0.3, 0.0, 2.0)
        ]
        factors = matops.SvdFactors.stack([f for f, _, _ in members])
        z = np.stack([z for _, z, _ in members])
        # two steps, the second from the stacked factors the first returned
        for rhos in ([rho for _, _, rho in members], [0.1, 0.2, 0.3]):
            got, out = matops.tangent_step(factors, z, rhos)
            for c in range(3):
                solo = matops.SvdFactors(u=factors.u[c], s=factors.s[c], v=factors.v[c])
                want, want_f = solo_step(solo, z[c], rhos[c])
                assert np.array_equal(got[c], want)
                for name in ("u", "s", "v"):
                    assert np.array_equal(getattr(out, name)[c], getattr(want_f, name))
            factors = out
