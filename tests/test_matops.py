import warnings

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


def svt_bound(shape, s_max, tau):
    """svt's stated distance from the exact threshold, (k + 1)(k + l) u
    s_max (1 + s_max^2 / (2 tau^2)) for sides k <= l."""
    k, l = sorted(shape)
    return (k + 1) * (k + l) * 2.0**-53 * s_max * (1.0 + s_max**2 / (2.0 * tau**2))


def dgesdd_threshold(m, tau):
    """The np.linalg.svd threshold of m, its s_max, and a bound on its own
    distance from the exact threshold.  SVT is nonexpansive, so that
    distance is at most the factorization's backward error plus s_max
    times its factors' departure from orthogonality, and the products'
    rounding."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    want = (u * np.maximum(s - tau, 0.0)) @ vt
    eye = np.eye(s.shape[0])
    departure = np.linalg.norm(u.T @ u - eye) + np.linalg.norm(vt @ vt.T - eye)
    slack = np.linalg.norm((u * s) @ vt - m) + (departure + s.shape[0] * 2.0**-53) * s[0]
    return want, s[0], slack


@st.composite
def svt_cases(draw):
    """(m, tau): tall, square and wide m in C or F order, with a random,
    rank-deficient, zero, clustered-at-tau or near-threshold spectrum whose
    largest value lies between tau and 1000 tau, on both sides of svt's
    guard, and tau = 0 among the thresholds."""
    k, l = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(max(k, l), min(k, l)), (min(k, l), max(k, l)), (k, k)]))
    tau = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    spectrum = draw(
        st.sampled_from(("random", "deficient", "zero", "clustered", "near"))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = min(shape)
    left, _ = np.linalg.qr(rng.standard_normal((shape[0], n)))
    right, _ = np.linalg.qr(rng.standard_normal((shape[1], n)))
    unit = tau if tau > 0 else 1.0
    top = unit * 10.0 ** draw(st.floats(0.0, 3.0))
    if spectrum == "random":
        s = rng.uniform(0.0, top, n)
    elif spectrum == "deficient":
        s = rng.uniform(0.0, top, n) * (rng.random(n) < 0.4)
    elif spectrum == "zero":
        s = np.zeros(n)
    elif spectrum == "clustered":
        s = unit * (1.0 + rng.uniform(-1e-9, 1e-9, n))
    else:
        s = unit * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15, -3, n))
    if spectrum in ("clustered", "near"):
        s[0] = max(s[0], top)
    m = (left * s) @ right.T
    return np.asarray(m, order=draw(st.sampled_from("CF"))), tau


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

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stack_equals_member_calls(self, n, order):
        rng = np.random.default_rng(18)
        members = [rng.standard_normal((6, 9)) for _ in range(n - 1)]
        # a rank-deficient member: rank 2 of 6
        members.append(rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9)))
        members = [np.asarray(m, order=order) for m in members]
        # a C-ordered stack, and one whose slices are Fortran-ordered
        stacks = (np.stack(members), np.stack([m.T for m in members]).transpose(0, 2, 1))
        for stack in stacks:
            for r in (1, 6):
                got, f = matops.svd_truncate(stack, r)
                assert f.u.shape == (n, 6, r) and f.s.shape == (n, r)
                assert f.v.shape == (n, 9, r)
                for c, m in enumerate(members):
                    want, want_f = matops.svd_truncate(m, r)
                    assert got[c].tobytes() == want.tobytes()
                    for name in ("u", "s", "v"):
                        got_part, want_part = getattr(f, name)[c], getattr(want_f, name)
                        assert got_part.tobytes() == want_part.tobytes()

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
        for m in (big, big.T):
            with pytest.raises(ValueError, match="cap"):
                matops.svt(m, 0.1)

    def test_rejects_nonfinite(self):
        # LAPACK may never return on inf entries, so the SVD refuses them
        for bad in (np.nan, np.inf, -np.inf):
            for order in ("C", "F"):
                m = np.array([[1.0, bad], [0.0, 1.0]], order=order)
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

    def test_svt_bitwise_independent_of_sign_fix(self, monkeypatch):
        # each eigenvector enters V diag(f) V' twice, and negation is exact,
        # so flipping any eigenvector's sign leaves every bit of the result
        rng = np.random.default_rng(13)
        real_eigh = np.linalg.eigh
        calls = []

        def flipped(a):
            w, v = real_eigh(a)
            calls.append(a.shape)
            return w, v * np.where(np.arange(v.shape[-1]) % 2 == 0, -1.0, 1.0)

        for shape in ((5, 5), (4, 9), (20, 20), (12, 24), (24, 12)):
            for order in ("C", "F"):
                stack = np.asarray(rng.standard_normal((3, *shape)), order=order)
                # two thresholds on the Gram path, with eigenpairs kept and
                # dropped, and one above the spectrum
                tau = np.array([0.3, 1.5, 50.0])
                want = matops.svt(stack, tau)
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "eigh", flipped)
                    got = matops.svt(stack, tau)
                assert calls and got.tobytes() == want.tobytes()
                calls.clear()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(20, 20), (24, 12), (40, 20), (12, 24)])
    def test_svt_is_bitwise_the_numpy_svd_threshold(self, shape, order):
        # a matrix the guard sends to dgesdd, at tau = 0 or with s_max at
        # least _GRAM_RATIO tau, gets the np.linalg.svd threshold bit for bit
        rng = np.random.default_rng(14)
        m = np.asarray(rng.standard_normal(shape), order=order)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        for tau in (0.0, s[0] / (2.0 * matops._GRAM_RATIO), s[0] / 1e4):
            want = (u * np.maximum(s - tau, 0.0)) @ vt
            got = matops.svt(m, tau)
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(20, 20), (24, 12), (40, 20), (12, 24)])
    def test_svt_is_within_the_bound_of_the_numpy_svd_threshold(self, shape, order):
        # the Gram path lands within svt's stated bound of the dgesdd
        # threshold, and is not bitwise it
        rng = np.random.default_rng(14)
        for tau in (0.3, 2.0):
            m = np.asarray(rng.standard_normal(shape), order=order)
            want, s_max, slack = dgesdd_threshold(m, tau)
            got = matops.svt(m, tau)
            assert got.shape == shape
            assert 0.0 < np.linalg.norm(got - want) <= svt_bound(shape, s_max, tau) + slack

    @settings(max_examples=300, deadline=None)
    @given(svt_cases())
    def test_svt_property_against_the_dgesdd_threshold(self, case):
        m, tau = case
        want, s_max, slack = dgesdd_threshold(m, tau)
        got = matops.svt(m, tau)
        # svt decides from the Gram matrix's s_max, so a hair above the
        # guard either path may run, and both meet the bound
        if s_max >= matops._GRAM_RATIO * tau * (1.0 + 1e-9):
            # the guard sends tau = 0 and large s_max / tau to dgesdd
            assert got.tobytes() == want.tobytes()
        else:
            assert np.linalg.norm(got - want) <= svt_bound(m.shape, s_max, tau) + slack

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 5])
    def test_stacked_svt_is_bitwise_the_per_slice_threshold(self, n, order):
        # one batched call, each member at its own tau, equals each
        # member's own call, as a one-member stack and as a 2-D matrix
        rng = np.random.default_rng(15)
        for shape in ((24, 12), (12, 24), (20, 4)):
            stack = rng.standard_normal((n, *shape))
            if order == "F":
                # Fortran-ordered slices, the layout of fit_admm's stack
                stack = np.ascontiguousarray(stack.swapaxes(1, 2)).swapaxes(1, 2)
            tau = rng.uniform(0.0, 2.0, n)
            got = matops.svt(stack, tau)
            assert got.shape == stack.shape
            for c in range(n):
                assert got[c].tobytes() == matops.svt(stack[c : c + 1], tau[c : c + 1])[0].tobytes()
                assert got[c].tobytes() == matops.svt(stack[c], tau[c]).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_guarded_members_are_bitwise_the_dgesdd_threshold(self, order):
        # tau = 0, s_max / tau above the guard and entries whose Gram
        # matrix would overflow go to dgesdd, bitwise its threshold, also
        # among members that take the Gram path
        rng = np.random.default_rng(17)
        stack = rng.standard_normal((6, 24, 12))
        stack[3] *= 1e200
        stack = np.asarray(stack, order=order)
        tau = np.array([0.0, 0.5, 1e-4, 1e198, 1.0, 0.0])
        guarded = [0, 2, 3, 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matops.svt(stack, tau)
        for c in range(6):
            assert got[c].tobytes() == matops.svt(stack[c], tau[c]).tobytes()
            if c in guarded:
                u, s, vt = np.linalg.svd(stack[c], full_matrices=False)
                want = (u * np.maximum(s - tau[c], 0.0)) @ vt
                assert got[c].tobytes() == want.tobytes()
            else:
                want, s_max, slack = dgesdd_threshold(stack[c], tau[c])
                assert got[c].tobytes() != want.tobytes()
                bound = svt_bound((24, 12), s_max, tau[c]) + slack
                assert np.linalg.norm(got[c] - want) <= bound

    def test_svt_of_zero_and_above_the_spectrum(self):
        zero = np.zeros((2, 6, 4))
        assert np.array_equal(matops.svt(zero, np.array([0.0, 1.0])), zero)
        m = np.random.default_rng(18).standard_normal((7, 3))
        top = np.linalg.norm(m, 2)
        assert np.array_equal(matops.svt(m, 2 * top), np.zeros_like(m))

    def test_stacked_svt_refuses_one_nonfinite_member(self):
        stack = np.random.default_rng(16).standard_normal((4, 6, 3))
        for bad in (np.nan, np.inf):
            stack[2, 1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                matops.svt(stack, np.full(4, 0.1))

    def test_stacked_svt_caps_sides_not_members(self):
        small = np.ones((matops.SVD_DIM_CAP + 1, 2, 2))
        out = matops.svt(small, np.zeros(matops.SVD_DIM_CAP + 1))
        np.testing.assert_allclose(out, small, atol=1e-12)
        for big in (np.zeros((2, matops.SVD_DIM_CAP + 1, 2)),
                    np.zeros((2, 2, matops.SVD_DIM_CAP + 1))):
            with pytest.raises(ValueError, match="cap"):
                matops.svt(big, np.zeros(2))

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
        return f, m

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
        basis = matops.SvdFactors(u=np.eye(3)[:, :1], s=np.ones(1), v=np.eye(4)[:, :1])
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
    z = np.zeros((d, pd)) if direction == "zero" else rng.standard_normal((d, pd))
    if direction == "tangent":
        z = matops.tangent_project(z, factors)
    return factors, z, rho


def solo_step(factors, z, rho):
    """tangent_step on a one-member stack, unstacked."""
    one = matops.SvdFactors(u=factors.u[None], s=factors.s[None], v=factors.v[None])
    got, f = matops.tangent_step(one, z[None], [rho])
    return got[0], matops.SvdFactors(u=f.u[0], s=f.s[0], v=f.v[0])


class TestTangentStep:
    @settings(max_examples=300, deadline=None)
    @given(tangent_step_cases())
    def test_matches_projection_then_full_svd(self, case):
        factors, z, rho = case
        r = factors.s.shape[0]
        target = factors.matrix() - rho * matops.tangent_project(z, factors)
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
        factors = matops.SvdFactors(
            u=np.stack([f.u for f, _, _ in members]),
            s=np.stack([f.s for f, _, _ in members]),
            v=np.stack([f.v for f, _, _ in members]),
        )
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
