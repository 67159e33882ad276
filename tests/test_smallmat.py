import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov import smallmat
from laplace_krylov.krylov import arnoldi
from laplace_krylov.operators import LinearOperator, convection_diffusion_nd
from laplace_krylov.quadrature import QuadratureRule, apply_rule_matrix
from laplace_krylov.restart import RestartConfig, builtin_kernels, restarted_laplace
from laplace_krylov.smallmat import (
    KAPPA_MAX,
    PADE_CHUNK,
    eig_general,
    eig_hermitian,
    expm_action,
    expm_columns,
)


def random_hessenberg(m, rng, spd_shift=0.0):
    h = np.triu(rng.standard_normal((m, m)), -1)
    if spd_shift:
        h = h + spd_shift * np.eye(m)
    return h


class TestExpmAction:
    def test_scalar_case(self):
        for a in (-1.3, 0.0, 2.5):
            v = np.array([0.7])
            out = expm_action(np.array([[a]]), v, 1.8)
            assert out == pytest.approx(np.exp(-1.8 * a) * v)

    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 5))
        v = rng.standard_normal(5)
        assert expm_action(h, v, 0.0) == pytest.approx(v)

    def test_matches_pade_reference(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 8))
        v = rng.standard_normal(8)
        t = 3.7
        ref = la.expm(-t * h) @ v
        out = expm_action(h, v, t)
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_pade_switch_for_large_scaling(self):
        # strongly scaled arguments, t ||H||_1 from 135 to 460; the Hermitian
        # cache provides the independent value
        rng = np.random.default_rng(2)
        h = rng.standard_normal((6, 6))
        h = h + h.T + 8 * np.eye(6)
        v = rng.standard_normal(6)
        t = np.linspace(135.0, 460.0, 6) / norm1(h)
        out = expm_columns(h, v, t)
        ref = expm_columns(h, v, t, cache=eig_hermitian(h))
        assert max_rel(out, ref) <= 1e-11

    def test_hermitian_and_general_paths_agree(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((7, 7))
        h = h + h.T
        v = rng.standard_normal(7)
        a = expm_action(h, v, 1.3)
        b = expm_action(h, v, 1.3, cache=eig_hermitian(h))
        assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((6, 6))
        v = rng.standard_normal(6)
        once = expm_action(h, expm_action(h, v, 0.9), 1.4)
        direct = expm_action(h, v, 2.3)
        assert np.linalg.norm(once - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            expm_action(np.eye(2), np.ones(2), -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm_action(np.array([[np.nan]]), np.ones(1), 1.0)

    def test_g_leading_order(self):
        # g(tau) = e_m^T exp(-tau H) e_1 = (-1)^(m-1) tau^(m-1) prod(h)/ (m-1)! + O(tau^m)
        rng = np.random.default_rng(5)
        m = 3
        h = random_hessenberg(m, rng)
        subdiag = np.prod(np.diag(h, -1))
        tau = 1e-5
        e1 = np.eye(m)[:, 0]
        g = expm_action(h, e1, tau)[m - 1]
        lead = tau ** (m - 1) * subdiag / 2.0
        assert g == pytest.approx(lead, rel=1e-3)

    def test_g_zero_at_origin(self):
        e1 = np.eye(4)[:, 0]
        assert expm_action(np.triu(np.ones((4, 4)), -1), e1, 0.0)[3] == 0.0


def norm1(h):
    return np.abs(h).sum(axis=0).max()


def per_node_expm(h, v, t):
    return np.column_stack([la.expm(-ti * h) @ v for ti in t])


def per_node_one_minus(h, v, t):
    """(I - exp(-tH)) v = tH phi_1(-tH) v, with phi_1(-tH) v read off the
    exponential of the augmented matrix [[-tH, v], [0, 0]]: no cancellation."""
    m = h.shape[0]
    cols = []
    for ti in t:
        aug = np.zeros((m + 1, m + 1), dtype=np.result_type(h, v))
        aug[:m, :m] = -ti * h
        aug[:m, m] = v
        cols.append(ti * h @ la.expm(aug)[:m, m])
    return np.column_stack(cols)


def mpmath_columns(h, v, t, dps=40):
    """exp(-tH) v and (I - exp(-tH)) v per node from a dps-digit mpmath expm."""
    with mpmath.workdps(dps):
        hm = mpmath.matrix(h.tolist())
        vm = mpmath.matrix(v.tolist())
        cols = [mpmath.expm(-mpmath.mpf(ti) * hm) * vm for ti in t]
        plain = np.array([[float(c[i]) for c in cols] for i in range(len(v))])
        one_minus = np.array([[float(vm[i] - c[i]) for c in cols] for i in range(len(v))])
    return plain, one_minus


def max_rel(out, ref):
    return float(np.max(np.linalg.norm(out - ref, axis=0) / np.linalg.norm(ref, axis=0)))


def gaussian(m, rng, dtype):
    """Dense m x m H with Gaussian entries, real or complex."""
    h = rng.standard_normal((m, m))
    if dtype is complex:
        h = h + 1j * rng.standard_normal((m, m))
    return h


class TestExpmColumns:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_taylor_and_pade_nodes_match_per_node_expm(self, dtype):
        rng = np.random.default_rng(11)
        h = gaussian(20, rng, dtype)
        v = rng.standard_normal(20)
        t = np.concatenate([[0.0], np.linspace(2.5, 160.0, 30) / norm1(h)])
        out = expm_columns(h, v, t)
        assert out.shape == (20, 31)
        assert np.array_equal(out[:, 0], v)
        assert max_rel(out, per_node_expm(h, v, t)) <= 1e-13

    def test_more_pade_nodes_than_one_chunk(self):
        rng = np.random.default_rng(12)
        h = gaussian(20, rng, float)
        v = rng.standard_normal(20)
        t = np.linspace(135.0, 1070.0, 2 * PADE_CHUNK + 7) / norm1(h)
        assert max_rel(expm_columns(h, v, t), per_node_expm(h, v, t)) <= 1e-13

    def test_unsorted_nodes_match_per_node_loop(self):
        # a non-normal Hessenberg matrix, as the Arnoldi cycles produce
        rng = np.random.default_rng(13)
        h = random_hessenberg(12, rng, spd_shift=2.0)
        v = np.eye(12)[:, 0]
        t = rng.permutation(np.concatenate([[0.0], np.linspace(2.5, 210.0, 39) / norm1(h)]))
        assert max_rel(expm_columns(h, v, t), per_node_expm(h, v, t)) <= 1e-13

    def test_non_normal_hessenberg_matches_mpmath(self):
        # the cycle-1 Hessenberg matrix of the cd3d benchmark problem at
        # m = 20, ||H||_1 = 134: plain and one_minus columns within 1e-12 of
        # a 40-digit reference, from t ||H||_1 = 1e-12 to 300
        op = LinearOperator.from_matrix(convection_diffusion_nd(20, 1e-3, 3))
        h = arnoldi(op, np.random.default_rng(0).standard_normal(op.n), 20).H
        assert norm1(h) > 100
        e1 = np.eye(20)[:, 0]
        t = np.geomspace(1e-12, 300.0, 15) / norm1(h)
        ref, ref_one_minus = mpmath_columns(h, e1, t)
        assert max_rel(expm_columns(h, e1, t), ref) <= 1e-12
        assert max_rel(expm_columns(h, e1, t, one_minus=True), ref_one_minus) <= 1e-12

    def test_one_by_one(self):
        t = np.array([0.0, 0.3, 4.0, 90.0])
        for a in (-1.3, 0.0, 2.5):
            out = expm_columns(np.array([[a]]), [0.7], t)
            assert out[0] == pytest.approx(0.7 * np.exp(-t * a), rel=1e-15)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_minus_small_and_large_arguments(self, dtype):
        rng = np.random.default_rng(14)
        h = gaussian(20, rng, dtype)
        v = rng.standard_normal(20)
        t = np.array([1e-12, 1e-6, 0.4, 0.5, 0.6, 3.0, 30.0, 300.0]) / norm1(h)
        out = expm_columns(h, v, t, one_minus=True)
        assert max_rel(out, per_node_one_minus(h, v, t)) <= 1e-13

    def test_hermitian_cache_matches_expm(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((6, 6))
        h = (a + a.T) / 2
        v = rng.standard_normal(6)
        t = np.array([0.0, 0.01, 0.2, 0.5])
        cache = eig_hermitian(h)
        assert max_rel(expm_columns(h, v, t, cache), per_node_expm(h, v, t)) <= 1e-13
        out = expm_columns(h, v, t[1:], cache, one_minus=True)
        assert max_rel(out, per_node_one_minus(h, v, t[1:])) <= 1e-13

    def test_overflowing_columns_are_masked_by_live_nodes(self):
        # a negative eigenvalue makes exp(-t H) overflow at t = 1000; the
        # zero kernel sample there must keep that column out of the sum
        q, _ = la.qr(np.random.default_rng(16).standard_normal((4, 4)))
        h = q @ np.diag([-1.0, 1.0, 2.0, 3.0]) @ q.T
        h = (h + h.T) / 2
        e1 = np.eye(4)[:, 0]
        nodes = np.array([0.5, 1.0, 2.0, 1000.0])
        rule = QuadratureRule(nodes=nodes, weights=np.array([0.3, 0.2, 0.1, 0.4]),
                              eps_q=1e-10, nu=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = expm_columns(h, e1, nodes, eig_hermitian(h))
            out = apply_rule_matrix(rule, np.array([1.0, 2.0, 3.0, 0.0]), E)
        assert not np.all(np.isfinite(E[:, 3]))
        ref = per_node_expm(h, e1, nodes[:3]) @ (rule.weights[:3] * [1.0, 2.0, 3.0])
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_rejects_negative_and_nonfinite_t(self, bad, hermitian):
        h = np.diag([1.0, 2.0])
        cache = eig_hermitian(h) if hermitian else None
        with pytest.raises(ValueError, match="^t must"):
            expm_columns(h, np.ones(2), [0.5, bad], cache)


class TestOneMinusExpm:
    def test_small_t_no_cancellation(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 5))
        h = h + h.T + 6 * np.eye(5)
        v = np.eye(5)[:, 0]
        t = 1e-9
        out = expm_columns(h, v, [t], one_minus=True)[:, 0]
        ref = expm_columns(h, v, [t], eig_hermitian(h), one_minus=True)[:, 0]
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        # must not be the catastrophic v - expm result, which has ~1e-7 noise
        assert np.linalg.norm(ref) == pytest.approx(t * np.linalg.norm(h @ v), rel=1e-6)

    def test_large_t_matches_direct(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((5, 5))
        v = rng.standard_normal(5)
        out = expm_columns(h, v, [2.0], one_minus=True)[:, 0]
        ref = v - la.expm(-2.0 * h) @ v
        assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(ref)


def kappa1(x):
    return np.linalg.norm(x, 1) * np.linalg.norm(la.inv(x), 1)


class TestGeneralClosedForm:
    """Columns from one general eigendecomposition, or the stacked expm when
    the eigenvector basis is ill conditioned."""

    @pytest.mark.parametrize("one_minus", [False, True])
    def test_real_non_normal_matches_per_node_expm(self, one_minus):
        # a real Hessenberg matrix, as the Arnoldi cycles produce, with
        # complex-conjugate eigenpairs and a non-normal eigenvector basis
        rng = np.random.default_rng(21)
        h = random_hessenberg(12, rng, spd_shift=3.0)
        cache = eig_general(h)
        assert np.abs(cache.D.imag).max() > 0.1
        assert 10 < kappa1(cache.X) <= KAPPA_MAX
        v = np.eye(12)[:, 0]
        t = np.concatenate([[0.0], np.geomspace(1e-10, 300.0, 25) / norm1(h)])
        if one_minus:
            t = t[1:]
            ref = per_node_one_minus(h, v, t)
        else:
            ref = per_node_expm(h, v, t)
        out = expm_columns(h, v, t, cache, one_minus=one_minus)
        assert out.dtype == np.float64
        assert max_rel(out, ref) <= 1e-12

    def test_complex_matrix(self):
        rng = np.random.default_rng(22)
        h = gaussian(10, rng, complex) + 4.0 * np.eye(10)
        v = rng.standard_normal(10)
        cache = eig_general(h)
        assert cache.X is not None
        t = np.linspace(0.0, 80.0, 17) / norm1(h)
        out = expm_columns(h, v, t, cache)
        assert max_rel(out, per_node_expm(h, v, t)) <= 1e-12
        out = expm_columns(h, v, t[1:], cache, one_minus=True)
        assert max_rel(out, per_node_one_minus(h, v, t[1:])) <= 1e-12

    @pytest.mark.parametrize("h", [
        np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1),   # a Jordan block
        np.array([[1.0, 1e6], [0.0, 1.0 + 1e-3]]),           # kappa_1 ~ 4e9
        np.array([[1.0, 1e300], [0.0, 1.0]]),                # X^{-1} overflows
        np.array([[1.0, 1e308], [0.0, 1.0]]),                # X exactly singular
    ], ids=["jordan", "near-defective", "inverse-overflows", "singular-basis"])
    def test_ill_conditioned_basis_takes_the_expm_path(self, h):
        cache = eig_general(h)
        assert cache.X is None
        v = np.ones(h.shape[0])
        t = np.linspace(0.0, 3.0, 7)
        with np.errstate(all="ignore"):
            assert np.array_equal(expm_columns(h, v, t, cache), expm_columns(h, v, t),
                                  equal_nan=True)
            assert np.array_equal(expm_columns(h, v, t, cache, one_minus=True),
                                  expm_columns(h, v, t, one_minus=True), equal_nan=True)

    @pytest.mark.parametrize("kind", ["power-neg-3-2", "gamma", "sqrt"])
    def test_restart_matches_forced_fallback(self, kind, monkeypatch):
        # plain, shifted reflected (gamma) and one_minus (Bernstein) chains;
        # the operator is scaled to real spectrum parts 1.2-2.2, as unscaled
        # Gamma(A) reaches 1e51 and its restarted runs diverge
        mat = convection_diffusion_nd(15, 1e-3, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b /= np.linalg.norm(b)
        pade_calls = []
        real_expm = la.expm

        def counting_expm(a):
            pade_calls.append(a.shape[0])
            return real_expm(a)

        def solve():
            op = LinearOperator(lambda x: mat.matvec(x) / 20.0, mat.n)
            return restarted_laplace(op, b, builtin_kernels()[kind], RestartConfig(m=10))

        monkeypatch.setattr(la, "expm", counting_expm)
        x, rep = solve()
        assert rep.converged and not pade_calls
        monkeypatch.setattr(smallmat, "KAPPA_MAX", 0.0)
        x_fallback, rep_fallback = solve()
        assert pade_calls
        assert (rep.matvecs, rep.reason) == (rep_fallback.matvecs, rep_fallback.reason)
        assert np.linalg.norm(x - x_fallback) <= 1e-12 * np.linalg.norm(x_fallback)


class TestEigHermitian:
    def test_diagonal(self):
        cache = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert cache.D == pytest.approx([1.0, 2.0, 3.0])
        assert np.allclose(np.abs(cache.X), np.eye(3)[:, [1, 2, 0]])

    def test_tridiag_closed_form(self):
        h = np.diag([2.0, 2.0, 2.0]) - np.diag([1.0, 1.0], 1) - np.diag([1.0, 1.0], -1)
        cache = eig_hermitian(h)
        assert cache.D == pytest.approx([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])

    def test_orthogonality(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((9, 9))
        h = h + h.T
        cache = eig_hermitian(h)
        assert np.linalg.norm(cache.X.T @ cache.X - np.eye(9)) <= 1e-12
