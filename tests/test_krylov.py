import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov.krylov import arnoldi
from laplace_krylov.operators import (
    LinearOperator,
    SparseMatrix,
    convection_diffusion_nd,
    laplacian_nd,
)


def relation_residual(op, dec):
    a = np.column_stack([op.apply(dec.V[:, j]) for j in range(dec.m)])
    r = a - dec.V @ dec.H
    if dec.h_next != 0.0:
        r[:, -1] -= dec.h_next * dec.v_next
    return np.linalg.norm(r)


def mgs_reference(a, b, m):
    """Column-by-column modified Gram-Schmidt Arnoldi with one
    re-orthogonalization pass; no breakdown handling."""
    n = len(b)
    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    V[:, 0] = b / np.linalg.norm(b)
    for j in range(m):
        w = a @ V[:, j]
        for i in range(j + 1):
            H[i, j] = V[:, i] @ w
            w = w - H[i, j] * V[:, i]
        corr = V[:, : j + 1].T @ w
        w = w - V[:, : j + 1] @ corr
        H[: j + 1, j] += corr
        H[j + 1, j] = np.linalg.norm(w)
        V[:, j + 1] = w / H[j + 1, j]
    return V[:, :m], H[:m, :m], H[m, m - 1]


class TestArnoldiBasics:
    def test_rejects_start_of_wrong_length(self):
        op = LinearOperator.from_matrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="wrong length"):
            arnoldi(op, np.ones(2), 2)
        assert op.matvec_count == 0

    def test_eigenvector_start_breaks_down(self):
        dec = arnoldi(LinearOperator.from_matrix(np.diag([1.0, 2.0])), np.array([1.0, 0.0]), 1)
        assert dec.H == pytest.approx(np.array([[1.0]]))
        assert dec.h_next == 0.0
        assert dec.breakdown

    def test_full_space_reproduces_spectrum(self):
        dec = arnoldi(LinearOperator.from_matrix(np.diag([1.0, 2.0, 3.0])),
                      np.ones(3) / np.sqrt(3), 3)
        assert np.sort(la.eigvalsh(dec.H)) == pytest.approx([1.0, 2.0, 3.0])

    def test_lanczos_structure(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10))
        a = a + a.T
        dec = arnoldi(LinearOperator.from_matrix(a), rng.standard_normal(10), 5)
        off = dec.H - np.tril(np.triu(dec.H, -1), 1)
        assert np.abs(off).max() <= 1e-12
        assert np.linalg.norm(dec.V.T @ dec.V - np.eye(5)) <= 1e-12

    def test_invariants_random_50(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((50, 50))
        b = rng.standard_normal(50)
        op = LinearOperator.from_matrix(a)
        dec = arnoldi(op, b, 20)
        assert np.linalg.norm(dec.V.conj().T @ dec.V - np.eye(20)) <= 1e-10
        scale = np.linalg.norm(a) * np.linalg.norm(dec.V)
        assert relation_residual(LinearOperator.from_matrix(a), dec) <= 1e-10 * scale
        V, H, h_next = mgs_reference(a, b, 20)
        assert np.abs(dec.V - V).max() <= 1e-12
        assert np.abs(dec.H - H).max() <= 1e-12 * np.linalg.norm(a)
        assert dec.h_next == pytest.approx(h_next, rel=1e-12)

    def test_invariants_symmetric_random_50(self):
        # a buffer-less cycle on a Hermitian operator (CGS2, as for any
        # operator) against full MGS
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 50))
        a = a + a.T
        b = rng.standard_normal(50)
        dec = arnoldi(LinearOperator.from_matrix(a), b, 20)
        V, H, h_next = mgs_reference(a, b, 20)
        assert np.abs(dec.V - V).max() <= 1e-12
        assert np.abs(dec.H - H).max() <= 1e-12 * np.linalg.norm(a)
        assert dec.h_next == pytest.approx(h_next, rel=1e-12)

    def test_hermitian_flag_without_buffer_changes_no_basis(self):
        # without a basis buffer every operator takes CGS2; the flag only
        # symmetrizes the returned H
        rng = np.random.default_rng(11)
        a = rng.standard_normal((50, 50))
        a = a + a.T
        b = rng.standard_normal(50)
        herm = arnoldi(LinearOperator(lambda x: a @ x, 50, hermitian=True), b, 20)
        plain = arnoldi(LinearOperator(lambda x: a @ x, 50, hermitian=False), b, 20)
        assert np.array_equal(herm.V, plain.V)
        assert np.array_equal(herm.v_next, plain.v_next)
        assert herm.h_next == plain.h_next

    def test_operator_returning_its_argument(self):
        # orthogonalizing the matvec result in place would zero V[:, 0]
        op = LinearOperator(lambda x: x, 3, hermitian=True)
        dec = arnoldi(op, np.array([3.0, 4.0, 0.0]), 2)
        assert dec.m == 1
        assert dec.breakdown
        assert dec.V[:, 0] == pytest.approx([0.6, 0.8, 0.0])

    @pytest.mark.parametrize("make", [
        lambda: laplacian_nd(30, 2),
        lambda: convection_diffusion_nd(30, 1e-3, 2),
    ], ids=["laplacian", "convection_diffusion"])
    def test_long_cycle_stays_orthonormal(self, make):
        # one classical Gram-Schmidt pass loses orthogonality entirely here
        mat = make()
        b = np.random.default_rng(9).standard_normal(mat.n)
        dec = arnoldi(LinearOperator.from_matrix(mat), b, 150)
        assert dec.m == 150
        assert np.abs(dec.V.T @ dec.V - np.eye(150)).max() <= 1e-13

    def test_graded_spectrum_stays_orthonormal(self):
        d = np.logspace(-10, 0, 300)
        op = LinearOperator(lambda x: d * x, 300, hermitian=True)
        dec = arnoldi(op, np.random.default_rng(12).standard_normal(300), 250)
        assert dec.m == 250
        assert np.abs(dec.V.T @ dec.V - np.eye(250)).max() <= 1e-13

    def test_clustered_spectrum_breaks_down_orthonormal(self):
        # 151 distinct eigenvalues within 1.5e-7 of each other: the Krylov
        # space is exhausted after ~151 steps and the residual vanishes
        d = np.concatenate([np.ones(150), 1.0 + 1e-9 * np.arange(1, 151)])
        op = LinearOperator(lambda x: d * x, 300, hermitian=True)
        dec = arnoldi(op, np.random.default_rng(13).standard_normal(300), 250)
        assert dec.m < 250
        assert dec.breakdown
        assert np.abs(dec.V.T @ dec.V - np.eye(dec.m)).max() <= 1e-13

    def test_complex_operator_upgrades_real_start(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = LinearOperator.from_matrix(a)
        dec = arnoldi(op, rng.standard_normal(8), 5)
        assert np.iscomplexobj(dec.H)
        assert np.linalg.norm(dec.V.conj().T @ dec.V - np.eye(5)) <= 1e-12
        assert relation_residual(op, dec) <= 1e-12 * np.linalg.norm(a)

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            arnoldi(LinearOperator.from_matrix(np.eye(3)), np.zeros(3), 2)

    @pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_start(self, fill):
        op = LinearOperator.from_matrix(np.eye(3))
        start = np.ones(3)
        start[1] = fill
        with pytest.raises(ValueError, match="finite and nonzero"):
            arnoldi(op, start, 2)
        assert op.matvec_count == 0

    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            arnoldi(LinearOperator.from_matrix(np.eye(3)), np.ones(3), 4)

    def test_nan_in_matrix_fails_at_first_matvec(self):
        mat = laplacian_nd(10, 2)
        mat.to_scipy().data[5] = np.nan
        op = LinearOperator.from_matrix(mat)
        with pytest.raises(ValueError, match="step 1"):
            arnoldi(op, np.ones(op.n), 10)
        assert op.matvec_count == 1

    def test_nonfinite_matvec_names_its_step(self):
        a = np.diag(np.arange(1.0, 9.0))

        def matvec(x):
            y = a @ x
            if op.matvec_count == 2:   # the third product
                y[4] = np.inf
            return y

        op = LinearOperator(matvec, 8)
        with pytest.raises(ValueError, match="step 3"):
            arnoldi(op, np.ones(8), 6)
        assert op.matvec_count == 3

    def test_huge_operator_runs_every_step(self):
        # ||A v|| past ~1e154 overflows np.linalg.norm although A v is
        # finite; an inf step norm read as a lucky breakdown at step 1
        a = laplacian_nd(6, 2).toarray()
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        ref = arnoldi(LinearOperator.from_matrix(a), b, 10)
        dec = arnoldi(LinearOperator.from_matrix(1e160 * a), b, 10)
        assert dec.m == 10 and not dec.breakdown
        np.testing.assert_allclose(dec.H / 1e160, ref.H, rtol=0, atol=1e-12 * np.abs(ref.H).max())
        assert dec.h_next / 1e160 == pytest.approx(ref.h_next, rel=1e-12)

    def test_truncation_on_breakdown(self):
        # b spans a 2-dimensional invariant subspace of a 4x4 diagonal
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        dec = arnoldi(LinearOperator.from_matrix(a), b, 3)
        assert dec.m == 2
        assert dec.h_next == 0.0
        assert np.sort(la.eigvalsh(dec.H)) == pytest.approx([1.0, 2.0])


class TestArnoldiApproximation:
    """beta * V * F(H) e_1 from one decomposition."""

    def test_identity_function(self):
        dec = arnoldi(LinearOperator.from_matrix(np.diag([1.0, 2.0, 3.0])),
                      np.array([1.0, 0.0, 0.0]), 1)
        out = dec.beta * dec.V @ np.array([1.0])
        assert out == pytest.approx([1.0, 0.0, 0.0])

    def test_inverse_full_space(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        dec = arnoldi(LinearOperator.from_matrix(a), b, 6)
        out = dec.beta * dec.V @ la.solve(dec.H, np.eye(6)[:, 0])
        assert np.allclose(out, la.solve(a, b), atol=1e-9 * np.linalg.norm(b))

    def test_exp_full_space(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        b = rng.standard_normal(7)
        dec = arnoldi(LinearOperator.from_matrix(a), b, 7)
        w, q = la.eigh(dec.H)
        out = dec.beta * dec.V @ (q @ (np.exp(-w) * q.T[:, 0]))

        w, q = la.eigh(a)
        exact = q @ (np.exp(-w) * (q.T @ b))
        assert np.allclose(out, exact, atol=1e-10 * np.linalg.norm(exact))


class TestShiftAndSignStructure:
    def test_shift_invariance_of_basis(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        d1 = arnoldi(LinearOperator.from_matrix(a), b, 5)
        d2 = arnoldi(LinearOperator.from_matrix(a + np.eye(8)), b, 5)
        overlap = np.abs(d1.V.T @ d2.V)
        assert np.allclose(overlap, np.eye(5), atol=1e-8)

    def test_negated_operator_spans_same_space(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        d1 = arnoldi(LinearOperator.from_matrix(a), b, 4)
        d2 = arnoldi(LinearOperator.from_matrix(-a), b, 4)
        p1 = d1.V @ d1.V.T
        p2 = d2.V @ d2.V.T
        assert np.linalg.norm(p1 - p2) <= 1e-10
        # H(-A) = -D H(A) D with D = diag(+1, -1, +1, ...), h_next unchanged
        signs = np.array([(-1.0) ** j for j in range(4)])
        assert np.allclose(d2.H, -np.outer(signs, signs) * d1.H, atol=1e-10)
        assert d2.h_next == pytest.approx(d1.h_next)
        # the flip relation used by two-sided runs: (-A)V = V(-H) - h v e_m^T
        opn = LinearOperator.from_matrix(-a)
        r = np.column_stack([opn.apply(d1.V[:, j]) for j in range(4)])
        r -= d1.V @ (-d1.H)
        r[:, -1] -= -d1.h_next * d1.v_next
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(a)

    def test_complex_hermitian_gives_real_tridiagonal(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = a + a.conj().T + 8 * np.eye(6)
        op = LinearOperator(lambda x: a @ x, 6, hermitian=True)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        dec = arnoldi(op, b, 4)
        assert not np.iscomplexobj(dec.H)
        assert np.abs(dec.H - dec.H.T).max() <= 1e-12
        assert np.linalg.norm(dec.V.conj().T @ dec.V - np.eye(4)) <= 1e-12
        r = a @ dec.V - dec.V @ dec.H
        r[:, -1] -= dec.h_next * dec.v_next
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(a)

    def test_consecutive_cycles_consume_m_matvecs(self):
        mat = SparseMatrix(np.diag(np.arange(1.0, 21.0)))
        op = LinearOperator.from_matrix(mat)
        b = np.ones(20)
        d1 = arnoldi(op, b, 6)
        assert op.matvec_count == 6
        arnoldi(op, d1.v_next, 6)
        assert op.matvec_count == 12


def graded_op():
    d = np.logspace(-10, 0, 300)
    return LinearOperator(lambda x: d * x, 300, hermitian=True), 1.0


def semi(op, b, m):
    """A restart cycle: arnoldi into a basis buffer."""
    return arnoldi(op, b, m, _basis=np.empty((m + 1, op.n), complex if np.iscomplexobj(b) else float))


def relation_columns(op, dec):
    r = np.column_stack([op.apply(dec.V[:, j]) for j in range(dec.m)]) - dec.V @ dec.H
    if dec.h_next != 0.0:
        r[:, -1] -= dec.h_next * dec.v_next
    return np.linalg.norm(r, axis=0)


class TestSemiOrthogonal:
    """Restart cycles: Lanczos with partial reorthogonalization (``_basis``)."""

    @pytest.mark.parametrize("case", [
        lambda: (*graded_op(), np.random.default_rng(12).standard_normal(300), 250),
        lambda: (LinearOperator.from_matrix(laplacian_nd(30, 2)), 8.0,
                 np.random.default_rng(9).standard_normal(900), 150),
    ], ids=["graded-m250", "laplacian2d-m150"])
    def test_semi_orthogonal_basis_and_relation(self, case):
        # plain Lanczos loses orthogonality entirely on both. The relation
        # A V = V H + h v e_m^T holds to rounding except in the columns of
        # the first two full passes, whose dropped coefficients are O(sqrt(eps))
        op, norm_a, b, m = case()
        dec = semi(op, b, m)
        assert dec.m == m
        assert np.abs(dec.V.T @ dec.V - np.eye(m)).max() <= 1e-7
        res = relation_columns(op, dec)
        assert np.linalg.norm(res) <= 1e-8 * norm_a
        assert np.sort(res)[-3] <= 1e-13 * norm_a
        assert np.all(np.triu(dec.H, 2) == 0.0)
        assert np.all(np.tril(dec.H, -2) == 0.0)

    def test_clustered_spectrum_reorthogonalizes_like_the_default(self):
        # the estimate fires at the first step, and every step then runs a
        # full pass after the three-term one
        d = np.concatenate([np.ones(150), 1.0 + 1e-9 * np.arange(1, 151)])
        op = LinearOperator(lambda x: d * x, 300, hermitian=True)
        b = np.random.default_rng(13).standard_normal(300)
        full, dec = arnoldi(op, b, 250), semi(op, b, 250)
        assert dec.breakdown and dec.m == full.m
        assert np.abs(dec.V.T @ dec.V - np.eye(dec.m)).max() <= 1e-13
        assert np.all(np.triu(dec.H, 2) == 0.0)

    def test_matches_default_when_no_reorthogonalization_fires(self):
        op = LinearOperator.from_matrix(laplacian_nd(20, 3))
        b = np.random.default_rng(0).standard_normal(op.n)
        full, dec = arnoldi(op, b, 50), semi(op, b, 50)
        assert np.abs(dec.V - full.V).max() <= 1e-12
        assert np.abs(dec.H - full.H).max() <= 1e-12 * 12.0
        assert dec.h_next == pytest.approx(full.h_next, rel=1e-12)
        assert np.abs(dec.v_next - full.v_next).max() <= 1e-12

    def test_complex_hermitian(self):
        rng = np.random.default_rng(14)
        u, _ = np.linalg.qr(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        a = (u * np.logspace(-8, 0, 200)) @ u.conj().T
        a = (a + a.conj().T) / 2
        op = LinearOperator(lambda x: a @ x, 200, hermitian=True)
        dec = semi(op, rng.standard_normal(200) + 1j * rng.standard_normal(200), 150)
        assert dec.m == 150
        assert not np.iscomplexobj(dec.H)
        assert np.all(np.triu(dec.H, 2) == 0.0)
        assert np.abs(dec.V.conj().T @ dec.V - np.eye(150)).max() <= 1e-7
        res = relation_columns(op, dec)
        assert np.linalg.norm(res) <= 1e-8
        assert np.sort(res)[-3] <= 1e-13

    @pytest.mark.parametrize("complex_a", [False, True], ids=["real", "complex"])
    def test_hermitian_cycle_h_is_exactly_hermitian(self, complex_a):
        # eig_hermitian takes la.eigh of H as it comes, which reads one triangle
        rng = np.random.default_rng(16)
        x = rng.standard_normal((300, 300)) + (1j * rng.standard_normal((300, 300))
                                               if complex_a else 0.0)
        a = (x * np.logspace(-8, 0, 300)) @ x.conj().T
        op = LinearOperator.from_matrix((a + a.conj().T) / 2)
        assert op.hermitian
        dec = semi(op, rng.standard_normal(300), 120)
        assert np.array_equal(dec.H, dec.H.conj().T)

    def test_non_hermitian_buffer_changes_nothing(self):
        op = LinearOperator.from_matrix(convection_diffusion_nd(10, 1e-2, 2))
        b = np.random.default_rng(3).standard_normal(op.n)
        full, dec = arnoldi(op, b, 30), semi(op, b, 30)
        assert np.array_equal(dec.V, full.V) and np.array_equal(dec.H, full.H)

    def test_reused_basis_buffer(self):
        # a restart passes the previous cycle's v_next, a row of the buffer
        op = LinearOperator.from_matrix(laplacian_nd(12, 2))
        b = np.random.default_rng(4).standard_normal(op.n)
        buf = np.empty((9, op.n))
        d1 = arnoldi(op, b, 8, _basis=buf)
        assert np.shares_memory(d1.v_next, buf)
        start = d1.v_next.copy()
        d2 = arnoldi(op, d1.v_next, 8, _basis=buf)
        fresh = semi(op, start, 8)
        assert np.array_equal(d2.V, fresh.V) and np.array_equal(d2.H, fresh.H)
        assert np.array_equal(d2.v_next, fresh.v_next)
