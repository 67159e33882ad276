import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov.baselines import (
    IterationLimitError,
    StagnationError,
    cg_solve,
    gmres_solve,
    reference_apply,
    stieltjes_pipeline,
    two_pass_lanczos,
)
from laplace_krylov.operators import LinearOperator, SparseMatrix, convection_diffusion_nd, laplacian_nd
from laplace_krylov.restart import RestartConfig, builtin_kernels


def full_storage_lanczos(a, b, steps, scalar):
    """Plain three-term Lanczos with stored basis; the algebraic twin of the
    two-pass method."""
    n = a.shape[0]
    bnorm = np.linalg.norm(b)
    v_prev = np.zeros(n)
    v = b / bnorm
    alphas, betas, basis = [], [], []
    beta_prev = 0.0
    for _ in range(steps):
        basis.append(v.copy())
        w = a @ v - beta_prev * v_prev
        alpha = float(v @ w)
        w = w - alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        if len(basis) < steps:
            betas.append(beta)
        if beta == 0.0:
            break
        v_prev, v = v, w / beta
        beta_prev = beta
    d, q = la.eigh_tridiagonal(alphas, betas[: len(alphas) - 1])
    coeff = q @ (scalar(d) * q[0, :])
    return bnorm * np.column_stack(basis) @ coeff


class TestTwoPass:
    def test_equals_full_storage(self):
        mat = np.diag([1.0, 2.0, 3.0])
        b = np.array([0.3, 0.5, 0.8])
        op = LinearOperator.from_dense(mat)
        fn = builtin_kernels()["power-neg-3-2"]
        f, rep = two_pass_lanczos(op, b, fn, tol=1e-12, check_every_m=1)
        ref = full_storage_lanczos(mat, b, rep.steps, fn.scalar_form)
        assert np.linalg.norm(f - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_matvec_count_is_twice_steps(self):
        mat = laplacian_nd(6, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        op = LinearOperator.from_matrix(mat)
        fn = builtin_kernels()["power-neg-3-2"]
        _, rep = two_pass_lanczos(op, b, fn, tol=1e-9, check_every_m=5)
        assert rep.matvecs == 2 * rep.steps
        assert op.matvec_count == rep.matvecs

    def test_reference_stopping(self):
        mat = laplacian_nd(8, 2)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(mat.n)
        b /= np.linalg.norm(b)
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        op = LinearOperator.from_matrix(mat)
        f, rep = two_pass_lanczos(op, b, fn, tol=1e-7, check_every_m=5, reference=ref)
        assert rep.converged
        assert rep.final_error <= 1e-7

    def test_rejects_non_hermitian(self):
        op = LinearOperator.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            two_pass_lanczos(op, np.ones(2), builtin_kernels()["power-neg-3-2"],
                             1e-6, 2)

    def test_gamma_2d_matvec_count(self):
        # published comparator series: 100 matvecs at N=20 for the gamma
        # function on the 2D grid Laplacian
        mat = laplacian_nd(20, 2)
        b = np.ones(mat.n) / np.sqrt(mat.n)
        fn = builtin_kernels()["gamma"]
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        op = LinearOperator.from_matrix(mat)
        _, rep = two_pass_lanczos(op, b, fn, tol=1e-7, check_every_m=50,
                                  reference=ref)
        assert rep.matvecs == 100
        assert op.matvec_count == 100
        assert rep.final_error <= 1e-7


class TestCG:
    def test_identity_one_iteration(self):
        op = LinearOperator.from_dense(np.eye(4))
        b = np.arange(1.0, 5.0)
        x, iters = cg_solve(op, b, 1e-12)
        assert iters == 1
        assert np.allclose(x, b)

    def test_residual_contract_small_diag(self):
        rng = np.random.default_rng(2)
        a = np.diag(np.arange(1.0, 11.0))
        op = LinearOperator.from_dense(a)
        b = rng.standard_normal(10)
        x, _ = cg_solve(op, b, 1e-10)
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b) * 1.01

    def test_laplacian_n10(self):
        mat = laplacian_nd(10, 3)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(mat.n)
        op = LinearOperator.from_matrix(mat)
        x, iters = cg_solve(op, b, 1e-9)
        assert np.linalg.norm(b - mat.matvec(x)) <= 1e-9 * np.linalg.norm(b) * 1.01
        assert op.matvec_count == iters

    def test_rejects_non_hermitian(self):
        op = LinearOperator.from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            cg_solve(op, np.ones(2), 1e-8)

    def test_iteration_cap(self):
        mat = laplacian_nd(50, 1)
        op = LinearOperator.from_matrix(mat)
        b = np.random.default_rng(7).standard_normal(50)
        with pytest.raises(IterationLimitError):
            cg_solve(op, b, 1e-12, max_iter=3)


class TestGMRES:
    def test_identity(self):
        op = LinearOperator.from_dense(np.eye(3))
        b = np.ones(3)
        x, iters = gmres_solve(op, b, 1e-12, restart=2)
        assert np.allclose(x, b)

    def test_small_diag(self):
        a = np.diag([1.0, 2.0, 5.0, 9.0])
        op = LinearOperator.from_dense(a)
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x, _ = gmres_solve(op, b, 1e-10, restart=2)
        assert np.linalg.norm(b - a @ x) <= 1e-9 * np.linalg.norm(b)

    def test_convection_diffusion_n10(self):
        mat = convection_diffusion_nd(10, 1e-3, 3)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(mat.n)
        op = LinearOperator.from_matrix(mat)
        x, _ = gmres_solve(op, b, 1e-9, restart=20)
        assert np.linalg.norm(b - mat.matvec(x)) <= 1e-9 * np.linalg.norm(b) * 1.01

    def test_stagnation_detected(self):
        # GMRES(1) on a rotation makes no progress
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        op = LinearOperator.from_dense(a)
        with pytest.raises(StagnationError):
            gmres_solve(op, np.array([1.0, 0.0]), 1e-10, restart=1)


class TestReference:
    def test_diagonal_exact(self):
        mat = SparseMatrix.from_dense(np.diag([1.0, 4.0, 9.0]))
        b = np.array([1.0, 1.0, 1.0])
        fn = builtin_kernels()["sqrt"]
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        assert np.allclose(ref, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "krylov"])
    def test_complex_hermitian(self, dense):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        a = x @ x.conj().T / 30 + np.eye(30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        op = LinearOperator.from_dense(a)
        assert op.hermitian
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(op, a if dense else None, b, fn, steps=30)
        w, q = la.eigh(a)
        oracle = q @ (w**-1.5 * (q.conj().T @ b))
        assert np.linalg.norm(ref - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_nonsymmetric_reference(self):
        mat = convection_diffusion_nd(4, 1e-2, 2)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(mat.n)
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn, steps=16)
        dense = mat.toarray()
        s = la.sqrtm(dense)
        oracle = la.solve(dense @ s, b)
        assert np.linalg.norm(ref - np.real(oracle)) <= 1e-8 * np.linalg.norm(oracle)


class TestPipeline:
    def test_total_accounting(self):
        mat = laplacian_nd(6, 3)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(mat.n)
        b /= np.linalg.norm(b)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=20, tol=1e-7)
        x, report, first = stieltjes_pipeline(op, b, fn, power=-1, cfg=cfg)
        assert first > 0
        assert op.matvec_count == first + report.matvecs
        # pipeline target is A^{-3/2} b
        w, q = la.eigh(mat.toarray())
        oracle = q @ (w**-1.5 * (q.T @ b))
        assert np.linalg.norm(x - oracle) <= 1e-5 * np.linalg.norm(oracle)
