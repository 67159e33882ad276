import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.linalg as la
from conftest import complex_non_hermitian, eig_apply, full_storage_lanczos

from laplace_krylov import baselines, cli
from laplace_krylov.baselines import (
    IterationLimitError,
    StagnationError,
    cg_solve,
    gmres_solve,
    reference_apply,
    stieltjes_pipeline,
    two_pass_lanczos,
)
from laplace_krylov.krylov import arnoldi
from laplace_krylov.operators import (
    LinearOperator,
    SparseMatrix,
    convection_diffusion_nd,
    graph_laplacian,
    laplacian_nd,
)
from laplace_krylov.restart import RestartConfig, builtin_kernels


def dirichlet_closed_form(n1, d, b, scalar):
    """F(A) b for laplacian_nd(n1, d): A is the Kronecker sum of
    tridiag(-1, 2, -1), diagonalized by the orthonormal type-1 DST with
    eigenvalues 4 sin^2(k pi / (2 (n1 + 1))), k = 1..n1."""
    lam1 = 4.0 * np.sin(np.arange(1, n1 + 1) * math.pi / (2 * (n1 + 1))) ** 2
    lam = lam1
    for _ in range(d - 1):
        lam = np.add.outer(lam, lam1)
    coef = scipy.fft.dstn(b.reshape((n1,) * d), type=1, norm="ortho")
    return scipy.fft.idstn(scalar(lam) * coef, type=1, norm="ortho").ravel()


def unit_start(n):
    b = np.random.default_rng(0).standard_normal(n)
    return b / np.linalg.norm(b)


def complex_hpd():
    """30 x 30 complex Hermitian positive definite matrix and a complex b."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = x @ x.conj().T / 30 + np.eye(30)
    a = (a + a.conj().T) / 2   # exactly Hermitian, as SparseMatrix flags it
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    return a, b


def nan_diagonal_operator():
    """laplacian_nd(10, 2) with one NaN diagonal entry, as a Hermitian operator."""
    a = laplacian_nd(10, 2).toarray()
    a[37, 37] = np.nan
    return LinearOperator(lambda x: a @ x, a.shape[0], hermitian=True)


class TestTwoPass:
    def test_equals_full_storage(self):
        mat = np.diag([1.0, 2.0, 3.0])
        b = np.array([0.3, 0.5, 0.8])
        op = LinearOperator.from_matrix(mat)
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

    @pytest.mark.parametrize("with_reference", [True, False], ids=["error", "change"])
    def test_checks_at_multiples_of_check_every_m(self, with_reference):
        # a tol below every measure runs to max_steps; the change is first
        # measured at the second checkpoint
        mat = laplacian_nd(20, 2)
        b = unit_start(mat.n)
        fn = builtin_kernels()["sqrt"]
        ref = dirichlet_closed_form(20, 2, b, fn.scalar_form) if with_reference else None
        _, rep = two_pass_lanczos(LinearOperator.from_matrix(mat), b, fn, 1e-300, 7,
                                  reference=ref, max_steps=30)
        assert [k for k, _ in rep.checkpoints] == [*range(7 if with_reference else 14, 30, 7), 30]

    def test_reference_error_floor_is_not_converged(self):
        # the projected error cancels to 0.0 at step 56, while the true error is 1.1e-10
        mat = laplacian_nd(20, 2)
        b = unit_start(mat.n)
        fn = builtin_kernels()["sqrt"]
        ref = dirichlet_closed_form(20, 2, b, fn.scalar_form)
        op = LinearOperator.from_matrix(mat)
        _, rep = two_pass_lanczos(op, b, fn, 1e-10, 7, reference=ref)
        assert rep.steps == 56 and rep.checkpoints[-1] == (56, 0.0)
        assert rep.final_error > 1e-10
        assert rep.converged is False
        _, rep = two_pass_lanczos(op, b, fn, 1e-7, 7, reference=ref)
        assert rep.steps == 42 and rep.final_error <= 1e-7
        assert rep.converged is True

    @pytest.mark.parametrize("tol", [0.0, math.nan], ids=["zero", "nan"])
    def test_rejects_bad_tol(self, tol):
        mat = laplacian_nd(20, 2)
        b = unit_start(mat.n)
        fn = builtin_kernels()["sqrt"]
        ref = dirichlet_closed_form(20, 2, b, fn.scalar_form)
        op = LinearOperator.from_matrix(mat)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            two_pass_lanczos(op, b, fn, tol, 7, reference=ref)
        assert op.matvec_count == 0

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

    @pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
    def test_complex_hermitian(self, with_reference):
        a, b = complex_hpd()
        w, q = la.eigh(a)
        oracle = q @ (w**-1.5 * (q.conj().T @ b))
        op = LinearOperator.from_matrix(a)
        fn = builtin_kernels()["power-neg-3-2"]
        tol = 1e-7
        f, rep = two_pass_lanczos(op, b, fn, tol=tol, check_every_m=5,
                                  reference=oracle if with_reference else None)
        assert rep.converged
        assert np.linalg.norm(f - oracle) <= tol * np.linalg.norm(oracle)

    def test_rejects_non_hermitian(self):
        op = LinearOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            two_pass_lanczos(op, np.ones(2), builtin_kernels()["power-neg-3-2"],
                             1e-6, 2)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_rejects_bad_start(self, fill):
        op = LinearOperator.from_matrix(laplacian_nd(4, 2))
        b = np.zeros(16)
        b[3] = fill
        with pytest.raises(ValueError, match="b must be finite and nonzero"):
            two_pass_lanczos(op, b, builtin_kernels()["sqrt"], 1e-6, 4)
        assert op.matvec_count == 0

    @pytest.mark.parametrize("bad", ["zero", "nan", "inf", "column"])
    def test_rejects_bad_reference(self, bad):
        op = LinearOperator.from_matrix(laplacian_nd(6, 2))
        ref = np.ones((op.n, 1)) if bad == "column" else np.zeros(op.n)
        if bad in ("nan", "inf"):
            ref[3] = float(bad)
        with pytest.raises(ValueError, match="reference"):
            two_pass_lanczos(op, np.ones(op.n), builtin_kernels()["sqrt"], 1e-6, 4,
                             reference=ref)
        assert op.matvec_count == 0

    @pytest.mark.parametrize("arg", ["check_every_m", "max_steps"])
    def test_rejects_step_counts_below_one(self, arg):
        op = LinearOperator.from_matrix(laplacian_nd(4, 2))
        kwargs = {"check_every_m": 4, arg: 0}
        with pytest.raises(ValueError, match=arg):
            two_pass_lanczos(op, np.ones(op.n), builtin_kernels()["sqrt"], 1e-6, **kwargs)
        assert op.matvec_count == 0

    def test_non_finite_matvec_raises_at_its_step(self):
        op = nan_diagonal_operator()
        with pytest.raises(ValueError, match="non-finite values at Lanczos step 1$"):
            two_pass_lanczos(op, np.full(op.n, 0.1), builtin_kernels()["power-neg-3-2"],
                             1e-7, 10)
        assert op.matvec_count == 1

    def test_huge_operator_matches_scaled_result(self):
        # an overflowing step norm used to stop pass 1 at step 1 as a breakdown
        a = laplacian_nd(6, 2).toarray()
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        f, rep = two_pass_lanczos(LinearOperator.from_matrix(a), b, fn, 1e-10, 5)
        g, rep_huge = two_pass_lanczos(LinearOperator.from_matrix(1e160 * a), b, fn, 1e-10, 5)
        assert rep_huge.steps == rep.steps > 1
        assert np.linalg.norm(g - 1e-80 * f) <= 1e-12 * np.linalg.norm(1e-80 * f)

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
        op = LinearOperator.from_matrix(np.eye(4))
        b = np.arange(1.0, 5.0)
        x, iters = cg_solve(op, b, 1e-12)
        assert iters == 1
        assert np.allclose(x, b)

    def test_residual_contract_small_diag(self):
        rng = np.random.default_rng(2)
        a = np.diag(np.arange(1.0, 11.0))
        op = LinearOperator.from_matrix(a)
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

    def test_complex_hermitian(self):
        a, b = complex_hpd()
        op = LinearOperator.from_matrix(a)
        assert op.hermitian
        x, iters = cg_solve(op, b, 1e-12)
        exact = la.solve(a, b)
        assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)
        assert op.matvec_count == iters

    def test_complex_hermitian_real_b(self):
        # CG promotes its real iterates to complex at the first matvec
        a, _ = complex_hpd()
        b = np.random.default_rng(15).standard_normal(30)
        op = LinearOperator.from_matrix(a)
        x, iters = cg_solve(op, b, 1e-10)
        assert np.iscomplexobj(x) and np.abs(x.imag).max() > 0
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b) * 1.01
        assert iters >= 1 and op.matvec_count == iters

    def test_rejects_non_hermitian(self):
        op = LinearOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            cg_solve(op, np.ones(2), 1e-8)

    @pytest.mark.parametrize("rtol", [math.nan, -1e-8, 0.0, math.inf])
    def test_rejects_bad_rtol(self, rtol):
        op = LinearOperator.from_matrix(laplacian_nd(6, 2))
        with pytest.raises(ValueError, match="rtol must be finite and positive"):
            cg_solve(op, unit_start(op.n), rtol)
        assert op.matvec_count == 0

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_rejects_bad_b(self, fill):
        op = LinearOperator.from_matrix(laplacian_nd(4, 2))
        b = np.zeros(16)
        b[3] = fill
        with pytest.raises(ValueError, match="b must be finite and nonzero"):
            cg_solve(op, b, 1e-8)
        assert op.matvec_count == 0

    def test_iteration_cap(self):
        # the updated residual falls below 1e-100 in 345 steps, so 1e-300 lies
        # beyond the 10 n = 500 steps of the cap
        mat = laplacian_nd(50, 1)
        op = LinearOperator.from_matrix(mat)
        b = np.random.default_rng(7).standard_normal(50)
        with pytest.raises(IterationLimitError, match="within 500 iterations"):
            cg_solve(op, b, 1e-300)
        assert op.matvec_count == 10 * op.n

    def test_target_below_attainable_accuracy_raises(self):
        # the updated residual meets rtol 1e-20 after 100 iterations, while
        # the true one stalls at 7.8e-14: one matvec checks it at the stop
        mat = laplacian_nd(50, 1)
        op = LinearOperator.from_matrix(mat)
        b = np.random.default_rng(7).standard_normal(50)
        with pytest.raises(IterationLimitError,
                           match=r"rtol=1e-20: true residual \d\.\de-1[34], attainable accuracy"):
            cg_solve(op, b, 1e-20)
        assert op.matvec_count == 101


class TestGMRES:
    def test_identity(self):
        op = LinearOperator.from_matrix(np.eye(3))
        b = np.ones(3)
        x, iters = gmres_solve(op, b, 1e-12, restart=2)
        assert np.allclose(x, b)

    def test_small_diag(self):
        a = np.diag([1.0, 2.0, 5.0, 9.0])
        op = LinearOperator.from_matrix(a)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("complex_a", [True, False], ids=["complex-A", "real-A"])
    def test_complex_data(self, complex_a):
        # complex b, and for complex-A a complex matrix too: the projected
        # least-squares problem must keep the imaginary part of H
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        a = (x if complex_a else x.real) + 12.0 * np.eye(30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        sol, _ = gmres_solve(LinearOperator.from_matrix(a), b, 1e-10, restart=10)
        exact = la.solve(a, b)
        assert np.linalg.norm(sol - exact) <= 1e-9 * np.linalg.norm(exact)

    @pytest.mark.parametrize("rtol", [math.nan, -1e-8, 0.0, math.inf])
    def test_rejects_bad_rtol(self, rtol):
        op = LinearOperator.from_matrix(convection_diffusion_nd(6, 1e-2, 2))
        with pytest.raises(ValueError, match="rtol must be finite and positive"):
            gmres_solve(op, unit_start(op.n), rtol, restart=5)
        assert op.matvec_count == 0

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_rejects_bad_b(self, fill):
        op = LinearOperator.from_matrix(convection_diffusion_nd(6, 1e-2, 2))
        b = np.zeros(op.n)
        b[3] = fill
        with pytest.raises(ValueError, match="b must be finite and nonzero"):
            gmres_solve(op, b, 1e-8, restart=5)
        assert op.matvec_count == 0

    def test_stagnation_detected(self):
        # GMRES(1) on a rotation makes no progress
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        op = LinearOperator.from_matrix(a)
        with pytest.raises(StagnationError):
            gmres_solve(op, np.array([1.0, 0.0]), 1e-10, restart=1)


def arnoldi_reference(mat, b, fn, k):
    """The unrestarted reference of fixed length k: arnoldi, then F(H) e_1."""
    dec = arnoldi(LinearOperator.from_matrix(mat), b, k)
    y = np.real(baselines._DENSE_FORMS[fn.name](dec.H, np.eye(1, dec.m)[0]))
    return dec.beta * (dec.V @ y), dec.m


class TestReference:
    def test_diagonal_exact(self):
        mat = SparseMatrix(np.diag([1.0, 4.0, 9.0]))
        b = np.array([1.0, 1.0, 1.0])
        fn = builtin_kernels()["sqrt"]
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        assert np.allclose(ref, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "krylov"])
    def test_complex_hermitian(self, dense):
        a, b = complex_hpd()
        op = LinearOperator.from_matrix(a)
        assert op.hermitian
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(op, a if dense else None, b, fn)
        w, q = la.eigh(a)
        oracle = q @ (w**-1.5 * (q.conj().T @ b))
        assert np.linalg.norm(ref - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_complex_operator_real_start(self):
        a, _ = complex_hpd()
        b = np.random.default_rng(15).standard_normal(30)
        fn = builtin_kernels()["power-neg-3-2"]
        op = LinearOperator.from_matrix(a)
        assert op.hermitian
        ref = reference_apply(op, None, b, fn)
        w, q = la.eigh(a)
        oracle = q @ (w**-1.5 * (q.conj().T @ b))
        assert np.linalg.norm(ref - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("grid", [(12, 3), (30, 2)], ids=["lap3d-12", "lap2d-30"])
    @pytest.mark.parametrize("name", ["power-neg-3-2", "sqrt", "exp-sqrt", "inv-sqrt-stieltjes"])
    def test_lanczos_matches_closed_form(self, monkeypatch, grid, name):
        def no_arnoldi(*args, **kwargs):
            raise AssertionError("the Hermitian reference must not build an Arnoldi basis")

        monkeypatch.setattr(baselines, "arnoldi", no_arnoldi)
        mat = laplacian_nd(*grid)
        b = np.random.default_rng(8).standard_normal(mat.n)
        fn = builtin_kernels()[name]
        ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn)
        exact = dirichlet_closed_form(*grid, b, fn.scalar_form)
        assert np.linalg.norm(ref - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_lanczos_memory_is_a_few_vectors(self):
        # a stored basis would need 400 n float64 words; the tridiagonal
        # eigendecomposition adds ~2.6 MB that does not grow with n
        mat = laplacian_nd(30, 3)
        b = np.random.default_rng(9).standard_normal(mat.n)
        op = LinearOperator.from_matrix(mat)
        fn = builtin_kernels()["power-neg-3-2"]
        tracemalloc.start()
        try:
            reference_apply(op, None, b, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matvec_count == 450   # settled after 225 of the 400 steps
        assert peak < 32 * mat.n * 8

    def test_hermitian_stops_once_settled(self):
        # checkpoint changes 2.9e-11, 2.6e-14, 1.3e-14 at steps 125, 150, 175
        mat = laplacian_nd(20, 3)
        b = unit_start(mat.n)
        fn = builtin_kernels()["power-neg-3-2"]
        op = LinearOperator.from_matrix(mat)
        ref = reference_apply(op, None, b, fn)
        assert op.matvec_count == 350
        exact = dirichlet_closed_form(20, 3, b, fn.scalar_form)
        assert np.linalg.norm(ref - exact) <= 1e-12 * np.linalg.norm(exact)
        full, _ = two_pass_lanczos(LinearOperator.from_matrix(mat), b, fn, 1e-300, mat.n + 1,
                                   max_steps=400)
        assert np.linalg.norm(ref - full) <= 1e-12 * np.linalg.norm(full)

    def test_hermitian_unsettled_runs_to_the_end(self):
        # the branch point of sqrt at the graph Laplacian's zero eigenvalue
        # keeps the checkpoint changes between 1.5e-10 and 9.2e-9
        mat = graph_laplacian(cli._random_connected_graph(2000, np.random.default_rng(0)))
        b = unit_start(mat.n)
        fn = builtin_kernels()["exp-sqrt"]
        op = LinearOperator.from_matrix(mat)
        ref = reference_apply(op, None, b, fn)
        assert op.matvec_count == 2 * min(400, mat.n)
        full, _ = two_pass_lanczos(LinearOperator.from_matrix(mat), b, fn, 1e-300, mat.n + 1,
                                   max_steps=400)
        assert np.array_equal(ref, full)

    def test_lanczos_breakdown_is_exact(self):
        lam = np.linspace(1.0, 50.0, 50)
        b = np.zeros(50)
        b[[3, 11, 20, 34, 47]] = [1.0, -2.0, 0.5, 1.5, -1.0]
        op = LinearOperator.from_matrix(np.diag(lam))
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(op, None, b, fn)
        exact = lam**-1.5 * b
        assert np.linalg.norm(ref - exact) <= 1e-13 * np.linalg.norm(exact)
        assert op.matvec_count <= 12

    def test_lanczos_steps_capped_at_n(self):
        lam = np.linspace(1.0, 4.0, 20)
        b = np.random.default_rng(10).standard_normal(20)
        op = LinearOperator.from_matrix(np.diag(lam))
        fn = builtin_kernels()["sqrt"]
        ref = reference_apply(op, None, b, fn)
        assert op.matvec_count <= 2 * 20
        assert np.linalg.norm(ref - np.sqrt(lam) * b) <= 1e-12 * np.linalg.norm(np.sqrt(lam) * b)

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
    def test_lanczos_rejects_bad_start(self, fill):
        op = LinearOperator.from_matrix(laplacian_nd(4, 2))
        with pytest.raises(ValueError):
            reference_apply(op, None, np.full(16, fill), builtin_kernels()["sqrt"])

    @pytest.mark.parametrize("bad", ["zero", "nan", "short"])
    def test_dense_rejects_bad_b(self, bad):
        # the same rule as the Lanczos branch, before the dense eigh
        mat = laplacian_nd(6, 2)
        b = np.zeros(35 if bad == "short" else mat.n)
        b[3] = {"zero": 0.0, "nan": np.nan, "short": 1.0}[bad]
        op = LinearOperator.from_matrix(mat)
        with pytest.raises(ValueError, match="^b (must be finite and nonzero|has wrong length)"):
            reference_apply(op, mat.toarray(), b, builtin_kernels()["sqrt"])
        assert op.matvec_count == 0

    def test_lanczos_non_finite_matvec_raises_at_its_step(self):
        op = nan_diagonal_operator()
        with pytest.raises(ValueError, match="non-finite values at Lanczos step 1$"):
            reference_apply(op, None, np.full(op.n, 0.1), builtin_kernels()["power-neg-3-2"])
        assert op.matvec_count == 1

    def test_nonsymmetric_reference(self):
        mat = convection_diffusion_nd(4, 1e-2, 2)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(mat.n)
        fn = builtin_kernels()["power-neg-3-2"]
        ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn)
        dense = mat.toarray()
        s = la.sqrtm(dense)
        oracle = la.solve(dense @ s, b)
        assert np.linalg.norm(ref - np.real(oracle)) <= 1e-8 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("name", ["sqrt", "inv-sqrt-stieltjes"])
    def test_nonsymmetric_square_root_references(self, name):
        # the dense branches of the two square-root transforms (~7e-15 off sqrtm)
        mat = convection_diffusion_nd(10, 1e-2, 2)
        b = unit_start(mat.n)
        ref = reference_apply(LinearOperator.from_matrix(mat), None, b, builtin_kernels()[name])
        s = la.sqrtm(mat.toarray())
        oracle = np.real(s @ b if name == "sqrt" else la.solve(s, b))
        assert np.linalg.norm(ref - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_exp_sqrt_keeps_imaginary_parts_of_complex_eigenvalues(self):
        # spec = {2 + i, 2 - i}: the scalar form's square root of a complex
        # eigenvalue must not drop its imaginary part
        h = np.array([[2.0, -1.0], [1.0, 2.0]])
        d, x = la.eig(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = np.real(x @ (builtin_kernels()["exp-sqrt"].scalar_form(d) * la.solve(x, [1, 0])))
        expected = la.expm(-la.sqrtm(h))[:, 0]
        assert expected == pytest.approx([0.2197, -0.0786], abs=1e-4)
        assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_non_hermitian_stops_once_settled(self):
        # checkpoint changes per step 2.0e-9, 8.8e-14, 3.0e-15, 8.6e-16 at
        # steps 97, 109, 122, 137, against a settled rate of 4e-14
        mat = convection_diffusion_nd(40, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        fn = builtin_kernels()["power-neg-3-2"]
        op = LinearOperator.from_matrix(mat)
        ref = reference_apply(op, None, b, fn)
        k = op.matvec_count
        assert k == 137
        assert np.array_equal(ref, arnoldi_reference(mat, b, fn, k)[0])
        full, _ = arnoldi_reference(mat, b, fn, 400)
        assert np.linalg.norm(ref - full) <= 1e-12 * np.linalg.norm(full)

    def test_non_hermitian_unsettled_runs_to_the_end(self):
        # n = 14: checkpoints at steps 5, 10 and 14 measure one change before
        # the cap, and a second could first be measured at step 15
        rng = np.random.default_rng(0)
        a = np.diag(np.linspace(1.0, 4.0, 14)) + np.triu(rng.standard_normal((14, 14)), 1)
        mat = SparseMatrix(a)
        b = rng.standard_normal(mat.n)
        fn = builtin_kernels()["sqrt"]
        op = LinearOperator.from_matrix(mat)
        ref = reference_apply(op, None, b, fn)
        full, k = arnoldi_reference(mat, b, fn, mat.n)
        assert op.matvec_count == k
        assert np.array_equal(ref, full)

    def test_non_hermitian_checkpoint_gaps_grow_with_k(self, monkeypatch):
        # with a zero settled change no run settles, so F(H_k) e_1 is evaluated
        # at every checkpoint: after gaps of max(5, k // 8) steps, and at the cap
        steps, form = [], baselines._DENSE_FORMS["sqrt"]
        monkeypatch.setitem(baselines._DENSE_FORMS, "sqrt",
                            lambda H, e1: steps.append(e1.size) or form(H, e1))
        monkeypatch.setattr(baselines, "REF_SETTLED_RTOL", 0.0)
        monkeypatch.setattr(baselines, "REF_MAX_STEPS", 150)
        mat = convection_diffusion_nd(20, 1e-2, 2)
        op = LinearOperator.from_matrix(mat)
        reference_apply(op, None, unit_start(mat.n), builtin_kernels()["sqrt"])
        assert steps == [*range(5, 51, 5), 56, 63, 70, 78, 87, 97, 109, 122, 137, 150]
        assert op.matvec_count == 150

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    @pytest.mark.parametrize("grid", [10, 20])
    def test_non_hermitian_references_match_dense_forms(self, grid, eps):
        # every function with a dense form (4.7e-15 to 1.3e-14 off), against one dense sqrtm of A
        mat = convection_diffusion_nd(grid, eps, 2)
        a, b = mat.toarray(), unit_start(mat.n)
        s = la.sqrtm(a)
        oracles = {"power-neg-3-2": la.solve(a @ s, b), "sqrt": s @ b,
                   "inv-sqrt-stieltjes": la.solve(s, b)}
        assert set(oracles) == set(baselines._DENSE_FORMS)
        for name, oracle in oracles.items():
            ref = reference_apply(LinearOperator.from_matrix(mat), None, b, builtin_kernels()[name])
            oracle = np.real(oracle)
            assert np.linalg.norm(ref - oracle) <= 1e-13 * np.linalg.norm(oracle), name

    @pytest.mark.parametrize("name", ["power-neg-3-2", "sqrt", "inv-sqrt-stieltjes"])
    def test_complex_non_hermitian_keeps_imaginary_parts(self, name):
        # the dense forms of a complex H are complex; their real parts are 1e-2 off
        a, b = complex_non_hermitian("triangular")
        fn = builtin_kernels()[name]
        ref = reference_apply(LinearOperator.from_matrix(a), None, b, fn)
        oracle = eig_apply(a, b, fn.scalar_form)
        assert np.linalg.norm(ref - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_non_hermitian_failing_checkpoints_raise_at_the_end(self):
        # a nilpotent shift from e_n: every H_k is singular, so F(H_k) e_1
        # fails at every checkpoint, the last at the breakdown, step n
        op = LinearOperator.from_matrix(np.diag(np.ones(29), 1))
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_apply(op, None, np.eye(30)[-1], builtin_kernels()["power-neg-3-2"])
        assert op.matvec_count == 30

    @pytest.mark.parametrize("name", ["exp-sqrt", "gamma", "exp-sqrt-shifted"])
    def test_non_hermitian_without_dense_form_is_refused(self, name):
        mat = convection_diffusion_nd(12, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        op = LinearOperator.from_matrix(mat)
        with pytest.raises(ValueError, match=f"no dense form of {name} "):
            reference_apply(op, None, b, builtin_kernels()[name])
        assert op.matvec_count == 0


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

    def test_power_plus_one_multiplies_first(self):
        # G(A) (A b) with G(s) = s^{-1/2} is A^{1/2} b (9.1e-11 off at tol 1e-8)
        mat = laplacian_nd(10, 2)
        b = unit_start(mat.n)
        op = LinearOperator.from_matrix(mat)
        x, report, first = stieltjes_pipeline(op, b, builtin_kernels()["inv-sqrt-stieltjes"],
                                              power=1, cfg=RestartConfig(m=10, tol=1e-8))
        assert first == 1
        assert op.matvec_count == first + report.matvecs
        w, q = la.eigh(mat.toarray())
        oracle = q @ (np.sqrt(w) * (q.T @ b))
        assert np.linalg.norm(x - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_non_hermitian_first_phase_is_gmres(self):
        # A^{-3/2} b through restarted GMRES (60 matvecs), 8.4e-10 off at tol 1e-8
        mat = convection_diffusion_nd(10, 1e-2, 2)
        b = unit_start(mat.n)
        op = LinearOperator.from_matrix(mat)
        x, report, first = stieltjes_pipeline(op, b, builtin_kernels()["inv-sqrt-stieltjes"],
                                              power=-1, cfg=RestartConfig(m=10, tol=1e-8))
        assert first == 60
        assert op.matvec_count == first + report.matvecs
        a = mat.toarray()
        oracle = np.real(la.solve(a @ la.sqrtm(a), b))
        assert np.linalg.norm(x - oracle) <= 1e-8 * np.linalg.norm(oracle)
