import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as la
import scipy.special
from conftest import complex_non_hermitian, eig_apply, power_transforms

from laplace_krylov.krylov import arnoldi
from laplace_krylov import cli, restart, smallmat
from laplace_krylov.operators import (
    LinearOperator,
    SparseMatrix,
    adjacency,
    convection_diffusion_nd,
    graph_laplacian,
    laplacian_nd,
)
from laplace_krylov.quadrature import (
    QuadratureDivergenceError,
    ZeroIntegrandError,
    build_laplace_rule,
)
from laplace_krylov.restart import (
    ConvergenceRegionError,
    ErrorModel,
    RestartConfig,
    TransformFunction,
    builtin_kernels,
    error_function_values,
    restarted_laplace,
    transform_value,
)

SQRT_PI = math.sqrt(math.pi)


def diag_op(values):
    return LinearOperator.from_matrix(SparseMatrix(np.diag(values)))


def spd_matrix(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


def spectral_cache(op, dec):
    """The eigendecomposition restarted_laplace makes of a cycle's H."""
    return (restart.eig_hermitian if op.hermitian else restart.eig_general)(dec.H)


def spectral_apply(a, b, scalar):
    w, q = la.eigh(a)
    return q @ (np.asarray(scalar(w)) * (q.T @ b))


def sqrt_kernel():
    """Laplace kernel of (sqrt(pi)/2) s^{-3/2}, i.e. plain sqrt(t)."""
    return TransformFunction(name="sqrt-t", kind="laplace", kernel=np.sqrt,
                             abscissa=0.0,
                             scalar_form=lambda s: (SQRT_PI / 2.0) * s**-1.5)


class TestConfigAndTypes:
    def test_defaults(self):
        cfg = RestartConfig(m=10, tol=1e-6)
        assert cfg.eps_q == pytest.approx(1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            RestartConfig(m=0)
        with pytest.raises(ValueError):
            RestartConfig(m=5, tol=1e-8, eps_q=1e-6)
        with pytest.raises(ValueError):
            RestartConfig(m=5, stopping="nonsense")

    @pytest.mark.parametrize("kwargs, field", [
        ({"tol": math.inf}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"max_cycles": 0}, "max_cycles"),
        ({"max_cycles": -2}, "max_cycles"),
    ], ids=["tol-inf", "tol-nan", "tol-zero", "max_cycles-zero", "max_cycles-negative"])
    def test_rejects_bad_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            RestartConfig(m=5, **kwargs)

    def test_transform_kind_validation(self):
        with pytest.raises(ValueError):
            TransformFunction(name="x", kind="fourier", kernel=np.sqrt)


class TestBuiltinKernels:
    def test_power_neg_3_2_scalar(self):
        fn = builtin_kernels()["power-neg-3-2"]
        assert transform_value(fn, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert transform_value(fn, 4.0) == pytest.approx(0.125, abs=1e-9)

    def test_exp_sqrt_scalar(self):
        fn = builtin_kernels(tau=1.0)["exp-sqrt"]
        assert transform_value(fn, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_gamma_half_vs_bruteforce(self):
        fn = builtin_kernels()["gamma"]
        got = transform_value(fn, 0.5)
        # independent oracle: trapezoid on the two-sided integral
        t = np.linspace(-50.0, 200.0, 2_000_001)
        with np.errstate(over="ignore"):
            vals = np.exp(-np.exp(-t)) * np.exp(-0.5 * t)
        oracle = np.trapezoid(np.nan_to_num(vals), t)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(SQRT_PI, abs=1e-8)

    def test_sqrt_bernstein_scalar(self):
        fn = builtin_kernels()["sqrt"]
        assert transform_value(fn, 4.0) == pytest.approx(2.0, abs=1e-9)

    def test_inv_sqrt_stieltjes_scalar(self):
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        assert transform_value(fn, 9.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_transform_value_outside_the_convergence_region(self):
        with pytest.raises(ConvergenceRegionError, match="power-neg-3-2"):
            transform_value(builtin_kernels()["power-neg-3-2"], -1.0)

    def test_oscillating_density_flagged(self):
        fn = builtin_kernels(tau=1.0)["exp-sqrt-shifted"]
        got = transform_value(fn, 1.0, eps=1e-9)
        assert got == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-6)

    @pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_tau(self, tau):
        # at tau = -1 the exp-sqrt kernel's transform at s = 2 is -0.2431,
        # while its scalar form gives exp(sqrt(2)) = 4.1133
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            builtin_kernels(tau=tau)


class TestRestartedLaplace:
    def test_diagonal_elementwise(self):
        op = diag_op([1.0, 2.0, 3.0])
        b = np.ones(3) / math.sqrt(3.0)
        fn = builtin_kernels()["power-neg-3-2"]
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=2, tol=1e-7))
        exact = np.array([1.0, 2.0, 3.0]) ** -1.5 * b
        assert rep.converged
        assert np.abs(x - exact).max() <= 1e-7 * np.abs(exact).max()

    def test_full_space_single_cycle_exact(self):
        a = spd_matrix(6, seed=0)
        b = np.random.default_rng(1).standard_normal(6)
        op = LinearOperator.from_matrix(a)
        cfg = RestartConfig(m=6, tol=1e-7)
        fn = sqrt_kernel()
        x, rep = restarted_laplace(op, b, fn, cfg)
        assert rep.reason == "breakdown"
        exact = spectral_apply(a, b, fn.scalar_form)
        assert np.linalg.norm(x - exact) <= 10 * cfg.eps_q * np.linalg.norm(exact)

    def test_beta_recursion_in_trace(self):
        op = diag_op(np.linspace(1.0, 9.0, 12))
        b = np.ones(12) / math.sqrt(12.0)
        cfg = RestartConfig(m=3, tol=1e-7, eps_q=1e-10, max_cycles=6)
        cfg.tol = 1e-30  # keep updating for all six cycles
        _, rep = restarted_laplace(op, b, sqrt_kernel(), cfg)
        for prev, cur in zip(rep.records, rep.records[1:]):
            assert cur.beta == -(prev.beta * prev.h_next)

    def test_update_norm_stopping_contract(self):
        op = diag_op(np.linspace(1.0, 4.0, 10))
        b = np.ones(10) / math.sqrt(10.0)
        cfg = RestartConfig(m=3, tol=1e-8)
        _, rep = restarted_laplace(op, b, sqrt_kernel(), cfg)
        assert rep.converged and rep.reason == "update_norm"
        last = rep.records[-1]
        assert last.update_norm <= cfg.tol * last.iterate_norm

    def test_monotone_error_decay(self):
        # Hermitian PD + nonnegative kernel: strict decay of the true error
        mat = laplacian_nd(40, 1)
        b = np.random.default_rng(2).standard_normal(40)
        b /= np.linalg.norm(b)
        fn = sqrt_kernel()
        ref = spectral_apply(mat.toarray(), b, fn.scalar_form)
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=4, tol=1e-7, eps_q=1e-12, max_cycles=8)
        cfg.tol = 1e-30  # record all eight cycles
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        errors = [r.rel_error for r in rep.records]
        assert len(errors) >= 5
        assert all(a > b_ for a, b_ in zip(errors, errors[1:]))

    def test_max_cycles_flag(self):
        op = diag_op(np.linspace(1.0, 9.0, 12))
        b = np.ones(12) / math.sqrt(12.0)
        cfg = RestartConfig(m=2, tol=1e-7, eps_q=1e-10, max_cycles=3)
        cfg.tol = 1e-30
        x, rep = restarted_laplace(op, b, sqrt_kernel(), cfg)
        assert not rep.converged
        assert rep.reason == "max_cycles"
        assert rep.cycles == 3
        assert np.all(np.isfinite(x))

    def test_diverging_run_stays_in_bounded_memory(self):
        # Gamma(A) b has norm 1.6e162 for this unit b, and the restart
        # diverges (update norms 1.6e162, 2.1e169, 1.5e170); in cycle 3 the
        # pairwise-sum refinement knots would need a 1,216,320 x 270 surface
        # grid (2.45 GiB), which MAX_SURFACE_GRID refuses
        mat = convection_diffusion_nd(20, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b /= np.linalg.norm(b)
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b,
                                           builtin_kernels()["gamma"],
                                           RestartConfig(m=8, tol=1e-7, max_cycles=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.converged
        assert rep.reason == "max_cycles"
        assert rep.cycles == 3 and rep.matvecs == 24
        assert all(math.isfinite(r.iterate_norm) for r in rep.records)
        assert peak <= 8 * restart.MAX_SURFACE_GRID

    def test_refinement_norm_does_not_overflow(self):
        # the diverging run above: in cycle 3 each refinement round changes
        # the update by ~1e159-1e161, whose squares overflow an unscaled
        # 2-norm, so the change read inf and never met its target
        mat = convection_diffusion_nd(20, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b /= np.linalg.norm(b)
        with np.errstate(over="raise", invalid="raise"):
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b,
                                       builtin_kernels()["gamma"],
                                       RestartConfig(m=8, tol=1e-7, max_cycles=3))
        assert rep.reason == "max_cycles" and rep.matvecs == 24
        assert np.all(np.isfinite(x))

    def test_grown_update_voids_the_update_norm_stop(self):
        # Gamma(A) b with cond(X) ~ 9e16: the cycle-2 update is 2.6e14 times
        # the cycle-1 one, and later small updates only measure amplified
        # rounding, so the run must not read as converged
        mat = convection_diffusion_nd(15, 1e-3, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        with np.errstate(over="ignore", invalid="ignore"):
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b / np.linalg.norm(b),
                                       builtin_kernels()["gamma"], RestartConfig(m=8, tol=1e-7))
        assert not rep.converged
        assert rep.reason == "growing_updates"
        upd = [r.update_norm for r in rep.records]
        assert upd[1] > restart.UPDATE_GROWTH_LIMIT * upd[0]
        # the update-norm test alone would have stopped here
        assert rep.cycles >= 3 and upd[-1] <= 1e-7 * rep.records[-1].iterate_norm

    def test_non_finite_iterate_is_not_converged(self):
        # the unit b of the test above scaled by 1.4e146: Gamma(A) b then has
        # norm 2.2e308, past the float64 range, so the cycle-1 norms are inf
        # while the Krylov coefficients (up to 1.4e308) stay finite, and
        # inf <= tol * inf must not read as a converged update norm
        mat = convection_diffusion_nd(20, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b *= 1.4e146 / np.linalg.norm(b)
        with np.errstate(over="ignore", invalid="ignore"):
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b,
                                       builtin_kernels()["gamma"], RestartConfig(m=8, tol=1e-7))
        assert not rep.converged
        assert rep.reason == "non_finite"
        assert rep.cycles == 1 and rep.matvecs == 8
        assert rep.records[-1].iterate_norm == math.inf
        assert x.shape == (mat.n,)

    def test_later_non_finite_cycle_keeps_the_previous_iterate(self):
        # scaled by 1e140, cycle 1's iterate has norm 1.6e302 and cycle 2's
        # update overflows to NaN
        mat = convection_diffusion_nd(20, 1e-2, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b *= 1e140 / np.linalg.norm(b)
        fn = builtin_kernels()["gamma"]
        with np.errstate(over="ignore", invalid="ignore"):
            x1, rep1 = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                                         RestartConfig(m=8, tol=1e-7, max_cycles=1))
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                                       RestartConfig(m=8, tol=1e-7))
        assert math.isfinite(rep1.records[0].iterate_norm)
        assert not rep.converged and rep.reason == "non_finite"
        assert rep.cycles == 2 and rep.matvecs == 16
        assert math.isnan(rep.records[1].update_norm)
        assert np.array_equal(x, x1)

    @pytest.mark.filterwarnings("error")
    def test_norms_do_not_overflow_on_finite_vectors(self):
        # squared entries of 1e160 overflow; a scaled 2-norm does not
        fn = builtin_kernels()["power-neg-3-2"]
        cfg = RestartConfig(m=2, tol=1e-7)
        x, rep = restarted_laplace(diag_op([1.0, 4.0, 9.0]), np.ones(3), fn, cfg)
        xs, reps = restarted_laplace(diag_op([1.0, 4.0, 9.0]), 1e160 * np.ones(3), fn, cfg)
        assert reps.converged and reps.matvecs == rep.matvecs
        assert np.linalg.norm(xs / 1e160 - x) <= 1e-12 * np.linalg.norm(x)

    def test_breakdown_is_exact(self):
        op = diag_op([1.0, 2.0])
        b = np.array([1.0, 1.0]) / math.sqrt(2.0)
        fn = sqrt_kernel()
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=2, tol=1e-7))
        assert rep.reason == "breakdown"
        exact = np.array([1.0, 2.0]) ** -1.5 * (SQRT_PI / 2.0) * b
        assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)

    def test_anchor_outside_region_rejected(self):
        op = diag_op([-1.0, 2.0])
        b = np.array([1.0, 1.0]) / math.sqrt(2.0)
        with pytest.raises(ConvergenceRegionError):
            restarted_laplace(op, b, sqrt_kernel(), RestartConfig(m=2, tol=1e-7))

    def test_closed_boundary_allows_singular_operator(self):
        # graph Laplacians are singular; the diffusion kernel converges
        # absolutely on the closed half plane, so nu ~ 0 is accepted
        edges = [[i, i + 1] for i in range(11)]
        mat = graph_laplacian(adjacency(12, edges))
        b = np.random.default_rng(3).standard_normal(12)
        b /= np.linalg.norm(b)
        fn = builtin_kernels(tau=1.0)["exp-sqrt"]
        ref = spectral_apply(mat.toarray(), b,
                             lambda w: np.exp(-np.sqrt(np.maximum(w, 0.0))))
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=4, tol=1e-8, max_cycles=30)
        x, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        errors = [r.rel_error for r in rep.records]
        assert all(a > b_ for a, b_ in zip(errors, errors[1:]))
        assert errors[-1] < 0.1 * errors[0]

    def test_default_config_converges(self):
        op = diag_op(np.linspace(1.0, 6.0, 9))
        b = np.ones(9) / 3.0
        exact = np.linspace(1.0, 6.0, 9) ** -1.5 * (SQRT_PI / 2.0) * b
        x, rep = restarted_laplace(op, b, sqrt_kernel(), RestartConfig(m=3, tol=1e-8))
        assert rep.converged
        assert np.linalg.norm(x - exact) <= 1e-7 * np.linalg.norm(exact)

    def test_reference_error_stopping_needs_a_reference(self):
        op = diag_op([1.0, 2.0])
        with pytest.raises(ValueError, match="needs a reference"):
            restarted_laplace(op, np.ones(2), sqrt_kernel(),
                              RestartConfig(m=1, stopping="reference_error"))
        assert op.matvec_count == 0

    def test_rejects_zero_b(self):
        op = diag_op([1.0, 2.0])
        with pytest.raises(ValueError):
            restarted_laplace(op, np.zeros(2), sqrt_kernel(), RestartConfig(m=1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [sqrt_kernel(), builtin_kernels()["inv-sqrt-stieltjes"]],
                             ids=["laplace", "stieltjes"])
    def test_rejects_nonfinite_b_before_any_matvec(self, fn, bad):
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        b = np.ones(op.n)
        b[3] = bad
        with pytest.raises(ValueError):
            restarted_laplace(op, b, fn, RestartConfig(m=10))
        assert op.matvec_count == 0

    @pytest.mark.parametrize("stopping", ["update_norm", "reference_error"])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_rejects_reference_of_wrong_length_before_any_matvec(self, length, stopping):
        op = diag_op([1.0, 2.0, 3.0])
        cfg = RestartConfig(m=2, stopping=stopping)
        with pytest.raises(ValueError, match="reference"):
            restarted_laplace(op, np.ones(3), sqrt_kernel(), cfg, reference=np.ones(length))
        assert op.matvec_count == 0

    @pytest.mark.parametrize("bad", ["zero", "nan", "inf", "column"])
    def test_rejects_bad_reference_before_any_matvec(self, bad):
        op = LinearOperator.from_matrix(laplacian_nd(6, 2))
        ref = np.ones((op.n, 1)) if bad == "column" else np.zeros(op.n)
        if bad in ("nan", "inf"):
            ref[3] = float(bad)
        cfg = RestartConfig(m=4, stopping="reference_error")
        with pytest.raises(ValueError, match="reference"):
            restarted_laplace(op, np.ones(op.n), builtin_kernels()["power-neg-3-2"], cfg,
                              reference=ref)
        assert op.matvec_count == 0

    def test_rejects_cycle_longer_than_n_before_any_matvec(self):
        op = diag_op([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="cycle length"):
            restarted_laplace(op, np.ones(3), sqrt_kernel(), RestartConfig(m=10**9))
        assert op.matvec_count == 0

    def test_near_symmetric_dense_matrix_runs_nonhermitian(self):
        # run as Hermitian, this matrix misses s^{-3/2} b by ~1e-7 at tol 1e-10
        rng = np.random.default_rng(3)
        a = rng.standard_normal((60, 60))
        spd = a @ a.T / 60 + np.eye(60)
        mat = spd * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, (60, 60)))
        b = rng.standard_normal(60)
        b /= np.linalg.norm(b)
        w, v = la.eig(mat)
        exact = (v @ (w**-1.5 * la.solve(v, b))).real
        fn = builtin_kernels()["power-neg-3-2"]
        x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                                   RestartConfig(m=10, tol=1e-10))
        assert rep.converged
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_one_propagator_per_cycle(self, monkeypatch):
        # nonsymmetric, so the columns come from one general
        # eigendecomposition per cycle; cycles >= 3 also run spline
        # refinement rounds, which reuse E
        op = LinearOperator.from_matrix(convection_diffusion_nd(8, 1e-3, 3))
        b = np.ones(op.n) / math.sqrt(op.n)
        arnoldi_calls = []
        propagator_cycles = []
        real_arnoldi, real_columns = restart.arnoldi, restart.expm_columns

        def counting_arnoldi(*args, **kwargs):
            arnoldi_calls.append(1)
            return real_arnoldi(*args, **kwargs)

        def counting_columns(*args, **kwargs):
            propagator_cycles.append(len(arnoldi_calls))
            return real_columns(*args, **kwargs)

        monkeypatch.setattr(restart, "arnoldi", counting_arnoldi)
        monkeypatch.setattr(restart, "expm_columns", counting_columns)
        fn = builtin_kernels()["power-neg-3-2"]
        _, rep = restarted_laplace(op, b, fn, RestartConfig(m=10, tol=1e-7))
        assert rep.cycles >= 4
        assert propagator_cycles == list(range(1, rep.cycles + 1))


class TestSemiOrthogonalCycles:
    def test_singular_graph_matches_full_reorthogonalization(self, monkeypatch):
        # exp(-sqrt(A)) on a connected graph Laplacian, whose zero eigenvalue
        # sits on the branch point of sqrt; the estimate fires late in some
        # restart cycles here, which must cost and reach what full passes do
        mat = graph_laplacian(cli._random_connected_graph(1000, np.random.default_rng(0)))
        b = np.random.default_rng(0).standard_normal(mat.n)
        b /= np.linalg.norm(b)
        fn = builtin_kernels()["exp-sqrt"]
        exact = spectral_apply(mat.toarray(), b, fn.scalar_form)
        cfg = RestartConfig(m=50, tol=1e-10)

        def solve():
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn, cfg)
            assert rep.converged and rep.reason == "update_norm"
            return rep.matvecs, np.linalg.norm(x - exact) / np.linalg.norm(exact)

        semi_matvecs, semi_err = solve()
        monkeypatch.setattr(restart, "arnoldi", lambda op, start, m, **_: arnoldi(op, start, m))
        full_matvecs, full_err = solve()
        assert semi_matvecs == full_matvecs
        assert semi_err <= 1.1 * full_err

    def test_exact_oracle_where_reorthogonalization_fires(self, monkeypatch):
        # s^{-3/2} on the 2D Laplacian (n = 900) against a dense eigh oracle
        # good to ~1e-14. At m = 150 each cycle's basis drifts until the
        # estimate fires (step 83 of cycle 1); the semi-orthogonal cycles must
        # still reach tol 1e-12 at the cost and error of full passes
        mat = laplacian_nd(30, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        b /= np.linalg.norm(b)
        fn = builtin_kernels()["power-neg-3-2"]
        exact = spectral_apply(mat.toarray(), b, fn.scalar_form)
        cfg = RestartConfig(m=150, tol=1e-12)
        loss = []

        def spy(op, start, m, **kw):
            dec = arnoldi(op, start, m, **kw)
            loss.append(np.abs(dec.V.T @ dec.V - np.eye(dec.m)).max())
            return dec

        def solve():
            x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn, cfg)
            assert rep.converged and rep.reason == "update_norm"
            return rep.matvecs, np.linalg.norm(x - exact) / np.linalg.norm(exact)

        monkeypatch.setattr(restart, "arnoldi", spy)
        semi_matvecs, semi_err = solve()
        assert 1e-12 < max(loss) <= 1e-7
        monkeypatch.setattr(restart, "arnoldi", lambda op, start, m, **_: arnoldi(op, start, m))
        full_matvecs, full_err = solve()
        assert semi_matvecs == full_matvecs
        assert semi_err <= min(1.1 * full_err, cfg.tol)


class TestAnchor:
    """The anchor a chain records in cycle 1: the smallest real part of spec(H)."""

    @staticmethod
    def anchor(a, kind="power-neg-3-2"):
        op = LinearOperator.from_matrix(np.asarray(a, dtype=float))
        dec = arnoldi(op, np.ones(op.n) / math.sqrt(op.n), op.n)
        chain = restart._LaplaceChain(builtin_kernels()[kind], RestartConfig(m=op.n))
        chain.cycle(dec, spectral_cache(op, dec), 1, 1.0, 0.0)
        return chain.nu

    def test_diagonal(self):
        assert self.anchor(np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0)

    def test_tridiag(self):
        assert self.anchor([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(1.0)

    def test_rotation_has_zero_real_part(self):
        # spec = {i, -i}: a closed boundary admits the anchor 0
        nu = self.anchor([[0.0, 1.0], [-1.0, 0.0]], kind="exp-sqrt")
        assert nu == pytest.approx(0.0, abs=1e-14)

    def test_nonsymmetric_anchor_is_the_smallest_real_part(self):
        # spec = {2 + i, 2 - i}
        assert self.anchor([[2.0, -1.0], [1.0, 2.0]]) == pytest.approx(2.0)

    def test_defective_matrix_anchors_through_the_expm_path(self, monkeypatch):
        # a Jordan block has no eigenvector basis: the cycle's propagator
        # falls back to expm, and its anchor still comes from the same
        # decomposition's eigenvalues
        caches = []
        real_eig = restart.eig_general

        def recording_eig(H):
            caches.append(real_eig(H))
            return caches[-1]

        monkeypatch.setattr(restart, "eig_general", recording_eig)
        nu = self.anchor(np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1))
        assert [c.X for c in caches] == [None]
        assert nu == pytest.approx(2.0, rel=1e-4)

    def test_one_general_decomposition_per_nonsymmetric_cycle(self, monkeypatch):
        op = LinearOperator.from_matrix(convection_diffusion_nd(8, 1e-3, 3))
        b = np.ones(op.n) / math.sqrt(op.n)
        arnoldi_calls, decomposed = [], []
        real_arnoldi, real_eig = restart.arnoldi, restart.eig_general

        def counting_arnoldi(*args, **kwargs):
            arnoldi_calls.append(1)
            return real_arnoldi(*args, **kwargs)

        def counting_eig(H):
            decomposed.append(len(arnoldi_calls))
            return real_eig(H)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("the anchor must come from the cycle's decomposition")

        monkeypatch.setattr(restart, "arnoldi", counting_arnoldi)
        monkeypatch.setattr(restart, "eig_general", counting_eig)
        monkeypatch.setattr(restart.la, "eigvals", no_eigvals)
        _, rep = restarted_laplace(op, b, builtin_kernels()["power-neg-3-2"],
                                   RestartConfig(m=10, tol=1e-7))
        assert rep.cycles >= 4
        assert decomposed == list(range(1, rep.cycles + 1))

    @pytest.mark.parametrize("kind", ["power-neg-3-2", "gamma", "sqrt", "inv-sqrt-stieltjes"])
    @pytest.mark.parametrize("mat", [laplacian_nd(10, 2), convection_diffusion_nd(8, 1e-3, 2)],
                             ids=["hermitian", "general"])
    def test_one_decomposition_per_cycle(self, monkeypatch, mat, kind):
        # every chain of a cycle, the shifted reflected chain of gamma and
        # the Stieltjes chain's Ritz values included, reads the driver's one
        # eigendecomposition of H
        arnoldi_calls, decomposed = [], []
        real_arnoldi = restart.arnoldi

        def counting_arnoldi(*args, **kwargs):
            arnoldi_calls.append(1)
            return real_arnoldi(*args, **kwargs)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("the Ritz values must come from the cycle's decomposition")

        for name in ("eig_hermitian", "eig_general"):
            real = getattr(restart, name)
            monkeypatch.setattr(restart, name, lambda H, real=real:
                                decomposed.append(len(arnoldi_calls)) or real(H))
        monkeypatch.setattr(restart, "arnoldi", counting_arnoldi)
        monkeypatch.setattr(restart.la, "eigvals", no_eigvals)
        op = LinearOperator.from_matrix(mat)
        b = np.random.default_rng(0).standard_normal(op.n)
        _, rep = restarted_laplace(op, b / np.linalg.norm(b), builtin_kernels()[kind],
                                   RestartConfig(m=8, max_cycles=4))
        assert rep.cycles >= 3
        assert decomposed == list(range(1, rep.cycles + 1))

    def test_reflected_chain_anchors_on_minus_h(self):
        fn = builtin_kernels()["gamma"]
        op = LinearOperator.from_matrix(np.diag([1.0, 2.0, 3.0]))
        dec = arnoldi(op, np.ones(3) / math.sqrt(3.0), 3)
        chains = restart._chains(fn, RestartConfig(m=3))
        for chain in chains:
            chain.cycle(dec, spectral_cache(op, dec), 1, 1.0, 0.0)
        assert [c.flip for c in chains] == [False, True]
        assert [c.nu for c in chains] == pytest.approx([1.0, -3.0])
        assert chains[1].shift == chains[1].nu


class TestOneRuleBuildPerCycle:
    """Every cycle, the first included, builds one rule and takes its kernel
    samples from it."""

    def test_kernel_is_sampled_only_by_rule_builds(self, monkeypatch):
        calls = {"inside": 0, "outside": 0}
        depth = [0]
        real_rule = restart.build_laplace_rule

        def counting_rule(*args, **kwargs):
            depth[0] += 1
            try:
                return real_rule(*args, **kwargs)
            finally:
                depth[0] -= 1

        def kernel(t):
            calls["inside" if depth[0] else "outside"] += 1
            return np.sqrt(np.asarray(t, dtype=float))

        monkeypatch.setattr(restart, "build_laplace_rule", counting_rule)
        fn = TransformFunction(name="counted-sqrt-t", kind="laplace", kernel=kernel)
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        b = np.ones(op.n) / math.sqrt(op.n)
        _, rep = restarted_laplace(op, b, fn, RestartConfig(m=5, max_cycles=2))
        assert rep.cycles == 2
        assert calls["inside"] > 0
        assert calls["outside"] == 0

    def test_reflected_chain_builds_at_anchor_zero(self, monkeypatch):
        anchors = []
        real_rule = restart.build_laplace_rule

        def spy(f, nu, *args, **kwargs):
            anchors.append(nu)
            return real_rule(f, nu, *args, **kwargs)

        monkeypatch.setattr(restart, "build_laplace_rule", spy)
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        b = np.ones(op.n) / math.sqrt(op.n)
        restarted_laplace(op, b, builtin_kernels()["gamma"], RestartConfig(m=5, max_cycles=1))
        # cycle 1: the positive chain at min spec(H), the reflected one shifted
        assert len(anchors) == 2
        assert anchors[0] > 0
        assert anchors[1] == 0.0

    def test_vanishing_kernel_raises_in_cycle_one(self):
        fn = TransformFunction(name="zero", kind="laplace", kernel=lambda t: np.zeros_like(t))
        with pytest.raises(ZeroIntegrandError):
            restarted_laplace(diag_op([1.0, 2.0]), np.ones(2), fn, RestartConfig(m=1))


class TestRefinementRounds:
    def test_no_round_refits_the_previous_knots(self, monkeypatch):
        # the pairwise-sum knots depend only on the two rules, so a second
        # pairwise round would refit the same surface and change nothing
        fits = []   # one list of knot arrays per chain cycle
        real_cycle, real_fit = restart._LaplaceChain.cycle, restart.spline_fit

        def recording_cycle(chain, dec, cache, k, beta, prev_iterate_norm):
            fits.append([])
            return real_cycle(chain, dec, cache, k, beta, prev_iterate_norm)

        def recording_fit(knots, values):
            fits[-1].append(np.array(knots))
            return real_fit(knots, values)

        monkeypatch.setattr(restart._LaplaceChain, "cycle", recording_cycle)
        monkeypatch.setattr(restart, "spline_fit", recording_fit)
        mat = convection_diffusion_nd(15, 1e-3, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        restarted_laplace(LinearOperator.from_matrix(mat), b / np.linalg.norm(b),
                          builtin_kernels()["gamma"], RestartConfig(m=8, max_cycles=3))
        assert max(len(cycle) for cycle in fits) == 1 + restart.MAX_REFINE_ROUNDS
        for cycle in fits:
            for prev, knots in zip(cycle, cycle[1:]):
                assert not np.array_equal(prev, knots)

    def test_midpoint_rounds_evaluate_only_the_midpoints(self, monkeypatch):
        # within a cycle the surface model of f^(k-1) is fixed, so a midpoint
        # round evaluates it at the knots.size - 1 midpoints and keeps the
        # old knots' values; the pairwise-sum round evaluates all its knots
        cycles = []
        real_cycle, real_fit = restart._LaplaceChain.cycle, restart.spline_fit
        real_values = restart.error_function_values

        def recording_cycle(chain, dec, cache, k, beta, prev_iterate_norm):
            # cycle k's model holds cycle k-1's model, which evaluates f^(k-1), as its surface
            cycles.append({"model": chain.model and chain.model.surface, "evals": [], "fits": []})
            return real_cycle(chain, dec, cache, k, beta, prev_iterate_norm)

        def recording_values(model, nodes):
            if model is cycles[-1]["model"]:
                cycles[-1]["evals"].append(np.array(nodes))
            return real_values(model, nodes)

        def recording_fit(knots, values):
            cycles[-1]["fits"].append(np.array(knots))
            return real_fit(knots, values)

        monkeypatch.setattr(restart._LaplaceChain, "cycle", recording_cycle)
        monkeypatch.setattr(restart, "error_function_values", recording_values)
        monkeypatch.setattr(restart, "spline_fit", recording_fit)
        mat = laplacian_nd(20, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        _, rep = restarted_laplace(LinearOperator.from_matrix(mat), b / np.linalg.norm(b),
                                   builtin_kernels()["power-neg-3-2"], RestartConfig(m=10))
        midpoint_rounds = 0
        for cycle, record in zip(cycles, rep.records):
            # fits[0] is the surface on the previous rule's nodes
            fits, evals = cycle["fits"], cycle["evals"]
            assert len(evals) == max(len(fits) - 1, 0) == record.refine_rounds
            for r, (prev, knots, points) in enumerate(zip(fits, fits[1:], evals), 1):
                if r <= 3:
                    assert points.size == prev.size - 1
                    assert np.array_equal(knots[0::2], prev)
                    assert np.array_equal(knots[1::2], points)
                    midpoint_rounds += 1
                else:
                    assert np.array_equal(points, knots)
        assert midpoint_rounds >= 2
        assert [r.refine_rounds for r in rep.records[:2]] == [0, 0]


class TestDeadChain:
    """A chain whose error kernel vanishes after cycle 1 contributes zero."""

    @staticmethod
    def kill_chains(monkeypatch, dies):
        """Record every chain cycle; rule builds raise where ``dies(chain, k)``."""
        calls = []   # (chain, k, the beta it was passed, contribution, rounds)
        current = {}
        real_cycle, real_rule = restart._LaplaceChain.cycle, restart.build_laplace_rule

        def recording_cycle(chain, dec, cache, k, beta, prev_iterate_norm):
            current.update(chain=chain, k=k)
            out = real_cycle(chain, dec, cache, k, beta, prev_iterate_norm)
            calls.append((chain, k, beta, *out))
            return out

        def failing_rule(*args, **kwargs):
            if dies(current["chain"], current["k"]):
                raise ZeroIntegrandError("integrand vanished on every subinterval")
            return real_rule(*args, **kwargs)

        monkeypatch.setattr(restart._LaplaceChain, "cycle", recording_cycle)
        monkeypatch.setattr(restart, "build_laplace_rule", failing_rule)
        return calls

    def test_one_chain_stops_with_cycle_one_iterate(self, monkeypatch):
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        b = np.ones(op.n) / math.sqrt(op.n)
        fn = builtin_kernels()["power-neg-3-2"]
        x1, _ = restarted_laplace(op, b, fn, RestartConfig(m=5, tol=1e-7, max_cycles=1))
        self.kill_chains(monkeypatch, lambda chain, k: k >= 2)
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=5, tol=1e-7))
        assert rep.cycles == 2
        assert rep.reason == "update_norm"
        assert rep.records[1].update_norm == 0.0
        assert np.array_equal(x, x1)

    def test_two_sided_dead_chain_keeps_its_beta(self, monkeypatch):
        # the driver owns beta_k: a dead chain only stops contributing
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        b = np.ones(op.n) / math.sqrt(op.n)
        calls = self.kill_chains(monkeypatch, lambda chain, k: k >= 2 and not chain.flip)
        x, rep = restarted_laplace(op, b, builtin_kernels()["gamma"],
                                   RestartConfig(m=5, tol=1e-7, max_cycles=5))
        assert rep.cycles == 5
        assert np.all(np.isfinite(x))
        positive = [c for c in calls if not c[0].flip]
        reflected = [c for c in calls if c[0].flip]
        assert [c[1] for c in positive] == [c[1] for c in reflected] == [1, 2, 3, 4, 5]
        assert np.any(positive[0][3] != 0)
        for *_, out, rounds in positive[1:]:
            assert np.array_equal(out, np.zeros(5))
            assert rounds == 0
        assert all(np.any(out != 0) for *_, out, _ in reflected)
        # beta_{k+1} = -beta_k h_{k+1,k} runs on through the dead cycles, and
        # both chains of a cycle are passed the record's beta_k
        assert rep.records[0].beta == 1.0
        for prev, cur in zip(rep.records, rep.records[1:]):
            assert cur.beta == -(prev.beta * prev.h_next)
        assert [r.beta for r in rep.records] == [c[2] for c in positive] == [c[2] for c in reflected]


class TestQuadratureDivergence:
    """A later cycle whose rule build diverges keeps the iterate built so far."""

    @staticmethod
    def diverge_on_call(monkeypatch, call):
        real_rule, calls = restart.build_laplace_rule, []

        def rule(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise QuadratureDivergenceError("no convergence with 2000 subintervals")
            return real_rule(*args, **kwargs)

        monkeypatch.setattr(restart, "build_laplace_rule", rule)

    def test_later_cycle_returns_the_previous_iterate(self, monkeypatch):
        mat = laplacian_nd(10, 2)
        b = np.ones(mat.n) / math.sqrt(mat.n)
        fn = builtin_kernels()["power-neg-3-2"]
        x1, rep1 = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                                     RestartConfig(m=5, tol=1e-7, max_cycles=1))
        self.diverge_on_call(monkeypatch, 2)
        x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                                   RestartConfig(m=5, tol=1e-7))
        assert np.array_equal(x, x1)
        assert not rep.converged and rep.reason == "quadrature_divergence"
        assert rep.cycles == 2 and rep.matvecs == 10
        assert math.isnan(rep.records[1].update_norm)
        assert rep.records[1].iterate_norm == rep1.records[0].iterate_norm

    def test_diverged_cycle_records_no_refinement_rounds(self, monkeypatch):
        # gamma builds two rules a cycle, so build 7 is the positive chain's
        # in cycle 4 and the reflected chain never runs that cycle: its
        # cycle-3 rounds (4 on a clean run too) must not reach the record
        mat = convection_diffusion_nd(15, 1e-3, 2)
        b = np.random.default_rng(0).standard_normal(mat.n)
        self.diverge_on_call(monkeypatch, 7)
        _, rep = restarted_laplace(LinearOperator.from_matrix(mat), b / np.linalg.norm(b),
                                   builtin_kernels()["gamma"], RestartConfig(m=8))
        assert rep.reason == "quadrature_divergence"
        assert [r.refine_rounds for r in rep.records] == [0, 0, 4, 0]

    def test_cycle_one_raises(self, monkeypatch):
        self.diverge_on_call(monkeypatch, 1)
        op = LinearOperator.from_matrix(laplacian_nd(10, 2))
        with pytest.raises(QuadratureDivergenceError):
            restarted_laplace(op, np.ones(op.n), builtin_kernels()["power-neg-3-2"],
                              RestartConfig(m=5, tol=1e-7))

    def test_interval_too_small_to_split_raises(self):
        # the s^{-1/4} density's first rule bisects towards x = 1 until its
        # worst interval is two adjacent floats, which have no midpoint
        fn = TransformFunction(
            name="inv-quarter-stieltjes", kind="stieltjes",
            kernel=lambda t: math.sin(math.pi / 4) / math.pi * np.asarray(t, dtype=float) ** -0.25)
        op = LinearOperator.from_matrix(laplacian_nd(30, 2))
        b = np.random.default_rng(0).standard_normal(op.n)
        with pytest.raises(QuadratureDivergenceError, match="cannot split"):
            restarted_laplace(op, b / np.linalg.norm(b), fn, RestartConfig(m=10))
        assert op.matvec_count == 10


class TestErrorRepresentation:
    def test_error_function_constant_kernel_m1(self):
        # k=2, m=1, H = [a], f = 1: f^(2)(t) = 1/a independent of t
        a = 1.7
        rule = build_laplace_rule(lambda t: np.ones_like(t), a, 1e-10)
        model = ErrorModel(rule=rule, g_values=np.exp(-a * rule.nodes),
                           surface=lambda t: np.ones_like(t))
        vals = error_function_values(model, [0.0, 1.0, 5.0])
        assert np.allclose(vals, 1.0 / a, atol=1e-9)

    def test_error_function_vs_nested_quadrature(self):
        # f^(2)(t) = int f(t+tau) g(tau) dtau on a random SPD 4x4
        a = spd_matrix(4, seed=4)
        b = np.random.default_rng(5).standard_normal(4)
        dec = arnoldi(LinearOperator.from_matrix(a), b, 2)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]

        def g(tau):
            return float(coeff @ np.exp(-tau * w))

        nu = w[0]
        rule = build_laplace_rule(np.sqrt, nu, 1e-10)
        model = ErrorModel(rule=rule, g_values=np.array([g(t) for t in rule.nodes]),
                           surface=np.sqrt)
        probes = np.array([0.1, 1.0, 3.0])
        got = error_function_values(model, probes)
        for t, approx_val in zip(probes, got):
            oracle, _ = scipy.integrate.quad(
                lambda tau: math.sqrt(t + tau) * g(tau), 0, np.inf,
                epsabs=1e-12, epsrel=1e-12, limit=200)
            assert approx_val == pytest.approx(oracle, abs=1e-7 * max(1, abs(oracle)))

    @pytest.mark.parametrize("case", ["truncated", "dead-intervals"])
    def test_rule_samples_are_the_error_function_at_the_nodes(self, case):
        # f^(2) sampled while its rule adapts, 15 points at a time, against
        # one evaluation at every node; a surface that vanishes beyond t = 3
        # leaves dead intervals below the truncation point
        prev = build_laplace_rule(np.sqrt, 1.0, 1e-10)
        surface = np.sqrt if case == "truncated" else (
            lambda t: np.where(t < 3.0, np.sqrt(t), 0.0))
        model = ErrorModel(rule=prev, g_values=np.exp(-0.5 * prev.nodes), surface=surface)
        t_max = 5.0 if case == "truncated" else float(prev.nodes.max())
        rule = build_laplace_rule(lambda ts: error_function_values(model, ts), 1.0, 1e-10,
                                  t_max=t_max)
        if case == "dead-intervals":
            assert 3.0 < rule.nodes.max() < 2 * 3.0
        exact = error_function_values(model, rule.nodes)
        assert rule.values.shape == rule.nodes.shape
        assert la.norm(rule.values - exact) <= 1e-15 * la.norm(exact)

    def test_negligible_terms_are_dropped(self):
        rule = build_laplace_rule(np.sqrt, 1.0, 1e-10)
        g = np.exp(-0.5 * rule.nodes)
        terms = np.abs(rule.weights * g)
        assert np.log10(terms.max() / terms[terms > 0].min()) > 16
        model = ErrorModel(rule=rule, g_values=g, surface=np.sqrt)
        assert model.nodes.size < rule.count
        assert np.all(np.abs(model.wg) >= restart.TERM_FLOOR * terms.max())
        ts = np.linspace(0.0, 20.0, 41)
        full = np.sqrt(ts[:, None] + rule.nodes[None, :]) @ (rule.weights * g)
        got = error_function_values(model, ts)
        assert la.norm(got - full) <= 1e-12 * la.norm(full)

    def test_non_finite_terms_are_kept(self):
        rule = build_laplace_rule(np.sqrt, 1.0, 1e-10)
        g = np.exp(-0.5 * rule.nodes)
        g[3] = np.inf
        assert np.isinf(error_function_values(ErrorModel(rule=rule, g_values=g,
                                                         surface=np.sqrt), [1.0])).all()
        g[3] = np.nan
        assert np.isnan(error_function_values(ErrorModel(rule=rule, g_values=g,
                                                         surface=np.sqrt), [1.0])).all()

    @pytest.mark.parametrize("m", [3, 4])
    def test_error_function_constant_sign(self, m):
        a = spd_matrix(6, seed=6)
        b = np.random.default_rng(7).standard_normal(6)
        dec = arnoldi(LinearOperator.from_matrix(a), b, m)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]
        nu = w[0]
        rule = build_laplace_rule(np.sqrt, nu, 1e-10)
        g_vals = (coeff[None, :] * np.exp(-np.outer(rule.nodes, w))).sum(axis=1)
        model = ErrorModel(rule=rule, g_values=g_vals, surface=np.sqrt)
        vals = error_function_values(model, np.linspace(0.0, 5.0, 41))
        assert np.all(vals > 0) or np.all(vals < 0)

    def test_one_cycle_error_representation_spd(self):
        # error of the one-cycle Arnoldi approximation equals
        # -h ||b|| L{f~}(A) v_{m+1}, both sides by dense spectral +
        # nested adaptive quadrature oracles
        a = spd_matrix(8, seed=8)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(8)
        m = 3
        fn = sqrt_kernel()
        exact = spectral_apply(a, b, fn.scalar_form)
        dec = arnoldi(LinearOperator.from_matrix(a), b, m)
        wh, qh = la.eigh(dec.H)
        fm = dec.beta * (dec.V @ (qh @ (fn.scalar_form(wh) * qh.T[:, 0])))
        lhs = exact - fm

        coeff = qh[-1, :] * qh[0, :]

        def g(tau):
            return float(coeff @ np.exp(-tau * wh))

        def f_tilde(t):
            val, _ = scipy.integrate.quad(lambda tau: math.sqrt(t + tau) * g(tau),
                                          0, np.inf, epsabs=1e-13, epsrel=1e-13,
                                          limit=200)
            return val

        wa, qa = la.eigh(a)
        lf = np.array([
            scipy.integrate.quad(lambda t: f_tilde(t) * math.exp(-lam * t),
                                 0, np.inf, epsabs=1e-12, epsrel=1e-12,
                                 limit=200)[0]
            for lam in wa
        ])
        rhs = -dec.h_next * dec.beta * (qa @ (lf * (qa.T @ dec.v_next)))
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(exact)


RITZ_POINTS = np.logspace(-6, 6, 49)


def dense_psi(decs, t):
    """prod_j e_m^T (H_j + t I)^{-1} e_1 from one dense solve per cycle and point.

    Only the Hessenberg part of H_j is kept: symmetrizing a Hermitian H puts
    rounding-level entries below the subdiagonal, and at t >> |H| those
    dominate the (tiny) entry.
    """
    out = np.ones(t.size)
    for dec in decs:
        eye = np.eye(dec.m)
        out *= [la.solve(np.triu(dec.H, -1) + ti * eye, eye[:, 0])[-1].real for ti in t]
    return out


def ritz_case(name):
    """Arnoldi cycles with their spectral caches to feed one Stieltjes chain,
    and known (t, psi(t), atol)."""
    rng = np.random.default_rng(9)

    def cycle(op, start, m):
        dec = arnoldi(op, start, m)
        return dec, spectral_cache(op, dec)

    if name == "scalar":
        return [cycle(diag_op([2.0]), np.ones(1), 1)], [(3.0, 0.2, 1e-15)]
    if name == "laplace-of-g":
        # psi = L{g} with g(tau) = e_m^T exp(-tau H) e_1; the oracle is
        # adaptive quadrature of the eigendecomposition closed form
        dec, cache = cycle(LinearOperator.from_matrix(spd_matrix(5, seed=9)), np.eye(5)[0], 5)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]
        oracle, _ = scipy.integrate.quad(lambda tau: float(coeff @ np.exp(-tau * w)) * np.exp(-tau),
                                         0, np.inf, epsabs=1e-12, epsrel=1e-12)
        return [(dec, cache)], [(1.0, oracle, 1e-8)]
    if name == "large-shift":
        h = np.triu(rng.standard_normal((4, 4)), -1) + 4.0 * np.eye(4)
        return [cycle(LinearOperator.from_matrix(h), np.eye(4)[0], 4)], [(1e9, 0.0, 1e-15)]
    # Hermitian and non-Hermitian cycles of even and odd length, one of them m=1
    spd = LinearOperator.from_matrix(spd_matrix(8, seed=3))
    cd = LinearOperator.from_matrix(convection_diffusion_nd(4, 1e-2, 2))
    return [cycle(spd, rng.standard_normal(8), 4), cycle(cd, rng.standard_normal(16), 5),
            cycle(spd, rng.standard_normal(8), 1), cycle(cd, rng.standard_normal(16), 6)], []


class TestStieltjes:
    def test_nonhermitian_matches_dense(self):
        mat = convection_diffusion_nd(10, 1e-2, 2)
        op = LinearOperator.from_matrix(mat)
        assert not op.hermitian
        b = np.random.default_rng(14).standard_normal(mat.n)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=5, tol=1e-9))
        exact = np.real(la.solve(la.sqrtm(mat.toarray()), b))
        assert rep.converged and rep.cycles > 2
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)

    @pytest.mark.parametrize("case", ["mixed", "scalar", "laplace-of-g", "large-shift"])
    def test_ritz_form_matches_dense_solves(self, case):
        cycles, known = ritz_case(case)
        rho = builtin_kernels()["inv-sqrt-stieltjes"].kernel
        chain = restart._StieltjesChain(rho, RestartConfig(m=1, tol=1e-6))
        for k, (dec, cache) in enumerate(cycles, start=1):
            chain.cycle(dec, cache, k, 1.0, 1.0)
            ref = dense_psi([d for d, _ in cycles[:k]], RITZ_POINTS)
            assert np.all(np.abs(chain._psi(RITZ_POINTS) - ref) <= 1e-12 * np.abs(ref))
        for t, value, atol in known:
            assert chain._psi(np.array([t]))[0] == pytest.approx(value, abs=atol)

    @pytest.mark.filterwarnings("error")
    def test_subdiagonal_product_beyond_overflow(self):
        mat = laplacian_nd(12, 3)
        scaled = LinearOperator.from_matrix(
            SparseMatrix(1e8 * mat.to_scipy()))
        b = np.random.default_rng(15).standard_normal(mat.n)
        dec = arnoldi(scaled, b, 60)
        assert np.log10(np.diag(dec.H, -1)).sum() > 400
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        cfg = RestartConfig(m=60, tol=1e-7)
        x, _ = restarted_laplace(LinearOperator.from_matrix(mat), b, fn, cfg)
        xs, rep = restarted_laplace(scaled, b, fn, cfg)
        assert rep.converged
        assert np.linalg.norm(1e4 * xs - x) <= 1e-12 * np.linalg.norm(x)

    def test_diagonal_elementwise(self):
        op = diag_op([1.0, 4.0, 9.0])
        b = np.ones(3) / math.sqrt(3.0)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=2, tol=1e-7))
        exact = np.array([1.0, 0.5, 1.0 / 3.0]) * b
        assert rep.converged
        assert np.abs(x - exact).max() <= 1e-7 * np.abs(exact).max()

    def test_single_cycle_equals_plain_arnoldi(self):
        a = spd_matrix(7, seed=10)
        b = np.random.default_rng(11).standard_normal(7)
        op = LinearOperator.from_matrix(a)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        cfg = RestartConfig(m=4, tol=1e-7, eps_q=1e-12, max_cycles=1)
        cfg.tol = 1e-30
        x, _ = restarted_laplace(op, b, fn, cfg)
        dec = arnoldi(LinearOperator.from_matrix(a), b, 4)
        w, q = la.eigh(dec.H)
        direct = dec.beta * (dec.V @ (q @ (w**-0.5 * q.T[:, 0])))
        assert np.linalg.norm(x - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_rejects_spectrum_touching_negative_axis(self):
        op = diag_op([-0.5, 1.0])
        b = np.ones(2) / math.sqrt(2.0)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        with pytest.raises(ConvergenceRegionError):
            restarted_laplace(op, b, fn, RestartConfig(m=2, tol=1e-6))

    def test_laplace_and_stieltjes_chains_agree(self):
        # Cor. consistency: the same function driven through both error
        # representations gives the same iterates to quadrature accuracy
        a = spd_matrix(6, seed=12, shift=7.0)
        b = np.random.default_rng(13).standard_normal(6)
        b /= np.linalg.norm(b)
        eps_q = 1e-8
        cfg = RestartConfig(m=3, tol=1e-6, eps_q=eps_q, max_cycles=2,
                            stopping="update_norm")
        cfg.tol = 1e-30  # force exactly two cycles
        op1 = LinearOperator.from_matrix(a)
        x_lap, _ = restarted_laplace(op1, b, power_transforms(0.5)[0], cfg)
        op2 = LinearOperator.from_matrix(a)
        x_sti, _ = restarted_laplace(op2, b, builtin_kernels()["inv-sqrt-stieltjes"], cfg)
        exact = spectral_apply(a, b, lambda w: w**-0.5)
        assert np.linalg.norm(x_lap - x_sti) <= 10 * eps_q * np.linalg.norm(exact)
        # cross-method agreement within 2 tol of each other's converged runs
        cfg2 = RestartConfig(m=3, tol=1e-8)
        op3 = LinearOperator.from_matrix(a)
        y_lap, rep1 = restarted_laplace(op3, b, power_transforms(0.5)[0], cfg2)
        op4 = LinearOperator.from_matrix(a)
        y_sti, rep2 = restarted_laplace(op4, b, builtin_kernels()["inv-sqrt-stieltjes"], cfg2)
        assert rep1.converged and rep2.converged
        assert np.linalg.norm(y_lap - y_sti) <= 2 * cfg2.tol * np.linalg.norm(exact)

    # c = 20 below: twice the largest distance a whole run reaches, 10.3 at
    # lap2d's converged cycle 28, as the chains' per-cycle quadrature and
    # spline errors of ~eps_q ||x|| add up (2.3 at cycle 12, 0.04 on cd2d);
    # a wrong sign of beta_k in either chain is off by a whole update
    @pytest.mark.parametrize("problem, k", [("lap2d", 2), ("lap2d", 3), ("lap2d", 4), ("lap2d", 12),
                                            ("cd2d", 2), ("cd2d", 3), ("cd2d", 5), ("cd2d", 8)])
    def test_laplace_and_stieltjes_chains_agree_at_cycle_k(self, problem, k):
        # the restarted iterate after k cycles is unique, so both
        # representations of s^{-1/2} give it up to their quadrature errors
        mat, m = ((laplacian_nd(30, 2), 10) if problem == "lap2d"
                  else (convection_diffusion_nd(15, 1e-2, 2), 8))
        b = np.random.default_rng(0).standard_normal(mat.n)
        cfg = RestartConfig(m=m, max_cycles=k)
        runs = [restarted_laplace(LinearOperator.from_matrix(mat), b / np.linalg.norm(b), fn, cfg)
                for fn in power_transforms(0.5)]
        (x_lap, rep_lap), (x_sti, rep_sti) = runs
        assert rep_lap.reason == rep_sti.reason == "max_cycles"
        assert np.linalg.norm(x_lap - x_sti) <= 20 * cfg.eps_q * np.linalg.norm(x_sti)


class TestStieltjesResolvents:
    """The chain's resolvents come from the cycle's decomposition; the stacked
    solve serves only a cache without an eigenvector basis."""

    CD = convection_diffusion_nd(15, 1e-3, 2)

    def run(self, mat, monkeypatch, m=8):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        op = LinearOperator.from_matrix(mat)
        b = np.random.default_rng(0).standard_normal(mat.n)
        x, rep = restarted_laplace(op, b / np.linalg.norm(b),
                                   builtin_kernels()["inv-sqrt-stieltjes"], RestartConfig(m=m))
        return x, rep, len(calls)

    @pytest.mark.parametrize("mat", [laplacian_nd(12, 2), CD], ids=["hermitian", "general"])
    def test_closed_form_makes_no_solve(self, mat, monkeypatch):
        _, rep, solves = self.run(mat, monkeypatch)
        assert rep.converged and rep.cycles > 2
        assert solves == 0

    def test_solve_fallback_matches_closed_form(self, monkeypatch):
        x, rep, _ = self.run(self.CD, monkeypatch)
        monkeypatch.setattr(smallmat, "KAPPA_MAX", 0.0)   # every cycle drops X
        y, rep_solve, solves = self.run(self.CD, monkeypatch)
        assert solves > 0
        assert (rep.matvecs, rep.reason) == (64, "update_norm")
        assert (rep_solve.matvecs, rep_solve.reason) == (rep.matvecs, rep.reason)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    def test_vanishing_integrand_contributes_zeros(self):
        zero = TransformFunction(name="zero", kind="stieltjes", kernel=np.zeros_like)
        op = LinearOperator.from_matrix(laplacian_nd(6, 2))
        b = np.random.default_rng(0).standard_normal(op.n)
        x, rep = restarted_laplace(op, b, zero, RestartConfig(m=4))
        # 0 <= tol * 0 ends the run at cycle 2
        assert [r.update_norm for r in rep.records] == [0.0, 0.0]
        assert np.all(x == 0.0) and rep.reason == "update_norm"


class TestComplexNonHermitian:
    """A complex operator that is not Hermitian keeps the imaginary parts of
    every chain: each run lands within 1e-10 of the dense eigendecomposition."""

    NAMES = ["power-neg-3-2", "sqrt", "inv-sqrt-stieltjes"]

    @staticmethod
    def assert_matches_eig(op, a, b, name):
        fn = builtin_kernels()[name]
        x, rep = restarted_laplace(op, b, fn, RestartConfig(m=10, tol=1e-8))
        assert rep.converged
        oracle = eig_apply(a, b, fn.scalar_form)
        assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("name", NAMES)
    def test_complex_symmetric_takes_the_general_path(self, name):
        # A = A^T but A != A^H: the Hermitian path is 1e-2 to 5e-2 off
        a, b = complex_non_hermitian("symmetric")
        op = LinearOperator.from_matrix(SparseMatrix(a))
        assert not op.hermitian
        self.assert_matches_eig(op, a, b, name)

    @pytest.mark.parametrize("kappa_max", [smallmat.KAPPA_MAX, 0.0],
                             ids=["closed-form", "fallback"])
    @pytest.mark.parametrize("name", NAMES)
    def test_triangular(self, name, kappa_max, monkeypatch):
        # the Stieltjes chain's psi and resolvents are complex here, in the
        # closed form and in the stacked solves without an eigenvector basis
        monkeypatch.setattr(smallmat, "KAPPA_MAX", kappa_max)
        a, b = complex_non_hermitian("triangular")
        self.assert_matches_eig(LinearOperator.from_matrix(a), a, b, name)


class TestTwoSided:
    def test_gamma_scalar_one(self):
        op = diag_op([1.0])
        x, rep = restarted_laplace(op, np.array([1.0]), builtin_kernels()["gamma"],
                                   RestartConfig(m=1, tol=1e-9))
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_gamma_integer_diagonal(self):
        op = diag_op([1.0, 2.0, 3.0])
        b = np.ones(3) / math.sqrt(3.0)
        x, rep = restarted_laplace(op, b, builtin_kernels()["gamma"],
                                   RestartConfig(m=2, tol=1e-7, max_cycles=40))
        exact = np.array([1.0, 1.0, 2.0]) * b
        assert rep.converged
        assert np.abs(x - exact).max() <= 1e-6 * np.abs(exact).max()

    def test_strip_violation_rejected(self):
        op = diag_op([-1.0, 1.0])
        b = np.ones(2) / math.sqrt(2.0)
        with pytest.raises(ConvergenceRegionError):
            restarted_laplace(op, b, builtin_kernels()["gamma"],
                              RestartConfig(m=2, tol=1e-7))

    def test_jordan_block_runs_both_chains_through_expm(self, monkeypatch):
        # J = lam I + N has no eigenvector basis, so the cycle's cache drops
        # X and both chains, the shifted reflected one on -H - shift I
        # included, take their columns from expm; Gamma(J) b is
        # Gamma(lam) [b + psi N b + (psi^2 + psi') N^2 b / 2]
        caches = []
        real_eig = restart.eig_general
        monkeypatch.setattr(restart, "eig_general", lambda H: caches.append(real_eig(H)) or caches[-1])
        lam, N = 1.5, np.diag([1.0, 1.0], 1)
        b = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        x, rep = restarted_laplace(LinearOperator.from_matrix(lam * np.eye(3) + N), b,
                                   builtin_kernels()["gamma"], RestartConfig(m=3))
        psi, dpsi = scipy.special.digamma(lam), scipy.special.polygamma(1, lam)
        exact = scipy.special.gamma(lam) * (b + psi * (N @ b) + 0.5 * (psi**2 + dpsi) * (N @ N @ b))
        assert rep.reason == "breakdown"
        assert [c.X for c in caches] == [None]
        assert np.linalg.norm(x - exact) <= 1e-13 * np.linalg.norm(exact)


class TestBernstein:
    def test_sqrt_scalar(self):
        op = diag_op([4.0])
        x, _ = restarted_laplace(op, np.array([1.0]), builtin_kernels()["sqrt"],
                                 RestartConfig(m=1, tol=1e-8))
        assert x[0] == pytest.approx(2.0, abs=1e-8)

    def test_sqrt_diagonal(self):
        op = diag_op([1.0, 4.0, 9.0])
        b = np.ones(3) / math.sqrt(3.0)
        x, rep = restarted_laplace(op, b, builtin_kernels()["sqrt"],
                                   RestartConfig(m=2, tol=1e-7))
        exact = np.array([1.0, 2.0, 3.0]) * b
        assert rep.converged
        assert np.abs(x - exact).max() <= 1e-6 * np.abs(exact).max()

    def test_negative_anchor_rejected(self):
        # abscissa -1 admits the anchor -0.5, but a Bernstein chain cannot shift
        fn = TransformFunction(name="sqrt-shifted-abscissa", kind="bernstein",
                               kernel=builtin_kernels()["sqrt"].kernel, abscissa=-1.0)
        op = diag_op([-0.5, 1.0])
        with pytest.raises(ConvergenceRegionError, match="positive anchor"):
            restarted_laplace(op, np.ones(2) / math.sqrt(2.0), fn, RestartConfig(m=2))
