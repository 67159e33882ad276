import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as la

from laplace_krylov.krylov import arnoldi
from laplace_krylov import restart
from laplace_krylov.operators import (
    Graph,
    LinearOperator,
    SparseMatrix,
    convection_diffusion_nd,
    graph_laplacian,
    laplacian_nd,
)
from laplace_krylov.quadrature import build_laplace_rule
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
    return LinearOperator.from_matrix(SparseMatrix.from_dense(np.diag(values)))


def spd_matrix(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + (n if shift is None else shift) * np.eye(n)


def spectral_apply(a, b, scalar):
    w, q = la.eigh(a)
    return q @ (np.asarray(scalar(w)) * (q.T @ b))


def sqrt_kernel():
    """Laplace kernel of (sqrt(pi)/2) s^{-3/2}, i.e. plain sqrt(t)."""
    return TransformFunction(name="sqrt-t", kind="laplace", kernel=np.sqrt,
                             abscissa=0.0,
                             scalar_form=lambda s: (SQRT_PI / 2.0) * s**-1.5)


def inv_sqrt_laplace():
    """s^{-1/2} written as a one-sided Laplace transform."""
    return TransformFunction(
        name="inv-sqrt-laplace", kind="laplace",
        kernel=lambda t: 1.0 / np.sqrt(math.pi * np.asarray(t, dtype=float)),
        abscissa=0.0, scalar_form=lambda s: s**-0.5)


class TestConfigAndTypes:
    def test_defaults(self):
        cfg = RestartConfig(m=10, tol=1e-6)
        assert cfg.eps_q == pytest.approx(1e-9)
        assert cfg.eps_s == pytest.approx(1e-9)

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
        with pytest.raises(ValueError):
            TransformFunction(name="x", kind="bernstein", kernel=np.sqrt, c=-1.0)


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

    def test_oscillating_density_flagged(self):
        fn = builtin_kernels(tau=1.0)["exp-sqrt-shifted"]
        assert fn.non_standard
        got = transform_value(fn, 1.0, eps=1e-9)
        assert got == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-6)


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
        op = LinearOperator.from_dense(a)
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
        mat = graph_laplacian(Graph(12, edges))
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


    def test_one_propagator_per_cycle(self, monkeypatch):
        # nonsymmetric, so every node takes a dense expm; cycles >= 3 also
        # run spline refinement rounds, which reuse E
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


class TestErrorRepresentation:
    def test_error_function_constant_kernel_m1(self):
        # k=2, m=1, H = [a], f = 1: f^(2)(t) = 1/a independent of t
        a = 1.7
        rule = build_laplace_rule(lambda t: np.ones_like(t), a, 1e-10)
        model = ErrorModel(cycle=2, scale=1.0, rule=rule,
                           g_values=np.exp(-a * rule.nodes),
                           surface=lambda t: np.ones_like(t), nu=a)
        vals = error_function_values(model, [0.0, 1.0, 5.0])
        assert np.allclose(vals, 1.0 / a, atol=1e-9)

    def test_error_function_vs_nested_quadrature(self):
        # f^(2)(t) = int f(t+tau) g(tau) dtau on a random SPD 4x4
        a = spd_matrix(4, seed=4)
        b = np.random.default_rng(5).standard_normal(4)
        dec = arnoldi(LinearOperator.from_dense(a), b, 2)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]

        def g(tau):
            return float(coeff @ np.exp(-tau * w))

        nu = w[0]
        rule = build_laplace_rule(np.sqrt, nu, 1e-10)
        model = ErrorModel(cycle=2, scale=1.0, rule=rule,
                           g_values=np.array([g(t) for t in rule.nodes]),
                           surface=np.sqrt, nu=nu)
        probes = np.array([0.1, 1.0, 3.0])
        got = error_function_values(model, probes)
        for t, approx_val in zip(probes, got):
            oracle, _ = scipy.integrate.quad(
                lambda tau: math.sqrt(t + tau) * g(tau), 0, np.inf,
                epsabs=1e-12, epsrel=1e-12, limit=200)
            assert approx_val == pytest.approx(oracle, abs=1e-7 * max(1, abs(oracle)))

    @pytest.mark.parametrize("m", [3, 4])
    def test_error_function_constant_sign(self, m):
        a = spd_matrix(6, seed=6)
        b = np.random.default_rng(7).standard_normal(6)
        dec = arnoldi(LinearOperator.from_dense(a), b, m)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]
        nu = w[0]
        rule = build_laplace_rule(np.sqrt, nu, 1e-10)
        g_vals = (coeff[None, :] * np.exp(-np.outer(rule.nodes, w))).sum(axis=1)
        model = ErrorModel(cycle=2, scale=1.0, rule=rule, g_values=g_vals,
                           surface=np.sqrt, nu=nu)
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
        dec = arnoldi(LinearOperator.from_dense(a), b, m)
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
    """Arnoldi cycles to feed one Stieltjes chain, and known (t, psi(t), atol)."""
    rng = np.random.default_rng(9)
    if name == "scalar":
        return [arnoldi(diag_op([2.0]), np.ones(1), 1)], [(3.0, 0.2, 1e-15)]
    if name == "laplace-of-g":
        # psi = L{g} with g(tau) = e_m^T exp(-tau H) e_1; the oracle is
        # adaptive quadrature of the eigendecomposition closed form
        dec = arnoldi(LinearOperator.from_dense(spd_matrix(5, seed=9)), np.eye(5)[0], 5)
        w, q = la.eigh(dec.H)
        coeff = q[-1, :] * q[0, :]
        oracle, _ = scipy.integrate.quad(lambda tau: float(coeff @ np.exp(-tau * w)) * np.exp(-tau),
                                         0, np.inf, epsabs=1e-12, epsrel=1e-12)
        return [dec], [(1.0, oracle, 1e-8)]
    if name == "large-shift":
        h = np.triu(rng.standard_normal((4, 4)), -1) + 4.0 * np.eye(4)
        return [arnoldi(LinearOperator.from_dense(h), np.eye(4)[0], 4)], [(1e9, 0.0, 1e-15)]
    # Hermitian and non-Hermitian cycles of even and odd length, one of them m=1
    spd = LinearOperator.from_dense(spd_matrix(8, seed=3))
    cd = LinearOperator.from_matrix(convection_diffusion_nd(4, 1e-2, 2))
    decs = [arnoldi(spd, rng.standard_normal(8), 4), arnoldi(cd, rng.standard_normal(16), 5),
            arnoldi(spd, rng.standard_normal(8), 1), arnoldi(cd, rng.standard_normal(16), 6)]
    return decs, []


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
        decs, known = ritz_case(case)
        rho = builtin_kernels()["inv-sqrt-stieltjes"].kernel
        chain = restart._StieltjesChain(rho, RestartConfig(m=1, tol=1e-6), 1.0)
        for k, dec in enumerate(decs, start=1):
            chain.cycle(dec, k, 1.0)
            ref = dense_psi(decs[:k], RITZ_POINTS)
            assert np.all(np.abs(chain._psi(RITZ_POINTS) - ref) <= 1e-12 * np.abs(ref))
        for t, value, atol in known:
            assert chain._psi(np.array([t]))[0] == pytest.approx(value, abs=atol)

    @pytest.mark.filterwarnings("error")
    def test_subdiagonal_product_beyond_overflow(self):
        mat = laplacian_nd(12, 3)
        scaled = LinearOperator.from_matrix(
            SparseMatrix.from_scipy(1e8 * mat.to_scipy(), symmetric=True))
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
        op = LinearOperator.from_dense(a)
        fn = builtin_kernels()["inv-sqrt-stieltjes"]
        cfg = RestartConfig(m=4, tol=1e-7, eps_q=1e-12, max_cycles=1)
        cfg.tol = 1e-30
        x, _ = restarted_laplace(op, b, fn, cfg)
        dec = arnoldi(LinearOperator.from_dense(a), b, 4)
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
        op1 = LinearOperator.from_dense(a)
        x_lap, _ = restarted_laplace(op1, b, inv_sqrt_laplace(), cfg)
        op2 = LinearOperator.from_dense(a)
        x_sti, _ = restarted_laplace(op2, b, builtin_kernels()["inv-sqrt-stieltjes"], cfg)
        exact = spectral_apply(a, b, lambda w: w**-0.5)
        assert np.linalg.norm(x_lap - x_sti) <= 10 * eps_q * np.linalg.norm(exact)
        # cross-method agreement within 2 tol of each other's converged runs
        cfg2 = RestartConfig(m=3, tol=1e-8)
        op3 = LinearOperator.from_dense(a)
        y_lap, rep1 = restarted_laplace(op3, b, inv_sqrt_laplace(), cfg2)
        op4 = LinearOperator.from_dense(a)
        y_sti, rep2 = restarted_laplace(op4, b, builtin_kernels()["inv-sqrt-stieltjes"], cfg2)
        assert rep1.converged and rep2.converged
        assert np.linalg.norm(y_lap - y_sti) <= 2 * cfg2.tol * np.linalg.norm(exact)


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

    def test_affine_part_costs_one_matvec(self):
        fn = builtin_kernels()["sqrt"]
        affine = TransformFunction(name="sqrt-affine", kind="bernstein",
                                   kernel=fn.kernel, abscissa=0.0,
                                   c=2.0, a=0.5, scalar_form=None)
        op = diag_op([1.0, 4.0, 9.0])
        b = np.ones(3) / math.sqrt(3.0)
        cfg = RestartConfig(m=2, tol=1e-7)
        x, rep = restarted_laplace(op, b, affine, cfg)
        assert op.matvec_count == rep.matvecs + 1
        exact = (2.0 + 0.5 * np.array([1.0, 4.0, 9.0])
                 + np.array([1.0, 2.0, 3.0])) * b
        assert np.abs(x - exact).max() <= 1e-6 * np.abs(exact).max()
