import math

import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov.quadrature import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    QuadratureDivergenceError,
    apply_rule_matrix,
    build_laplace_rule,
    gk15,
    integrate_halfline,
    integrate_halfline_vector,
)
from laplace_krylov.smallmat import eig_hermitian, expm_columns


def scalar_apply(rule, values):
    """The rule applied to f(t_i) with exp(-nu t_i), through the 1 x 1 propagator."""
    E = expm_columns(np.array([[rule.nu]]), [1.0], rule.nodes)
    return apply_rule_matrix(rule, values, E)[0]


class TestGK15:
    def test_constant(self):
        val, err = gk15(lambda x: np.ones_like(x), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_cubic(self):
        val, _ = gk15(lambda x: x**3, 0.0, 1.0)
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_exponential(self):
        val, _ = gk15(lambda x: np.exp(x), 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_gauss_exact_to_degree_13(self):
        x = 0.5 * (GK15_NODES[1::2] + 1.0)
        for deg in range(14):
            val = 0.5 * float(G7_WEIGHTS @ x**deg)
            assert val == pytest.approx(1.0 / (deg + 1), abs=1e-13)

    def test_kronrod_exact_to_degree_22(self):
        x = 0.5 * (GK15_NODES + 1.0)
        for deg in range(23):
            val = 0.5 * float(GK15_WEIGHTS @ x**deg)
            assert val == pytest.approx(1.0 / (deg + 1), abs=1e-13)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            gk15(np.sin, 1.0, 0.0)

    def test_rejects_non_finite(self):
        def bad(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (x - x)
        with pytest.raises(ValueError):
            gk15(bad, 0.0, 1.0)


class TestBuildLaplaceRule:
    def test_sqrt_kernel_closed_form(self):
        # L{sqrt(t)}(1) = sqrt(pi)/2
        rule = build_laplace_rule(np.sqrt, 1.0, 1e-10)
        got = scalar_apply(rule, np.sqrt(rule.nodes))
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_constant_kernel(self):
        rule = build_laplace_rule(lambda t: np.ones_like(t), 2.0, 1e-10)
        got = scalar_apply(rule, np.ones(rule.count))
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_gamma_kernel_vs_bruteforce(self):
        # brute-force trapezoid oracle on [0, 50] with 1e7 points
        kern = lambda t: np.exp(-np.exp(-t))
        t = np.linspace(0.0, 50.0, 10_000_001)
        oracle = np.trapezoid(kern(t) * np.exp(-t), t)
        rule = build_laplace_rule(kern, 1.0, 1e-11)
        got = scalar_apply(rule, kern(rule.nodes))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_rule_invariants(self):
        rule = build_laplace_rule(np.sqrt, 1.0, 1e-10)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.isfinite(rule.nodes)) and np.all(rule.nodes >= 0)
        assert rule.count % 15 == 0
        assert rule.interval_errors.sum() <= rule.count * rule.eps_q

    def test_self_consistency_with_adaptive(self):
        kern = lambda t: np.exp(-np.exp(-t))
        rule = build_laplace_rule(kern, 1.0, 1e-10)
        adaptive = integrate_halfline(kern, nu=1.0, eps=1e-13)
        assert scalar_apply(rule, kern(rule.nodes)) == pytest.approx(adaptive, abs=1e-10)

    def test_divergence_reported(self):
        with pytest.raises((QuadratureDivergenceError, ValueError)):
            build_laplace_rule(lambda t: 1.0 / np.maximum(t, 1e-300), 1.0, 1e-10,
                               max_intervals=64)


class TestApplyRuleMatrix:
    def test_scalar_reduction(self):
        nu = 1.5
        rule = build_laplace_rule(np.sqrt, nu, 1e-10)
        vals = np.sqrt(rule.nodes)
        out = apply_rule_matrix(rule, vals, expm_columns(np.array([[nu]]), [1.0], rule.nodes))
        assert out[0] == pytest.approx((math.sqrt(math.pi) / 2.0) * nu**-1.5, rel=1e-12)

    def test_diagonal_entries_are_scalar_transforms(self):
        # with f = 1 the entries must be 1/H_jj
        rule = build_laplace_rule(lambda t: np.ones_like(t), 1.0, 1e-10)
        h = np.diag([1.0, 2.0])
        E = expm_columns(h, [1.0, 0.0], rule.nodes, cache=eig_hermitian(h))
        out = apply_rule_matrix(rule, np.ones(rule.count), E)
        assert out[0] == pytest.approx(1.0, abs=1e-9)
        # e_1 has no second component, so only the (1,1) entry appears
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_spd_matches_spectral_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        h = a @ a.T + 4 * np.eye(4)  # spectrum well above 1
        eps = 1e-9
        rule = build_laplace_rule(np.sqrt, float(la.eigvalsh(h)[0]), eps)
        E = expm_columns(h, np.eye(4)[0], rule.nodes, cache=eig_hermitian(h))
        out = apply_rule_matrix(rule, np.sqrt(rule.nodes), E)
        w, q = la.eigh(h)
        oracle = (math.sqrt(math.pi) / 2.0) * (q @ (w**-1.5 * q.T[:, 0]))
        assert np.linalg.norm(out - oracle) <= 10 * eps

    def test_alignment_check(self):
        rule = build_laplace_rule(np.sqrt, 1.0, 1e-8)
        E = expm_columns(np.eye(2), [1.0, 0.0], rule.nodes)
        with pytest.raises(ValueError):
            apply_rule_matrix(rule, np.ones(3), E)
        with pytest.raises(ValueError):
            apply_rule_matrix(rule, np.ones(rule.count), E[:, :3])


class TestAnchoredRuleReuse:
    # a rule anchored at nu is reused with exp(-t H) whose modes all decay
    # at least as fast as the anchor; scalar shifts model single modes
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_faster_decay_stays_accurate(self, extra):
        nu = 0.8
        rule = build_laplace_rule(lambda t: np.ones_like(t), nu, 1e-9)
        s = nu + extra
        got = float(np.sum(rule.weights * np.exp(-s * rule.nodes)))
        assert got == pytest.approx(1.0 / s, abs=5e-8)


class TestVectorHalfline:
    def test_vector_integral(self):
        # componentwise exponentials with known transforms
        def f(t):
            return np.column_stack([np.exp(-t), np.exp(-2.0 * t)])

        out = integrate_halfline_vector(f, 1e-11)
        assert out == pytest.approx([1.0, 0.5], abs=1e-10)

    def test_resolvent_style_integrand(self):
        # int rho(t) (H + tI)^{-1} e_1 dt with rho = 1/(pi sqrt(t)) equals
        # H^{-1/2} e_1 for SPD H (dense spectral oracle)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 3 * np.eye(3)
        e1 = np.eye(3)[:, 0]

        def f(t):
            rho = 1.0 / (math.pi * np.sqrt(t))
            return np.array([r * la.solve(h + ti * np.eye(3), e1) for r, ti in zip(rho, t)])

        out = integrate_halfline_vector(f, 1e-10)
        w, q = la.eigh(h)
        oracle = q @ (w**-0.5 * q.T[:, 0])
        assert np.linalg.norm(out - oracle) <= 1e-9
