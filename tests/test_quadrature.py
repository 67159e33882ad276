import math

import numpy as np
import pytest
import scipy.linalg as la

from laplace_krylov import quadrature
from laplace_krylov.quadrature import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    QuadratureDivergenceError,
    ZeroIntegrandError,
    apply_rule_matrix,
    build_laplace_rule,
    gk15,
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
        fine = build_laplace_rule(kern, 1.0, 1e-13)
        adaptive = scalar_apply(fine, fine.values)
        assert scalar_apply(rule, kern(rule.nodes)) == pytest.approx(adaptive, abs=1e-10)

    def test_divergence_reported(self):
        # a square wave with thousands of jumps where exp(-t) still counts
        # needs more subintervals than MAX_INTERVALS
        with pytest.raises(QuadratureDivergenceError,
                           match=f"{quadrature.MAX_INTERVALS} subintervals"):
            build_laplace_rule(lambda t: np.sign(np.sin(1e3 * t)), 1.0, 1e-10)


class TestRuleSamples:
    """The rule keeps the kernel samples its adaptive pass took, one per node."""

    @pytest.mark.parametrize("t_max", [None, 5.0])
    def test_samples_are_the_kernel_at_the_nodes(self, t_max):
        rule = build_laplace_rule(np.sqrt, 0.5, 1e-10, t_max=t_max)
        assert rule.nodes.max() < (t_max or np.inf)
        assert np.array_equal(rule.values, np.sqrt(rule.nodes))

    def test_dead_intervals_drop_their_samples(self, monkeypatch):
        # the kernel vanishes beyond t = 2, so the intervals out there are
        # dropped with their samples
        kernel = lambda t: np.where(t < 2.0, np.exp(-t), 0.0)  # noqa: E731
        accepted = []
        real_adapt = quadrature._adapt

        def recording_adapt(*args, **kwargs):
            out = real_adapt(*args, **kwargs)
            accepted.append(len(out[0]))
            return out

        monkeypatch.setattr(quadrature, "_adapt", recording_adapt)
        rule = build_laplace_rule(kernel, 0.5, 1e-10)
        assert 15 * accepted[0] > rule.count
        assert rule.values.shape == rule.nodes.shape
        assert np.array_equal(rule.values, kernel(rule.nodes))


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


def vector_apply(rule):
    """A rule built at nu = 0 applied to its own vector samples."""
    return rule.weights @ rule.values


class TestVectorHalfline:
    def test_vector_integral(self):
        # componentwise exponentials with known transforms
        def f(t):
            return np.column_stack([np.exp(-t), np.exp(-2.0 * t)])

        rule = build_laplace_rule(f, 0.0, 1e-11)
        assert rule.values.shape == (rule.count, 2)
        assert vector_apply(rule) == pytest.approx([1.0, 0.5], abs=1e-10)

    def test_vanishing_vector_integrand(self):
        with pytest.raises(ZeroIntegrandError):
            build_laplace_rule(lambda t: np.zeros((t.size, 3)), 0.0, 1e-10)

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

        out = vector_apply(build_laplace_rule(f, 0.0, 1e-10))
        w, q = la.eigh(h)
        oracle = q @ (w**-0.5 * q.T[:, 0])
        assert np.linalg.norm(out - oracle) <= 1e-9


def heap_adapt_reference(segment_eval, eps, max_intervals, initial=10, x_hi=1.0):
    """Worst-first bisection through a heap keyed on (-err, id), so equal
    errors split the earlier interval first; the records are summed in
    creation order."""
    import heapq

    heap, records, next_id = [], {}, 0
    for i in range(initial):
        a, b = x_hi * i / initial, x_hi * (i + 1) / initial
        k, err, samples = segment_eval(a, b)
        records[next_id] = (a, b, k, err, samples)
        heapq.heappush(heap, (-err, next_id))
        next_id += 1
    while True:
        acc, err_sum = None, 0.0
        for (_, _, k, err, _) in records.values():
            acc = k if acc is None else acc + k
            err_sum += err
        target = max(eps, eps * math.hypot(*np.ravel(acc)))
        if err_sum <= target:
            return sorted(records.values(), key=lambda r: r[0]), acc
        if len(records) >= max_intervals:
            raise QuadratureDivergenceError("no convergence")
        _, rid = heapq.heappop(heap)
        a, b, *_ = records.pop(rid)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            k, err, samples = segment_eval(lo, hi)
            records[next_id] = (lo, hi, k, err, samples)
            heapq.heappush(heap, (-err, next_id))
            next_id += 1


def mirrored_segment(a, b):
    """gk15 of |u|^0.3 over the distances of [a, b] from 0.5: intervals
    mirrored about the split point 0.5 return exactly equal errors."""
    lo, hi = sorted((abs(a - 0.5), abs(b - 0.5)))
    return (*gk15(lambda u: u**0.3, lo, hi), None)


class TestAdaptOnOneList:
    """_adapt keeps its intervals in one list; records and sum are those of
    the heap-based reference, ties included."""

    @staticmethod
    def assert_same_pass(segment_eval, eps, **kwargs):
        got, total = quadrature._adapt(segment_eval, eps, **kwargs)
        ref, ref_total = heap_adapt_reference(segment_eval, eps, quadrature.MAX_INTERVALS,
                                              **kwargs)
        assert len(got) == len(ref) > 10
        for g, r in zip(got, ref):
            assert g[:2] == r[:2] and g[3] == r[3]
            assert np.array_equal(g[2], r[2])
        assert np.array_equal(total, ref_total)

    def test_tied_errors_split_the_earlier_interval_first(self):
        errors = [mirrored_segment(i / 10, (i + 1) / 10)[1] for i in range(10)]
        assert errors.count(max(errors)) == 2   # [0.4, 0.5] and [0.5, 0.6]
        # at 1e-6 the pass stops between the splits of a tied pair, so the
        # tie-break decides which of the two is split
        self.assert_same_pass(mirrored_segment, 1e-6)

    def test_vector_integrand(self):
        def f(t):
            return np.column_stack([np.exp(-t), np.sqrt(t)])

        self.assert_same_pass(quadrature._pilot_segment(f, 1.0, False), 1e-11)

    def test_truncated_rule(self):
        # the kinks of |sin 3t| on [0, 5] make the pass split
        r = math.sqrt(5.0)
        segment = quadrature._pilot_segment(lambda t: np.abs(np.sin(3.0 * t)), 0.7, False)
        self.assert_same_pass(segment, 1e-10, x_hi=r / (1.0 + r))
