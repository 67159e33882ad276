"""Acceptance criteria for the benchmark reproductions and property suite.

Each criterion prints one PASS line (visible with ``pytest -s`` or ``-rA``).
Start vectors: benchmark counts depend on the (unpublished) start vector.
A seeded random unit vector reproduces the published matvec counts for the
generic-convergence experiments (criteria 1, 2, 3, 6); the smooth all-ones
vector reproduces the published accuracies for the square-root and gamma
experiments (criteria 4, 5) and is also checked against criterion 1's
±1-cycle slack. Tolerances are fixed here, not calibrated.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as la
from conftest import full_storage_lanczos

from laplace_krylov.baselines import (
    reference_apply,
    stieltjes_pipeline,
    two_pass_lanczos,
)
from laplace_krylov.krylov import arnoldi
from laplace_krylov.operators import (
    LinearOperator,
    convection_diffusion_nd,
    laplacian_nd,
)
from laplace_krylov.quadrature import G7_WEIGHTS, GK15_NODES, GK15_WEIGHTS
from laplace_krylov.restart import (
    RestartConfig,
    TransformFunction,
    builtin_kernels,
    restarted_laplace,
    spline_fit,
)

TOL = 1e-7
SQRT_PI = math.sqrt(math.pi)
_timings: dict[str, float] = {}


def seeded_unit(n, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    return b / np.linalg.norm(b)


def ones_unit(n):
    return np.ones(n) / math.sqrt(n)


@pytest.fixture(scope="module")
def al3d():
    return laplacian_nd(20, 3)


@pytest.fixture(scope="module")
def criterion1(al3d):
    """s^-3/2 on A_L, N=20, m=50, seeded b; returns run data + wall time."""
    fn = builtin_kernels()["power-neg-3-2"]
    t0 = time.perf_counter()
    b = seeded_unit(al3d.n)
    ref = reference_apply(LinearOperator.from_matrix(al3d), None, b, fn)
    op = LinearOperator.from_matrix(al3d)
    cfg = RestartConfig(m=50, tol=TOL, stopping="reference_error")
    x, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
    wall = time.perf_counter() - t0
    return {"rep": rep, "wall": wall, "b": b, "ref": ref, "fn": fn, "x": x}


class TestCriterion1:
    def test_s32_laplacian(self, al3d, criterion1):
        rep = criterion1["rep"]
        assert rep.converged
        assert 2 <= rep.cycles <= 3
        assert rep.matvecs == rep.cycles * 50
        assert rep.records[-1].rel_error <= TOL
        assert criterion1["wall"] < 60.0
        print(f"\nACCEPTANCE 1 PASS: s^-3/2 on A_L N=20: {rep.matvecs} matvecs "
              f"({rep.cycles} cycles), rel error {rep.records[-1].rel_error:.2e}, "
              f"{criterion1['wall']:.1f}s")

    def test_s32_all_ones_within_slack(self, al3d):
        # the smooth all-ones start converges one cycle earlier than the
        # published 2-cycle count; +-1 cycle of slack covers the
        # unspecified start vector
        fn = builtin_kernels()["power-neg-3-2"]
        b = ones_unit(al3d.n)
        ref = reference_apply(LinearOperator.from_matrix(al3d), None, b, fn)
        op = LinearOperator.from_matrix(al3d)
        cfg = RestartConfig(m=50, tol=TOL, stopping="reference_error")
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        assert rep.converged
        assert 1 <= rep.cycles <= 3
        assert rep.records[-1].rel_error <= TOL


class TestCriterion2:
    def test_s32_convection_diffusion(self):
        fn = builtin_kernels()["power-neg-3-2"]
        mat = convection_diffusion_nd(20, 1e-3, 3)
        b = seeded_unit(mat.n)
        ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn)
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=20, tol=TOL, stopping="reference_error")
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        assert rep.converged
        # 120 matvecs +- one cycle of m=20
        assert 100 <= rep.matvecs <= 140
        assert rep.records[-1].rel_error <= TOL
        print(f"\nACCEPTANCE 2 PASS: s^-3/2 on A_CD N=20: {rep.matvecs} matvecs, "
              f"rel error {rep.records[-1].rel_error:.2e}")


class TestCriterion3:
    def test_stieltjes_pipeline_fraction(self, al3d, criterion1):
        # CG, then the inv-sqrt-stieltjes restart, measured against criterion 1's F(A)b
        cfg = RestartConfig(m=50, tol=TOL, stopping="reference_error")
        _, rep, first = stieltjes_pipeline(LinearOperator.from_matrix(al3d), criterion1["b"],
                                           builtin_kernels()["inv-sqrt-stieltjes"], -1, cfg,
                                           reference=criterion1["ref"])
        assert rep.converged
        total = first + rep.matvecs
        fraction = first / total
        assert abs(total - 185) <= 15
        assert abs(fraction - 0.46) <= 0.05
        print(f"\nACCEPTANCE 3 PASS: CG+Stieltjes pipeline: {total} matvecs "
              f"(CG {first}), first-phase fraction {fraction:.3f}")
        TestCriterion3.total_matvecs = total


class TestCriterion4:
    def test_gamma_2d(self):
        fn = builtin_kernels()["gamma"]
        mat = laplacian_nd(20, 2)
        b = ones_unit(mat.n)
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=50, tol=TOL, stopping="reference_error")
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        assert rep.converged
        # 100 matvecs +- one cycle of m=50
        assert 50 <= rep.matvecs <= 150
        assert rep.records[-1].rel_error <= 1e-9
        print(f"\nACCEPTANCE 4 PASS: Gamma on 2D A_L N=20: {rep.matvecs} matvecs, "
              f"rel error {rep.records[-1].rel_error:.2e}")


class TestCriterion5:
    def test_sqrt_one_cycle(self, al3d):
        fn = builtin_kernels()["sqrt"]
        b = ones_unit(al3d.n)
        ref = reference_apply(LinearOperator.from_matrix(al3d), None, b, fn)
        op = LinearOperator.from_matrix(al3d)
        cfg = RestartConfig(m=50, tol=TOL, stopping="reference_error")
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        assert rep.converged
        assert rep.cycles == 1
        assert rep.matvecs == 50
        assert rep.records[-1].rel_error <= TOL
        print(f"\nACCEPTANCE 5 PASS: sqrt(A) on A_L N=20: {rep.matvecs} matvecs "
              f"(1 cycle), rel error {rep.records[-1].rel_error:.2e}")


class TestCriterion6:
    def test_two_pass_comparator(self, al3d, criterion1):
        fn = criterion1["fn"]
        b = criterion1["b"]
        ref = criterion1["ref"]
        op = LinearOperator.from_matrix(al3d)
        f2p, rep = two_pass_lanczos(op, b, fn, tol=TOL, check_every_m=50,
                                    reference=ref)
        assert rep.converged
        assert rep.matvecs == 200
        assert op.matvec_count == 200
        # algebraic equivalence with the stored-basis evaluation
        full = full_storage_lanczos(al3d.to_scipy(), b, rep.steps, fn.scalar_form)
        assert (np.linalg.norm(f2p - full)
                <= 1e-12 * np.linalg.norm(full))
        print(f"\nACCEPTANCE 6 PASS: two-pass Lanczos: {rep.matvecs} matvecs, "
              f"matches full-storage to {np.linalg.norm(f2p - full) / np.linalg.norm(full):.2e}")


class TestOrderingAcrossMethods:
    def test_laplace_needs_no_more_matvecs_than_pipeline(self, criterion1):
        # qualitative ordering at every tested size (N=20 here)
        assert criterion1["rep"].matvecs <= TestCriterion3.total_matvecs


# ---------------------------------------------------------------------------
# Criterion 7: property suite (analytical checks only), < 30 s total
# ---------------------------------------------------------------------------

def _timed(name):
    def wrap(fn):
        def inner(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            _timings[name] = time.perf_counter() - t0
            return out
        return inner
    return wrap


class TestCriterion7Properties:
    @_timed("error-representation")
    def test_error_representation_exactness(self):
        # one-cycle error equals -h ||b|| L{f~}(A) v_{m+1} (dense spectral
        # plus nested adaptive quadrature oracle)
        rng = np.random.default_rng(21)
        a = rng.standard_normal((8, 8))
        a = a @ a.T + 8 * np.eye(8)
        b = rng.standard_normal(8)
        m = 3
        scalar = lambda w: (SQRT_PI / 2.0) * w**-1.5
        w_a, q_a = la.eigh(a)
        exact = q_a @ (scalar(w_a) * (q_a.T @ b))
        dec = arnoldi(LinearOperator.from_matrix(a), b, m)
        wh, qh = la.eigh(dec.H)
        fm = dec.beta * (dec.V @ (qh @ (scalar(wh) * qh.T[:, 0])))
        lhs = exact - fm

        coeff = qh[-1, :] * qh[0, :]

        def g(tau):
            return float(coeff @ np.exp(-tau * wh))

        def f_tilde(t):
            return scipy.integrate.quad(lambda tau: math.sqrt(t + tau) * g(tau),
                                        0, np.inf, epsabs=1e-13, epsrel=1e-13,
                                        limit=200)[0]

        lf = np.array([
            scipy.integrate.quad(lambda t: f_tilde(t) * math.exp(-lam * t),
                                 0, np.inf, epsabs=1e-12, epsrel=1e-12,
                                 limit=200)[0]
            for lam in w_a])
        rhs = -dec.h_next * dec.beta * (q_a @ (lf * (q_a.T @ dec.v_next)))
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(exact)
        assert rel <= 1e-7
        print(f"\nACCEPTANCE 7a PASS: error representation exact to {rel:.2e}")

    @_timed("laplace-stieltjes")
    def test_laplace_stieltjes_update_equivalence(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((6, 6))
        a = a @ a.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        b /= np.linalg.norm(b)
        eps_q = 1e-8
        cfg = RestartConfig(m=3, tol=1e-6, eps_q=eps_q, max_cycles=2)
        cfg.tol = 1e-30  # force two full cycles for both chains
        lap = TransformFunction(
            name="inv-sqrt-laplace", kind="laplace",
            kernel=lambda t: 1.0 / np.sqrt(math.pi * np.asarray(t, dtype=float)),
            abscissa=0.0)
        x_lap, _ = restarted_laplace(LinearOperator.from_matrix(a), b, lap, cfg)
        x_sti, _ = restarted_laplace(LinearOperator.from_matrix(a), b,
                                     builtin_kernels()["inv-sqrt-stieltjes"], cfg)
        w, q = la.eigh(a)
        scale = np.linalg.norm(q @ (w**-0.5 * (q.T @ b)))
        diff = np.linalg.norm(x_lap - x_sti)
        assert diff <= 10 * eps_q * scale
        print(f"\nACCEPTANCE 7b PASS: Laplace/Stieltjes updates agree to {diff:.2e}")

    @_timed("monotone-decay")
    def test_monotone_error_decay(self):
        mat = laplacian_nd(40, 1)
        b = seeded_unit(40, seed=23)
        scalar = lambda w: (SQRT_PI / 2.0) * w**-1.5
        w, q = la.eigh(mat.toarray())
        ref = q @ (scalar(w) * (q.T @ b))
        fn = TransformFunction(name="sqrt-t", kind="laplace", kernel=np.sqrt,
                               abscissa=0.0)
        cfg = RestartConfig(m=4, tol=1e-7, eps_q=1e-12, max_cycles=7)
        cfg.tol = 1e-30
        op = LinearOperator.from_matrix(mat)
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        errors = [r.rel_error for r in rep.records]
        assert len(errors) >= 5
        assert all(x > y for x, y in zip(errors, errors[1:]))
        print(f"\nACCEPTANCE 7c PASS: strict decay over {len(errors)} cycles")

    @_timed("spline-ratio")
    def test_spline_refinement_ratio(self):
        probe = np.linspace(0.0, 4.0, 8001)
        errs = []
        for q in (9, 17, 33):   # each grid inserts the midpoints of the last
            knots = np.linspace(0.0, 4.0, q)
            s = spline_fit(knots, np.exp(-knots))
            errs.append(np.abs(s(probe) - np.exp(-probe)).max())
        ratios = [x / y for x, y in zip(errs, errs[1:])]
        assert all(8.0 <= r <= 32.0 for r in ratios)
        print(f"\nACCEPTANCE 7d PASS: spline refinement ratios {ratios}")

    @_timed("arnoldi-invariants")
    def test_arnoldi_invariants(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((50, 50))
        op = LinearOperator.from_matrix(a)
        dec = arnoldi(op, rng.standard_normal(50), 20)
        orth = np.linalg.norm(dec.V.T @ dec.V - np.eye(20))
        assert orth <= 1e-10
        resid = np.column_stack([a @ dec.V[:, j] for j in range(20)])
        resid -= dec.V @ dec.H
        resid[:, -1] -= dec.h_next * dec.v_next
        rel = np.linalg.norm(resid) / (np.linalg.norm(a) * np.linalg.norm(dec.V))
        assert rel <= 1e-10
        print(f"\nACCEPTANCE 7e PASS: orthogonality {orth:.2e}, relation {rel:.2e}")

    @_timed("gk-exactness")
    def test_gk_polynomial_exactness(self):
        xg = 0.5 * (GK15_NODES[1::2] + 1.0)
        xk = 0.5 * (GK15_NODES + 1.0)
        for deg in range(14):
            assert abs(0.5 * float(G7_WEIGHTS @ xg**deg) - 1 / (deg + 1)) <= 1e-13
        for deg in range(23):
            assert abs(0.5 * float(GK15_WEIGHTS @ xk**deg) - 1 / (deg + 1)) <= 1e-13
        print("\nACCEPTANCE 7f PASS: G7 exact to degree 13, K15 to degree 22")

    def test_property_suite_budget(self):
        total = sum(_timings.values())
        assert len(_timings) == 6
        assert total < 30.0
        print(f"\nACCEPTANCE 7 PASS: property suite in {total:.1f}s (< 30s)")
