"""Layer micro-benchmarks (pytest-benchmark); not part of the test suite.

    PYTHONPATH=src python -m pytest microbench --benchmark-only

The inputs are those of the first cycle of F(s) = s^{-3/2} on the benchmark
problems at N = 20 (n = 8000): the convection-diffusion operator with m = 20
(non-Hermitian H; the propagator is timed in closed form from the general
eigendecomposition and on the stacked scipy expm it falls back to) and the
3D Laplacian with m = 50 (Hermitian H, closed form from the unitary
eigendecomposition), where Arnoldi is timed both buffer-less, which runs
CGS2 as for any operator, and as a restart cycle, the Lanczos mode kept
semi-orthogonal by partial reorthogonalization.
Each rule is frozen once at eps_q = 1e-10, the default for tol = 1e-7.
The error kernel of a later cycle is timed on that rule, with a spline
surface on its nodes, as cycle 3 evaluates it.
Arnoldi is also timed at m = 400, the cap of the unrestarted non-Hermitian
reference, which stops once F(H_k) e_1 has settled on checkpoints after
gaps of max(5, k // 8) steps (78 steps here) and is timed as a whole; so is
the Hermitian reference, two-pass Lanczos capped at 400 steps, which stops
once F(T_k) e_1 has settled on checkpoints 25 steps apart (175 steps here).
"""

import numpy as np
import pytest

from laplace_krylov.baselines import reference_apply
from laplace_krylov.krylov import arnoldi
from laplace_krylov.operators import LinearOperator, convection_diffusion_nd, laplacian_nd
from laplace_krylov.quadrature import apply_rule_matrix, build_laplace_rule
from laplace_krylov.restart import ErrorModel, builtin_kernels, error_function_values, spline_fit
from laplace_krylov.smallmat import eig_general, eig_hermitian, expm_columns

KERNEL = builtin_kernels()["power-neg-3-2"].kernel
EPS_Q = 1e-10


def first_cycle(mat, m):
    op = LinearOperator.from_matrix(mat)
    b = np.random.default_rng(0).standard_normal(op.n)
    dec = arnoldi(op, b, m)
    # the cache and anchor as a restart cycle takes them
    cache = (eig_hermitian if op.hermitian else eig_general)(dec.H)
    rule = build_laplace_rule(KERNEL, anchor(cache), EPS_Q)
    return dec.H, np.eye(m)[:, 0], rule, cache, op, b


def anchor(cache):
    return float(cache.D.real.min())


@pytest.fixture(scope="module")
def cd3d():
    return first_cycle(convection_diffusion_nd(20, 1e-3, 3), 20)


@pytest.fixture(scope="module")
def lap3d():
    return first_cycle(laplacian_nd(20, 3), 50)


def test_arnoldi_hermitian(benchmark, lap3d):
    *_, op, b = lap3d
    dec = benchmark(arnoldi, op, b, 50)
    assert dec.H.shape == (50, 50)


def test_arnoldi_hermitian_semi(benchmark, lap3d):
    *_, op, b = lap3d
    dec = benchmark(arnoldi, op, b, 50, _basis=np.empty((51, op.n)))
    assert dec.H.shape == (50, 50)


def test_arnoldi_hermitian_m400(benchmark, lap3d):
    *_, op, b = lap3d
    dec = benchmark(arnoldi, op, b, 400)
    assert dec.m == 400


def test_reference_hermitian_m400(benchmark, lap3d):
    *_, op, b = lap3d
    fn = builtin_kernels()["power-neg-3-2"]

    def reference():
        counted = LinearOperator(op.apply, op.n, hermitian=True)
        return reference_apply(counted, None, b, fn), counted.matvec_count

    ref, matvecs = benchmark(reference)
    assert np.all(np.isfinite(ref))
    assert matvecs < 2 * 400


def test_reference_non_hermitian(benchmark, cd3d):
    *_, op, b = cd3d
    fn = builtin_kernels()["power-neg-3-2"]

    def reference():
        counted = LinearOperator(op.apply, op.n)
        return reference_apply(counted, None, b, fn), counted.matvec_count

    ref, matvecs = benchmark(reference)
    assert np.all(np.isfinite(ref))
    assert matvecs <= 90   # 78 at N = 20


def test_arnoldi_non_hermitian_m400(benchmark, cd3d):
    *_, op, b = cd3d
    dec = benchmark(arnoldi, op, b, 400)
    assert dec.m == 400


def test_build_laplace_rule_non_hermitian(benchmark, cd3d):
    _, _, _, cache, *_ = cd3d
    rule = benchmark(build_laplace_rule, KERNEL, anchor(cache), EPS_Q)
    assert rule.count > 0


def test_spline_fit_rule_nodes(benchmark, cd3d):
    _, _, rule, *_ = cd3d
    surface = benchmark(spline_fit, rule.nodes, KERNEL(rule.nodes))
    assert np.all(np.isfinite(surface(rule.nodes)))


def test_error_function_values_spline(benchmark, cd3d):
    # a cycle-3 error kernel: the spline surface on the previous rule's
    # nodes, its g from that rule's propagator columns, evaluated at every node
    H, e1, rule, cache, *_ = cd3d
    model = ErrorModel(rule=rule, g_values=expm_columns(H, e1, rule.nodes, cache)[-1],
                       surface=spline_fit(rule.nodes, KERNEL(rule.nodes)))
    vals = benchmark(error_function_values, model, rule.nodes)
    assert np.all(np.isfinite(vals))


def test_eig_general(benchmark, cd3d):
    H, *_ = cd3d
    cache = benchmark(eig_general, H)
    assert cache.X is not None


def test_propagator_non_hermitian(benchmark, cd3d):
    H, e1, rule, cache, *_ = cd3d
    assert cache.X is not None   # the closed form, as every cd3d cycle takes it
    E = benchmark(expm_columns, H, e1, rule.nodes, cache)
    assert E.shape == (20, rule.count)


def test_propagator_non_hermitian_fallback(benchmark, cd3d):
    H, e1, rule, *_ = cd3d
    E = benchmark(expm_columns, H, e1, rule.nodes)
    assert E.shape == (20, rule.count)


def test_propagator_one_minus_non_hermitian(benchmark, cd3d):
    H, e1, rule, cache, *_ = cd3d
    E = benchmark(expm_columns, H, e1, rule.nodes, cache, one_minus=True)
    assert E.shape == (20, rule.count)


def test_propagator_one_minus_non_hermitian_fallback(benchmark, cd3d):
    H, e1, rule, *_ = cd3d
    E = benchmark(expm_columns, H, e1, rule.nodes, one_minus=True)
    assert E.shape == (20, rule.count)


def test_apply_rule_matrix_non_hermitian(benchmark, cd3d):
    H, e1, rule, cache, *_ = cd3d
    E = expm_columns(H, e1, rule.nodes, cache)
    y = benchmark(apply_rule_matrix, rule, KERNEL(rule.nodes), E)
    assert np.all(np.isfinite(y))


def test_apply_rule_matrix_hermitian(benchmark, lap3d):
    H, e1, rule, cache, *_ = lap3d
    E = expm_columns(H, e1, rule.nodes, cache)
    y = benchmark(apply_rule_matrix, rule, KERNEL(rule.nodes), E)
    assert np.all(np.isfinite(y))
