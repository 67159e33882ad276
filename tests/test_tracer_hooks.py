"""The benchmark tracer (perfbench/tracer.py) hooks library functions by
attribute name. A renamed or deleted name breaks only traced benchmark runs,
so these tests load the tracer by path and check every hook."""

import numpy as np

from laplace_krylov.operators import LinearOperator, laplacian_nd
from laplace_krylov.restart import RestartConfig, builtin_kernels


def test_install_and_remove_restore_every_hook(load_perfbench):
    tracer = load_perfbench("tracer")
    hooks = [(module, attr) for module, attr, *_ in tracer.SPAN_HOOKS + tracer.COUNT_HOOKS]
    originals = [getattr(module, attr) for module, attr in hooks]
    t = tracer.Tracer()
    try:
        t.install()
        assert all(getattr(module, attr) is not orig
                   for (module, attr), orig in zip(hooks, originals))
    finally:
        t.remove()
    assert all(getattr(module, attr) is orig
               for (module, attr), orig in zip(hooks, originals))


def test_traced_solve_records_the_spline_chain(load_perfbench):
    # m=4 on a 2D Laplacian runs past cycle 2, where the spline surface starts
    tracer = load_perfbench("tracer")
    mat = laplacian_nd(10, 2)
    b = np.random.default_rng(0).standard_normal(mat.n)
    t = tracer.Tracer()
    try:
        t.install()
        t.solve = 0
        tracer.restart.restarted_laplace(LinearOperator.from_matrix(mat), b,
                                         builtin_kernels()["power-neg-3-2"],
                                         RestartConfig(m=4, tol=1e-7))
    finally:
        t.remove()
    stats = t.solve_stats()[0]
    assert stats["spline.spline_fit"]["calls"] > 0
    assert stats["krylov.arnoldi"]["calls"] >= 3


def test_traced_hermitian_solve_decomposes_once_per_cycle(load_perfbench):
    # the anchor of cycle 1 comes from the cycle's own eigendecomposition
    tracer = load_perfbench("tracer")
    mat = laplacian_nd(10, 2)
    b = np.random.default_rng(0).standard_normal(mat.n)
    t = tracer.Tracer()
    try:
        t.install()
        t.solve = 0
        _, rep = tracer.restart.restarted_laplace(LinearOperator.from_matrix(mat), b,
                                                  builtin_kernels()["power-neg-3-2"],
                                                  RestartConfig(m=4, tol=1e-7))
    finally:
        t.remove()
    assert rep.cycles >= 3
    assert t.solve_stats()[0]["smallmat.eig_hermitian"]["calls"] == rep.cycles
