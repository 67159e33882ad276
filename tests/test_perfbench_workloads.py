"""The benchmark (perfbench/workloads.py) builds its matrices and solves
through the library's matrix API. A change to that API breaks only benchmark
runs, so these tests load the workload module by path and set up two small
workloads the way the benchmark does."""

import pytest

from laplace_krylov import operators


@pytest.mark.parametrize("build, grid", [
    (lambda: operators.laplacian_nd(6, 3), (6, 3)),              # closed-form oracle
    (lambda: operators.convection_diffusion_nd(5, 1e-3, 3), None),  # krylov_oracle
], ids=["laplacian-closed-form", "convection-diffusion-krylov-oracle"])
def test_prepare_and_solve_small_workload(build, grid, load_perfbench):
    wl = load_perfbench("workloads")
    w = wl.Workload("small", build, m=10, grid=grid, setups=1, matvecs_seed0=0)
    prep = wl.prepare(w, seed=0)
    assert prep.problems == []
    ok, _, reason = wl.solve(prep, 0)
    assert ok, reason
