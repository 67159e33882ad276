"""The layer micro-benchmarks (microbench/) and the scripts (scripts/) sit
outside the test paths and import library names directly, so a change to the
library API breaks only them. These tests load the micro-benchmark module by
path and run each of its benchmarks once on small problems, run the
convergence script on a tiny grid and run one case of the same-outputs
script."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laplace_krylov.operators import convection_diffusion_nd, laplacian_nd
from laplace_krylov.restart import builtin_kernels

ROOT = Path(__file__).resolve().parent.parent
# a child process imports the library from this checkout
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_microbench_layers_run_on_small_problems(load_path):
    mb = load_path("microbench/test_layers.py")
    # n = 512: room for the m = 400 Arnoldi and reference benchmarks
    fixtures = {"lap3d": mb.first_cycle(laplacian_nd(8, 3), 50),
                "cd3d": mb.first_cycle(convection_diffusion_nd(8, 1e-3, 3), 20)}

    def benchmark(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    tests = {name: fn for name, fn in vars(mb).items() if name.startswith("test_")}
    assert len(tests) >= 10
    for fn in tests.values():
        _, *params = inspect.signature(fn).parameters
        fn(benchmark, *(fixtures[p] for p in params))


@pytest.mark.parametrize("matrix", ["laplacian3d", "cd3d"])
def test_convergence_curve_script(matrix):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_curve.py"),
         "--matrix", matrix, "--n", "6", "--m", "10"],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "terminated: reference_error" in out.stdout


def test_same_outputs_script_cases(load_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")   # restored after the script sets them
    so = load_path("scripts/same_outputs.py")
    cases = dict(so.cases())
    # ten chain problems, six reference runs, one graph reference, 6 x 3
    # transform values, two rules, three two-pass runs without a reference
    # and one against it, one CG and one GMRES solve, and one CG + Stieltjes
    # pipeline
    assert len(cases) == 44
    name, matvecs, reason, *digests = so.line("rule/sqrt", cases["rule/sqrt"]).split()
    assert (name, matvecs, reason) == ("rule/sqrt", "-", "-")
    assert len(digests) == 4 and all(len(d) == 64 for d in digests)

    b = so.unit_starts(36, 1)[0]
    fields = so.line("tiny", lambda: so.solve(laplacian_nd(6, 2), 5,
                                              builtin_kernels()["power-neg-3-2"], b)).split()
    assert fields[2] == "update_norm" and len(fields) == 5   # x and the update norms
    assert so.line("raises", lambda: 1 / 0) == "raises - ZeroDivisionError('division by zero')"


def test_package_import_leaves_out_scipy_interpolate():
    # scipy.interpolate loads ~200 modules of scipy.optimize and
    # scipy.spatial (~17 MB resident) that no program here needs
    out = subprocess.run(
        [sys.executable, "-c", "import sys, laplace_krylov, laplace_krylov.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"],
        capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
