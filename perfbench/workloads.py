"""Workload definitions, set-up and the oracles the benchmark checks against.

Every solve follows the paper's protocol: kernel s^{-3/2}, reference-error
stopping at tol = 1e-7. The library is imported from ``src/`` of the
checkout this file sits in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft
import scipy.linalg as la

from laplace_krylov import baselines, operators, restart

TOL = 1e-7
# an oracle has to be far more accurate than the solves checked against it
REF_TOL = 1e-3 * TOL
KERNEL = "power-neg-3-2"
POWER = -1.5           # F(s) = s^POWER, for the Krylov oracle
# Start vectors drawn from one seed and solved in turn. The cycle count
# depends on b (lap2d 340-400 matvecs, cd3d 100-160 with per-solve times
# 0.6-1.2 s), so with one b per run the seed, not the code, would set the
# run-to-run spread.
STARTS = 8
ORACLE_STEPS = 200   # agrees with the 400-step library reference to ~5e-14


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], operators.SparseMatrix]
    m: int
    grid: tuple[int, int] | None   # (N, d) of a Dirichlet Laplacian, for the closed form
    setups: int                    # timed library set-ups; setup_s is their median
    matvecs_seed0: int             # count of the first start vector at seed 0


# On n = 8000 each set-up costs a 10 s 400-step library reference.
# lap2d-s32-m10 is kept for per-layer runs of the quadrature and spline
# chain but is not a BENCHMARK.json workload: the time limit for all runs
# fits only two workloads at the 30 s loops a steady tail needs on a shared
# 2-core host (see README.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("lap3d-s32-m50", lambda: operators.laplacian_nd(20, 3),
                 m=50, grid=(20, 3), setups=2, matvecs_seed0=100),
        Workload("cd3d-s32-m20", lambda: operators.convection_diffusion_nd(20, 1e-3, 3),
                 m=20, grid=None, setups=2, matvecs_seed0=120),
        Workload("lap2d-s32-m10", lambda: operators.laplacian_nd(30, 2),
                 m=10, grid=(30, 2), setups=3, matvecs_seed0=380),
    )
}


def dirichlet_closed_form(grid: tuple[int, int], b: np.ndarray, scalar_form) -> np.ndarray:
    """F(A) b for the unscaled Dirichlet Laplacian on an N^d grid.

    A is the Kronecker sum of tridiag(-1, 2, -1), whose eigenvectors are the
    type-1 DST basis with eigenvalues 4 sin^2(k pi / (2(N+1))), k = 1..N.
    """
    n1, d = grid
    lam1 = 4.0 * np.sin(np.arange(1, n1 + 1) * math.pi / (2 * (n1 + 1))) ** 2
    lam = lam1
    for _ in range(d - 1):
        lam = np.add.outer(lam, lam1)
    coef = scipy.fft.dstn(b.reshape((n1,) * d), type=1, norm="ortho")
    return scipy.fft.idstn(scalar_form(lam) * coef, type=1, norm="ortho").ravel()


def krylov_oracle(mat: operators.SparseMatrix, b: np.ndarray) -> np.ndarray:
    """A^POWER b from an unrestarted ORACLE_STEPS-step Arnoldi run.

    Classical Gram-Schmidt applied twice on a row-major basis, and scipy's
    fractional_matrix_power on the projected matrix: independent of the
    library's Arnoldi and dense evaluation, for matrices without a closed form.
    """
    a = mat.to_scipy()
    steps = min(ORACLE_STEPS, mat.n)
    V = np.zeros((steps + 1, mat.n))
    H = np.zeros((steps + 1, steps))
    beta = np.linalg.norm(b)
    V[0] = b / beta
    for j in range(steps):
        w = a @ V[j]
        for _ in range(2):
            c = V[: j + 1] @ w
            w -= c @ V[: j + 1]
            H[: j + 1, j] += c
        H[j + 1, j] = np.linalg.norm(w)
        V[j + 1] = w / H[j + 1, j]
    y = la.fractional_matrix_power(H[:steps], POWER)[:, 0]
    return beta * (np.real(y) @ V[:steps])


def rel_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


@dataclass
class Start:
    b: np.ndarray
    oracle: np.ndarray          # the solve stops on it and is checked against it
    matvecs: int | None = None  # of the first solve; exact for a given b


@dataclass
class Prepared:
    workload: Workload
    fn: restart.TransformFunction
    mat: operators.SparseMatrix
    starts: list[Start]
    setup_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)    # failed checks


def solve(prep: Prepared, j: int, make_op=operators.LinearOperator.from_matrix):
    """One checked solve of start vector j: (ok, seconds, reason).

    A solve fails when it raises, does not converge, or misses the oracle by
    more than TOL. ``make_op`` wraps the matrix in a fresh LinearOperator.
    The start's matvec count is recorded on its first solve.
    """
    st = prep.starts[j]
    cfg = restart.RestartConfig(m=prep.workload.m, tol=TOL, stopping="reference_error")
    op = make_op(prep.mat)
    t0 = time.perf_counter()
    try:
        x, rep = restart.restarted_laplace(op, st.b, prep.fn, cfg, reference=st.oracle)
    except Exception as exc:  # counted as a failed solve; the loop goes on
        if st.matvecs is None:
            st.matvecs = op.matvec_count
        return False, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if st.matvecs is None:
        st.matvecs = rep.matvecs
    if not rep.converged:
        return False, dt, f"not converged ({rep.reason})"
    err = rel_error(x, st.oracle)
    if not (np.all(np.isfinite(x)) and err <= TOL):
        return False, dt, f"oracle missed by {err:.3e}"
    return True, dt, ""


def prepare(w: Workload, seed: int) -> Prepared:
    """Draw the start vectors and their oracles, then set the library up.

    Start vectors are seeded standard normals, normalized; the first is the
    acceptance suite's b. The oracle is the closed form on the Dirichlet
    Laplacians and :func:`krylov_oracle` elsewhere; computing it is the
    benchmark's own work and is not timed. Each timed set-up j builds the
    matrix, computes the library reference ``baselines.reference_apply`` for
    start j, checks it against the oracle and runs one warm-up solve outside
    the timed loop.
    """
    fn = restart.builtin_kernels()[KERNEL]
    mat = w.build()
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(STARTS):
        b = rng.standard_normal(mat.n)
        b /= np.linalg.norm(b)
        oracle = (dirichlet_closed_form(w.grid, b, fn.scalar_form) if w.grid is not None
                  else krylov_oracle(mat, b))
        starts.append(Start(b=b, oracle=oracle))
    prep = Prepared(workload=w, fn=fn, mat=mat, starts=starts)
    for j in range(w.setups):
        t0 = time.perf_counter()
        prep.mat = w.build()
        dense = prep.mat.toarray() if prep.mat.n <= 1000 else None
        ref = baselines.reference_apply(operators.LinearOperator.from_matrix(prep.mat), dense,
                                        starts[j].b, fn)
        err = rel_error(ref, starts[j].oracle)
        if not err <= REF_TOL:
            prep.problems.append(f"library reference for start {j} misses the oracle by {err:.3e}")
        ok, _, reason = solve(prep, j)
        if not ok:
            prep.problems.append(f"warm-up solve of start {j} failed: {reason}")
        prep.setup_s.append(time.perf_counter() - t0)
    return prep
