#!/usr/bin/env python3
"""Print a digest of the library's outputs on a fixed set of cases.

A change that must not alter any result is checked by running this script
against the library sources of both trees and comparing the output:

    PYTHONPATH=src python3 scripts/same_outputs.py > change.txt
    PYTHONPATH=<parent checkout>/src python3 scripts/same_outputs.py > parent.txt
    diff parent.txt change.txt

Each line holds a case name, the matvec count, the stop reason (or the
repr of the exception the case raised) and the sha256 digests of the
case's arrays, so equal lines mean bit-identical outputs. BLAS runs on one
thread, since a threaded BLAS may sum in another order. A dense matrix
enters as ``LinearOperator.from_matrix(SparseMatrix(a))``, the form that
trees whose ``from_matrix`` takes only a ``SparseMatrix`` accept too. The
cases:

- the ten one-cycle-chain problems: five transforms on laplacian_nd(20, 2)
  at m = 10 and on convection_diffusion_nd(15, 1e-3, 2) at m = 8, update-norm
  stopping at tol 1e-7 (x and the per-cycle update norms);
- three start vectors each of the two benchmark matrices, reference-error
  stopping against ``reference_apply`` (x and the reference);
- ``reference_apply`` for exp(-sqrt(A)) on the graph Laplacian of a random
  2000-node graph, where F(T_k) e_1 never settles and Lanczos runs its
  400 steps (the reference);
- ``transform_value`` of every catalog kernel at s = 0.5, 1, 4;
- two quadrature rules (nodes, weights, values and interval errors);
- two-pass Lanczos for s^{-3/2} on laplacian_nd(20, 2), on a complex
  Hermitian positive definite matrix from a real b, and on diag(1, 4, 9)
  from e_1, where pass 1 breaks down at step 1, and on laplacian_nd(20, 2)
  stopped by its true error against the dense ``reference_apply`` (f and
  the checkpoint errors);
- ``cg_solve`` on laplacian_nd(20, 3) and ``gmres_solve`` (restart 8) on
  convection_diffusion_nd(15, 1e-3, 2), seed-0 start, rtol 1e-9 (x);
- ``stieltjes_pipeline`` for s^{-3/2} on laplacian_nd(20, 2): CG at rtol
  1e-9, then the inv-sqrt-stieltjes restart at m = 10 with update-norm
  stopping (x and the per-cycle update norms; the matvecs of both phases).
  The call passes ``power=-1`` only to a tree whose pipeline still takes it.
"""

import os

# BLAS reads its thread count once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import inspect
import sys

import numpy as np

import laplace_krylov
from laplace_krylov.baselines import (
    cg_solve,
    gmres_solve,
    reference_apply,
    stieltjes_pipeline,
    two_pass_lanczos,
)
from laplace_krylov.cli import _random_connected_graph
from laplace_krylov.operators import (
    LinearOperator,
    SparseMatrix,
    convection_diffusion_nd,
    graph_laplacian,
    laplacian_nd,
)
from laplace_krylov.quadrature import build_laplace_rule
from laplace_krylov.restart import (
    RestartConfig,
    builtin_kernels,
    restarted_laplace,
    transform_value,
)

TOL = 1e-7
CHAIN_KINDS = ["power-neg-3-2", "exp-sqrt", "gamma", "sqrt", "inv-sqrt-stieltjes"]


def digest(a) -> str:
    """sha256 of an array's float64 bytes (complex128 for a complex array)."""
    a = np.ascontiguousarray(a, dtype=complex if np.iscomplexobj(a) else float)
    return hashlib.sha256(a.tobytes()).hexdigest()


def unit_starts(n: int, count: int) -> list:
    """``count`` seed-0 standard normal vectors, each normalized."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        b = rng.standard_normal(n)
        out.append(b / np.linalg.norm(b))
    return out


def solve(mat, m: int, fn, b, reference=None):
    """restarted_laplace at tol TOL: (matvecs, reason, arrays)."""
    stopping = "update_norm" if reference is None else "reference_error"
    x, rep = restarted_laplace(LinearOperator.from_matrix(mat), b, fn,
                               RestartConfig(m=m, tol=TOL, stopping=stopping),
                               reference=reference)
    tail = [r.update_norm for r in rep.records] if reference is None else reference
    return rep.matvecs, rep.reason, [x, tail]


def two_pass(op, b, fn, m: int, reference=None):
    """two_pass_lanczos at tol TOL, checked every m steps: (matvecs, reason, arrays)."""
    f, rep = two_pass_lanczos(op, b, fn, TOL, m, reference=reference)
    reason = "converged" if rep.converged else "unconverged"
    return rep.matvecs, reason, [f, [rel for _, rel in rep.checkpoints]]


def complex_hpd():
    """30 x 30 complex Hermitian positive definite matrix and a real b."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = x @ x.conj().T / 30 + np.eye(30)
    return (a + a.conj().T) / 2, rng.standard_normal(30)   # exactly Hermitian


def linear_solve(solver, mat, *args):
    """A linear solver from the seed-0 start at rtol 1e-9: (iterations, "-", [x])."""
    x, iters = solver(LinearOperator.from_matrix(mat), unit_starts(mat.n, 1)[0], 1e-9, *args)
    return iters, "-", [x]


def cases():
    """(name, thunk) pairs; a thunk returns (matvecs, reason, arrays)."""
    kernels = builtin_kernels()
    for label, mat, m in (("lap2d-N20-m10", laplacian_nd(20, 2), 10),
                          ("cd2d-N15-m8", convection_diffusion_nd(15, 1e-3, 2), 8)):
        b = unit_starts(mat.n, 1)[0]
        for kind in CHAIN_KINDS:
            fn = kernels[kind]
            yield f"{kind}/{label}", lambda mat=mat, m=m, fn=fn, b=b: solve(mat, m, fn, b)
    for label, mat, m in (("lap3d-N20-m50", laplacian_nd(20, 3), 50),
                          ("cd3d-N20-m20", convection_diffusion_nd(20, 1e-3, 3), 20)):
        for j, b in enumerate(unit_starts(mat.n, 3)):
            def run(mat=mat, m=m, b=b, fn=kernels["power-neg-3-2"]):
                ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn)
                return solve(mat, m, fn, b, reference=ref)
            yield f"reference/{label}/start{j}", run
    graph = graph_laplacian(_random_connected_graph(2000, np.random.default_rng(0)))

    def graph_reference(fn=kernels["exp-sqrt"]):
        op = LinearOperator.from_matrix(graph)
        ref = reference_apply(op, None, unit_starts(graph.n, 1)[0], fn)
        return op.matvec_count, "-", [ref]
    yield "reference/graph-N2000-exp-sqrt", graph_reference
    for name, kernel in kernels.items():
        for s in (0.5, 1.0, 4.0):
            yield f"transform/{name}/s={s}", lambda k=kernel, s=s: ("-", "-", [transform_value(k, s)])
    truncated = {"t_max": 5.0, "one_minus": True}
    for label, kwargs in (("rule/sqrt", {}), ("rule/sqrt-tmax5-one_minus_exp", truncated)):
        def rule_case(kwargs=kwargs):
            rule = build_laplace_rule(np.sqrt, 0.7, 1e-10, **kwargs)
            return "-", "-", [rule.nodes, rule.weights, rule.values, rule.interval_errors]
        yield label, rule_case
    fn = kernels["power-neg-3-2"]
    lap2d = laplacian_nd(20, 2)
    yield "two-pass/lap2d-N20-m10", lambda: two_pass(
        LinearOperator.from_matrix(lap2d), unit_starts(lap2d.n, 1)[0], fn, 10)

    def two_pass_reference(b=unit_starts(lap2d.n, 1)[0]):
        ref = reference_apply(LinearOperator.from_matrix(lap2d), lap2d.toarray(), b, fn)
        return two_pass(LinearOperator.from_matrix(lap2d), b, fn, 10, reference=ref)
    yield "two-pass-reference/lap2d-N20-m10", two_pass_reference
    hpd, real_b = complex_hpd()
    yield "two-pass/complex-hpd-real-b", lambda: two_pass(
        LinearOperator.from_matrix(SparseMatrix(hpd)), real_b, fn, 5)
    yield "two-pass/diag-1-4-9-e1", lambda: two_pass(
        LinearOperator.from_matrix(SparseMatrix(np.diag([1.0, 4.0, 9.0]))), np.eye(3)[0], fn, 1)
    yield "cg/lap3d-N20", lambda: linear_solve(cg_solve, laplacian_nd(20, 3))
    yield "gmres/cd2d-N15-m8", lambda: linear_solve(
        gmres_solve, convection_diffusion_nd(15, 1e-3, 2), 8)

    def pipeline():
        power = {"power": -1} if "power" in inspect.signature(stieltjes_pipeline).parameters else {}
        x, rep, first = stieltjes_pipeline(
            LinearOperator.from_matrix(lap2d), unit_starts(lap2d.n, 1)[0],
            kernels["inv-sqrt-stieltjes"], cfg=RestartConfig(m=10, tol=TOL), **power)
        return first + rep.matvecs, rep.reason, [x, [r.update_norm for r in rep.records]]
    yield "stieltjes-pipeline/lap2d-N20-m10", pipeline


def line(name: str, thunk) -> str:
    """One output line: the case name, matvecs, reason and array digests."""
    try:
        matvecs, reason, arrays = thunk()
    except Exception as exc:   # the exception is the case's output
        return f"{name} - {exc!r}"
    return " ".join([name, str(matvecs), reason, *map(digest, arrays)])


def main() -> int:
    print(f"library: {laplace_krylov.__file__}", file=sys.stderr)
    for name, thunk in cases():
        print(line(name, thunk), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
