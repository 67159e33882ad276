#!/usr/bin/env python3
"""Print the per-cycle convergence trace for one benchmark problem.

Example: the convection-diffusion run with a restart length of 20,

    python3 scripts/convergence_curve.py --matrix cd3d --n 20 --m 20
"""

import argparse
import sys

import numpy as np

from laplace_krylov.baselines import REF_MAX_STEPS, reference_apply
from laplace_krylov.operators import LinearOperator, convection_diffusion_nd, laplacian_nd
from laplace_krylov.restart import RestartConfig, builtin_kernels, restarted_laplace


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--matrix", choices=["laplacian3d", "cd3d"], default="laplacian3d")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    if args.matrix == "laplacian3d":
        mat = laplacian_nd(args.n, 3)
    else:
        mat = convection_diffusion_nd(args.n, 1e-3, 3)
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(mat.n)
    b /= np.linalg.norm(b)

    fn = builtin_kernels()["power-neg-3-2"]
    cap = min(REF_MAX_STEPS, mat.n)
    how = ("two-pass Lanczos approximation, stopped once F(T_k) e_1 settles" if mat.symmetric
           else "unrestarted Arnoldi approximation, stopped once F(H_k) e_1 settles")
    print(f"reference: {how} (cap {cap} steps) ...")
    ref = reference_apply(LinearOperator.from_matrix(mat), None, b, fn)

    op = LinearOperator.from_matrix(mat)
    cfg = RestartConfig(m=args.m, tol=args.tol, stopping="reference_error",
                        max_cycles=100)
    _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
    print(f"{'cycle':>5} {'matvecs':>8} {'rel_error':>12} {'update':>12}")
    for r in rep.records:
        print(f"{r.cycle:>5} {r.matvecs:>8} {r.rel_error:>12.3e} {r.update_norm:>12.3e}")
    print(f"terminated: {rep.reason} ({rep.matvecs} matvecs)")
    return 0 if rep.converged else 2


if __name__ == "__main__":
    sys.exit(main())
