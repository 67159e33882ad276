"""Command-line front end: matrix generation, runs, benchmark sweeps.

Subcommands
    gen    write a benchmark matrix (or a graph Laplacian) in Matrix Market
    run    apply a transform function to a matrix, emit result + cycle CSV
    bench  reproduce a benchmark series as CSV rows

Result vectors use a small binary format: 16-byte header (magic ``LKV1``,
4 reserved zero bytes, little-endian u64 length), then float64
little-endian payload. Exit codes: 0 converged, 2 stopped unconverged
(max_cycles, or non_finite for an overflowed iterate), 1 error.
LKV_THREADS caps benchmark-sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import os
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines, operators, restart

MAGIC = b"LKV1"


def write_vector(path: str, vec: np.ndarray) -> None:
    vec = np.asarray(vec, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(b"\x00" * 4)
        fh.write(struct.pack("<Q", vec.size))
        fh.write(vec.astype("<f8").tobytes())


def read_vector(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not an LKV1 vector file")
        (count,) = struct.unpack("<Q", head[8:16])
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if data.size != count:
            raise ValueError(f"{path}: truncated payload")
    return data.astype(np.float64)


def write_report_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "matvecs", "update_norm", "iterate_norm",
                    "rel_error", "wall_ms"])
        for r in records:
            w.writerow([r.cycle, r.matvecs, f"{r.update_norm:.17g}",
                        f"{r.iterate_norm:.17g}", f"{r.rel_error:.17g}",
                        f"{r.wall_ms:.3f}"])


def _parse_function(spec: str):
    name, _, arg = spec.partition(":")
    tau = float(arg) if arg else 1.0
    kernels = restart.builtin_kernels(tau=tau)
    if name not in kernels:
        raise SystemExit(f"unknown function {name!r}; choose from {sorted(kernels)}")
    return kernels[name]


def _load_matrix(spec: str) -> operators.SparseMatrix:
    if spec.startswith("diag:"):
        vals = np.array([float(v) for v in spec[5:].split(",")])
        return operators.SparseMatrix.from_dense(np.diag(vals))
    return operators.read_matrix_market(spec)


def _starting_vector(n: int, args) -> np.ndarray:
    if getattr(args, "b_file", None):
        b = read_vector(args.b_file)
        if b.size != n:
            raise SystemExit(f"--b-file has length {b.size}, expected {n}")
        return b
    if getattr(args, "seed", None) is not None:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(n)
        return b / np.linalg.norm(b)
    return np.ones(n) / np.sqrt(n)


def cmd_gen(args) -> int:
    if args.kind == "laplacian1d":
        mat = operators.laplacian_nd(args.n, 1)
    elif args.kind == "laplacian2d":
        mat = operators.laplacian_nd(args.n, 2)
    elif args.kind == "laplacian3d":
        mat = operators.laplacian_nd(args.n, 3)
    elif args.kind == "cd2d":
        mat = operators.convection_diffusion_nd(args.n, args.eps, 2)
    elif args.kind == "cd3d":
        mat = operators.convection_diffusion_nd(args.n, args.eps, 3)
    elif args.kind == "graph":
        if not args.input:
            raise SystemExit("gen --kind graph needs --input")
        g = operators.graph_from_matrix(operators.read_matrix_market(args.input))
        if args.lcc:
            g = operators.largest_connected_component(g)
        mat = operators.graph_laplacian(g)
    else:
        raise SystemExit(f"unknown kind {args.kind!r}")
    operators.write_matrix_market(mat, args.output)
    print(f"wrote {args.output}: n={mat.n} nnz={mat.nnz}")
    return 0


def cmd_run(args) -> int:
    mat = _load_matrix(args.matrix)
    op = operators.LinearOperator.from_matrix(mat)
    fn = _parse_function(args.function)
    b = _starting_vector(op.n, args)
    reference = read_vector(args.reference) if args.reference else None
    cfg = restart.RestartConfig(
        m=args.m, tol=args.tol, max_cycles=args.max_cycles,
        stopping="reference_error" if reference is not None else "update_norm",
    )
    if args.method == "two-pass":
        x, rep = baselines.two_pass_lanczos(op, b, fn, cfg.tol, cfg.m,
                                            reference=reference)
    else:
        x, rep = restart.restarted_laplace(op, b, fn, cfg, reference=reference)
    status = "converged" if rep.converged else getattr(rep, "reason", "max_cycles")
    if args.output:
        write_vector(args.output, np.real(x))
    if args.csv:
        records = getattr(rep, "records", None)
        if records is not None:
            write_report_csv(args.csv, records)
    print(f"method={args.method} function={fn.name} n={op.n} matvecs={rep.matvecs} "
          f"status={status}")
    if status != "converged":
        return 2
    return 0


# ---------------------------------------------------------------------------
# benchmark sweeps
# ---------------------------------------------------------------------------

def _bench_point(experiment: str, n_size: int, m: int, tol: float, seed):
    """One benchmark matrix size: returns rows (method, N, matvecs, ...)."""
    kernels = restart.builtin_kernels()
    rows = []

    def b_for(n):
        if seed is None:
            return np.ones(n) / np.sqrt(n)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        return b / np.linalg.norm(b)

    def run(tag, op, fn, b, reference, first_phase=0):
        cfg = restart.RestartConfig(m=m, tol=tol, stopping="reference_error")
        t0 = time.perf_counter()
        x, rep = restart.restarted_laplace(op, b, fn, cfg, reference=reference)
        wall = 1e3 * (time.perf_counter() - t0)
        total = rep.matvecs + first_phase
        frac = first_phase / total if first_phase else 0.0
        rows.append({
            "method": tag, "N": n_size, "matvecs": total,
            "final_error": rep.records[-1].rel_error,
            "wall_ms": wall, "first_phase_fraction": frac,
        })

    if experiment == "s32":
        fn = kernels["power-neg-3-2"]
        mat = operators.laplacian_nd(n_size, 3)
        b = b_for(mat.n)
        ref = baselines.reference_apply(
            operators.LinearOperator.from_matrix(mat), None, b, fn)
        op = operators.LinearOperator.from_matrix(mat)
        run("laplace", op, fn, b, ref)

        op = operators.LinearOperator.from_matrix(mat)
        c, first = baselines.cg_solve(op, b, 1e-9)
        g = kernels["inv-sqrt-stieltjes"]
        ref2 = baselines.reference_apply(
            operators.LinearOperator.from_matrix(mat), None, c, g)
        run("stieltjes", op, g, c, ref2, first_phase=first)

        op = operators.LinearOperator.from_matrix(mat)
        t0 = time.perf_counter()
        x, rep2p = baselines.two_pass_lanczos(op, b, fn, tol, m, reference=ref)
        rows.append({
            "method": "two-pass", "N": n_size, "matvecs": rep2p.matvecs,
            "final_error": rep2p.final_error,
            "wall_ms": 1e3 * (time.perf_counter() - t0),
            "first_phase_fraction": 0.0,
        })
    elif experiment == "gamma":
        fn = kernels["gamma"]
        mat = operators.laplacian_nd(n_size, 2)
        b = b_for(mat.n)
        dense = mat.toarray() if mat.n <= 1000 else None
        ref = baselines.reference_apply(
            operators.LinearOperator.from_matrix(mat), dense, b, fn)
        op = operators.LinearOperator.from_matrix(mat)
        run("laplace", op, fn, b, ref)
    elif experiment == "sqrt":
        fn = kernels["sqrt"]
        mat = operators.laplacian_nd(n_size, 3)
        b = b_for(mat.n)
        ref = baselines.reference_apply(
            operators.LinearOperator.from_matrix(mat), None, b, fn)
        op = operators.LinearOperator.from_matrix(mat)
        run("laplace", op, fn, b, ref)
    elif experiment == "fracdiff":
        fn = restart.builtin_kernels(tau=1.0)["exp-sqrt"]
        rng = np.random.default_rng(0 if seed is None else seed)
        g = _random_connected_graph(n_size, rng)
        mat = operators.graph_laplacian(g)
        b = b_for(mat.n)
        dense = mat.toarray() if mat.n <= 1000 else None
        ref = baselines.reference_apply(
            operators.LinearOperator.from_matrix(mat), dense, b, fn)
        op = operators.LinearOperator.from_matrix(mat)
        run("laplace", op, fn, b, ref)
    else:
        raise SystemExit(f"unknown experiment {experiment!r}")
    return rows


def _random_connected_graph(n: int, rng) -> operators.Graph:
    """Random tree plus extra edges: connected, about 3 edges per node."""
    parents = np.array([rng.integers(0, i) for i in range(1, n)])
    tree = np.column_stack([parents, np.arange(1, n)])
    extra = rng.integers(0, n, size=(2 * n, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    return operators.Graph(n, np.vstack([tree, extra]))


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    workers = int(os.environ.get("LKV_THREADS", "1"))
    rows = []
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_bench_point, args.experiment, n, args.m,
                                args.tol, args.seed) for n in sizes]
            for f in futs:
                rows.extend(f.result())
    else:
        for n in sizes:
            rows.extend(_bench_point(args.experiment, n, args.m, args.tol,
                                     args.seed))
    rows.sort(key=lambda r: (r["N"], r["method"]))
    out = args.output or f"bench_{args.experiment}.csv"
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["method", "N", "matvecs",
                                           "final_error", "wall_ms",
                                           "first_phase_fraction"])
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lkv", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark matrix")
    g.add_argument("--kind", required=True,
                   choices=["laplacian1d", "laplacian2d", "laplacian3d",
                            "cd2d", "cd3d", "graph"])
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--eps", type=float, default=1e-3)
    g.add_argument("--input", help="edge list (.mtx) for --kind graph")
    g.add_argument("--lcc", action="store_true",
                   help="restrict to the largest connected component")
    g.add_argument("--output", "-o", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="apply a transform function to a matrix")
    r.add_argument("--matrix", required=True,
                   help=".mtx path or diag:v1,v2,... inline matrix")
    r.add_argument("--function", required=True,
                   help="power-neg-3-2 | exp-sqrt:<tau> | gamma | sqrt | "
                        "inv-sqrt-stieltjes | exp-sqrt-shifted:<tau>")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--tol", type=float, default=1e-7)
    r.add_argument("--max-cycles", type=int, default=60)
    r.add_argument("--method", default="auto",
                   choices=["auto", "two-pass"])
    r.add_argument("--reference", help="LKV1 vector file with the reference")
    r.add_argument("--b-file", help="LKV1 vector file with the start vector")
    r.add_argument("--seed", type=int, help="random unit start vector")
    r.add_argument("--output", "-o", help="write the result vector (LKV1)")
    r.add_argument("--csv", help="write the per-cycle report CSV")
    r.set_defaults(func=cmd_run)

    bn = sub.add_parser("bench", help="reproduce a benchmark series")
    bn.add_argument("--experiment", required=True,
                    choices=["s32", "gamma", "sqrt", "fracdiff"])
    bn.add_argument("--sizes", required=True, help="comma-separated N values")
    bn.add_argument("--m", type=int, default=50)
    bn.add_argument("--tol", type=float, default=1e-7)
    bn.add_argument("--seed", type=int, help="random unit start vectors")
    bn.add_argument("--output", "-o")
    bn.set_defaults(func=cmd_bench)

    args = p.parse_args(argv)
    try:
        return args.func(args)
    except (restart.ConvergenceRegionError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
