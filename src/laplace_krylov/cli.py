"""Command-line front end: matrix generation, runs, benchmark sweeps.

Subcommands
    gen    write a benchmark matrix (or a graph Laplacian) in Matrix Market
    run    apply a transform function to a matrix, emit result + cycle CSV
    bench  reproduce a benchmark series as CSV rows

Vectors are NumPy ``.npy`` files holding one 1-D real array; results are
written as float64. Exit codes: 0 converged, 2 stopped unconverged
(max_cycles, non_finite for an overflowed iterate, growing_updates when an
update grew too much for the update-norm stop to hold, or quadrature_divergence
when a later cycle's quadrature diverged and the iterate before it is kept), 1 error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np
import scipy.sparse as sp

from . import baselines, operators, restart


def write_vector(path: str, vec: np.ndarray) -> None:
    # through an open file: np.save appends .npy to a bare path
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(vec, dtype=np.float64))


def read_vector(path: str) -> np.ndarray:
    try:
        vec = np.load(path, allow_pickle=False)
    except (EOFError, ValueError) as exc:   # pickled, truncated or empty
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(vec, np.ndarray) or vec.ndim != 1 or vec.dtype.kind not in "iuf":
        raise ValueError(f"{path}: not a 1-D real .npy vector")
    return vec.astype(np.float64)


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
        return operators.SparseMatrix(np.diag(vals))
    return operators.read_matrix_market(spec)


def _starting_vector(n: int, seed: int | None = None, b_file: str | None = None) -> np.ndarray:
    if b_file:
        b = read_vector(b_file)
        if b.size != n:
            raise SystemExit(f"--b-file has length {b.size}, expected {n}")
        return b
    if seed is not None:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        return b / np.linalg.norm(b)
    return np.ones(n) / np.sqrt(n)


def _graph_laplacian_of_input(args) -> operators.SparseMatrix:
    if not args.input:
        raise SystemExit("gen --kind graph needs --input")
    mat = operators.read_matrix_market(args.input)
    # the stored pattern, explicit zeros included, read as undirected edges
    coo = mat.to_scipy().tocoo()
    adj = operators.adjacency(mat.n, np.column_stack([coo.row, coo.col]))
    return operators.graph_laplacian(operators.largest_connected_component(adj) if args.lcc else adj)


# kind -> matrix from the parsed gen arguments
GEN_KINDS = {
    "laplacian1d": lambda a: operators.laplacian_nd(a.n, 1),
    "laplacian2d": lambda a: operators.laplacian_nd(a.n, 2),
    "laplacian3d": lambda a: operators.laplacian_nd(a.n, 3),
    "cd2d": lambda a: operators.convection_diffusion_nd(a.n, a.eps, 2),
    "cd3d": lambda a: operators.convection_diffusion_nd(a.n, a.eps, 3),
    "graph": _graph_laplacian_of_input,
}


def cmd_gen(args) -> int:
    mat = GEN_KINDS[args.kind](args)
    operators.write_matrix_market(mat, args.output)
    print(f"wrote {args.output}: n={mat.n} nnz={mat.nnz}")
    return 0


def cmd_run(args) -> int:
    if args.method == "two-pass" and args.csv:
        raise ValueError("--csv needs the restart method: two-pass Lanczos records no cycles")
    mat = _load_matrix(args.matrix)
    op = operators.LinearOperator.from_matrix(mat)
    fn = _parse_function(args.function)
    b = _starting_vector(op.n, args.seed, args.b_file)
    reference = read_vector(args.reference) if args.reference else None
    cfg = restart.RestartConfig(
        m=args.m, tol=args.tol, max_cycles=args.max_cycles,
        stopping="reference_error" if reference is not None else "update_norm",
    )
    if args.method == "two-pass":
        x, rep = baselines.two_pass_lanczos(op, b, fn, cfg.tol, cfg.m, reference=reference,
                                            max_steps=min(op.n, 1000, cfg.max_cycles * cfg.m))
    else:
        x, rep = restart.restarted_laplace(op, b, fn, cfg, reference=reference)
    status = "converged" if rep.converged else getattr(rep, "reason", "max_cycles")
    if args.output:
        write_vector(args.output, np.real(x))
    if args.csv:
        write_report_csv(args.csv, rep.records)
    print(f"method={args.method} function={fn.name} n={op.n} matvecs={rep.matvecs} "
          f"status={status}")
    if status != "converged":
        return 2
    return 0


# ---------------------------------------------------------------------------
# benchmark sweeps
# ---------------------------------------------------------------------------

def _random_connected_graph(n: int, rng) -> sp.csr_matrix:
    """Random tree plus extra edges: connected, about 3 edges per node."""
    parents = np.array([rng.integers(0, i) for i in range(1, n)])
    tree = np.column_stack([parents, np.arange(1, n)])
    extra = rng.integers(0, n, size=(2 * n, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    return operators.adjacency(n, np.vstack([tree, extra]))


# experiment -> (kernel, matrix from (N, seed), whether a dense reference is allowed)
EXPERIMENTS = {
    "s32": ("power-neg-3-2", lambda n, seed: operators.laplacian_nd(n, 3), False),
    "gamma": ("gamma", lambda n, seed: operators.laplacian_nd(n, 2), True),
    "sqrt": ("sqrt", lambda n, seed: operators.laplacian_nd(n, 3), False),
    "fracdiff": ("exp-sqrt", lambda n, seed: operators.graph_laplacian(_random_connected_graph(
        n, np.random.default_rng(0 if seed is None else seed))), True),
}


def _bench_point(experiment: str, n_size: int, m: int, tol: float, seed):
    """One benchmark matrix size: returns rows (method, N, matvecs, ...).

    Every experiment runs the restart; s32 adds the CG + Stieltjes pipeline
    and the two-pass Lanczos comparator on the same start vector. Every row
    measures its error against the one reference F(A)b of the size.
    """
    kernel, build, dense_ok = EXPERIMENTS[experiment]
    kernels = restart.builtin_kernels()
    mat = build(n_size, seed)
    dense = mat.toarray() if dense_ok and mat.n <= 1000 else None
    rows = []

    def operator():
        return operators.LinearOperator.from_matrix(mat)

    def add_row(method, matvecs, final_error, t0, first_phase=0):
        rows.append({
            "method": method, "N": n_size, "matvecs": matvecs,
            "final_error": final_error,
            "wall_ms": 1e3 * (time.perf_counter() - t0),
            "first_phase_fraction": first_phase / matvecs if first_phase else 0.0,
        })

    fn = kernels[kernel]
    b = _starting_vector(mat.n, seed)
    ref = baselines.reference_apply(operator(), dense, b, fn)
    cfg = restart.RestartConfig(m=m, tol=tol, stopping="reference_error")
    t0 = time.perf_counter()
    _, rep = restart.restarted_laplace(operator(), b, fn, cfg, reference=ref)
    add_row("laplace", rep.matvecs, rep.records[-1].rel_error, t0)
    if experiment == "s32":
        t0 = time.perf_counter()   # the row's wall time includes CG
        _, rep, first = baselines.stieltjes_pipeline(
            operator(), b, kernels["inv-sqrt-stieltjes"], cfg, reference=ref)
        add_row("stieltjes", first + rep.matvecs, rep.records[-1].rel_error, t0, first)
        t0 = time.perf_counter()
        _, rep = baselines.two_pass_lanczos(operator(), b, fn, tol, m, reference=ref)
        add_row("two-pass", rep.matvecs, rep.final_error, t0)
    return rows


def cmd_bench(args) -> int:
    rows = [row for n in args.sizes.split(",")
            for row in _bench_point(args.experiment, int(n), args.m, args.tol, args.seed)]
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
    g.add_argument("--kind", required=True, choices=list(GEN_KINDS))
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
    r.add_argument("--reference", help=".npy file with the reference vector")
    r.add_argument("--b-file", help=".npy file with the start vector")
    r.add_argument("--seed", type=int, help="random unit start vector")
    r.add_argument("--output", "-o", help="write the result vector (.npy)")
    r.add_argument("--csv", help="write the per-cycle report CSV")
    r.set_defaults(func=cmd_run)

    bn = sub.add_parser("bench", help="reproduce a benchmark series")
    bn.add_argument("--experiment", required=True,
                    choices=list(EXPERIMENTS))
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
