import csv
import math

import numpy as np
import pytest

from laplace_krylov import cli
from laplace_krylov.operators import read_matrix_market


class TestVectorFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "v.lkv"
        v = np.linspace(-1, 1, 17)
        cli.write_vector(p, v)
        assert np.array_equal(cli.read_vector(p), v)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "v.lkv"
        cli.write_vector(p, np.array([1.0, 2.0]))
        raw = p.read_bytes()
        assert raw[:4] == b"LKV1"
        assert len(raw) == 16 + 2 * 8
        assert int.from_bytes(raw[8:16], "little") == 2

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.lkv"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            cli.read_vector(p)


class TestGen:
    def test_laplacian3d_n20_dimension(self, tmp_path):
        out = tmp_path / "al.mtx"
        assert cli.main(["gen", "--kind", "laplacian3d", "--n", "20",
                         "-o", str(out)]) == 0
        mat = read_matrix_market(out)
        assert mat.n == 8000
        assert mat.nnz == 53600

    def test_cd3d_nnz_matches_stencil(self, tmp_path):
        out = tmp_path / "cd.mtx"
        assert cli.main(["gen", "--kind", "cd3d", "--n", "10", "--eps", "1e-3",
                         "-o", str(out)]) == 0
        mat = read_matrix_market(out)
        n = 10
        assert mat.n == n**3
        assert mat.nnz == n**3 + 6 * (n - 1) * n**2

    def test_graph_pipeline(self, tmp_path):
        edges = tmp_path / "edges.mtx"
        edges.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                         "5 5 3\n2 1\n3 2\n5 4\n")
        out = tmp_path / "lap.mtx"
        assert cli.main(["gen", "--kind", "graph", "--input", str(edges),
                         "--lcc", "-o", str(out)]) == 0
        mat = read_matrix_market(out)
        assert mat.n == 3  # the path component beats the single edge
        ones = np.ones(3)
        assert np.abs(mat.matvec(ones)).max() <= 1e-12


class TestRun:
    def test_diag_smoke_laplace(self, tmp_path, capsys):
        out = tmp_path / "x.lkv"
        rep = tmp_path / "r.csv"
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "2",
                         "--tol", "1e-7", "-o", str(out), "--csv", str(rep)])
        assert code == 0
        x = cli.read_vector(out)
        exact = np.array([1.0, 2.0, 3.0]) ** -1.5 / math.sqrt(3.0)
        assert np.abs(x - exact).max() <= 1e-6
        with open(rep) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["cycle", "matvecs", "update_norm",
                                        "iterate_norm", "rel_error", "wall_ms"]
        assert int(rows[-1]["matvecs"]) == 2 * len(rows)

    def test_reference_mode(self, tmp_path):
        ref = tmp_path / "ref.lkv"
        exact = np.array([1.0, 2.0, 3.0]) ** -1.5 / math.sqrt(3.0)
        cli.write_vector(ref, exact)
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "2",
                         "--tol", "1e-6", "--reference", str(ref)])
        assert code == 0

    @pytest.mark.parametrize("length", [1, 2])
    def test_reference_of_wrong_length_exit_code(self, tmp_path, length):
        ref = tmp_path / "ref.lkv"
        cli.write_vector(ref, np.ones(length))
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "2",
                         "--reference", str(ref)])
        assert code == 1

    def test_all_functions_smoke(self, tmp_path):
        cases = [("power-neg-3-2", "auto"), ("gamma", "auto"), ("sqrt", "auto"),
                 ("inv-sqrt-stieltjes", "auto"), ("exp-sqrt:1.0", "auto"),
                 ("power-neg-3-2", "two-pass")]
        for fn, method in cases:
            code = cli.main(["run", "--matrix", "diag:1,1.3,1.7,2,2.4,2.9,3.5,4",
                             "--function", fn, "--m", "2", "--tol", "1e-6",
                             "--method", method])
            assert code == 0, (fn, method)

    def test_seeded_start_vector_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.lkv"
            cli.main(["run", "--matrix", "diag:1,2,3",
                      "--function", "power-neg-3-2", "--m", "2",
                      "--seed", "42", "-o", str(out)])
            outs.append(cli.read_vector(out))
        assert np.array_equal(outs[0], outs[1])

    def test_b_file_round_trip(self, tmp_path):
        bfile = tmp_path / "b.lkv"
        out = tmp_path / "x.lkv"
        b = np.array([1.0, 0.0, 0.0])
        cli.write_vector(bfile, b)
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "1",
                         "--b-file", str(bfile), "-o", str(out)])
        assert code == 0
        # e_1 is an eigenvector: one cycle, exact value 1^(-3/2) e_1
        assert np.allclose(cli.read_vector(out), b, atol=1e-9)

    def test_csv_deterministic_up_to_timings(self, tmp_path):
        rows = []
        for tag in ("a", "b"):
            rep = tmp_path / f"{tag}.csv"
            cli.main(["run", "--matrix", "diag:1,2,3,5,8",
                      "--function", "power-neg-3-2", "--m", "2",
                      "--seed", "7", "--csv", str(rep)])
            with open(rep) as fh:
                rows.append([{k: v for k, v in r.items() if k != "wall_ms"}
                             for r in csv.DictReader(fh)])
        assert rows[0] == rows[1]

    def test_max_cycles_exit_code(self):
        code = cli.main(["run", "--matrix", "diag:1,2,3,4,5,6,7,8,9",
                         "--function", "power-neg-3-2", "--m", "2",
                         "--tol", "1e-7", "--max-cycles", "1"])
        assert code == 2

    def test_diverging_run_exit_code(self, tmp_path, capsys):
        # test_restart's test_diverging_run_stays_in_bounded_memory through the CLI
        mtx = tmp_path / "cd.mtx"
        assert cli.main(["gen", "--kind", "cd2d", "--n", "20", "--eps", "1e-2",
                         "-o", str(mtx)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["run", "--matrix", str(mtx), "--function", "gamma",
                             "--m", "8", "--seed", "0", "--max-cycles", "3"])
        assert code == 2
        assert "status=max_cycles" in capsys.readouterr().out

    def test_non_finite_exit_code(self, tmp_path, capsys):
        # the seed-0 start vector scaled by 1.4e146, so that Gamma(A) b passes
        # the float64 range (see test_restart's test_non_finite_iterate_is_not_converged)
        mtx, bfile = tmp_path / "cd.mtx", tmp_path / "b.lkv"
        assert cli.main(["gen", "--kind", "cd2d", "--n", "20", "--eps", "1e-2",
                         "-o", str(mtx)]) == 0
        b = np.random.default_rng(0).standard_normal(400)
        cli.write_vector(str(bfile), b * (1.4e146 / np.linalg.norm(b)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["run", "--matrix", str(mtx), "--function", "gamma",
                             "--m", "8", "--b-file", str(bfile)])
        assert code == 2
        assert "status=non_finite" in capsys.readouterr().out

    def test_error_exit_code(self):
        # negative eigenvalue: anchor outside the convergence region
        code = cli.main(["run", "--matrix", "diag:-1,2",
                         "--function", "power-neg-3-2", "--m", "2"])
        assert code == 1

    def test_unknown_function(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "--matrix", "diag:1", "--function", "nope", "--m", "1"])


class TestBench:
    def test_fracdiff_completes(self, tmp_path):
        out = tmp_path / "fd.csv"
        code = cli.main(["bench", "--experiment", "fracdiff", "--sizes", "40",
                         "--m", "8", "--tol", "1e-6", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["method"] == "laplace"
        assert float(rows[0]["final_error"]) <= 1e-6

    def test_fracdiff_synthetic_graph_monotone_decay(self):
        # 1000-node random connected graph: the run completes and the true
        # error decays monotonically cycle over cycle
        import numpy as np
        import scipy.linalg as la

        from laplace_krylov.baselines import reference_apply
        from laplace_krylov.operators import LinearOperator, graph_laplacian
        from laplace_krylov.restart import (RestartConfig, builtin_kernels,
                                            restarted_laplace)

        rng = np.random.default_rng(0)
        g = cli._random_connected_graph(1000, rng)
        mat = graph_laplacian(g)
        b = rng.standard_normal(mat.n)
        b /= np.linalg.norm(b)
        fn = builtin_kernels(tau=1.0)["exp-sqrt"]
        ref = reference_apply(LinearOperator.from_matrix(mat), mat.toarray(), b, fn)
        op = LinearOperator.from_matrix(mat)
        cfg = RestartConfig(m=25, tol=1e-7, stopping="reference_error",
                            max_cycles=20)
        _, rep = restarted_laplace(op, b, fn, cfg, reference=ref)
        errors = [r.rel_error for r in rep.records]
        # convergence to tol is slow on the singular Laplacian (branch
        # point at the spectral edge); the qualitative property is strict
        # monotone decay
        assert all(x > y for x, y in zip(errors, errors[1:]))
        assert errors[-1] < 0.5 * errors[0]

    @pytest.mark.parametrize("experiment, sizes", [
        ("s32", "4,5"), ("gamma", "6,8"), ("sqrt", "4,5"), ("fracdiff", "30,40"),
    ])
    def test_every_experiment(self, tmp_path, experiment, sizes):
        out = tmp_path / "b.csv"
        code = cli.main(["bench", "--experiment", experiment, "--sizes", sizes,
                         "--m", "8", "--tol", "1e-6", "--seed", "0", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        methods = {"laplace", "stieltjes", "two-pass"} if experiment == "s32" else {"laplace"}
        for n in sizes.split(","):
            assert {r["method"] for r in rows if r["N"] == n} == methods
        assert len(rows) == 2 * len(methods)
        assert all(math.isfinite(float(r["final_error"])) for r in rows)
