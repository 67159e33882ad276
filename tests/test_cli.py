import csv
import math

import numpy as np
import pytest

from laplace_krylov import baselines, cli, restart
from laplace_krylov.operators import LinearOperator, read_matrix_market
from laplace_krylov.quadrature import QuadratureDivergenceError


class TestVectorFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "v.npy"
        v = np.linspace(-1, 1, 17)
        cli.write_vector(p, v)
        assert np.array_equal(cli.read_vector(p), v)

    def test_header_layout(self, tmp_path):
        # a NumPy .npy file, written to the path as given
        p = tmp_path / "v"
        cli.write_vector(p, np.array([1.0, 2.0]))
        assert p.read_bytes()[:6] == b"\x93NUMPY"
        v = np.load(p, allow_pickle=False)
        assert v.dtype == np.float64 and np.array_equal(v, [1.0, 2.0])

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.npy"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            cli.read_vector(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "short.npy"
        cli.write_vector(p, np.ones(3))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="short.npy"):
            cli.read_vector(p)

    def test_integer_vector_reads_as_float(self, tmp_path):
        p = tmp_path / "int.npy"
        np.save(p, np.arange(3))
        v = cli.read_vector(p)
        assert v.dtype == np.float64 and np.array_equal(v, [0.0, 1.0, 2.0])


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

    def test_graph_needs_input(self, tmp_path):
        with pytest.raises(SystemExit, match="needs --input"):
            cli.main(["gen", "--kind", "graph", "-o", str(tmp_path / "lap.mtx")])

    # a real general input: a repeated edge with another value, a self-loop,
    # and an explicitly stored 0.0 that joins node 3 to the path 4-5-6
    ZERO_EDGE_INPUT = ("%%MatrixMarket matrix coordinate real general\n"
                       "6 6 6\n1 2 1.5\n2 1 -0.5\n2 2 4.0\n4 5 2.0\n5 6 1.0\n3 4 0.0\n")
    ZERO_EDGE_OUTPUT = {
        False: (
            '%%MatrixMarket matrix coordinate real symmetric\n'
            '%\n'
            '6 6 10\n'
            '1 1 1.0000000000000000e+00\n'
            '2 1 -1.0000000000000000e+00\n'
            '2 2 1.0000000000000000e+00\n'
            '3 3 1.0000000000000000e+00\n'
            '4 3 -1.0000000000000000e+00\n'
            '4 4 2.0000000000000000e+00\n'
            '5 4 -1.0000000000000000e+00\n'
            '5 5 2.0000000000000000e+00\n'
            '6 5 -1.0000000000000000e+00\n'
            '6 6 1.0000000000000000e+00\n'
        ),
        True: (
            '%%MatrixMarket matrix coordinate real symmetric\n'
            '%\n'
            '4 4 7\n'
            '1 1 1.0000000000000000e+00\n'
            '2 1 -1.0000000000000000e+00\n'
            '2 2 2.0000000000000000e+00\n'
            '3 2 -1.0000000000000000e+00\n'
            '3 3 2.0000000000000000e+00\n'
            '4 3 -1.0000000000000000e+00\n'
            '4 4 1.0000000000000000e+00\n'
        ),
    }

    @pytest.mark.parametrize("lcc", [False, True])
    def test_graph_counts_stored_zero_as_edge(self, tmp_path, lcc):
        # every stored entry off the diagonal is an edge, whatever its value;
        # the output is pinned byte for byte
        edges = tmp_path / "edges.mtx"
        edges.write_text(self.ZERO_EDGE_INPUT)
        out = tmp_path / "lap.mtx"
        assert cli.main(["gen", "--kind", "graph", "--input", str(edges), "-o", str(out)]
                        + ["--lcc"] * lcc) == 0
        assert out.read_bytes() == self.ZERO_EDGE_OUTPUT[lcc].encode()


class TestRun:
    def test_diag_smoke_laplace(self, tmp_path, capsys):
        out = tmp_path / "x.npy"
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
        ref = tmp_path / "ref.npy"
        exact = np.array([1.0, 2.0, 3.0]) ** -1.5 / math.sqrt(3.0)
        cli.write_vector(ref, exact)
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "2",
                         "--tol", "1e-6", "--reference", str(ref)])
        assert code == 0

    @pytest.mark.parametrize("length", [1, 2])
    def test_reference_of_wrong_length_exit_code(self, tmp_path, length):
        ref = tmp_path / "ref.npy"
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

    def test_two_pass_stops_at_max_cycles(self, capsys):
        # at most max_cycles * m Lanczos steps (2 here, 4 matvecs), where
        # all n = 12 steps would run without the cap
        code = cli.main(["run", "--matrix", "diag:1,1.3,1.7,2,2.4,2.9,3.5,4,5,6,7,8",
                         "--function", "power-neg-3-2", "--m", "2", "--max-cycles", "1",
                         "--tol", "1e-12", "--method", "two-pass"])
        assert code == 2
        assert "matvecs=4 status=max_cycles" in capsys.readouterr().out

    def test_seeded_start_vector_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.npy"
            cli.main(["run", "--matrix", "diag:1,2,3",
                      "--function", "power-neg-3-2", "--m", "2",
                      "--seed", "42", "-o", str(out)])
            outs.append(cli.read_vector(out))
        assert np.array_equal(outs[0], outs[1])

    def test_output_is_the_library_result_through_np_load(self, tmp_path):
        out = tmp_path / "x.npy"
        assert cli.main(["run", "--matrix", "diag:1,2,3,5,8", "--function", "gamma",
                         "--m", "2", "--seed", "3", "-o", str(out)]) == 0
        op = LinearOperator.from_dense(np.diag([1.0, 2.0, 3.0, 5.0, 8.0]))
        x, _ = restart.restarted_laplace(op, cli._starting_vector(5, 3),
                                         restart.builtin_kernels()["gamma"],
                                         restart.RestartConfig(m=2))
        assert np.array_equal(np.load(out, allow_pickle=False), x)
        assert [p.name for p in tmp_path.iterdir()] == ["x.npy"]

    @pytest.mark.parametrize("flag", ["--reference", "--b-file"])
    @pytest.mark.parametrize("kind", ["pickled", "2-D", "complex", "strings", "truncated"])
    def test_bad_vector_file_exit_code(self, tmp_path, flag, kind, capsys):
        p = tmp_path / "v.npy"
        bad = {"pickled": np.array([1.0, 2.0, 3.0], dtype=object), "2-D": np.ones((3, 1)),
               "complex": np.ones(3, dtype=complex), "strings": np.array(["1", "2", "3"]),
               "truncated": np.ones(3)}[kind]
        np.save(p, bad, allow_pickle=True)
        if kind == "truncated":
            p.write_bytes(p.read_bytes()[:-8])
        code = cli.main(["run", "--matrix", "diag:1,2,3", "--function", "power-neg-3-2",
                         "--m", "2", flag, str(p)])
        assert code == 1
        assert str(p) in capsys.readouterr().err

    def test_b_file_round_trip(self, tmp_path):
        bfile = tmp_path / "b.npy"
        out = tmp_path / "x.npy"
        b = np.array([1.0, 0.0, 0.0])
        cli.write_vector(bfile, b)
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", "power-neg-3-2", "--m", "1",
                         "--b-file", str(bfile), "-o", str(out)])
        assert code == 0
        # e_1 is an eigenvector: one cycle, exact value 1^(-3/2) e_1
        assert np.allclose(cli.read_vector(out), b, atol=1e-9)

    def test_b_file_of_wrong_length(self, tmp_path):
        bfile = tmp_path / "b.npy"
        cli.write_vector(bfile, np.ones(2))
        with pytest.raises(SystemExit, match="--b-file has length 2, expected 3"):
            cli.main(["run", "--matrix", "diag:1,2,3", "--function", "power-neg-3-2",
                      "--m", "2", "--b-file", str(bfile)])

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
        mtx, bfile = tmp_path / "cd.mtx", tmp_path / "b.npy"
        assert cli.main(["gen", "--kind", "cd2d", "--n", "20", "--eps", "1e-2",
                         "-o", str(mtx)]) == 0
        b = np.random.default_rng(0).standard_normal(400)
        cli.write_vector(str(bfile), b * (1.4e146 / np.linalg.norm(b)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["run", "--matrix", str(mtx), "--function", "gamma",
                             "--m", "8", "--b-file", str(bfile)])
        assert code == 2
        assert "status=non_finite" in capsys.readouterr().out

    def test_quadrature_divergence_exit_code(self, monkeypatch, capsys):
        real_rule, calls = restart.build_laplace_rule, []

        def rule(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise QuadratureDivergenceError("no convergence with 2000 subintervals")
            return real_rule(*args, **kwargs)

        monkeypatch.setattr(restart, "build_laplace_rule", rule)
        code = cli.main(["run", "--matrix", "diag:1,2,3,4,5,6,7,8,9",
                         "--function", "power-neg-3-2", "--m", "2", "--tol", "1e-7"])
        assert code == 2
        assert "matvecs=4 status=quadrature_divergence" in capsys.readouterr().out

    def test_error_exit_code(self):
        # negative eigenvalue: anchor outside the convergence region
        code = cli.main(["run", "--matrix", "diag:-1,2",
                         "--function", "power-neg-3-2", "--m", "2"])
        assert code == 1

    @pytest.mark.parametrize("tau", ["-1", "0", "nan"])
    def test_bad_tau_exit_code(self, tau, capsys):
        code = cli.main(["run", "--matrix", "diag:1,2,3",
                         "--function", f"exp-sqrt:{tau}", "--m", "3"])
        assert code == 1
        assert "tau must be finite and positive" in capsys.readouterr().err

    def test_two_pass_refuses_csv(self, tmp_path, capsys, monkeypatch):
        # two-pass Lanczos records no cycles, so it would write no CSV
        def no_matvec(self, x):
            pytest.fail("a matvec ran before the refusal")

        monkeypatch.setattr(LinearOperator, "apply", no_matvec)
        rep = tmp_path / "r.csv"
        code = cli.main(["run", "--matrix", "diag:1,2,3", "--function", "power-neg-3-2",
                         "--m", "2", "--method", "two-pass", "--csv", str(rep)])
        assert code == 1
        assert "--csv" in capsys.readouterr().err
        assert not rep.exists()

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

    def test_s32_rows_share_one_reference_per_size(self, tmp_path, monkeypatch):
        # the stieltjes row, G(A) c after CG, is measured against F(A)b like the laplace row
        refs, runs = [], []
        real_reference, real_restart = baselines.reference_apply, restart.restarted_laplace

        def recording_reference(*args):
            refs.append(real_reference(*args))
            return refs[-1]

        def recording_restart(op, b, fn, cfg, reference=None):
            runs.append((fn.name, reference))
            return real_restart(op, b, fn, cfg, reference=reference)

        monkeypatch.setattr(baselines, "reference_apply", recording_reference)
        for module in (restart, baselines):
            monkeypatch.setattr(module, "restarted_laplace", recording_restart)
        assert cli.main(["bench", "--experiment", "s32", "--sizes", "4,5", "--m", "8",
                         "--seed", "0", "-o", str(tmp_path / "b.csv")]) == 0
        assert len(refs) == 2
        assert [name for name, _ in runs] == ["power-neg-3-2", "inv-sqrt-stieltjes"] * 2
        assert all(ref is refs[i // 2] for i, (_, ref) in enumerate(runs))

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
