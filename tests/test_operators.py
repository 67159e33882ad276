import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_krylov.operators import (
    LinearOperator,
    MatrixMarketError,
    SparseMatrix,
    _kron_sum,
    adjacency,
    convection_diffusion_nd,
    graph_laplacian,
    laplacian_nd,
    largest_connected_component,
    read_matrix_market,
    write_matrix_market,
)


def dense(mat: SparseMatrix) -> np.ndarray:
    return mat.toarray()


def csr(data, indices, indptr) -> sp.csr_matrix:
    """Raw CSR arrays of a 2 x 2 matrix, unchecked beyond scipy's constructor."""
    return sp.csr_matrix((data, indices, indptr), shape=(2, 2))


class TestKronSum:
    """``_kron_sum`` on scipy matrices, the path the grid generators take."""

    def test_scalar_case(self):
        a = sp.csr_matrix([[2.0]])
        b = sp.csr_matrix([[3.0]])
        assert np.allclose(_kron_sum(a, b).toarray(), [[5.0]])

    def test_identity_case(self):
        i2 = sp.identity(2, format="csr")
        assert np.allclose(_kron_sum(i2, i2).toarray(), 2.0 * np.eye(4))

    def test_tridiag_spectrum(self):
        # 1D eigenvalues 2 - 2 cos(j pi / 3) = {1, 3}; sums of pairs
        t = sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]])
        spec = np.sort(la.eigvalsh(_kron_sum(t, t).toarray()))
        assert spec == pytest.approx([2.0, 4.0, 4.0, 6.0])

    def test_spectrum_is_pairwise_sums(self):
        rng = np.random.default_rng(7)
        for na, nb in [(2, 3), (4, 2), (3, 3)]:
            a = rng.standard_normal((na, na))
            a = a + a.T
            b = rng.standard_normal((nb, nb))
            b = b + b.T
            ks = _kron_sum(sp.csr_matrix(a), sp.csr_matrix(b))
            expected = np.sort(np.add.outer(la.eigvalsh(a), la.eigvalsh(b)).ravel())
            assert np.allclose(np.sort(la.eigvalsh(ks.toarray())), expected)


class TestLaplacian:
    def test_1d_definition(self):
        assert np.allclose(dense(laplacian_nd(2, 1)), [[2.0, -1.0], [-1.0, 2.0]])

    def test_3d_spectrum_n2(self):
        spec = np.sort(la.eigvalsh(dense(laplacian_nd(2, 3))))
        assert spec == pytest.approx([3, 5, 5, 5, 7, 7, 7, 9])

    def test_n20_dimension_and_nnz(self):
        mat = laplacian_nd(20, 3)
        assert mat.n == 8000
        # 7-point stencil count: N^3 diagonal + 2 * 3 * (N-1) * N^2 couplings
        n = 20
        assert mat.nnz == n**3 + 6 * (n - 1) * n**2 == 53600

    def test_positive_definite_spot_check(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            mat = laplacian_nd(4, d)
            x = rng.standard_normal(mat.n)
            assert x @ mat.matvec(x) > 0

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            laplacian_nd(3, 4)


class TestConvectionDiffusion:
    def test_n1_by_hand(self):
        # h = 1/2: h^-2 eps * 6 + h^-1 * 3 = 0.024 + 6
        mat = convection_diffusion_nd(1, 1e-3, 3)
        assert np.allclose(dense(mat), [[6.024]])

    def test_positive_real_spectrum(self):
        mat = convection_diffusion_nd(2, 1e-3, 2)
        assert np.all(la.eigvals(dense(mat)).real > 0)

    def test_not_symmetric(self):
        assert convection_diffusion_nd(3, 1e-3, 3).symmetric is False

    def test_structure_matches_formula(self):
        # h^-2 eps A_L + h^-1 (A2 + A2^T + A2 Kronecker structure)
        n, eps = 3, 1e-2
        h = 1.0 / (n + 1)
        a1 = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        a2 = np.diag(np.ones(n)) - np.diag(np.ones(n - 1), -1)
        eye = np.eye(n)

        def ksum3(x, y, z):
            return (np.kron(np.kron(x, eye), eye) + np.kron(np.kron(eye, y), eye)
                    + np.kron(np.kron(eye, eye), z))

        expected = (eps / h**2) * ksum3(a1, a1, a1) + (1 / h) * ksum3(a2, a2.T, a2)
        assert np.allclose(dense(convection_diffusion_nd(n, eps, 3)), expected)


class TestGraphOps:
    def test_path_graph_laplacian(self):
        g = adjacency(3, [[0, 1], [1, 2]])
        assert np.allclose(dense(graph_laplacian(g)),
                           [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_row_sums_zero(self):
        rng = np.random.default_rng(11)
        g = adjacency(12, rng.integers(0, 12, size=(30, 2)))
        lap = graph_laplacian(g)
        ones = np.ones(12)
        scale = max(1.0, np.abs(lap.to_scipy().data).max())
        assert np.abs(lap.matvec(ones)).max() <= 1e-12 * scale

    def test_k3_spectrum(self):
        g = adjacency(3, [[0, 1], [0, 2], [1, 2]])
        assert np.sort(la.eigvalsh(dense(graph_laplacian(g)))) == pytest.approx([0, 3, 3])

    def test_lcc_picks_larger(self):
        g = adjacency(5, [[0, 1], [2, 3], [3, 4]])
        cc = largest_connected_component(g)
        assert cc.shape[0] == 3
        assert cc.nnz // 2 == 2

    def test_lcc_connected_identity(self):
        g = adjacency(4, [[0, 1], [1, 2], [2, 3]])
        cc = largest_connected_component(g)
        assert cc.shape[0] == 4
        assert (cc != g).nnz == 0

    def test_lcc_tie_break_smallest_id(self):
        g = adjacency(4, [[0, 1], [2, 3]])
        cc = largest_connected_component(g)
        assert cc.shape[0] == 2
        # the component containing node 0 wins the tie

    def test_lcc_empty_graph(self):
        with pytest.raises(ValueError):
            largest_connected_component(adjacency(0, []))

    def test_graph_normalizes_edges(self):
        g = adjacency(4, [[1, 0], [0, 1], [2, 2], [3, 1]])
        assert g.nnz // 2 == 2
        # one symmetric unit entry per edge, none for the self-loop
        assert (g != g.T).nnz == 0 and np.all(g.data == 1.0) and not g.diagonal().any()

    @pytest.mark.parametrize("edges", [[[0, 4]], [[-1, 2]], [[3, 0], [1, 7]]])
    def test_adjacency_rejects_endpoint_out_of_range(self, edges):
        with pytest.raises(ValueError):
            adjacency(4, edges)


class TestMatrixMarket:
    def test_pattern_symmetric_path(self, tmp_path):
        p = tmp_path / "path.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "3 3 2\n2 1\n3 2\n")
        mat = read_matrix_market(p)
        assert np.allclose(mat.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_round_trip_general_real(self, tmp_path):
        rng = np.random.default_rng(5)
        a = np.round(rng.standard_normal((4, 4)), 6)
        a[np.abs(a) < 0.7] = 0.0
        mat = SparseMatrix(a)
        p = tmp_path / "rt.mtx"
        write_matrix_market(mat, p)
        back = read_matrix_market(p)
        assert np.allclose(back.toarray(), a)

    def test_general_file_with_symmetric_entries_is_symmetric(self, tmp_path):
        # the flag comes from the entries, not from the header
        p = tmp_path / "sym.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n")
        assert read_matrix_market(p).symmetric

    def test_one_based_indices(self, tmp_path):
        p = tmp_path / "one.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n1 2 5.0\n")
        mat = read_matrix_market(p)
        assert mat.toarray()[0, 1] == 5.0

    def test_rejects_array_format(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    @pytest.mark.parametrize("header, message", [
        ("coordinate complex general\n2 2 1\n1 1 1.0 0.0\n", "unsupported field"),
        ("coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", "unsupported symmetry"),
        ("coordinate real general\n2 3 1\n1 1 1.0\n", "only square"),
    ], ids=["field", "symmetry", "non-square"])
    def test_rejects_unsupported_header(self, tmp_path, header, message):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix " + header)
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(p)

    def test_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%NotMatrixMarket nonsense\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_rejects_out_of_range_index(self, tmp_path):
        p = tmp_path / "bad.mtx"
        # out-of-range row, then more and fewer entries than declared
        for body in ("2 2 1\n3 1 1.0\n", "2 2 1\n1 1 1.0\n2 2 2.0\n",
                     "2 2 3\n1 1 1.0\n2 2 2.0\n"):
            p.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
            with pytest.raises(MatrixMarketError):
                read_matrix_market(p)

    def test_symmetric_round_trip(self, tmp_path):
        mat = laplacian_nd(3, 2)
        p = tmp_path / "sym.mtx"
        write_matrix_market(mat, p)
        back = read_matrix_market(p)
        assert back.symmetric
        assert np.allclose(back.toarray(), mat.toarray())

    def test_graph_from_matrix(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "3 3 2\n2 1\n3 2\n")
        mat = read_matrix_market(p)
        coo = mat.to_scipy().tocoo()
        g = adjacency(mat.n, np.column_stack([coo.row, coo.col]))
        assert g.shape[0] == 3 and g.nnz // 2 == 2


class TestLinearOperator:
    def test_counter_increments(self):
        op = LinearOperator.from_matrix(laplacian_nd(3, 1))
        x = np.ones(3)
        for expected in range(1, 6):
            op.apply(x)
            assert op.matvec_count == expected

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=20, deadline=None)
    def test_counter_counts_exactly_k(self, k):
        op = LinearOperator.from_matrix(laplacian_nd(4, 1))
        x = np.ones(4)
        for _ in range(k):
            op.apply(x)
        assert op.matvec_count == k

    def test_apply_is_deterministic(self):
        mat = laplacian_nd(4, 2)
        op = LinearOperator.from_matrix(mat)
        x = np.linspace(0, 1, mat.n)
        assert np.array_equal(op.apply(x), op.apply(x))

    @pytest.mark.parametrize("hermitian", [None, False])
    @pytest.mark.parametrize("shape", [(5, 6), (4,)])
    def test_from_dense_rejects_non_square(self, shape, hermitian):
        with pytest.raises(ValueError, match="square"):
            LinearOperator.from_dense(np.ones(shape), hermitian=hermitian)

    def test_from_dense_hermitian_only_to_rounding(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((60, 60))
        spd = a @ a.T / 60 + np.eye(60)
        # 1e-6 relative asymmetry passes np.allclose but is not rounding
        near = spd * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, (60, 60)))
        assert LinearOperator.from_dense(spd).hermitian
        assert not LinearOperator.from_dense(near).hermitian
        c = a + 1j * rng.standard_normal((60, 60))
        assert LinearOperator.from_dense(c @ c.conj().T).hermitian


class TestSparseMatrixInvariants:
    def test_sorted_column_indices(self):
        mat = SparseMatrix(csr([1.0, 2.0, 3.0], [1, 0, 1], [0, 2, 3]))
        indptr, indices = mat.to_scipy().indptr, mat.to_scipy().indices
        for i in range(mat.n):
            row = indices[indptr[i]:indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            SparseMatrix(csr([1.0, 1.0], [0, 1], [0, 2, 1]))

    def test_rejects_bad_col_idx(self):
        with pytest.raises(ValueError):
            SparseMatrix(csr([1.0, 1.0], [0, 5], [0, 1, 2]))

    @pytest.mark.parametrize("arr", [np.ones((3, 2)), sp.csr_matrix(np.ones((3, 2))),
                                     np.ones((2, 3))])
    def test_rejects_non_square(self, arr):
        with pytest.raises(ValueError, match="square"):
            SparseMatrix(arr)

    def test_from_dense_flags_exact_symmetry_only(self):
        q, _ = la.qr(np.random.default_rng(0).standard_normal((5, 5)))
        rounded = q @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ q.T
        assert np.abs(rounded - rounded.T).max() > 0
        for arr in (rounded, np.array([[2.0, 1e-9], [0.0, 2.0]])):
            mat = SparseMatrix(arr)
            assert not mat.symmetric
            assert np.array_equal(mat.toarray(), arr)
        assert SparseMatrix((rounded + rounded.T) / 2).symmetric

    def test_symmetric_means_hermitian(self):
        c = np.array([[2.0, 1.0 + 1.0j], [1.0 + 1.0j, 3.0]])
        assert not SparseMatrix([[1.0, 2.0], [0.0, 1.0]]).symmetric
        assert not SparseMatrix(c).symmetric   # equal to its transpose only
        assert SparseMatrix(np.triu(c) + np.triu(c, 1).conj().T).symmetric
        assert not LinearOperator.from_matrix(SparseMatrix(c)).hermitian


def test_package_import_leaves_out_the_on_use_modules():
    # scipy.io and scipy.sparse.csgraph cost resident memory; operators.py
    # imports them only where a matrix file or a graph needs them
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, laplace_krylov, laplace_krylov.cli; "
            "print(sorted(m for m in ('scipy.io', 'scipy.sparse.csgraph') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
