"""Sparse operators, benchmark matrix generators and graph ingestion.

The central objects are :class:`SparseMatrix` (CSR storage, backed by
``scipy.sparse`` for the matvec kernel) and :class:`LinearOperator`, a thin
counted wrapper that is the only thing the Krylov machinery ever sees.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "LinearOperator",
    "Graph",
    "kron_sum",
    "laplacian_nd",
    "convection_diffusion_nd",
    "graph_laplacian",
    "largest_connected_component",
    "graph_from_matrix",
    "read_matrix_market",
    "write_matrix_market",
]


class MatrixMarketError(ValueError):
    """Raised for malformed Matrix Market input."""


@dataclass
class SparseMatrix:
    """Square sparse matrix in CSR form with sorted column indices per row."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.row_ptr.shape != (self.n + 1,):
            raise ValueError("row_ptr must have length n+1")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if self.col_idx.size and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        self._csr = sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n)
        )
        self._csr.sort_indices()
        # keep the public views in sync with the canonicalized storage
        self.row_ptr = self._csr.indptr.astype(np.int64)
        self.col_idx = self._csr.indices.astype(np.int64)
        self.values = self._csr.data
        if self.symmetric and not self._is_value_symmetric():
            raise ValueError("symmetric flag set but matrix is not symmetric")

    def _is_value_symmetric(self) -> bool:
        d = self._csr - self._csr.T
        return d.nnz == 0 or float(abs(d).max()) == 0.0

    @classmethod
    def from_scipy(cls, mat, symmetric: bool = False) -> "SparseMatrix":
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data, symmetric=symmetric)

    @classmethod
    def from_dense(cls, arr, symmetric: bool | None = None) -> "SparseMatrix":
        mat = cls.from_scipy(sp.csr_matrix(np.asarray(arr)), symmetric=bool(symmetric))
        if symmetric is None:
            # the flag promises exact symmetry, which the constructor checks
            mat.symmetric = mat._is_value_symmetric()
        return mat

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def to_scipy(self) -> sp.csr_matrix:
        return self._csr


class LinearOperator:
    """Matrix seen only through ``y = A @ x``, with a monotone matvec tally.

    The operator is immutable apart from the counter, which is updated under
    a lock so that callers sharing an operator across threads keep exact
    tallies.
    """

    def __init__(self, matvec, n: int, hermitian: bool = False):
        self._matvec = matvec
        self.n = int(n)
        self.hermitian = bool(hermitian)
        self._count = 0
        self._lock = threading.Lock()

    @classmethod
    def from_matrix(cls, mat: SparseMatrix) -> "LinearOperator":
        return cls(mat.matvec, mat.n, hermitian=mat.symmetric)

    @classmethod
    def from_dense(cls, arr, hermitian: bool | None = None) -> "LinearOperator":
        arr = np.asarray(arr)
        if hermitian is None:
            # the Hermitian test of smallmat_nu; a looser one sends slightly
            # nonsymmetric matrices down the Hermitian Arnoldi path
            scale = max(1.0, float(np.abs(arr).max()))
            hermitian = float(np.abs(arr - arr.conj().T).max()) <= 1e-12 * scale
        return cls(lambda x: arr @ x, arr.shape[0], hermitian=hermitian)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self._matvec(x)
        with self._lock:
            self._count += 1
        return y

    @property
    def matvec_count(self) -> int:
        return self._count


@dataclass
class Graph:
    """Undirected simple graph: edges normalized to i < j, no duplicates."""

    num_nodes: int
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        e = e[e[:, 0] != e[:, 1]]  # drop self-loops
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        e = np.unique(np.column_stack([lo, hi]), axis=0)
        if e.size and (e.min() < 0 or e.max() >= self.num_nodes):
            raise ValueError("edge endpoint out of range")
        self.edges = e

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> sp.csr_matrix:
        if self.num_edges == 0:
            return sp.csr_matrix((self.num_nodes, self.num_nodes))
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * self.num_edges)
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))


def _tridiag(n: int, lower: float, diag: float, upper: float) -> sp.csr_matrix:
    return sp.diags(
        [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _kron_sum(a, b) -> sp.csr_matrix:
    """A (x) I + I (x) B for square scipy matrices A and B."""
    return sp.kron(a, sp.identity(b.shape[0]), format="csr") + sp.kron(
        sp.identity(a.shape[0]), b, format="csr"
    )


def kron_sum(m1: SparseMatrix, m2: SparseMatrix) -> SparseMatrix:
    """Kronecker sum M1 (x) I + I (x) M2 of two square matrices."""
    a, b = m1.to_scipy(), m2.to_scipy()
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("kron_sum requires square factors")
    return SparseMatrix.from_scipy(_kron_sum(a, b), symmetric=m1.symmetric and m2.symmetric)


def laplacian_nd(n: int, d: int = 3) -> SparseMatrix:
    """Discretized Dirichlet Laplacian on an n^d grid (unscaled stencil).

    The 1D factor is tridiag(-1, 2, -1); higher dimensions are Kronecker
    sums of it, so the matrix is symmetric positive definite.
    """
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if n < 1:
        raise ValueError("grid size must be >= 1")
    a1 = _tridiag(n, -1.0, 2.0, -1.0)
    return SparseMatrix.from_scipy(reduce(_kron_sum, [a1] * d), symmetric=True)


def convection_diffusion_nd(n: int, eps: float, d: int = 3) -> SparseMatrix:
    """Upwind convection-diffusion operator on the unit cube/square.

    h^-2 * eps * laplacian + h^-1 * convection with direction [1, -1, 1];
    the middle factor carries the transposed first-order stencil for the
    negative component. h = 1/(n+1). Positive real but nonsymmetric.
    """
    if d not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    if n < 1 or eps <= 0:
        raise ValueError("need n >= 1 and eps > 0")
    h = 1.0 / (n + 1)
    a1 = _tridiag(n, -1.0, 2.0, -1.0)
    a2 = _tridiag(n, -1.0, 1.0, 0.0)
    c_fwd = (eps / h**2) * a1 + (1.0 / h) * a2
    c_bwd = (eps / h**2) * a1 + (1.0 / h) * a2.T
    factors = [c_fwd, c_bwd] if d == 2 else [c_fwd, c_bwd, c_fwd]
    return SparseMatrix.from_scipy(reduce(_kron_sum, factors), symmetric=False)


def graph_laplacian(g: Graph) -> SparseMatrix:
    """L = D - A for an undirected graph; symmetric PSD with zero row sums."""
    adj = g.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg, format="csr") - adj
    return SparseMatrix.from_scipy(lap, symmetric=True)


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes relabeled 0..k-1.

    Ties between equally large components go to the one containing the
    smallest original node id.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph")
    n_comp, labels = sp.csgraph.connected_components(g.adjacency(), directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    best = np.flatnonzero(sizes == sizes.max())
    # labels are assigned in node order, so the smallest label among the
    # best ones contains the smallest original node id
    keep = best.min()
    nodes = np.flatnonzero(labels == keep)
    relabel = -np.ones(g.num_nodes, dtype=np.int64)
    relabel[nodes] = np.arange(nodes.size)
    if g.num_edges:
        mask = (labels[g.edges[:, 0]] == keep) & (labels[g.edges[:, 1]] == keep)
        new_edges = relabel[g.edges[mask]]
    else:
        new_edges = np.empty((0, 2), dtype=np.int64)
    return Graph(nodes.size, new_edges)


def graph_from_matrix(mat: SparseMatrix) -> Graph:
    """Off-diagonal nonzero pattern of a matrix, read as undirected edges."""
    coo = mat.to_scipy().tocoo()
    mask = coo.row != coo.col
    edges = np.column_stack([coo.row[mask], coo.col[mask]])
    return Graph(mat.n, edges)


# ---------------------------------------------------------------------------
# Matrix Market coordinate format (real / integer / pattern,
# general / symmetric). Array format is deliberately rejected. scipy.io is
# imported on use: at package import it would add ~1.6 MB of resident
# memory to every program, also those that read and write no matrix file.
# ---------------------------------------------------------------------------

def read_matrix_market(path) -> SparseMatrix:
    """Parse a Matrix Market coordinate file into a SparseMatrix.

    Symmetric storage is expanded and pattern entries get unit values.
    """
    import scipy.io

    try:
        nrows, ncols, _, fmt, field_kind, symmetry = scipy.io.mminfo(path)
    except ValueError as exc:
        raise MatrixMarketError(f"malformed Matrix Market header: {exc}") from exc
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r}; only coordinate is handled")
    if field_kind not in ("real", "integer", "pattern"):
        raise MatrixMarketError(f"unsupported field {field_kind!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")
    if nrows != ncols:
        raise MatrixMarketError("only square matrices are supported")
    try:
        # scipy reports out-of-range indices and too many or too few entries
        coo = scipy.io.mmread(path)
    except ValueError as exc:
        raise MatrixMarketError(str(exc)) from exc
    return SparseMatrix.from_scipy(coo.astype(np.float64),
                                   symmetric=(symmetry == "symmetric"))


def write_matrix_market(mat: SparseMatrix, path, symmetric: bool | None = None) -> None:
    """Write in coordinate real format (symmetric storage keeps i >= j)."""
    import scipy.io

    if symmetric is None:
        symmetric = mat.symmetric
    # an open file, because scipy appends ".mtx" to a path without it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, mat.to_scipy(), field="real", precision=17,
                         symmetry="symmetric" if symmetric else "general")
