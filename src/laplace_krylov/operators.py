"""Sparse operators, benchmark matrix generators and graph ingestion.

The central objects are :class:`SparseMatrix` (one canonical
``scipy.sparse.csr_matrix`` plus its symmetry flag; scipy's kernel does the
matvec) and :class:`LinearOperator`, a thin counted wrapper that is the only
thing the Krylov machinery ever sees. Graph Laplacians and connected
components come from ``scipy.sparse.csgraph``, which ``scipy.sparse`` loads
on first use: imported here it would add ~1.2 MB of resident memory to
every program, also those that build no graph.
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


class SparseMatrix:
    """Square matrix held as one canonical scipy CSR matrix and a symmetry flag.

    ``mat`` is a scipy sparse or dense matrix. It is validated with scipy's
    full format check and stored in canonical form (duplicates summed,
    column indices sorted); non-square input raises ``ValueError``.
    ``symmetric=None`` detects exact symmetry, a passed ``True`` is verified
    and ``False`` is taken as given.
    """

    def __init__(self, mat, symmetric: bool | None = None):
        csr = sp.csr_matrix(mat)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.check_format(full_check=True)
        csr.sum_duplicates()  # also sorts the column indices
        self._csr = csr
        self.n = csr.shape[0]
        if symmetric is None or symmetric:
            exact = (csr != csr.T).nnz == 0
            if symmetric and not exact:
                raise ValueError("symmetric flag set but matrix is not symmetric")
            symmetric = exact
        self.symmetric = bool(symmetric)

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
        a = sp.csr_matrix((np.ones(self.num_edges), (self.edges[:, 0], self.edges[:, 1])),
                          shape=(self.num_nodes, self.num_nodes))
        return a + a.T


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
    return SparseMatrix(_kron_sum(m1.to_scipy(), m2.to_scipy()),
                        symmetric=m1.symmetric and m2.symmetric)


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
    return SparseMatrix(reduce(_kron_sum, [a1] * d), symmetric=True)


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
    return SparseMatrix(reduce(_kron_sum, factors), symmetric=False)


def graph_laplacian(g: Graph) -> SparseMatrix:
    """L = D - A for an undirected graph; symmetric PSD with zero row sums."""
    lap = sp.csgraph.laplacian(g.adjacency())
    lap.eliminate_zeros()  # an isolated node stores no zero degree
    return SparseMatrix(lap, symmetric=True)


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes relabeled 0..k-1.

    Ties between equally large components go to the one containing the
    smallest original node id.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph")
    adj = g.adjacency()
    _, labels = sp.csgraph.connected_components(adj, directed=False)
    # labels are assigned in node order and argmax takes the first maximum,
    # so a tie goes to the component of the smallest node id
    nodes = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    return Graph(nodes.size, np.column_stack(adj[nodes][:, nodes].nonzero()))


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
    return SparseMatrix(coo.astype(np.float64), symmetric=symmetry == "symmetric")


def write_matrix_market(mat: SparseMatrix, path) -> None:
    """Write in coordinate real format; a symmetric matrix keeps only i >= j."""
    import scipy.io

    # an open file, because scipy appends ".mtx" to a path without it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, mat.to_scipy(), field="real", precision=17,
                         symmetry="symmetric" if mat.symmetric else "general")
