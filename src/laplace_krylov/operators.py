"""Sparse operators, benchmark matrix generators and graph ingestion.

The central objects are :class:`SparseMatrix` (one canonical
``scipy.sparse.csr_matrix`` plus its Hermitian flag, read off the entries;
scipy's kernel does the matvec) and :class:`LinearOperator`, the counted
wrapper the Krylov machinery sees; ``from_matrix`` builds it from any matrix
through SparseMatrix. Grid operators are Kronecker sums (``scipy.sparse.kronsum``).
A graph is its symmetric 0/1 adjacency ``csr_matrix`` (see :func:`adjacency`);
its Laplacian and connected components come from ``scipy.sparse.csgraph``,
which ``scipy.sparse`` loads on first use: imported here it would add
~1.2 MB of resident memory to every program, also those that build no graph.
"""

from __future__ import annotations

import threading
from functools import reduce

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "LinearOperator",
    "adjacency",
    "laplacian_nd",
    "convection_diffusion_nd",
    "graph_laplacian",
    "largest_connected_component",
    "read_matrix_market",
    "write_matrix_market",
]


class MatrixMarketError(ValueError):
    """Raised for malformed Matrix Market input."""


class SparseMatrix:
    """Square matrix held as one canonical scipy CSR matrix and a symmetry flag.

    ``mat`` is a scipy sparse or dense matrix. It is validated with scipy's
    full format check and stored in canonical form (duplicates summed,
    column indices sorted); input that is not 2-D and square raises ``ValueError``.
    ``symmetric`` is exact Hermitian symmetry of the entries (A equal to its
    conjugate transpose), so a complex symmetric matrix is not symmetric here.
    """

    def __init__(self, mat):
        if np.ndim(mat) != 2:
            raise ValueError(f"matrix must be 2-D, got shape {np.shape(mat)}")
        csr = sp.csr_matrix(mat)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr.check_format(full_check=True)
        csr.sum_duplicates()  # also sorts the column indices
        self._csr = csr
        self.n = csr.shape[0]
        self.symmetric = (csr != csr.conj().T).nnz == 0

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
    def from_matrix(cls, mat) -> "LinearOperator":
        mat = mat if isinstance(mat, SparseMatrix) else SparseMatrix(mat)
        return cls(mat.matvec, mat.n, hermitian=mat.symmetric)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self._matvec(x)
        with self._lock:
            self._count += 1
        return y

    @property
    def matvec_count(self) -> int:
        return self._count


def _tridiag(n: int, lower: float, diag: float, upper: float) -> sp.csr_matrix:
    return sp.diags(
        [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _kron_sum(a, b) -> sp.csr_matrix:
    """A (x) I + I (x) B for square scipy matrices A and B."""
    return sp.kronsum(b, a, format="csr")  # scipy's kronsum(B, A) is I (x) B + A (x) I


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
    return SparseMatrix(reduce(_kron_sum, [a1] * d))


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
    return SparseMatrix(reduce(_kron_sum, factors))


def adjacency(num_nodes: int, edges) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency matrix of an undirected simple graph.

    ``edges`` holds node pairs (i, j) in either order; self-loops and
    repeated edges are dropped. An endpoint outside 0..num_nodes-1 raises
    ``ValueError`` from scipy's index check.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]  # drop self-loops
    a = sp.csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(num_nodes, num_nodes))
    a = a + a.T
    a.data[:] = 1.0  # a repeated edge was summed
    return a


def graph_laplacian(adj: sp.csr_matrix) -> SparseMatrix:
    """L = D - A for a graph's adjacency; symmetric PSD with zero row sums."""
    lap = sp.csgraph.laplacian(adj)
    lap.eliminate_zeros()  # an isolated node stores no zero degree
    return SparseMatrix(lap)


def largest_connected_component(adj: sp.csr_matrix) -> sp.csr_matrix:
    """Adjacency of the induced subgraph on the largest component.

    Nodes are relabeled 0..k-1 in their original order. Ties between
    equally large components go to the one containing the smallest node id.
    """
    if adj.shape[0] == 0:
        raise ValueError("empty graph")
    _, labels = sp.csgraph.connected_components(adj, directed=False)
    # labels are assigned in node order and argmax takes the first maximum,
    # so a tie goes to the component of the smallest node id
    nodes = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    return adj[nodes][:, nodes]


# ---------------------------------------------------------------------------
# Matrix Market coordinate format (real / integer / pattern,
# general / symmetric). Array format is deliberately rejected. scipy.io is
# imported on use: at package import it would add ~1.6 MB of resident
# memory to every program, also those that read and write no matrix file.
# ---------------------------------------------------------------------------

def read_matrix_market(path) -> SparseMatrix:
    """Parse a Matrix Market coordinate file into a SparseMatrix.

    Symmetric storage is expanded and pattern entries get unit values. The
    symmetry flag comes from the entries, not from the header.
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
    return SparseMatrix(coo.astype(np.float64))


def write_matrix_market(mat: SparseMatrix, path) -> None:
    """Write in coordinate real format; a symmetric matrix keeps only i >= j.
    A complex matrix, which the reader refuses too, raises before the file opens."""
    import scipy.io

    if np.iscomplexobj(mat.to_scipy()):
        raise MatrixMarketError("complex matrices are not supported")
    # an open file, because scipy appends ".mtx" to a path without it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, mat.to_scipy(), field="real", precision=17,
                         symmetry="symmetric" if mat.symmetric else "general")
