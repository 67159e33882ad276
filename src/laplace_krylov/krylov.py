"""Arnoldi (and Hermitian Lanczos) decompositions of fixed cycle length.

One loop, two orthogonalization modes on a row-major basis: classical
Gram-Schmidt applied twice (CGS2) keeps it orthonormal to working precision
("twice is enough", Giraud, Langou and Rozloznik, Comput. Math. Appl. 2005);
a Hermitian restart cycle runs the Lanczos three-term step and adds the full
pass only once Simon's estimate of the lost orthogonality asks (Math. Comp. 1984).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .operators import LinearOperator

__all__ = ["KrylovDecomposition", "arnoldi"]

BREAKDOWN_RTOL = 1e-14
SEMI_ORTH = np.sqrt(np.finfo(float).eps)


@dataclass
class KrylovDecomposition:
    """One Arnoldi cycle: A V = V H + h_next v_next e_m^T."""

    V: np.ndarray          # n x m orthonormal basis
    H: np.ndarray          # m x m upper Hessenberg
    h_next: float          # subdiagonal coupling h_{m+1,m} >= 0 (0 on breakdown)
    v_next: np.ndarray     # next unit basis vector (unused when h_next == 0)
    m: int
    beta: float            # norm of the starting vector

    @property
    def breakdown(self) -> bool:
        return self.h_next == 0.0


def arnoldi(op: LinearOperator, start: np.ndarray, m: int, *,
            _basis: np.ndarray | None = None) -> KrylovDecomposition:
    """Build a length-m Arnoldi decomposition from ``start``.

    Each step orthogonalizes A v_j by two classical Gram-Schmidt passes over
    the whole basis. ``_basis``, an (m+1) x n buffer for the basis, makes a
    restart cycle: for Hermitian A the first pass then runs over v_{j-1}, v_j
    only (H is tridiagonal), and the full pass waits until Simon's recurrence
    puts the loss of orthogonality above sqrt(eps), then runs at every step
    with H kept tridiagonal. The Arnoldi relation then holds to rounding
    (Paige 1976) except in the first two full-pass columns: O(sqrt(eps) h).

    On a lucky breakdown at step j < m the decomposition is truncated to
    size j and h_next is 0; a non-finite matvec raises at its step. For
    Hermitian operators H is returned symmetrized and real, which it is in
    exact arithmetic, so :func:`~.smallmat.eig_hermitian` gets a real
    symmetric matrix. ``V`` and ``v_next`` are views of one basis array.
    """
    for size, H, Q, beta in _arnoldi_steps(op, start, m, _basis):
        pass
    broke = H[size, size - 1] == 0.0
    Hs = np.array(H[:size, :size])
    h_next = 0.0 if broke else float(H[size, size - 1].real)
    v_next = Q[size] if not broke else np.zeros(op.n, dtype=Q.dtype)

    if op.hermitian:
        Hs = ((Hs + Hs.conj().T) / 2.0).real

    return KrylovDecomposition(
        V=Q[:size].T,
        H=Hs,
        h_next=h_next,
        v_next=v_next,
        m=size,
        beta=beta,
    )


def _checked_norm(v: np.ndarray, name: str, n: int) -> float:
    """nrm2 of an input vector, which must have shape (n,) and be finite and nonzero.

    BLAS nrm2 scales: np.linalg.norm squares the entries and overflows past
    ~1e154.
    """
    if np.shape(v) != (n,):
        raise ValueError(f"{name} has wrong length: shape {np.shape(v)}, expected ({n},)")
    norm = float(la.norm(v, check_finite=False))
    if not 0.0 < norm < np.inf:
        raise ValueError(f"{name} must be finite and nonzero")
    return norm


def _arnoldi_steps(op: LinearOperator, start: np.ndarray, m: int,
                   basis: np.ndarray | None = None):
    """The step loop of :func:`arnoldi`. Yields ``(k, H, Q, beta)`` after each
    step: the basis size, the (m+1) x m Hessenberg and (m+1) x n row-basis
    arrays filled to size k (complex copies once a complex operator meets a
    real start) and the start norm. A lucky breakdown, the last step, leaves
    ``H[k, k-1] == 0``.
    """
    start = np.asarray(start, dtype=complex if np.iscomplexobj(start) else float)
    n = op.n
    beta = _checked_norm(start, "starting vector", n)
    if not (1 <= m <= n):
        raise ValueError("cycle length must satisfy 1 <= m <= n")

    # basis vectors as rows; start may be a row of basis, and start / beta is a copy
    Q = np.zeros((m + 1, n), start.dtype) if basis is None else np.asarray(basis, start.dtype)
    H = np.zeros((m + 1, m), dtype=start.dtype)
    Q[0] = start / beta
    # Lanczos mode: Simon's omega rows j-1, j (om[k] ~ |v_j^H v_k|), advanced by the recurrence
    lanczos = basis is not None and op.hermitian
    full, om_prev, om = not lanczos, np.zeros(m + 1), np.eye(1, m + 1)[0]
    eps1 = np.sqrt(n) * np.finfo(float).eps / 2

    for j in range(m):
        w = op.apply(Q[j])
        if np.iscomplexobj(w) and not np.iscomplexobj(Q):
            Q = Q.astype(complex)
            H = H.astype(complex)
        # a copy: the operator may return (a view of) the row it was given
        w = np.array(w, dtype=Q.dtype)
        norm_w = float(la.norm(w, check_finite=False))
        if not np.isfinite(norm_w):
            raise ValueError(f"operator returned non-finite values at Arnoldi step {j + 1}")
        lo = max(j - 1, 0) if lanczos else 0
        c = Q[lo: j + 1].conj() @ w
        w -= c @ Q[lo: j + 1]
        H[lo: j + 1, j] += c
        if not full:
            h = float(la.norm(w, check_finite=False))
            hs = max(h, 1e-300)
            al, be = H.diagonal().real, H.diagonal(-1).real
            t = (al[:j] - al[j]) * om[:j] + H.diagonal(1).real[:j] * om[1: j + 1]
            t[1:] += be[:lo] * om[:lo]
            t -= be[j - 1] * om_prev[:j]
            om_prev, om = om, om_prev
            om[:j] = (t + np.copysign(eps1 * (be[:j] + hs), t)) / hs
            om[j: j + 2] = eps1 * norm_w / hs, 1.0
            full = np.abs(om[:j + 1]).max() > SEMI_ORTH
        if full:   # Lanczos mode keeps H tridiagonal
            c = Q[: j + 1].conj() @ w
            w -= c @ Q[: j + 1]
            H[lo: j + 1, j] += c[lo:]
            h = float(la.norm(w, check_finite=False))
        # with no full pass, h is the first pass's norm

        if h <= BREAKDOWN_RTOL * norm_w:
            yield j + 1, H, Q, beta
            return
        H[j + 1, j] = h
        Q[j + 1] = w / h
        yield j + 1, H, Q, beta
