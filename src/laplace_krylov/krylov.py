"""Arnoldi (and Hermitian Lanczos) decompositions of fixed cycle length.

A single code path covers both cases: classical Gram-Schmidt applied twice,
each pass two matrix-vector products against a row-major basis. Two passes
keep the basis orthonormal to working precision ("twice is enough", Giraud,
Langou and Rozloznik, Comput. Math. Appl. 2005) at the flop count of
modified Gram-Schmidt, without its per-column loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator

__all__ = ["KrylovDecomposition", "arnoldi"]

BREAKDOWN_RTOL = 1e-14


@dataclass
class KrylovDecomposition:
    """One Arnoldi cycle: A V = V H + h_next v_next e_m^T."""

    V: np.ndarray          # n x m orthonormal basis
    H: np.ndarray          # m x m upper Hessenberg
    h_next: float          # subdiagonal coupling h_{m+1,m} >= 0 (0 on breakdown)
    v_next: np.ndarray     # next unit basis vector (unused when h_next == 0)
    m: int
    beta: float            # norm of the starting vector
    hermitian: bool = False

    @property
    def breakdown(self) -> bool:
        return self.h_next == 0.0


def arnoldi(op: LinearOperator, start: np.ndarray, m: int) -> KrylovDecomposition:
    """Build a length-m Arnoldi decomposition from ``start``.

    On a lucky breakdown at step j < m the decomposition is truncated to
    size j and h_next is 0; a non-finite matvec raises at its step. For
    Hermitian operators H is symmetrized before it is returned so downstream
    eigendecompositions see an exactly symmetric matrix. ``V`` and
    ``v_next`` are views of one basis array.
    """
    start = np.asarray(start, dtype=complex if np.iscomplexobj(start) else float)
    n = op.n
    if start.shape != (n,):
        raise ValueError("starting vector has wrong length")
    if not (1 <= m <= n):
        raise ValueError("cycle length must satisfy 1 <= m <= n")
    beta = float(np.linalg.norm(start))
    if beta == 0.0:
        raise ValueError("starting vector must be nonzero")

    Q = np.zeros((m + 1, n), dtype=start.dtype)  # basis vectors as rows
    H = np.zeros((m + 1, m), dtype=start.dtype)
    Q[0] = start / beta

    size = m
    broke = False
    for j in range(m):
        w = op.apply(Q[j])
        if np.iscomplexobj(w) and not np.iscomplexobj(Q):
            Q = Q.astype(complex)
            H = H.astype(complex)
        # a copy: the operator may return (a view of) the row it was given
        w = np.array(w, dtype=Q.dtype)
        norm_w = np.linalg.norm(w)
        if not np.isfinite(norm_w) and not np.all(np.isfinite(w)):
            raise ValueError(f"operator returned non-finite values at Arnoldi step {j + 1}")
        basis = Q[: j + 1]
        for _ in range(2):
            c = basis.conj() @ w
            w -= c @ basis
            H[: j + 1, j] += c

        h = np.linalg.norm(w)
        if h <= BREAKDOWN_RTOL * norm_w:
            size = j + 1
            broke = True
            break
        H[j + 1, j] = h
        Q[j + 1] = w / h

    Hs = np.array(H[:size, :size])
    h_next = 0.0 if broke else float(H[size, size - 1].real)
    v_next = Q[size] if not broke else np.zeros(n, dtype=Q.dtype)

    if op.hermitian:
        Hs = (Hs + Hs.conj().T) / 2.0
        if np.iscomplexobj(Hs) and np.max(np.abs(Hs.imag)) < 1e-13 * max(1.0, np.abs(Hs).max()):
            Hs = Hs.real

    return KrylovDecomposition(
        V=Q[:size].T,
        H=Hs,
        h_next=h_next,
        v_next=v_next,
        m=size,
        beta=beta,
        hermitian=op.hermitian,
    )
