"""Arnoldi (and Hermitian Lanczos) decompositions of fixed cycle length.

One loop: classical Gram-Schmidt applied twice against a row-major basis
keeps it orthonormal to working precision ("twice is enough", Giraud, Langou
and Rozloznik, Comput. Math. Appl. 2005). For Hermitian operators the first
pass is the Lanczos three-term step; restart cycles skip the full second one
until Simon's estimate of the lost orthogonality asks for it (Math. Comp. 1984).
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
    hermitian: bool = False

    @property
    def breakdown(self) -> bool:
        return self.h_next == 0.0


def arnoldi(op: LinearOperator, start: np.ndarray, m: int, *,
            _basis: np.ndarray | None = None) -> KrylovDecomposition:
    """Build a length-m Arnoldi decomposition from ``start``.

    Each step orthogonalizes A v_j by two classical Gram-Schmidt passes. For
    Hermitian A the first runs over v_{j-1}, v_j only (H is tridiagonal) and
    the second spans the whole basis, since in floating point A v_j drifts
    onto older vectors. ``_basis``, an (m+1) x n buffer for the basis, makes
    a restart cycle: for Hermitian A it skips the full pass until Simon's
    recurrence puts the loss of orthogonality above sqrt(eps), then runs it
    at every step with H kept tridiagonal. The Arnoldi relation then holds to
    rounding (Paige 1976) except in the first two full-pass columns: O(sqrt(eps) h).

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
    with np.errstate(over="ignore", under="ignore"):
        beta = float(np.linalg.norm(start))
    if not 0.0 < beta < np.inf:
        # squared entries past ~1e154 overflow and below ~1e-162 underflow
        # (or start is zero or non-finite); BLAS nrm2 scales
        beta = float(la.norm(start, check_finite=False))
    if beta == 0.0:
        raise ValueError("starting vector must be nonzero")

    # basis vectors as rows; start may be a row of _basis, and start / beta is a copy
    Q = np.zeros((m + 1, n), start.dtype) if _basis is None else np.asarray(_basis, start.dtype)
    H = np.zeros((m + 1, m), dtype=start.dtype)
    Q[0] = start / beta
    # Simon's omega rows j-1, j (om[k] ~ |v_j^H v_k|), advanced by the Lanczos recurrence
    full, om_prev, om = _basis is None or not op.hermitian, np.zeros(m + 1), np.eye(1, m + 1)[0]
    eps1 = np.sqrt(n) * np.finfo(float).eps / 2

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
        lo = max(j - 1, 0) if op.hermitian else 0
        c = Q[lo: j + 1].conj() @ w
        w -= c @ Q[lo: j + 1]
        H[lo: j + 1, j] += c
        if not full:
            h = max(np.linalg.norm(w), 1e-300)
            al, be = H.diagonal().real, H.diagonal(-1).real
            t = (al[:j] - al[j]) * om[:j] + H.diagonal(1).real[:j] * om[1: j + 1]
            t[1:] += be[:lo] * om[:lo]
            t -= be[j - 1] * om_prev[:j]
            om_prev, om = om, om_prev
            om[:j] = (t + np.copysign(eps1 * (be[:j] + h), t)) / h
            om[j: j + 2] = eps1 * norm_w / h, 1.0
            full = np.abs(om[:j + 1]).max() > SEMI_ORTH
        if full:
            top = 0 if _basis is None else lo
            c = Q[: j + 1].conj() @ w
            w -= c @ Q[: j + 1]
            H[top: j + 1, j] += c[top:]

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
