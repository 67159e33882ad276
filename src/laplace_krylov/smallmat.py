"""Dense kernels on the small projected matrices.

Everything here works on the m x m Hessenberg matrices of a restart cycle:
the columns exp(-t H) v, or (I - exp(-t H)) v, for a whole array of
quadrature nodes at once: a closed form from the eigendecomposition when H is
Hermitian, scipy's expm otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = [
    "SpectralCache",
    "eig_hermitian",
    "expm_action",
    "expm_columns",
]

# nodes per stacked expm call, which bounds its memory to PADE_CHUNK small matrices
PADE_CHUNK = 64


@dataclass
class SpectralCache:
    """Eigendecomposition H = X diag(D) X^H of a Hermitian matrix."""

    D: np.ndarray       # ascending real eigenvalues
    X: np.ndarray       # orthonormal eigenvectors (columns)


def eig_hermitian(H: np.ndarray, tol: float = 1e-8) -> SpectralCache:
    """Eigendecomposition of a (numerically) Hermitian matrix."""
    H = np.asarray(H)
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.conj().T).max()) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    D, X = la.eigh((H + H.conj().T) / 2.0)
    return SpectralCache(D=D, X=X)


def expm_columns(H: np.ndarray, v: np.ndarray, t, cache: SpectralCache | None = None,
                 one_minus: bool = False) -> np.ndarray:
    """Columns exp(-t_i H) v, or (I - exp(-t_i H)) v, for nodes t_i >= 0.

    Returns an m x q array for q nodes. With a spectral cache the Hermitian
    closed form is used. Otherwise each node takes scipy's scaling-and-squaring
    expm (Al-Mohy & Higham 2009), PADE_CHUNK nodes per stacked call. For
    ``one_minus`` the argument is the augmented matrix -t [[H, H v], [0, 0]],
    whose exponential holds (exp(-t H) - I) v in its last column (Al-Mohy &
    Higham 2011), so small t suffers no cancellation. Columns that overflow
    are returned as they come out (inf or nan).
    """
    H = np.asarray(H)
    v = np.asarray(v)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(H)) or not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries")
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("t must be finite and nonnegative")
    if cache is not None:
        dt = np.outer(cache.D, t)
        # modes of negative eigenvalues overflow at large t; callers mask
        # those columns where their weight is zero
        with np.errstate(over="ignore", invalid="ignore"):
            ex = -np.expm1(-dt) if one_minus else np.exp(-dt)
            return cache.X @ (ex * (cache.X.conj().T @ v)[:, None])
    m = H.shape[0]
    dtype = np.result_type(H, v, float)
    if one_minus:
        A = np.zeros((m + 1, m + 1), dtype=dtype)
        A[:m, :m] = H
        A[:m, m] = H @ v
    else:
        A = H
    out = np.empty((m, t.size), dtype=dtype)
    for lo in range(0, t.size, PADE_CHUNK):
        c = slice(lo, lo + PADE_CHUNK)
        ex = la.expm(-t[c, None, None] * A)
        out[:, c] = -ex[:, :m, m].T if one_minus else (ex @ v).T
    return out


def expm_action(H: np.ndarray, v: np.ndarray, t: float,
                cache: SpectralCache | None = None) -> np.ndarray:
    """exp(-t H) v for t >= 0: one node of :func:`expm_columns`."""
    return expm_columns(H, v, [t], cache)[:, 0]
