"""Dense kernels on the small projected matrices.

Everything here works on the m x m Hessenberg matrices of a restart cycle:
the columns exp(-t H) v, or (I - exp(-t H)) v, for a whole array of
quadrature nodes at once. Both come in closed form from one
eigendecomposition per cycle, unitary when H is Hermitian and general
otherwise; a general H whose eigenvector basis is ill conditioned takes
scipy's expm at every node instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = [
    "SpectralCache",
    "eig_general",
    "eig_hermitian",
    "expm_action",
    "expm_columns",
]

# nodes per stacked expm call, which bounds its memory to PADE_CHUNK small matrices
PADE_CHUNK = 64

# Largest kappa_1(X) = ||X||_1 ||X^{-1}||_1 of an eigenvector basis that the
# closed form accepts. Its columns carry a relative error of about
# u kappa_1(X) (Higham, Functions of Matrices, 2008, section 4.5), so at most
# ~1e-12 here: a hundredth of the chain's default quadrature target eps_q
# (1e-3 tol, so 1e-10 at the default tol 1e-7). The convection-diffusion
# cycles measure kappa_1 up to 1.7e3.
KAPPA_MAX = 1e4


@dataclass
class SpectralCache:
    """Eigendecomposition H = X diag(D) X^{-1} of a small matrix.

    ``Xinv`` is X^{-1}, which is X^H for Hermitian H. ``X`` and ``Xinv`` are
    None when the eigenvector basis of a general H is too ill conditioned
    for the closed form; D still holds the eigenvalues.
    """

    D: np.ndarray                   # eigenvalues, real for Hermitian H (eig_hermitian: ascending)
    X: np.ndarray | None            # eigenvectors (columns)
    Xinv: np.ndarray | None = None


def eig_hermitian(H: np.ndarray) -> SpectralCache:
    """Eigendecomposition of an exactly Hermitian H, as arnoldi returns it."""
    D, X = la.eigh(H)
    return SpectralCache(D=D, X=X, Xinv=X.conj().T)


def eig_general(H: np.ndarray) -> SpectralCache:
    """Eigendecomposition of a general matrix, with X dropped when
    kappa_1(X) exceeds KAPPA_MAX or X^{-1} is not finite."""
    D, X = la.eig(H)
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError:   # an exactly singular basis
        return SpectralCache(D=D, X=None)
    kappa = la.norm(X, 1, check_finite=False) * la.norm(Xinv, 1, check_finite=False)
    if not kappa <= KAPPA_MAX:      # also catches nan
        return SpectralCache(D=D, X=None)
    return SpectralCache(D=D, X=X, Xinv=Xinv)


def expm_columns(H: np.ndarray, v: np.ndarray, t, cache: SpectralCache | None = None,
                 one_minus: bool = False) -> np.ndarray:
    """Columns exp(-t_i H) v, or (I - exp(-t_i H)) v, for nodes t_i >= 0.

    Returns an m x q array for q nodes, real when H and v are real. With a
    spectral cache that holds X, the closed form
    X diag(exp(-t_i D)) X^{-1} v is used, with -expm1 for ``one_minus`` so
    that small t suffers no cancellation. Otherwise (no cache, or a basis
    with kappa_1(X) > KAPPA_MAX) each node takes scipy's scaling-and-squaring
    expm (Al-Mohy & Higham 2009), PADE_CHUNK nodes per stacked call; for
    ``one_minus`` the argument is the augmented matrix -t [[H, H v], [0, 0]],
    whose exponential holds (exp(-t H) - I) v in its last column (Al-Mohy &
    Higham 2011). Columns that overflow are returned as they come out (inf
    or nan).
    """
    H = np.asarray(H)
    v = np.asarray(v)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(H)) or not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries")
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("t must be finite and nonnegative")
    if cache is not None and cache.X is not None:
        dt = np.outer(cache.D, t)
        coef = cache.Xinv @ v
        # modes of eigenvalues with negative real part overflow at large t;
        # callers mask those columns where their weight is zero
        with np.errstate(over="ignore", invalid="ignore"):
            ex = -np.expm1(-dt) if one_minus else np.exp(-dt)
            out = cache.X @ (ex * coef[:, None])
        return out.real if np.isrealobj(H) and np.isrealobj(v) else out
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
