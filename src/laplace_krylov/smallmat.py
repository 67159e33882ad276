"""Dense kernels on the small projected matrices.

Everything here works on the m x m Hessenberg matrices of a restart cycle:
actions of exp(-t H) on a vector for a whole array of quadrature nodes at
once, Hermitian eigendecompositions behind them, and the shifted resolvent
entries e_m^T (H + t I)^{-1} e_1.
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
    "one_minus_expm_action",
    "resolvent_entry",
    "smallmat_nu",
]

# scaling threshold for the degree-20 truncated Taylor action in double
# precision; dense Pade expm takes over for strongly scaled arguments
TAYLOR_THETA = 5.37
TAYLOR_DEGREE = 20
PADE_SWITCH_SIGMA = 25
PADE_CHUNK = 64


@dataclass
class SpectralCache:
    """Eigendecomposition H = X diag(D) X^H of a Hermitian matrix."""

    D: np.ndarray       # ascending real eigenvalues
    X: np.ndarray       # orthonormal eigenvectors (columns)
    x_e1: np.ndarray    # X^H e_1


def eig_hermitian(H: np.ndarray, tol: float = 1e-8) -> SpectralCache:
    """Eigendecomposition of a (numerically) Hermitian matrix."""
    H = np.asarray(H)
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.conj().T).max()) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    D, X = la.eigh((H + H.conj().T) / 2.0)
    return SpectralCache(D=D, X=X, x_e1=X.conj().T[:, 0].copy())


def expm_columns(H: np.ndarray, v: np.ndarray, t, cache: SpectralCache | None = None,
                 one_minus: bool = False) -> np.ndarray:
    """Columns exp(-t_i H) v, or (I - exp(-t_i H)) v, for nodes t_i >= 0.

    Returns an m x q array for q nodes. With a spectral cache the Hermitian
    closed form is used. Otherwise every node gets a scaled degree-20
    truncated Taylor evaluation, all nodes in one sweep, except nodes whose
    scaling would make that sweep more expensive, which take a dense Pade
    expm. Columns that overflow are returned as they come out (inf or nan).
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
    # trace shift centers the spectrum; without it a decaying exponential
    # loses relative accuracy to cancellation in the Taylor sum
    mu = np.trace(H) / m
    Hs = H - mu * np.eye(m, dtype=H.dtype)
    sigma = np.ceil(t * _norm1(Hs) / TAYLOR_THETA)
    out = np.empty((m, t.size), dtype=np.result_type(H, v, float))
    # sigma = 0 means t ||H - mu I|| = 0, where exp(-t H) v = exp(-t mu) v
    flat = sigma == 0.0
    out[:, flat] = np.exp(-t[flat] * mu) * v[:, None]
    # column i takes sigma_i steps of exp(-(t_i / sigma_i) H), starting at v
    steps = np.where(sigma > PADE_SWITCH_SIGMA, 0.0, sigma)
    out[:, steps > 0] = v[:, None]
    for step in range(int(steps.max(initial=0.0))):
        i = np.flatnonzero(steps > step)
        eta = np.exp(-t[i] * mu / steps[i])
        out[:, i] = eta * _taylor(Hs, out[:, i], -t[i] / steps[i])
    # the rest take a dense expm, stacked PADE_CHUNK nodes at a time so
    # that memory stays at PADE_CHUNK m x m matrices
    pade = np.flatnonzero(sigma > PADE_SWITCH_SIGMA)
    for lo in range(0, pade.size, PADE_CHUNK):
        i = pade[lo:lo + PADE_CHUNK]
        out[:, i] = (la.expm(-t[i, None, None] * H) @ v).T
    if one_minus:
        out = v[:, None] - out
        # Taylor sum of exp(-tH) minus its identity term: no subtraction of
        # nearly equal quantities
        small = t * _norm1(H) <= 0.5
        vs = np.repeat(v[:, None], np.count_nonzero(small), axis=1)
        out[:, small] = -_taylor(H, vs, -t[small], identity=False)
    return out


def _taylor(A: np.ndarray, W: np.ndarray, c: np.ndarray, identity: bool = True) -> np.ndarray:
    """Per column i: sum_{j=0..20} (c_i A)^j W_i / j!, or from j = 1."""
    term = W
    s = W if identity else 0.0   # never updated in place
    for j in range(1, TAYLOR_DEGREE + 1):
        term = (A @ term) * c / j
        s = s + term
    return s


def expm_action(H: np.ndarray, v: np.ndarray, t: float,
                cache: SpectralCache | None = None) -> np.ndarray:
    """exp(-t H) v for t >= 0: one node of :func:`expm_columns`."""
    return expm_columns(H, v, [t], cache)[:, 0]


def one_minus_expm_action(H: np.ndarray, v: np.ndarray, t: float,
                          cache: SpectralCache | None = None) -> np.ndarray:
    """(I - exp(-t H)) v, computed without cancellation for small t*H."""
    return expm_columns(H, v, [t], cache, one_minus=True)[:, 0]


def _norm1(H: np.ndarray) -> float:
    return float(np.abs(H).sum(axis=0).max())


def resolvent_entry(H: np.ndarray, t: float) -> float:
    """psi(t) = e_m^T (H + t I)^{-1} e_1 via a dense LU solve."""
    H = np.asarray(H)
    m = H.shape[0]
    A = H + t * np.eye(m, dtype=H.dtype)
    e1 = np.zeros(m, dtype=H.dtype)
    e1[0] = 1.0
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = la.solve(A, e1)
    except la.LinAlgError as exc:
        raise ValueError(f"singular shift t={t}") from exc
    if not np.all(np.isfinite(x)):
        raise ValueError(f"singular shift t={t}")
    return x[m - 1]


def smallmat_nu(H: np.ndarray) -> float:
    """Smallest real part of the spectrum of H."""
    H = np.asarray(H)
    if float(np.abs(H - H.conj().T).max()) <= 1e-12 * max(1.0, float(np.abs(H).max())):
        return float(la.eigvalsh((H + H.conj().T) / 2.0)[0])
    return float(np.min(la.eigvals(H).real))
