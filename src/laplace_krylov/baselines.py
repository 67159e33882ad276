"""Comparators: two-pass Lanczos, CG, restarted GMRES, reference oracles.

These are the baseline methods the restarted transforms are measured
against, plus the composite "first solve a linear system, then restart on a
Stieltjes function" pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .krylov import arnoldi
from .operators import LinearOperator
from .restart import RestartConfig, TransformFunction, restarted_laplace

__all__ = [
    "TwoPassReport",
    "two_pass_lanczos",
    "cg_solve",
    "gmres_solve",
    "reference_apply",
    "stieltjes_pipeline",
]


class IterationLimitError(RuntimeError):
    """An iterative solver hit its iteration cap before converging."""


class StagnationError(RuntimeError):
    """Restarted GMRES made no progress over several consecutive restarts."""


@dataclass
class TwoPassReport:
    steps: int                      # Lanczos steps j of pass 1
    matvecs: int                    # 2 j
    converged: bool
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    final_error: float = math.nan


def _f_of_tridiag(alphas, betas, scalar_form):
    """F(H_j) e_1 * ||b|| coefficient vector for a Lanczos tridiagonal."""
    j = len(alphas)
    if j == 1:
        return np.array([float(scalar_form(alphas[0]))])
    d, q = la.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    return q @ (np.asarray(scalar_form(d)) * q[0, :])


def _lanczos(op: LinearOperator, v: np.ndarray, steps: int):
    """Plain Lanczos three-term recurrence from the unit vector v.

    Yields (v_j, alpha_j, beta_j, broke) for j = 1..steps at one matvec each,
    without storing the basis; ``broke`` flags the breakdown step, the last.
    """
    v_prev = np.zeros_like(v)
    beta_prev = 0.0
    for _ in range(steps):
        w = op.apply(v) - beta_prev * v_prev
        scale = float(np.linalg.norm(w))
        alpha = np.vdot(v, w).real
        w = w - alpha * v
        beta = float(np.linalg.norm(w))
        broke = beta <= 1e-14 * max(scale, abs(alpha))
        yield v, alpha, beta, broke
        if broke:
            return
        v_prev, v = v, w / beta
        beta_prev = beta


def _lanczos_sum(op: LinearOperator, v: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Pass 2: sum_i coeff_i v_i over the Lanczos vectors regenerated from v,
    in O(n) memory. The sum takes v's dtype, promoted once when a complex
    operator meets a real v."""
    f = np.zeros_like(v)
    for c, (u, *_) in zip(coeff, _lanczos(op, v, len(coeff))):
        if u.dtype != f.dtype:
            f = f.astype(np.result_type(f, u))
        f += c * u
    return f


def two_pass_lanczos(op: LinearOperator, b: np.ndarray, fn: TransformFunction,
                     tol: float, check_every_m: int,
                     reference: np.ndarray | None = None,
                     max_steps: int | None = None):
    """Memory-light F(A)b for Hermitian A via the two-pass Lanczos method.

    Pass 1 runs the plain three-term recurrence without storing the basis
    and checks convergence every ``check_every_m`` steps; pass 2 regenerates
    the same vectors and accumulates the approximation. With a reference
    vector the stopping test is the true relative error (the benchmark
    protocol); without one it is the relative change of the projected
    coefficient vector between checkpoints.

    Requires a scalar closed form on ``fn`` to evaluate F on the Ritz values.
    """
    if not op.hermitian:
        raise ValueError("two-pass Lanczos needs a Hermitian operator")
    if fn.scalar_form is None:
        raise ValueError("two-pass Lanczos needs a scalar closed form for F")
    n = op.n
    if max_steps is None:
        max_steps = min(n, 1000)
    bnorm = float(la.norm(b, check_finite=False))  # nrm2 scales: no overflow past 1e154
    if not (math.isfinite(bnorm) and bnorm > 0):
        raise ValueError("b must be finite and nonzero")
    ref_norm = float(np.linalg.norm(reference)) if reference is not None else 0.0

    report = TwoPassReport(steps=0, matvecs=0, converged=False)
    alphas: list[float] = []
    betas: list[float] = []     # betas[:-1] are the off-diagonals of the tridiagonal
    u_dots: list[complex] = []
    y_prev = None
    for j, (v, alpha, beta, broke) in enumerate(_lanczos(op, b / bnorm, max_steps), start=1):
        alphas.append(alpha)
        betas.append(beta)
        if reference is not None:
            u_dots.append(np.vdot(v, reference))
        if broke:
            # invariant subspace found: the approximation is exact
            report.converged = True
            break
        if j % check_every_m != 0 and j != max_steps:
            continue
        y = _f_of_tridiag(alphas, betas[:-1], fn.scalar_form)
        if reference is not None:
            # ||f_j - ref||^2 expanded through the tracked projections; the
            # cancellation floor ~1e-8 relative is fine for stopping at 1e-7
            u = np.asarray(u_dots)
            err2 = ref_norm**2 - 2.0 * bnorm * float((y @ u).real) + bnorm**2 * float(y @ y)
            rel = math.sqrt(max(err2, 0.0)) / ref_norm
            report.checkpoints.append((j, rel))
            if rel <= tol:
                report.converged = True
                break
        else:
            if y_prev is not None:
                diff = y.copy()
                diff[: y_prev.size] -= y_prev
                rel = float(np.linalg.norm(diff) / np.linalg.norm(y))
                report.checkpoints.append((j, rel))
                if rel <= tol:
                    report.converged = True
                    break
            y_prev = y
    report.steps = len(alphas)

    # pass 2 regenerates the same steps: 2 * steps matvecs in total
    coeff = _f_of_tridiag(alphas, betas[:-1], fn.scalar_form)
    f = bnorm * _lanczos_sum(op, b / bnorm, coeff)
    report.matvecs = 2 * report.steps
    if reference is not None:
        report.final_error = float(np.linalg.norm(f - reference) / ref_norm)
    return f, report


def cg_solve(op: LinearOperator, b: np.ndarray, rtol: float,
             max_iter: int | None = None):
    """Conjugate gradients for Hermitian positive definite systems.

    Starts from zero, so the matvec count equals the iteration count.
    """
    if not op.hermitian:
        raise ValueError("CG needs a Hermitian operator")
    n = op.n
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
    target = rtol * math.sqrt(np.vdot(b, b).real)
    if math.sqrt(rs) <= target:
        return x, 0
    for it in range(1, max_iter + 1):
        Ap = op.apply(p)
        alpha = rs / np.vdot(p, Ap).real
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = np.vdot(r, r).real
        if math.sqrt(rs_new) <= target:
            return x, it
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise IterationLimitError(f"CG did not reach rtol={rtol} within {max_iter} iterations")


def gmres_solve(op: LinearOperator, b: np.ndarray, rtol: float, restart: int,
                max_restarts: int = 10000):
    """Restarted GMRES from a zero initial guess.

    The new residual after a cycle is reconstructed from the Arnoldi basis,
    so the matvec count is exactly cycles * restart. Raises on stagnation
    over three consecutive restarts.
    """
    n = op.n
    bnorm = float(np.linalg.norm(b))
    target = rtol * bnorm
    x = np.zeros(n)
    r = b.copy()
    res = bnorm
    stagnant = 0
    iters = 0
    for _ in range(max_restarts):
        dec = arnoldi(op, r, min(restart, n))
        m = dec.m
        iters += m
        # least squares on the (m+1) x m extended Hessenberg
        Hbar = np.zeros((m + 1, m), dtype=dec.H.dtype)
        Hbar[:m, :m] = dec.H
        Hbar[m, m - 1] = dec.h_next
        rhs = np.zeros(m + 1, dtype=dec.H.dtype)
        rhs[0] = dec.beta
        y, *_ = la.lstsq(Hbar, rhs)
        x = x + dec.V @ y
        resid_coeff = rhs - Hbar @ y
        new_res = float(np.linalg.norm(resid_coeff))
        if new_res <= target:
            return x, iters
        if new_res >= 0.999 * res:
            stagnant += 1
            if stagnant >= 3:
                raise StagnationError(
                    f"GMRES stagnated at residual {new_res:.3e} (target {target:.3e})"
                )
        else:
            stagnant = 0
        # residual vector without an extra matvec
        r = dec.V @ resid_coeff[:m]
        if dec.h_next != 0.0:
            r = r + resid_coeff[m] * dec.v_next
        res = new_res
    raise IterationLimitError("GMRES restart limit exceeded")


# ---------------------------------------------------------------------------
# Reference oracles for benchmark error measurement
# ---------------------------------------------------------------------------

def _scalar_on_matrix(fn: TransformFunction, H: np.ndarray) -> np.ndarray:
    """F(H) e_1 for a small dense non-Hermitian H, per builtin function."""
    m = H.shape[0]
    e1 = np.zeros(m)
    e1[0] = 1.0
    if fn.name == "power-neg-3-2":
        s = la.sqrtm(H)
        return np.real(la.solve(H @ s, e1))
    if fn.name in ("sqrt",):
        return np.real(la.sqrtm(H) @ e1)
    if fn.name == "inv-sqrt-stieltjes":
        return np.real(la.solve(la.sqrtm(H), e1))
    if fn.scalar_form is not None:
        F, errest = la.funm(H, lambda z: np.asarray(fn.scalar_form(z)), disp=False)
        scale = max(1.0, float(np.linalg.norm(F, 1)))
        if not np.isfinite(errest) or errest > 1e-8 * scale:
            raise ValueError(
                f"dense evaluation of {fn.name} on a non-normal projection is "
                f"not accurate enough for a reference (estimate {errest:.2e})"
            )
        return np.real(F @ e1)
    raise ValueError(f"no dense evaluation available for {fn.name}")


def reference_apply(op: LinearOperator, dense: np.ndarray | None, b: np.ndarray,
                    fn: TransformFunction, steps: int = 400) -> np.ndarray:
    """High-accuracy F(A)b used as the benchmark reference.

    Hermitian A: dense spectral solve for n <= 1000 (when the dense matrix
    is available), otherwise two-pass Lanczos over ``min(steps, n)`` steps
    with no stored basis: O(n) memory and 2 steps matvecs. Without
    reorthogonalization ||b|| V F(T) e_1 stays accurate (Druskin, Greenbaum
    & Knizhnerman, SISC 19, 1998; Musco, Musco & Sidford, SODA 2018).
    Non-Hermitian A: unrestarted Arnoldi with dense evaluation of F on the
    projected matrix.
    """
    if fn.scalar_form is None:
        raise ValueError("reference evaluation needs a scalar closed form")
    n = op.n
    if op.hermitian and dense is not None and n <= 1000:
        w, q = la.eigh(dense)
        return q @ (np.asarray(fn.scalar_form(w)) * (q.conj().T @ b))
    if op.hermitian:
        bnorm = float(la.norm(b, check_finite=False))
        if not (math.isfinite(bnorm) and bnorm > 0):
            raise ValueError("b must be finite and nonzero")
        v = b / bnorm
        t = np.array([(alpha, beta) for _, alpha, beta, _ in _lanczos(op, v, min(steps, n))])
        coeff = _f_of_tridiag(t[:, 0], t[:-1, 1], fn.scalar_form)
        return bnorm * _lanczos_sum(op, v, coeff)
    dec = arnoldi(op, b, min(steps, n))
    return dec.beta * (dec.V @ _scalar_on_matrix(fn, dec.H))


def stieltjes_pipeline(op: LinearOperator, b: np.ndarray, fn: TransformFunction,
                       power: int, cfg: RestartConfig, rtol: float = 1e-9,
                       reference: np.ndarray | None = None):
    """F(A) b evaluated as G(A) (A^power b) with a Stieltjes G.

    power = -1 solves A c = b first (CG when Hermitian, restarted GMRES
    otherwise); power = +1 multiplies once. Returns the approximation, the
    restart report of the second phase and the first-phase matvec count.
    """
    if power not in (-1, 1):
        raise ValueError("power must be -1 or +1")
    if power == -1:
        if op.hermitian:
            c, first = cg_solve(op, b, rtol)
        else:
            c, first = gmres_solve(op, b, rtol, restart=cfg.m)
    else:
        c = op.apply(b)
        first = 1
    x, report = restarted_laplace(op, c, fn, cfg, reference=reference)
    return x, report, first
