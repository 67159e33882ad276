"""Comparators: two-pass Lanczos, CG, restarted GMRES, reference oracles.

The baselines the restarted transforms are measured against, and the
"solve a linear system, then restart on a Stieltjes function" pipeline.
Two-pass Lanczos keeps its own three-term recurrence: O(n) memory and no
reorthogonalization. CG is hand-written because scipy's cg takes its dtype
from A, which a LinearOperator does not declare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .krylov import BREAKDOWN_RTOL, _arnoldi_steps, arnoldi
from .operators import LinearOperator
from .restart import RestartConfig, TransformFunction, _checked_norm, restarted_laplace

__all__ = [
    "TwoPassReport",
    "two_pass_lanczos",
    "cg_solve",
    "gmres_solve",
    "reference_apply",
    "stieltjes_pipeline",
]

GMRES_MAX_RESTARTS = 10000


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
    d, q = la.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    return q @ (np.asarray(scalar_form(d)) * q[0, :])


def _change_norm(y: np.ndarray, y_prev: np.ndarray) -> float:
    """||y - y_prev|| for coefficient vectors, y_prev zero-padded to y's length."""
    return float(np.linalg.norm(y - np.pad(y_prev, (0, y.size - y_prev.size))))


def _lanczos(op: LinearOperator, v: np.ndarray, steps: int):
    """Plain Lanczos three-term recurrence from the unit vector v.

    Yields (v_j, alpha_j, beta_j, broke) for j = 1..steps at one matvec each,
    without storing the basis; ``broke`` flags the breakdown step, the last.
    """
    v_prev = np.zeros_like(v)
    beta_prev = 0.0
    for _ in range(steps):
        w = op.apply(v) - beta_prev * v_prev
        scale = float(la.norm(w, check_finite=False))
        alpha = np.vdot(v, w).real
        w = w - alpha * v
        beta = float(la.norm(w, check_finite=False))
        broke = beta <= BREAKDOWN_RTOL * max(scale, abs(alpha))
        yield v, alpha, beta, broke
        if broke:
            return
        v_prev, v = v, w / beta
        beta_prev = beta


def _lanczos_pass2(op: LinearOperator, b: np.ndarray, bnorm: float, coeff: np.ndarray):
    """Pass 2: ||b|| V_j coeff, regenerating the j = coeff.size Lanczos vectors."""
    return bnorm * sum(c * u for c, (u, *_) in zip(coeff, _lanczos(op, b / bnorm, len(coeff))))


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
    for name, value in (("check_every_m", check_every_m), ("max_steps", max_steps)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    bnorm = _checked_norm(b, "b", n)
    ref_norm = _checked_norm(reference, "reference", n) if reference is not None else 0.0

    report = TwoPassReport(steps=0, matvecs=0, converged=False)
    alphas: list[float] = []
    betas: list[float] = []     # betas[:-1] are the off-diagonals of the tridiagonal
    u_dots: list[complex] = []
    y = y_prev = None
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
                rel = _change_norm(y, y_prev) / float(np.linalg.norm(y))
                report.checkpoints.append((j, rel))
                if rel <= tol:
                    report.converged = True
                    break
            y_prev = y
    report.steps = len(alphas)

    # a run that ended on a checkpoint already holds the coefficients
    coeff = (y if y is not None and y.size == len(alphas)
             else _f_of_tridiag(alphas, betas[:-1], fn.scalar_form))
    f = _lanczos_pass2(op, b, bnorm, coeff)
    report.matvecs = 2 * report.steps
    if reference is not None:
        report.final_error = float(np.linalg.norm(f - reference) / ref_norm)
    return f, report


def cg_solve(op: LinearOperator, b: np.ndarray, rtol: float):
    """Conjugate gradients for Hermitian positive definite systems.

    Starts from zero, so the matvec count equals the iteration count; raises
    after 10 n iterations.
    """
    if not op.hermitian:
        raise ValueError("CG needs a Hermitian operator")
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    n = op.n
    max_iter = 10 * n
    target = rtol * _checked_norm(b, "b", n)
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
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


def gmres_solve(op: LinearOperator, b: np.ndarray, rtol: float, restart: int):
    """Restarted GMRES from a zero initial guess.

    The new residual after a cycle is reconstructed from the Arnoldi basis,
    so the matvec count is exactly cycles * restart. Raises on stagnation
    over three consecutive restarts, or after GMRES_MAX_RESTARTS cycles.
    """
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    n = op.n
    bnorm = float(np.linalg.norm(b))
    target = rtol * bnorm
    x = np.zeros(n)
    r = b.copy()
    res = bnorm
    stagnant = 0
    iters = 0
    for _ in range(GMRES_MAX_RESTARTS):
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

# Step cap, checkpoint spacing and settled change of the references: a settled
# F(T_k) e_1 changes at the rounding floor (1e-14 to 8e-14 in the tests).
REF_MAX_STEPS = 400
REF_CHECK_EVERY = 25
REF_SETTLED_RTOL = 1e-12

# F(H) e_1 of a small non-Hermitian H in closed form through sqrtm; Schur-Parlett
# fails on the close eigenvalues of Arnoldi projections (Davies & Higham, SIMAX 2003)
_DENSE_FORMS = {
    "power-neg-3-2": lambda H, e1: la.solve(H @ la.sqrtm(H), e1),
    "sqrt": lambda H, e1: la.sqrtm(H) @ e1,
    "inv-sqrt-stieltjes": lambda H, e1: la.solve(la.sqrtm(H), e1),
}


class _Settled:
    """The references' stop. Called after step k with ``evaluate()`` giving
    y_k = F(T_k) e_1, it is true at the last step and after two successive
    checkpoints, REF_CHECK_EVERY steps apart, that each change y_k by at most
    REF_SETTLED_RTOL ||y_k|| (Saad, SINUM 29, 1992); ``y`` is then y_k. A
    checkpoint whose evaluation raises is not settled; the last one may raise.
    """

    y, count = None, 0

    def __call__(self, k: int, last: bool, evaluate) -> bool:
        if not last and k % REF_CHECK_EVERY != 0:
            return False
        try:
            y = evaluate()
        except ValueError:
            if last:
                raise
            self.y, self.count = None, 0
            return False
        small = self.y is not None and (
            _change_norm(y, self.y) <= REF_SETTLED_RTOL * np.linalg.norm(y))
        self.y, self.count = y, self.count + 1 if small else 0
        return last or self.count == 2


def reference_apply(op: LinearOperator, dense: np.ndarray | None, b: np.ndarray,
                    fn: TransformFunction) -> np.ndarray:
    """High-accuracy F(A)b used as the benchmark reference.

    Hermitian A: dense spectral solve for n <= 1000 (when the dense matrix
    is available), otherwise two-pass Lanczos with no stored basis: O(n)
    memory and 2 matvecs a step. Without reorthogonalization
    ||b|| V F(T) e_1 stays accurate (Druskin, Greenbaum & Knizhnerman,
    SISC 19, 1998; Musco, Musco & Sidford, SODA 2018).
    Non-Hermitian A: unrestarted Arnoldi with F(H_k) e_1 from the dense
    closed form in ``_DENSE_FORMS``; a function without one is refused
    before the first matvec. Both stop once F(T_k) e_1 has settled
    (:class:`_Settled`), at a breakdown, or after min(REF_MAX_STEPS, n) steps.
    """
    if fn.scalar_form is None:
        raise ValueError("reference evaluation needs a scalar closed form")
    form = _DENSE_FORMS.get(fn.name)
    if not op.hermitian and form is None:
        raise ValueError(f"no dense form of {fn.name} for a non-Hermitian reference "
                         f"(there are forms of {', '.join(_DENSE_FORMS)})")
    n = op.n
    cap, settled = min(REF_MAX_STEPS, n), _Settled()
    if op.hermitian and dense is not None and n <= 1000:
        w, q = la.eigh(dense)
        return q @ (np.asarray(fn.scalar_form(w)) * (q.conj().T @ b))
    if op.hermitian:
        bnorm = _checked_norm(b, "b", n)
        alphas, betas = [], []
        for k, (_, alpha, beta, broke) in enumerate(_lanczos(op, b / bnorm, cap), start=1):
            alphas.append(alpha)
            betas.append(beta)
            if settled(k, k == cap or broke,
                       lambda: _f_of_tridiag(alphas, betas[:-1], fn.scalar_form)):
                return _lanczos_pass2(op, b, bnorm, settled.y)
    for k, H, Q, beta in _arnoldi_steps(op, b, cap):
        if settled(k, k == cap or H[k, k - 1] == 0.0,
                   lambda: np.real(form(np.array(H[:k, :k]), np.eye(1, k)[0]))):
            return beta * (Q[:k].T @ settled.y)


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
