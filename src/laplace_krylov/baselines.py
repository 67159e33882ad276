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

from .krylov import BREAKDOWN_RTOL, _arnoldi_steps, _checked_norm, arnoldi
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


def _lanczos(op: LinearOperator, v: np.ndarray, steps: int):
    """Plain Lanczos three-term recurrence from the unit vector v.

    Yields (v_j, alpha_j, beta_j, broke) for j = 1..steps at one matvec each,
    without storing the basis; ``broke`` flags the breakdown step, the last.
    A non-finite matvec raises at its step.
    """
    v_prev = np.zeros_like(v)
    beta_prev = 0.0
    for j in range(1, steps + 1):
        w = op.apply(v) - beta_prev * v_prev
        scale = float(la.norm(w, check_finite=False))
        if not math.isfinite(scale):
            raise ValueError(f"operator returned non-finite values at Lanczos step {j}")
        alpha = np.vdot(v, w).real
        w = w - alpha * v
        beta = float(la.norm(w, check_finite=False))
        broke = beta <= BREAKDOWN_RTOL * max(scale, abs(alpha))
        yield v, alpha, beta, broke
        if broke:
            return
        v_prev, v = v, w / beta
        beta_prev = beta


class _Settled:
    """The checkpoint rule of every Krylov stop here. Called after step k with
    ``evaluate()`` giving y_k = F(T_k) e_1, it measures y_k at every
    ``every``-th step and the last: by ``error(y_k)`` when given, else by
    its relative change from the previous checkpoint's y (Saad, SINUM 29,
    1992; none at the first). A callable ``every`` gives the gap from
    checkpoint k to the next, ``every(k)`` (the first at ``every(0)``), and
    the change is then measured per step of its gap, so that short and long
    gaps are held to one rate. It is true at the last step and once ``need``
    successive checkpoints measure at most ``rtol``; ``y`` is then y_k and
    ``checkpoints`` holds the (k, measure) pairs. A checkpoint whose
    evaluation raises ``ValueError`` counts as unsettled; the last one raises.
    """

    def __init__(self, rtol: float, every, need: int, error=None):
        self.rtol, self.need, self.error = rtol, need, error or self._change
        self.per_step, self.gap = callable(every), every if callable(every) else lambda k: every
        self.y, self.count, self.checkpoints, self.k, self.next = None, 0, [], 0, self.gap(0)

    def _change(self, y: np.ndarray) -> float | None:
        if self.y is not None:   # self.y zero-padded to y's length
            return float(np.linalg.norm(y - np.pad(self.y, (0, y.size - self.y.size)))
                         / np.linalg.norm(y))

    def __call__(self, k: int, last: bool, evaluate) -> bool:
        if not last and k < self.next:
            return False
        self.next = k + self.gap(k)
        try:
            y = evaluate()
        except ValueError:
            if last:
                raise
            self.y, self.count = None, 0
            return False
        rel = self.error(y)
        if rel is not None:
            rel /= k - self.k if self.per_step else 1
            self.checkpoints.append((k, rel))
        self.y, self.k = y, k
        self.count = self.count + 1 if rel is not None and rel <= self.rtol else 0
        return last or self.count == self.need


def _two_pass(op: LinearOperator, b: np.ndarray, bnorm: float, scalar_form,
              cap: int, settled: _Settled, track=None):
    """Two-pass Lanczos: pass 1 hands each vector to ``track`` and runs until a
    breakdown or until ``settled`` stops it; pass 2 regenerates the k vectors
    and sums ||b|| V_k F(T_k) e_1. Returns (f, k, whether pass 1 broke down)."""
    alphas: list[float] = []
    betas: list[float] = []     # betas[:-1] are the off-diagonals of the tridiagonal
    for k, (v, alpha, beta, broke) in enumerate(_lanczos(op, b / bnorm, cap), start=1):
        alphas.append(alpha)
        betas.append(beta)
        if track is not None:
            track(v)
        # a breakdown makes the approximation exact: no checkpoint needed
        if broke or settled(k, k == cap, lambda: _f_of_tridiag(alphas, betas[:-1], scalar_form)):
            break
    # a run that ended on a checkpoint already holds the coefficients
    y = (settled.y if settled.y is not None and settled.y.size == k
         else _f_of_tridiag(alphas, betas[:-1], scalar_form))
    return bnorm * sum(c * u for c, (u, *_) in zip(y, _lanczos(op, b / bnorm, k))), k, broke


def two_pass_lanczos(op: LinearOperator, b: np.ndarray, fn: TransformFunction,
                     tol: float, check_every_m: int,
                     reference: np.ndarray | None = None,
                     max_steps: int | None = None):
    """Memory-light F(A)b for Hermitian A via the two-pass Lanczos method.

    Pass 1 runs the plain three-term recurrence without storing the basis
    and checks convergence every ``check_every_m`` steps; pass 2 regenerates
    the same vectors and accumulates the approximation. With a reference
    vector the stopping test is the true relative error (the benchmark
    protocol), and ``converged`` also needs the final error to meet ``tol``;
    without one it is the relative change of the projected coefficient
    vector between checkpoints.

    Requires a scalar closed form on ``fn`` to evaluate F on the Ritz values.
    """
    if not op.hermitian:
        raise ValueError("two-pass Lanczos needs a Hermitian operator")
    if fn.scalar_form is None:
        raise ValueError("two-pass Lanczos needs a scalar closed form for F")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n = op.n
    if max_steps is None:
        max_steps = min(n, 1000)
    for name, value in (("check_every_m", check_every_m), ("max_steps", max_steps)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    bnorm = _checked_norm(b, "b", n)
    track = projected_error = None
    if reference is not None:
        ref_norm, dots = _checked_norm(reference, "reference", n), []

        def track(v):
            dots.append(np.vdot(v, reference))

        def projected_error(y):
            # ||f_j - ref||^2 expanded through the tracked projections; below its
            # cancellation floor (~1e-8 relative) it reads 0, hence the final check
            err2 = ref_norm**2 - 2.0 * bnorm * float((y @ np.asarray(dots)).real)
            return math.sqrt(max(err2 + bnorm**2 * float(y @ y), 0.0)) / ref_norm
    settled = _Settled(tol, check_every_m, 1, projected_error)
    f, steps, broke = _two_pass(op, b, bnorm, fn.scalar_form, max_steps, settled, track)
    report = TwoPassReport(steps, 2 * steps, broke or settled.count == 1, settled.checkpoints)
    if reference is not None:
        report.final_error = float(np.linalg.norm(f - reference) / ref_norm)
        report.converged &= report.final_error <= tol
    return f, report


def cg_solve(op: LinearOperator, b: np.ndarray, rtol: float):
    """Conjugate gradients for Hermitian positive definite systems.

    Starts from zero. Returns x and the matvec count: the iterations, plus one
    where a target below CG's attainable accuracy has the true residual
    checked. Raises after 10 n iterations, or when that check misses.
    """
    if not op.hermitian:
        raise ValueError("CG needs a Hermitian operator")
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    n = op.n
    max_iter = 10 * n
    bnorm = _checked_norm(b, "b", n)
    target = rtol * bnorm
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
    if math.sqrt(rs) <= target:
        return x, 0
    anorm = carry = 0.0   # ||A|| >= r_j^H A r_j / r_j^H r_j = 1/alpha_j + beta_{j-1}/alpha_{j-1}
    for it in range(1, max_iter + 1):
        Ap = op.apply(p)
        alpha = rs / np.vdot(p, Ap).real
        anorm = max(anorm, 1.0 / alpha + carry)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = np.vdot(r, r).real
        if math.sqrt(rs_new) <= target:
            # the updated residual drifts from the true one by up to O(it) u (||b|| +
            # ||A|| max_j ||x_j||) (Greenbaum, SIMAX 18, 1997); ||x_j|| grows from x_0 = 0
            floor = it * np.finfo(float).eps * (bnorm + anorm * la.norm(x))
            if target < floor:   # one matvec checks the true residual
                res, it = la.norm(b - op.apply(x)) / bnorm, it + 1
                if res > rtol:
                    raise IterationLimitError(f"CG cannot reach rtol={rtol}: true residual "
                                              f"{res:.1e}, attainable accuracy {floor / bnorm:.1e}")
            return x, it
        carry = rs_new / rs / alpha
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
    bnorm = _checked_norm(b, "b", n)
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
    Lanczos checks every REF_CHECK_EVERY steps. Arnoldi, whose step k reads k
    rows, checks after gaps of max(5, k // 8) steps at the same change per step.
    """
    if fn.scalar_form is None:
        raise ValueError("reference evaluation needs a scalar closed form")
    form = _DENSE_FORMS.get(fn.name)
    if not op.hermitian and form is None:
        raise ValueError(f"no dense form of {fn.name} for a non-Hermitian reference "
                         f"(there are forms of {', '.join(_DENSE_FORMS)})")
    n, cap = op.n, min(REF_MAX_STEPS, op.n)
    bnorm = _checked_norm(b, "b", n)
    if op.hermitian and dense is not None and n <= 1000:
        w, q = la.eigh(dense)
        return q @ (np.asarray(fn.scalar_form(w)) * (q.conj().T @ b))
    if op.hermitian:
        settled = _Settled(REF_SETTLED_RTOL, REF_CHECK_EVERY, 2)
        return _two_pass(op, b, bnorm, fn.scalar_form, cap, settled)[0]
    settled = _Settled(REF_SETTLED_RTOL / REF_CHECK_EVERY, lambda k: max(5, k // 8), 2)
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
