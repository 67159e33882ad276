"""Restart engine for matrix functions given by Laplace-type transforms.

The driver builds one Arnoldi cycle at a time and adds a correction that
approximates the remaining error. The error of a cycle is itself the action
of a Laplace transform whose kernel is a half-line convolution of the
previous kernel with the small-matrix impulse response
g(tau) = e_m^T exp(-tau H) e_1, so each cycle only has to evaluate small
quadrature sums. Cycle 1 is the same recursion started from the kernel
itself, so one cycle method serves every cycle of a chain.

:func:`restarted_laplace` is the one entry point for every transform kind.
Two-sided transforms run two kernel chains (for A and -A) over a shared
Krylov basis; Bernstein functions int_0^inf (1 - exp(-s t)) f(t) dt run the
standard chain on that grouped integrand; Stieltjes functions, a special
case of Laplace transforms, run a chain that integrates shifted resolvents
against the density times a product over the earlier cycles' Ritz values.
Every chain reads the cycle's one eigendecomposition of H and the driver's
beta_k = ||b|| prod_{j<k} (-h_{j+1,j}), applies only its own sign to it and
returns its update with its spline refinement rounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg as la
import scipy.special

from .krylov import KrylovDecomposition, _checked_norm, arnoldi
from .operators import LinearOperator
from .quadrature import (
    KERNEL_FLOOR,
    TERM_FLOOR,
    QuadratureDivergenceError,
    QuadratureRule,
    ZeroIntegrandError,
    apply_rule_matrix,
    build_laplace_rule,
)
from .smallmat import SpectralCache, eig_general, eig_hermitian, expm_columns
from .smallmat import expm_action  # noqa: F401  (unused; perfbench/tracer.py hooks this name)

__all__ = [
    "TransformFunction",
    "RestartConfig",
    "RestartReport",
    "CycleRecord",
    "ErrorModel",
    "ConvergenceRegionError",
    "restarted_laplace",
    "error_function_values",
    "builtin_kernels",
    "transform_value",
]


class ConvergenceRegionError(ValueError):
    """The spectral anchor lies outside the transform's convergence region."""


@dataclass(frozen=True)
class TransformFunction:
    """A matrix function described through its transform kernel.

    ``kernel`` is the scalar function under the integral sign: f(t) for
    Laplace / two-sided / Bernstein representations, the density rho(t) for
    Stieltjes functions. ``abscissa`` is the abscissa of absolute
    convergence the spectral anchor is checked against (for Bernstein
    functions: of the derivative F'). Two-sided kernels also carry the
    abscissa for the reflected kernel f(-t) evaluated at -A.
    """

    name: str
    kind: str                     # laplace | two_sided | bernstein | stieltjes
    kernel: Callable[[np.ndarray], np.ndarray]
    abscissa: float = 0.0
    boundary_closed: bool = False
    abscissa_neg: float = -math.inf
    scalar_form: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("laplace", "two_sided", "bernstein", "stieltjes"):
            raise ValueError(f"unknown transform kind {self.kind!r}")


@dataclass
class RestartConfig:
    """Knobs of one restarted run."""

    m: int
    tol: float = 1e-7
    eps_q: float | None = None          # quadrature and refinement target, default 1e-3 * tol
    max_cycles: int = 60
    stopping: str = "update_norm"       # or "reference_error"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("restart length must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.eps_q is None:
            self.eps_q = 1e-3 * self.tol
        if not (0 < self.eps_q <= self.tol):
            raise ValueError("need 0 < eps_q <= tol")
        if self.stopping not in ("update_norm", "reference_error"):
            raise ValueError(f"unknown stopping mode {self.stopping!r}")


@dataclass
class CycleRecord:
    cycle: int
    matvecs: int
    update_norm: float
    iterate_norm: float
    rel_error: float        # nan when no reference is available
    wall_ms: float
    h_next: float
    beta: float             # beta_k for every kind, before any chain's sign
    refine_rounds: int      # spline refinement rounds, the most of any chain


@dataclass
class RestartReport:
    records: list[CycleRecord] = field(default_factory=list)
    converged: bool = False
    reason: str = ""

    @property
    def cycles(self) -> int:
        return len(self.records)

    @property
    def matvecs(self) -> int:
        return self.records[-1].matvecs if self.records else 0


@dataclass
class ErrorModel:
    """The cycle-k error kernel f^(k), which calling the model evaluates.

    ``rule`` (with f^(k-1) at its nodes in ``values``) and ``g_values`` come
    from cycle k-1. ``surface`` evaluates f^(k-1): the raw kernel in cycle 2,
    later cycle k-1's model until cycle k fits a spline to those values.
    ``nodes`` and ``wg`` are the rule nodes and products w_i g_i of the terms
    the sum keeps: those with |w_i g_i| at least TERM_FLOOR of the largest,
    and every non-finite one.
    """

    rule: QuadratureRule
    g_values: np.ndarray
    surface: Callable
    nodes: np.ndarray = field(init=False, repr=False)
    wg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        wg = self.rule.weights * self.g_values
        keep = ~(np.abs(wg) < TERM_FLOOR * np.abs(wg).max())
        self.nodes, self.wg = self.rule.nodes[keep], wg[keep]

    def __call__(self, t) -> np.ndarray:
        return error_function_values(self, t)


def error_function_values(model: ErrorModel, nodes) -> np.ndarray:
    """f^(k)(t) = sum_i w_i * s^(k-1)(t + t_i) * g^(k-1)(t_i) at the nodes,
    over the terms the model keeps."""
    ts = np.atleast_1d(np.asarray(nodes, dtype=float))
    grid = ts[:, None] + model.nodes[None, :]
    return np.asarray(model.surface(grid)) @ model.wg


class spline_fit:
    """The not-a-knot cubic spline through (x, y), its end cubics extrapolating.

    Fit and evaluation are those of scipy's ``CubicSpline`` for n >= 4 knots,
    bit for bit: the not-a-knot branch of ``scipy/interpolate/_cubic.py``,
    ``CubicHermiteSpline``'s coefficients and ``PPoly``'s power sum. ``c``
    keeps PPoly's (4, n - 1) layout, highest power first. Fitting here keeps
    ``scipy.interpolate`` (~17 MB and ~0.2 s of imports) out of every program.
    """

    BLOCK = 2 ** 14   # points per evaluation pass, so that its temporaries stay in cache

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=complex if np.iscomplexobj(y) else float)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError(f"need one value per knot, got x {x.shape} and y {y.shape}")
        if x.size < 4:
            raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {x.size}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("knots and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("knots must be strictly increasing")
        slope = np.diff(y) / dx
        # the knot slopes s: a tridiagonal system in banded form, end rows not-a-knot
        A = np.zeros((3, x.size))
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b = np.empty(x.size, dtype=y.dtype)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        A[1, 0], A[0, 1] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = la.solve_banded((1, 1), A, b[:, None], overwrite_ab=True, overwrite_b=True,
                            check_finite=False)[:, 0]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x, c = self.x, self.c
        flat = t.reshape(-1)
        res = np.empty(flat.size, dtype=c.dtype)
        for lo in range(0, flat.size, self.BLOCK):
            tb, out = flat[lo:lo + self.BLOCK], res[lo:lo + self.BLOCK]
            # each point's piece: past either end knot the end cubic continues
            i = np.searchsorted(x[1:-1], tb, side="right")
            h = x.take(i)
            np.subtract(tb, h, out=h)
            # PPoly's power sum c3 + c2 h + c1 h^2 + c0 h^3, not Horner's rule: scipy's rounding
            c[2].take(i, out=out)
            out *= h
            out += c[3].take(i)
            z = h * h
            term = c[1].take(i)
            term *= z
            out += term
            z *= h
            c[0].take(i, out=term)
            term *= z
            out += term
        return res.reshape(t.shape)


def _check_anchor(nu: float, abscissa: float, closed: bool, label: str) -> None:
    slack = 1e-12 * max(1.0, abs(nu))
    ok = nu >= abscissa - slack if closed else nu > abscissa
    if not ok:
        cmp = ">=" if closed else ">"
        raise ConvergenceRegionError(
            f"spectral anchor nu={nu:.6g} must be {cmp} the abscissa of absolute "
            f"convergence {abscissa:.6g} for {label}"
        )


def _shifted_kernel(kernel, shift: float):
    """kernel(t) * exp(-shift * t) with underflow-safe products."""
    if shift == 0.0:
        return kernel

    def shifted(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            kv = np.asarray(kernel(t), dtype=float)
            out = kv * np.exp(-shift * t)
        # absolute convergence at the anchor bounds the true product; a
        # kernel in the subnormal range cannot meet an overflowing factor
        return np.where(np.abs(kv) < KERNEL_FLOOR, 0.0, out)

    return shifted


MAX_REFINE_ROUNDS = 4   # 3 midpoint rounds, 1 on pairwise-sum knots (fixed by the rules)
MAX_SURFACE_GRID = 2 ** 25   # float64 entries (256 MiB) of one refinement's surface evaluation
# an update norm that grew by more than this over the previous cycle's voids
# the update-norm certificate: converging runs in the tests and benchmark
# workloads grow by at most ~4 between cycles, amplified rounding by ~1e14
UPDATE_GROWTH_LIMIT = 1e6


class _LaplaceChain:
    """One error-function chain of ``fn``; two-sided runs add a ``flip`` chain
    on -H with the reflected kernel f(-t) and abscissa.

    Cycle k adds s_k beta_k sum_i w_i f^(k)(t_i) exp(-t_i H) e_1 to the
    update: the driver's beta_k with the chain's sign s_k, (-1)^(k-1) on the
    flip chain and -1 from cycle 2 on for Bernstein functions. :meth:`cycle`
    returns the update with its refinement rounds and runs the one recursion
    for every k: f^(1) is the kernel (with the grouped (1 - exp(-t H))
    integrand for Bernstein functions), and f^(k) is the :class:`ErrorModel`
    that cycle k-1 leaves in ``model``, on the raw kernel in cycle 2 and on
    a refined spline surface afterwards. Each cycle builds one rule for
    f^(k) at the anchor nu - shift and takes the samples f^(k)(t_i) from it
    (``rule.values``).

    The anchor nu, min Re spec(H) (of -H on the flip chain) in cycle 1, and
    every cycle's propagator columns come from the eigendecomposition of H
    that the driver makes once per cycle for all chains. Negative anchors
    (reflected two-sided parts) are handled in the shifted formulation: the
    chain works on H - nu I and the kernel f(t) exp(-nu t), which is the same
    transform value but keeps every intermediate quantity bounded instead of
    pairing huge impulse-response values with decaying kernels. Flip and shift
    map D to sign D - shift; only the expm fallback forms sign H - shift I.
    """

    def __init__(self, fn: TransformFunction, cfg: RestartConfig, flip: bool = False):
        self.fn = fn
        self.kernel = (lambda t: fn.kernel(-np.asarray(t))) if flip else fn.kernel
        self.cfg = cfg
        self.flip = flip
        self.nu: float | None = None
        self.shift = 0.0
        self.dead = False
        self.model: ErrorModel | None = None      # f^(k) in cycle k >= 2, from cycle k-1

    def cycle(self, dec: KrylovDecomposition, cache: SpectralCache, k: int, beta: float,
              prev_iterate_norm: float) -> tuple[np.ndarray, int]:
        sign = -1.0 if self.flip else 1.0
        bernstein, rounds = self.fn.kind == "bernstein", 0
        if k == 1:
            self.nu = float(np.min(sign * cache.D.real))
            fn = self.fn
            label = f"{fn.name} ({'reflected' if self.flip else 'positive'} side)"
            _check_anchor(self.nu, fn.abscissa_neg if self.flip else fn.abscissa,
                          fn.boundary_closed, label if fn.kind == "two_sided" else fn.name)
            self.shift = min(0.0, self.nu)
            if bernstein and self.shift != 0.0:
                raise ConvergenceRegionError(
                    f"Bernstein evaluation needs a positive anchor (nu={self.nu:.6g})"
                )
        # the flip chain runs on (-H, -h_next), and the grouped Bernstein
        # integrand of cycle 1, f(t) (I - exp(-t H)) e_1, flips the error's sign
        one_minus = bernstein and k == 1
        if self.flip and k % 2 == 0 or bernstein and k > 1:
            beta = -beta
        if self.dead:
            return np.zeros(dec.m), 0
        H = dec.H   # with X, expm_columns takes only H's dtype and finiteness
        if self.flip or self.shift != 0.0:
            cache = replace(cache, D=sign * cache.D - self.shift)
            if cache.X is None:
                H = sign * H - self.shift * np.eye(dec.m, dtype=H.dtype)

        f, t_max = _shifted_kernel(self.kernel, self.shift), None
        if k > 1:
            f, prev, last = self.model, self.model.surface, self.model.rule
            t_max = float(last.nodes.max())
            if k > 2:   # cycle 2 keeps the exact kernel as its surface
                f.surface = spline_fit(last.nodes, last.values)
        try:
            rule = build_laplace_rule(f, self.nu - self.shift, self.cfg.eps_q, one_minus, t_max)
        except ZeroIntegrandError:
            if k == 1:
                raise
            # the error kernel decayed below resolution: this chain is
            # exhausted and contributes nothing from here on
            self.dead = True
            return np.zeros(dec.m), 0
        vals = rule.values   # f^(k) at the nodes, sampled by the rule build
        # one propagator per cycle: the apply, every refinement round and
        # the next cycle's g values share these columns
        e1 = np.eye(dec.m, dtype=H.dtype)[0]
        E = expm_columns(H, e1, rule.nodes, cache)
        # (I - exp(-t_i H)) e_1 in closed form: e_1 minus E's columns would cancel at small t_i
        Y = expm_columns(H, e1, rule.nodes, cache, one_minus=True) if one_minus else E
        y = apply_rule_matrix(rule, vals, Y)

        if k >= 3:
            # midpoint refinement of the interpolation surface until the
            # update stabilizes; if three midpoint rounds keep missing, one
            # last round takes the pairwise-sum knots. prev (f^(k-1)) is
            # fixed, so old knots keep their values (last.values at the
            # first round's). A diverging run grows its rules, so refinement
            # stops before a surface evaluation would pass MAX_SURFACE_GRID
            knots, knot_values = last.nodes, last.values
            target = self.cfg.eps_q * max(prev_iterate_norm, 1e-300)
            while rounds < MAX_REFINE_ROUNDS:
                # the next round's knot count (pairwise sums: before np.unique)
                count = ((rule.nodes.size + 1) * last.nodes.size if rounds >= 3
                         else 2 * knots.size - 1)
                if count * prev.rule.nodes.size > MAX_SURFACE_GRID:
                    break
                rounds += 1
                if rounds > 3:
                    sums = (rule.nodes[:, None] + last.nodes[None, :]).ravel()
                    knots = np.unique(np.concatenate([last.nodes, sums]))
                    knot_values = error_function_values(prev, knots)
                else:
                    mids = 0.5 * (knots[:-1] + knots[1:])
                    slots = np.arange(1, knots.size)   # each midpoint between its knots
                    knot_values = np.insert(knot_values, slots,
                                            error_function_values(prev, mids))
                    knots = np.insert(knots, slots, mids)
                f.surface = spline_fit(knots, knot_values)
                vals = error_function_values(f, rule.nodes)
                y_new = apply_rule_matrix(rule, vals, E)
                delta = abs(beta) * float(la.norm(y_new - y, check_finite=False))
                y = y_new
                if delta <= target:
                    break
        # the next cycle's f^(k+1), from this rule with its last samples of f^(k)
        # and g(t_i) = e_m^T exp(-t_i H) e_1 in E[-1]; its surface is f^(k) itself
        self.model = ErrorModel(rule=replace(rule, values=vals), g_values=E[-1], surface=f)
        return beta * y, rounds


class _StieltjesChain:
    """Error chain for Stieltjes functions, kept as stored Ritz values.

    The cycle-k update integrates
    rho(t) * psi(t) * (H^(k) + tI)^{-1} e_1 over the half line on one frozen
    rule, with psi(t) = prod_j e_m^T (H^(j) + tI)^{-1} e_1 over the
    earlier cycles. For an unreduced Hessenberg H with Ritz values theta_l,
    e_m^T (H + tI)^{-1} e_1 = (-1)^(m+1) prod_i h_{i+1,i} / prod_l (t + theta_l)
    (Afanasjew, Eiermann, Ernst & Güttel, LAA 429, 2008; Frommer, Güttel &
    Schweitzer, SIMAX 35, 2014), so the chain keeps every earlier Ritz value
    (the eigenvalues of the cycle's shared decomposition) in ``ritz``, the
    summed log h_{i+1,i} in ``log_c`` and the product of the signs in ``sign``.
    The same decomposition gives the resolvents (H^(k) + tI)^{-1} e_1.
    The update is beta_k times the integral; no surface refines (0 rounds).
    """

    def __init__(self, rho, cfg: RestartConfig):
        self.rho = rho
        self.cfg = cfg
        self.ritz = np.empty(0, dtype=complex)
        self.log_c = 0.0
        self.sign = 1.0

    def _psi(self, t: np.ndarray) -> np.ndarray:
        """psi at the points t, in log form so that prod h never overflows."""
        log_det = np.log(t[:, None] + self.ritz).sum(axis=1)
        return self.sign * np.exp(self.log_c - log_det)

    def cycle(self, dec: KrylovDecomposition, cache: SpectralCache, k: int, beta: float,
              prev_iterate_norm: float) -> tuple[np.ndarray, int]:
        H = dec.H
        m = dec.m
        if k == 1:
            # spec(A) off (-inf, 0]: the anchor must lie right of 0
            _check_anchor(float(np.min(cache.D.real)), 0.0, False, "a Stieltjes function")
        X, D, eye = cache.X, cache.D, np.eye(m, dtype=H.dtype)
        # psi and the resolvents of a real H are real but for rounding
        part = np.real if np.isrealobj(H) else np.asarray

        def integrand(t):
            if X is None:   # kappa_1(X) > KAPPA_MAX: stacked solves, as in expm_columns
                r = np.linalg.solve(H + t[:, None, None] * eye, eye[:, :1])[:, :, 0]
            else:   # X diag(1/(D + t)) X^{-1} e_1
                r = (X @ (cache.Xinv[:, :1] / (D[:, None] + t))).T
            return (self.rho(t) * part(self._psi(t)))[:, None] * part(r)

        try:
            rule = build_laplace_rule(integrand, 0.0, self.cfg.eps_q)
            contribution = beta * (rule.weights @ rule.values)
        except ZeroIntegrandError:   # nothing left to resolve
            contribution = np.zeros(m)
        self.ritz = np.concatenate([self.ritz, D])
        self.log_c += np.log(np.diag(H, -1)).sum()
        self.sign *= (-1.0) ** (m + 1)
        return contribution, 0


def _chains(fn: TransformFunction, cfg: RestartConfig) -> list:
    """The error chains that together carry the update of one transform kind."""
    if fn.kind == "stieltjes":
        return [_StieltjesChain(fn.kernel, cfg)]
    # two-sided transforms run a reflected chain on (-H, -h_next) over the same basis
    flips = (False, True) if fn.kind == "two_sided" else (False,)
    return [_LaplaceChain(fn, cfg, flip) for flip in flips]


def restarted_laplace(op: LinearOperator, b: np.ndarray, fn: TransformFunction,
                      cfg: RestartConfig, reference: np.ndarray | None = None):
    """Approximate F(A) b by the restarted Arnoldi method.

    :func:`_chains` picks the chains from ``fn.kind``: one Laplace chain
    (on the grouped integrand for Bernstein functions), two chains over a
    shared basis for two-sided transforms, or resolvent-based updates for
    Stieltjes functions. The report counts the operator's matvecs of the run.
    """
    beta = _checked_norm(b, "b", op.n)   # beta_1 = ||b||
    if cfg.stopping == "reference_error" and reference is None:
        raise ValueError("reference_error stopping needs a reference vector")
    ref_norm = _checked_norm(reference, "reference", op.n) if reference is not None else 0.0
    chains = _chains(fn, cfg)
    fm, itn = np.zeros(op.n), 0.0
    base_count = op.matvec_count
    report = RestartReport()
    start = b
    basis = np.empty((min(cfg.m, op.n) + 1, op.n), dtype=complex if np.iscomplexobj(b) else float)
    upd, grew = math.nan, False

    for k in range(1, cfg.max_cycles + 1):
        t0 = time.perf_counter()
        dec = arnoldi(op, start, cfg.m, _basis=basis)  # the next cycle overwrites dec.V
        cache = (eig_hermitian if op.hermitian else eig_general)(dec.H)   # one per cycle
        try:
            outs = [chain.cycle(dec, cache, k, beta, itn) for chain in chains]
        except QuadratureDivergenceError:
            if k == 1:
                raise
            outs, report.reason = [], "quadrature_divergence"   # keep cycle k - 1's iterate
        d = dec.V @ sum(u for u, _ in outs) if outs else None
        kept, fm = fm, fm if d is None else fm + d
        wall_ms = 1e3 * (time.perf_counter() - t0)

        # norms by nrm2; check_finite=False lets inf and NaN reach the non_finite stop
        prev_upd, upd = upd, math.nan if d is None else float(la.norm(d, check_finite=False))
        grew = grew or upd > UPDATE_GROWTH_LIMIT * prev_upd
        itn = float(la.norm(fm, check_finite=False))
        rel = (float(la.norm(fm - reference, check_finite=False) / ref_norm)
               if reference is not None else math.nan)
        report.records.append(CycleRecord(
            cycle=k, matvecs=op.matvec_count - base_count, update_norm=upd,
            iterate_norm=itn, rel_error=rel, wall_ms=wall_ms,
            h_next=dec.h_next, beta=beta,
            refine_rounds=max((rounds for _, rounds in outs), default=0),
        ))

        if not (math.isfinite(upd) and math.isfinite(itn)):
            # an overflowed iterate fails the run (inf <= tol * inf would
            # otherwise pass the update-norm test), as does a quadrature
            # divergence, whose update is NaN; a later cycle keeps cycle
            # k - 1's iterate, and its record the norms it overflowed to
            report.reason = report.reason or "non_finite"
            return (fm if k == 1 else kept), report
        done = (rel <= cfg.tol if cfg.stopping == "reference_error"
                else k >= 2 and upd <= cfg.tol * itn)
        if done and grew and cfg.stopping == "update_norm":
            # a small last update says nothing once an update has grown by
            # orders of magnitude: the chains amplify rounding
            report.reason = "growing_updates"
            return fm, report
        if dec.breakdown or done:
            report.converged = True
            report.reason = "breakdown" if dec.breakdown else cfg.stopping
            return fm, report
        start, beta = dec.v_next, -beta * dec.h_next

    report.reason = "max_cycles"
    return fm, report


# ---------------------------------------------------------------------------
# Kernel catalog and scalar transform evaluation
# ---------------------------------------------------------------------------

def _exp_sqrt_kernel(tau: float):
    pref = tau / (2.0 * math.sqrt(math.pi))

    def kernel(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(t > 0, pref * np.exp(-tau**2 / (4.0 * t)) * t**-1.5, 0.0)
        return np.nan_to_num(out, nan=0.0, posinf=0.0)

    return kernel


def _inv_power_kernel(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(t > 0, t**-1.5 / (2.0 * math.sqrt(math.pi)), 0.0)


def _gamma_kernel(t):
    # exp(-t) overflows for strongly negative t; exp(-inf) = 0 is the
    # correct limit of the kernel there
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-t))


def _safe_sqrt(s):
    # matrix-function references evaluate the closed form on computed
    # eigenvalues: real ones sit a few ulps below zero for singular PSD
    # inputs, complex ones (of non-normal matrices) take the principal root
    s = np.asarray(s)
    return np.sqrt(s if np.iscomplexobj(s) else np.maximum(s, 0.0))


def builtin_kernels(tau: float = 1.0) -> dict[str, TransformFunction]:
    """The benchmark transforms; ``tau`` > 0 scales the two exp-sqrt kernels."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    c32 = 2.0 / math.sqrt(math.pi)  # L{sqrt(t)}(s) = (sqrt(pi)/2) s^(-3/2)
    kernels = {
        "power-neg-3-2": TransformFunction(
            name="power-neg-3-2", kind="laplace",
            kernel=lambda t: c32 * np.sqrt(np.asarray(t, dtype=float)),
            abscissa=0.0, boundary_closed=False,
            scalar_form=lambda s: s**-1.5,
        ),
        "exp-sqrt": TransformFunction(
            name="exp-sqrt", kind="laplace",
            kernel=_exp_sqrt_kernel(tau),
            abscissa=0.0, boundary_closed=True,
            scalar_form=lambda s: np.exp(-tau * _safe_sqrt(s)),
        ),
        "gamma": TransformFunction(
            name="gamma", kind="two_sided",
            kernel=_gamma_kernel,
            abscissa=0.0, boundary_closed=False, abscissa_neg=-math.inf,
            scalar_form=scipy.special.gamma,
        ),
        "sqrt": TransformFunction(
            name="sqrt", kind="bernstein",
            kernel=_inv_power_kernel,
            abscissa=0.0, boundary_closed=False,
            scalar_form=_safe_sqrt,
        ),
        "inv-sqrt-stieltjes": TransformFunction(
            name="inv-sqrt-stieltjes", kind="stieltjes",
            kernel=lambda t: 1.0 / (math.pi * np.sqrt(np.asarray(t, dtype=float))),
            abscissa=0.0, boundary_closed=False,
            scalar_form=lambda s: s**-0.5,
        ),
        # an oscillating density, so not a true Stieltjes function
        "exp-sqrt-shifted": TransformFunction(
            name="exp-sqrt-shifted", kind="stieltjes",
            kernel=lambda t: -np.sin(tau * np.sqrt(np.asarray(t, dtype=float)))
            / (math.pi * np.asarray(t, dtype=float)),
            abscissa=0.0, boundary_closed=False,
            scalar_form=lambda s: (np.exp(-tau * np.sqrt(s)) - 1.0) / s,
        ),
    }
    return kernels


def transform_value(fn: TransformFunction, s: float, eps: float = 1e-11) -> float:
    """Scalar F(s) for checks: one exact cycle (it ends on breakdown) of
    :func:`restarted_laplace` on the 1 x 1 operator [[s]] at quadrature target
    ``eps``. An ``s`` outside the convergence region raises
    :class:`ConvergenceRegionError`."""
    op = LinearOperator.from_matrix(np.array([[s]], dtype=float))
    x, _ = restarted_laplace(op, np.ones(1), fn, RestartConfig(m=1, tol=1.0, eps_q=eps))
    return float(x[0])
