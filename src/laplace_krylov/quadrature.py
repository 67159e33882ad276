"""Adaptive Gauss-Kronrod quadrature for half-line Laplace integrals.

Integrals of the form  int_0^inf f(t) exp(-nu t) dt  are computed after the
substitution x = sqrt(t)/(1+sqrt(t)), i.e. t = (x/(1-x))^2, which maps the
half line to [0, 1) and tames algebraic endpoint behavior. An adaptive
G7/K15 scheme subdivides [0, 1) until the summed error estimates meet the
combined relative/absolute target. :func:`gk15` sums every segment, for
scalar and vector-valued integrands alike. The adaptive pass is the only
source of a frozen :class:`QuadratureRule`: each segment records its
Kronrod nodes, weights and kernel samples where gk15 evaluates them, and
the accepted segments are concatenated. The exp(-nu t) factor is *not*
absorbed into the weights, so the same rule can be applied with
exp(-t H) for any small matrix H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallmat import expm_action  # noqa: F401  (unused; perfbench/tracer.py hooks this name)

__all__ = [
    "GK15_NODES",
    "GK15_WEIGHTS",
    "G7_WEIGHTS",
    "QuadratureRule",
    "QuadratureDivergenceError",
    "gk15",
    "build_laplace_rule",
    "apply_rule_matrix",
]

# QUADPACK 7-15 pair on [-1, 1]. Odd-indexed nodes are the Gauss-7 subset.
GK15_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
GK15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

MAX_INTERVALS = 2000


class QuadratureDivergenceError(RuntimeError):
    """Adaptive subdivision did not reach the target accuracy."""


class ZeroIntegrandError(ValueError):
    """The sampled integrand is identically zero (nothing left to resolve)."""


def gk15(f, a: float, b: float):
    """15-point Kronrod value of int_a^b f with embedded Gauss-7 error estimate.

    ``f`` takes an ndarray of points and returns real or complex values, one
    per point, or one row per point for a vector-valued integrand; the error
    estimate is the Euclidean norm of the Kronrod/Gauss difference.
    """
    if not a < b:
        raise ValueError("need a < b")
    half = 0.5 * (b - a)
    x = a + half * (GK15_NODES + 1.0)
    y = np.asarray(f(x))
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned non-finite values")
    k = half * (GK15_WEIGHTS @ y)
    g = half * (G7_WEIGHTS @ y[_GAUSS_IDX])
    # hypot of the moduli scales (no overflow) and is abs() for a scalar
    return k, math.hypot(*np.abs(np.ravel(k - g)))


@dataclass
class QuadratureRule:
    """Frozen half-line rule: int_0^inf phi(t) dt ~= sum_i w_i phi(t_i)."""

    nodes: np.ndarray
    weights: np.ndarray
    eps_q: float
    nu: float
    interval_errors: np.ndarray | None = None   # accepted G/K error estimates
    values: np.ndarray | None = None            # f(t_i), sampled while the rule adapted

    @property
    def count(self) -> int:
        return self.nodes.size


def _adapt(segment_eval, eps: float, x_hi: float = 1.0):
    """Adaptive bisection of [0, x_hi), ten equal intervals to start with.

    ``segment_eval(a, b) -> (K, err, piece)`` where K may be a scalar or a
    vector and ``piece`` is whatever the segment keeps of its integrand. The
    intervals are kept in split order: the worst one (the first of equal
    errors) is replaced by its halves at the end. Returns the accepted
    records ``(a, b, K, err, piece)`` sorted by left endpoint and their
    summed value.
    """
    edges = [x_hi * i / 10 for i in range(11)]
    records = [(a, b, *segment_eval(a, b)) for a, b in zip(edges, edges[1:])]
    while True:
        # explicit sums: sum() compensates its rounding from Python 3.12 on
        acc, err_sum, worst = None, 0.0, 0
        for i, (_, _, k, err, _) in enumerate(records):
            acc = k if acc is None else acc + k
            err_sum += err
            if err > records[worst][3]:
                worst = i
        target = max(eps, eps * math.hypot(*np.abs(np.ravel(acc))))
        if err_sum <= target:
            return sorted(records, key=lambda r: r[0]), acc
        if len(records) >= MAX_INTERVALS:
            raise QuadratureDivergenceError(
                f"no convergence with {len(records)} subintervals "
                f"(error {err_sum:.3e}, target {target:.3e})"
            )
        a, b, *_ = records.pop(worst)
        mid = 0.5 * (a + b)
        if not a < mid < b:
            raise QuadratureDivergenceError(f"cannot split [{a}, {b}]")
        records += [(lo, hi, *segment_eval(lo, hi)) for lo, hi in ((a, mid), (mid, b))]


KERNEL_FLOOR = 1e-280
# terms of a chained error-kernel sum below this fraction of the largest
# |w_i g_i| are dropped: in a sum that does not cancel they weigh no more
# than its rounding
TERM_FLOOR = 1e-13


def _pilot_segment(f, nu: float, one_minus: bool):
    """Segment evaluator for :func:`_adapt`: gk15 of the substituted, damped
    integrand, and the segment's share of a rule where gk15 evaluated it:
    the 15 nodes t, their weights 0.5 (b - a) w_j J(x_j) without the
    damping, and f(t) as f returned it."""
    def segment(a, b):
        piece = []

        def integrand(x):
            r = x / (1.0 - x)
            t = r * r
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                jac = 2.0 * x / (1.0 - x) ** 3   # dt/dx
                piece[:] = t, 0.5 * (b - a) * GK15_WEIGHTS * jac, np.asarray(f(t))
                fv = piece[2]
                damp = -np.expm1(-nu * t) if one_minus else np.exp(-nu * t)
                # transposed, the damping and the Jacobian scale each row
                # of a vector integrand
                y = ((fv.T * damp) * jac).T
            # kernels that have decayed to the subnormal range kill the
            # product even where the damping factor overflows
            return np.where(np.abs(fv) < KERNEL_FLOOR, 0.0, y)
        return (*gk15(integrand, a, b), piece)
    return segment


def build_laplace_rule(f, nu: float, eps_q: float, one_minus: bool = False,
                       t_max: float | None = None) -> QuadratureRule:
    """Adaptive rule for int_0^inf f(t) * damp(nu t) dt, frozen for reuse.

    The damping factor is exp(-nu t) for plain Laplace transforms or, with
    ``one_minus``, (1 - exp(-nu t)) for Bernstein-style integrands whose
    kernel is singular at t = 0. ``t_max`` truncates the domain; chained
    error kernels pass the previous rule's largest node here since their
    support never grows and their interpolation surface is not trustworthy
    beyond it. Nodes, weights and the samples f(t_i) kept in ``values`` (one
    row per node for a vector integrand) are the ones the adaptive pass
    formed on its accepted intervals.
    """
    if eps_q <= 0:
        raise ValueError("eps_q must be positive")
    x_hi = 1.0
    if t_max is not None:
        r = math.sqrt(t_max)
        x_hi = min(1.0, r / (1.0 + r))
    intervals, _ = _adapt(_pilot_segment(f, nu, one_minus), eps_q, x_hi=x_hi)

    # intervals whose sampled integrand is identically zero contribute
    # nothing for any matrix argument dominated by the anchor decay; keeping
    # them would drag far-out nodes into every later evaluation
    live = [rec for rec in intervals if not (rec[3] == 0.0 and np.all(rec[2] == 0.0))]
    if not live:
        raise ZeroIntegrandError("integrand vanished on every subinterval")
    t, w, values = (np.concatenate(parts) for parts in zip(*(rec[4] for rec in live)))
    if np.any(np.diff(t) <= 0):
        raise RuntimeError("frozen nodes are not strictly ascending")
    return QuadratureRule(nodes=t, weights=w, eps_q=eps_q, nu=nu,
                          interval_errors=np.array([rec[3] for rec in live]), values=values)


def apply_rule_matrix(rule: QuadratureRule, values: np.ndarray, E: np.ndarray) -> np.ndarray:
    """sum_i w_i f(t_i) E[:, i] over the nodes with a nonzero term.

    ``values`` are the kernel samples f(t_i) aligned with the rule nodes and
    ``E`` holds the propagated columns exp(-t_i H) e_1 (or (I - exp(-t_i H))
    e_1) from :func:`laplace_krylov.smallmat.expm_columns`.
    """
    values = np.asarray(values)
    E = np.asarray(E)
    if values.shape != rule.nodes.shape or E.shape[1:] != rule.nodes.shape:
        raise ValueError("values are not aligned with the rule nodes")
    coeff = rule.weights * values
    live = coeff != 0.0   # zero kernel samples must not meet overflowing columns
    return E[:, live] @ coeff[live]
