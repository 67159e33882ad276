"""Adaptive Gauss-Kronrod quadrature for half-line Laplace integrals.

Integrals of the form  int_0^inf f(t) exp(-nu t) dt  are computed after the
substitution x = sqrt(t)/(1+sqrt(t)), i.e. t = (x/(1-x))^2, which maps the
half line to [0, 1) and tames algebraic endpoint behavior. An adaptive
G7/K15 scheme subdivides [0, 1) until the summed error estimates meet the
combined relative/absolute target. The Kronrod nodes of the accepted
subintervals are frozen into a reusable :class:`QuadratureRule`; the
exp(-nu t) factor is *not* absorbed into the weights, so the same rule can
be applied with exp(-t H) for any small matrix H.
"""

from __future__ import annotations

import heapq
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
    "integrate_halfline",
    "integrate_halfline_vector",
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

    ``f`` must accept an ndarray of evaluation points.
    """
    if not a < b:
        raise ValueError("need a < b")
    half = 0.5 * (b - a)
    x = a + half * (GK15_NODES + 1.0)
    y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned non-finite values")
    k = half * float(GK15_WEIGHTS @ y)
    g = half * float(G7_WEIGHTS @ y[_GAUSS_IDX])
    return k, abs(k - g)


@dataclass
class QuadratureRule:
    """Frozen half-line rule: int_0^inf phi(t) dt ~= sum_i w_i phi(t_i)."""

    nodes: np.ndarray
    weights: np.ndarray
    eps_q: float
    nu: float
    value: float          # pilot integral the rule was built from
    weight_kind: str = "exp"   # damping factor used in the pilot integrand
    interval_errors: np.ndarray | None = None   # accepted G/K error estimates

    @property
    def count(self) -> int:
        return self.nodes.size


def _damp(kind: str, s: float, t: np.ndarray) -> np.ndarray:
    if kind == "exp":
        return np.exp(-s * t)
    if kind == "one_minus_exp":
        return -np.expm1(-s * t)
    raise ValueError(f"unknown weight kind {kind!r}")


def _x_to_t(x: np.ndarray) -> np.ndarray:
    r = x / (1.0 - x)
    return r * r


def _jacobian(x: np.ndarray) -> np.ndarray:
    return 2.0 * x / (1.0 - x) ** 3


def _adapt(segment_eval, eps: float, max_intervals: int, norm,
           initial: int = 10, x_hi: float = 1.0):
    """Adaptive bisection of [0, x_hi) driven by worst-first error splitting.

    ``segment_eval(a, b) -> (K, err)`` where K may be a scalar or a vector;
    ``norm`` maps K-like values to a magnitude. Returns the accepted
    interval records sorted by left endpoint.
    """
    heap = []
    records = {}
    next_id = 0
    for i in range(initial):
        a, b = x_hi * i / initial, x_hi * (i + 1) / initial
        k, err = segment_eval(a, b)
        records[next_id] = (a, b, k, err)
        heapq.heappush(heap, (-err, next_id))
        next_id += 1

    while True:
        acc = None
        err_sum = 0.0
        for (_, _, k, err) in records.values():
            acc = k if acc is None else acc + k
            err_sum += err
        target = max(eps, eps * norm(acc))
        if err_sum <= target:
            return sorted(records.values(), key=lambda r: r[0]), acc, err_sum
        if len(records) >= max_intervals:
            raise QuadratureDivergenceError(
                f"no convergence with {len(records)} subintervals "
                f"(error {err_sum:.3e}, target {target:.3e})"
            )
        neg_err, rid = heapq.heappop(heap)
        a, b, _, _ = records.pop(rid)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            k, err = segment_eval(lo, hi)
            records[next_id] = (lo, hi, k, err)
            heapq.heappush(heap, (-err, next_id))
            next_id += 1


KERNEL_FLOOR = 1e-280


def _pilot_segment(f, nu: float, weight_kind: str):
    def segment(a, b):
        def integrand(x):
            t = _x_to_t(x)
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                fv = np.asarray(f(t), dtype=float)
                y = fv * _damp(weight_kind, nu, t) * _jacobian(x)
            # kernels that have decayed to the subnormal range kill the
            # product even where the damping factor overflows
            return np.where(np.abs(fv) < KERNEL_FLOOR, 0.0, y)
        return gk15(integrand, a, b)
    return segment


def build_laplace_rule(f, nu: float, eps_q: float,
                       weight_kind: str = "exp",
                       max_intervals: int = MAX_INTERVALS,
                       t_max: float | None = None) -> QuadratureRule:
    """Adaptive rule for int_0^inf f(t) * damp(nu t) dt, frozen for reuse.

    The damping factor is exp(-nu t) for plain Laplace transforms or
    (1 - exp(-nu t)) for Bernstein-style integrands whose kernel is singular
    at t = 0. ``t_max`` truncates the domain; chained error kernels pass the
    previous rule's largest node here since their support never grows and
    their interpolation surface is not trustworthy beyond it.
    """
    if eps_q <= 0:
        raise ValueError("eps_q must be positive")
    x_hi = 1.0
    if t_max is not None:
        r = math.sqrt(t_max)
        x_hi = min(1.0, r / (1.0 + r))
    segment = _pilot_segment(f, nu, weight_kind)
    intervals, total, _ = _adapt(segment, eps_q, max_intervals, abs, x_hi=x_hi)

    # intervals whose sampled integrand is identically zero contribute
    # nothing for any matrix argument dominated by the anchor decay; keeping
    # them would drag far-out nodes into every later evaluation
    live = [rec for rec in intervals if not (rec[2] == 0.0 and rec[3] == 0.0)]
    if not live:
        raise ZeroIntegrandError("integrand vanished on every subinterval")
    nodes = []
    weights = []
    errors = []
    for (a, b, _, err) in live:
        half = 0.5 * (b - a)
        x = a + half * (GK15_NODES + 1.0)
        nodes.append(_x_to_t(x))
        weights.append(half * GK15_WEIGHTS * _jacobian(x))
        errors.append(err)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)
    if np.any(np.diff(t) <= 0):
        raise RuntimeError("frozen nodes are not strictly ascending")
    return QuadratureRule(nodes=t, weights=w, eps_q=eps_q, nu=nu,
                          value=float(total), weight_kind=weight_kind,
                          interval_errors=np.asarray(errors))


def integrate_halfline(f, nu: float = 0.0, eps: float = 1e-12,
                       weight_kind: str = "exp",
                       max_intervals: int = MAX_INTERVALS) -> float:
    """Adaptive value of int_0^inf f(t) * damp(nu t) dt (no rule frozen)."""
    segment = _pilot_segment(f, nu, weight_kind)
    _, total, _ = _adapt(segment, eps, max_intervals, abs)
    return float(total)


def integrate_halfline_vector(f, eps: float,
                              max_intervals: int = MAX_INTERVALS) -> np.ndarray:
    """Adaptive int_0^inf f(t) dt for a vector-valued integrand.

    ``f`` takes the 15 Kronrod points of a segment as one array t and
    returns their values as the rows of a 2-D array; the error estimate is
    the Euclidean norm of the Kronrod/Gauss difference.
    """
    def segment(a, b):
        half = 0.5 * (b - a)
        x = a + half * (GK15_NODES + 1.0)
        t = _x_to_t(x)
        jac = _jacobian(x)
        vals = np.asarray(f(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values")
        k = half * ((GK15_WEIGHTS * jac) @ vals)
        g = half * ((G7_WEIGHTS * jac[_GAUSS_IDX]) @ vals[_GAUSS_IDX])
        return k, float(np.linalg.norm(k - g))

    _, total, _ = _adapt(segment, eps, max_intervals, np.linalg.norm)
    return total


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
