"""Not-a-knot cubic splines with end-polynomial extrapolation.

Used to represent error-function kernels between quadrature nodes. The fit
is scipy's ``CubicSpline``, which interpolates two knots by their line and
three by their parabola, so very small quadrature rules stay exact too.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["spline_fit", "spline_refine_nodes"]


def spline_fit(x, y) -> CubicSpline:
    """Interpolate (x_i, y_i) by a not-a-knot cubic spline.

    Evaluation outside [x[0], x[-1]] extrapolates with the first and last
    interval polynomials.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1D arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("knots must be strictly ascending")
    return CubicSpline(x, y, bc_type="not-a-knot", extrapolate=True)


def spline_refine_nodes(knots) -> np.ndarray:
    """Insert interval midpoints: q knots become 2q-1."""
    knots = np.asarray(knots, dtype=float)
    if knots.size < 2:
        raise ValueError("need at least 2 knots")
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.sort(np.concatenate([knots, mids]))
