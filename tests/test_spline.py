import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_krylov.restart import spline_fit


class TestFit:
    def test_reproduces_cubic_everywhere(self):
        # not-a-knot splines reproduce cubics, including extrapolation
        knots = np.linspace(0.0, 5.0, 6)
        f = lambda x: x**3 - x
        s = spline_fit(knots, f(knots))
        probe = np.linspace(-2.0, 7.0, 101)
        assert np.allclose(s(probe), f(probe), atol=1e-10)

    def test_constant_data(self):
        knots = np.linspace(0.0, 1.0, 7)
        s = spline_fit(knots, np.full(7, 3.5))
        assert np.allclose(s(np.linspace(-1, 2, 31)), 3.5)

    def test_interpolates_at_knots(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0, 10, 9))
        y = rng.standard_normal(9)
        s = spline_fit(x, y)
        assert np.allclose(s(x), y, rtol=1e-12, atol=1e-12)

    def test_c2_continuity_at_interior_knots(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 3, 8)
        y = np.exp(-x) + 0.1 * rng.standard_normal(8)
        s = spline_fit(x, y)
        d2 = s.derivative(2)
        for xi in x[1:-1]:
            left = d2(xi - 1e-12)
            right = d2(xi + 1e-12)
            assert right == pytest.approx(left, rel=1e-6, abs=1e-9)

    def test_not_a_knot_third_derivative(self):
        # p_1 == p_2 and p_{q-2} == p_{q-1}: no third-derivative jump at
        # the second and second-to-last knots
        x = np.linspace(0, 4, 9)
        y = np.sin(x)
        s = spline_fit(x, y)
        d3 = s.derivative(3)
        for xi in (x[1], x[-2]):
            assert d3(xi - 1e-9) == pytest.approx(d3(xi + 1e-9), rel=1e-5, abs=1e-7)

    def test_error_scale_fourth_order(self):
        # |f - s| = O(dx^4) for smooth f
        knots = np.linspace(0.0, 4.0, 9)
        f = np.exp
        s = spline_fit(knots, np.exp(-knots))
        probe = np.linspace(0, 4, 4001)
        err = np.abs(s(probe) - np.exp(-probe)).max()
        dx = knots[1] - knots[0]
        assert err < 5.0 * dx**4 * 1.0  # ||f''''||_inf = 1 on [0, 4]

    def test_extrapolation_is_end_polynomial(self):
        x = np.linspace(0, 2, 6)
        y = np.cos(x)
        s = spline_fit(x, y)
        # the extrapolated values continue the last cubic smoothly
        d2 = s.derivative(2)
        assert d2(2.0 - 1e-10) == pytest.approx(d2(2.0 + 1e-10), rel=1e-6)
        d1 = s.derivative(1)
        assert d1(0.0 - 1e-10) == pytest.approx(d1(0.0 + 1e-10), rel=1e-6)

    def test_quadratic_fallback(self):
        x = np.array([0.0, 1.0, 3.0])
        f = lambda t: 2 * t**2 - t + 1
        s = spline_fit(x, f(x))
        probe = np.linspace(-1, 4, 21)
        assert np.allclose(s(probe), f(probe), atol=1e-10)

    def test_linear_fallback(self):
        s = spline_fit([0.0, 2.0], [1.0, 5.0])
        assert s(np.array([1.0]))[0] == pytest.approx(3.0)
        assert s(np.array([3.0]))[0] == pytest.approx(7.0)

    def test_rejects_duplicates_and_short_input(self):
        with pytest.raises(ValueError):
            spline_fit([0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            spline_fit([0.0], [1.0])

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_interpolation_property(self, q, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 100, q))
        if np.any(np.diff(x) < 1e-6):
            return
        y = rng.standard_normal(q)
        s = spline_fit(x, y)
        assert np.allclose(s(x), y, rtol=1e-9, atol=1e-9)


class TestRefine:
    def test_refinement_reduces_error_by_16(self):
        # midpoint insertion divides the bound by ~2^4; accept [8, 32]
        f = np.exp
        probe = np.linspace(0.0, 4.0, 8001)
        errs = []
        for q in (9, 17, 33):   # each grid inserts the midpoints of the last
            knots = np.linspace(0.0, 4.0, q)
            s = spline_fit(knots, np.exp(-knots))
            errs.append(np.abs(s(probe) - np.exp(-probe)).max())
        for a, b in zip(errs, errs[1:]):
            assert 8.0 <= a / b <= 32.0
