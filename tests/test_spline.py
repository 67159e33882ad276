import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from laplace_krylov.restart import spline_fit


def _ends(s):
    """Value, slope and curvature of each piece at its right end and at its left end."""
    c, h = s.c, np.diff(s.x)
    right = (((c[0] * h + c[1]) * h + c[2]) * h + c[3],
             (3 * c[0] * h + 2 * c[1]) * h + c[2],
             6 * c[0] * h + 2 * c[1])
    left = (c[3], c[2], 2 * c[1])
    return right, left


class TestSameAsScipy:
    @pytest.mark.parametrize("q", [4, 5, 6, 7, 10, 15, 31, 100, 257, 600])
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_bitwise_equal_to_cubic_spline(self, q, complex_values):
        rng = np.random.default_rng(q)
        x = np.cumsum(rng.uniform(0.01, 1.0, q))
        y = rng.standard_normal(q)
        if complex_values:
            y = y + 1j * rng.standard_normal(q)
        # the knots, the midpoints and points beyond both ends, as a 2-D grid
        points = np.concatenate([x, 0.5 * (x[:-1] + x[1:]),
                                 x[0] - [3.0, 1e-9], x[-1] + [1e-9, 5.0]])
        g = rng.permutation(points)[None, :] + np.array([[0.0], [0.0], [0.25]])
        s, ref = spline_fit(x, y), CubicSpline(x, y)
        assert np.array_equal(s.c, ref.c)
        got, want = s(g), ref(g)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_bitwise_equal_over_several_evaluation_blocks(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 10.0, 40))
        y = np.exp(-x) * rng.standard_normal(40)
        g = rng.uniform(-1.0, 11.0, (3, spline_fit.BLOCK + 7))
        assert np.array_equal(spline_fit(x, y)(g), CubicSpline(x, y)(g))


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
        assert s.c.shape == (4, 7)
        # value, slope and curvature where each piece ends match the next piece's start
        for right, left in zip(*_ends(s)):
            assert np.allclose(right[:-1], left[1:], rtol=1e-9, atol=1e-9)

    def test_not_a_knot_third_derivative(self):
        # p_1 == p_2 and p_{q-2} == p_{q-1}: the cubic term does not jump at
        # the second and second-to-last knots
        x = np.linspace(0, 4, 9)
        y = np.sin(x)
        s = spline_fit(x, y)
        assert s.c[0, 0] == pytest.approx(s.c[0, 1], rel=1e-9, abs=1e-12)
        assert s.c[0, -2] == pytest.approx(s.c[0, -1], rel=1e-9, abs=1e-12)

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
        # beyond either end the first and the last cubic continue
        below, above = np.array([-0.5, -1e-10]), np.array([2.0 + 1e-10, 3.0])
        assert np.allclose(s(below), np.polyval(s.c[:, 0], below - x[0]), rtol=1e-12)
        assert np.allclose(s(above), np.polyval(s.c[:, -1], above - x[-2]), rtol=1e-12)

    @pytest.mark.parametrize("q", [2, 3])
    def test_refuses_fewer_than_four_knots(self, q):
        # the engine fits at least one gk15 segment's 15 nodes; scipy's
        # 2- and 3-knot fallbacks (a line, a parabola) are not kept
        x = np.arange(float(q))
        with pytest.raises(ValueError, match="at least 4 knots"):
            spline_fit(x, x ** 2)

    def test_rejects_duplicates_and_short_input(self):
        with pytest.raises(ValueError):
            spline_fit([0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            spline_fit([0.0], [1.0])

    def test_rejects_non_finite_and_decreasing_input(self):
        x = np.arange(5.0)
        for bad_x, bad_y in ((np.r_[x[:4], np.nan], x), (x, np.r_[x[:4], np.inf]),
                             (x[::-1], x)):
            with pytest.raises(ValueError):
                spline_fit(bad_x, bad_y)

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
