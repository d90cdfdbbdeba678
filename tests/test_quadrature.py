"""Tests for the shared quadrature rules."""

import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from rmtlab.quadrature import panel_suffix, panel_tail, power_weight_panels


class TestPowerWeightPanels:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 3.0])
    def test_half_line_gamma_integral(self, beta):
        # int_0^6 x^beta e^{-x} dx = Gamma(beta + 1) (1 - Q(beta + 1, 6))
        x, w = power_weight_panels(0.0, 6.0, beta, 8, 32)
        want = gamma(beta + 1.0) * (1.0 - gammaincc(beta + 1.0, 6.0))
        assert w @ np.exp(-x) == pytest.approx(want, rel=1e-14)
        assert np.all(x > 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_line_splits_at_zero(self, beta):
        # int_{-a}^{b} |x|^beta e^{-x^2} dx, one incomplete gamma per side
        x, w = power_weight_panels(-3.0, 5.0, beta, 12, 32)
        half = lambda end: 0.5 * gamma((beta + 1) / 2) * (1 - gammaincc((beta + 1) / 2, end ** 2))
        assert w @ np.exp(-x * x) == pytest.approx(half(3.0) + half(5.0), rel=1e-14)
        assert (x < 0).sum() < (x > 0).sum()


class TestPanelTail:
    def test_tail_of_exponentials(self):
        # int_x^2 e^{c t} dt for a family c (leading axis) and an array of x
        # with a repeated value, a knot and the last knot
        cs = np.array([-1.0, 0.5, 2.0])
        f = lambda t: np.exp(cs[:, None, None, None] * t)
        knots, suffix = panel_suffix(lambda t: f(t)[..., 0, :, :], -1.0, 2.0, 6, 16)
        np.testing.assert_array_equal(knots, np.linspace(-1.0, 2.0, 7))
        want = (np.exp(2.0 * cs[:, None]) - np.exp(cs[:, None] * knots)) / cs[:, None]
        np.testing.assert_allclose(suffix, want, rtol=1e-14, atol=1e-15)
        x = np.array([[-0.3, 0.5, 2.0], [1.2, -0.3, -1.0]])
        vals, ix = panel_tail(f, x, knots, suffix, 16)
        assert vals.shape == (3, 5) and ix.shape == x.shape
        total = vals[:, ix]
        want = (np.exp(2.0 * cs[:, None, None]) - np.exp(cs[:, None, None] * x)) / cs[:, None, None]
        np.testing.assert_allclose(total, want, rtol=1e-14, atol=1e-15)
        on_knot = np.isin(x, knots)
        np.testing.assert_array_equal(total[:, on_knot],
                                      suffix[:, np.searchsorted(knots, x[on_knot])])
        assert np.all(total[:, x == 2.0] == 0.0)

    def test_knots_do_not_call_f(self):
        knots, suffix = panel_suffix(np.cos, 0.0, 1.0, 4, 8)

        def f(t):
            raise AssertionError("f called for x on knots")

        vals, ix = panel_tail(f, np.array([0.25, 1.0, 0.25]), knots, suffix, 8)
        np.testing.assert_array_equal(vals[ix], suffix[[1, 4, 1]])

