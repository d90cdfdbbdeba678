"""Tests for the shared quadrature rules."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from rmtlab.quadrature import (gauss_chebyshev_u, panel_suffix, partial_panel,
                               power_weight_panels)


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
        cs = np.array([-1.0, 0.5, 2.0])
        knots, suffix = panel_suffix(lambda t: np.exp(cs[:, None, None] * t), -1.0, 2.0, 6, 16)
        np.testing.assert_array_equal(knots, np.linspace(-1.0, 2.0, 7))
        want = (np.exp(2.0 * cs[:, None]) - np.exp(cs[:, None] * knots)) / cs[:, None]
        np.testing.assert_allclose(suffix, want, rtol=1e-14, atol=1e-15)
        x = np.array([[-1.0, -0.3], [0.5, 2.0]])
        c = np.array([[0.5], [2.0]])
        j, part = partial_panel(lambda t: np.exp(c[..., None, None] * t), x, knots, 16)
        assert part.shape == j.shape == (2, 2)
        assert np.all((knots[j] >= x) & (knots[j] - x < 0.5))
        total = part + suffix[np.array([[1], [2]]), j]
        np.testing.assert_allclose(total, (np.exp(2.0 * c) - np.exp(c * x)) / c, rtol=1e-14)


class TestGaussChebyshevU:
    @pytest.mark.parametrize("m", [256, 320])
    def test_matches_closed_form_bitwise(self, m):
        th = np.pi * np.arange(1, m + 1) / (m + 1)
        t, w = gauss_chebyshev_u(m)
        assert np.array_equal(t, np.cos(th))
        assert np.array_equal(w, (np.pi / (m + 1)) * np.sin(th) ** 2)

    def test_exact_for_polynomials(self):
        # int_{-1}^{1} t^4 sqrt(1 - t^2) dt = pi/16
        t, w = gauss_chebyshev_u(12)
        assert w @ t ** 4 == pytest.approx(math.pi / 16.0, rel=1e-14)

    def test_cached_arrays_read_only(self):
        t, w = gauss_chebyshev_u(8)
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
