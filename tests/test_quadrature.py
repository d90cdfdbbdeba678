"""Tests for the shared quadrature rules."""

import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from rmtlab.quadrature import power_weight_panels


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
