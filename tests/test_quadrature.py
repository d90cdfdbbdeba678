"""Tests for the shared quadrature rules."""

import math

import numpy as np
import pytest
from scipy.special import gamma, gammaincc

from rmtlab.quadrature import _jacobi, power_weight_panels


class TestPowerWeightPanels:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 3.0])
    def test_half_line_gamma_integral(self, beta):
        # int_0^6 x^beta e^{-x} dx = Gamma(beta + 1) (1 - Q(beta + 1, 6))
        x, lw = power_weight_panels(0.0, 6.0, beta, 8, 32)
        want = gamma(beta + 1.0) * (1.0 - gammaincc(beta + 1.0, 6.0))
        assert np.exp(lw) @ np.exp(-x) == pytest.approx(want, rel=1e-14)
        assert np.all(x > 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_line_splits_at_zero(self, beta):
        # int_{-a}^{b} |x|^beta e^{-x^2} dx, one incomplete gamma per side
        x, lw = power_weight_panels(-3.0, 5.0, beta, 12, 32)
        half = lambda end: 0.5 * gamma((beta + 1) / 2) * (1 - gammaincc((beta + 1) / 2, end ** 2))
        assert np.exp(lw) @ np.exp(-x * x) == pytest.approx(half(3.0) + half(5.0), rel=1e-14)
        assert (x < 0).sum() < (x > 0).sum()

    @pytest.mark.parametrize("lo, hi", [(0.0, 1600.0), (-1600.0, 1600.0)])
    def test_weights_beyond_the_double_range(self, lo, hi):
        # 2 u^401 overflows past u = 5.9 and the first panel's half^402
        # (half = 0.05 or 0.1) underflows; in logs, int |x|^200 e^{-|x|} dx = Gamma(201) per side
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, lw = power_weight_panels(lo, hi, 200.0, 400, 32)
        assert np.isfinite(lw).all()
        top = (lw - np.abs(x)).max()
        got = top + np.log(np.exp(lw - np.abs(x) - top).sum())
        want = math.lgamma(201.0) + math.log(2.0 if lo < 0.0 else 1.0)
        assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0, 100.0, 200.0])  # 200 = 2 ALPHA_MAX on the line
def test_gauss_jacobi_moments(beta):
    # the 32-point rule for (1 + t)^b on [-1, 1], b = 2 beta + 1, integrates
    # t^m exactly for m <= 63: against 40-digit moments, relative to the
    # moments of |t|^m, whose two halves are a beta function and a 2F1
    import mpmath
    from scipy.special import roots_jacobi

    b = 2.0 * beta + 1.0
    m = np.arange(64)
    with mpmath.workdps(40):
        neg = [mpmath.beta(k + 1, b + 1) for k in m]
        pos = [mpmath.hyp2f1(-b, k + 1, k + 2, -1) / (k + 1) for k in m]
        exact = np.array([float(p + (-1) ** k * q) for k, p, q in zip(m, pos, neg)])
        scale = np.array([float(p + q) for p, q in zip(pos, neg)])
    t, w = _jacobi(32, beta)
    assert not (t.flags.writeable or w.flags.writeable)
    assert np.max(np.abs(w @ t[:, None] ** m - exact) / scale) <= 5e-14
    # scipy's rule, which this one replaced: its moments were 4e-14 ... 7e-13
    # off, its nodes within 5e-16 and its weights within 4e-12 of the largest
    ts, ws = roots_jacobi(32, 0.0, b)
    assert np.max(np.abs(ws @ ts[:, None] ** m - exact) / scale) <= 1e-12
    assert np.max(np.abs(t - ts)) <= 4e-15
    assert np.max(np.abs(w - ws)) <= 1e-11 * w.max()
