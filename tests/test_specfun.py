"""Tests for the special-function core.

Expected values were produced by independent oracles: the Maclaurin pair
series with high-precision Gamma constants for the Airy values at 0,
mpmath/scipy quadrature for the integral transforms, and half-integer
closed forms for Bessel.  The defining ODEs act as self-contained checks.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from rmtlab import specfun

mp.mp.dps = 30

# frozen oracle values: 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3)
AI0 = 0.35502805388781724
AIP0 = -0.25881940379280680


class TestAiry:
    def test_value_at_zero(self):
        got = specfun.airy(0.0)
        assert got.value == pytest.approx(AI0, abs=1e-15)
        assert got.derivative == pytest.approx(AIP0, abs=1e-15)

    def test_large_argument_asymptotic_form(self):
        # Ai(x) ~ e^{-2/3 x^{3/2}} / (2 sqrt(pi) x^{1/4}) * (1 + O(x^{-3/2}));
        # at x = 10 the true deviation is -5/(72 zeta) + O(zeta^-2) = -3.3e-3,
        # which sits inside the O(x^{-3/2}) = 0.032 budget.
        x = 10.0
        got = specfun.airy(x).value
        ratio = got * 2.0 * math.sqrt(math.pi) * x ** 0.25 * math.exp(2.0 / 3.0 * x ** 1.5)
        assert abs(ratio - 1.0) <= 0.2 * x ** -1.5
        zeta = 2.0 / 3.0 * x ** 1.5
        assert ratio == pytest.approx(1.0 - 5.0 / (72.0 * zeta), abs=1e-4)

    def test_ode_residual_real_grid(self):
        # Ai'' = z Ai with Ai'' from 4th-order centered differences of Ai'
        xs = np.linspace(-15.0, 15.0, 200)
        h = 1e-3
        stencil = [(-2.0, -1.0), (-1.0, 8.0), (1.0, -8.0), (2.0, 1.0)]
        aipp = np.zeros_like(xs)
        for step, coef in stencil:
            _, ap = specfun.airy_real(xs + step * h)
            aipp += -coef * ap / (12.0 * h)
        ai, _ = specfun.airy_real(xs)
        resid = np.abs(aipp - xs * ai)
        assert np.all(resid <= 1e-8 * (1.0 + np.abs(xs * ai)))

    @pytest.mark.parametrize("theta", [0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])
    def test_ode_residual_complex_rays(self, theta):
        # step radially along the ray so the difference never crosses the
        # sector seam of the evaluation scheme
        h = 1e-3
        e = np.exp(1j * theta)
        for r in np.linspace(0.3, 12.0, 25):
            z = r * e
            aipp = 0.0
            for step, coef in [(-2.0, -1.0), (-1.0, 8.0), (1.0, -8.0), (2.0, 1.0)]:
                aipp += -coef * specfun.airy(z + step * h * e).derivative / (12.0 * h * e)
            resid = abs(aipp - z * specfun.airy(z).value)
            assert resid <= 1e-8 * (1.0 + abs(z * specfun.airy(z).value))

    def test_real_axis_accuracy(self):
        xs = np.linspace(-20.0, 20.0, 121)
        ai, aip = specfun.airy_real(xs)
        for x, a, ap in zip(xs, ai, aip):
            ra = float(mp.airyai(x))
            rap = float(mp.airyai(x, 1))
            assert abs(a - ra) + abs(ap - rap) <= 1e-10 * (abs(ra) + abs(rap))

    def test_complex_accuracy(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            r = rng.uniform(0.1, 30.0)
            th = rng.uniform(-np.pi, np.pi)
            z = r * np.exp(1j * th)
            got = specfun.airy(z)
            ra = complex(mp.airyai(complex(z)))
            rap = complex(mp.airyai(complex(z), 1))
            assert abs(got.value - ra) <= 1e-8 * abs(ra)
            assert abs(got.derivative - rap) <= 1e-8 * abs(rap)

    def test_connection_identity(self):
        # y0 + y1 + y2 = 0 with y_j the rotated Airy solutions
        w = np.exp(2j * np.pi / 3.0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
            if abs(z) > 10.0:
                continue
            y0 = specfun.airy(z).value
            y1 = w * specfun.airy(w * z).value
            y2 = w * w * specfun.airy(w * w * z).value
            m = max(abs(y0), abs(y1), abs(y2))
            assert abs(y0 + y1 + y2) <= 1e-10 * m

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            specfun.airy(900.0 * np.exp(2j * np.pi / 3.0))

    @pytest.mark.parametrize("theta", np.linspace(-np.pi, np.pi, 13))
    def test_complex_sectors_against_mpmath(self, theta):
        # every sector on a fixed ray grid, |arg z| > 2pi/3 included
        for r in (0.3, 1.0, 3.0, 8.0, 15.0, 30.0):
            z = complex(r * np.exp(1j * theta))
            got = specfun.airy(z)
            ra = complex(mp.airyai(z))
            rap = complex(mp.airyai(z, 1))
            assert abs(got.value - ra) <= 1e-12 * abs(ra)
            assert abs(got.derivative - rap) <= 1e-12 * abs(rap)

    @pytest.mark.parametrize("theta", [2.0 * np.pi / 3.0, -0.6 * np.pi, 0.9 * np.pi])
    def test_overflow_boundary(self, theta):
        # the guard fires at Re zeta = -700, zeta = (2/3) z^{3/2}; just
        # inside it the value is finite and still accurate
        r_edge = (1050.0 / abs(math.cos(1.5 * theta))) ** (2.0 / 3.0)
        z = complex(0.999 * r_edge * np.exp(1j * theta))
        got = specfun.airy(z)
        ra = complex(mp.airyai(z))
        assert abs(got.value - ra) <= 1e-10 * abs(ra)
        with pytest.raises(OverflowError):
            specfun.airy(1.001 * r_edge * np.exp(1j * theta))


class TestAiryTail:
    def test_decay(self):
        assert specfun.airy_tail(20.0) < 1e-12

    def test_value_at_zero(self):
        # classical value: integral_0^inf Ai = 1/3 (quadrature oracle agrees)
        assert specfun.airy_tail(0.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_left_end_against_quadrature_oracle(self):
        # The full integral of Ai is 1, but at x = -40 the oscillatory tail
        # has only decayed to ~|x|^{-3/4} ~ 0.035, so the honest target is
        # the quadrature value of the integral itself, not 1.
        def f(t):
            return scipy.special.airy(t)[0]

        ref = 0.0
        for a, b in [(-40.0, -20.0), (-20.0, 0.0), (0.0, 8.0)]:
            v, _ = scipy.integrate.quad(f, a, b, limit=400)
            ref += v
        ref += scipy.integrate.quad(f, 8.0, 30.0)[0]
        assert specfun.airy_tail(-40.0) == pytest.approx(ref, abs=1e-6)

    def test_midrange_against_oracle(self):
        for x in [-7.3, -2.0, 1.3, 4.0]:
            ref = scipy.integrate.quad(lambda t: scipy.special.airy(t)[0], x, 30.0, limit=300)[0]
            assert specfun.airy_tail(x) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("x", [-40.0, -35.3, -30.0, -7.3, 0.0, 7.9, 8.0, 9.5, 12.0, 14.0,
                                   20.0])
    def test_against_mpmath(self, x):
        # unit subintervals keep mpmath's quadrature on the oscillatory side
        with mp.workdps(30):
            nodes = [mp.mpf(x)] + list(range(math.ceil(x), 0)) + [mp.mpf(max(x, 0.0)) + 4, mp.inf]
            ref = mp.quad(mp.airyai, sorted(set(nodes)))
        err = abs(specfun.airy_tail(x) - float(ref))
        assert err <= 1e-14
        if x >= 8.0:
            assert err <= 1e-8 * float(ref)

    def test_knots_call_airy_nowhere_once_warm(self, monkeypatch):
        # -1.5 and -0.5 are knots of the tail grid: each is a suffix sum,
        # with no partial panel to evaluate
        specfun.airy_tail(0.3)
        points = []
        real = specfun.airy_real
        monkeypatch.setattr(specfun, "airy_real", lambda x: points.append(np.size(x)) or real(x))
        got = specfun.airy_tail([-1.5, -0.5])
        assert points == []
        vals, ix = specfun._tail_integral(lambda t, f: f.value, np.array([-1.5, -0.5]),
                                          specfun._TAIL_BEYOND_CUT)
        np.testing.assert_array_equal(got, vals[ix])

    def test_cut_constant_is_the_asymptotic_tail_at_the_cut(self):
        # a literal, so that importing specfun evaluates no Airy function
        assert specfun._TAIL_BEYOND_CUT == specfun._airy_tail_asym(specfun._TAIL_CUT)
        # the grid's integral below the cut and the asymptotic one beyond it join
        below, above = (specfun.airy_tail(math.nextafter(14.0, d)) for d in (-math.inf, math.inf))
        assert abs(below - above) <= 1e-16

    def test_derivative_is_minus_airy(self):
        h = 1e-5
        for x in [-12.3, -3.0, 0.7, 5.1]:
            fd = (specfun.airy_tail(x + h) - specfun.airy_tail(x - h)) / (2.0 * h)
            assert fd == pytest.approx(-specfun.airy(x).value, abs=1e-6)


class TestTailIntegral:
    def test_tail_of_exponentials(self):
        # int_x^14 e^{c t} dt + right for a family c (leading axis) and an
        # array of x with a repeated value, a knot, the cut and beyond it
        cs = np.array([-1.0, 0.5, 2.0])
        x = np.array([[-2.3, 0.5, 14.0], [1.2, -2.3, -1.0], [13.9, 17.5, 0.5]])
        vals, ix = specfun._tail_integral(lambda t, f: np.exp(cs[:, None, None] * t), x, 0.25)
        assert vals.shape == (3, 6) and ix.shape == x.shape
        c = cs[:, None, None]
        want = (np.exp(14.0 * c) - np.exp(c * np.minimum(x, 14.0))) / c
        np.testing.assert_allclose(vals[:, ix], want + 0.25, rtol=1e-14, atol=1e-15)

    def test_knots_call_f_on_the_grid_only(self):
        # x on a knot is a suffix sum: f sees the grid's panels right of the
        # knot below min(x), once, and no partial panel
        t, _, pair = specfun._tail_nodes(0)
        seen = []

        def f(t, pair):
            seen.append((t, pair))
            return np.cos(t)

        vals, ix = specfun._tail_integral(f, np.array([-0.5, 2.0, -0.5, -1.5]))
        assert len(seen) == 1
        assert np.shares_memory(seen[0][0], t) and np.shares_memory(seen[0][1].value, pair.value)
        np.testing.assert_array_equal(seen[0][0], t[78:])
        np.testing.assert_allclose(vals[ix], np.sin(14.0) - np.sin([-0.5, 2.0, -0.5, -1.5]),
                                   rtol=1e-14, atol=1e-14)

    @pytest.fixture
    def cold_grid(self, monkeypatch):
        """A tail grid with no Airy panel filled, as in a fresh process."""
        empty = np.empty((0, specfun._TAIL_ORDER))
        monkeypatch.setattr(specfun, "_tail_pair", specfun.FunctionValuePair(empty, empty))

    @pytest.mark.parametrize("order", [(0.3, -30.0), (-30.0, 0.3), (None, 0.3, -30.0)])
    def test_lazy_grid_bitwise_in_any_order(self, cold_grid, order):
        # the panels a call reaches first, filled before or after the rest,
        # give the values of Airy on the whole grid at once
        from rmtlab.quadrature import gauss_legendre_panels

        whole = specfun.airy(gauss_legendre_panels(specfun._TAIL_LEFT, specfun._TAIL_CUT,
                                                   specfun._TAIL_PANELS, specfun._TAIL_ORDER)[0])
        want = {}
        for x in order:
            if x is None:
                specfun._tail_nodes(0)
            else:
                want[x] = specfun.airy_tail(x)
        _, _, pair = specfun._tail_nodes(0)
        assert np.array_equal(pair.value.view(np.uint64), whole.value.view(np.uint64))
        assert np.array_equal(pair.derivative.view(np.uint64), whole.derivative.view(np.uint64))
        for x, got in want.items():
            again = specfun.airy_tail(x)
            assert np.float64(got).view(np.uint64) == np.float64(again).view(np.uint64)

    def test_lazy_grid_evaluates_reached_panels_once(self, cold_grid, monkeypatch):
        points = []
        real = specfun.airy_real
        monkeypatch.setattr(specfun, "airy_real", lambda x: points.append(np.size(x)) or real(x))
        n = specfun._TAIL_ORDER
        for j0, fresh in [(80, 29), (90, 0), (80, 0), (50, 30), (0, 50)]:
            t, w, pair = specfun._tail_nodes(j0)
            assert sum(points) == fresh * n
            points.clear()
            assert t.shape == w.shape == pair.value.shape == (specfun._TAIL_PANELS - j0, n)
            for v in (t, w, pair.value, pair.derivative):
                assert not v.flags.writeable
                with pytest.raises(ValueError):
                    v[0, 0] = 1.0

    def test_cut_and_beyond_return_right_exactly(self):
        vals, ix = specfun._tail_integral(lambda t, f: f.value, np.array([14.0, 20.0, 17.5]),
                                          0.125)
        np.testing.assert_array_equal(vals[ix], [0.125, 0.125, 0.125])


class TestBessel:
    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        assert abs(specfun.bessel_j(0.5, math.pi).value) <= 1e-12
        for x in [0.7, 2.0, 11.0]:
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert specfun.bessel_j(0.5, x).value == pytest.approx(ref, rel=1e-11)

    def test_at_origin(self):
        got = specfun.bessel_j(0.0, 0.0)
        assert got.value == 1.0
        assert got.derivative == 0.0

    @pytest.mark.parametrize("alpha, value, derivative", [
        (-0.5, math.inf, -math.inf), (0.0, 1.0, 0.0), (0.5, 0.0, math.inf), (1.0, 0.0, 0.5),
        (1.5, 0.0, 0.0)])
    def test_limits_at_origin(self, alpha, value, derivative):
        # the limits as x -> 0+, J_{-1/2}(x) = sqrt(2/(pi x)) cos x among them,
        # for scalar x and inside an array
        for got in (specfun.bessel_j(alpha, 0.0), specfun.bessel_j(alpha, np.array([0.0, 1.0]))):
            assert np.ravel(got.value)[0] == value
            assert np.ravel(got.derivative)[0] == derivative

    def test_ode_residual(self):
        # x^2 J'' + x J' + (x^2 - a^2) J = 0, J'' by differences of J'
        h = 1e-6
        for alpha in [0.0, 0.5, 1.0, 3.7]:
            for x in np.linspace(0.4, 30.0, 23):
                j, jp = specfun.bessel_j(alpha, x).value, specfun.bessel_j(alpha, x).derivative
                jpp = (specfun.bessel_j(alpha, x + h).derivative
                       - specfun.bessel_j(alpha, x - h).derivative) / (2.0 * h)
                resid = x * x * jpp + x * jp + (x * x - alpha * alpha) * j
                assert abs(resid) <= 1e-7 * (1.0 + x * x * abs(j))

    def test_order_continuity(self):
        eps = 1e-6
        for alpha in [0.0, 0.3, 1.5, 4.0]:
            for x in [0.5, 3.0, 12.0, 33.0]:
                d = abs(specfun.bessel_j(alpha, x).value - specfun.bessel_j(alpha + eps, x).value)
                assert d <= 50.0 * eps

    def test_accuracy_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            alpha = rng.uniform(-0.95, 9.0)
            x = rng.uniform(0.0, 50.0)
            got = specfun.bessel_j(alpha, x)
            rj = float(mp.besselj(alpha, x))
            rjp = float((mp.besselj(alpha - 1, x) - mp.besselj(alpha + 1, x)) / 2) if x > 0 else 0.0
            scale = abs(rj) + abs(rjp)
            if x > 0 and scale > 1e-280:
                assert abs(got.value - rj) + abs(got.derivative - rjp) <= 1e-10 * max(scale, 0.05)

    @pytest.mark.parametrize("alpha, x", [(40.0, 30.0), (40.5, 45.0), (25.3, 12.0),
                                          (0.3, 1e-6), (-0.7, 1e-5), (2.5, 1e-3)])
    def test_large_order_and_small_argument_against_mpmath(self, alpha, x):
        got = specfun.bessel_j(alpha, x)
        rj = float(mp.besselj(alpha, x))
        rjp = float(mp.besselj(alpha, x, derivative=1))
        assert abs(got.value - rj) <= 1e-12 * abs(rj)
        assert abs(got.derivative - rjp) <= 1e-12 * abs(rjp)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(0.0, -0.5)


class TestSincIntegral:
    def test_zero(self):
        assert specfun.sinc_integral(0.0) == 0.0

    def test_odd(self):
        assert specfun.sinc_integral(-1.7) == -specfun.sinc_integral(1.7)

    def test_dirichlet_limit(self):
        assert specfun.sinc_integral(1e3) == pytest.approx(0.5, abs=2e-4)

    def test_accuracy(self):
        for t in [1e-3, 0.25, 1.0, 5.5, 7.639, 24.0 / math.pi + 0.01, 40.0, 333.3, 1e5]:
            ref = float(mp.si(mp.pi * t)) / math.pi
            assert specfun.sinc_integral(t) == pytest.approx(ref, abs=1e-10)

    def test_large_arguments_against_mpmath(self):
        # the oscillating part of Si decays like 1/t, so sici keeps its
        # absolute accuracy out to the largest doubles
        t = np.geomspace(1e6, 1e300, 61)
        got = specfun.sinc_integral(np.r_[t, -t])
        with mp.workdps(40):
            ref = [mp.si(mp.pi * mp.mpf(v)) / mp.pi for v in np.r_[t, -t]]
            assert max(abs(mp.mpf(g) - r) for g, r in zip(got, ref)) <= 1e-16

    def test_past_the_overflow_of_pi_t(self):
        # pi t overflows for |t| > 5.7e307: the limit +-1/2, without a warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = specfun.sinc_integral(np.array([6e307, -1e308, 1.7976931348623157e308]))
        assert got.tolist() == [0.5, -0.5, 0.5]


def test_complex_airy_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(11)
    z = (rng.uniform(0.0, 30.0, (4, 5)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 5))))
    got = specfun.airy(z)
    assert got.value.shape == got.derivative.shape == (4, 5)
    assert got.value.dtype == complex
    one = [specfun.airy(complex(v)) for v in z.ravel()]
    assert all(isinstance(f.value, complex) and isinstance(f.derivative, complex) for f in one)
    # vectorized and one-element complex products may round differently
    # (fused multiply-add), and e^{-zeta} turns that into |zeta| ulps
    np.testing.assert_allclose(got.value.ravel(), [f.value for f in one], rtol=1e-13)
    np.testing.assert_allclose(got.derivative.ravel(), [f.derivative for f in one], rtol=1e-13)


@pytest.mark.parametrize("bad,error", [(2000.0 + 0j, ValueError),
                                       (900.0 * np.exp(2j * np.pi / 3.0), OverflowError)])
def test_complex_airy_guard_fires_on_one_element(bad, error):
    z = np.array([1.0 + 1.0j, -3.0 + 0.5j, bad, 0.2j])
    with pytest.raises(error):
        specfun.airy(z)
    specfun.airy(z[[0, 1, 3]])  # the rest is in range
