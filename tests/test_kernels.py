"""Tests for the universal kernels and correlation assembly."""

import functools
import math
import warnings

import numpy as np
import pytest

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import mc
from rmtlab import orthopoly as op
from rmtlab.equilibrium import Potential
from rmtlab.kernels import KernelHandle
from rmtlab.specfun import airy

AI0 = 0.35502805388781724
AIP0 = -0.25881940379280680


def _floats(x, y):
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _pfaffian_expand(a):
    """Pfaffian by recursive cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    idx = np.arange(n)
    for j in range(1, n):
        if a[0, j] == 0.0:
            continue
        keep = idx[(idx != 0) & (idx != j)]
        total += (-1.0) ** (j - 1) * a[0, j] * _pfaffian_expand(a[np.ix_(keep, keep)])
    return total


def _pfaffian_mpmath(a):
    """50-digit Pfaffian of the (exactly converted) strict upper triangle,
    by cofactor expansion along the first remaining row, memoized over the
    remaining indices."""
    import mpmath

    with mpmath.workdps(50):
        m = [[mpmath.mpf(float(v)) for v in row] for row in a]

        @functools.cache
        def expand(rest):
            if not rest:
                return mpmath.mpf(1)
            return sum((-1) ** (j - 1) * m[rest[0]][rest[j]] * expand(rest[1:j] + rest[j + 1:])
                       for j in range(1, len(rest)))

        return expand(tuple(range(len(m))))


def _tail_integral_per_pair(x, y):
    """The edge tail integral with nothing kept between calls and no tail
    code of the package: every call evaluates Airy at the full-panel nodes
    again, sums all panels from the right, and every (x, y) pair gets its
    own partial panel."""
    from rmtlab import specfun as sf
    from rmtlab.quadrature import gauss_legendre_panels

    x, y = np.broadcast_arrays(*_floats(x, y))
    ys, iy = np.unique(y, return_inverse=True)
    t, w = gauss_legendre_panels(sf._TAIL_LEFT, sf._TAIL_CUT, sf._TAIL_PANELS, sf._TAIL_ORDER)
    panel = (kr.airy_kernel(t, ys[:, None, None]) * w).sum(axis=-1)
    suffix = np.zeros((len(ys), sf._TAIL_PANELS + 1))
    suffix[:, :-1] = panel[:, ::-1].cumsum(axis=-1)[:, ::-1]
    knots = np.linspace(sf._TAIL_LEFT, sf._TAIL_CUT, sf._TAIL_PANELS + 1)
    j = np.searchsorted(knots, np.minimum(x, sf._TAIL_CUT))
    t, w = gauss_legendre_panels(np.minimum(x, sf._TAIL_CUT), knots[j], 1, sf._TAIL_ORDER)
    part = (kr.airy_kernel(t, y[..., None, None]) * w).sum(axis=(-2, -1))
    return kr._scalar_or_array(part + suffix[iy.reshape(y.shape), j])


def _kernel_tail(x, y):
    """integral_x^inf K_Ai(t, y) dt as the edge kernel computes it."""
    return kr._edge_airy(*_floats(x, y))[4]


def _edge_per_pair(beta, x, y):
    """The soft-edge matrix kernel assembled term by term from the public
    Airy pieces and _tail_integral_per_pair, each evaluating Airy on its
    own: the reference for the shared Airy and tail passes."""
    from rmtlab.specfun import airy_tail

    x, y = _floats(x, y)
    ax, ay = airy(x).value, airy(y).value
    tx, ty = airy_tail(x), airy_tail(y)
    kxy = kr.airy_kernel(x, y)
    dky = kr.airy_kernel_dy(x, y)
    kint = _tail_integral_per_pair(x, y)
    if beta == 1:
        return kr._blocks(dky + 0.5 * ax * ay, kxy + 0.5 * ax * (1.0 - ty),
                          -(kxy + 0.5 * ay * (1.0 - tx)),
                          -kint - 0.5 * (tx - ty) + 0.5 * tx * ty - 0.5 * np.sign(x - y))
    return kr._blocks(0.5 * dky + 0.25 * ax * ay, 0.5 * kxy - 0.25 * ax * ty,
                      -(0.5 * kxy - 0.25 * ay * tx), -0.5 * kint + 0.25 * tx * ty)


class TestSineKernel:
    def test_diagonal(self):
        assert kr.sine_kernel(0.3, 0.3) == 1.0

    def test_half_point(self):
        assert kr.sine_kernel(0.0, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-14)

    def test_integer_zero(self):
        assert kr.sine_kernel(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_dx_odd_and_smooth(self):
        assert kr.sine_kernel_dx(0.5, 0.5) == 0.0
        d = kr.sine_kernel_dx(0.3, 0.1)
        assert kr.sine_kernel_dx(0.1, 0.3) == pytest.approx(-d, abs=1e-14)
        # the Cauchy mean and the quotient agree at the band's edge r / 250
        # = 1e-3 (against a central difference of the kernel itself)
        for dd in [0.9e-3, 1.1e-3]:
            h = 1e-6
            fd = (kr.sine_kernel(dd + h, 0.0) - kr.sine_kernel(dd - h, 0.0)) / (2 * h)
            assert kr.sine_kernel_dx(dd, 0.0) == pytest.approx(fd, abs=1e-9)


class TestAiryKernel:
    def test_symmetry(self):
        assert kr.airy_kernel(1.3, -0.7) == pytest.approx(kr.airy_kernel(-0.7, 1.3), rel=1e-13)

    def test_diagonal_at_zero(self):
        # oracle: square of the series value of Ai'(0)
        assert kr.airy_kernel(0.0, 0.0) == pytest.approx(AIP0 ** 2, rel=1e-12)

    def test_fast_decay(self):
        assert abs(kr.airy_kernel(5.0, 5.0)) < 1e-6

    def test_dy_matches_finite_difference(self):
        h = 1e-5
        for x, y in [(0.4, -1.2), (-2.0, -2.3), (1.0, 1.2)]:
            fd = (kr.airy_kernel(x, y + h) - kr.airy_kernel(x, y - h)) / (2.0 * h)
            assert kr.airy_kernel_dy(x, y) == pytest.approx(fd, abs=5e-9)

    def test_dy_diagonal_value(self):
        # partial_y K_Ai on the diagonal is -Ai(x)^2/2
        for x in [-1.0, 0.0, 0.8]:
            a = airy(x).value
            assert kr.airy_kernel_dy(x, x) == pytest.approx(-0.5 * a * a, rel=1e-9, abs=1e-12)


class TestBesselKernels:
    def test_hard_symmetry(self):
        a = kr.bessel_hard_kernel(0.5, 1.0, 2.5)
        b = kr.bessel_hard_kernel(0.5, 2.5, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_hard_diagonal_at_bessel_zero(self):
        # first zero of J_0 located with a root finder on the implementation
        from scipy.optimize import brentq

        from rmtlab.specfun import bessel_j

        j01 = brentq(lambda t: bessel_j(0.0, t).value, 2.0, 3.0, xtol=1e-13)
        x = j01 * j01
        jp = bessel_j(0.0, j01).derivative
        assert kr.bessel_hard_kernel(0.0, x, x) == pytest.approx(jp * jp / 4.0, rel=1e-9)

    def test_hard_edge_repulsion_increases_with_alpha(self):
        assert kr.bessel_hard_kernel(8.0, 0.01, 0.01) < kr.bessel_hard_kernel(0.0, 0.01, 0.01)

    def test_origin_reduces_to_sine_at_alpha_zero(self):
        assert kr.bessel_origin_kernel(0.0, 0.3, 1.1) == pytest.approx(
            kr.sine_kernel(0.3, 1.1), abs=1e-12)
        xs = np.linspace(0.1, 2.8, 10)
        sup = max(abs(kr.bessel_origin_kernel(0.0, a, b) - kr.sine_kernel(a, b))
                  for a in xs for b in xs)
        assert sup <= 1e-10

    def test_origin_symmetry_and_repulsion(self):
        a = kr.bessel_origin_kernel(1.0, 0.4, 2.2)
        assert a == pytest.approx(kr.bessel_origin_kernel(1.0, 2.2, 0.4), rel=1e-12)
        assert kr.bessel_origin_kernel(1.0, 0.05, 0.05) < 1.0

    @pytest.mark.parametrize("family", ["bessel_hard", "bessel_origin"])
    def test_handle_alpha_bound(self, family):
        # the handles take alpha up to the documented ALPHA_MAX = 100
        from rmtlab.equilibrium import ALPHA_MAX

        assert np.isfinite(kr.KernelHandle(family, alpha=ALPHA_MAX).evaluate(0.5, 0.7))
        for bad in (math.nextafter(ALPHA_MAX, math.inf), 1000.0, 1e300):
            with pytest.raises(ValueError, match=f"{family} requires .* < alpha <= 100"):
                kr.KernelHandle(family, alpha=bad)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kr.bessel_hard_kernel(0.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            kr.bessel_origin_kernel(1.0, 0.0, 2.0)


class TestPearcey:
    def test_two_parametrizations_agree(self):
        a = kr._pearcey_raw(0.0, 0.0, 0.0, 0.75, 12.0, 60, 130)
        b = kr._pearcey_raw(0.0, 0.0, 0.0, 1.60, 13.0, 75, 160)
        assert abs(a - b) <= 1e-8

    def test_p_satisfies_pearcey_ode(self):
        # sign convention fixed numerically: p''' = s p' - x p for this
        # contour orientation (quadrature moments for the derivatives)
        for x, s in [(0.7, 0.5), (-1.2, 0.0), (0.0, 1.5)]:
            p0 = kr.pearcey_p(x, s, 0)
            p1 = kr.pearcey_p(x, s, 1)
            p3 = kr.pearcey_p(x, s, 3)
            assert abs(p3 - (s * p1 - x * p0)) <= 1e-10

    def test_p_ode_by_finite_differences(self):
        x, s = 0.4, 0.3
        h = 0.05
        vals = [kr.pearcey_p(x + k * h, s).real for k in range(-3, 4)]
        # 7-point / 5-point centered stencils, O(h^4)
        p3 = (vals[0] - 8 * vals[1] + 13 * vals[2]
              - 13 * vals[4] + 8 * vals[5] - vals[6]) / (8 * h ** 3)
        p1 = (vals[1] - 8 * vals[2] + 8 * vals[4] - vals[5]) / (12 * h)
        p0 = vals[3]
        assert abs(p3 - (s * p1 - x * p0)) <= 1e-5

    def test_q_satisfies_conjugate_ode(self):
        # q''' = y q + s q'; derivatives of q carry (-eta)^k moments
        for y, s in [(-0.4, 0.5), (0.9, -0.7)]:
            q0 = kr.pearcey_q(y, s, 0)
            q1 = -kr.pearcey_q(y, s, 1)
            q3 = -kr.pearcey_q(y, s, 3)
            assert abs(q3 - (y * q0 + s * q1)) <= 1e-10

    def test_factorized_structure(self):
        # (d/dx + d/dy) K = -p(x) q(y)
        x, y, s = 0.7, -0.4, 0.5
        h = 1e-4
        dk = ((kr.pearcey_kernel(x + h, y, s) - kr.pearcey_kernel(x - h, y, s))
              + (kr.pearcey_kernel(x, y + h, s) - kr.pearcey_kernel(x, y - h, s))) / (2 * h)
        pq = kr.pearcey_p(x, s) * kr.pearcey_q(y, s)
        assert dk == pytest.approx(float((-pq).real), abs=1e-7)

    def test_diagonal_grows_like_cusp_density(self):
        # the limiting density at a cusp grows like |x|^{1/3}, so the
        # kernel diagonal increases away from 0 (frozen quadrature values)
        k0 = kr.pearcey_kernel(0.0, 0.0, 0.0)
        k2 = kr.pearcey_kernel(2.0, 2.0, 0.0)
        k4 = kr.pearcey_kernel(-4.0, -4.0, 0.0)
        assert k0 == pytest.approx(0.15561232394812, abs=1e-7)
        assert k2 == pytest.approx(0.37658350, abs=1e-6)
        assert k0 < k2 < k4

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 3.0])
    def test_integrable_form_against_double_integral(self, s):
        # _pearcey_raw (double contour integral) is the independent oracle
        grid = np.linspace(-2.0, 2.0, 5)
        ref = kr._pearcey_raw(grid[:, None], grid[None, :], s, 0.75, 12.0, 30, 65)
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                assert abs(kr.pearcey_kernel(x, y, s) - ref[i, j].real) <= 1e-9

    def test_double_integral_entry_independent_of_batch(self):
        # one (x, y) entry of the oracle is the same, to rounding, whichever
        # other x and y values share the call, on a grid or as pairs
        xs, ys = np.array([-1.5, 0.25, 2.0]), np.array([0.5, -0.75])
        grid = kr._pearcey_raw(xs[:, None], ys[None, :], 0.5, 0.75, 12.0, 30, 65)
        assert grid.shape == (3, 2)
        pairs = kr._pearcey_raw(np.array([2.0, 7.0, 0.25]), np.array([0.5, 3.0, 0.5]),
                                0.5, 0.75, 12.0, 30, 65)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                alone = kr._pearcey_raw(x, y, 0.5, 0.75, 12.0, 30, 65)
                assert abs(alone - grid[i, j]) <= 1e-14
        assert abs(pairs[0] - grid[2, 0]) <= 1e-14
        assert abs(pairs[2] - grid[1, 0]) <= 1e-14

    def test_honesty_and_range_errors(self):
        # (12, 12) at s = -5 lies in the documented range; its value is the
        # 40-digit one of test_against_40_digit_integrals, and the check is
        # tested by test_check_fires_when_the_step_is_too_coarse
        assert kr.pearcey_kernel(12.0, 12.0, -5.0) == pytest.approx(0.835025113481352, rel=1e-9)
        with pytest.raises(ValueError):
            kr.pearcey_kernel(20.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            kr.pearcey_kernel(0.0, 0.0, 10.5)

    def test_not_symmetric(self):
        # symmetry in (x, y) is not a property of this kernel
        assert abs(kr.pearcey_kernel(0.9, 0.3, 0.0) - kr.pearcey_kernel(0.3, 0.9, 0.0)) > 0.05

    def test_one_moment_pass_per_contour(self, monkeypatch):
        # a real grid takes p and q once, for the quotient and the diagonal
        # together and for the trapezoidal rule and its half-step rule;
        # entries in the Cauchy band add one pass of complex points per contour
        passes = []
        real = kr._moments
        monkeypatch.setattr(kr, "_moments",
                            lambda v, *args, **kwargs: passes.append(np.iscomplexobj(v))
                            or real(v, *args, **kwargs))
        grid = np.linspace(-2.0, 2.0, 9)
        kr.pearcey_kernel(grid[:, None], grid[None, :], 0.5)
        assert passes == [False] * 2
        passes.clear()
        kr.pearcey_kernel(np.array([0.3, 0.3, 1.0]), np.array([0.3, 0.3005, -1.0]), 0.5)
        assert sorted(passes) == [False] * 2 + [True] * 2

    def test_at_most_402_nodes_per_argument(self):
        # each distinct argument's contour: two halves of 201 nodes for p,
        # one for q
        for s in (-10.0, 0.0, 1.0, 10.0):
            for contour, halves in ((kr._p_contour, 2), (kr._q_contour, 1)):
                t = contour(np.linspace(-20.0, 20.0, 9) + 0j, s)[0]
                assert t.shape == (9, halves, 201)

    def test_whole_range_scan(self):
        # the 8 x 8 grid over |x|, |y| <= 20 at five values of s: finite,
        # with no ArithmeticError and no RuntimeWarning
        grid = np.linspace(-20.0, 20.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for s in (-10.0, -5.0, 0.0, 5.0, 10.0):
                assert np.isfinite(kr.pearcey_kernel(grid[:, None], grid[None, :], s)).all()

    @pytest.mark.parametrize("x, y, s, want", [
        (12.0, 12.0, -5.0, 0.835025), (-12.0, 0.0, -8.0, -0.274584),
        (20.0, 20.0, -10.0, 1.09743), (8.57, 2.86, -5.0, 0.728405),
        (-20.0, 20.0, 0.0, None), (-14.29, -14.29, 10.0, None), (20.0, 14.29, 5.0, None),
        (20.0, -20.0, 10.0, None)])
    def test_against_40_digit_integrals(self, x, y, s, want):
        ref = _mp_pearcey_kernel(x, y, s)
        if want is not None:
            assert ref == pytest.approx(want, abs=5e-6)
        assert kr.pearcey_kernel(x, y, s) == pytest.approx(ref, rel=1e-9)

    def test_benchmark_table_against_40_digit_integrals(self):
        # the benchmark's table (-0.5:0.5:2, s = 1), normwise
        grid = np.array([-0.5, 0.5])
        ref = np.array([[_mp_pearcey_kernel(x, y, 1.0) for y in grid] for x in grid])
        got = kr.pearcey_kernel(grid[:, None], grid[None, :], 1.0)
        assert np.abs(got - ref).max() <= 1.5e-15 * np.abs(ref).max()

    def test_ode_residuals_on_the_whole_range(self):
        # p''' = s p' - x p and q''' = y q + s q', to 1e-12 of the largest
        # moment, up to |x| = 20
        for s in (-10.0, -3.0, 0.0, 4.0, 10.0):
            for v in np.linspace(-20.0, 20.0, 9):
                p = [kr.pearcey_p(v, s, k) for k in range(4)]
                q = [(-1) ** k * kr.pearcey_q(v, s, k) for k in range(4)]
                assert abs(p[3] - (s * p[1] - v * p[0])) <= 1e-12 * max(map(abs, p))
                assert abs(q[3] - (v * q[0] + s * q[1])) <= 1e-12 * max(map(abs, q))

    def test_check_fires_when_the_step_is_too_coarse(self, monkeypatch):
        # a rule of step 0.3 on the same range: its half-step rule differs
        # by more than 1e-7 of the numerator's terms
        u = 0.3 * np.arange(-10, 11)
        for name, value in [("_STEP", 0.3), ("_U", u), ("_EXP", (np.exp(u), np.exp(-u))),
                            ("_EXPM1", (np.expm1(u), np.expm1(-u)))]:
            monkeypatch.setattr(kr, name, value)
        with pytest.raises(ArithmeticError, match="half-step"):
            kr.pearcey_kernel(0.5, -0.5, 1.0)

    def test_q_moments_against_40_digit_integrals(self):
        # q, q' and q'' on the upright eta line, each within 1e-14 of the
        # largest of the three: 16 seeded points (y, s) of the range and 24
        # on or next to the caustic 27 y^2 = 4 s^3, where two of the three
        # saddles merge (1.6e-15 and 2.0e-15 measured)
        rng = np.random.default_rng(29)
        points = [*zip(rng.uniform(-20.0, 20.0, 16), rng.uniform(-10.0, 10.0, 16))]
        for s in (0.5, 2.0, 5.0, 9.0):
            y = math.sqrt(4.0 * s ** 3 / 27.0)
            points += [(sign * y * scale, s) for sign in (-1.0, 1.0)
                       for scale in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
        for y, s in points:
            got = kr._moments(np.array([y]), s, 2, sign=-1.0)[0, :, 0] * np.array([1, -1, 1])
            want = np.array([complex(v) for v in _mp_pearcey_q(y, s)])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (y, s)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 3.0])
    def test_scan_against_double_integral(self, s):
        # 40 seeded points of the documented range [-2, 2]^2 per s
        x, y = np.random.default_rng(23).uniform(-2.0, 2.0, (2, 40))
        d0 = max(0.75, math.sqrt(max(s, 0.0)))
        ref = kr._pearcey_raw(x, y, s, d0, 12.0, 60, 120).real
        assert np.abs(kr.pearcey_kernel(x, y, s) - ref).max() <= 1e-9


@functools.cache
def _mp_legendre_24():
    """The 24-point Gauss-Legendre rule on [-1, 1] to 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        return mp.gauss_quadrature(24, "legendre")


@functools.cache
def _mp_pearcey(x, y, s):
    """p, p', p'' at x and q, q', q'' at y to 40 digits: a composite 24-point
    Gauss-Legendre rule on 24 panels of t in [0, 6], along the xi rays
    t e^{i pi/4} and t e^{3i pi/4} (each with its conjugate ray) and the
    imaginary eta axis (each t with -t, _mp_pearcey_q)."""
    import mpmath as mp

    with mp.workdps(40):
        nodes, weights = _mp_legendre_24()
        x, s = mp.mpf(x), mp.mpf(s)
        rays = ((mp.expjpi(mp.mpf(1) / 4), -1), (mp.expjpi(mp.mpf(3) / 4), 1))
        p = [mp.mpc(0)] * 3
        half = mp.mpf(1) / 8
        for panel in range(24):
            for node, weight in zip(nodes, weights):
                t = (2 * panel + 1 + node) * half
                for e, sign in rays:
                    z = t * e
                    f = sign * e * weight * mp.exp(z ** 4 / 4 - s * z * z / 2 + x * z)
                    p = [p[0] + f, p[1] + f * z, p[2] + f * z * z]
        return [2 * v.imag * half / (2 * mp.pi) for v in p], _mp_pearcey_q(y, s)


@functools.cache
def _mp_pearcey_q(y, s):
    """q, q', q'' at y to 40 digits, on _mp_pearcey's rule along the eta axis."""
    import mpmath as mp

    with mp.workdps(40):
        nodes, weights = _mp_legendre_24()
        y, s = mp.mpf(y), mp.mpf(s)
        q = [mp.mpf(0)] * 3
        half = mp.mpf(1) / 8
        for panel in range(24):
            for node, weight in zip(nodes, weights):
                t = (2 * panel + 1 + node) * half
                g = 2 * weight * mp.exp(-t ** 4 / 4 - s * t * t / 2)
                c, sn = mp.cos(y * t), mp.sin(y * t)
                q = [q[0] + g * c, q[1] - g * t * sn, q[2] - g * t * t * c]
        return [v * half / (2 * mp.pi) for v in q]


def _mp_pearcey_kernel(x, y, s):
    """The integrable form from _mp_pearcey, its x-derivative on the diagonal."""
    import mpmath as mp

    with mp.workdps(40):
        p, q = _mp_pearcey(x, y, s)
        if x == y:
            p = p[1:] + [s * p[1] - x * p[0]]
        value = p[2] * q[0] - p[1] * q[1] + p[0] * q[2] - s * p[0] * q[0]
        return float(value if x == y else value / (mp.mpf(x) - mp.mpf(y)))


class TestMatrixKernels:
    def test_bulk_beta1_diagonal(self):
        k = kr.matrix_kernel_bulk(1, 0.4, 0.4)
        assert k[0, 1] == 1.0
        assert k[1, 1] == 0.0
        assert k[0, 0] == 0.0

    def test_bulk_beta4_diagonal(self):
        k = kr.matrix_kernel_bulk(4, -1.1, -1.1)
        assert k[0, 1] == 1.0
        assert k[1, 1] == 0.0

    @pytest.mark.parametrize("beta", [1, 4])
    def test_bulk_is_the_assembly_of_the_sine_kernels(self, beta):
        # one difference and one check per call give bit for bit the entries
        # built from the public kernels at (f x, f y), f = 1 or 2; the grid
        # holds a pair 1e-5 apart, inside the Cauchy band of S_x
        from rmtlab.specfun import sinc_integral

        pts = np.linspace(-3.0, 3.0, 40)
        pts = np.r_[pts, pts[20] + 1e-5]
        x, y = pts[:, None], pts[None, :]
        f = 1.0 if beta == 1 else 2.0
        k12 = kr.sine_kernel(f * x, f * y)
        k22 = (sinc_integral(x - y) - 0.5 * np.sign(x - y) if beta == 1
               else 0.5 * sinc_integral(2.0 * (x - y)))
        want = np.stack([np.stack([f * kr.sine_kernel_dx(f * y, f * x), k12], -1),
                         np.stack([-k12, k22], -1)], -2)
        got = kr.matrix_kernel_bulk(beta, x, y)
        assert got.shape == (41, 41, 2, 2)
        assert np.array_equal(got, want)
        assert not np.signbit(got[np.arange(41), np.arange(41), 0, 0]).any()

    @pytest.mark.parametrize("beta", [1, 4])
    def test_bulk_antisymmetry(self, beta):
        a = kr.matrix_kernel_bulk(beta, 0.2, 1.9)
        b = kr.matrix_kernel_bulk(beta, 1.9, 0.2)
        assert np.allclose(b, -a.T, atol=1e-12)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_edge_k21_is_minus_k12(self, beta):
        # K21(x,y) = -K12(y,x); the swapped arguments (invisible in the
        # bulk) are what keep the assembled block matrix skew-symmetric
        x, y = 0.5, -1.0
        k = kr.matrix_kernel_edge(beta, x, y)
        kswap = kr.matrix_kernel_edge(beta, y, x)
        assert k[1, 0] == pytest.approx(-kswap[0, 1], rel=1e-12)
        kd = kr.matrix_kernel_edge(beta, 0.3, 0.3)
        assert kd[1, 0] == -kd[0, 1]

    def test_edge_far_right_values(self):
        k = kr.matrix_kernel_edge(1, 8.0, 9.0)
        assert abs(k[0, 0]) < 1e-6
        assert abs(k[0, 1]) < 1e-6
        # only the sgn constant survives in K22
        assert abs(k[1, 1] - 0.5) < 1e-6

    def test_edge_beta4_k11_finite_difference(self):
        # K11(x,x) = (1/2) d_y K_Ai(x,y)|_{y=x} + (1/4) Ai(x)^2, with the
        # derivative from centered differences of the scalar Airy kernel
        # (h large enough that the quotient cancellation stays below 1e-7)
        x = 0.0
        h = 1e-4
        dy = (kr.airy_kernel(x, x + h) - kr.airy_kernel(x, x - h)) / (2.0 * h)
        want = 0.5 * dy + 0.25 * airy(x).value ** 2
        got = kr.matrix_kernel_edge(4, x, x)[0, 0]
        assert got == pytest.approx(want, abs=1e-7)
        # analytically both sides are 0 there
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x, y", [(-3.0, -3.0), (0.5, 0.5), (-1.0, 2.0), (2.0, -1.0),
                                      (-10.0, 0.3), (-25.0, -25.0), (1.0, 1.0 + 1e-7),
                                      (np.array([-30.0, -3.0, 0.5, -1.0, 2.0, -10.0, 13.2]),
                                       np.array([-29.0, -3.0, 0.5, 2.0, -1.0, 0.3, 13.2]))])
    def test_edge_tail_integral_against_quad(self, x, y):
        # integral_x^inf K_Ai(t, y) dt; adaptive quadrature of the scalar
        # kernel up to t = 30, where the integrand is far below 1e-20; an
        # array of pairs goes through one batched quadrature
        import scipy.integrate

        def ref(x, y):
            cut = min(x + 10.0, 30.0)
            return sum(scipy.integrate.quad(lambda t: kr.airy_kernel(t, y), a, b,
                                            limit=400, epsabs=1e-14)[0]
                       for a, b in [(x, cut), (cut, 30.0)] if b > a)

        want = np.vectorize(ref)(x, y)
        assert _kernel_tail(x, y) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_tail_integral_bitwise_per_pair(self, seed):
        # repeated x and y values, x beyond the cut at 14, pairs inside the
        # diagonal band and on the knots
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(-30.0, 20.0, size=6), 1)
        y = np.round(rng.uniform(-30.0, 20.0, size=5), 1)
        x = np.concatenate([x, x[:2], y[:2] + 1e-7, [14.0, 17.5, -30.0]])
        y = np.concatenate([y, y[:1], x[:2], [-30.0]])
        for a, b in [(x[:, None], y[None, :]), (x[:len(y)], y), (x[3], y[0])]:
            want = _tail_integral_per_pair(a, b)
            got = _kernel_tail(a, b)
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))
            for beta in (1, 4):
                got = kr.matrix_kernel_edge(beta, a, b)
                assert np.array_equal(got.view(np.uint64),
                                      _edge_per_pair(beta, a, b).view(np.uint64))

    def test_edge_airy_points_after_warm_up(self, monkeypatch):
        # the full-panel Airy values are kept; a second call evaluates Airy
        # once at the distinct mesh points, once on their partial panels and
        # on the diagonal bands
        import rmtlab.specfun as sf

        pts = np.array([-1.2, -0.4, 0.35, 1.3])
        kr.matrix_kernel_edge(4, pts[:, None], pts[None, :])
        points = []

        def counted(x):
            out = real(x)
            points.append(out[0].size)
            return out

        real = sf.airy_real
        monkeypatch.setattr(sf, "airy_real", counted)
        kr.matrix_kernel_edge(4, pts[:, None], pts[None, :])
        assert 0 < sum(points) <= 92

    def test_airy_kernel_dy_evaluates_airy_once_per_argument(self, monkeypatch):
        # no pair lies in a diagonal band: Ai at x and at y, and the kernel
        # term of the numerator reuses them
        import rmtlab.specfun as sf

        calls = []
        real = sf.airy_real
        monkeypatch.setattr(sf, "airy_real", lambda x: calls.append(np.size(x)) or real(x))
        pts = np.array([-2.0, -0.5, 0.7, 1.9])
        kr.airy_kernel_dy(pts[:, None], pts[None, :] + 0.25)
        assert calls == [4, 4]

    def test_edge_knot_points_skip_empty_panels(self, monkeypatch):
        # -1.5 and -0.5 are knots of the tail integral: their partial panels
        # are empty, so they add an exact 0 and call Airy nowhere (with y = x
        # the 20 coincident nodes would also take the exact diagonal value)
        import rmtlab.specfun as sf

        pts = np.array([-1.5, -0.5, 0.3, 1.1])
        got = [kr.matrix_kernel_edge(beta, pts[:, None], pts[None, :]) for beta in (1, 4)]
        points = []
        real = sf.airy_real
        monkeypatch.setattr(sf, "airy_real", lambda x: points.append(np.size(x)) or real(x))
        kr.matrix_kernel_edge(4, pts[:, None], pts[None, :])
        assert 0 < sum(points) <= 52
        for beta, g in zip((1, 4), got):
            want = _edge_per_pair(beta, pts[:, None], pts[None, :])
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))

    def test_cached_tables_read_only(self):
        from rmtlab.specfun import _tail_nodes

        t, w, f = _tail_nodes(0)
        for v in (t, w, f.value, f.derivative):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[(0,) * v.ndim] = 1.0

    def test_edge_argument_range(self):
        with pytest.raises(ValueError):
            kr.matrix_kernel_edge(1, -30.5, 0.0)

    @pytest.mark.parametrize("beta", [1, 4])
    def test_edge_assembled_skew(self, beta):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=3)
        k = 3
        a = np.zeros((2 * k, 2 * k))
        for i in range(k):
            for j in range(k):
                a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kr.matrix_kernel_edge(beta, pts[i], pts[j])
        assert np.abs(a + a.T).max() <= 1e-8 * (1.0 + np.abs(a).max())


class TestCorrelations:
    def test_det_k1(self):
        assert kr.correlation_det(KernelHandle("sine"), [0.0]) == 1.0

    def test_det_repulsion(self):
        for t in [1.0, 0.3, 0.05, 1e-3]:
            v = kr.correlation_det(KernelHandle("sine"), [0.0, t])
            assert v >= -1e-12
            assert v == pytest.approx(1.0 - kr.sine_kernel(0.0, t) ** 2, abs=1e-12)
        assert kr.correlation_det(KernelHandle("sine"), [0.0, 1e-9]) < 1e-8

    def test_det_half_spacing(self):
        v = kr.correlation_det(KernelHandle("sine"), [0.0, 0.5])
        assert v == pytest.approx(1.0 - (2.0 / math.pi) ** 2, abs=1e-12)

    def test_pfaffian_base_case(self):
        assert kr.pfaffian(np.array([[0.0, 3.7], [-3.7, 0.0]])) == 3.7

    def test_pfaffian_zero_pivot_column(self):
        # a zero first column, or a zero column left after the first step,
        # gives Pf = 0.0 exactly
        a = np.zeros((4, 4))
        a[2, 3], a[3, 2] = 1.5, -1.5
        assert kr.pfaffian(a) == 0.0
        b = np.zeros((4, 4))
        b[0, 1], b[1, 0] = 2.0, -2.0
        assert kr.pfaffian(b) == 0.0

    def test_pfaffian_squares_to_det(self):
        rng = np.random.default_rng(1)
        for n in [4, 6, 8, 10, 12]:
            m = rng.normal(size=(n, n))
            a = m - m.T
            pf = kr.pfaffian(a)
            assert pf * pf == pytest.approx(np.linalg.det(a), rel=1e-9)

    def test_pfaffian_tridiagonalization_matches_expansion(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(8, 8))
        a = m - m.T
        big = np.zeros((10, 10))
        big[1:9, 1:9] = a
        big[0, 9] = 1.0
        big[9, 0] = -1.0
        # Pf of the padded matrix by reduction; compare against expansion
        assert kr.pfaffian(big) == pytest.approx(_pfaffian_expand(big), rel=1e-10)

    @staticmethod
    def _assert_matches_mpmath(a):
        # within 1e-15 of the Hadamard bound prod_j |a_j|^(1/2), against a
        # 50-digit expansion of the same (exactly converted) entries
        import mpmath

        with mpmath.workdps(50):
            err = abs(kr.pfaffian(a) - _pfaffian_mpmath(a))
        bound = float(np.prod(np.sqrt(np.linalg.norm(a, axis=0))))
        assert float(err) <= 1e-15 * bound

    def test_pfaffian_random_skew_against_mpmath(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6, 8):
            for _ in range(4):
                m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, size=n)
                self._assert_matches_mpmath(m - m.T)

    @pytest.mark.parametrize("family", ["sine_beta1", "sine_beta4",
                                        "airy_beta1", "airy_beta4"])
    def test_pfaffian_kernel_meshes_against_mpmath(self, family):
        rng = np.random.default_rng(4)
        h = KernelHandle(family)
        for k in (1, 2, 3, 4):
            for _ in range(3):
                # columns from the oscillating and the decaying side of the edge
                pts = np.sort(rng.uniform(-6.0, 8.0, size=k))
                blocks = h.evaluate(pts[:, None], pts[None, :])
                self._assert_matches_mpmath(
                    blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k))

    @pytest.mark.parametrize("family", ["sine_beta1", "sine_beta4",
                                        "airy_beta1", "airy_beta4"])
    def test_pfaffian_large_kernel_meshes_against_mpmath(self, family):
        # 10x10 to 16x16: the correlations of k = 5...8 points
        rng = np.random.default_rng(5)
        h = KernelHandle(family)
        for k in (5, 6, 7, 8):
            pts = np.sort(rng.uniform(-6.0, 8.0, size=k))
            blocks = h.evaluate(pts[:, None], pts[None, :])
            self._assert_matches_mpmath(blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k))

    def test_pfaffian_padded_edge_mesh_against_mpmath(self):
        # an airy_beta1 mesh from both sides of the edge, whose columns
        # differ in size by orders of magnitude, padded to 10x10 by a unit
        # pair: a reduction that is accurate only normwise, such as
        # Householder tridiagonalization, misses it by about 5e-13
        pts = np.array([-2.75, -0.5, 6.25, 6.75])
        blocks = KernelHandle("airy_beta1").evaluate(pts[:, None], pts[None, :])
        big = np.zeros((10, 10))
        big[1:9, 1:9] = blocks.transpose(0, 2, 1, 3).reshape(8, 8)
        big[0, 9], big[9, 0] = 1.0, -1.0
        self._assert_matches_mpmath(big)

    def test_correlation_pfaffian_bulk(self):
        # Pf(A)^2 = det(A) for the 4x4 assembled from the beta=1 bulk kernel
        h = KernelHandle("sine_beta1")
        pts = [0.0, 0.7]
        pf = kr.correlation_pfaffian(h, pts)
        a = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kr.matrix_kernel_bulk(1, pts[i], pts[j])
        assert pf * pf == pytest.approx(np.linalg.det(a), abs=1e-8)

    def test_correlation_pfaffian_k1_beta4(self):
        assert kr.correlation_pfaffian(KernelHandle("sine_beta4"), [0.0]) == pytest.approx(1.0)

    def test_handles_validate(self):
        with pytest.raises(ValueError):
            KernelHandle("sine", alpha=1.0)
        with pytest.raises(ValueError):
            KernelHandle("bessel_hard")
        with pytest.raises(ValueError):
            KernelHandle("pearcey")
        with pytest.raises(ValueError):
            KernelHandle("nope")
        assert KernelHandle("bessel_hard", alpha=0.5).arity == "scalar"
        for bad in (math.nan, math.inf, -math.inf):
            for family, kw in [("bessel_hard", "alpha"), ("bessel_origin", "alpha"),
                               ("pearcey", "s")]:
                with pytest.raises(ValueError):
                    KernelHandle(family, **{kw: bad})
        assert KernelHandle("bessel_origin", alpha=-0.0).alpha == 0.0
        assert KernelHandle("pearcey", s=-0.0).s == 0.0
        for call in (kr.bessel_hard_kernel, kr.bessel_origin_kernel):
            with pytest.raises(ValueError):
                call(math.nan, 0.5, 0.7)
        assert KernelHandle("airy_beta4").arity == "matrix2x2"


class TestScalarKernelInvariants:
    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(9)
        handles = [
            (KernelHandle("sine"), (-3.0, 3.0)),
            (KernelHandle("airy"), (-6.0, 3.0)),
            (KernelHandle("bessel_hard", alpha=0.7), (0.05, 9.0)),
            (KernelHandle("bessel_origin", alpha=1.3), (0.05, 4.0)),
        ]
        for h, (lo, hi) in handles:
            for _ in range(8):
                x, y = rng.uniform(lo, hi, 2)
                assert h.evaluate(x, y) == pytest.approx(h.evaluate(y, x), rel=1e-10, abs=1e-12)

    def test_diagonal_limit_continuity(self):
        eps = 1e-4
        cases = [
            (KernelHandle("sine"), 0.37),
            (KernelHandle("airy"), -0.8),
            (KernelHandle("bessel_hard", alpha=0.5), 1.7),
            (KernelHandle("bessel_origin", alpha=1.0), 0.9),
        ]
        for h, x in cases:
            assert abs(h.evaluate(x, x + eps) - h.evaluate(x, x)) <= 5.0 * eps

    def test_principal_minors_nonnegative(self):
        rng = np.random.default_rng(13)
        for h, (lo, hi) in [(KernelHandle("sine"), (-2.0, 2.0)),
                            (KernelHandle("airy"), (-5.0, 2.0))]:
            for k in [2, 3, 4]:
                pts = np.sort(rng.uniform(lo, hi, k))
                assert kr.correlation_det(h, pts) >= -1e-10


def _mp_cached(f):
    """f at 45 digits, memoized over its (float) arguments."""
    import mpmath

    @functools.cache
    def at(*args):
        with mpmath.workdps(45):
            return f(mpmath, *args)
    return at


@_mp_cached
def _mp_airy(mp, x):
    return mp.airyai(x), mp.airyai(x, 1)


def _mp_airy_kernel(x, y, dy=False):
    """K_Ai, or partial_y K_Ai, at 45 digits."""
    import mpmath

    (a, ap), (b, bp) = _mp_airy(x), _mp_airy(y)
    with mpmath.workdps(45):
        if x == y:
            return -a * a / 2 if dy else ap * ap - x * a * a
        d = mpmath.mpf(x) - mpmath.mpf(y)
        k = (a * bp - ap * b) / d
        return (a * y * b - ap * bp + k) / d if dy else k


@_mp_cached
def _mp_bessel_pair(mp, alpha, u):
    return mp.besselj(alpha, u), mp.besselj(alpha, u, 1)


def _mp_bessel_hard(alpha, x, y):
    import mpmath

    with mpmath.workdps(45):
        u, v = mpmath.sqrt(x), mpmath.sqrt(y)
        (ju, jpu), (jv, jpv) = _mp_bessel_pair(alpha, u), _mp_bessel_pair(alpha, v)
        if x == y:
            return ((1 - alpha * alpha / mpmath.mpf(x)) * ju ** 2 + jpu ** 2) / 4
        return (ju * v * jpv - u * jpu * jv) / (2 * (mpmath.mpf(x) - mpmath.mpf(y)))


def _mp_bessel_origin(alpha, x, y):
    import mpmath

    with mpmath.workdps(45):
        half = mpmath.mpf(1) / 2
        px, mx = _mp_bessel_pair(alpha + half, mpmath.pi * x), _mp_bessel_pair(alpha - half, mpmath.pi * x)
        if x == y:
            return mpmath.pi ** 2 * x / 2 * (mx[0] * px[1] - px[0] * mx[1])
        py, my = _mp_bessel_pair(alpha + half, mpmath.pi * y), _mp_bessel_pair(alpha - half, mpmath.pi * y)
        return (mpmath.pi * mpmath.sqrt(mpmath.mpf(x) * y) * (px[0] * my[0] - mx[0] * py[0])
                / (2 * (mpmath.mpf(x) - mpmath.mpf(y))))


def _mp_sine_dx(x, y):
    import mpmath

    with mpmath.workdps(45):
        d = mpmath.mpf(x) - mpmath.mpf(y)
        return (mpmath.cos(mpmath.pi * d) - mpmath.sinc(mpmath.pi * d)) / d if d else 0


# offsets d from 1e-9 to 0.05, relative to 1 + |x| on the line and to x on
# the half-line: inside the band r/250, at its edge and past it
SCAN_OFFSETS = [1e-9, 1e-7, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 0.05]
# the README's bounds: kernel, mpmath oracle, x points, offsets relative to
# x (half-line) or to 1 + |x|, error scale at x, bound
AIRY_XS = np.linspace(-30.0, 20.0, 43)
NEAR_DIAGONAL_SCANS = {
    "airy": (kr.airy_kernel, _mp_airy_kernel, AIRY_XS, False,
             lambda x: abs(float(_mp_airy_kernel(x, x))), 1e-10),
    "airy_dy": (kr.airy_kernel_dy, functools.partial(_mp_airy_kernel, dy=True), AIRY_XS, False,
                lambda x: abs(float(_mp_airy_kernel(x, x))) * (1.0 + math.sqrt(abs(x))), 5e-9),
    "sine_dx": (kr.sine_kernel_dx, _mp_sine_dx, np.linspace(-50.0, 50.0, 21), False,
                lambda x: 1.0, 2e-13),
}
for _alpha, _lo, _bound in [(0.0, 1e-3, 5e-11), (1.5, 1e-3, 5e-9), (100.0, 10.0, 3e-7)]:
    # at alpha = 100 the kernel underflows below x = 10
    NEAR_DIAGONAL_SCANS[f"bessel_hard_{_alpha:g}"] = (
        functools.partial(kr.bessel_hard_kernel, _alpha),
        functools.partial(_mp_bessel_hard, _alpha), np.geomspace(_lo, 1e5, 25), True,
        lambda x, a=_alpha: abs(float(_mp_bessel_hard(a, x, x))), _bound)
for _alpha in (0.5, 1.5, 10.0):
    NEAR_DIAGONAL_SCANS[f"bessel_origin_{_alpha:g}"] = (
        functools.partial(kr.bessel_origin_kernel, _alpha),
        functools.partial(_mp_bessel_origin, _alpha), np.geomspace(1e-3, 300.0, 25), True,
        lambda x, a=_alpha: abs(float(_mp_bessel_origin(a, x, x))), 3e-11)


class TestNearDiagonal:
    """Each integrable kernel across its diagonal: the exact diagonal value,
    the Cauchy mean inside the band and the plain quotient past it, against
    mpmath at 45 digits."""

    @pytest.mark.parametrize("name", NEAR_DIAGONAL_SCANS)
    def test_scan_against_mpmath(self, name):
        kernel, oracle, xs, half_line, scale, bound = NEAR_DIAGONAL_SCANS[name]
        worst = 0.0
        for x in xs:
            x = float(x)
            ys = [x] + [x + d * (x if half_line else 1.0 + abs(x)) for d in SCAN_OFFSETS]
            got = kernel(x, np.array(ys))
            want = np.array([float(oracle(x, y)) for y in ys])
            worst = max(worst, np.abs(got - want).max() / scale(x))
        assert worst <= bound

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 3.0])
    def test_pearcey_against_double_integral(self, s):
        # d <= 1e-3 is the band of r = 0.25 and its edge
        xs = np.repeat([-1.7, -0.4, 0.0, 0.9, 2.0], 6)
        ys = xs + np.tile([0.0, 1e-9, 1e-7, 1e-5, 3e-4, 1e-3], 5)
        d0 = max(0.75, math.sqrt(max(s, 0.0)))
        ref = kr._pearcey_raw(xs, ys, s, d0, 12.0, 60, 120).real
        assert np.abs(kr.pearcey_kernel(xs, ys, s) - ref).max() <= 1e-12

    def test_cauchy_mean_only_inside_the_band(self, monkeypatch):
        # the band of the Airy kernel is 0 < |x - y| < r / 250 = 4e-4: each
        # of its entries takes 13 complex Airy pairs, for x and y together, and
        # the diagonal and the entries past the band take none
        sizes = []
        real_airy = kr.airy

        def counted(z):
            if np.iscomplexobj(z):
                sizes.append(np.size(z))
            return real_airy(z)

        monkeypatch.setattr(kr, "airy", counted)
        y = -1.0 + np.array([0.0, 2e-4, -3.5e-4, 4.5e-4, 0.1])
        got = kr.airy_kernel(-1.0, y)
        assert sizes == [26]
        want = [float(_mp_airy_kernel(-1.0, v)) for v in y]
        np.testing.assert_allclose(got, want, rtol=0, atol=3e-13)


def _fredholm_det(kernel, a, b, m):
    """det(I - K) on L^2(a, b) by the Nystrom method on m Gauss-Legendre
    nodes (Bornemann, Math. Comp. 79, 2010)."""
    t, w = np.polynomial.legendre.leggauss(m)
    x, w = 0.5 * (b - a) * t + 0.5 * (b + a), 0.5 * (b - a) * w
    root = np.sqrt(w)
    return np.linalg.det(np.eye(m) - root[:, None] * kernel(x[:, None], x[None, :]) * root)


def _gue_edge_law(n, m=48):
    """F_n(s) = P(lambda_max <= 2 + s n^(-2/3)) for the weight e^{-n x^2/2}
    (GUE on the semicircle [-2, 2]): det(I - K_n) on L^2(2 + s n^(-2/3), hi)
    from the CD kernel, with hi the end of the table's window."""
    w = op.WeightSpec(Potential((0.0, 0.0, 0.5)), N=n)
    t = op.recurrence_table(w, n)

    def kernel(x, y):
        return op.cd_kernel_grid(t, w, n, x.ravel(), y.ravel())

    return lambda s: _fredholm_det(kernel, 2.0 + s * n ** (-2.0 / 3.0), t.window[1], m)


class TestFredholmOracles:
    def test_finite_n_edge_law_tends_to_f2(self):
        # sup over 25 points s of [-4, 2] of |F_n - F2| falls as n^(-2/3)
        # (Johnstone-Ma, Ann. Appl. Probab. 22, 2012): the least-squares
        # exponent over n = 64 ... 512 lies in 2/3 +- 0.03 (0.669 measured;
        # 5.5e-3 at n = 64, 1.4e-3 at 512); F_64 on 48 and 80 nodes agree
        # to 1e-13
        s = np.linspace(-4.0, 2.0, 25)
        f2 = np.array([_fredholm_det(kr.airy_kernel, v, v + 14.0, 48) for v in s])
        ns = np.array([64, 128, 256, 512])
        sups = [max(abs(law(v) - f) for v, f in zip(s, f2)) for law in map(_gue_edge_law, ns)]
        slope = np.polyfit(np.log(ns), np.log(sups), 1)[0]
        assert abs(slope + 2.0 / 3.0) <= 0.03, (slope, sups)
        f64, f64_fine = _gue_edge_law(64), _gue_edge_law(64, 80)
        assert max(abs(f64(v) - f64_fine(v)) for v in (-3.0, -1.0, 0.0, 1.0)) <= 1e-13

    def test_gue_largest_eigenvalue_against_finite_n_law(self):
        # Kolmogorov-Smirnov test of lambda_max of 4000 GUE draws (n = 64,
        # seed 1) against F_64, at a 1% false-alarm rate: D <= 1.628 /
        # sqrt(4000) = 0.0257 (D = 0.0176 measured).  F_64 is the degree-60
        # Chebyshev interpolant of the Fredholm determinant on the sample's
        # range, within 1e-12 of it at 7 points between the nodes (6e-15
        # measured).
        lam = mc.sample_gaussian(2, 64, 4000, seed=1).eigenvalue_sets[:, -1]
        s = np.sort((lam - 2.0) * 64 ** (2.0 / 3.0))
        law = _gue_edge_law(64)
        f = np.polynomial.Chebyshev.interpolate(lambda v: np.array([law(x) for x in v]), 60,
                                                domain=[s[0], s[-1]])
        probe = np.linspace(s[0], s[-1], 9)[1:-1] + 1e-3
        assert max(abs(f(v) - law(v)) for v in probe) <= 1e-12
        cdf, m = f(s), len(s)
        d = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
        assert d <= 1.628 / math.sqrt(m), d

    def test_tracy_widom_f2_mean_and_variance(self):
        # F2(s) = det(I - K_Ai) on (s, inf), cut at s + 14 (48 nodes); the
        # moments from F2 on 64 Gauss-Legendre nodes of [-8, 8], where
        # F2 and 1 - F2 are below 1e-16: E s = 8 - Int F2, E s^2 = 64 - 2 Int s F2
        t, w = np.polynomial.legendre.leggauss(64)
        s, w = 8.0 * t, 8.0 * w
        f2 = np.array([_fredholm_det(kr.airy_kernel, v, v + 14.0, 48) for v in s])
        mean = 8.0 - w @ f2
        var = 64.0 - 2.0 * w @ (s * f2) - mean * mean
        assert abs(mean + 1.7710868074116) <= 1e-12
        assert abs(var - 0.8131947928329) <= 1e-12

    def test_tracy_widom_f1_mean_and_variance(self):
        # F1(s) = det(I - K) with K(x, y) = Ai((x + y)/2) / 2 on (s, inf)
        # (Ferrari-Spohn 2005), cut at s + 26 (48 nodes), where Ai/2 is below
        # 1e-17; the moments from F1 on 64 Gauss-Legendre nodes of [-10, 14],
        # where F1 and 1 - F1 are below 1e-16.  Seven node counts and cuts
        # from (64, 48, 26) to (96, 80, 34) agree to 5e-14 in the mean and to
        # 9e-13 in the variance, so those are held to 1e-12 and 2e-12.
        t, w = np.polynomial.legendre.leggauss(64)
        s, w = 12.0 * t + 2.0, 12.0 * w

        def kernel(x, y):
            return 0.5 * airy(0.5 * (x + y)).value

        f1 = np.array([_fredholm_det(kernel, v, v + 26.0, 48) for v in s])
        mean = 14.0 - w @ f1
        var = 196.0 - 2.0 * w @ (s * f1) - mean * mean
        assert abs(mean + 1.2065335745820) <= 1e-12
        assert abs(var - 1.6077810345810) <= 2e-12

    @pytest.mark.parametrize("s", [1.0, 4.0])
    def test_hard_edge_gap_alpha_zero(self, s):
        # the alpha = 0 hard-edge gap probability on [0, s] is e^{-s/4}
        gap = _fredholm_det(functools.partial(kr.bessel_hard_kernel, 0.0), 0.0, s, 20)
        assert abs(gap - math.exp(-s / 4.0)) <= 1e-14

    def test_finite_n_hard_edge_law_is_exponential(self):
        # for the weight e^{-n x} on [0, inf) with N = n, x -> x + t factors
        # e^{-n^2 t} out of the joint density, so lambda_min is exactly
        # exponential at every n (Edelman, SIAM J. Matrix Anal. Appl. 9,
        # 1988): det(I - K_n) on (0, s / (c n)^2) = e^{-s/4}, c = 2 the
        # hard-edge window's scale.  24 Gauss-Legendre nodes, 25 points s of
        # [0.25, 12]; the band is 4e-15 n (sup errors 3.6e-15, 7.3e-15,
        # 3.1e-14, 2.2e-13 and 6.2e-13 measured at n = 32 ... 512)
        pot = Potential((0.0, 1.0), hard_edge=True)
        mu = eq.solve_equilibrium(pot)
        c = op.hard_edge_window(mu, np.array([1.0])).c
        assert c == pytest.approx(2.0, rel=1e-12)
        s = np.linspace(0.25, 12.0, 25)
        for n in (32, 64, 128, 256, 512):
            w = op.WeightSpec(pot, N=n)
            t = op.recurrence_table(w, n, mu)

            def kernel(x, y):
                return op.cd_kernel_grid(t, w, n, x.ravel(), y.ravel())

            law = [_fredholm_det(kernel, 0.0, v / (c * n) ** 2, 24) for v in s]
            assert np.abs(np.array(law) - np.exp(-s / 4.0)).max() <= 4e-15 * n, n

    def test_sine_gap_small_and_large_s(self):
        # E2(0; s) = det(I - K_sine) on [0, s], 30 nodes.  Small s: the
        # series 1 - s + pi^2 s^4/36 - pi^4 s^6/675, whose remainder is
        # O(s^8) (2.1e-12 at s = 0.05 and 5.4e-10 at 0.1, a ratio of 2^8).
        # Large s, t = pi s / 2: log E2 + t^2/2 + log(t)/4 tends to Dyson's
        # constant log(2)/12 + 3 zeta'(-1) (Krasovsky, IMRN 2004; Ehrhardt,
        # CMP 262, 2006) as 1/(32 t^2): 8.21e-4 at s = 4 and 3.57e-4 at 6,
        # 1.037 and 1.015 times that term.  Not at s = 8: there the largest
        # eigenvalue of K lies so close to 1 that the float64 determinant is
        # 8e-6 off a 40-digit one, which moves the ratio from 1.008 to 1.049
        def gap(s):
            return _fredholm_det(kr.sine_kernel, 0.0, s, 30)

        small = [abs(gap(s) - (1.0 - s + math.pi ** 2 * s ** 4 / 36.0
                               - math.pi ** 4 * s ** 6 / 675.0)) for s in (0.05, 0.1)]
        assert small[0] <= 5e-12 and small[1] <= 1e-9, small
        assert abs(math.log2(small[1] / small[0]) - 8.0) <= 0.1, small
        dyson = math.log(2.0) / 12.0 + 3.0 * -0.16542114370045092
        ratios = []
        for s in (4.0, 6.0):
            t = 0.5 * math.pi * s
            ratios.append((math.log(gap(s)) + 0.5 * t * t + 0.25 * math.log(t) - dyson)
                          * 32.0 * t * t)
        assert 1.0 < ratios[1] < ratios[0] <= 1.05, ratios


# families, parameters and a centre inside each family's range; the offsets
# put entries on the diagonal, inside every band of Cauchy means (about 1e-3
# at these centres; the sine kernel has none) and outside them
FAMILIES = [(KernelHandle("sine"), 0.4), (KernelHandle("airy"), -1.3),
            (KernelHandle("bessel_hard", alpha=0.7), 1.2),
            (KernelHandle("bessel_origin", alpha=1.3), 0.8),
            (KernelHandle("pearcey", s=0.5), 0.3),
            (KernelHandle("sine_beta1"), 0.2), (KernelHandle("sine_beta4"), 0.2),
            (KernelHandle("airy_beta1"), -0.5), (KernelHandle("airy_beta4"), -0.5)]
OFFSETS = np.array([0.0, 3e-9, 4e-7, 5e-6, 5e-5, 0.3, 1.1])


class TestBroadcasting:
    @pytest.mark.parametrize("h, c", FAMILIES, ids=[h.family for h, _ in FAMILIES])
    def test_grid_equals_scalar_calls(self, h, c):
        xs = c + np.array([0.0, 0.5, -0.1])
        ys = c + OFFSETS
        grid = h.evaluate(xs[:, None], ys[None, :])
        each = np.array([[h.evaluate(x, y) for y in ys] for x in xs])
        np.testing.assert_array_equal(grid, each)

    @pytest.mark.parametrize("fn", [kr.sine_kernel_dx, kr.airy_kernel_dy])
    def test_derivative_grid_equals_scalar_calls(self, fn):
        xs = 0.3 + np.array([0.0, 0.5, -0.1])
        ys = 0.3 + OFFSETS
        each = np.array([[fn(x, y) for y in ys] for x in xs])
        np.testing.assert_array_equal(fn(xs[:, None], ys[None, :]), each)

    @pytest.mark.parametrize("h, c", FAMILIES, ids=[h.family for h, _ in FAMILIES])
    def test_shapes(self, h, c):
        block = () if h.arity == "scalar" else (2, 2)
        one = h.evaluate(c, c + 0.2)
        if block:
            assert isinstance(one, np.ndarray) and one.shape == block
        else:
            assert type(one) is float
        xs, ys = c + np.linspace(0.0, 0.6, 4), c + np.linspace(0.0, 0.4, 3)
        assert h.evaluate(xs[:, None], ys[None, :]).shape == (4, 3) + block
        assert h.evaluate(xs, c).shape == (4,) + block
        assert h.evaluate(xs[:3], ys).shape == (3,) + block
        assert h.evaluate(xs[:0, None], ys[None, :]).shape == (0, 3) + block

    def test_specfun_arrays_equal_scalar_calls(self):
        from rmtlab import specfun

        xs = np.linspace(-40.0, 20.0, 61)
        np.testing.assert_array_equal(specfun.airy_tail(xs),
                                      [specfun.airy_tail(x) for x in xs])
        np.testing.assert_array_equal(specfun.sinc_integral(xs),
                                      [specfun.sinc_integral(x) for x in xs])
        us = np.abs(xs).reshape(61, 1)
        for alpha in (0.0, 0.5, 1.0, 3.3):
            got = specfun.bessel_j(alpha, us)
            assert got.value.shape == got.derivative.shape == (61, 1)
            np.testing.assert_array_equal(got.value[:, 0],
                                          [specfun.bessel_j(alpha, u).value for u in us[:, 0]])
            np.testing.assert_array_equal(
                got.derivative[:, 0], [specfun.bessel_j(alpha, u).derivative for u in us[:, 0]])
        ai = specfun.airy(xs.reshape(61, 1))
        assert ai.value.shape == ai.derivative.shape == (61, 1)
        np.testing.assert_array_equal(ai.value[:, 0], [specfun.airy(x).value for x in xs])
        np.testing.assert_array_equal(ai.derivative[:, 0],
                                      [specfun.airy(x).derivative for x in xs])
        assert type(specfun.airy(0.5).value) is float
        assert type(specfun.airy(0.5 + 0j).value) is complex
        assert type(specfun.airy_tail(0.5)) is float
        assert type(specfun.sinc_integral(0.5)) is float
        assert type(specfun.bessel_j(0.5, 0.0).derivative) is float

    def test_bessel_zero_conventions_in_arrays(self):
        from rmtlab import specfun

        for alpha, jp in [(0.0, 0.0), (0.5, math.inf), (1.0, 0.5), (2.5, 0.0)]:
            got = specfun.bessel_j(alpha, np.array([0.0, 1.0]))
            assert got.value[0] == (1.0 if alpha == 0.0 else 0.0)
            assert got.derivative[0] == jp

    @pytest.mark.parametrize("call, message", [
        (lambda: kr.bessel_hard_kernel(0.0, np.array([1.0, 2.0, -1.0]), 2.0), "positive"),
        (lambda: kr.bessel_origin_kernel(1.0, 1.0, np.array([0.5, 0.0])), "positive"),
        (lambda: kr.pearcey_kernel(np.array([0.0, 20.5]), 0.0, 0.0), "exceed 20"),
        (lambda: kr.pearcey_kernel(0.0, np.array([[0.0], [-21.0]]), 0.0), "exceed 20"),
        (lambda: kr.matrix_kernel_edge(1, 0.0, np.array([0.0, -30.5])), ">= -30"),
        (lambda: kr.matrix_kernel_edge(4, np.array([-30.5, 1.0]), 0.0), ">= -30"),
    ])
    def test_kernel_range_guard_on_one_element(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda sf: sf.bessel_j(0.0, np.array([1.0, 2.0, -0.5])), "nonnegative"),
        (lambda sf: sf.bessel_j(0.0, np.array([1.0, 1001.5])), "range 1e3"),
        (lambda sf: sf.sinc_integral(np.array([0.0, np.inf])), "finite"),
        (lambda sf: sf.airy_tail(np.array([0.0, 3.0, -41.0])), "range -40"),
        (lambda sf: sf.airy(np.array([[0.0], [-1200.0]])), "range 1e3"),
    ])
    def test_specfun_range_guard_on_one_element(self, call, message):
        from rmtlab import specfun

        with pytest.raises(ValueError, match=message):
            call(specfun)

    def test_pearcey_one_bad_entry_fails_the_grid(self, monkeypatch):
        # (0, 0) alone is fine; with the half-step rule of the argument 12
        # moved off, the entries that use 12 fail their agreement check
        assert kr.pearcey_kernel(0.0, 0.0, -5.0) == pytest.approx(
            kr.pearcey_kernel(np.array([0.0]), np.array([0.0]), -5.0)[0])
        real = kr._moments

        def off_at_12(v, *args, **kwargs):
            m = real(v, *args, **kwargs)
            m[1] += np.where(np.asarray(v) == 12.0, 1e-3 * abs(m[0]).max(), 0.0)
            return m

        monkeypatch.setattr(kr, "_moments", off_at_12)
        assert kr.pearcey_kernel(0.0, 0.0, -5.0) == pytest.approx(
            kr.pearcey_kernel(np.array([0.0]), np.array([0.0]), -5.0)[0])
        pts = np.array([0.0, 12.0])
        with pytest.raises(ArithmeticError):
            kr.pearcey_kernel(pts[:, None], pts[None, :], -5.0)
        with pytest.raises(ArithmeticError):
            kr.pearcey_kernel(pts, pts, -5.0)


class TestCorrelationMesh:
    def test_one_call_on_the_point_mesh(self):
        seen = []

        def sine(x, y):
            seen.append((np.shape(x), np.shape(y)))
            return kr.sine_kernel(x, y)

        pts = [0.0, 0.3, 1.1]
        assert kr.correlation_det(sine, pts) == pytest.approx(
            kr.correlation_det(KernelHandle("sine"), pts), abs=0.0)
        assert seen == [((3, 1), (1, 3))]

    def test_non_broadcasting_callable_rejected(self):
        with pytest.raises(ValueError):
            kr.correlation_det(lambda x, y: 1.0, [0.0, 0.5])

    def test_pfaffian_checks_independent_blocks(self):
        # diagonal blocks skew, off-diagonal blocks not: K(y, x) != -K(x, y)^T
        def lopsided(x, y):
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            zero = np.zeros_like(x)
            return np.stack([np.stack([zero, 1.0 + x], -1),
                             np.stack([-(1.0 + x), zero], -1)], -2)

        assert kr.correlation_pfaffian(lopsided, [0.5]) == pytest.approx(1.5)
        with pytest.raises(ValueError, match="skew"):
            kr.correlation_pfaffian(lopsided, [0.0, 0.5])
