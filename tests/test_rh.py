"""Tests for the steepest-descent objects.

Ray orientations for the Airy model jumps: the rays at +-2pi/3 point
inward and the real-axis rays left-to-right, so the plus side lies below
the upper-left ray, above the lower-left ray, and above the two real rays.
"""

import cmath
import math

import numpy as np
import pytest

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import orthopoly as op
from rmtlab import rh
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))


@pytest.fixture(scope="module")
def semicircle():
    return eq.solve_equilibrium(HERMITE)


@pytest.fixture(scope="module")
def ctx64(semicircle):
    return rh.DescentContext(semicircle, n=64, delta=0.1)


class TestContext:
    def test_delta_validation(self, semicircle):
        with pytest.raises(ValueError):
            rh.DescentContext(semicircle, n=8, delta=1.5)

    def test_n_validation(self, semicircle):
        with pytest.raises(ValueError, match="n must be at least 1"):
            rh.DescentContext(semicircle, n=0)

    def test_hard_edge_rejected(self):
        mp = eq.solve_equilibrium(Potential((0.0, 1.0), hard_edge=True))
        with pytest.raises(ValueError):
            rh.DescentContext(mp, n=8)

    def test_lens_has_negative_re_phi(self, ctx64):
        a, b = ctx64.support
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        for t in np.linspace(-0.95, 0.95, 17):
            z = c + r * t + 1j * ctx64.lens_height * r * (1 - t * t)
            assert rh.phi(ctx64, z).real < 0.0


class TestGFunction:
    def test_log_normalization(self, ctx64):
        z = 1e3 + 0j
        # g - log z = -m1/z - m2/(2 z^2) - ... = O(1/z^2) for the even measure
        assert abs(rh.g_function(ctx64, z) - cmath.log(z)) <= 2e-3

    def test_conjugation_symmetry(self, ctx64):
        z = 1 + 2j
        assert rh.g_function(ctx64, z.conjugate()) == pytest.approx(
            rh.g_function(ctx64, z).conjugate(), abs=1e-14)

    def test_derivative_normalization(self, ctx64):
        h = 1e-2
        gp = (rh.g_function(ctx64, 1e3 + h + 0j) - rh.g_function(ctx64, 1e3 - h + 0j)) / (2 * h)
        assert abs(1e3 * gp - 1.0) <= 2e-3

    @pytest.mark.parametrize("z", [0.5 + 1e-2j, 0.5 + 1e-3j, 0.5 - 1e-4j, 1.9 + 1e-4j,
                                   -1.9 + 1e-4j, -1.9 - 1e-4j, 2.0 + 1e-4j, 3.0 + 0.5j,
                                   -3.0 + 1e-3j, 1j])
    def test_semicircle_closed_form_near_the_cut(self, ctx64, z):
        # V = x^2/2: g = z^2/4 - z s/4 + log((z + s)/2) - 1/2, s = sqrt(z^2 - 4)
        s = cmath.sqrt(z - 2.0) * cmath.sqrt(z + 2.0)
        want = z * z / 4.0 - z * s / 4.0 + cmath.log((z + s) / 2.0) - 0.5
        assert abs(rh.g_function(ctx64, z) - want) <= 1e-14

    def test_cut_rejected(self, ctx64):
        with pytest.raises(ValueError):
            rh.g_function(ctx64, 0.5 + 0j)


class TestPhi:
    def test_zero_at_endpoint(self, ctx64):
        assert abs(rh.phi(ctx64, 2.0 + 0j)) <= 1e-14

    def test_positive_beyond_endpoint(self, ctx64):
        v = rh.phi(ctx64, 2.5 + 0j)
        assert v.real > 0.0 and abs(v.imag) <= 1e-14

    def test_left_variant_positive(self, ctx64):
        v = rh.phi(ctx64, -2.5 + 0j, variant="left")
        assert v.real > 0.0 and abs(v.imag) <= 1e-12

    def test_plus_derivative_is_pi_i_rho(self, ctx64, semicircle):
        # phi_+' = pi i rho on (a, b), via F(x) = -Im phi_+
        x, h = 0.5, 1e-6
        fd = (rh.phi_plus_imag(ctx64, x + h) - rh.phi_plus_imag(ctx64, x - h)) / (2 * h)
        assert fd == pytest.approx(-math.pi * eq.density(semicircle, x), abs=1e-7)

    def test_boundary_value_consistency(self, ctx64):
        assert rh.phi(ctx64, 0.5) == pytest.approx(
            -1j * rh.phi_plus_imag(ctx64, 0.5), abs=1e-13)


class TestOuterParametrix:
    def test_det_one(self, ctx64):
        rng = np.random.default_rng(2)
        for _ in range(12):
            z = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            if abs(z.imag) < 1e-3:
                continue
            m = rh.outer_parametrix(ctx64, z)
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_identity_at_infinity(self, ctx64):
        m = rh.outer_parametrix(ctx64, 1e3 + 0j)
        assert np.abs(m - np.eye(2)).max() <= 2e-3

    def test_jump_on_cut(self, ctx64):
        eps = 1e-6
        mp = rh.outer_parametrix(ctx64, 0.0 + 1j * eps)
        mm = rh.outer_parametrix(ctx64, 0.0 - 1j * eps)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(mp - mm @ j).max() <= 1e-6

    def test_cut_rejected(self, ctx64):
        with pytest.raises(ValueError):
            rh.outer_parametrix(ctx64, 0.3 + 0j)


class TestAiryModel:
    def test_det_one(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) < 0.1:
                continue
            try:
                a = rh.airy_model(z)
            except ValueError:
                continue
            assert abs(np.linalg.det(a) - 1.0) <= 1e-8

    @pytest.mark.parametrize("name,theta,plus_below", [
        ("0", 0.0, False),
        ("2pi/3", 2 * math.pi / 3, True),
        ("-2pi/3", -2 * math.pi / 3, True),
        ("pi", math.pi, False),
    ])
    def test_jumps(self, name, theta, plus_below):
        eps = 1e-9
        for r in [0.8, 2.3]:
            if name == "pi":
                zp = r * np.exp(1j * (math.pi - eps))
                zm = r * np.exp(-1j * (math.pi - eps))
            else:
                s = -1.0 if plus_below else 1.0
                zp = r * np.exp(1j * (theta + s * eps))
                zm = r * np.exp(1j * (theta - s * eps))
            ap = rh.airy_model(zp)
            am = rh.airy_model(zm)
            resid = np.abs(ap - am @ rh.AIRY_JUMPS[name]).max()
            assert resid <= 1e-8 * max(1.0, np.abs(ap).max())

    def test_asymptotic_normalization(self):
        def resid(z):
            a = rh.airy_model(z)
            zeta = (2.0 / 3.0) * z ** 1.5
            pre = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
            mid = np.linalg.inv(pre) @ np.diag([z ** 0.25, z ** -0.25]) @ a \
                @ np.diag([np.exp(zeta), np.exp(-zeta)])
            return np.abs(mid - np.eye(2)).max()

        r20 = resid(20.0 * np.exp(0.3j))
        assert r20 <= 1e-2
        # decay consistent with O(z^{-3/2})
        r10, r40 = resid(10.0 * np.exp(0.3j)), resid(40.0 * np.exp(0.3j))
        assert r40 / r10 <= 0.25 ** 1.5 * 1.5

    def test_ray_rejected(self):
        with pytest.raises(ValueError):
            rh.airy_model(2.0 + 0j)


class TestLocalParametrix:
    def test_conformal_map(self, ctx64):
        assert abs(rh.conformal_f(ctx64, 2.0)) <= 1e-14
        h = 1e-6
        fp = (rh.conformal_f(ctx64, 2.0 + h) - rh.conformal_f(ctx64, 2.0 - h)) / (2 * h)
        assert fp == pytest.approx(1.0, abs=1e-6)  # (h(b) sqrt(b-a))^{2/3} = 1
        assert abs(rh.conformal_f(ctx64, 1.95).imag) <= 1e-8

    def test_prefactor_analytic(self, ctx64):
        # Cauchy residue test on |z - b| = delta/2
        th = np.linspace(0, 2 * np.pi, 96, endpoint=False)
        circ = 2.0 + 0.05 * np.exp(1j * th)
        vals = np.stack([rh.prefactor_e(ctx64, z) for z in circ])
        residue = np.abs((vals * (0.05j * np.exp(1j * th))[:, None, None]).mean(axis=0))
        assert residue.max() <= 1e-8 * np.abs(vals).max()

    def test_matching_rate(self, semicircle):
        sups = {}
        for n in [64, 128]:
            ctx = rh.DescentContext(semicircle, n=n, delta=0.1)
            sup = 0.0
            for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
                z = 2.0 + 0.1 * np.exp(1j * t)
                p = rh.local_parametrix(ctx, z)
                m = rh.outer_parametrix(ctx, z)
                sup = max(sup, np.abs(p @ np.linalg.inv(m) - np.eye(2)).max())
            sups[n] = sup
        assert 0.4 <= sups[128] / sups[64] <= 0.65

    def test_jump_right_of_b(self, ctx64):
        x, eps = 2.05, 1e-9
        pp = rh.local_parametrix(ctx64, complex(x, eps))
        pm = rh.local_parametrix(ctx64, complex(x, -eps))
        jt = np.array([[1.0, cmath.exp(-2 * ctx64.n * rh.phi(ctx64, x + 0j)).real],
                       [0.0, 1.0]])
        assert np.abs(pp - pm @ jt).max() <= 1e-6

    def test_jump_left_of_b(self, ctx64):
        x, eps = 1.95, 1e-9
        pp = rh.local_parametrix(ctx64, complex(x, eps))
        pm = rh.local_parametrix(ctx64, complex(x, -eps))
        js = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(pp - pm @ js).max() <= 1e-6 * np.abs(pp).max()

    def test_bounded_at_endpoint(self, ctx64):
        for d in [1e-3, 1e-5, 1e-7, 1e-9]:
            assert np.abs(rh.local_parametrix(ctx64, 2.0 + d)).max() <= 1e3


class TestKernels:
    def test_bulk_diagonal(self, ctx64, semicircle):
        x = 0.3
        assert rh.bulk_kernel_approx(ctx64, x, x) == pytest.approx(
            64 * eq.density(semicircle, x), rel=1e-10)

    def test_bulk_vs_cd_kernel(self, semicircle):
        n = 128
        ctx = rh.DescentContext(semicircle, n=n, delta=0.1)
        w = op.WeightSpec(HERMITE, N=n)
        t = op.recurrence_table(w, n)
        xs = np.linspace(-1.5, 1.5, 15)
        kcd = op.cd_kernel_grid(t, w, n, xs, xs)
        sup = max(abs(rh.bulk_kernel_approx(ctx, xx, yy) - kcd[i, j]) / n
                  for i, xx in enumerate(xs) for j, yy in enumerate(xs))
        assert sup <= 2e-2

    def test_rescaled_bulk_tends_to_sine(self, semicircle):
        ctx = rh.DescentContext(semicircle, n=256, delta=0.1)
        cn = eq.density(semicircle, 0.0) * 256
        sup = 0.0
        for u in np.linspace(-1.5, 1.5, 7):
            for v in np.linspace(-1.5, 1.5, 7):
                if abs(u - v) < 1e-9:
                    continue
                val = rh.bulk_kernel_approx(ctx, u / cn, v / cn) / cn
                sup = max(sup, abs(val - kr.sine_kernel(u, v)))
        assert sup <= 1e-3

    def test_edge_kernel_equals_airy(self):
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(60):
            x, y = rng.uniform(-3, 3, 2)
            if abs(x - y) < 0.1 or abs(x) < 0.05 or abs(y) < 0.05:
                continue
            seen.add((x > 0, y > 0))
            assert rh.edge_kernel_from_A(x, y) == pytest.approx(
                kr.airy_kernel(x, y), abs=1e-8)
        assert len(seen) == 4

    def test_edge_kernel_diagonal_offset(self):
        v = rh.edge_kernel_from_A(5e-6, -5e-6)
        assert v == pytest.approx(0.25881940379280680 ** 2, abs=1e-5)

    def test_bulk_diag_mass_below_n(self, ctx64, semicircle):
        a, b = ctx64.support
        xs = np.linspace(a + 0.1, b - 0.1, 400)
        vals = np.array([rh.bulk_kernel_approx(ctx64, x, x) for x in xs])
        mass = np.trapezoid(vals, xs)
        window_mass = 64 * np.trapezoid(eq.density(semicircle, xs), xs)
        assert mass <= 64.0
        assert mass == pytest.approx(window_mass, rel=1e-6)


class TestRecurrenceAsymptotics:
    def test_semicircle(self, ctx64):
        a_inf, b_inf = rh.asymptotic_recurrence(ctx64)
        assert a_inf == pytest.approx(1.0, abs=1e-9)
        assert b_inf == pytest.approx(0.0, abs=1e-8)

    def test_matches_hermite_table(self, ctx64):
        n = 128
        w = op.WeightSpec(HERMITE, N=n)
        t = op.recurrence_table(w, n)
        a_inf, _ = rh.asymptotic_recurrence(ctx64)
        assert abs(t.a[n - 1] - a_inf) <= 0.5 / n

    @pytest.mark.parametrize("coefs", [(0.0, 0.0, 0.0, 0.0, 0.25), (0.0, 0.0, -0.5, 0.1, 0.25)])
    def test_convergence_rate(self, coefs):
        # |a_n - a_inf| and, off symmetry, |(b_{n-1} + b_n)/2 - b_inf| fall
        # as n^-2 (Deift et al., CPAM 52, 1999): the least-squares slope of
        # their logs against log n over n = N = n_max = 64 ... 512 lies in
        # [-2.1, -1.9] (-2.000 measured; 5.9e-6 ... 9.2e-8 for a on x^4/4)
        pot = Potential(coefs)
        mu = eq.solve_equilibrium(pot)
        a_inf, b_inf = rh.asymptotic_recurrence(rh.DescentContext(mu, n=64))
        ns = np.array([64, 128, 256, 512])
        errors = []
        for n in ns:
            t = op.recurrence_table(op.WeightSpec(pot, N=n), n, mu)
            errors.append((abs(t.a[n - 1] - a_inf), abs(0.5 * (t.b[n - 1] + t.b[n]) - b_inf)))
        a_err, b_err = np.array(errors).T
        slopes = [np.polyfit(np.log(ns), np.log(a_err), 1)[0]]
        if any(coefs[1::2]):
            slopes.append(np.polyfit(np.log(ns), np.log(b_err), 1)[0])
        else:
            assert (b_err <= 1e-12).all()
        assert all(-2.1 <= s <= -1.9 for s in slopes), slopes

    @pytest.mark.parametrize("coefs", [(0.0, 0.0, 0.0, 0.0, 0.25), (0.0, 0.0, -0.5, 0.1, 0.25)])
    def test_richardson_limits(self, coefs):
        # a_n and b_n' = (b_{n-1} + b_n)/2 at n = N = n_max: with an n^-2
        # leading error, (4 x_2n - x_n)/3 removes it and leaves n^-4.
        # Against asymptotic_recurrence at n = 256, 512: a to 2e-12 (4.1e-13
        # on x^4/4, 8.0e-13 on the asymmetric quartic measured) and b' to
        # 1e-13 (2.3e-14), both above the float64 floor of about 4e-14 of
        # the Stieltjes passes; the error in a falls 16-fold from
        # n = 128, 256 (8 to 32 allowed)
        pot = Potential(coefs)
        mu = eq.solve_equilibrium(pot)
        a_inf, b_inf = rh.asymptotic_recurrence(rh.DescentContext(mu, n=64))
        a, b = {}, {}
        for n in (128, 256, 512):
            t = op.recurrence_table(op.WeightSpec(pot, N=n), n, mu)
            a[n], b[n] = t.a[n - 1], 0.5 * (t.b[n - 1] + t.b[n])
        a_err = [abs((4.0 * a[2 * n] - a[n]) / 3.0 - a_inf) for n in (128, 256)]
        b_err = abs((4.0 * b[512] - b[256]) / 3.0 - b_inf)
        assert a_err[1] <= 2e-12 and b_err <= 1e-13, (a_err, b_err)
        assert 8.0 <= a_err[0] / a_err[1] <= 32.0, a_err

    def test_shifted_potential(self):
        # V((x-1)^2/2-type): support shifts by 1, b_inf = 1
        pot = Potential((0.5, -1.0, 0.5))
        mu = eq.solve_equilibrium(pot)
        ctx = rh.DescentContext(mu, n=16, delta=0.2)
        a_inf, b_inf = rh.asymptotic_recurrence(ctx)
        assert a_inf == pytest.approx(1.0, abs=1e-8)
        assert b_inf == pytest.approx(1.0, abs=1e-8)

    def test_jt_factorization(self, ctx64):
        # lens factorization lower * middle * upper reproduces J_T at a
        # bulk point (phi_+ + phi_- = 0 there)
        x, n = 0.5, 8
        php = rh.phi(ctx64, complex(x, 1e-300))
        phm = php.conjugate()
        e2p, e2m = cmath.exp(2 * n * php), cmath.exp(2 * n * phm)
        jt = np.array([[e2p, 1.0], [0.0, e2m]])
        lower = np.array([[1.0, 0.0], [e2m, 1.0]])
        middle = np.array([[0.0, 1.0], [-1.0, 0.0]])
        upper = np.array([[1.0, 0.0], [e2p, 1.0]])
        assert np.abs(lower @ middle @ upper - jt).max() <= 1e-10


# ---------------------------------------------------------------------------
# broadcasting: an array of points gives the scalar values point by point

def _complex_points(rng, shape, lo, hi, min_imag=0.1):
    z = rng.uniform(lo, hi, shape) + 1j * rng.uniform(lo, hi, shape)
    return np.where(np.abs(z.imag) < min_imag, z.real + 0.5j, z)


def _disk_points(rng, shape, b=2.0, radius=0.09):
    z = b + radius * rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    z[0, :4] = [b - 0.05, b + 0.05, b + 0.05 + 1e-14j, b - 0.03 - 1e-14j]  # on the axis
    return z


def _broadcast_cases(ctx):
    rng = np.random.default_rng(5)
    off = _complex_points(rng, (3, 4), -3.0, 3.0)
    disk = _disk_points(rng, (3, 4))
    xs = rng.uniform(-1.9, 1.9, 7)
    ex = np.array([-2.5, -0.7, -0.1, 0.3, 1.1, 2.4])
    return {
        "g_function": (lambda z: rh.g_function(ctx, z), (off,), ()),
        "phi": (lambda z: rh.phi(ctx, z), (np.r_[off.ravel(), 2.5, 0.5, -0.3],), ()),
        "phi_left": (lambda z: rh.phi(ctx, z, "left"), (off,), ()),
        "phi_plus_imag": (lambda x: rh.phi_plus_imag(ctx, x), (xs.reshape(7, 1),), ()),
        "outer_parametrix": (lambda z: rh.outer_parametrix(ctx, z), (off,), (2, 2)),
        "airy_model": (rh.airy_model, (2.0 * off,), (2, 2)),  # |zeta| up to 30
        "conformal_f": (lambda z: rh.conformal_f(ctx, z), (disk,), ()),
        "prefactor_e": (lambda z: rh.prefactor_e(ctx, z), (disk,), (2, 2)),
        "local_parametrix": (lambda z: rh.local_parametrix(ctx, z), (disk,), (2, 2)),
        "bulk_kernel_approx": (lambda x, y: rh.bulk_kernel_approx(ctx, x, y),
                               (xs[:, None], np.r_[xs[:3], 0.2][None, :]), ()),
        "edge_kernel_from_A": (rh.edge_kernel_from_A, (ex[:, None], ex[None, :4] + 0.37), ()),
    }


@pytest.mark.parametrize("name", ["g_function", "phi", "phi_left", "phi_plus_imag",
                                  "outer_parametrix", "airy_model", "conformal_f",
                                  "prefactor_e", "local_parametrix", "bulk_kernel_approx",
                                  "edge_kernel_from_A"])
def test_array_call_equals_scalar_calls(ctx64, name):
    fn, args, tail = _broadcast_cases(ctx64)[name]
    got = fn(*args)
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    assert got.shape == shape + tail
    points = zip(*(np.broadcast_to(a, shape).ravel() for a in args))
    one = [fn(*(p.item() for p in pt)) for pt in points]
    scalar_type = np.ndarray if tail else (complex if np.iscomplexobj(got) else float)
    assert all(type(v) is scalar_type for v in one)
    one = np.reshape(one, got.shape)
    axes = tuple(range(len(shape), got.ndim))
    err = np.abs(got - one).max(axis=axes, initial=0.0)
    # A carries e^{-+zeta}, zeta = (2/3) z^{3/2}: vectorized and one-element
    # complex products may round zeta differently (fused multiply-add), and
    # the exponential turns that into |zeta| ulps
    cond = 1.0 + np.abs(args[0]) ** 1.5 if name == "airy_model" else 1.0
    assert np.all(err <= 1e-15 * cond * np.abs(one).max(axis=axes, initial=0.0))


def test_asymptotic_recurrence_exact_on_semicircle(ctx64):
    # the trapezoidal Laurent coefficients of M give ((b-a)/4)^2 and (a+b)/2
    # to rounding, not to a fit residual
    a_inf, b_inf = rh.asymptotic_recurrence(ctx64)
    assert abs(a_inf - 1.0) <= 1e-14 and abs(b_inf) <= 1e-14


# ---------------------------------------------------------------------------
# oracles: the scalar formulas these functions replaced

_GL96_T, _GL96_W = np.polynomial.legendre.leggauss(96)
_W3 = cmath.exp(2j * cmath.pi / 3.0)


def old_conformal_f(ctx, z):
    a, b = ctx.support
    z = complex(z)
    t = 0.5 * (_GL96_T + 1.0)
    w = 0.5 * _GL96_W
    s = b + (z - b) * t * t
    g = 3.0 * np.sum(w * t * t * np.polyval(ctx.measure.h[::-1], s) * np.sqrt(s - a))
    return (z - b) * complex(g) ** (2.0 / 3.0)


def old_phi_plus_imag(ctx, x):
    a, b = ctx.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    th_x = math.acos(min(max((x - c) / r, -1.0), 1.0))
    th = 0.5 * th_x * (_GL96_T + 1.0)
    w = 0.5 * th_x * _GL96_W
    hv = np.polyval(ctx.measure.h[::-1], c + r * np.cos(th))
    return float(r * r * np.sum(w * hv * np.sin(th) ** 2))


def old_airy_model(z):
    from rmtlab.specfun import airy

    z = complex(z)
    th = cmath.phase(z)

    def pair(zz):
        v = airy(zz)
        return v.value, v.derivative

    if 0.0 < th < 2.0 * math.pi / 3.0:
        y0, y0p = pair(z)
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[y0, -y2], [-1j * y0p, 1j * y2p]]
    elif 2.0 * math.pi / 3.0 < th <= math.pi:
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[-y1, -y2], [1j * y1p, 1j * y2p]]
    elif -math.pi < th < -2.0 * math.pi / 3.0:
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[-y2, y1], [1j * y2p, -1j * y1p]]
    else:
        y0, y0p = pair(z)
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        m = [[y0, y1], [-1j * y0p, -1j * y1p]]
    return math.sqrt(2.0 * math.pi) * np.array(m)


ONE_CUT = [(0.0, 0.0, 0.5), (0.5, -1.0, 0.5), (0.0, 0.0, 0.5, 0.0, 0.25),
           (0.0, 0.3, 0.4, 0.1, 0.2)]


@pytest.fixture(scope="module", params=ONE_CUT, ids=lambda c: ",".join(map(str, c)))
def one_cut_ctx(request):
    mu = eq.solve_equilibrium(Potential(request.param))
    a, b = mu.support
    return rh.DescentContext(mu, n=32, delta=0.05 * (b - a))


def test_phi_plus_imag_matches_quadrature_oracle(one_cut_ctx):
    a, b = one_cut_ctx.support
    xs = np.linspace(a, b, 41)
    old = np.array([old_phi_plus_imag(one_cut_ctx, x) for x in xs])
    np.testing.assert_allclose(rh.phi_plus_imag(one_cut_ctx, xs), old, rtol=0, atol=1e-13)


def test_g_function_matches_quadrature_oracle_off_the_cut(one_cut_ctx):
    # 2048 Gauss-Chebyshev nodes against the density converge geometrically
    # at a distance 0.5 from the support
    from scipy.special import roots_chebyu

    a, b = one_cut_ctx.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    t, w = roots_chebyu(2048)
    x = c + r * t
    w = (r * r / np.pi) * w * np.polyval(one_cut_ctx.measure.h[::-1], x)
    z = np.array([c + 0.5j, a - 0.5 + 0.5j, b + 0.5 - 0.5j, a - 3.0 - 0.5j, b + 0.5])
    old = (w * np.log(z[:, None] - x)).sum(axis=1)
    np.testing.assert_allclose(rh.g_function(one_cut_ctx, z), old, rtol=0, atol=1e-13)


def test_phi_plus_imag_is_pi_at_a(one_cut_ctx):
    a, b = one_cut_ctx.support
    assert rh.phi_plus_imag(one_cut_ctx, a) == pytest.approx(math.pi, abs=1e-14)
    assert abs(rh.phi_plus_imag(one_cut_ctx, b)) <= 1e-14


def test_conformal_f_matches_quadrature_oracle(one_cut_ctx):
    b, delta = one_cut_ctx.support[1], one_cut_ctx.delta
    z = _disk_points(np.random.default_rng(8), (4, 10), b, 0.95 * delta)
    old = np.array([old_conformal_f(one_cut_ctx, v) for v in z.ravel()]).reshape(z.shape)
    got = rh.conformal_f(one_cut_ctx, z)
    assert np.all(np.abs(got - old) <= 1e-13 * np.abs(old))


def test_airy_model_matches_sector_oracle():
    rng = np.random.default_rng(12)
    z = rng.uniform(0.05, 12.0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    got = rh.airy_model(z)
    old = np.stack([old_airy_model(v) for v in z])
    err = np.abs(got - old).max(axis=(1, 2)) / np.abs(old).max(axis=(1, 2))
    assert err.max() <= 1e-13


def test_diagnostics_rows_are_the_cli_table(tmp_path):
    from rmtlab.cli import main

    out = tmp_path / "rh.csv"
    assert main(["rh", "--potential", "0,0,0.5", "--n", "64,128", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    table = [ln.split(",") for ln in lines[1:]]
    rows = rh.diagnostics(eq.solve_equilibrium(HERMITE), [64, 128], 0.1)
    assert [(c, p) for c, p, _ in table] == [(c, str(p)) for c, p, _ in rows]
    assert [float(v) for _, _, v in table] == [v for _, _, v in rows]
    names = [c for c, _, _ in rows]
    assert [names.count(c) for c in ("det_M_minus_1", "det_A_minus_1", "connection_identity",
                                     "A_jump_0", "A_jump_pi", "matching_sup")] == [6, 6, 6, 2, 2, 2]
