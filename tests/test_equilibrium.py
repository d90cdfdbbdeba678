"""Tests for the equilibrium-measure solver.

Oracles: symbolic q for the quadratic potential (divided difference of
V' = x is the constant 1, so q = x^2/4 - m0), closed-form supports, h and
moments (semicircle, x^4/4, the critical quartic, Marchenko-Pastur and
V = x + x^2 on the hard edge), adaptive quadrature of the log potential,
and the brute-force grid minimizer for everything else.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from rmtlab.equilibrium import (ALPHA_MAX, MultiCutError, NonConvergenceError, Potential,
                                classify, density, effective_potential, grid_energy_minimize,
                                phi, qv, solve_equilibrium)

SEMI = Potential((0.0, 0.0, 0.5))
QUARTIC_CRIT = Potential((0.0, 0.0, -1.0, 0.0, 0.25))
QUARTIC_REG = Potential((0.0, 0.0, 0.5, 0.0, 1.0 / 12.0))
MP = Potential((0.0, 1.0), hard_edge=True)


@pytest.fixture(scope="module")
def semicircle():
    return solve_equilibrium(SEMI)


@pytest.fixture(scope="module")
def quartic():
    return solve_equilibrium(QUARTIC_CRIT)


@pytest.fixture(scope="module")
def mp():
    return solve_equilibrium(MP)


class TestPotentialValidation:
    def test_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            Potential((0.0, 0.0, 0.0, 1.0))

    def test_rejects_constant_and_linear(self):
        with pytest.raises(ValueError):
            Potential((1.0,))
        with pytest.raises(ValueError):
            Potential((0.0, 1.0))

    def test_rejects_negative_leading(self):
        with pytest.raises(ValueError):
            Potential((0.0, 0.0, -1.0))

    def test_rejects_non_finite_coefficients_and_alpha(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Potential((0.0, 0.0, bad))
            with pytest.raises(ValueError):
                Potential((bad, 0.0, 0.5))
            with pytest.raises(ValueError):
                Potential((0.0, 0.0, 0.5), singularity_alpha=bad)
        assert Potential((0.0, 0.0, 0.5), singularity_alpha=-0.0).singularity_alpha == 0.0
        assert Potential((-0.0, -0.0, 0.5)).degree == 2

    def test_alpha_bound(self):
        # alpha = ALPHA_MAX is the largest exponent accepted, on both weights
        for hard, coefs in ((False, (0.0, 0.0, 0.5)), (True, (0.0, 1.0))):
            pot = Potential(coefs, hard_edge=hard, singularity_alpha=ALPHA_MAX)
            assert pot.singularity_alpha == 100.0
            for bad in (math.nextafter(ALPHA_MAX, math.inf), 1000.0, 1e300):
                with pytest.raises(ValueError, match="singularity_alpha must lie in"):
                    Potential(coefs, hard_edge=hard, singularity_alpha=bad)

    @pytest.mark.parametrize("coefs", [
        (0.0, -1.0, 1.0),
        (0.0, 0.0, 1.0),                            # V'(0) = 0
        (0.0, 399.0, -20.0, 1.0 / 3.0),             # V' = (x - 19)(x - 21)
        (0.0, 1.000019, -1.00001, 1.0 / 3.0),       # V' < 0 on (0.99901, 1.00101)
    ])
    def test_hard_edge_needs_increasing_potential(self, coefs):
        Potential((0.0, 1.0), hard_edge=True)
        Potential((0.0, 1.0, 1.0), hard_edge=True)
        with pytest.raises(ValueError, match="V' > 0 on"):
            Potential(coefs, hard_edge=True)

    @pytest.mark.parametrize("coefs", [(1.0,), (0.0, -1.0), (0.0, 1.0, -1.0)])
    def test_hard_edge_needs_positive_leading_coefficient(self, coefs):
        with pytest.raises(ValueError, match="positive leading coefficient"):
            Potential(coefs, hard_edge=True)


class TestSemicircle:
    def test_support_and_h(self, semicircle):
        a, b = semicircle.support
        assert a == pytest.approx(-2.0, abs=1e-10)
        assert b == pytest.approx(2.0, abs=1e-10)
        assert semicircle.h == pytest.approx([0.5], abs=1e-12)

    def test_density_center(self, semicircle):
        assert density(semicircle, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-10)

    def test_q_is_x2_over_4_minus_1(self, semicircle):
        xs = np.array([0.0, 1.0, 2.0, -2.0, 5.0])
        assert qv(semicircle, xs) == pytest.approx(xs ** 2 / 4.0 - 1.0, abs=1e-12)

    def test_density_offsupport_zero(self, semicircle):
        assert density(semicircle, 2.5) == 0.0
        assert density(semicircle, -7.0) == 0.0

    def test_effective_potential(self, semicircle):
        # equality on the support, strict positivity outside, endpoint ~ 0
        assert effective_potential(semicircle, 0.0) == pytest.approx(0.0, abs=1e-8)
        assert effective_potential(semicircle, 2.0) == pytest.approx(0.0, abs=1e-6)
        assert effective_potential(semicircle, 3.0) > 0.1

    def test_effective_potential_against_quadrature_oracle(self, semicircle):
        # independent adaptive quadrature of the log integral at x = 3
        val, _ = scipy.integrate.quad(
            lambda y: math.log(abs(3.0 - y)) * math.sqrt(4.0 - y * y) / (2.0 * math.pi),
            -2.0, 2.0, limit=200)
        want = -2.0 * val + SEMI(3.0) - semicircle.ell
        assert effective_potential(semicircle, 3.0) == pytest.approx(want, abs=1e-8)

    def test_classify_regular(self, semicircle):
        assert classify(semicircle) == []

    def test_effective_potential_left_of_support(self, semicircle):
        # even potential: the mirrored phi integral gives the same value
        assert effective_potential(semicircle, -3.0) == pytest.approx(
            effective_potential(semicircle, 3.0), abs=1e-14)


class TestCriticalQuartic:
    def test_support(self, quartic):
        assert quartic.support[0] == pytest.approx(-2.0, abs=1e-9)
        assert quartic.support[1] == pytest.approx(2.0, abs=1e-9)

    def test_density_formula(self, quartic):
        # rho = x^2 sqrt(4 - x^2) / (2 pi); normalization integral is 1
        xs = np.linspace(-1.9, 1.9, 101)
        target = xs ** 2 * np.sqrt(4.0 - xs ** 2) / (2.0 * math.pi)
        assert np.abs(density(quartic, xs) - target).max() <= 1e-6

    def test_q_double_root_at_origin(self, quartic):
        assert qv(quartic, 0.0) == pytest.approx(0.0, abs=1e-10)
        d = (qv(quartic, 1e-5) - qv(quartic, -1e-5)) / 2e-5
        assert d == pytest.approx(0.0, abs=1e-8)

    def test_moments_against_semicircle_quadrature(self, quartic):
        # m2 of rho = x^2 sqrt(4-x^2)/(2 pi) equals 2 (quadrature oracle)
        val, _ = scipy.integrate.quad(
            lambda x: x ** 4 * math.sqrt(4.0 - x * x) / (2.0 * math.pi), -2.0, 2.0)
        assert val == pytest.approx(2.0, abs=1e-10)
        assert quartic.moments[2] == pytest.approx(2.0, abs=1e-10)

    def test_classify_interior_singular(self, quartic):
        out = classify(quartic)
        assert len(out) == 1
        loc, kind, k = out[0]
        assert kind == "interior"
        assert k == 1
        assert abs(loc) <= 1e-6


class TestHardEdge:
    def test_marchenko_pastur(self, mp):
        assert mp.support[0] == 0.0
        assert mp.support[1] == pytest.approx(4.0, abs=1e-10)
        xs = np.linspace(0.05, 3.95, 40)
        target = np.sqrt((4.0 - xs) / xs) / (2.0 * math.pi)
        assert np.abs(density(mp, xs) - target).max() <= 1e-10

    @pytest.mark.parametrize("side", ["left", "middle"])
    def test_phi_has_no_left_side_at_a_hard_edge(self, mp, side):
        with pytest.raises(ValueError, match="on a soft edge, 'left'"):
            phi(mp, 5.0, side)

    def test_qv_pole(self, mp):
        with pytest.raises(ZeroDivisionError):
            qv(mp, 0.0)
        # q = 1/4 - 1/x for V = x
        assert qv(mp, 2.0) == pytest.approx(0.25 - 0.5, abs=1e-12)

    def test_effective_potential(self, mp):
        assert effective_potential(mp, 1.0) == pytest.approx(0.0, abs=1e-8)
        assert effective_potential(mp, 6.0) > 0.05

    def test_effective_potential_needs_half_line(self, mp):
        with pytest.raises(ValueError):
            effective_potential(mp, -1.0)

    def test_effective_potential_of_no_points(self, mp, semicircle):
        # the solver's exterior check passes no points for a convex V
        for mu in (mp, semicircle):
            e = effective_potential(mu, np.array([]))
            assert isinstance(e, np.ndarray) and e.dtype == float and e.shape == (0,)

    def test_ell_against_quadrature_oracle(self, mp):
        # ell = V(x) - 2 Int log|x - y| dmu(y) at any x of the support
        val, _ = scipy.integrate.quad(
            lambda y: math.log(abs(1.0 - y)) * math.sqrt((4.0 - y) / y) / (2.0 * math.pi),
            0.0, 4.0, points=[1.0], limit=200)
        assert mp.ell == pytest.approx(1.0 - 2.0 * val, abs=1e-10)

    def test_negligible_leading_coefficient(self):
        # -1 + b/4 + 4.7e-301 b^3 = 0: the cubic term cannot move the root
        # b = 4 of the linear part, and the companion matrix of the cubic
        # would overflow
        from rmtlab.equilibrium import _real_roots

        assert _real_roots(np.array([-1.0, 0.25, 0.0, 4.7e-301])).tolist() == [4.0]
        mu = solve_equilibrium(Potential((0.0, 1.0, 0.0, 1e-300), hard_edge=True))
        assert mu.support == (0.0, pytest.approx(4.0, abs=1e-14))

    def test_endpoint_equation_without_positive_root_raises(self):
        # a valid hard-edge potential always has a positive root (f(0) = -1
        # and a positive leading coefficient); V = -x has none
        from rmtlab.equilibrium import _hard_newton

        u = 0.5 * (1.0 + np.polynomial.chebyshev.chebgauss(3)[0])
        with pytest.raises(NonConvergenceError, match="no positive root"):
            _hard_newton(np.array([0.0, -1.0]), u)


class TestSolverInvariants:
    @pytest.mark.parametrize("coefs", [(0.0, 1e300, 0.5), (0.0, 1e30, 0.5), (0.0, 0.0, 1e-300)])
    def test_overflow_raises_before_numpy_warns(self, coefs):
        # one guard around the whole solve turns an overflow or an invalid
        # value anywhere in it into an ArithmeticError, and leaves numpy's
        # error state as it found it
        import warnings

        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="^non-finite value"):
                solve_equilibrium(Potential(coefs))
        assert np.geterr() == before

    @pytest.mark.parametrize("pot", [SEMI, QUARTIC_CRIT, QUARTIC_REG])
    def test_mass_and_selfconsistency(self, pot):
        mu = solve_equilibrium(pot)
        assert mu.moments[0] == 1.0
        # moments of sqrt(q^-)/pi reproduce the solver's moments
        a, b = mu.support
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        th = np.pi * np.arange(1, 513) / 513.0
        x = c + r * np.cos(th)
        w = (np.pi / 513.0) * np.sin(th) ** 2 * r * r
        rho_ratio = density(mu, x) * np.pi / np.sqrt((b - x) * (x - a))
        for j in range(len(mu.moments)):
            mj = np.sum(w * x ** j * rho_ratio) / np.pi
            assert mj == pytest.approx(mu.moments[j], abs=1e-9)

    @pytest.mark.parametrize("pot", [SEMI, QUARTIC_CRIT, QUARTIC_REG])
    def test_q_degree(self, pot):
        # q is a polynomial of degree 2(d - 1), led by the (d v_d)^2/4 of
        # V'^2/4: the interpolant of degree 2d - 1 has that top coefficient
        mu = solve_equilibrium(pot)
        d = pot.degree
        x = np.linspace(-2.0, 2.0, 2 * d)
        coef = np.polynomial.polynomial.polyfit(x, qv(mu, x), 2 * d - 1)
        lead = (d * pot.coefficients[d]) ** 2 / 4.0
        assert abs(coef[-1]) <= 1e-10 * lead
        assert coef[-2] == pytest.approx(lead, rel=1e-10)

    @pytest.mark.parametrize("pot", [SEMI, QUARTIC_CRIT, QUARTIC_REG])
    def test_variational_conditions_on_grid(self, pot):
        mu = solve_equilibrium(pot)
        a, b = mu.support
        inside = np.linspace(a + 1e-9, b - 1e-9, 41)
        vals = effective_potential(mu, inside)
        assert np.abs(vals).max() <= 1e-8
        w = b - a
        outside = np.concatenate([np.linspace(a - w, a - 1e-3, 21),
                                  np.linspace(b + 1e-3, b + w, 21)])
        assert np.min(effective_potential(mu, outside)) >= -1e-8

    def test_oracle_agreement(self):
        for pot in [SEMI, QUARTIC_CRIT, QUARTIC_REG]:
            mu = solve_equilibrium(pot)
            g = grid_energy_minimize(pot, 700, box=(-3.0, 3.0), strict=False)
            assert np.abs(g.density - density(mu, g.x)).max() <= 1e-2

    def test_scaling_covariance(self):
        base = (0.0, 0.0, 0.5, 0.0, 1.0 / 12.0)
        lam = 2.0
        scaled = tuple(c * lam ** k for k, c in enumerate(base))
        m1 = solve_equilibrium(Potential(base))
        m2 = solve_equilibrium(Potential(scaled))
        assert m1.support[1] == pytest.approx(lam * m2.support[1], rel=1e-10)

    def test_multicut_rejected(self):
        with pytest.raises(MultiCutError):
            solve_equilibrium(Potential((0.0, 0.0, -2.0, 0.0, 0.25)))

    def test_perturbed_quartic_consistency(self):
        # just past criticality the one-cut ansatz has h(0) = -5.0e-4 and an
        # effective potential below zero inside its support: two cuts
        with pytest.raises(MultiCutError):
            solve_equilibrium(Potential((0.0, 0.0, -1.001, 0.0, 0.25)))

    def test_subcritical_quartic_one_cut(self):
        pot = Potential((0.0, 0.0, -0.999, 0.0, 0.25))
        mu = solve_equilibrium(pot)
        a, b = mu.support
        assert np.polynomial.polynomial.polyval(np.linspace(a, b, 2001), mu.h).min() > 0.0
        assert mu.margin > 0.0
        assert classify(mu) == []
        w = b - a
        outside = np.concatenate([np.linspace(a - w, a, 200, endpoint=False),
                                  np.linspace(b, b + w, 201)[1:]])
        assert effective_potential(mu, outside).min() >= 0.0

    def test_classify_exterior_singular_point(self):
        # tilted double well x^4/4 - x^2 + t x: the measure sits in the left
        # well and the effective potential has a local minimum > 0 in the
        # right one, at a real zero of h; bisect t until it reaches 0 from
        # above (below it the one-cut measure is not the equilibrium one)
        def tilted(t):
            pot = Potential((0.0, t, -1.0, 0.0, 0.25))
            try:
                mu = solve_equilibrium(pot)
            except MultiCutError:
                return pot, None, -1.0, None
            r = np.polynomial.polynomial.polyroots(mu.h)
            x0 = r.real.max()
            assert np.all(r.imag == 0.0) and x0 > mu.support[1]
            return pot, mu, effective_potential(mu, x0), x0

        pot, mu, e, _ = tilted(1.8)
        assert e > 0.1 and classify(mu) == []
        lo, hi = 1.6, 1.8
        assert tilted(lo)[2] < 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if tilted(mid)[2] > 0.0 else (mid, hi)
        pot, mu, e, x0 = tilted(hi)
        assert 0.0 < e <= 1e-12
        assert classify(mu) == [(pytest.approx(x0, abs=1e-12), "exterior", 0)]


@pytest.mark.parametrize("pot", [SEMI, QUARTIC_CRIT, QUARTIC_REG, MP,
                                 Potential((0.0, 0.3, 0.4, 0.1, 0.2)),
                                 Potential((0.0, 1.0, 1.0), hard_edge=True)])
def test_log_transform_real_part_is_the_chebyshev_log_potential(pot):
    # on the support Re g_+ is pi [p_0 log(r/2) - sum_k p_k T_k(t)/k]; at the
    # centre the two agree bit for bit, so ell is the Chebyshev value
    from numpy.polynomial import chebyshev

    from rmtlab.equilibrium import _arcsine_chebyshev, _log_transform

    mu = solve_equilibrium(pot)
    c, r, p = _arcsine_chebyshev(mu)
    t = np.linspace(-1.0, 1.0, 41)
    q = np.r_[0.0, p[1:] / np.arange(1, len(p))]
    old = np.pi * (p[0] * math.log(0.5 * r) - chebyshev.chebval(t, q))
    np.testing.assert_allclose(_log_transform(mu, c + r * t).real, old, rtol=0, atol=1e-14)
    assert mu.ell == float(pot(c)) - 2.0 * float(old[20])


class TestClosedForms:
    @pytest.mark.parametrize("coefs, hard, moments", [
        ((0.0, 0.0, 0.5), False, [1.0, 0.0, 1.0, 0.0, 2.0]),
        ((0.0, 0.0, 2.0), False, [1.0, 0.0, 0.25, 0.0, 0.125]),
        ((0.0, 0.0, 0.0, 0.0, 0.25), False,
         [1.0, 0.0, 4.0 / (3.0 * math.sqrt(3.0)), 0.0, 1.0, 0.0, 8.0 / (3.0 * math.sqrt(3.0))]),
        ((0.0, 0.0, -1.0, 0.0, 0.25), False, [1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 14.0]),
        ((0.0, 1.0), True, [1.0, 1.0, 2.0, 5.0]),
        ((0.0, 0.5), True, [1.0, 2.0, 8.0, 40.0])])
    def test_moments(self, coefs, hard, moments):
        # semicircles on [-2, 2] and [-1, 1], x^4/4, x^4/4 - x^2 (h = x^2/2,
        # support [-2 sqrt 2, 2 sqrt 2]), and Marchenko-Pastur on [0, 4]
        # (Catalan numbers) and [0, 8]: m_0 .. m_{deg V + 2}, exact on the
        # arcsine nodes up to rounding
        mu = solve_equilibrium(Potential(coefs, hard_edge=hard))
        m = np.array(moments)
        assert mu.moments.shape == m.shape
        assert np.abs(mu.moments - m).max() <= 1e-15 * np.abs(m).max()

    def test_negative_effective_potential_off_the_support(self):
        # h > 0 on the support, but a real zero of h right of it carries a
        # negative effective potential: the mass wants a second cut there
        with pytest.raises(MultiCutError, match=r"^effective potential -1\.96e-01 < 0 at "
                                                r"x = 1\.12397 off the support$"):
            solve_equilibrium(Potential((0.0, 1.6, -1.0, 0.0, 0.25)))

    def test_marchenko_pastur_catalan(self, mp):
        assert abs(mp.support[1] - 4.0) <= 1e-14
        assert np.abs(mp.moments[:4] - [1.0, 1.0, 2.0, 5.0]).max() <= 1e-14

    def test_hard_edge_x_plus_x2(self):
        # (1/2 pi) Int_0^b (1 + 2x) sqrt(x/(b-x)) dx = b/4 + 3b^2/8 = 1
        mu = solve_equilibrium(Potential((0.0, 1.0, 1.0), hard_edge=True))
        assert mu.support[0] == 0.0
        assert abs(mu.support[1] - 4.0 / 3.0) <= 1e-14
        assert np.abs(mu.h - [7.0 / 6.0, 1.0]).max() <= 1e-14

    def test_hard_edge_several_roots(self):
        # mean x V'(x) = 2 has three positive roots for both fields; the one
        # of least Phi carries the measure for lam = 45, while for lam = 38.5
        # its effective potential dips below 0 at x = 0.687: two cuts
        def field(lam):
            return Potential(tuple(lam * c for c in (0.0, 1.0, -1.7, 1.0)), hard_edge=True)

        mu = solve_equilibrium(field(45.0))
        b = mu.support[1]
        assert b < 0.2
        assert mu.margin > 0.0
        xs = np.linspace(b, b + 3.0, 301)
        assert effective_potential(mu, xs).min() >= -1e-14
        with pytest.raises(MultiCutError):
            solve_equilibrium(field(38.5))

    def test_pure_quartic(self):
        # V = x^4/4: r^2 = 4/sqrt(3), h = x^2/2 + 1/sqrt(3)
        mu = solve_equilibrium(Potential((0.0, 0.0, 0.0, 0.0, 0.25)))
        a, b = mu.support
        assert abs(b * b - 4.0 / math.sqrt(3.0)) <= 1e-14
        assert abs(a + b) <= 1e-14
        assert np.abs(mu.h - [1.0 / math.sqrt(3.0), 0.0, 0.5]).max() <= 1e-14

    def test_critical_quartic(self, quartic):
        assert np.abs(np.array(quartic.support) - [-2.0, 2.0]).max() <= 1e-14
        assert np.abs(quartic.h - [0.0, 0.0, 0.5]).max() <= 1e-14

    @pytest.mark.parametrize("coefs", [(0.0, 0.0, 0.5), (0.0, 0.0, -1.0, 0.0, 0.25),
                                       (0.0, 0.0, 0.0, 0.0, 0.25),
                                       (0.0, 0.0, 0.5, 0.0, 1.0 / 12.0),
                                       (0.0, 0.3, 0.5, 0.2, 0.25)])
    def test_newton_steps(self, coefs):
        mu = solve_equilibrium(Potential(coefs))
        assert 1 <= mu.iterations <= 12
        assert mu.residual <= 1e-14

    def test_edge_critical_is_exact_or_rejected(self):
        # built from h = 0.1 (x - 2)^2 on [-2, 2]: rho vanishes like
        # (2 - x)^{5/2} and the endpoint Jacobian is singular
        pot = Potential(tuple(0.2 * c for c in (0.0, 8.0, 1.0, -4.0 / 3.0, 0.25)))
        try:
            mu = solve_equilibrium(pot)
        except NonConvergenceError:
            return
        assert np.abs(np.array(mu.support) - [-2.0, 2.0]).max() <= 1e-12
        assert any(kind == "edge" for _, kind, _ in classify(mu))

    def test_translation_covariance(self):
        # V(x) = W(x - 5) moves the support of W by 5 and h along with it
        base = solve_equilibrium(QUARTIC_REG)
        shifted = np.polynomial.Polynomial(QUARTIC_REG.coefficients)(
            np.polynomial.Polynomial([-5.0, 1.0])).coef
        mu = solve_equilibrium(Potential(tuple(shifted)))
        assert np.abs(np.array(mu.support) - np.array(base.support) - 5.0).max() <= 1e-12
        xs = np.linspace(-1.0, 1.0, 7)
        assert np.abs(np.polynomial.polynomial.polyval(xs + 5.0, mu.h)
                      - np.polynomial.polynomial.polyval(xs, base.h)).max() <= 1e-11

    def test_one_cut_in_one_well(self):
        # the deeper well of an asymmetric double well carries all the mass
        pot = Potential((0.0, 0.4373320529391518, -0.3812625527332747,
                         0.7888526262807323, 0.2618410139972495))
        mu = solve_equilibrium(pot)
        a, b = mu.support
        assert b < -1.5
        assert mu.margin > 0.0
        xs = np.concatenate([np.linspace(a - 3.0, a, 100, endpoint=False),
                             np.linspace(b, b + 6.0, 301)[1:]])
        assert effective_potential(mu, xs).min() >= 0.0
        g = grid_energy_minimize(pot, 800, strict=False)
        assert np.abs(g.density - density(mu, g.x)).max() <= 0.1


class TestGridOracle:
    def test_semicircle_density(self):
        g = grid_energy_minimize(SEMI, 800, box=(-3.0, 3.0))
        rho = np.where(np.abs(g.x) <= 2.0,
                       np.sqrt(np.maximum(4.0 - g.x ** 2, 0.0)) / (2.0 * math.pi), 0.0)
        err = np.abs(g.density - rho)
        # away from the edge cells the discretization is much better than
        # the overall 1e-2 contract; the cell straddling +-2 carries the
        # inevitable O(sqrt(delta)) edge defect
        assert err[np.abs(g.x) <= 1.9].max() <= 5e-3
        assert err.max() <= 1e-2

    def test_mass_one(self):
        g = grid_energy_minimize(SEMI, 300, box=(-3.0, 3.0), max_iter=800, strict=False)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(g.weights >= 0.0)

    def test_energy_monotone(self):
        g = grid_energy_minimize(SEMI, 300, box=(-3.0, 3.0), max_iter=500, strict=False)
        diffs = np.diff(g.energy_path)
        assert np.all(diffs <= 1e-13 * np.maximum(np.abs(g.energy_path[:-1]), 1.0))

    def test_grid_size_cap(self):
        with pytest.raises(ValueError):
            grid_energy_minimize(SEMI, 2001)

    def test_exhausted_budget_raises(self):
        with pytest.raises(NonConvergenceError, match="exhausted its budget"):
            grid_energy_minimize(SEMI, 200, box=(-3.0, 3.0), max_iter=1)

    @pytest.mark.parametrize("coefs, bands", [((0.0, 1.0), (0.09, 0.065)),
                                              ((0.0, 0.5, 0.25), (0.045, 0.032))])
    def test_hard_edge_density_in_l1(self, coefs, bands):
        # the hard-edge grid on its automatic box against the moment solver,
        # in L1 at 400 and 800 cells: the error falls like n^(-1/2), set by
        # the x^(-1/2) edge (0.072 and 0.051 measured for V = x, support
        # [0, 4]; 0.036 and 0.025 for V = x/2 + x^2/4)
        V = Potential(coefs, hard_edge=True)
        mu = solve_equilibrium(V)
        for n, band in zip((400, 800), bands):
            g = grid_energy_minimize(V, n)
            assert g.x.min() > 0.0
            assert np.abs(g.density - density(mu, g.x)).sum() * (g.x[1] - g.x[0]) <= band


def _random_potential(rng):
    """V with log-normal |coefficients| and random signs: even degree 2-8
    with a positive leading coefficient on the line, degree 1-5 with
    positive V'(0) and leading coefficient on a hard edge."""
    hard = bool(rng.random() < 0.5)
    degree = int(rng.integers(1, 6)) if hard else 2 * int(rng.integers(1, 5))
    c = rng.lognormal(0.0, 1.0, degree + 1) * rng.choice([-1.0, 1.0], degree + 1)
    c[-1] = abs(c[-1])
    if hard:
        c[1] = abs(c[1])
    return tuple(c), hard


def test_random_potential_scan():
    # 300 potentials from default_rng(0): each is rejected by Potential
    # (a hard-edge V' with a root on (0, inf)), raises MultiCutError or
    # NonConvergenceError, or is solved; nothing else is raised or warned
    import warnings

    rng = np.random.default_rng(0)
    outcomes = {"solved": 0, "ValueError": 0, "MultiCutError": 0, "NonConvergenceError": 0}
    # the mass of rho as a Gauss-Legendre sum in theta, x = a + r (1 + cos theta):
    # rho dx is a polynomial in cos theta times sin^2 theta (soft) or 1 - cos theta (hard)
    theta, wt = np.polynomial.legendre.leggauss(64)
    theta, wt = 0.5 * np.pi * (theta + 1.0), 0.5 * np.pi * wt
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(300):
            coefs, hard = _random_potential(rng)
            try:
                pot = Potential(coefs, hard_edge=hard)
            except ValueError:
                outcomes["ValueError"] += 1
                continue
            try:
                mu = solve_equilibrium(pot)
            except (MultiCutError, NonConvergenceError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            outcomes["solved"] += 1
            a, b = mu.support
            r = 0.5 * (b - a)
            mass = np.sum(wt * density(mu, a + r * (1.0 + np.cos(theta))) * r * np.sin(theta))
            # 1e-12, above the rounding of the stored endpoints: each is known
            # to eps max(|a|, |b|), which moves the mass by about 4 eps
            # max(|a|, |b|) / (b - a) (1.8e-11 for a degree-8 well of width
            # 2.5e-4 at x = -18.35, 1.8e-12 for one of width 1.3e-3 at 12.13)
            floor = 8.0 * np.finfo(float).eps * max(abs(a), abs(b)) / (b - a)
            assert abs(mass - 1.0) <= 1e-12 + floor
            # the solver's own off-support tolerance, on and around the support
            w = b - a
            x = np.linspace(a if hard else a - w, b + w, 2001)
            assert (effective_potential(mu, x) >= -1e-10 * (1.0 + np.abs(pot(x)))).all()
    assert outcomes == {"solved": 257, "ValueError": 21, "MultiCutError": 22,
                        "NonConvergenceError": 0}


def test_arcsine_chebyshev_keeps_the_polynomial_class_bits():
    # _arcsine_chebyshev composes h(c + r t) by Horner on coefficient
    # arrays; over the scan's solved potentials its Chebyshev coefficients
    # are those of the Polynomial-class composition, bit for bit
    from numpy.polynomial import Polynomial, chebyshev
    from numpy.polynomial import polynomial as npoly

    from rmtlab.equilibrium import _arcsine_chebyshev

    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(300):
        coefs, hard = _random_potential(rng)
        try:
            mu = solve_equilibrium(Potential(coefs, hard_edge=hard))
        except (ValueError, MultiCutError, NonConvergenceError):
            continue
        a, b = mu.support
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        p = npoly.polymul(Polynomial(mu.h)(Polynomial([c, r])).coef, [1.0, -1.0])
        if not hard:
            p = npoly.polymul(p, [r, r])
        got_c, got_r, got = _arcsine_chebyshev(mu)
        assert (got_c, got_r) == (c, r)
        assert got.tobytes() == chebyshev.poly2cheb(p * (r / np.pi)).tobytes()
        solved += 1
    assert solved == 257
