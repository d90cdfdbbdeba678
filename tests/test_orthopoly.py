"""Tests for recurrence tables, weighted functions and CD kernels.

Classical oracles: monic Hermite under e^{-N x^2/2} has a_k = k/N via the
substitution x -> x sqrt(N), and monic Laguerre under x^a e^{-N x} has
b_k = (2k + 1 + a)/N, a_k = k(k + a)/N^2; both follow from the textbook
recurrences by rescaling.  Quadrature oracles check orthonormality and the
projection identities.  The allocating recurrence that keeps every row
and scipy's logsumexp are kept here as references that the tables and
weighted functions must match bit for bit; the kernel grid is checked
against their Gram product, with xs and ys evaluated apart, and against
the exact Laguerre kernel at the hard edge.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre, logsumexp

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import orthopoly as op
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))
_PANEL_NODES = 32  # nodes per Gauss panel of the Stieltjes rules


@pytest.fixture(scope="module")
def herm16():
    return op.recurrence_table(op.WeightSpec(HERMITE, N=16), 40)


@pytest.fixture(scope="module")
def herm64():
    return op.recurrence_table(op.WeightSpec(HERMITE, N=64), 64)


@pytest.fixture(scope="module")
def semicircle():
    return eq.solve_equilibrium(HERMITE)


def gauss_window(table):
    lo, hi = table.window
    t, qw = np.polynomial.legendre.leggauss(500)
    return 0.5 * (hi - lo) * t + 0.5 * (hi + lo), 0.5 * (hi - lo) * qw


class TestRecurrenceTable:
    def test_hermite_coefficients(self, herm16):
        t = herm16
        ks = np.arange(1, 31)
        assert np.abs(t.a[:30] - ks / 16.0).max() <= 1e-11
        assert np.abs(t.b).max() <= 1e-12

    def test_hermite_norm(self, herm16):
        t = herm16
        assert t.gamma_sq[0] == pytest.approx(math.sqrt(2.0 * math.pi / 16.0), abs=1e-11)

    def test_laguerre_coefficients(self):
        w = op.WeightSpec(Potential((0.0, 1.0), hard_edge=True), N=8)
        t = op.recurrence_table(w, 24)
        k0, k1 = np.arange(21), np.arange(1, 21)
        assert np.abs(t.b[:21] - (2 * k0 + 1) / 8.0).max() <= 1e-10
        assert np.abs(t.a[:20] - k1 ** 2 / 64.0).max() <= 1e-10

    def test_laguerre_alpha_coefficients(self):
        # weight x e^{-8x}: b_k = (2k + 2)/8, a_k = k(k+1)/64
        w = op.WeightSpec(Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.0), N=8)
        t = op.recurrence_table(w, 20)
        k0, k1 = np.arange(16), np.arange(1, 16)
        assert np.abs(t.b[:16] - (2 * k0 + 2) / 8.0).max() <= 1e-10
        assert np.abs(t.a[:15] - k1 * (k1 + 1) / 64.0).max() <= 1e-10

    def test_positive_invariants(self, herm64):
        t = herm64
        assert np.all(t.a > 0)
        assert np.all(t.gamma_sq > 0)
        assert t.nodes_used > t.n_max

    def test_even_weight_symmetric(self):
        w = op.WeightSpec(Potential((0.0, 0.0, 0.0, 0.0, 0.25)), N=12)
        t = op.recurrence_table(w, 24)
        assert np.abs(t.b).max() <= 1e-12

    def test_nmax_cap(self, herm16):
        w = herm16.weight
        with pytest.raises(ValueError):
            op.recurrence_table(w, 513)

    def test_too_few_nodes_raise(self, monkeypatch):
        # 128 nodes do not resolve Hermite N = n_max = 16: the virial
        # residual reads 8.6e-10, the closed-form error 4.9e-10
        real = op._stieltjes
        monkeypatch.setattr(op, "_stieltjes", lambda w, n, lo, hi, nodes: real(w, n, lo, hi, 128))
        with pytest.raises(eq.NonConvergenceError, match="virial residual 8.6e-10 .* 128 "):
            op.recurrence_table(op.WeightSpec(HERMITE, N=16), 16)

    @pytest.mark.parametrize("pot, n", [
        (HERMITE, 64),
        (Potential((0.0, 0.0, 0.5), singularity_alpha=1.0), 64),
        (Potential((0.0, 0.0, 0.5), singularity_alpha=100.0), 8),
        (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=100.0), 16),
    ], ids=["hermite", "genhermite1", "genhermite100", "laguerre100"])
    def test_one_pass_per_table(self, pot, n, monkeypatch):
        # one pass, on the window of degree n + e/2: |x|^e acts as a charge
        # e/2 at 0, so the window is that of the weight without it at that degree
        seen, real = [], op._stieltjes
        monkeypatch.setattr(op, "_stieltjes", lambda w, *a: seen.append(a[1:3]) or real(w, *a))
        w = op.WeightSpec(pot, N=n)
        t = op.recurrence_table(w, n)
        bare = Potential(pot.coefficients, hard_edge=pot.hard_edge)
        assert seen == [t.window] and t.window == op.WeightSpec(bare, N=n).window(n + w.exponent / 2.0)

    def test_explicit_truncation_validated(self):
        with pytest.raises(ValueError):
            op.WeightSpec(HERMITE, N=4, truncation=0.5).window(8)

    @pytest.mark.parametrize("truncation", [1e308, math.inf, math.nan, 0.0, -1.0])
    def test_truncation_needs_finite_window_width(self, truncation):
        # the window [-truncation, truncation] is 2 truncation wide
        with pytest.raises(ValueError, match="truncation must be positive"):
            op.WeightSpec(HERMITE, N=4, truncation=truncation)

    def test_gamma_sq_read_from_the_log(self, herm16):
        # gamma_sq is the exp of the stored log norms, and read-only
        t = herm16
        assert np.array_equal(t.gamma_sq, np.exp(t.log_gamma_sq))
        with pytest.raises(AttributeError):
            t.gamma_sq = t.gamma_sq

    @pytest.mark.parametrize("hard", [False, True])
    def test_weight_exponent(self, hard):
        # alpha on a hard edge, 2 alpha on the line
        pot = Potential((0.0, 1.0) if hard else (0.0, 0.0, 0.5), hard_edge=hard,
                        singularity_alpha=0.75)
        assert op.WeightSpec(pot, N=4).exponent == (0.75 if hard else 1.5)


class TestConstantShift:
    """V + c scales the weight by e^{-N c}, which the norms absorb: the
    weighted functions and K_n do not depend on c, also where gamma_k^2
    leaves the double range (c = +-800 at N = 1)."""

    XS = np.array([-1.7, -1.0, -0.35, 0.6, 1.3, 2.2])

    @staticmethod
    def _evaluate(c):
        w = op.WeightSpec(Potential((c, 0.0, 0.5)), N=1)
        t = op.recurrence_table(w, 8)
        xs = TestConstantShift.XS
        return t, (op.cd_kernel_grid(t, 8, xs, xs),
                   np.array([[op.cd_kernel_sum(t, 8, x, y) for y in xs] for x in xs]),
                   op.weighted_polys(t, xs, 8))

    @pytest.mark.parametrize("c", [-800.0, 50.0, 800.0, 1e30])
    def test_kernel_and_weighted_functions_do_not_move(self, c):
        _, want = self._evaluate(0.0)
        t, got = self._evaluate(c)
        for g, v in zip(got, want):
            assert np.abs(g - v).max() <= 1e-12 * np.abs(v).max()
        assert np.allclose(t.log_gamma_sq, self._evaluate(0.0)[0].log_gamma_sq - c,
                           rtol=0.0, atol=1e-12 * abs(c))

    def test_norms_outside_the_double_range(self):
        # gamma_k^2 = e^{-N c} gamma_k^2(0): 0.0 once it underflows, inf once
        # it overflows; the log is kept exactly
        assert (self._evaluate(800.0)[0].gamma_sq == 0.0).all()
        assert (self._evaluate(-800.0)[0].gamma_sq == np.inf).all()


def _closed_form_error(pot, n, N=None, truncation=None):
    """Relative error of the table (N = n unless given) against the exact
    monic coefficients: Hermite and generalized Hermite |x|^{2 alpha}
    e^{-N x^2/2} (a_k = (k + 2 alpha [k odd])/N, b_k = 0) and Laguerre
    x^alpha e^{-N x} (a_k = k(k + alpha)/N^2, b_k = (2k + alpha + 1)/N)."""
    N = N or n
    t = op.recurrence_table(op.WeightSpec(pot, N=N, truncation=truncation), n)
    k, al = np.arange(n + 1, dtype=float), pot.singularity_alpha
    if pot.hard_edge:
        a, b = k[1:] * (k[1:] + al) / N ** 2, (2.0 * k + al + 1.0) / N
    else:
        a, b = (k[1:] + 2.0 * al * (k[1:] % 2)) / N, np.zeros(n + 1)
    return max(np.max(np.abs(t.a - a) / a),
               np.max(np.abs(t.b - b) / (np.abs(b) + math.sqrt(a.max())))), t


class TestDocumentedRange:
    """n_max <= 512 holds for every weight, to 1e-12 relative."""

    @pytest.mark.parametrize("n", [384, 512])
    @pytest.mark.parametrize("pot", [
        HERMITE,
        Potential((0.0, 1.0), hard_edge=True),
        Potential((0.0, 1.0), hard_edge=True, singularity_alpha=0.5),
        Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.5),
        Potential((0.0, 0.0, 0.5), singularity_alpha=0.25),
        Potential((0.0, 0.0, 0.5), singularity_alpha=0.5),
    ], ids=["hermite", "laguerre0", "laguerre0.5", "laguerre1.5",
            "genhermite0.25", "genhermite0.5"])
    def test_closed_form(self, pot, n):
        err, t = _closed_form_error(pot, n)
        assert err <= 1e-12
        # one pass on 16 n nodes
        assert t.nodes_used == 16 * n

    @pytest.mark.parametrize("alpha", [0.0, 0.125, 0.25, 0.5, 1.0, 1.5])
    def test_fractional_alpha(self, alpha):
        # the hard edge with fractional alpha used to fail already at n = 64
        for pot in (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha),
                    Potential((0.0, 0.0, 0.5), singularity_alpha=alpha)):
            assert _closed_form_error(pot, 64)[0] <= 1e-12


    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("alpha", [10.0, 30.0, 100.0])
    @pytest.mark.parametrize("hard", [False, True], ids=["genhermite", "laguerre"])
    def test_large_alpha(self, hard, alpha, n, ratio):
        # the two-pass gap read about 1e-15 on tables off by up to 99% here:
        # the automatic window cut off part of the weight x^alpha pushes out
        pot = (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha) if hard
               else Potential((0.0, 0.0, 0.5), singularity_alpha=alpha))
        err, t = _closed_form_error(pot, n, N=max(1, round(ratio * n)))
        assert err <= 1e-12 and t.verify_delta <= 1e-12

    @pytest.mark.parametrize("coefs, hard, truncation", [
        ((0.0, 0.0, 0.5), False, 40.0),
        ((0.0, 1.0), True, 1200.0),
    ])
    def test_power_weights_beyond_the_double_range(self, coefs, hard, truncation):
        # 2 u^401 uw overflows on these windows; the log weights do not
        pot = Potential(coefs, hard_edge=hard, singularity_alpha=100.0)
        assert _closed_form_error(pot, 8, N=1, truncation=truncation)[0] <= 1e-12


class TestWeightedPolys:
    def test_phi0(self, herm16):
        t = herm16
        x = 0.7
        want = math.exp(-16.0 * HERMITE(x) / 2.0) / math.sqrt(t.gamma_sq[0])
        assert op.weighted_polys(t, x, 1)[0] == pytest.approx(want, rel=1e-12)

    def test_orthonormality(self, herm16):
        t = herm16
        x, qw = gauss_window(t)
        phi = op.weighted_polys(t, x, 11)
        gram = (phi * qw) @ phi.T
        assert np.abs(gram - np.eye(11)).max() <= 1e-9

    def test_diagonal_sum_equals_kernel(self, herm16):
        t = herm16
        vals = op.weighted_polys(t, 0.3, 24)
        assert sum(v * v for v in vals) == pytest.approx(
            op.cd_kernel(t, 24, 0.3, 0.3), abs=1e-9)

    def test_vanishing_weight_gives_exact_zeros(self):
        # x^1.5 e^{-48x} vanishes at the hard edge, so every phi_k(0) is 0.0
        # (a signed zero), not a multiple of the smallest subnormal
        w = op.WeightSpec(Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.5), N=48)
        t = op.recurrence_table(w, 48)
        assert op.weighted_polys(t, 0.0, 48) == [0.0] * 48
        phi = op.weighted_polys(t, np.array([0.0, 0.5]), 48)
        assert np.all(phi[:, 0] == 0.0) and np.all(phi[:4, 1] != 0.0)

    def test_no_overflow_large_n(self):
        for n in (256, 512):
            w = op.WeightSpec(HERMITE, N=n)
            t = op.recurrence_table(w, n)
            phi = op.weighted_polys(t, np.linspace(-2.2, 2.2, 7), n)
            assert np.isfinite(phi).all()

    def test_hard_edge_negative_argument(self):
        w = op.WeightSpec(Potential((0.0, 1.0), hard_edge=True), N=8)
        t = op.recurrence_table(w, 8)
        with pytest.raises(ValueError, match="negative argument"):
            op.weighted_polys(t, np.array([0.5, -1e-3]), 8)


@pytest.mark.parametrize("call", [
    lambda t: op.weighted_polys(t, 0.3, 41),
    lambda t: op.cd_kernel(t, 41, 0.3, -0.2),
    lambda t: op.cd_kernel_grid(t, 41, [0.3], [-0.2]),
], ids=["weighted_polys", "cd_kernel", "cd_kernel_grid"])
def test_n_past_the_tables_n_max(herm16, call):
    with pytest.raises(ValueError, match="n exceeds the table's n_max"):
        call(herm16)


class TestCdKernel:
    def test_n1_product(self, herm16):
        t = herm16
        x, y = 0.4, -0.9
        p0x = op.weighted_polys(t, x, 1)[0]
        p0y = op.weighted_polys(t, y, 1)[0]
        assert op.cd_kernel_sum(t, 1, x, y) == pytest.approx(p0x * p0y, rel=1e-12)

    def test_cd_equals_sum(self, herm16):
        t = herm16
        rng = np.random.default_rng(4)
        for n in [2, 7, 24, 30]:
            for _ in range(6):
                x, y = rng.uniform(-2.5, 2.5, 2)
                assert abs(op.cd_kernel(t, n, x, y)
                           - op.cd_kernel_sum(t, n, x, y)) <= 1e-10

    def test_trace_is_n(self, herm16):
        t = herm16
        x, qw = gauss_window(t)
        diag = op.cd_kernel_grid(t, 16, x, x).diagonal()
        assert np.sum(diag * qw) == pytest.approx(16.0, abs=1e-8)

    def test_reproducing_property(self, herm16):
        t = herm16
        x, qw = gauss_window(t)
        row = op.cd_kernel_grid(t, 12, np.array([0.1]), x)[0]
        col = op.cd_kernel_grid(t, 12, x, np.array([-0.4]))[:, 0]
        assert np.sum(row * col * qw) == pytest.approx(
            op.cd_kernel(t, 12, 0.1, -0.4), abs=1e-8)

    def test_grid_matches_scalar(self, herm16):
        t = herm16
        xs = np.array([-1.0, 0.0, 0.5])
        grid = op.cd_kernel_grid(t, 10, xs, xs)
        for i, xv in enumerate(xs):
            for j, yv in enumerate(xs):
                assert grid[i, j] == pytest.approx(op.cd_kernel(t, 10, xv, yv), rel=1e-11)

    def test_one_recurrence_per_grid(self, herm16, monkeypatch):
        # xs and ys share one recurrence, and a point repeated among them is
        # evaluated once; the diagonal needs nothing else
        t = herm16
        calls = []
        real = op._phi_recurrence
        monkeypatch.setattr(op, "_phi_recurrence",
                            lambda *a, **k: calls.append((len(a[1]), k)) or real(*a, **k))
        op.cd_kernel(t, 10, 0.3, 0.3)
        op.cd_kernel_grid(t, 10, np.array([-1.0, 0.5]), np.array([0.2]))
        op.cd_kernel_grid(t, 10, np.array([-1.0, 0.5, 0.9]), np.array([-1.0, 0.5, 0.9]))
        assert calls == [(1, {}), (3, {}), (3, {})]

    def test_points_where_the_weight_underflows(self, herm16):
        # beyond about 1e38 the recurrence would overflow; there, as at every
        # point far outside the window, phi_k and K_n are 0.0 in double
        import warnings

        t = herm16
        xs = np.array([-1e300, -1e39, -0.5, 0.7, 30.0, 1e300])
        inner = np.abs(xs) < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            k = op.cd_kernel_grid(t, 16, xs, xs)
            phi = op.weighted_polys(t, xs, 16)
        assert (k[~inner] == 0.0).all() and (k[:, ~inner] == 0.0).all()
        assert (phi[:, ~inner] == 0.0).all()
        assert _bits(k[np.ix_(inner, inner)]) == _bits(
            op.cd_kernel_grid(t, 16, xs[inner], xs[inner]))
        assert _bits(phi[:, inner]) == _bits(op.weighted_polys(t, xs[inner], 16))

    def test_positive_definite_random_points(self, herm64):
        t = herm64
        rng = np.random.default_rng(8)
        for k in [3, 5]:
            pts = rng.uniform(-1.8, 1.8, k)
            mat = op.cd_kernel_grid(t, 48, pts, pts)
            assert np.linalg.eigvalsh(mat).min() >= -1e-9

    def test_gaussian_density_n1(self):
        # K_1(x,x) for V = x^2/2, N = 1 is the standard normal density
        w = op.WeightSpec(HERMITE, N=1)
        t = op.recurrence_table(w, 2)
        for x in [-1.3, 0.0, 0.8]:
            want = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
            assert op.cd_kernel(t, 1, x, x) == pytest.approx(want, abs=1e-10)

    def test_density_convergence(self, semicircle):
        sups = {}
        for n in [64, 128]:
            w = op.WeightSpec(HERMITE, N=n)
            t = op.recurrence_table(w, n)
            xs = np.linspace(-1.8, 1.8, 41)
            diag = op.cd_kernel_grid(t, n, xs, xs).diagonal() / n
            sups[n] = np.abs(diag - eq.density(semicircle, xs)).max()
        assert sups[128] / sups[64] <= 0.7

    def test_spectral_singularity_neutral(self):
        # |x|^2 factor leaves the global density alone away from 0
        n = 128
        vals = {}
        for alpha in [0.0, 1.0]:
            pot = Potential((0.0, 0.0, 0.5), singularity_alpha=alpha)
            w = op.WeightSpec(pot, N=n)
            t = op.recurrence_table(w, n)
            xs = 1.0 + np.linspace(-0.06, 0.06, 7)
            diag = op.cd_kernel_grid(t, n, xs, xs).diagonal() / n
            vals[alpha] = diag.mean()
        assert abs(vals[1.0] - vals[0.0]) <= 2e-2


class TestLaguerreOracle:
    """K_n for V = x on the hard edge, N = n, at the converge --mode hard
    points: phi_k(x) = sqrt(N) L_k(N x) e^{-N x / 2} exactly."""

    @pytest.mark.parametrize("n, bound", [(128, 1e-12), (512, 1e-11)])
    def test_hard_edge_window(self, n, bound):
        pot = Potential((0.0, 1.0), hard_edge=True)
        w = op.WeightSpec(pot, N=n)
        win = op.hard_edge_window(eq.solve_equilibrium(pot), np.linspace(0.4, 8.0, 20))
        x = win.points(n)
        phi = math.sqrt(n) * eval_laguerre(np.arange(n)[:, None], n * x) * np.exp(-0.5 * n * x)
        want = phi.T @ phi
        got = op.cd_kernel_grid(op.recurrence_table(w, n), n, x, x)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


def _ref_scaled_recurrence(x, logscale, n, t=None, even=False, virial=None):
    """The recurrence with fresh arrays at every step and every row kept;
    even: b_k = 0 on the half-line nodes of an even weight; sums[:, k] =
    sum virial phi_k^2."""
    build = t is None
    a, b = (np.zeros(n), np.zeros(n + 1)) if build else (t.a, t.b)
    mass = np.exp(2.0 * logscale) if build else None
    cur, prev, s_prev = np.ones(len(x)), 0.0, 0.0
    if build:
        sums = np.empty((len(virial), n + 1))
    else:
        y, logs = np.empty((n + 1, len(x))), np.empty((n + 1, len(x)))
        y[0], logs[0] = cur, logscale
    for k in range(n + 1):
        if build:
            b[k] = 0.0 if even else np.dot(x * cur * cur, mass)
            sums[:, k] = (virial * mass) @ (cur * cur)
        if k == n:
            break
        r = (x - b[k]) * cur - s_prev * prev
        if build:
            a[k] = np.dot(r * r, mass)
        s = math.sqrt(a[k])
        prev, cur, s_prev = cur, r / s, s
        if (k + 1) % 8 == 0:
            m = np.maximum(np.abs(cur), np.abs(prev))
            m = np.where(m > 0, m, 1.0)
            cur, prev = cur / m, prev / m
            logscale = logscale + np.log(m)
            mass = np.exp(2.0 * logscale) if build else None
        if not build:
            y[k + 1], logs[k + 1] = cur, logscale
    return (a, b, sums) if build else (y, logs)


def _ref_phi(t, x, n):
    """phi_0 .. phi_{n-1} at x from the allocating recurrence, 0.0 where
    _underflowed finds that every phi_k rounds to 0.0."""
    log_phi0 = 0.5 * (t.weight.log_weight(x) - t.log_mass)
    dead = op._underflowed(t, x, log_phi0, n - 1)
    live = np.ones(len(x), dtype=bool) if dead is None else ~dead
    phi = np.zeros((n, len(x)))
    y, grow = _ref_scaled_recurrence(x[live], log_phi0[live], n - 1, t)
    phi[:, live] = y * np.exp(np.minimum(grow, 705.0))
    return phi


def _ref_cd_kernel_grid(t, n, xs, ys):
    """K_n = Phi(xs)^T Phi(ys), the rows at xs and at ys evaluated apart."""
    return _ref_phi(t, xs, n).T @ _ref_phi(t, ys, n)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestBitwiseReference:
    """In-place Stieltjes passes and the numpy logsumexp change no bit of
    a table or a weighted function, and a kernel grid is the Gram product
    of those functions.  The virial sums are summed in another order (a
    block of 8 steps at a time), so the residual agrees to rounding.  Even
    weights run on the half-line nodes (TestEvenHalfLine checks them
    against the full rule); the other rows pin the full-line path."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 512])
    @pytest.mark.parametrize("pot", [
        HERMITE,
        Potential((0.0, 1.0), hard_edge=True),
        Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.5),
        Potential((0.0, 0.0, 0.5), singularity_alpha=0.25),
        Potential((0.0, 0.0, -1.0, 0.0, 0.25)),
        Potential((0.0, 1.0, 1.0), hard_edge=True),
        Potential((0.0, 0.0, -0.5, 0.1, 0.25)),
    ], ids=["hermite", "laguerre0", "laguerre1.5", "genhermite0.25",
            "critical_quartic", "x+x2_hard", "tilted_quartic"])
    def test_table(self, pot, n, monkeypatch):
        w = op.WeightSpec(pot, N=n)
        with monkeypatch.context() as m:
            m.setattr(op, "_scaled_recurrence", _ref_scaled_recurrence)
            m.setattr(op, "_logsumexp", logsumexp)
            want = op.recurrence_table(w, n)
        got = op.recurrence_table(w, n)
        for name in ("a", "b", "gamma_sq"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert got.window == want.window and got.nodes_used == want.nodes_used
        assert abs(got.verify_delta - want.verify_delta) <= 1e-15

    def test_logsumexp(self):
        rng = np.random.default_rng(11)
        cases = [rng.normal(scale=s, size=k) for s in (1.0, 300.0) for k in (1, 5, 4096)]
        cases += [np.array([2.0, 2.0, -1.0, 2.0]), np.array([-np.inf, 0.5, -np.inf]),
                  np.array([-800.0, -801.0, -1e4]), np.array([3.0, -np.inf, 3.0])]
        for v in cases:
            assert _bits(op._logsumexp(v)) == _bits(logsumexp(v))
        for v in (np.full(3, -np.inf), np.array([0.0, np.nan])):
            assert not np.isfinite(op._logsumexp(v))

    @staticmethod
    def _check_grid(t, n, xs, ys):
        # the rows bit for bit; the last bit of a matrix product depends
        # on its shape, so the grid to 1e-15 of its largest entry
        for pts in (xs, ys):
            assert _bits(op.weighted_polys(t, pts, n)) == _bits(_ref_phi(t, pts, n))
        want = _ref_cd_kernel_grid(t, n, xs, ys)
        assert np.abs(op.cd_kernel_grid(t, n, xs, ys) - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("xs, ys", [
        (np.linspace(-2.0, 2.0, 41), None),                       # square
        (np.linspace(-2.0, 2.0, 9), np.linspace(-1.7, 1.9, 5)),   # disjoint
        (np.array([-1.0, 0.3, 0.3, 1.2]), np.array([0.3, 1.2 + 1e-9, 2.0])),
        (np.array([-0.0, 0.0, 0.5]), None),                       # signed zeros stay apart
    ], ids=["square", "disjoint", "band_pairs", "signed_zero"])
    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_cd_grid(self, herm64, xs, ys, n):
        t = herm64
        self._check_grid(t, n, xs, xs if ys is None else ys)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 257])
    @pytest.mark.parametrize("pot", [
        HERMITE,
        Potential((0.0, 0.0, 0.0, 0.0, 0.25), singularity_alpha=1.5),
        Potential((0.0, 1.0), hard_edge=True),
        Potential((0.0, 0.0, -0.5, 0.1, 0.25)),
    ], ids=["hermite", "quartic1.5", "laguerre0", "tilted_quartic"])
    def test_table_mode(self, pot, n):
        # one log-scale row per rescale block, and no x - b_k for an even
        # weight, against a row per step and x - b_k always: the rows and
        # the Gram product over the same distinct points keep every bit,
        # inside the window, on its ends, beyond it and at signed zeros
        w = op.WeightSpec(pot, N=n)
        t = op.recurrence_table(w, n)
        lo, hi = t.window
        pts = np.r_[np.linspace(lo, hi, 23), lo, hi, hi + 1.0, 1e300, 0.0, -0.0]
        if not pot.hard_edge:
            pts = np.r_[pts, lo - 1.0, -1e300]
        ys = pts[::3]
        assert _bits(op.weighted_polys(t, pts, n)) == _bits(_ref_phi(t, pts, n))
        uniq, idx = np.unique(np.concatenate([pts, ys]).view(np.int64), return_inverse=True)
        phi = _ref_phi(t, uniq.view(np.float64), n)
        ix, iy = np.split(idx, [len(pts)])
        assert _bits(op.cd_kernel_grid(t, n, pts, ys)) == _bits(phi[:, ix].T @ phi[:, iy])

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_cd_grid_hard_edge(self, alpha):
        pot = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha)
        w = op.WeightSpec(pot, N=48)
        t = op.recurrence_table(w, 48)
        for xs, ys in [(np.linspace(0.0, 3.5, 15),) * 2,
                       (np.array([0.0, 0.7, 2.0]), np.array([0.7, 3.0]))]:
            self._check_grid(t, 48, xs, ys)


def _poly_of(coefs, m):
    """sum_j coefs[j] m^j for a square matrix m."""
    out, power = np.zeros_like(m), np.eye(len(m))
    for c in coefs:
        out += c * power
        power = power @ m
    return out


def _oracle_residuals(t, a=None, b=None):
    """Scaled residuals on the returned Jacobi matrix J (a, b replace the
    table's) of the virial identities N (J V'(J))_kk = 2k + 1 + e and N (J^2
    V'(J))_kk = (2k + e) b_k + 2 sum_{j<=k} b_j and, for a line weight with
    alpha = 0, of the string equation N V'(J)_{k,k-1} sqrt(a_k) = k (Freud
    1976), each over N times the same expression in |J| and |v_j| plus the
    absolute terms of its right side, on the rows that truncating J leaves
    exact: k <= n_max - d/2 for a polynomial of degree d in J."""
    a = t.a if a is None else a
    b = t.b if b is None else b
    w = t.weight
    pot, bign = w.potential, w.N
    jac = np.diag(b) + np.diag(np.sqrt(a), 1) + np.diag(np.sqrt(a), -1)
    dv = np.polynomial.polynomial.polyder(pot.coefficients)
    vp, vp_abs = _poly_of(dv, jac), _poly_of(np.abs(dv), np.abs(jac))
    k = 2.0 * np.arange(t.n_max + 1) + w.exponent
    sides = [(k + 1.0, k + 1.0),
             (k * b + 2.0 * np.cumsum(b), k * np.abs(b) + 2.0 * np.cumsum(np.abs(b)))]
    if w.even:  # J^2 V'(J) is odd in J: 0 = 0
        sides = sides[:1]
    out = []
    for m, (right, scale) in enumerate(sides, start=1):
        rows = t.n_max + 1 - (pot.degree - 1 + m) // 2
        left = (np.linalg.matrix_power(jac, m) @ vp).diagonal()[:rows]
        bound = (np.linalg.matrix_power(np.abs(jac), m) @ vp_abs).diagonal()[:rows]
        out.append(np.abs(bign * left - right[:rows]) / (bign * bound + scale[:rows]))
    if pot.hard_edge or pot.singularity_alpha:
        return out
    k = np.arange(1, t.n_max + 1 - pot.degree // 2)
    root = np.sqrt(a[k - 1])
    string = (np.abs(bign * vp[k, k - 1] * root - k)
              / (bign * vp_abs[k, k - 1] * root + k))
    return out + [string]


ORACLE_WEIGHTS = {
    "hermite": HERMITE,
    "quartic": Potential((0.0, 0.0, 0.0, 0.0, 0.25)),
    "tilted_quartic": Potential((0.0, 0.0, -0.5, 0.1, 0.25)),
    "critical_quartic": Potential((0.0, 0.0, -1.0, 0.0, 0.25)),
    "sextic": Potential((0.0,) * 6 + (0.1,)),
    "genhermite1.5": Potential((0.0, 0.0, 0.5), singularity_alpha=1.5),
    "laguerre0": Potential((0.0, 1.0), hard_edge=True),
    "laguerre0.5": Potential((0.0, 1.0), hard_edge=True, singularity_alpha=0.5),
    "x+x2_hard3": Potential((0.0, 0.5, 0.25), hard_edge=True, singularity_alpha=3.0),
}


class TestOutputOracle:
    """The returned tables against the exact finite-n identities of their
    weights, computed from J alone (the gate sums them over the nodes)."""

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_identities(self, name, n):
        pot = ORACLE_WEIGHTS[name]
        t = op.recurrence_table(op.WeightSpec(pot, N=n), n)
        assert max(r.max() for r in _oracle_residuals(t)) <= 1e-12

    def test_perturbed_tables_are_flagged(self):
        # the tilted quartic at n = 64: b_10 moved by 1e-8 sqrt(a_1) reads
        # about 2.4e-10, a_11 scaled by 1 + 1e-8 about 2.4e-9
        pot = ORACLE_WEIGHTS["tilted_quartic"]
        t = op.recurrence_table(op.WeightSpec(pot, N=64), 64)
        b, a = t.b.copy(), t.a.copy()
        b[10] += 1e-8 * math.sqrt(t.a[0])
        a[10] *= 1.0 + 1e-8
        assert max(r.max() for r in _oracle_residuals(t)) <= 1e-12
        assert max(r.max() for r in _oracle_residuals(t, b=b)) >= 1e-10
        assert max(r.max() for r in _oracle_residuals(t, a=a)) >= 1e-10

    def test_perturbed_laguerre_a_is_flagged(self):
        # V = x: the first identity reads N b_k = 2k + 1 + e, blind to a
        # (9.8e-16); the x^2 one reads a_11 scaled by 1 + 1e-8 as 9.1e-10
        pot = ORACLE_WEIGHTS["laguerre0"]
        t = op.recurrence_table(op.WeightSpec(pot, N=64), 64)
        a = t.a.copy()
        a[10] *= 1.0 + 1e-8
        first, second = _oracle_residuals(t, a=a)
        assert first.max() <= 1e-12 and second.max() >= 1e-10


EVEN_WEIGHTS = {
    "hermite": HERMITE,
    "quartic": Potential((0.0, 0.0, 0.0, 0.0, 0.25)),
    "critical_quartic": Potential((0.0, 0.0, -1.0, 0.0, 0.25)),
    "sextic": Potential((0.0, 0.0, -0.5, 0.0, 0.3, 0.0, 0.1)),
    "genhermite0.25": Potential((0.0, 0.0, 0.5), singularity_alpha=0.25),
    "genhermite1": Potential((0.0, 0.0, 0.5), singularity_alpha=1.0),
    "genhermite100": Potential((0.0, 0.0, 0.5), singularity_alpha=100.0),
}


class TestEvenHalfLine:
    """An even weight runs its Stieltjes pass on the nodes x > 0 with
    doubled weights; the reference runs every node of the full-line rule
    and takes b_k from its inner product."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 512])
    @pytest.mark.parametrize("name", list(EVEN_WEIGHTS))
    def test_matches_the_full_rule(self, name, n, monkeypatch):
        w = op.WeightSpec(EVEN_WEIGHTS[name], N=n)
        got = op.recurrence_table(w, n)
        with monkeypatch.context() as m:
            m.setattr(op.WeightSpec, "even", property(lambda self: False))
            want = op.recurrence_table(w, n)
        assert (np.abs(got.a - want.a) / want.a).max() <= 1e-13
        assert (got.b == 0.0).all()
        assert np.abs(got.log_gamma_sq - want.log_gamma_sq).max() <= 1e-12
        assert got.window[1] == want.window[1] and got.verify_delta <= 1e-12
        # the count of the mirrored rule: half the panels, twice the nodes
        assert got.nodes_used == 2 * _PANEL_NODES * math.ceil(
            math.ceil(2 * max(1200, 8 * n) / _PANEL_NODES) / 2)

    @pytest.mark.parametrize("pot, even", [
        (Potential((0.0, 1.0, 0.5)), False),
        (Potential((0.0, 0.0, 0.5, 1e-300, 0.25)), False),
        (Potential((0.0, 1.0), hard_edge=True), False),
        (Potential((0.0, 1.0, 1.0), hard_edge=True), False),
        (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.0), False),
        (Potential((5.0, 0.0, 0.3, 0.0, 0.1)), True),
        (Potential((0.0, 0.0, 0.3, 0.0, 0.1)), True),
        (Potential((0.0, 0.0, 0.5), singularity_alpha=2.5), True),
    ])
    def test_even_truth_table(self, pot, even):
        assert op.WeightSpec(pot, N=4).even is even

    @pytest.mark.parametrize("name", ["quartic", "critical_quartic", "sextic", "genhermite1"])
    @pytest.mark.parametrize("n", [8, 128])
    def test_auto_window_is_symmetric(self, name, n):
        lo, hi = op.WeightSpec(EVEN_WEIGHTS[name], N=n).window(n)
        assert lo == -hi


class TestMeasure:
    def test_given_measure_gives_the_same_table(self, semicircle, monkeypatch):
        w = op.WeightSpec(HERMITE, N=64)
        want = op.recurrence_table(w, 64)
        monkeypatch.setattr(eq, "solve_equilibrium", None)  # must not be called
        got = op.recurrence_table(w, 64, semicircle)
        assert got.window == want.window
        assert _bits(got.a) == _bits(want.a) and _bits(got.b) == _bits(want.b)

    def test_measure_of_another_potential_raises(self, semicircle):
        # N = 32, n_max = 64 windows by the measure of V/2, not of V; the
        # singularity exponent is part of the potential; a given truncation
        # does not excuse a wrong measure
        alpha1 = Potential((0.0, 0.0, 0.5), singularity_alpha=1.0)
        for w, n_max in [(op.WeightSpec(HERMITE, N=32), 64),
                         (op.WeightSpec(alpha1, N=64), 64),
                         (op.WeightSpec(HERMITE, N=32, truncation=8.0), 64)]:
            with pytest.raises(ValueError, match="equilibrium measure"):
                op.recurrence_table(w, n_max, semicircle)


class TestScalingWindows:
    def test_validation(self):
        with pytest.raises(ValueError):
            op.ScalingWindow(0.0, 0.5, 1.0, np.array([0.0]))
        with pytest.raises(ValueError):
            op.ScalingWindow(0.0, 1.0, 1.0, np.array([0.0]), orientation=2)

    def test_identity_rescaling(self, herm64):
        # c = 1/n makes c_n = 1 and returns raw kernel values
        t = herm64
        grid = np.array([-0.3, 0.2, 0.9])
        win = op.ScalingWindow(0.0, 1.0, 1.0 / 64.0, grid)
        K = op.rescaled_kernel(t, 64, win)
        assert K[0, 1] == pytest.approx(op.cd_kernel(t, 64, -0.3, 0.2), rel=1e-11)

    def test_bulk_converges_to_sine(self, semicircle):
        grid = np.linspace(-2.0, 2.0, 21)
        ks = np.array([[kr.sine_kernel(u, v) for v in grid] for u in grid])
        sups = {}
        for n in [64, 128]:
            w = op.WeightSpec(HERMITE, N=n)
            t = op.recurrence_table(w, n)
            win = op.bulk_window(semicircle, 0.0, grid)
            sups[n] = np.abs(op.rescaled_kernel(t, n, win) - ks).max()
        assert sups[64] <= 0.03
        assert sups[128] / sups[64] <= 0.65

    def test_hard_edge_alpha0_matches_bessel(self, semicircle):
        n = 128
        pot = Potential((0.0, 1.0), hard_edge=True)
        w = op.WeightSpec(pot, N=n)
        t = op.recurrence_table(w, n)
        mu = eq.solve_equilibrium(pot)
        win = op.hard_edge_window(mu, np.array([1.0]))
        assert win.c == pytest.approx(2.0, abs=1e-10)
        got = op.rescaled_kernel(t, n, win)[0, 0]
        assert got == pytest.approx(kr.bessel_hard_kernel(0.0, 1.0, 1.0), abs=0.05)

    @pytest.mark.parametrize("coefs, beta", [((0.0, 1.0), 1.0),
                                             ((0.0, 1.0, 1.0), 49.0 / 27.0)])
    def test_hard_edge_window_scale(self, coefs, beta):
        # c = 2 sqrt(beta), beta = Int V' dmu: 1 for V = x, 49/27 for x + x^2
        mu = eq.solve_equilibrium(Potential(coefs, hard_edge=True))
        win = op.hard_edge_window(mu, np.array([1.0]))
        assert win.c == pytest.approx(2.0 * math.sqrt(beta), rel=1e-14)

    def test_window_outside_truncation(self, herm64):
        t = herm64
        win = op.ScalingWindow(0.0, 1.0, 1.0 / 64.0, np.array([0.0, 100.0]))
        with pytest.raises(ValueError):
            op.rescaled_kernel(t, 64, win)

    def test_hard_edge_measure_has_no_soft_left_edge(self):
        mu = eq.solve_equilibrium(Potential((0.0, 1.0), hard_edge=True))
        with pytest.raises(ValueError, match="on a soft edge, 'left'"):
            op.soft_edge_window(mu, np.array([0.0]), "left")

    @pytest.mark.parametrize("coefs", [(0.0, 1.0), (0.0, 1.0, 1.0)])
    def test_soft_edge_constant_at_a_hard_edge_measure(self, coefs):
        # rho = h(x) sqrt((b - x)/x)/pi ~ (h(b)/sqrt(b)) sqrt(b - x)/pi at b
        mu = eq.solve_equilibrium(Potential(coefs, hard_edge=True))
        b = mu.support[1]
        win = op.soft_edge_window(mu, np.array([0.0]))
        assert win.c == pytest.approx(np.polyval(mu.h[::-1], b) / math.sqrt(b), rel=1e-15)
        x = b - 1e-8
        assert eq.density(mu, x) == pytest.approx(win.c * math.sqrt(b - x) / math.pi,
                                                  rel=1e-7)

    def test_left_edge_orientation(self, semicircle):
        grid = np.linspace(-2.0, 2.0, 9)
        n = 64
        w = op.WeightSpec(HERMITE, N=n)
        t = op.recurrence_table(w, n)
        right = op.rescaled_kernel(t, n, op.soft_edge_window(semicircle, grid))
        left = op.rescaled_kernel(t, n, op.soft_edge_window(semicircle, grid, side="left"))
        # even potential: the two edges agree exactly
        assert np.abs(left - right).max() <= 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_hard_edge_log_weight_vanishes_below_zero(alpha):
    # x^alpha e^{-N V} lives on [0, inf): -inf for x < 0 whatever alpha is
    w = op.WeightSpec(Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha), 2)
    lw = w.log_weight([-1.0, -1e-300, 0.5, 3.0])
    assert lw[0] == -math.inf and lw[1] == -math.inf
    np.testing.assert_allclose(lw[2:], -2.0 * np.array([0.5, 3.0])
                               + alpha * np.log([0.5, 3.0]), rtol=1e-15)
