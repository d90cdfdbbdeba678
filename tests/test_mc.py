"""Tests for the Monte Carlo ensembles and empirical statistics."""

import math

import numpy as np
import pytest

from rmtlab import equilibrium as eq
from rmtlab import mc
from rmtlab import orthopoly as op
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))


def dense_spectra(beta, n, count, seed):
    """Reference sampler: eigenvalues of dense GOE / GUE / GSE matrices with
    diagonal variance 2 / (beta n); GSE through the 2n x 2n complex
    embedding [[A, B], [-conj B, conj A]], whose eigenvalues come in pairs."""
    g = np.random.default_rng(seed).normal(
        scale=math.sqrt(2.0 / (beta * n)), size=(beta, count, n, n))
    if beta == 1:
        return np.linalg.eigvalsh((g[0] + g[0].transpose(0, 2, 1)) / 2.0)
    a = g[0] + 1j * g[1]
    a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    if beta == 2:
        return np.linalg.eigvalsh(a)
    b = g[2] + 1j * g[3]
    b = (b - b.transpose(0, 2, 1)) / 2.0
    return np.linalg.eigvalsh(np.block([[a, b], [-b.conj(), a.conj()]]))[:, ::2]


def local_statistics_loop(batch, lo, hi, c):
    """Per-row spacings of the in-window eigenvalues (reference)."""
    out = [np.diff(row[(row >= lo) & (row <= hi)]) * batch.n * c
           for row in batch.eigenvalue_sets]
    return np.concatenate(out)


def poisson_contrast_loop(batch, lo, hi, c, seed):
    """Per-row Poisson resample spacings (reference)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch.seed & 0x7FFFFFFF]))
    out = []
    for row in batch.eigenvalue_sets:
        k = int(((row >= lo) & (row <= hi)).sum())
        if k >= 2:
            out.append(np.diff(np.sort(rng.uniform(lo, hi, k))) * batch.n * c)
    return np.concatenate(out)


def interleave_trim_loop(sets, chains, per, count):
    """Round-robin record order as an explicit index list (reference)."""
    idx = [c * per + r for r in range(per) for c in range(chains)]
    return sets[np.array(idx[:count])]


def sweep_log_sum(V, beta, N, x, step, log_u):
    """Reference sweep in the log-sum form: coordinate i takes its proposal
    where sum_{j != i} log|1 + s_i / (x_i - x_j)| exceeds
    (log_u_i - gain_i) / beta, gain_i being the log-weight change.  Returns
    the acceptance mask."""
    prop = x + step
    log_weight = op.WeightSpec(V, N).log_weight
    thresh = (log_u - (log_weight(prop) - log_weight(x))) / beta
    take = np.empty(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(x.shape[0]):
            d = x[i] - x
            d[i] = np.inf
            pair = np.add.reduce(np.log(np.abs(step[i] / d + 1.0)), axis=0)
            take[i] = pair > thresh[i]
            x[i] = np.where(take[i], prop[i], x[i])
    return take


@pytest.fixture(scope="module")
def semicircle():
    return eq.solve_equilibrium(HERMITE)


@pytest.fixture(scope="module")
def gue128():
    return mc.sample_gaussian(2, 128, 400, seed=42)


class TestGaussianEnsembles:
    def test_n1_standard_gaussian(self):
        b = mc.sample_gaussian(2, 1, 4000, seed=3)
        v = b.eigenvalue_sets.ravel()
        assert abs(v.mean()) <= 3.0 / math.sqrt(len(v))
        assert abs(v.var() - 1.0) <= 5.0 / math.sqrt(len(v))

    def test_sign_symmetry(self, gue128):
        v = gue128.eigenvalue_sets
        assert abs(v.mean()) <= 3.0 * v.std() / math.sqrt(v.size)

    def test_gse_kramers_pairs(self):
        # the tridiagonal model gives the n distinct GSE eigenvalues directly
        b = mc.sample_gaussian(4, 16, 50, seed=9)
        assert b.eigenvalue_sets.shape == (50, 16)

    def test_sorted_rows(self, gue128):
        assert np.all(np.diff(gue128.eigenvalue_sets, axis=1) >= 0.0)

    def test_reproducible(self):
        a = mc.sample_gaussian(1, 24, 20, seed=5)
        b = mc.sample_gaussian(1, 24, 20, seed=5)
        assert np.array_equal(a.eigenvalue_sets, b.eigenvalue_sets)
        c = mc.sample_gaussian(1, 24, 20, seed=6)
        assert not np.array_equal(a.eigenvalue_sets, c.eigenvalue_sets)

    def test_density_against_semicircle(self, gue128, semicircle):
        h = mc.empirical_density(gue128, 25, (-2.125, 2.125))
        sup, _ = mc.compare_to_kernel(h, eq.density(semicircle, h.centers))
        assert sup <= 0.05

    def test_edge_confinement(self, gue128):
        outside = (np.abs(gue128.eigenvalue_sets) > 2.1).mean()
        assert outside <= 0.01

    def test_center_bin_value(self, gue128):
        h = mc.empirical_density(gue128, 21, (-2.1, 2.1))
        mid = h.density[10]
        assert mid == pytest.approx(1.0 / math.pi, abs=0.05)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_trace_moments_exact(self, beta, seed):
        # exact identities of the scaled ensembles: E sum x^2 = n - 1 + 2 / beta,
        # and for GUE E sum x^4 = 2 n + 1 / n (Harer-Zagier)
        n, count = 64, 2000
        x = mc.sample_gaussian(beta, n, count, seed=seed).eigenvalue_sets
        cases = [((x ** 2).sum(axis=1), n - 1 + 2.0 / beta)]
        if beta == 2:
            cases.append(((x ** 4).sum(axis=1), 2.0 * n + 1.0 / n))
        for sums, exact in cases:
            z = (sums.mean() - exact) / (sums.std() / math.sqrt(count))
            assert abs(z) < 4.0

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_matches_dense_ensemble(self, beta):
        from scipy.stats import ks_2samp

        n, count = 8, 4000
        tri = mc.sample_gaussian(beta, n, count, seed=50 + beta).eigenvalue_sets
        dense = dense_spectra(beta, n, count, seed=60 + beta)
        for stat in (lambda ev: ev[:, -1], lambda ev: ev[:, n // 2] - ev[:, n // 2 - 1]):
            assert ks_2samp(stat(tri), stat(dense)).pvalue > 0.01

    def test_range_checks(self):
        for n, count in ((0, 5), (4, 0), (513, 5), (4, 10_001)):
            with pytest.raises(ValueError):
                mc.sample_gaussian(2, n, count, seed=1)


@pytest.mark.parametrize("draw", [
    lambda: mc.sample_gaussian(3, 4, 5, seed=1),
    lambda: mc.sample_invariant(HERMITE, 3, 4, 4, 5, 10, seed=1),
], ids=["sample_gaussian", "sample_invariant"])
def test_beta_other_than_1_2_4(draw):
    with pytest.raises(ValueError, match="beta must be 1, 2 or 4"):
        draw()


class TestEmpiricalDensity:
    def test_mass_one(self, gue128):
        h = mc.empirical_density(gue128, 40, (-2.5, 2.5))
        assert h.mass == pytest.approx(1.0, abs=1e-12)

    def test_bins_cap(self, gue128):
        with pytest.raises(ValueError):
            mc.empirical_density(gue128, 1001, (-2, 2))

    def test_compare_calibration(self, gue128):
        h = mc.empirical_density(gue128, 20, (-2, 2))
        sup, l1 = mc.compare_to_kernel(h, h.density.copy())
        assert sup == 0.0 and l1 == 0.0
        sup, l1 = mc.compare_to_kernel(h, h.density + 0.1)
        assert sup >= 0.1 - 1e-12
        with pytest.raises(ValueError):
            mc.compare_to_kernel(h, h.density[:-1])


class TestSpacings:
    def test_unfolded_mean_one(self, gue128):
        s = mc.local_statistics(gue128, (0.0, 0.5, 1.0 / math.pi))
        assert len(s) >= 200
        assert s.mean() == pytest.approx(1.0, abs=0.05)

    def test_window_as_scaling_window(self, gue128, semicircle):
        win = op.bulk_window(semicircle, 0.0, np.linspace(-0.5 / math.pi * 128, 0.5 / math.pi * 128, 5))
        s = mc.local_statistics(gue128, win)
        assert s.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("window", [(0.0, 0.5, 1.0 / math.pi), (1.9, 0.3, 0.1),
                                        (-2.5, 0.6, 0.2), (0.0, 5.0, 1.0)])
    def test_matches_row_loops(self, gue128, window):
        got = mc.local_statistics(gue128, window)
        x0, half, c = window
        want = local_statistics_loop(gue128, x0 - half, x0 + half, c)
        assert got.tobytes() == want.tobytes()
        got = mc.poisson_contrast(gue128, window, seed=3)
        want = poisson_contrast_loop(gue128, x0 - half, x0 + half, c, seed=3)
        assert got.tobytes() == want.tobytes()

    def test_empty_window(self, gue128):
        with pytest.raises(ValueError):
            mc.local_statistics(gue128, (10.0, 0.1, 1.0))

    @pytest.mark.parametrize("window", [
        (0.0, 0.5, -1.0), (0.0, 0.5, 0.0), (0.0, 0.5, math.inf), (0.0, 0.5, math.nan),
        (0.0, 0.0, 1.0), (0.0, -0.5, 1.0), (0.0, math.inf, 1.0), (math.nan, 0.5, 1.0),
        (-math.inf, 0.5, 1.0)])
    def test_bad_window_rejected(self, gue128, window):
        with pytest.raises(ValueError, match="window needs"):
            mc.local_statistics(gue128, window)
        with pytest.raises(ValueError, match="window needs"):
            mc.poisson_contrast(gue128, window)

    def test_poisson_contrast_empty_window(self, gue128):
        with pytest.raises(ValueError, match="no eigenvalues found in the window"):
            mc.poisson_contrast(gue128, (10.0, 0.1, 1.0))

    def test_repulsion_vs_poisson(self, gue128):
        win = (0.0, 0.5, 1.0 / math.pi)
        s = mc.local_statistics(gue128, win)
        p = mc.poisson_contrast(gue128, win)
        assert (s < 0.05).mean() <= 0.001
        assert (p < 0.05).mean() >= 0.02

    def test_beta_ordering_small_s(self):
        fr = {}
        for beta in (1, 2, 4):
            b = mc.sample_gaussian(beta, 64, 300, seed=11)
            s = mc.local_statistics(b, (0.0, 0.5, 1.0 / math.pi))
            fr[beta] = (s < 0.2).mean()
        assert fr[1] > fr[2] > fr[4]

    def test_gse_gue_histogram_crossing(self):
        b2 = mc.sample_gaussian(2, 64, 500, seed=21)
        b4 = mc.sample_gaussian(4, 64, 500, seed=22)
        win = (0.0, 0.5, 1.0 / math.pi)
        s2 = mc.local_statistics(b2, win)
        s4 = mc.local_statistics(b4, win)
        assert (s4 < 0.3).mean() < (s2 < 0.3).mean()
        assert ((0.8 < s4) & (s4 < 1.2)).mean() > ((0.8 < s2) & (s2 < 1.2)).mean()


class TestMetropolis:
    def test_density_matches_semicircle(self, semicircle):
        b = mc.sample_invariant(HERMITE, 2, 32, 32, 3200, 400, seed=5)
        assert b.count * b.n >= 1e5
        h = mc.empirical_density(b, 30, (-2.2, 2.2))
        sup, _ = mc.compare_to_kernel(h, eq.density(semicircle, h.centers))
        assert sup <= 0.08

    def test_log_density_permutation_invariant(self):
        x = np.sort(np.random.default_rng(0).uniform(-1.5, 1.5, 8))
        a = mc.log_density(HERMITE, 2, 8, 8, x)
        b = mc.log_density(HERMITE, 2, 8, 8, x[::-1].copy())
        assert a == pytest.approx(b, abs=1e-10)

    def test_no_tiny_spacings(self):
        b = mc.sample_invariant(HERMITE, 2, 16, 16, 800, 100, seed=8)
        spac = np.diff(b.eigenvalue_sets, axis=1)
        global_spacing = 4.0 / 16
        assert (spac < 1e-4 * global_spacing).sum() == 0

    def test_reproducible(self):
        a = mc.sample_invariant(HERMITE, 2, 8, 8, 200, 60, seed=4)
        b = mc.sample_invariant(HERMITE, 2, 8, 8, 200, 60, seed=4)
        assert np.array_equal(a.eigenvalue_sets, b.eigenvalue_sets)

    def test_detailed_balance_occupancy(self):
        # two-particle chain: occupancy ratio of two state boxes matches
        # the box-integrated density ratio within 3 sigma (chain means are
        # independent across the parallel walkers)
        pot = HERMITE
        beta, n, N = 2, 2, 2
        b = mc.sample_invariant(pot, beta, n, N, count=6000, steps=800, seed=13)
        lo_box = np.array([-1.1, 0.9])
        hi_box = np.array([-0.4, 1.6])

        def occupancy(sets, center):
            return np.all(np.abs(sets - center) < 0.25, axis=1).mean()

        state_a = np.array([-0.8, 1.2])
        state_b = np.array([-0.2, 0.4])
        occ_a = occupancy(b.eigenvalue_sets, state_a)
        occ_b = occupancy(b.eigenvalue_sets, state_b)

        # quadrature of the two box probabilities (up to one normalization)
        from scipy.integrate import dblquad

        def dens(x2, x1):
            pts = np.array([x1, x2])
            return math.exp(mc.log_density(pot, beta, n, N, pts))

        pa = dblquad(dens, state_a[0] - 0.25, state_a[0] + 0.25,
                     state_a[1] - 0.25, state_a[1] + 0.25, epsrel=1e-8)[0]
        pb = dblquad(dens, state_b[0] - 0.25, state_b[0] + 0.25,
                     state_b[1] - 0.25, state_b[1] + 0.25, epsrel=1e-8)[0]
        # sorted states: each unordered box counted once on each side
        want = pb / pa
        got = occ_b / occ_a
        sigma = got * math.sqrt(1.0 / (occ_a * 6000) + 1.0 / (occ_b * 6000))
        assert abs(got - want) <= 3.0 * sigma + 0.05 * want

    def test_gue_n2_one_point_function(self):
        # R_1(x) = K_2(x, x); histogram of 1e5 eigenvalues against the
        # finite-n kernel from the orthogonal polynomials (several batches,
        # respecting the per-batch count cap)
        sets = np.concatenate([
            mc.sample_gaussian(2, 2, 10_000, seed=17 + i).eigenvalue_sets
            for i in range(5)])
        b = mc.SampleBatch(beta=2, n=2, N=2, seed=17, eigenvalue_sets=sets)
        w = op.WeightSpec(HERMITE, N=2)
        t = op.recurrence_table(w, 4)
        h = mc.empirical_density(b, 30, (-3.0, 3.0))
        pred = op.cd_kernel_grid(t, w, 2, h.centers, h.centers).diagonal() / 2.0
        sup, _ = mc.compare_to_kernel(h, pred)
        assert sup <= 0.03

    @pytest.mark.parametrize("pot, range_", [
        (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.0), (0.0, 5.0)),
        (Potential((0.0, 0.0, 0.5), singularity_alpha=1.0), (-3.0, 3.0)),
    ], ids=["hard_edge_x_alpha", "line_abs_x_2alpha"])
    def test_singular_weight_n2_one_point_function(self, pot, range_):
        # weight x^alpha e^{-NV} at a hard edge, |x|^{2 alpha} e^{-NV} on the
        # line: the n = 2 histogram against K_2(x, x) / 2 of the same weight
        b = mc.sample_invariant(pot, 2, 2, 2, 10_000, 1200, seed=1)
        w = op.WeightSpec(pot, N=2)
        t = op.recurrence_table(w, 4)
        h = mc.empirical_density(b, 30, range_)
        pred = op.cd_kernel_grid(t, w, 2, h.centers, h.centers).diagonal() / 2.0
        sup, _ = mc.compare_to_kernel(h, pred)
        assert sup <= 0.06

    @pytest.mark.parametrize("pot", [
        HERMITE,
        Potential((0.0, 0.0, 0.5), singularity_alpha=1.5),
        Potential((0.0, 1.0), hard_edge=True),
        Potential((0.0, 1.0, 0.5), hard_edge=True, singularity_alpha=0.5),
    ], ids=["hermite", "line_singular", "hard_edge", "hard_edge_singular"])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_sweep_log_ratio_oracle(self, pot, beta):
        # each coordinate's pair log-ratio plus its one-body gain is the
        # change of log_density between the states before and after its
        # proposal, replayed coordinate by coordinate through the sweep
        n, N, chains = 5, 7, 3
        rng = np.random.default_rng(beta)
        x0 = rng.uniform(0.05, 2.0, (n, chains))
        if not pot.hard_edge:
            x0 -= 1.0
        step = rng.normal(scale=0.6, size=(n, chains))
        log_u = np.log(rng.random((n, chains)))
        x = x0.copy()
        take, pair, gain = mc._sweep(pot, beta, N, x, step, log_u)
        state = x0.copy()
        checked = 0
        for i in range(n):
            for k in range(chains):
                before = state[:, k]
                after = before.copy()
                after[i] = before[i] + step[i, k]
                if pot.hard_edge and after[i] <= 0.0:
                    assert gain[i, k] == -np.inf and not take[i, k]
                    continue
                want = (mc.log_density(pot, beta, n, N, after)
                        - mc.log_density(pot, beta, n, N, before))
                assert pair[i, k] + gain[i, k] == pytest.approx(want, abs=1e-12)
                assert take[i, k] == (log_u[i, k] < want)
                checked += 1
                if take[i, k]:
                    state[:, k] = after
        assert np.array_equal(state, x)
        assert checked >= n * chains // 2

    @pytest.mark.parametrize("pot", [
        HERMITE,
        Potential((0.0, 0.0, 0.5), singularity_alpha=1.5),
        Potential((0.0, 1.0), hard_edge=True),
        Potential((0.0, 1.0, 0.5), hard_edge=True, singularity_alpha=0.5),
    ], ids=["hermite", "line_singular", "hard_edge", "hard_edge_singular"])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_sweep_product_matches_log_sum(self, pot, beta):
        # 60 sweeps of the product form with carried log-weights against
        # the log-sum reference: the same masks, states and log-weights
        n, N, chains = 8, 8, 6
        rng = np.random.default_rng(10 + beta)
        x = np.sort(rng.uniform(0.05, 2.0, (n, chains)), axis=0)
        if not pot.hard_edge:
            x -= 1.0
        ref = x.copy()
        lw = op.WeightSpec(pot, N).log_weight(x)
        for _ in range(60):
            step = rng.normal(scale=0.4, size=(n, chains))
            log_u = np.log(rng.random((n, chains)))
            take = mc._sweep(pot, beta, N, x, step, log_u, lw)[0]
            assert np.array_equal(take, sweep_log_sum(pot, beta, N, ref, step, log_u))
            assert np.array_equal(x, ref)
        assert np.array_equal(lw, op.WeightSpec(pot, N).log_weight(x))

    def test_sweep_proposal_on_another_coordinate_rejected(self):
        # 1 + s_0 / (x_0 - x_1) = 1 - 0.25 / 0.25 = 0 exactly: R_0 = 0 fails
        # even against log_u = -inf
        x = np.array([[0.5, 0.5], [0.25, 0.25], [1.0, 1.0]])
        step = np.array([[-0.25, -0.25], [0.0, 0.0], [0.0, 0.0]])
        log_u = np.array([[-1.0, -np.inf], [-1.0, -1.0], [-1.0, -1.0]])
        ref = x.copy()
        take, pair, _ = mc._sweep(HERMITE, 2, 3, x, step, log_u)
        assert not take[0].any() and np.all(pair[0] == -np.inf)
        assert np.array_equal(take, sweep_log_sum(HERMITE, 2, 3, ref, step, log_u))
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_sweep_near_coincident_coordinates(self, beta):
        # x_0 proposes to land within 2e-12 of x_1, a factor near 1e-11 that
        # some log_u still accept; where it is taken, x_1 then moves from a
        # coordinate 1e-12 away.  Every decision is the log-sum's.
        rng = np.random.default_rng(beta)
        chains = 48
        x = np.tile(np.array([[0.3], [0.5], [-0.5], [0.8]]), (1, chains))
        step = rng.normal(scale=0.3, size=x.shape)
        step[0] = 0.2 + 1e-12 * rng.uniform(-2.0, 2.0, chains)
        log_u = np.log(rng.random(x.shape))
        log_u[0] = -np.linspace(0.0, 200.0, chains)
        ref = x.copy()
        take = mc._sweep(HERMITE, beta, 4, x, step, log_u)[0]
        assert np.array_equal(take, sweep_log_sum(HERMITE, beta, 4, ref, step, log_u))
        assert np.array_equal(x, ref)
        assert take[0].any() and not take[0].all()
        assert np.abs(x[0] - 0.5).min() < 3e-12

    @pytest.mark.parametrize("log_u", [-1.0, -np.inf])
    def test_sweep_hard_edge_proposal_below_zero_rejected(self, log_u):
        V = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=0.5)
        x = np.array([[0.2], [1.0]])
        lw = op.WeightSpec(V, 2).log_weight(x)
        take, _, gain = mc._sweep(V, 2, 2, x, np.array([[-0.5], [0.0]]),
                                  np.array([[log_u], [-1.0]]), lw)
        assert not take[0, 0] and gain[0, 0] == -np.inf
        assert x[0, 0] == 0.2 and np.array_equal(lw, op.WeightSpec(V, 2).log_weight(x))

    def test_diagnostics_on_batch(self):
        b = mc.sample_invariant(HERMITE, 2, 8, 8, 100, 60, seed=4)
        assert b.acceptance_rates.shape == b.proposal_widths.shape == (64,)
        assert np.all((0.1 <= b.acceptance_rates) & (b.acceptance_rates <= 0.6))
        assert np.all(b.proposal_widths > 0.0)
        assert mc.SampleBatch.from_bytes(b.to_bytes()).acceptance_rates is None

    def test_range_checks(self):
        for n, count, steps in ((0, 5, 10), (4, 0, 10), (129, 5, 10),
                                (4, 10_001, 10), (4, 5, 0), (4, 5, 100_001), (4, 5, 10 ** 30)):
            with pytest.raises(ValueError):
                mc.sample_invariant(HERMITE, 2, n, n, count, steps, seed=1)

    @pytest.mark.parametrize("chains, per, count", [
        (1, 1, 1), (64, 1, 40), (64, 2, 128), (64, 3, 150), (5, 4, 17), (3, 7, 21)])
    def test_interleave_trim_order(self, chains, per, count):
        sets = np.arange(chains * per * 3, dtype=float).reshape(chains * per, 3)
        got = mc._interleave_trim(sets, chains, per, count)
        assert np.array_equal(got, interleave_trim_loop(sets, chains, per, count))


QUARTIC = Potential((0.0, 0.0, 0.0, 0.0, 0.25))


@pytest.mark.parametrize("pot, beta, n", [
    (QUARTIC, 1, 32),
    (QUARTIC, 2, 32),
    (QUARTIC, 4, 32),
    (Potential((0.0, 0.0, -1.0, 0.0, 0.25)), 2, 32),
    (Potential((0.0, 1.0), hard_edge=True, singularity_alpha=0.5), 2, 32),
    (Potential((0.0, 0.0, 0.5), singularity_alpha=1.5), 1, 16),
], ids=["quartic_b1", "quartic_b2", "quartic_b4", "critical_quartic", "hard_x_a0.5",
        "hermite_a1.5_b1"])
def test_metropolis_virial_identity(pot, beta, n):
    # integrating by parts in each x_i against the log-density gives
    # E[N sum_i x_i V'(x_i)] = n + beta n (n - 1)/2 + e n exactly, for every
    # beta, V and n (e = alpha on a hard edge, 2 alpha on the line); the
    # z-score takes the naive standard error of the 2000 records (at the
    # seed fixed here: 0.45, 1.89, 0.86, 0.96, -0.29 and 0.57)
    b = mc.sample_invariant(pot, beta, n, n, count=2000, steps=400, seed=3)
    x = b.eigenvalue_sets
    dv = np.polynomial.polynomial.polyder(pot.coefficients)
    s = n * (x * np.polynomial.polynomial.polyval(x, dv)).sum(axis=1)
    e = op.WeightSpec(pot, n).exponent
    exact = n + beta * n * (n - 1) / 2.0 + e * n
    z = (s.mean() - exact) / (s.std(ddof=1) / math.sqrt(len(s)))
    assert abs(z) < 4.0


class TestWorkers:
    @pytest.mark.parametrize("items, cpus, want", [(10, 3, 3), (2, 8, 2), (10, 1, None)])
    def test_pool_size_capped_by_items_and_cpus(self, monkeypatch, items, cpus, want):
        # however many workers are asked for, the pool has at most one per
        # item and per CPU, and one worker runs in this process (a stand-in
        # pool records its size and starts nothing)
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        got = mc._map_blocks(sum, list(range(items)), 10 ** 30)
        assert sum(got) == sum(range(items))
        assert sizes == ([want] if want else [])

    def test_gaussian_worker_independent(self):
        one = mc.sample_gaussian(4, 12, 30, seed=7, workers=1)
        two = mc.sample_gaussian(4, 12, 30, seed=7, workers=2)
        assert np.array_equal(one.eigenvalue_sets, two.eigenvalue_sets)

    def test_metropolis_worker_independent(self):
        one = mc.sample_invariant(HERMITE, 1, 6, 6, 90, 40, seed=7, workers=1)
        two = mc.sample_invariant(HERMITE, 1, 6, 6, 90, 40, seed=7, workers=2)
        assert one.to_bytes() == two.to_bytes()
        assert np.array_equal(one.acceptance_rates, two.acceptance_rates)
        assert np.array_equal(one.proposal_widths, two.proposal_widths)


class TestSerialization:
    def test_binary_roundtrip(self, gue128):
        back = mc.SampleBatch.from_bytes(gue128.to_bytes())
        assert back.beta == 2 and back.n == 128 and back.seed == 42
        assert np.array_equal(back.eigenvalue_sets, gue128.eigenvalue_sets)

    @pytest.mark.parametrize("head", [b"RMTX\x01\x00", b"RMTB\x02\x00"])
    def test_unrecognized_record(self, gue128, head):
        with pytest.raises(ValueError, match="unrecognized sample batch record"):
            mc.SampleBatch.from_bytes(head + gue128.to_bytes()[6:])

    def test_csv_export(self):
        b = mc.sample_gaussian(2, 3, 2, seed=1)
        text = b.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "set_index,eigenvalue"
        assert len(lines) == 1 + 6

    def test_histogram_csv(self, gue128):
        h = mc.empirical_density(gue128, 5, (-2, 2))
        lines = h.to_csv().strip().splitlines()
        assert lines[0] == "bin_center,density"
        assert len(lines) == 6


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_log_density_negative_coordinate_on_hard_edge(alpha):
    V = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha)
    assert mc.log_density(V, 2, 3, 3, np.array([0.5, 1.0, 2.0])) > -math.inf
    assert mc.log_density(V, 2, 3, 3, np.array([-0.5, 1.0, 2.0])) == -math.inf
