"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Asymptotic statements are checked as desk-scale convergence-rate and
identity checks at their stated tolerances.  Run with -s (or look at the
captured output) for the per-criterion report lines.
"""

import math
import time

import numpy as np
import pytest

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import mc
from rmtlab import orthopoly as op
from rmtlab import rh
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def semicircle():
    return eq.solve_equilibrium(HERMITE)


@pytest.fixture(scope="module")
def hermite_tables():
    out = {}
    for n in (64, 128):
        w = op.WeightSpec(HERMITE, N=n)
        out[n] = (w, op.recurrence_table(w, n))
    return out


def test_criterion_01_semicircle(semicircle):
    t0 = time.perf_counter()
    mu = eq.solve_equilibrium(HERMITE)
    ok_a = abs(mu.support[0] + 2.0) <= 1e-10 and abs(mu.support[1] - 2.0) <= 1e-10
    ok_rho = abs(eq.density(mu, 0.0) - 1.0 / math.pi) <= 1e-10
    g = eq.grid_energy_minimize(HERMITE, 700, box=(-3.0, 3.0), strict=False)
    ok_oracle = np.abs(g.density - eq.density(mu, g.x)).max() <= 1e-2
    dt = time.perf_counter() - t0
    report(1, ok_a and ok_rho and ok_oracle and dt < 10.0,
           f"semicircle endpoints/density/oracle, {dt:.2f}s")


def test_criterion_02_critical_quartic():
    pot = Potential((0.0, 0.0, -1.0, 0.0, 0.25))
    mu = eq.solve_equilibrium(pot)
    ok_support = abs(mu.support[0] + 2.0) <= 1e-8 and abs(mu.support[1] - 2.0) <= 1e-8
    xs = np.linspace(-1.9, 1.9, 191)
    target = xs ** 2 * np.sqrt(4.0 - xs ** 2) / (2.0 * math.pi)
    sup = np.abs(eq.density(mu, xs) - target).max()
    cls = eq.classify(mu, pot)
    ok_cls = (len(cls) == 1 and cls[0][1] == "interior" and cls[0][2] == 1
              and abs(cls[0][0]) <= 1e-6)
    report(2, ok_support and sup <= 1e-6 and ok_cls,
           f"quartic density sup {sup:.2e}, classification {cls}")


def test_criterion_03_bulk_universality(semicircle, hermite_tables):
    t0 = time.perf_counter()
    grid = np.linspace(-2.0, 2.0, 41)
    ref = kr.sine_kernel(grid[:, None], grid[None, :])
    sups = {}
    for n in (64, 128):
        w, table = hermite_tables[n]
        win = op.bulk_window(semicircle, 0.0, grid)
        sups[n] = np.abs(op.rescaled_kernel(table, w, n, win) - ref).max()
    dt = time.perf_counter() - t0
    ratio = sups[128] / sups[64]
    report(3, sups[64] <= 0.05 and ratio <= 0.65 and dt < 120.0,
           f"bulk sup(64) {sups[64]:.4f}, ratio {ratio:.3f}, {dt:.1f}s")


def test_criterion_04_soft_edge(semicircle, hermite_tables):
    grid = np.linspace(-4.0, 4.0, 33)
    ref = kr.airy_kernel(grid[:, None], grid[None, :])
    sups = {}
    for n in (64, 128):
        w, table = hermite_tables[n]
        win = op.soft_edge_window(semicircle, grid)
        assert abs(win.c - 1.0) <= 1e-9  # scale n^{2/3} f'(2) = n^{2/3}
        sups[n] = np.abs(op.rescaled_kernel(table, w, n, win) - ref).max()
    report(4, sups[128] <= 0.05 and sups[128] < sups[64],
           f"edge sup(128) {sups[128]:.4f}, sup(64) {sups[64]:.4f}")


def test_criterion_05_hard_edge():
    grid = np.linspace(8.0 / 24, 8.0, 24)
    ok = True
    details = []
    for alpha in (0.0, 1.0):
        pot = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha)
        mu = eq.solve_equilibrium(pot)
        ref = kr.bessel_hard_kernel(alpha, grid[:, None], grid[None, :])
        sups = {}
        for n in (64, 128):
            w = op.WeightSpec(pot, N=n)
            table = op.recurrence_table(w, n)
            win = op.hard_edge_window(mu, grid)
            assert abs(win.c - 2.0) <= 1e-9
            sups[n] = np.abs(op.rescaled_kernel(table, w, n, win) - ref).max()
        ok = ok and sups[128] <= 0.08 and sups[128] <= sups[64]
        details.append(f"alpha={alpha}: sup(128) {sups[128]:.2e}")
    report(5, ok, "; ".join(details))


def test_criterion_06_spectral_singularity(semicircle):
    grid = np.linspace(3.0 / 20, 3.0, 20)
    pot = Potential((0.0, 0.0, 0.5), singularity_alpha=1.0)
    n = 128
    w = op.WeightSpec(pot, N=n)
    table = op.recurrence_table(w, n)
    win = op.origin_window(semicircle, grid)
    ref = kr.bessel_origin_kernel(1.0, grid[:, None], grid[None, :])
    sup = np.abs(op.rescaled_kernel(table, w, n, win) - ref).max()
    xs = np.linspace(0.1, 2.9, 12)
    ident = np.abs(kr.bessel_origin_kernel(0.0, xs[:, None], xs[None, :])
                   - kr.sine_kernel(xs[:, None], xs[None, :])).max()
    report(6, sup <= 0.08 and ident <= 1e-10,
           f"origin sup(128) {sup:.4f}, alpha=0 identity {ident:.2e}")


def test_criterion_07_christoffel_darboux():
    weights = [
        op.WeightSpec(HERMITE, N=16),
        op.WeightSpec(Potential((0.0, 0.0, -1.0, 0.0, 0.25)), N=8),
        op.WeightSpec(Potential((0.0, 1.0), hard_edge=True), N=8),
    ]
    rng = np.random.default_rng(1)
    worst = 0.0
    for w in weights:
        table = op.recurrence_table(w, 32)
        lo, hi = table.window
        for n in (2, 11, 30):
            for _ in range(6):
                x, y = rng.uniform(lo + 0.1, hi - 0.1, 2)
                worst = max(worst, abs(op.cd_kernel(table, w, n, x, y)
                                       - op.cd_kernel_sum(table, w, n, x, y)))
    w16 = op.WeightSpec(HERMITE, N=16)
    t16 = op.recurrence_table(w16, 20)
    t, qw = np.polynomial.legendre.leggauss(500)
    lo, hi = t16.window
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    diag = op.cd_kernel_grid(t16, w16, 16, x, x).diagonal()
    trace = float(np.sum(diag * 0.5 * (hi - lo) * qw))
    report(7, worst <= 1e-10 and abs(trace - 16.0) <= 1e-8,
           f"CD vs sum sup {worst:.2e}, trace {trace:.10f}")


def test_criterion_08_rh_identity_suite(semicircle):
    ctx = rh.DescentContext(semicircle, n=32, delta=0.1)
    rng = np.random.default_rng(5)
    ok_m = all(abs(np.linalg.det(rh.outer_parametrix(
        ctx, complex(rng.uniform(-4, 4), rng.uniform(0.1, 3)))) - 1.0) <= 1e-12
        for _ in range(10))
    ok_a = True
    for _ in range(10):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 0.2:
            continue
        try:
            ok_a = ok_a and abs(np.linalg.det(rh.airy_model(z)) - 1.0) <= 1e-8
        except ValueError:
            pass
    from rmtlab.specfun import airy

    w3 = np.exp(2j * np.pi / 3)
    ok_conn = True
    for _ in range(15):
        z = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
        y = [airy(z).value, w3 * airy(w3 * z).value, w3 ** 2 * airy(w3 ** 2 * z).value]
        ok_conn = ok_conn and abs(sum(y)) <= 1e-10 * max(abs(v) for v in y)
    ok_jump = True
    for name, theta, sgn in [("0", 0.0, 1), ("2pi/3", 2 * np.pi / 3, -1),
                             ("-2pi/3", -2 * np.pi / 3, -1)]:
        for r in (0.9, 2.2):
            eps = 1e-9
            ap = rh.airy_model(r * np.exp(1j * (theta + sgn * eps)))
            am = rh.airy_model(r * np.exp(1j * (theta - sgn * eps)))
            resid = np.abs(ap - am @ rh.AIRY_JUMPS[name]).max()
            ok_jump = ok_jump and resid <= 1e-8 * max(1.0, np.abs(ap).max())
    for r in (0.9, 2.2):
        ap = rh.airy_model(r * np.exp(1j * (np.pi - 1e-9)))
        am = rh.airy_model(r * np.exp(-1j * (np.pi - 1e-9)))
        resid = np.abs(ap - am @ rh.AIRY_JUMPS["pi"]).max()
        ok_jump = ok_jump and resid <= 1e-8 * max(1.0, np.abs(ap).max())

    def asym_resid(z):
        a = rh.airy_model(z)
        zeta = (2.0 / 3.0) * z ** 1.5
        pre = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
        mid = np.linalg.inv(pre) @ np.diag([z ** 0.25, z ** -0.25]) @ a \
            @ np.diag([np.exp(zeta), np.exp(-zeta)])
        return np.abs(mid - np.eye(2)).max()

    r10, r40 = asym_resid(10 * np.exp(0.3j)), asym_resid(40 * np.exp(0.3j))
    ok_decay = r40 / r10 <= 0.25 ** 1.5 * 1.5
    report(8, ok_m and ok_a and ok_conn and ok_jump and ok_decay,
           f"det/connection/jumps ok, asym decay ratio {r40 / r10:.4f}")


def test_criterion_09_matching(semicircle):
    sups = {}
    for n in (64, 128):
        ctx = rh.DescentContext(semicircle, n=n, delta=0.1)
        sup = 0.0
        for t in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            z = 2.0 + 0.1 * np.exp(1j * t)
            p = rh.local_parametrix(ctx, z)
            m = rh.outer_parametrix(ctx, z)
            sup = max(sup, np.abs(p @ np.linalg.inv(m) - np.eye(2)).max())
        sups[n] = sup
    ratio = sups[128] / sups[64]
    report(9, 0.4 <= ratio <= 0.65,
           f"matching sup 64: {sups[64]:.4f}, 128: {sups[128]:.4f}, ratio {ratio:.3f}")


def test_criterion_10_asymptotics_cross_checks(semicircle, hermite_tables):
    n = 128
    ctx = rh.DescentContext(semicircle, n=n, delta=0.1)
    w, table = hermite_tables[n]
    xs = np.linspace(-1.5, 1.5, 17)
    kcd = op.cd_kernel_grid(table, w, n, xs, xs)
    sup = max(abs(rh.bulk_kernel_approx(ctx, xx, yy) - kcd[i, j]) / n
              for i, xx in enumerate(xs) for j, yy in enumerate(xs))
    a_err = abs(table.a[n - 1] - 1.0)
    rng = np.random.default_rng(9)
    edge_sup, cases, pts = 0.0, set(), 0
    while pts < 20:
        x, y = rng.uniform(-3, 3, 2)
        if abs(x - y) < 0.05 or abs(x) < 0.02 or abs(y) < 0.02:
            continue
        edge_sup = max(edge_sup, abs(rh.edge_kernel_from_A(x, y) - kr.airy_kernel(x, y)))
        cases.add((x > 0, y > 0))
        pts += 1
    report(10, sup <= 2e-2 and a_err <= 0.5 / n and edge_sup <= 1e-8 and len(cases) == 4,
           f"|approx-cd|/n {sup:.4f}, |a_n - 1| {a_err:.2e}, edge sup {edge_sup:.2e}")


def test_criterion_11_pfaffian_structure():
    rng = np.random.default_rng(3)
    ok = True
    details = []
    for family, lo, hi in [("sine_beta1", -2.0, 2.0), ("sine_beta4", -2.0, 2.0),
                           ("airy_beta1", -4.0, 1.5), ("airy_beta4", -4.0, 1.5)]:
        h = kr.KernelHandle(family)
        for k in (2, 3, 4):
            pts = np.sort(rng.uniform(lo, hi, k))
            blocks = h.evaluate(pts[:, None], pts[None, :])  # (k, k, 2, 2)
            a = blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)
            scale = 1.0 + np.abs(a).max()
            skew = np.abs(a + a.T).max()
            pf = kr.pfaffian(a)
            det = np.linalg.det(a)
            ok = ok and skew <= 1e-8 * scale and abs(pf * pf - det) <= 1e-8 * (1.0 + abs(det))
        details.append(f"{family} ok")
    report(11, ok, "; ".join(details))


def test_criterion_12_monte_carlo(semicircle):
    t0 = time.perf_counter()
    gue = mc.sample_gaussian(2, 128, 500, seed=42)
    h = mc.empirical_density(gue, 25, (-2.125, 2.125))
    sup, _ = mc.compare_to_kernel(h, eq.density(semicircle, h.centers))
    win = (0.0, 0.5, 1.0 / math.pi)
    frac = {}
    for beta in (1, 2, 4):
        b = mc.sample_gaussian(beta, 64, 400, seed=11)
        s = mc.local_statistics(b, win)
        frac[beta] = (s < 0.2).mean()
    s2 = mc.local_statistics(gue, win)
    poisson = mc.poisson_contrast(gue, win)
    repulsion_ok = (s2 < 0.05).mean() <= 1e-3 and (poisson < 0.05).mean() >= 0.02
    dt = time.perf_counter() - t0
    ok = (sup <= 0.05 and frac[1] > frac[2] > frac[4] and repulsion_ok
          and dt < 300.0)
    report(12, ok, f"density sup {sup:.4f}, frac<0.2 {frac[1]:.4f}/"
                   f"{frac[2]:.4f}/{frac[4]:.4f}, {dt:.1f}s")


def test_criterion_13_pearcey():
    worst = 0.0
    pts = np.array([-1.0, 0.0, 1.0])
    for s in (-1.0, 0.0, 1.0):
        a = kr._pearcey_raw(pts[:, None], pts[None, :], s, 0.75, 12.0, 60, 130)
        b = kr._pearcey_raw(pts[:, None], pts[None, :], s, 1.60, 13.0, 75, 160)
        worst = max(worst, np.abs(a - b).max())
    ode = 0.0
    for x, s in [(-1.0, 0.7), (0.4, 0.0), (1.0, -1.0)]:
        p0 = kr.pearcey_p(x, s, 0)
        p1 = kr.pearcey_p(x, s, 1)
        p3 = kr.pearcey_p(x, s, 3)
        ode = max(ode, abs(p3 - (s * p1 - x * p0)))
    report(13, worst <= 1e-6 and ode <= 1e-6,
           f"contour agreement {worst:.2e}, ODE residual {ode:.2e}")
