"""The Deift-Zhou steepest-descent construction, piece by piece.

Builds the g-function, phase functions, outer parametrix M, Airy model
solution A, conformal map and local parametrix P for the quadratic
potential, then verifies the identities that make the machine work:
det M = det A = 1, the jump relations, the matching P M^{-1} = I + O(1/n),
the bulk kernel formula, and the recurrence asymptotics.
"""

import cmath

import numpy as np

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import orthopoly as op
from rmtlab import rh
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))
mu = eq.solve_equilibrium(HERMITE)
ctx = rh.DescentContext(mu, n=64, delta=0.1)
print(f"context: support {mu.support}, n = 64, delta = 0.1, "
      f"lens height {ctx.lens_height}")

print("\n--- normalization at infinity")
z = 1e3 + 0j
print(f"g(z) - log z at |z| = 1e3: {abs(rh.g_function(ctx, z) - cmath.log(z)):.2e}")
print(f"phi(b) = {abs(rh.phi(ctx, 2.0 + 0j)):.2e},  phi(2.5) = "
      f"{rh.phi(ctx, 2.5 + 0j).real:+.6f} (positive beyond the edge)")

print("\n--- parametrices")
zz = 0.3 + 0.4j
print(f"det M(z) - 1 = {abs(np.linalg.det(rh.outer_parametrix(ctx, zz)) - 1):.2e}")
print(f"det A(z) - 1 = {abs(np.linalg.det(rh.airy_model(1 + 1j)) - 1):.2e}")
h = 1e-6
fp = (rh.conformal_f(ctx, 2.0 + h) - rh.conformal_f(ctx, 2.0 - h)) / (2 * h)
print(f"conformal map: f(2) = 0, f'(2) = {fp.real:.8f} (= (h(b) sqrt(b-a))^(2/3))")

print("\n--- matching on the disk boundary, sup |P M^-1 - I|")
circle = 2.0 + 0.1 * np.exp(1j * np.linspace(0, 2 * np.pi, 24, endpoint=False))
for n in (32, 64, 128, 256):
    c = rh.DescentContext(mu, n=n, delta=0.1)
    # one call each on the whole circle: shape (24, 2, 2)
    dev = rh.local_parametrix(c, circle) @ np.linalg.inv(rh.outer_parametrix(c, circle))
    print(f"  n = {n:3d}: {np.abs(dev - np.eye(2)).max():.5f}")
print("  (halving with n: the O(1/n) matching estimate)")

print("\n--- bulk kernel from the phase function vs the exact CD kernel")
n = 128
cn = rh.DescentContext(mu, n=n, delta=0.1)
t = op.recurrence_table(op.WeightSpec(HERMITE, N=n), n)
for x, y in [(0.3, -0.2), (1.0, 1.1), (-1.5, 0.7)]:
    approx = rh.bulk_kernel_approx(cn, x, y)
    exact = op.cd_kernel(t, n, x, y)
    print(f"  K_128({x:+.1f}, {y:+.1f}): approx {approx:+10.4f}  exact {exact:+10.4f}"
          f"   |diff|/n = {abs(approx - exact) / n:.5f}")

print("\n--- the Airy kernel assembled from the model solution A")
for x, y in [(1.0, 0.5), (-1.0, 0.5), (0.5, -1.0), (-1.0, -0.4)]:
    got = rh.edge_kernel_from_A(x, y)
    ref = kr.airy_kernel(x, y)
    print(f"  ({x:+.1f}, {y:+.1f}): from A {got:+.12f}   direct {ref:+.12f}")

print("\n--- leading-order recurrence coefficients from the M expansion")
a_inf, b_inf = rh.asymptotic_recurrence(ctx)
print(f"  a_inf = {a_inf:.12f} (exact ((b-a)/4)^2 = 1), b_inf = {b_inf:+.2e}")
print(f"  Hermite table at n = 128: a_n = {t.a[127]:.12f}")
