"""Finite-n orthogonal polynomial kernels.

Builds recurrence tables for varying weights e^{-N V}, compares them to
the classical Hermite / Laguerre values, and shows the global density
(1/n) K_n(x, x) converging to the equilibrium density.
"""

import numpy as np

from rmtlab import equilibrium as eq
from rmtlab import orthopoly as op
from rmtlab.equilibrium import Potential

print("=== Hermite weight e^{-N x^2/2}, N = 16 ===")
t = op.recurrence_table(op.WeightSpec(Potential((0.0, 0.0, 0.5)), N=16), 32)
print("k      a_k        k/N        b_k")
for k in (1, 5, 10, 20, 30):
    print(f"{k:2d}  {t.a[k - 1]:.12f}  {k / 16:.12f}  {t.b[k]:+.2e}")
print(f"gamma_0^2 = {t.gamma_sq[0]:.14f}  vs sqrt(2 pi/N) = "
      f"{np.sqrt(2 * np.pi / 16):.14f}")

print("\n=== Laguerre weight x e^{-8x} on [0, inf) ===")
laguerre = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=1.0)
tl = op.recurrence_table(op.WeightSpec(laguerre, N=8), 16)
print("k     b_k        (2k+2)/N      a_k        k(k+1)/N^2")
for k in (0, 3, 8, 12):
    a_val = tl.a[k - 1] if k >= 1 else float("nan")
    print(f"{k:2d}  {tl.b[k]:.10f}  {(2 * k + 2) / 8:.10f}  "
          f"{a_val:.10f}  {k * (k + 1) / 64:.10f}")

print("\n=== kernel identities (N = 16 Hermite) ===")
x, y, n = 0.4, -0.9, 24
print(f"CD form      K_{n}({x}, {y}) = {op.cd_kernel(t, n, x, y):+.14f}")
print(f"direct sum   K_{n}({x}, {y}) = {op.cd_kernel_sum(t, n, x, y):+.14f}")
phi = op.weighted_polys(t, 0.3, n)
print(f"sum phi_k(0.3)^2 = {sum(v * v for v in phi):.12f}  "
      f"vs diagonal {op.cd_kernel(t, n, 0.3, 0.3):.12f}")

print("\n=== global density convergence, V = x^2/2, N = n ===")
mu = eq.solve_equilibrium(Potential((0.0, 0.0, 0.5)))
xs = np.linspace(-1.8, 1.8, 41)
rows = {}
for n in (32, 64, 128):
    tn = op.recurrence_table(op.WeightSpec(Potential((0.0, 0.0, 0.5)), N=n), n)
    diag = op.cd_kernel_grid(tn, n, xs, xs).diagonal() / n
    rows[n] = np.abs(diag - eq.density(mu, xs)).max()
    print(f"  n = {n:3d}: sup |K_n(x,x)/n - rho(x)| = {rows[n]:.5f}")
print(f"  ratio 128/64: {rows[128] / rows[64]:.3f} (the O(1/n) rate)")
