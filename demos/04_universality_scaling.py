"""Universality scaling limits at desk scale.

Centers and rescales the finite-n Christoffel-Darboux kernels at a bulk
point, a soft edge, a hard edge, and a spectral singularity, and tabulates
the sup distance to the corresponding universal kernel as n grows.
"""

import numpy as np

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import orthopoly as op
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))
mu = eq.solve_equilibrium(HERMITE)

print("=== bulk: (1/cn) K_n(u/cn, v/cn) -> sine kernel, c = rho(0) = 1/pi ===")
grid = np.linspace(-2.0, 2.0, 33)
ref = kr.sine_kernel(grid[:, None], grid[None, :])
for n in (16, 32, 64, 128):
    t = op.recurrence_table(op.WeightSpec(HERMITE, N=n), n)
    win = op.bulk_window(mu, 0.0, grid)
    sup = np.abs(op.rescaled_kernel(t, n, win) - ref).max()
    print(f"  n = {n:3d}: sup error {sup:.5f}")

print("\n=== soft edge: scale n^(2/3) at x* = 2 -> Airy kernel ===")
grid = np.linspace(-4.0, 4.0, 25)
ref = kr.airy_kernel(grid[:, None], grid[None, :])
for n in (32, 64, 128):
    t = op.recurrence_table(op.WeightSpec(HERMITE, N=n), n)
    win = op.soft_edge_window(mu, grid)
    sup = np.abs(op.rescaled_kernel(t, n, win) - ref).max()
    print(f"  n = {n:3d}: sup error {sup:.5f}")

print("\n=== hard edge: Laguerre x^a e^(-nx), scale (2n)^2 -> Bessel kernel ===")
grid = np.linspace(0.4, 8.0, 16)
for alpha in (0.0, 1.0):
    pot = Potential((0.0, 1.0), hard_edge=True, singularity_alpha=alpha)
    muh = eq.solve_equilibrium(pot)
    ref = kr.bessel_hard_kernel(alpha, grid[:, None], grid[None, :])
    for n in (64, 128):
        t = op.recurrence_table(op.WeightSpec(pot, N=n), n)
        win = op.hard_edge_window(muh, grid)
        sup = np.abs(op.rescaled_kernel(t, n, win) - ref).max()
        print(f"  alpha = {alpha}, n = {n:3d}: sup error {sup:.2e}")

print("\n=== spectral singularity: |x|^2 e^(-n x^2/2) at the origin ===")
grid = np.linspace(0.15, 3.0, 16)
ref = kr.bessel_origin_kernel(1.0, grid[:, None], grid[None, :])
for n in (32, 64, 128):
    pot = Potential((0.0, 0.0, 0.5), singularity_alpha=1.0)
    t = op.recurrence_table(op.WeightSpec(pot, N=n), n)
    win = op.origin_window(mu, grid)
    sup = np.abs(op.rescaled_kernel(t, n, win) - ref).max()
    print(f"  n = {n:3d}: sup error {sup:.5f}")
print("(the same scaling with alpha = 0 would reproduce the sine kernel exactly)")
