"""Monte Carlo ensembles against the analytic predictions.

Samples GOE/GUE/GSE spectra (tridiagonal beta-Hermite model) and
Metropolis draws from an invariant density, then compares: histogram vs
equilibrium density, unfolded spacings vs the beta-repulsion picture, and
a Poisson null model.
"""

import math

import numpy as np

from rmtlab import equilibrium as eq
from rmtlab import mc
from rmtlab.equilibrium import Potential

HERMITE = Potential((0.0, 0.0, 0.5))
mu = eq.solve_equilibrium(HERMITE)

print("=== GUE, n = 128, 500 draws ===")
gue = mc.sample_gaussian(2, 128, 500, seed=42)
h = mc.empirical_density(gue, 25, (-2.125, 2.125))
sup, l1 = mc.compare_to_kernel(h, eq.density(mu, h.centers))
print(f"histogram vs semicircle: sup {sup:.4f}, L1 {l1:.4f}")
print("bin profile (x, empirical, semicircle):")
for i in range(0, 25, 6):
    print(f"  {h.centers[i]:+.3f}   {h.density[i]:.4f}   "
          f"{eq.density(mu, h.centers[i]):.4f}")

print("\n=== unfolded spacings in the window [-0.5, 0.5] ===")
win = (0.0, 0.5, 1.0 / math.pi)
for beta in (1, 2, 4):
    b = mc.sample_gaussian(beta, 64, 400, seed=11)
    s = mc.local_statistics(b, win)
    print(f"beta = {beta}: mean spacing {s.mean():.4f}, "
          f"fraction below 0.2: {(s < 0.2).mean():.4f}")
print("(repulsion strengthens with beta)")

s2 = mc.local_statistics(gue, win)
pois = mc.poisson_contrast(gue, win)
print(f"\nGUE fraction of spacings < 0.05:     {(s2 < 0.05).mean():.5f}")
print(f"Poisson null fraction of spacings < 0.05: {(pois < 0.05).mean():.5f}")

print("\n=== Metropolis sampling of the invariant density, n = 32 ===")
b = mc.sample_invariant(HERMITE, 2, 32, 32, count=1600, steps=400, seed=5)
h2 = mc.empirical_density(b, 25, (-2.2, 2.2))
sup2, _ = mc.compare_to_kernel(h2, eq.density(mu, h2.centers))
print(f"{b.count} recorded states; histogram vs semicircle sup {sup2:.4f}")
print(f"per-chain acceptance rates {b.acceptance_rates.min():.3f} to "
      f"{b.acceptance_rates.max():.3f}, proposal widths "
      f"{b.proposal_widths.min():.4f} to {b.proposal_widths.max():.4f}")

print("\n=== reproducibility ===")
again = mc.sample_gaussian(2, 128, 500, seed=42)
print("same seed, byte-identical batch:",
      np.array_equal(gue.eigenvalue_sets, again.eigenvalue_sets))
blob = gue.to_bytes()
print(f"binary record: {len(blob)} bytes; round trip:",
      np.array_equal(mc.SampleBatch.from_bytes(blob).eigenvalue_sets,
                     gue.eigenvalue_sets))
