"""Equilibrium measures for polynomial external fields.

Solves the weighted logarithmic-energy minimization for the quadratic
(semicircle), critical quartic, hard-edge linear (Marchenko-Pastur) and a
regular quartic potential; checks the Euler-Lagrange conditions; shows the
singular-point classifier and the brute-force grid oracle.
"""

import numpy as np

from rmtlab import equilibrium as eq
from rmtlab.equilibrium import Potential

cases = [
    ("V = x^2/2 (semicircle)", Potential((0.0, 0.0, 0.5))),
    ("V = x^4/4 - x^2 (critical quartic)", Potential((0.0, 0.0, -1.0, 0.0, 0.25))),
    ("V = x^4/12 + x^2/2 (regular quartic)", Potential((0.0, 0.0, 0.5, 0.0, 1.0 / 12))),
    ("V = x on [0, inf) (Marchenko-Pastur)", Potential((0.0, 1.0), hard_edge=True)),
]

for name, pot in cases:
    mu = eq.solve_equilibrium(pot)
    a, b = mu.support
    print(f"--- {name}")
    print(f"    support [{a:+.12f}, {b:+.12f}]   ell = {mu.ell:+.10f}"
          f"   ({mu.solver}, Newton steps: {mu.iterations})")
    print(f"    h coefficients: {np.array_str(mu.h, precision=10)}")
    mid = 0.5 * (a + b) + 0.1 * (b - a)
    print(f"    effective potential inside: {eq.effective_potential(mu, mid):+.2e}"
          f"   outside: {eq.effective_potential(mu, b + 0.5 * (b - a)):+.4f}")
    cls = eq.classify(mu)
    print(f"    singular points: {cls if cls else 'none (regular one-cut)'}")

print("\n--- density profiles at selected points")
mu_semi = eq.solve_equilibrium(Potential((0.0, 0.0, 0.5)))
mu_crit = eq.solve_equilibrium(Potential((0.0, 0.0, -1.0, 0.0, 0.25)))
for x in (0.0, 0.5, 1.0, 1.5, 1.95):
    print(f"    x = {x:4}: semicircle {eq.density(mu_semi, x):.6f}"
          f"   critical quartic {eq.density(mu_crit, x):.6f}")
print("    (the critical density vanishes quadratically at 0)")

print("\n--- two-cut potentials are rejected, also just past criticality")
for c2 in (-2.0, -1.001):
    try:
        eq.solve_equilibrium(Potential((0.0, 0.0, c2, 0.0, 0.25)))
    except eq.MultiCutError as exc:
        print(f"    V = x^4/4 {c2:+g} x^2: MultiCutError: {exc}")

print("\n--- brute-force grid oracle vs the endpoint solver (semicircle)")
g = eq.grid_energy_minimize(Potential((0.0, 0.0, 0.5)), 600, box=(-3.0, 3.0),
                            strict=False)
err = np.abs(g.density - eq.density(mu_semi, g.x))
print(f"    sup distance {err.max():.2e} on {len(g.x)} grid cells "
      f"({g.iterations} projected-descent iterations, energy monotone: "
      f"{bool(np.all(np.diff(g.energy_path) <= 1e-13))})")
