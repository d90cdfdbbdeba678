"""Universal limiting kernels: values, symmetries, correlations.

Walks through the scalar kernel families (sine, Airy, hard-edge Bessel,
origin Bessel, Pearcey), the 2x2 matrix kernels of the orthogonal and
symplectic classes, and the determinant / Pfaffian correlation assembly.
"""

import numpy as np

from rmtlab import kernels as kr
from rmtlab.kernels import KernelHandle

print("=== scalar kernels ===")
print(f"sine    K(0, 1/2)    = {kr.sine_kernel(0.0, 0.5):+.12f}   (2/pi)")
print(f"sine    K(x, x)      = {kr.sine_kernel(0.3, 0.3):+.12f}")
print(f"airy    K(0, 0)      = {kr.airy_kernel(0.0, 0.0):+.12f}   (Ai'(0)^2)")
print(f"airy    K(-2, 1)     = {kr.airy_kernel(-2.0, 1.0):+.12f}")
print(f"bessel  K_0(1, 2.5)  = {kr.bessel_hard_kernel(0.0, 1.0, 2.5):+.12f}")
print(f"bessel  K_4(1, 2.5)  = {kr.bessel_hard_kernel(4.0, 1.0, 2.5):+.12f}"
      "   (larger order, more hard-edge repulsion)")

print("\nthe origin (spectral-singularity) kernel at alpha = 0 is the sine kernel:")
for x, y in [(0.3, 1.1), (0.7, 0.7), (2.0, 0.4)]:
    print(f"  K^hat_0({x}, {y}) - K^sin = "
          f"{kr.bessel_origin_kernel(0.0, x, y) - kr.sine_kernel(x, y):+.2e}")

print("\n=== Pearcey kernel (integrable form from p and q) ===")
for x in (0.0, 2.0, 4.0):
    print(f"  K(x,x;0) at x={x}: {kr.pearcey_kernel(x, x, 0.0):+.8f}")
print("  the diagonal grows like the cusp density ~ |x|^(1/3)")
p0 = kr.pearcey_p(0.7, 0.5, 0)
p1 = kr.pearcey_p(0.7, 0.5, 1)
p3 = kr.pearcey_p(0.7, 0.5, 3)
print(f"  p''' - (s p' - x p) residual: {abs(p3 - (0.5 * p1 - 0.7 * p0)):.2e}")

print("\n=== 2x2 matrix kernels ===")
kb1 = kr.matrix_kernel_bulk(1, 0.2, 1.9)
kb1_sw = kr.matrix_kernel_bulk(1, 1.9, 0.2)
print("beta=1 bulk K(0.2, 1.9):")
print(np.array_str(kb1, precision=6))
print("antisymmetry defect |K(y,x) + K(x,y)^T|:",
      np.abs(kb1_sw + kb1.T).max())

ke4 = kr.matrix_kernel_edge(4, 0.5, -1.0)
print("\nbeta=4 edge K(0.5, -1.0):")
print(np.array_str(ke4, precision=6))

print("\n=== correlation functions ===")
sine = KernelHandle("sine")
print("2-point sine correlations det[K(x_i,x_j)] (eigenvalue repulsion):")
for t in (1.0, 0.5, 0.1, 0.01):
    print(f"  points (0, {t:4}):  R2 = {kr.correlation_det(sine, [0.0, t]):.8f}")

print("\nPfaffian correlations, beta=1 bulk at (0, 0.7):")
h1 = KernelHandle("sine_beta1")
pf = kr.correlation_pfaffian(h1, [0.0, 0.7])
a = np.zeros((4, 4))
for i, x in enumerate([0.0, 0.7]):
    for j, y in enumerate([0.0, 0.7]):
        a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kr.matrix_kernel_bulk(1, x, y)
print(f"  Pf = {pf:.10f},  Pf^2 - det = {pf ** 2 - np.linalg.det(a):+.2e}")
