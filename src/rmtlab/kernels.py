"""Universal limiting kernels of random matrix theory.

Scalar kernels (sine, Airy, hard-edge Bessel, origin Bessel, Pearcey) and
the 2x2 matrix kernels of the orthogonal (beta = 1) and symplectic
(beta = 4) symmetry classes, together with the determinant / Pfaffian
correlation assembly that turns kernel values into k-point correlation
numbers.

Conventions: sgn(0) = 0 throughout; diagonal values come from explicit
confluent (L'Hopital) formulas rather than small-offset evaluation, since
the raw quotients cancel catastrophically near x = y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import gauss_legendre_panels
from .specfun import airy, airy_real, airy_tail, bessel_j, sinc_integral

__all__ = [
    "KernelHandle",
    "sine_kernel",
    "sine_kernel_dx",
    "airy_kernel",
    "airy_kernel_dy",
    "bessel_hard_kernel",
    "bessel_origin_kernel",
    "pearcey_kernel",
    "pearcey_p",
    "pearcey_q",
    "matrix_kernel_bulk",
    "matrix_kernel_edge",
    "correlation_det",
    "correlation_pfaffian",
    "pfaffian",
]

_SCALAR_FAMILIES = ("sine", "airy", "bessel_hard", "bessel_origin", "pearcey")
_MATRIX_FAMILIES = ("sine_beta1", "sine_beta4", "airy_beta1", "airy_beta4")


# ---------------------------------------------------------------------------
# scalar kernels

def sine_kernel(x: float, y: float) -> float:
    """sin(pi(x-y)) / (pi(x-y)) with Taylor handling of the diagonal."""
    d = x - y
    if abs(d) < 1e-8:
        w = math.pi * d
        return 1.0 - w * w / 6.0 + w ** 4 / 120.0
    return math.sin(math.pi * d) / (math.pi * d)


def sine_kernel_dx(x: float, y: float) -> float:
    """d/dx of the sine kernel; odd in (x-y), 0 on the diagonal."""
    d = x - y
    if abs(d) < 1e-4:
        w2 = (math.pi * d) ** 2
        return math.pi * math.pi * d * (-1.0 / 3.0 + w2 / 30.0 - w2 * w2 / 840.0)
    return (math.pi * d * math.cos(math.pi * d) - math.sin(math.pi * d)) / (math.pi * d * d)


def _airy_pair(x):
    v = airy(float(x))
    return v.value, v.derivative


def airy_kernel(x: float, y: float) -> float:
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y); diagonal Ai'(x)^2 - x Ai(x)^2."""
    if abs(x - y) < 1e-6 * (1.0 + abs(x) + abs(y)):
        m = 0.5 * (x + y)
        a, ap = _airy_pair(m)
        return ap * ap - m * a * a
    ax, apx = _airy_pair(x)
    ay, apy = _airy_pair(y)
    return (ax * apy - apx * ay) / (x - y)


def airy_kernel_dy(x: float, y: float) -> float:
    """partial_y of the Airy kernel.

    Away from the diagonal, differentiate the quotient using Ai''(y)=yAi(y).
    Near the diagonal use the confluent numerator expansion: with h = y - x
    the kernel equals -(c0 + c1 h + c2 h^2 + ...) where
    c_k = (Ai(x) Ai^{(k+1)}(x) - Ai'(x) Ai^{(k)}(x)) / (k+1)!.
    """
    h = y - x
    if abs(h) < 1e-4 * (1.0 + abs(x) + abs(y)):
        a, ap = _airy_pair(x)
        a2 = x * a
        a3 = a + x * ap
        a4 = 2.0 * ap + x * x * a
        a5 = 4.0 * x * a + x * x * ap
        c1 = (a * a3 - ap * a2) / 2.0
        c2 = (a * a4 - ap * a3) / 6.0
        c3 = (a * a5 - ap * a4) / 24.0
        return -(c1 + 2.0 * c2 * h + 3.0 * c3 * h * h)
    ax, apx = _airy_pair(x)
    ay, apy = _airy_pair(y)
    k = (ax * apy - apx * ay) / (x - y)
    return (ax * y * ay - apx * apy) / (x - y) + k / (x - y)


def bessel_hard_kernel(alpha: float, x: float, y: float) -> float:
    """Hard-edge Bessel kernel of order alpha > -1 for x, y > 0:

        [J_a(sqrt x) sqrt(y) J_a'(sqrt y) - sqrt(x) J_a'(sqrt x) J_a(sqrt y)]
        / (2 (x - y))
    """
    if alpha <= -1.0:
        raise ValueError("bessel_hard_kernel: order must exceed -1")
    if x <= 0.0 or y <= 0.0:
        raise ValueError("bessel_hard_kernel: arguments must be positive")
    if abs(x - y) < 1e-5 * (1.0 + x):
        m = 0.5 * (x + y)
        u = math.sqrt(m)
        f = bessel_j(alpha, u)
        return 0.25 * ((1.0 - alpha * alpha / m) * f.value ** 2 + f.derivative ** 2)
    u, v = math.sqrt(x), math.sqrt(y)
    fu = bessel_j(alpha, u)
    fv = bessel_j(alpha, v)
    return (fu.value * v * fv.derivative - u * fu.derivative * fv.value) / (2.0 * (x - y))


def bessel_origin_kernel(alpha: float, x: float, y: float) -> float:
    """Origin Bessel kernel of a spectral singularity of strength alpha > -1/2:

        pi sqrt(xy) [J_{a+1/2}(pi x) J_{a-1/2}(pi y)
                     - J_{a-1/2}(pi x) J_{a+1/2}(pi y)] / (2 (x - y))

    Reduces identically to the sine kernel at alpha = 0.
    """
    if alpha <= -0.5:
        raise ValueError("bessel_origin_kernel: order must exceed -1/2")
    if x <= 0.0 or y <= 0.0:
        raise ValueError("bessel_origin_kernel: arguments must be positive")
    p, m = alpha + 0.5, alpha - 0.5
    if abs(x - y) < 1e-5 * (1.0 + x):
        c = 0.5 * (x + y)
        fp = bessel_j(p, math.pi * c)
        fm = bessel_j(m, math.pi * c)
        return (math.pi ** 2 * c / 2.0) * (fm.value * fp.derivative - fp.value * fm.derivative)
    fpx = bessel_j(p, math.pi * x).value
    fmx = bessel_j(m, math.pi * x).value
    fpy = bessel_j(p, math.pi * y).value
    fmy = bessel_j(m, math.pi * y).value
    return math.pi * math.sqrt(x * y) * (fpx * fmy - fmx * fpy) / (2.0 * (x - y))


# ---------------------------------------------------------------------------
# Pearcey kernel from its integrable form

_GLP_ORDER = 20


def _panel_nodes(lo, hi, panels):
    t, w = gauss_legendre_panels(lo, hi, panels, _GLP_ORDER)
    return t.ravel(), w.ravel()


def _xi_contour(delta, tmax, panels):
    """The bent X contour: two V-shaped halves with vertices at +-delta.

    Ray orientations: incoming from inf e^{i pi/4} and inf e^{-3i pi/4}
    toward the vertices, outgoing to inf e^{-i pi/4} and inf e^{3i pi/4}.
    Moving the vertices off the origin keeps the eta contour (the imaginary
    axis) a positive distance from the 1/(eta - xi) pole; the deformation
    crosses no poles, so the integral is unchanged.
    """
    t, w = _panel_nodes(0.0, tmax, panels)
    e_p = np.exp(1j * np.pi / 4.0)
    e_m = np.exp(-1j * np.pi / 4.0)
    xs = [delta + t * e_p, delta + t * e_m, -delta - t * e_p, -delta - t * e_m]
    ws = [-w * e_p, w * e_m, w * e_p, -w * e_m]
    return np.concatenate(xs), np.concatenate(ws)


def _eta_axis(tmax, panels):
    """Nodes and weights (d eta = i du) on the imaginary axis |eta| <= tmax."""
    u, wu = _panel_nodes(-tmax, tmax, panels)
    return 1j * u, 1j * wu


def _pearcey_raw(x, y, s, delta, tmax, xi_panels, eta_panels):
    xi, wxi = _xi_contour(delta, tmax, xi_panels)
    u, wu = _panel_nodes(-tmax, tmax, eta_panels)
    eta = 1j * u
    f_xi = np.exp(0.25 * xi ** 4 - 0.5 * s * xi ** 2 + xi * x) * wxi
    f_eta = np.exp(-0.25 * eta ** 4 + 0.5 * s * eta ** 2 - eta * y) * (1j * wu)
    val = 0.0 + 0.0j
    step = max(1, 4_000_000 // len(eta))
    for lo in range(0, len(xi), step):
        block = 1.0 / (eta[None, :] - xi[lo:lo + step, None])
        val += f_xi[lo:lo + step] @ block @ f_eta
    return val / (2.0j * np.pi) ** 2


def _p_moments(x, s, xi, wxi, kmax):
    """(1/2 pi i) Int xi^k e^{xi^4/4 - s xi^2/2 + x xi} d xi, k = 0..kmax;
    the k-th moment is p^(k)(x)."""
    f = np.exp(0.25 * xi ** 4 - 0.5 * s * xi ** 2 + xi * x) * wxi
    return np.vander(xi, kmax + 1, increasing=True).T @ f / (2j * np.pi)


def _q_moments(y, s, eta, weta, kmax):
    """(1/2 pi i) Int eta^k e^{-eta^4/4 + s eta^2/2 - y eta} d eta,
    k = 0..kmax; the k-th moment is (-1)^k q^(k)(y)."""
    f = np.exp(-0.25 * eta ** 4 + 0.5 * s * eta ** 2 - eta * y) * weta
    return np.vander(eta, kmax + 1, increasing=True).T @ f / (2j * np.pi)


def _pearcey_integrable(x, y, s, xi_contour, eta_axis):
    """[p''(x) q(y) - p'(x) q'(y) + p(x) q''(y) - s p(x) q(y)] / (x - y).

    The numerator N(x, y) vanishes at x = y, and d^k N / dx^k is the same
    expression with p shifted k derivatives up.  Within the diagonal band
    the kernel is the Taylor form N_x(y, y) + (x - y) N_xx(y, y) / 2, whose
    first term is the confluent p''' q - p'' q' + p' q'' - s p' q.
    """
    near = abs(x - y) < 1e-6 * (1.0 + abs(x) + abs(y))
    p = _p_moments(y if near else x, s, *xi_contour, 4)
    q = _q_moments(y, s, *eta_axis, 2) * np.array([1.0, -1.0, 1.0])

    def numerator(k):
        return p[k + 2] * q[0] - p[k + 1] * q[1] + p[k] * q[2] - s * p[k] * q[0]

    if near:
        return numerator(1) + 0.5 * (x - y) * numerator(2)
    return numerator(0) / (x - y)


def pearcey_kernel(x: float, y: float, s: float) -> float:
    """Pearcey kernel from its integrable form (Tracy-Widom, CMP 263, 2006):

        K(x, y) = [p''(x) q(y) - p'(x) q'(y) + p(x) q''(y) - s p(x) q(y)]
                  / (x - y)

    with p, q the single contour integrals of pearcey_p and pearcey_q and
    their derivatives taken as quadrature moments; the diagonal uses the
    confluent form p''' q - p'' q' + p' q'' - s p' q.  The xi contour is
    the X of rays at +-pi/4 with vertices at +-d, d = max(0.75, sqrt(s))
    (the steepest-descent crossing of the quadratic term for s > 0), and
    at +-0.6 d for the second discretization, whose truncation and panel
    counts differ too.  The two must agree to 1e-7, and the value must be
    real to 1e-7, else ArithmeticError is raised; large |x|, |y| or s << 0
    amplify the cancellation in p and q past double precision and end up
    there.  Agrees with the double contour integral _pearcey_raw to 1e-9
    on [-2, 2]^2 for s in {-1, 0, 1, 3} (tests/test_kernels.py).
    """
    if abs(x) > 20.0 or abs(y) > 20.0:
        raise ValueError("pearcey_kernel: |x|, |y| must not exceed 20")
    if abs(s) > 10.0:
        raise ValueError("pearcey_kernel: |s| must not exceed 10")
    d0 = max(0.75, math.sqrt(max(s, 0.0)))
    a = _pearcey_integrable(x, y, s, _xi_contour(d0, 12.0, 60), _eta_axis(12.0, 120))
    b = _pearcey_integrable(x, y, s, _xi_contour(0.6 * d0, 13.0, 73), _eta_axis(13.0, 149))
    if abs(a - b) > 1e-7 * max(1.0, abs(a)):
        raise ArithmeticError(
            f"pearcey_kernel: contour discretizations disagree by {abs(a - b):.2e}"
        )
    if abs(a.imag) > 1e-7 * max(1.0, abs(a.real)):
        raise ArithmeticError("pearcey_kernel: non-real kernel value")
    return float(a.real)


def pearcey_p(x: float, s: float, moment: int = 0) -> complex:
    """xi-factor of the Pearcey integrand:
    p(x) = (1/2 pi i) Int_C e^{xi^4/4 - s xi^2/2 + xi x} dxi,
    with xi^moment inserted (moment = k gives the k-th derivative of p)."""
    return complex(_p_moments(x, s, *_xi_contour(1.0, 12.0, 60), moment)[moment])


def pearcey_q(y: float, s: float, moment: int = 0) -> complex:
    """eta-factor: q(y) = (1/2 pi i) Int_{-i inf}^{i inf}
    e^{-eta^4/4 + s eta^2/2 - eta y} d eta, with eta^moment inserted."""
    return complex(_q_moments(y, s, *_eta_axis(12.0, 120), moment)[moment])


# ---------------------------------------------------------------------------
# 2x2 matrix kernels (orthogonal / symplectic classes)

def _sgn(t: float) -> float:
    return 0.0 if t == 0.0 else math.copysign(1.0, t)


def matrix_kernel_bulk(beta: int, x: float, y: float) -> np.ndarray:
    """Bulk 2x2 matrix kernel; beta = 1 (orthogonal) or 4 (symplectic).

    Entries are built from the sine kernel, its x-derivative, the sine
    integral and sgn with sgn(0) = 0; the beta = 4 entries carry doubled
    frequency and no sgn term.
    """
    d = x - y
    if beta == 1:
        k11 = -sine_kernel_dx(x, y)
        k12 = sine_kernel(x, y)
        k22 = sinc_integral(d) - 0.5 * _sgn(d)
        return np.array([[k11, k12], [-k12, k22]])
    if beta == 4:
        k11 = -2.0 * sine_kernel_dx(2.0 * x, 2.0 * y)
        k12 = sine_kernel(2.0 * x, 2.0 * y)
        k22 = 0.5 * sinc_integral(2.0 * d)
        return np.array([[k11, k12], [-k12, k22]])
    raise ValueError("matrix_kernel_bulk: beta must be 1 or 4")


def _airy_kernel_column(t, y):
    """K_Ai(t, y) for an array t and a scalar y.  Entries in the diagonal
    band of airy_kernel take its confluent value at the pair midpoint."""
    at, apt = airy_real(t)
    ay, apy = airy_real(y)
    d = t - y
    near = np.abs(d) < 1e-6 * (1.0 + np.abs(t) + abs(y))
    out = (at * apy - apt * ay) / np.where(near, 1.0, d)
    if near.any():
        m = 0.5 * (t[near] + y)
        am, apm = airy_real(m)
        out[near] = apm * apm - m * am * am
    return out


def _airy_kernel_tail_integral(x: float, y: float) -> float:
    """integral_x^inf K_Ai(t, y) dt as one composite Gauss-Legendre
    quadrature on [x, max(x, 12) + 2] with panels of width at most 1/2;
    beyond the cut the integrand is below 1e-15."""
    hi = max(x, 12.0) + 2.0
    t, w = gauss_legendre_panels(x, hi, math.ceil(2.0 * (hi - x)), _GLP_ORDER)
    return float(_airy_kernel_column(t.ravel(), y) @ w.ravel())


def matrix_kernel_edge(beta: int, x: float, y: float) -> np.ndarray:
    """Soft-edge 2x2 matrix kernel; beta = 1 (orthogonal) or 4 (symplectic).

    Built from the scalar Airy kernel, its y-derivative, Ai, the Airy tail
    integrals, and integral_x^inf K_Ai(., y).

    The lower-left entry is -K12 with the arguments swapped,
    K21(x, y) = -K12(y, x); unlike in the bulk (where K12 is even in x - y
    and the swap is invisible) this is what makes the assembled 2k x 2k
    block matrix exactly skew-symmetric, as the Pfaffian requires.
    """
    if x < -30.0 or y < -30.0:
        raise ValueError("matrix_kernel_edge: arguments must be >= -30")
    ax = airy(float(x)).value
    ay = airy(float(y)).value
    tx = airy_tail(x)
    ty = airy_tail(y)
    kxy = airy_kernel(x, y)
    dky = airy_kernel_dy(x, y)
    kint = _airy_kernel_tail_integral(x, y)
    if beta == 1:
        k11 = dky + 0.5 * ax * ay
        k12 = kxy + 0.5 * ax * (1.0 - ty)
        k21 = -(kxy + 0.5 * ay * (1.0 - tx))
        # int_x^y Ai = airy_tail(x) - airy_tail(y)
        k22 = -kint - 0.5 * (tx - ty) + 0.5 * tx * ty - 0.5 * _sgn(x - y)
        return np.array([[k11, k12], [k21, k22]])
    if beta == 4:
        k11 = 0.5 * dky + 0.25 * ax * ay
        k12 = 0.5 * kxy - 0.25 * ax * ty
        k21 = -(0.5 * kxy - 0.25 * ay * tx)
        k22 = -0.5 * kint + 0.25 * tx * ty
        return np.array([[k11, k12], [k21, k22]])
    raise ValueError("matrix_kernel_edge: beta must be 1 or 4")


# ---------------------------------------------------------------------------
# kernel handles and correlation assembly

@dataclass(frozen=True)
class KernelHandle:
    """A named universal kernel with its parameters.

    family: one of sine, airy, bessel_hard, bessel_origin, pearcey (scalar)
    or sine_beta1, sine_beta4, airy_beta1, airy_beta4 (2x2 matrix).
    """

    family: str
    alpha: Optional[float] = None
    s: Optional[float] = None

    def __post_init__(self):
        if self.family not in _SCALAR_FAMILIES + _MATRIX_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "bessel_hard" and (self.alpha is None or self.alpha <= -1.0):
            raise ValueError("bessel_hard requires alpha > -1")
        if self.family == "bessel_origin" and (self.alpha is None or self.alpha <= -0.5):
            raise ValueError("bessel_origin requires alpha > -1/2")
        if self.family == "pearcey" and self.s is None:
            raise ValueError("pearcey requires the parameter s")
        if self.family not in ("bessel_hard", "bessel_origin") and self.alpha is not None:
            raise ValueError(f"{self.family} takes no alpha parameter")
        if self.family != "pearcey" and self.s is not None:
            raise ValueError(f"{self.family} takes no s parameter")

    @property
    def arity(self) -> str:
        return "scalar" if self.family in _SCALAR_FAMILIES else "matrix2x2"

    def evaluate(self, x: float, y: float):
        f = self.family
        if f == "sine":
            return sine_kernel(x, y)
        if f == "airy":
            return airy_kernel(x, y)
        if f == "bessel_hard":
            return bessel_hard_kernel(self.alpha, x, y)
        if f == "bessel_origin":
            return bessel_origin_kernel(self.alpha, x, y)
        if f == "pearcey":
            return pearcey_kernel(x, y, self.s)
        if f == "sine_beta1":
            return matrix_kernel_bulk(1, x, y)
        if f == "sine_beta4":
            return matrix_kernel_bulk(4, x, y)
        if f == "airy_beta1":
            return matrix_kernel_edge(1, x, y)
        return matrix_kernel_edge(4, x, y)


def correlation_det(kernel, points) -> float:
    """k-point correlation det[K(x_i, x_j)] for a scalar kernel.

    kernel may be a KernelHandle of scalar arity or a plain callable.
    Determinant by LU with partial pivoting.
    """
    if isinstance(kernel, KernelHandle):
        if kernel.arity != "scalar":
            raise ValueError("correlation_det needs a scalar kernel")
        f = kernel.evaluate
    else:
        f = kernel
    pts = list(points)
    if not 1 <= len(pts) <= 12:
        raise ValueError("correlation_det supports 1 <= k <= 12 points")
    mat = np.array([[f(a, b) for b in pts] for a in pts])
    return float(np.linalg.det(mat))


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Recursive cofactor expansion up to 8x8; Householder skew
    tridiagonalization above (the Pfaffian of the tridiagonal form is the
    product of its odd superdiagonal entries, and each reflector
    contributes det = -1).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n) or n % 2:
        raise ValueError("pfaffian needs an even-dimensional square matrix")
    if n == 0:
        return 1.0
    if n <= 8:
        return _pfaffian_expand(a)
    t = a.copy()
    sign = 1.0
    for k in range(n - 2):
        col = t[k + 1:, k].copy()
        norm = float(np.linalg.norm(col))
        if norm < 1e-300:
            continue
        v = col
        v[0] += math.copysign(norm, col[0] if col[0] != 0 else 1.0)
        vn = float(np.linalg.norm(v))
        if vn < 1e-300:
            continue
        v = v / vn
        t[k + 1:, :] -= 2.0 * np.outer(v, v @ t[k + 1:, :])
        t[:, k + 1:] -= 2.0 * np.outer(t[:, k + 1:] @ v, v)
        sign = -sign
    pf = sign
    for i in range(0, n - 1, 2):
        pf *= t[i, i + 1]
    return float(pf)


def _pfaffian_expand(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    idx = np.arange(n)
    for j in range(1, n):
        if a[0, j] == 0.0:
            continue
        keep = idx[(idx != 0) & (idx != j)]
        total += (-1.0) ** (j - 1) * a[0, j] * _pfaffian_expand(a[np.ix_(keep, keep)])
    return total


def correlation_pfaffian(kernel, points) -> float:
    """k-point correlation Pf[K(x_i, x_j)] for a 2x2 matrix kernel.

    Assembles the 2k x 2k block matrix, verifies skew-symmetry to 1e-8
    (relative to the largest entry) and returns its Pfaffian; Pf^2 = det.
    """
    if isinstance(kernel, KernelHandle):
        if kernel.arity != "matrix2x2":
            raise ValueError("correlation_pfaffian needs a 2x2 matrix kernel")
        f = kernel.evaluate
    else:
        f = kernel
    pts = list(points)
    k = len(pts)
    if not 1 <= k <= 8:
        raise ValueError("correlation_pfaffian supports 1 <= k <= 8 points")
    a = np.zeros((2 * k, 2 * k))
    for i in range(k):
        for j in range(i, k):
            blk = np.asarray(f(pts[i], pts[j]), dtype=float)
            a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
            if j > i:
                a[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -blk.T
    scale = 1.0 + float(np.abs(a).max())
    skew_defect = float(np.abs(a + a.T).max())
    if skew_defect > 1e-8 * scale:
        raise ValueError(
            f"correlation_pfaffian: assembled matrix not skew-symmetric "
            f"(defect {skew_defect:.2e})"
        )
    return pfaffian(a)
