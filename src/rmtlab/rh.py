"""Steepest-descent objects for the orthogonal-polynomial Riemann-Hilbert
problem in the one-cut regular case (N = n throughout).

Explicitly constructed: the g-function, the phase functions phi (from the
right endpoint) and phi-tilde (from the left), the outer parametrix M, the
Airy model solution A, the conformal map f near the right endpoint, the
analytic prefactor E_n, and the local parametrix P = E_n A(n^{2/3} f)
e^{n phi sigma3}.  From these come the bulk kernel approximation, the edge
kernel expressed through A, and the leading-order recurrence coefficients,
each cross-checkable against the finite-n orthogonal-polynomial kernels.

Branch bookkeeping: beta(z) = ((z-b)/(z-a))^{1/4} uses the principal
fourth root of the ratio (cut exactly on [a, b]); phi is computed through
the substitution s = b + (z-b) t^2, which isolates the (z-b)^{3/2} factor
so that f(z) = (z-b) G(z)^{2/3} needs no cut at all inside the disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import equilibrium as eqm
from .equilibrium import EquilibriumMeasure
from .quadrature import gauss_chebyshev_u
from .specfun import airy

__all__ = [
    "DescentContext",
    "g_function",
    "phi",
    "phi_plus_imag",
    "outer_parametrix",
    "airy_model",
    "AIRY_JUMPS",
    "conformal_f",
    "prefactor_e",
    "local_parametrix",
    "bulk_kernel_approx",
    "edge_kernel_from_A",
    "asymptotic_recurrence",
]

_GL96_T, _GL96_W = np.polynomial.legendre.leggauss(96)
_GC_T, _GC_W = gauss_chebyshev_u(256)


@dataclass
class DescentContext:
    """Measure, degree and geometry for the steepest-descent construction.

    delta is the local-parametrix disk radius; lens_height scales the
    parabolic lens lips (apex at height lens_height (b-a)/2), shrunk
    automatically until Re phi < 0 holds on the lips."""

    measure: EquilibriumMeasure
    n: int
    delta: float = 0.1
    lens_height: float = 0.4

    def __post_init__(self):
        if self.measure.potential.hard_edge:
            raise ValueError("steepest descent requires a soft-edge measure")
        a, b = self.measure.support
        if not 0.0 < self.delta < (b - a) / 4.0:
            raise ValueError("delta must lie in (0, (b-a)/4)")
        for _ in range(30):
            t = np.linspace(-0.98, 0.98, 64)
            c, r = 0.5 * (a + b), 0.5 * (b - a)
            lips = c + r * t + 1j * self.lens_height * r * (1.0 - t * t)
            re = eqm.phi(self.measure, lips).real
            if np.all(re < 0.0):
                break
            self.lens_height *= 0.6
        else:
            raise ValueError("could not open a lens with Re phi < 0 on the lips")

    @property
    def support(self):
        return self.measure.support


def g_function(ctx: DescentContext, z) -> complex:
    """g(z) = Int log(z - x) dmu(x) by Gauss-Chebyshev against the density,
    principal branch; g(z) = log z + O(1/z) at infinity."""
    a, b = ctx.support
    if abs(z.imag) < 1e-10 and z.real <= b + 1e-10:
        raise ValueError("g_function: z too close to the branch cut (-inf, b]")
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    x = c + r * _GC_T
    hv = np.polyval(ctx.measure.h[::-1], x)
    w = (r * r / np.pi) * _GC_W * hv
    return complex(np.sum(w * np.log(z - x)))


def phi(ctx: DescentContext, z, variant: str = "right") -> complex:
    """phi(z) = Int_b^z h(s) ((s-b)(s-a))^{1/2} ds along a straight path
    (right variant), or the mirror-image integral from a (left variant);
    for z on (a, b) this returns the +side boundary value
    (equilibrium.phi)."""
    return complex(eqm.phi(ctx.measure, complex(z), variant))


def phi_plus_imag(ctx: DescentContext, x: float) -> float:
    """F(x) = -Im phi_+(x) = pi mu([x, b]) for x in (a, b); phi_+ = -i F."""
    a, b = ctx.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    tx = min(max((x - c) / r, -1.0), 1.0)
    th_x = math.acos(tx)
    th = 0.5 * th_x * (_GL96_T + 1.0)
    w = 0.5 * th_x * _GL96_W
    hv = np.polyval(ctx.measure.h[::-1], c + r * np.cos(th))
    return float(r * r * np.sum(w * hv * np.sin(th) ** 2))


# ---------------------------------------------------------------------------
# parametrices

def outer_parametrix(ctx: DescentContext, z) -> np.ndarray:
    """Global parametrix M built from beta = ((z-b)/(z-a))^{1/4}."""
    a, b = ctx.support
    z = complex(z)
    if z.imag == 0.0 and a <= z.real <= b:
        raise ValueError("outer parametrix is not defined on the cut [a, b]")
    beta = ((z - b) / (z - a)) ** 0.25
    co = 0.5 * (beta + 1.0 / beta)
    si = (beta - 1.0 / beta) / 2.0j
    return np.array([[co, si], [-si, co]])


AIRY_JUMPS = {
    "0": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "2pi/3": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "-2pi/3": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "pi": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}

_SQ2PI = math.sqrt(2.0 * math.pi)
_W3 = cmath.exp(2j * cmath.pi / 3.0)


def airy_model(z) -> np.ndarray:
    """Solution A of the Airy model Riemann-Hilbert problem on the four
    rays arg z in {0, +-2pi/3, pi}; det A = 1 identically.

    Sector formulas use y0 = Ai(z), y1 = w Ai(w z), y2 = w^2 Ai(w^2 z),
    w = e^{2 pi i/3}.  (In the second sector the lower-left entry is
    +i y1'; the variant with -i y1' fails det A = 1, which pins the sign.)
    """
    z = complex(z)
    th = cmath.phase(z)
    rays = [0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0, math.pi]
    if abs(z) > 0 and abs(z) * min(abs(th - r) for r in rays + [-math.pi]) < 1e-13:
        raise ValueError("airy_model: z on the jump contour")

    def pair(zz):
        v = airy(zz)
        return v.value, v.derivative

    if 0.0 < th < 2.0 * math.pi / 3.0:
        y0, y0p = pair(z)
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[y0, -y2], [-1j * y0p, 1j * y2p]]
    elif 2.0 * math.pi / 3.0 < th <= math.pi:
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[-y1, -y2], [1j * y1p, 1j * y2p]]
    elif -math.pi < th < -2.0 * math.pi / 3.0:
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        a2, a2p = pair(_W3 * _W3 * z)
        y2, y2p = _W3 * _W3 * a2, _W3 * a2p
        m = [[-y2, y1], [1j * y2p, -1j * y1p]]
    else:
        y0, y0p = pair(z)
        a1, a1p = pair(_W3 * z)
        y1, y1p = _W3 * a1, _W3 * _W3 * a1p
        m = [[y0, y1], [-1j * y0p, -1j * y1p]]
    return _SQ2PI * np.array(m)


def conformal_f(ctx: DescentContext, z) -> complex:
    """Conformal map f(z) = [(3/2) phi(z)]^{2/3} near b, real positive for
    z > b; computed as (z - b) G(z)^{2/3} with G analytic and positive at b,
    so no branch cut enters the disk."""
    a, b = ctx.support
    z = complex(z)
    t = 0.5 * (_GL96_T + 1.0)
    w = 0.5 * _GL96_W
    s = b + (z - b) * t * t
    g = 3.0 * np.sum(w * t * t * np.polyval(ctx.measure.h[::-1], s) * np.sqrt(s - a))
    return (z - b) * complex(g) ** (2.0 / 3.0)


def prefactor_e(ctx: DescentContext, z) -> np.ndarray:
    """Analytic prefactor E_n of the local parametrix,

        E_n = (1/sqrt 2) [[u, -i/u], [-i u, 1/u]],
        u = (n^{2/3} f(z))^{1/4} / beta(z);

    the principal-branch jumps of f^{1/4} and beta on (b - delta, b)
    cancel, leaving E_n analytic in the disk (residue-tested)."""
    n = ctx.n
    f = conformal_f(ctx, z)
    a, b = ctx.support
    z = complex(z)
    beta = ((z - b) / (z - a)) ** 0.25
    u = (n ** (2.0 / 3.0) * f) ** 0.25 / beta
    rt = 1.0 / math.sqrt(2.0)
    return rt * np.array([[u, -1j / u], [-1j * u, 1.0 / u]])


def local_parametrix(ctx: DescentContext, z) -> np.ndarray:
    """P(z) = E_n(z) A(n^{2/3} f(z)) diag(e^{n phi}, e^{-n phi}) in the
    right-endpoint disk."""
    a, b = ctx.support
    z = complex(z)
    if abs(z - b) >= ctx.delta + 1e-12:
        raise ValueError("local parametrix only defined for |z - b| < delta")
    if abs(z.imag) < 1e-12 * (1.0 + abs(z.real)):
        # effectively on the axis: take the boundary value, from above when
        # the tiny imaginary part does not indicate a side
        side = -1.0 if z.imag < 0.0 else 1.0
        z = complex(z.real, side * 1e-10 * (1.0 + abs(z.real)))
    n = ctx.n
    ph = phi(ctx, z)
    am = airy_model(n ** (2.0 / 3.0) * conformal_f(ctx, z))
    e = prefactor_e(ctx, z)
    expo = np.array([[cmath.exp(n * ph), 0.0], [0.0, cmath.exp(-n * ph)]])
    return e @ am @ expo


# ---------------------------------------------------------------------------
# kernels and recurrence asymptotics

def bulk_kernel_approx(ctx: DescentContext, x: float, y: float) -> float:
    """Leading bulk approximation sin(n [F(x) - F(y)]) / (pi (x - y)) with
    F(x) = pi mu([x, b]); diagonal limit n rho(x)."""
    a, b = ctx.support
    if not (a < x < b and a < y < b):
        raise ValueError("bulk kernel approximation needs x, y inside (a, b)")
    if abs(x - y) < 1e-9 * (1.0 + abs(x)):
        return ctx.n * float(eqm.density(ctx.measure, 0.5 * (x + y)))
    fx = phi_plus_imag(ctx, x)
    fy = phi_plus_imag(ctx, y)
    return math.sin(ctx.n * (fy - fx)) / (math.pi * (x - y))


def edge_kernel_from_A(x: float, y: float) -> float:
    """The Airy kernel assembled from the model solution A:

        (row_y) A_+^{-1}(y) A_+(x) (col_x) / (2 pi i (x - y))

    with row (0, 1) for y > 0 and (-1, 1) for y < 0, column (1, 0)^T for
    x > 0 and (1, 1)^T for x < 0; A_+ is the boundary value from the upper
    half plane."""
    if x == y:
        raise ValueError("edge kernel from A needs x != y")

    def a_plus(t):
        eps = 1e-9 * (1.0 + abs(t))
        return airy_model(complex(t, eps))

    ax = a_plus(x)
    ay = a_plus(y)
    ay_inv = np.array([[ay[1, 1], -ay[0, 1]], [-ay[1, 0], ay[0, 0]]])  # det = 1
    row = np.array([0.0, 1.0]) if y > 0 else np.array([-1.0, 1.0])
    col = np.array([1.0, 0.0]) if x > 0 else np.array([1.0, 1.0])
    val = row @ ay_inv @ ax @ col / (2.0j * math.pi * (x - y))
    if abs(val.imag) > 1e-8 * (1.0 + abs(val.real)):
        raise ArithmeticError("edge kernel from A: non-real value")
    return float(val.real)


def asymptotic_recurrence(ctx: DescentContext):
    """Leading-order recurrence coefficients from the expansion of the
    outer parametrix at infinity, M(z) = I + M1/z + M2/z^2 + ...:

        a_inf = (M1)_12 (M1)_21,   b_inf = (M2)_12/(M1)_12 - (M1)_22.

    Extracted by a least-squares fit of M - I in powers of 1/z on a large
    circle; equals ((b-a)/4)^2 and (a+b)/2."""
    radius = 1e3 * (1.0 + abs(ctx.support[0]) + abs(ctx.support[1]))
    thetas = np.linspace(0.1, 2.0 * math.pi - 0.1, 24)
    zs = radius * np.exp(1j * thetas)
    rows = np.stack([1.0 / zs, 1.0 / zs ** 2, 1.0 / zs ** 3], axis=1)
    m1 = np.zeros((2, 2), dtype=complex)
    m2 = np.zeros((2, 2), dtype=complex)
    vals = np.stack([outer_parametrix(ctx, z) - np.eye(2) for z in zs])
    for i in range(2):
        for j in range(2):
            coef, *_ = np.linalg.lstsq(rows, vals[:, i, j], rcond=None)
            m1[i, j], m2[i, j] = coef[0], coef[1]
    a_inf = (m1[0, 1] * m1[1, 0]).real
    b_inf = (m2[0, 1] / m1[0, 1] - m1[1, 1]).real
    return float(a_inf), float(b_inf)
