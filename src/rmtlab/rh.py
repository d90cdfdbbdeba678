"""Steepest-descent objects for the orthogonal-polynomial Riemann-Hilbert
problem in the one-cut regular case (N = n throughout).

Explicitly constructed: the g-function, the phase functions phi (from the
right endpoint) and phi-tilde (from the left), the outer parametrix M, the
Airy model solution A, the conformal map f near the right endpoint, the
analytic prefactor E_n, and the local parametrix P = E_n A(n^{2/3} f)
e^{n phi sigma3}.  From these come the bulk kernel approximation, the edge
kernel expressed through A, and the leading-order recurrence coefficients,
each cross-checkable against the finite-n orthogonal-polynomial kernels;
diagnostics() runs the identity, jump and matching checks of `rmtlab rh`.

Every function broadcasts over its point arguments like a numpy ufunc:
scalar points give a complex, a float or a (2, 2) array, array points the
broadcast shape, with (..., 2, 2) for the matrix functions; a range guard
raises ValueError unless every point is finite and in range.  phi and the
conformal map share the quadrature core of equilibrium.phi; g and
F = pi mu([x, b]) = Im g_+ are exact (equilibrium._log_transform).

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
from .kernels import _args, _blocks
from .specfun import _scalar_or_array, airy

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
    "diagnostics",
]


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
        if self.n < 1:
            raise ValueError("n must be at least 1")
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


def g_function(ctx: DescentContext, z):
    """g(z) = Int log(z - x) dmu(x), principal branch, exact for polynomial h
    (equilibrium._log_transform); g(z) = log z + O(1/z) at infinity."""
    b = ctx.support[1]
    z = np.asarray(z, dtype=complex)
    if not (np.isfinite(z) & ((np.abs(z.imag) >= 1e-10) | (z.real > b + 1e-10))).all():
        raise ValueError("g_function: z must be finite and off the branch cut (-inf, b]")
    return _scalar_or_array(eqm._log_transform(ctx.measure, z))


def phi(ctx: DescentContext, z, variant: str = "right"):
    """phi(z) = Int_b^z h(s) ((s-b)(s-a))^{1/2} ds along a straight path
    (right variant), or the mirror-image integral from a (left variant);
    for z on (a, b) this returns the +side boundary value
    (equilibrium.phi)."""
    return _scalar_or_array(eqm.phi(ctx.measure, z, variant))


def phi_plus_imag(ctx: DescentContext, x):
    """F(x) = -Im phi_+(x) = pi mu([x, b]) for x in (a, b); phi_+ = -i F.

    F = Im g_+(x), exact for polynomial h (equilibrium._log_transform); x
    is clipped to [a, b], so F is pi left of the support and 0 right of it."""
    a, b = ctx.support
    x = np.clip(np.asarray(x, dtype=float), a, b)
    return _scalar_or_array(eqm._log_transform(ctx.measure, x + 0j).imag)


# ---------------------------------------------------------------------------
# parametrices

def _beta(ctx: DescentContext, z):
    a, b = ctx.support
    return ((z - b) / (z - a)) ** 0.25


def outer_parametrix(ctx: DescentContext, z) -> np.ndarray:
    """Global parametrix M built from beta = ((z-b)/(z-a))^{1/4}."""
    a, b = ctx.support
    z = np.asarray(z, dtype=complex)
    if not (np.isfinite(z) & ((z.imag != 0.0) | (z.real < a) | (z.real > b))).all():
        raise ValueError("outer_parametrix: z must be finite and off the cut [a, b]")
    beta = _beta(ctx, z)
    co = 0.5 * (beta + 1.0 / beta)
    si = (beta - 1.0 / beta) / 2.0j
    return _blocks(co, si, -si, co)


AIRY_JUMPS = {
    "0": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "2pi/3": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "-2pi/3": np.array([[1.0, 0.0], [1.0, 1.0]]),
    "pi": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}

_SQ2PI = math.sqrt(2.0 * math.pi)
_W3 = cmath.exp(2j * cmath.pi / 3.0)
_RAYS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0, math.pi, -math.pi])


def airy_model(z) -> np.ndarray:
    """Solution A of the Airy model Riemann-Hilbert problem on the four
    rays arg z in {0, +-2pi/3, pi}; det A = 1 identically.

    Sector formulas use y0 = Ai(z), y1 = w Ai(w z), y2 = w^2 Ai(w^2 z),
    w = e^{2 pi i/3}.  (In the second sector the lower-left entry is
    +i y1'; the variant with -i y1' fails det A = 1, which pins the sign.)
    """
    z = np.asarray(z, dtype=complex)
    th = np.angle(z)
    if not (np.isfinite(z).all() and ((z == 0.0) | (
            np.abs(z) * np.abs(th[..., None] - _RAYS).min(axis=-1) >= 1e-13)).all()):
        raise ValueError("airy_model: z must be finite and off the jump contour")
    # the columns (y_k, -i y_k'), with y_k' = w^{2k} Ai'(w^k z)
    c0, c1, c2 = (np.stack([wk * v.value, -1j * (wk2 * v.derivative)], -1)
                  for wk, wk2, v in ((1.0, 1.0, airy(z)),
                                     (_W3, _W3 * _W3, airy(_W3 * z)),
                                     (_W3 * _W3, _W3, airy(_W3 * _W3 * z))))
    # sectors II (2pi/3, pi], III (-pi, -2pi/3), I (0, 2pi/3); IV otherwise
    sector = [c[..., None, None] for c in (th > 2.0 * math.pi / 3.0,
                                           th < -2.0 * math.pi / 3.0, th > 0.0)]
    cols = [np.stack(pair, -1) for pair in ((-c1, -c2), (-c2, c1), (c0, -c2))]
    return _SQ2PI * np.select(sector, cols, np.stack((c0, c1), -1))


def conformal_f(ctx: DescentContext, z):
    """Conformal map f(z) = [(3/2) phi(z)]^{2/3} near b, real positive for
    z > b; computed as (z - b) (3 core)^{2/3} from the core of
    equilibrium.phi (phi = 2 (z - b)^{3/2} core), which is analytic and
    positive at b, so no branch cut enters the disk."""
    u, core = eqm._phi_core(ctx.measure, z)
    return _scalar_or_array(u * (3.0 * core) ** (2.0 / 3.0))


def prefactor_e(ctx: DescentContext, z) -> np.ndarray:
    """Analytic prefactor E_n of the local parametrix,

        E_n = (1/sqrt 2) [[u, -i/u], [-i u, 1/u]],
        u = (n^{2/3} f(z))^{1/4} / beta(z);

    the principal-branch jumps of f^{1/4} and beta on (b - delta, b)
    cancel, leaving E_n analytic in the disk (residue-tested)."""
    z = np.asarray(z, dtype=complex)
    return _prefactor(ctx, z, ctx.n ** (2.0 / 3.0) * conformal_f(ctx, z))


def _prefactor(ctx: DescentContext, z, zeta):
    """E_n at z from zeta = n^{2/3} f(z)."""
    u = zeta ** 0.25 / _beta(ctx, z)
    return (1.0 / math.sqrt(2.0)) * _blocks(u, -1j / u, -1j * u, 1.0 / u)


def local_parametrix(ctx: DescentContext, z) -> np.ndarray:
    """P(z) = E_n(z) A(zeta) diag(e^{n phi}, e^{-n phi}) in the
    right-endpoint disk, with zeta = n^{2/3} f(z) computed once for A and
    E_n.  A comes before the exponentials, so an argument past airy's range
    raises there before e^{n phi} can overflow."""
    b = ctx.support[1]
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z - b) < ctx.delta + 1e-12).all():
        raise ValueError("local_parametrix: z must satisfy |z - b| < delta")
    z = _off_axis(z)
    n = ctx.n
    ph = eqm.phi(ctx.measure, z)
    zeta = n ** (2.0 / 3.0) * conformal_f(ctx, z)
    am = airy_model(zeta)
    expo = _blocks(np.exp(n * ph), 0.0, 0.0, np.exp(-n * ph))
    return _prefactor(ctx, z, zeta) @ am @ expo


def _off_axis(z):
    """z with the points effectively on the real axis moved 1e-10 (1 + |x|)
    off it, above unless Im z < 0: the boundary value local_parametrix
    takes there."""
    x = z.real
    nudge = np.where(z.imag < 0.0, -1e-10, 1e-10) * (1.0 + np.abs(x))
    return np.where(np.abs(z.imag) < 1e-12 * (1.0 + np.abs(x)), x + 1j * nudge, z)


# ---------------------------------------------------------------------------
# kernels and recurrence asymptotics

def bulk_kernel_approx(ctx: DescentContext, x, y):
    """Leading bulk approximation sin(n [F(x) - F(y)]) / (pi (x - y)) with
    F(x) = pi mu([x, b]); n rho at the midpoint within 1e-9 (1 + |x|) of the
    diagonal (no Cauchy mean: Im g+ in F is not analytic as coded)."""
    a, b = ctx.support
    x, y = _args("bulk_kernel_approx", x, y, "x, y must lie inside (a, b)",
                 math.nextafter(a, b), math.nextafter(b, a))
    n, d = ctx.n, x - y
    near = np.abs(d) < 1e-9 * (1.0 + np.abs(x))
    numerator = np.sin(n * (phi_plus_imag(ctx, y) - phi_plus_imag(ctx, x))) / math.pi
    out = np.asarray(numerator / np.where(near, 1.0, d))
    if near.any():
        out[near] = n * eqm.density(ctx.measure, np.broadcast_to(0.5 * (x + y), near.shape)[near])
    return _scalar_or_array(out)


def edge_kernel_from_A(x, y):
    """The Airy kernel assembled from the model solution A:

        (row_y) A_+^{-1}(y) A_+(x) (col_x) / (2 pi i (x - y))

    with row (0, 1) for y > 0 and (-1, 1) for y < 0, column (1, 0)^T for
    x > 0 and (1, 1)^T for x < 0; A_+ is the boundary value from the upper
    half plane."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x) & np.isfinite(y) & (x != y)).all():
        raise ValueError("edge_kernel_from_A: x, y must be finite with x != y")
    ax, ay = (airy_model(t + 1j * (1e-9 * (1.0 + np.abs(t)))) for t in (x, y))
    inv = _blocks(ay[..., 1, 1], -ay[..., 0, 1], -ay[..., 1, 0], ay[..., 0, 0])  # det = 1
    row = inv[..., 1, :] - (y <= 0.0)[..., None] * inv[..., 0, :]
    col = ax[..., 0] + (x <= 0.0)[..., None] * ax[..., 1]
    val = np.sum(row * col, axis=-1) / (2.0j * math.pi * (x - y))
    if np.any(np.abs(val.imag) > 1e-8 * (1.0 + np.abs(val.real))):
        raise ArithmeticError("edge kernel from A: non-real value")
    return _scalar_or_array(val.real)


def asymptotic_recurrence(ctx: DescentContext):
    """Leading-order recurrence coefficients from the expansion of the
    outer parametrix at infinity, M(z) = I + M1/z + M2/z^2 + ...:

        a_inf = (M1)_12 (M1)_21,   b_inf = (M2)_12/(M1)_12 - (M1)_22;

    equal to ((b-a)/4)^2 and (a+b)/2.  M_k = (1/2 pi i) oint (M - I) z^(k-1) dz
    is the mean of (M - I) z^k over 64 equispaced points of the circle
    |z| = 2 max(|a|, |b|) + 1.  M is analytic for |z| > max(|a|, |b|), less
    than half that radius, so the trapezoidal rule converges like 2^-64
    (Trefethen-Weideman, SIAM Rev. 56, 2014); the rounding error of M2 is
    about eps |z|^2."""
    a, b = ctx.support
    z = (2.0 * max(abs(a), abs(b)) + 1.0) * np.exp(2j * np.pi * np.arange(64) / 64)
    dev = outer_parametrix(ctx, z) - np.eye(2)
    m1, m2 = (np.mean(dev * (z ** k)[:, None, None], axis=0) for k in (1, 2))
    a_inf = (m1[0, 1] * m1[1, 0]).real
    b_inf = (m2[0, 1] / m1[0, 1] - m1[1, 1]).real
    return float(a_inf), float(b_inf)


# ---------------------------------------------------------------------------
# the checks of `rmtlab rh`

def diagnostics(measure: EquilibriumMeasure, ns, delta: float = 0.1):
    """The checks of `rmtlab rh` as (check, param, value) rows:

    det_M_minus_1, det_A_minus_1  |det - 1| of M (first n) and of A
    connection_identity           |y0 + y1 + y2| / max |y_k|
    A_jump_<ray>                  max |A_+ - A_- J| / max(1, max |A_+|),
                                  1e-9 off each ray at radii 0.9 and 2.1
    matching_sup                  sup |P M^{-1} - I| on 32 points of
                                  |z - b| = delta, for each n
    a_inf, b_inf                  asymptotic_recurrence (first n)

    Six random points per point check, from numpy's default_rng(0); param
    is the point, the radius or n.  An n whose local parametrix leaves
    airy's range or overflows it on that circle raises ValueError naming
    --n and --delta."""
    ctxs = [DescentContext(measure, n=n, delta=delta) for n in ns]
    rng = np.random.default_rng(0)
    # (real, imag) pairs read as complex points
    zm = rng.uniform([-4.0, 0.2], [4.0, 3.0], size=(6, 2)).view(complex).ravel()
    za = rng.uniform([-4.0, 0.2], [4.0, 4.0], size=(6, 2)).view(complex).ravel()
    zc = rng.uniform(-6.0, 6.0, size=(6, 2)).view(complex).ravel()
    y = np.stack([wk * airy(wk * zc).value for wk in (1.0, _W3, _W3 * _W3)])
    checks = [("det_M_minus_1", zm, np.abs(np.linalg.det(outer_parametrix(ctxs[0], zm)) - 1.0)),
              ("det_A_minus_1", za, np.abs(np.linalg.det(airy_model(za)) - 1.0)),
              ("connection_identity", zc, np.abs(y.sum(axis=0)) / np.abs(y).max(axis=0))]
    rows = [(check, repr(complex(z)), v) for check, zs, vals in checks for z, v in zip(zs, vals)]

    # the arguments of the + and - sides of each ray, 1e-9 off it
    eps, w, radii = 1e-9, 2.0 * math.pi / 3.0, (0.9, 2.1)
    sides = {"0": (eps, -eps), "2pi/3": (w - eps, w + eps), "-2pi/3": (-w - eps, -w + eps),
             "pi": (math.pi - eps, -(math.pi - eps))}
    ap, am = (airy_model(np.multiply.outer(np.exp(1j * np.array(t)), radii))
              for t in zip(*sides.values()))
    jumps = np.stack([AIRY_JUMPS[name] for name in sides])[:, None]
    resid = np.abs(ap - am @ jumps).max(axis=(-2, -1))
    resid /= np.maximum(1.0, np.abs(ap).max(axis=(-2, -1)))
    rows += [(f"A_jump_{name}", repr(r), v)
             for name, vals in zip(sides, resid) for r, v in zip(radii, vals)]

    circle = measure.support[1] + delta * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
    for ctx in ctxs:
        try:
            p = local_parametrix(ctx, circle)
        except (ValueError, OverflowError) as err:
            raise ValueError(f"--n {ctx.n} with --delta {delta!r}: the local parametrix overflows "
                             "airy on |z - b| = delta; take a smaller n or delta") from err
        dev = p @ np.linalg.inv(outer_parametrix(ctx, circle))
        rows.append(("matching_sup", ctx.n, float(np.abs(dev - np.eye(2)).max())))
    a_inf, b_inf = asymptotic_recurrence(ctxs[0])
    return rows + [("a_inf", "", a_inf), ("b_inf", "", b_inf)]
