"""Universal limiting kernels of random matrix theory.

Scalar kernels (sine, Airy, hard-edge Bessel, origin Bessel, Pearcey) and
the 2x2 matrix kernels of the orthogonal (beta = 1) and symplectic
(beta = 4) symmetry classes, together with the determinant / Pfaffian
correlation assembly that turns kernel values into k-point correlation
numbers.

Every kernel broadcasts over its x and y arguments like a numpy ufunc,
with one code path for scalars and arrays: scalar kernels return a float
for scalar input and an array of the broadcast shape otherwise, matrix
kernels return shape (..., 2, 2).  A grid is K(xs[:, None], ys[None, :]).
A plain callable handed to correlation_det or correlation_pfaffian must
broadcast the same way.

Conventions: sgn(0) = 0 throughout.  Every scalar kernel is a quotient
N(x, y) / (x - y), which cancels near x = y; each hands _near_diagonal its
numerator, its exact diagonal value and a radius r, and entries within
r / 250 of the diagonal take a Cauchy mean of N on a circle of radius r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import gauss_legendre_panels
from .specfun import (_AIRY_MAX, _BESSEL_MAX, _TAIL_BEYOND_CUT, _TAIL_CUT, ALPHA_MAX,
                      FunctionValuePair, _airy_tail_asym, _in_range, _scalar_or_array,
                      _sinc_integral, _tail_integral, airy, bessel_j)

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

# the 13 of the Cauchy mean's 24 nodes z_k / r with Im z_k >= 0, mirrored
# exactly in the imaginary axis, and their trapezoidal weights
_ARC = np.exp(1j * np.pi * np.arange(6) / 12)
_CIRCLE = np.r_[_ARC, 1j, -_ARC[::-1].conj()]
_WEIGHTS = np.r_[1.0, np.full(11, 2.0), 1.0] / 24.0


def _near_diagonal(x, y, numerator, diagonal, radius=lambda m: 0.25, grid=None):
    """numerator(x, y) / (x - y) broadcast over x and y, for a numerator
    analytic, real on the real axis and 0 on x = y.  x == y gives
    diagonal(x); 0 < |x - y| < r / 250, r = radius(m) at the midpoint m,
    gives the trapezoidal Cauchy mean of K(m + z/2, m - z/2) on |z| = r
    (Trefethen-Weideman, SIAM Rev. 56, 2014): the mean of
    numerator(m + z_k/2, m - z_k/2) / (z_k - (x - y)) over 24 nodes z_k.
    Conjugate nodes give conjugate terms, so numerator sees the 13 with
    Im z_k >= 0 only, as (k, 13) arrays; m - z_k/2 = conj(m + z_{12-k}/2).
    grid, if given, is called with the mask of the entries whose plain
    quotient is kept (False on the diagonal and the band, whose values it
    may leave arbitrary) and returns numerator(x, y) in place of the call."""
    d, m = x - y, 0.5 * (x + y)
    r = radius(m)
    near = np.abs(d) < r / 250.0
    out = np.asarray((numerator(x, y) if grid is None else grid(~near)) / np.where(near, 1.0, d))
    if near.any():
        x, d, m, r = (np.broadcast_to(v, near.shape)[near] for v in (x, d, m, r))
        val = np.empty(d.shape, out.dtype)
        on = d == 0.0
        if on.any():
            val[on] = diagonal(x[on])
        if not on.all():
            z, m, d = r[~on, None] * _CIRCLE, m[~on, None], d[~on, None]
            terms = numerator(m + 0.5 * z, m - 0.5 * z) / (z - d)
            val[~on] = (terms.real * _WEIGHTS).sum(axis=-1)
        out[near] = val
    return out


def _args(name, x, y, what="arguments must be finite", *bounds):
    """x and y as float arrays, each checked by _in_range(name, what, ., *bounds)."""
    return tuple(_in_range(name, what, np.asarray(v, dtype=float), *bounds) for v in (x, y))


def _difference(name, x, y):
    """x - y, checked once for finite x, y with |x - y| <= 1e307 (2 pi (x - y) finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return _in_range(name, "x, y must be finite with |x - y| <= 1e307", d, -1e307, 1e307)


def _sinc_dx(d):
    """[cos(pi d) - sinc(d)] / d, the x-derivative of sinc(x - y) at d = x - y; unchecked."""
    return _near_diagonal(d, 0.0, lambda x, y: np.cos(np.pi * (x - y)) - np.sinc(x - y),
                          np.zeros_like)


def sine_kernel(x, y):
    """sin(pi(x-y)) / (pi(x-y)), numpy's sinc (1 on the diagonal); |x - y| <= 1e307."""
    return _scalar_or_array(np.sinc(_difference("sine_kernel", x, y)))


def sine_kernel_dx(x, y):
    """d/dx of the sine kernel, [cos(pi d) - sinc(d)] / d, d = x - y; |d| <= 1e307."""
    return _scalar_or_array(_sinc_dx(_difference("sine_kernel_dx", x, y)))


def _airy_numerator(fx, fy):
    return fx.value * fy.derivative - fx.derivative * fy.value


def _circle_pairs(x):
    """The Airy pairs at the Cauchy mean's points x = m + z_k/2 and at
    m - z_k/2, x reversed and conjugated (Ai is real on the real axis)."""
    f = airy(x)
    return f, FunctionValuePair(f.value[..., ::-1].conj(), f.derivative[..., ::-1].conj())


def _airy_quotient(x, y, fx, fy):
    """K_Ai from the Airy pairs fx at x and fy at y.  r = 0.1 keeps the band
    narrow, as tail-integral nodes t fall next to y; past it K_Ai loses
    digits like 1 / |x - y|, partial_y K_Ai (r = 0.25) like its square."""
    def diagonal(x):
        f = airy(x)
        return f.derivative * f.derivative - x * f.value * f.value

    return _near_diagonal(x, y, lambda x, y: _airy_numerator(*_circle_pairs(x)), diagonal,
                          lambda m: 0.1, lambda keep: _airy_numerator(fx, fy))


def airy_kernel(x, y):
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y); diagonal Ai'(x)^2 - x Ai(x)^2;
    |x|, |y| <= 1e3."""
    x, y = _args("airy_kernel", x, y, "|x|, |y| must not exceed 1e3", -_AIRY_MAX, _AIRY_MAX)
    return _scalar_or_array(_airy_quotient(x, y, airy(x), airy(y)))


def airy_kernel_dy(x, y):
    """partial_y of the Airy kernel, [d_y N + K_Ai] / (x - y) with N its
    numerator and Ai''(y) = y Ai(y); on the diagonal -Ai(x)^2 / 2;
    |x|, |y| <= 1e3."""
    x, y = _args("airy_kernel_dy", x, y, "|x|, |y| must not exceed 1e3", -_AIRY_MAX, _AIRY_MAX)
    fx, fy = airy(x), airy(y)
    return _scalar_or_array(_airy_dy(x, y, fx, fy, _airy_quotient(x, y, fx, fy)))


def _airy_dy(x, y, fx, fy, kxy):
    """partial_y K_Ai from the Airy pairs fx at x and fy at y and K_Ai = kxy
    at (x, y)."""
    def numerator(y, fx, fy, kxy):
        return fx.value * y * fy.value - fx.derivative * fy.derivative + kxy

    def at(x, y):
        fx, fy = _circle_pairs(x)
        return numerator(y, fx, fy, _airy_numerator(fx, fy) / (x - y))

    return _near_diagonal(x, y, at, lambda x: -0.5 * airy(x).value ** 2,
                          grid=lambda keep: numerator(y, fx, fy, kxy))


def _order(family, alpha):
    lowest = -1.0 if family == "bessel_hard" else -0.5
    _in_range(f"{family}_kernel", f"{family} requires {lowest:g} < alpha <= {ALPHA_MAX:g}",
              np.float64(alpha), math.nextafter(lowest, 0.0), ALPHA_MAX)


def _bessel_args(family, alpha, x, y, hi):
    _order(family, alpha)
    return _args(f"{family}_kernel", x, y, f"needs positive x, y <= {hi:.6g}", math.ulp(0.0), hi)


def bessel_hard_kernel(alpha: float, x, y):
    """Hard-edge Bessel kernel of order -1 < alpha <= ALPHA_MAX, 0 < x, y <= 1e6:

        [J_a(sqrt x) sqrt(y) J_a'(sqrt y) - sqrt(x) J_a'(sqrt x) J_a(sqrt y)]
        / (2 (x - y))
    """
    x, y = _bessel_args("bessel_hard", alpha, x, y, _BESSEL_MAX ** 2)

    def numerator(x, y):
        u, v = np.sqrt(x), np.sqrt(y)
        fu, fv = bessel_j(alpha, u), bessel_j(alpha, v)
        return 0.5 * (fu.value * v * fv.derivative - u * fu.derivative * fv.value)

    def diagonal(x):
        f = bessel_j(alpha, np.sqrt(x))
        return 0.25 * ((1.0 - alpha * alpha / x) * f.value ** 2 + f.derivative ** 2)

    # the circle keeps its distance from the branch point 0
    return _scalar_or_array(_near_diagonal(x, y, numerator, diagonal,
                                           lambda m: np.minimum(m, np.sqrt(m)) / 4.0))


def bessel_origin_kernel(alpha: float, x, y):
    """Origin Bessel kernel, strength -1/2 < alpha <= ALPHA_MAX, 0 < x, y <= 1e3/pi:

        pi sqrt(xy) [J_{a+1/2}(pi x) J_{a-1/2}(pi y)
                     - J_{a-1/2}(pi x) J_{a+1/2}(pi y)] / (2 (x - y))

    Reduces identically to the sine kernel at alpha = 0.
    """
    x, y = _bessel_args("bessel_origin", alpha, x, y, _BESSEL_MAX / math.pi)
    p, m = alpha + 0.5, alpha - 0.5

    def numerator(x, y):
        fpx, fmx = bessel_j(p, np.pi * x).value, bessel_j(m, np.pi * x).value
        fpy, fmy = bessel_j(p, np.pi * y).value, bessel_j(m, np.pi * y).value
        return 0.5 * np.pi * np.sqrt(x * y) * (fpx * fmy - fmx * fpy)

    def diagonal(x):
        fp, fm = bessel_j(p, np.pi * x), bessel_j(m, np.pi * x)
        return (np.pi ** 2 * x / 2.0) * (fm.value * fp.derivative - fp.value * fm.derivative)

    return _scalar_or_array(_near_diagonal(x, y, numerator, diagonal,
                                           lambda c: np.minimum(0.25, c / 4.0)))


# ---------------------------------------------------------------------------
# Pearcey kernel from its integrable form

def _xi_contour(delta, tmax, panels):
    """The bent X contour: two V-shaped halves with vertices at +-delta.

    Ray orientations: incoming from inf e^{i pi/4} and inf e^{-3i pi/4}
    toward the vertices, outgoing to inf e^{-i pi/4} and inf e^{3i pi/4}.
    Moving the vertices off the origin keeps the eta contour (the imaginary
    axis) a positive distance from the 1/(eta - xi) pole; the deformation
    crosses no poles, so the integral is unchanged.
    """
    t, w = (v.ravel() for v in gauss_legendre_panels(0.0, tmax, panels, 20))
    e_p = np.exp(1j * np.pi / 4.0)
    e_m = np.exp(-1j * np.pi / 4.0)
    xs = [delta + t * e_p, delta + t * e_m, -delta - t * e_p, -delta - t * e_m]
    ws = [-w * e_p, w * e_m, w * e_p, -w * e_m]
    return np.concatenate(xs), np.concatenate(ws)


def _eta_axis(tmax, panels):
    """Nodes and weights (d eta = i du) on the imaginary axis |eta| <= tmax."""
    u, wu = (v.ravel() for v in gauss_legendre_panels(-tmax, tmax, panels, 20))
    return 1j * u, 1j * wu


def _pearcey_raw(x, y, s, delta, tmax, xi_panels, eta_panels):
    """The double contour integral (Bleher-Kuijlaars, CMP 270, 2007),
    broadcasting over x and y: the oracle of the integrable form.  The
    Cauchy matrix C = 1/(eta - xi), built in blocks of at most 4M entries,
    does not depend on x or y, so one call is one product F_xi C F_eta^T."""
    x, y = np.broadcast_arrays(*_args("_pearcey_raw", x, y))
    xi, wxi = _xi_contour(delta, tmax, xi_panels)
    eta, weta = _eta_axis(tmax, eta_panels)
    # e^{+-(t^4/4 - s t^2/2 + v t)} dt, one row per distinct v
    (ux, ix), (uy, iy) = (np.unique(v, return_inverse=True) for v in (x, y))
    f_xi = np.exp(0.25 * xi ** 4 - 0.5 * s * xi ** 2 + np.multiply.outer(ux, xi)) * wxi
    f_eta = np.exp(-(0.25 * eta ** 4 - 0.5 * s * eta ** 2 + np.multiply.outer(uy, eta))) * weta
    ix, iy = ix.reshape(x.shape), iy.reshape(y.shape)
    val = 0.0
    step = max(1, 4_000_000 // eta.size)
    for lo in range(0, xi.size, step):
        block = 1.0 / (eta[None, :] - xi[lo:lo + step, None])
        val = val + f_xi[:, lo:lo + step] @ block @ f_eta.T
    return (val[ix, iy] / (2.0j * np.pi) ** 2)[()]


# p and q are trapezoidal sums in u over the nodes u_j = j h, |j| <= 100,
# of contours t(u) = c + B u + P expm1(u) + Q expm1(-u) routed through the
# saddles of the exponent f(t) = t^4/4 - s t^2/2 + m t (the roots of
# t^3 - s t + m).  The xi contour is one pair of halves per argument, upright
# ones or arches, picked from the saddles alone; on either, P and Q point
# into valleys of t^4, so the integrand decays double exponentially and is
# below e^-40 of its top at the ends.  The eta contour is an upright line
# (B alone) that ends where e^-f has fallen below e^-45 of its top.
# Either way the sum converges geometrically (Trefethen-Weideman, SIAM Rev.
# 56, 2014); every other node with doubled weights is the half-step rule.
_STEP = 0.03
_U = _STEP * np.arange(-100, 101)
_EXP = np.exp(_U), np.exp(-_U)
_EXPM1 = np.expm1(_U), np.expm1(-_U)


def _saddles(m, s):
    """For each real m, the roots of t^3 - s t + m by the trigonometric and
    hyperbolic formulas: whether all three are real, then the three in
    ascending order (else the real one, thrice) and, with one real root r,
    the complex one in the upper half plane, z = -r/2 + i sqrt(3 r^2/4 - s)
    (else the middle root)."""
    k = math.sqrt(abs(s) / 3.0)
    if abs(s) < 1e-60:  # past here, s moves the roots by less than 1e-30
        s = 0.0
    if s > 0.0:
        c = -1.5 * m / (s * k)
        three = np.abs(c) <= 1.0
        roots = 2.0 * k * np.cos(np.arccos(np.minimum(np.maximum(c, -1.0), 1.0))[:, None] / 3.0
                                 + 2.0 * math.pi / 3.0 * np.arange(1, 4))
        real = -2.0 * k * np.sign(m) * np.cosh(np.arccosh(np.maximum(np.abs(c), 1.0)) / 3.0)
    else:
        three = np.zeros(m.shape, dtype=bool)
        roots = np.zeros(m.shape + (3,))
        real = -np.cbrt(m) if s == 0.0 else -2.0 * k * np.sinh(np.arcsinh(-1.5 * m / (s * k)) / 3.0)
    roots = np.where(three[:, None], roots, real[:, None])
    pair = -0.5 * real + 1j * np.sqrt(np.maximum(0.75 * real * real - s, 0.0))
    z = np.where(three, roots[:, 1], pair)
    return three, roots, z


def _scale(t, s):
    """The scale a of a contour through the saddle t: 1.2 times the reach of
    the quadratic term of f there, |f''| / |f'''| or sqrt(2 |f''|) if less,
    kept between 0.4 and 9 / sqrt|f''| (a Gaussian of at least 3 steps)."""
    d2, d3 = np.abs(3.0 * t * t - s), np.abs(6.0 * t)
    reach = np.minimum(d2 / np.maximum(d3, 1e-300), np.sqrt(2.0 * d2))
    return np.minimum(np.maximum(1.2 * reach, 0.4), 9.0 / np.sqrt(np.maximum(d2, 1e-300)))


def _upright(c, a, right):
    """(c, B, P, Q) of the hyperbola with vertex c, scale a and an upright
    tangent there, from e^{i pi/4} to e^{-i pi/4} (right) or from
    e^{-3i pi/4} to e^{3i pi/4}: c +- a (cosh u - 1) -+ i a sinh u."""
    a = np.where(right, 0.5, -0.5) * a
    return c, 0.0 * a, a * (1 - 1j), a * (1 + 1j)


def _arches(z, s):
    """(c, B, P, Q) of the arch from the valley at e^{i pi/4} to the one at
    e^{3i pi/4} through the saddle z of e^f, and of its mirror image through
    conj z (from e^{-3i pi/4} to e^{-i pi/4}).  P and Q have the length 0.2
    along the asymptotes, so every arch reaches its valleys by u = +-3, and
    B makes the tangent at z, B + P - Q, the steepest-descent line there,
    kept pi/32 inside the angle the asymptotes leave, at the scale
    _scale(z, s)."""
    tangent = 0.5 * (math.pi - np.angle(3.0 * z * z - s))
    tangent = tangent + math.pi * np.round(1.0 - tangent / math.pi)
    tangent = np.minimum(np.maximum(tangent, 0.78125 * math.pi), 1.21875 * math.pi)
    p = np.full_like(z, 0.2 * np.exp(0.75j * math.pi))
    q = np.full_like(z, 0.2 * np.exp(0.25j * math.pi))
    b = _scale(z, s) * np.exp(1j * tangent) - p + q
    return (z, b, p, q), (z.conj(), -b.conj(), q.conj(), p.conj())


def _exponent(t, m, s):
    """f(t) = t^4/4 - s t^2/2 + m t."""
    t2 = t * t
    return (0.25 * t2 - 0.5 * s) * t2 + m * t


def _p_contour(v, s):
    """The nodes, the exponent f there and B, P, Q of the xi contour of each
    v: two halves placed by the saddles of f = t^4/4 - s t^2/2 + m t,
    m = Re v.  The upright halves, from e^{i pi/4} to e^{-i pi/4} and from
    e^{-3i pi/4} to e^{3i pi/4}, cross the axis at the largest and the
    smallest saddle if all three are real.  With one real saddle r and
    z, conj z, they serve while z lies within k Gaussian widths of the axis,
    Im z sqrt|f''(z)| < k (k = 2 for s >= 0, by the caustic; 0.3 for s < 0,
    by the triple saddle s = m = 0): the half on z's side then passes
    through z and conj z and the other through r.  Beyond, the arches of
    _arches through z and conj z (the same integral) are taken."""
    three, r, z = _saddles(v.real, s)
    right = three | (z.real >= 0.0)
    # the half through z and conj z crosses the axis upright and meets z at
    # 48.75 degrees, the least steep the descent there allows: sinh u = 1.8191
    a = np.where(three, _scale(r[:, 2], s), np.maximum(z.imag / 1.8191, 0.4))
    c = np.where(three, r[:, 2], z.real - np.where(right, 1.0, -1.0) * (np.hypot(a, z.imag) - a))
    other = r[:, 0]
    near = _upright(np.where(right, c, other), np.where(right, a, _scale(other, s)), True)
    far = _upright(np.where(right, other, c), np.where(right, _scale(other, s), a), False)
    upright = z.imag * np.sqrt(np.abs(3.0 * z * z - s)) < (2.0 if s >= 0.0 else 0.3)
    # (c, B, P, Q), each of shape (distinct v, half)
    c, b, p, q = np.where(upright[:, None], np.stack([near, far], axis=-1),
                          np.stack(_arches(z, s), axis=-1))
    t = c[..., None] + b[..., None] * _U + p[..., None] * _EXPM1[0] + q[..., None] * _EXPM1[1]
    return t, _exponent(t, v[:, None, None], s), b, p, q


def _q_contour(v, s):
    """The eta contour of each v as one half, in _p_contour's form: the
    upright line t = c + B u through the middle real saddle of f, m = Re v,
    or through Re z and so through both z and conj z, with its nodes spread
    evenly up to where the integrand e^-f falls below e^-45 of its top (the
    real part of -f on it is a quartic in Im eta), and P = Q = 0."""
    c = _saddles(v.real, s)[2].real[:, None]
    # Re -f(c + i y) = Re -f(c) + beta y^2 - y^4 / 4, beta = (3 c^2 - s) / 2
    b = 1j * np.sqrt(np.maximum(3.0 * c * c - s, 0.0) + math.sqrt(180.0)) / _U[-1]
    t = c[..., None] + b[..., None] * _U
    return t, -_exponent(t, v[:, None, None], s), b, 0.0 * b, 0.0 * b


def _moments(v, s, kmax, sign=1.0):
    """(1/2 pi i) Int t^k e^{sign (t^4/4 - s t^2/2 + v t)} dt, k = 0..kmax:
    p^(k)(v) for sign = 1, (-1)^k q^(k)(v) for sign = -1, from the
    trapezoidal rule (index 0 of the leading axis) and its half-step rule
    (index 1), followed by k and v's shape.  Each distinct v takes its own
    contour, placed by the saddles of its real part, on 402 nodes for p
    (_p_contour) and 201 for q (_q_contour), and is summed on its own, so a
    value does not depend on which other arguments share the batch; t^k is
    the running product t^(k-1) t, so it does not depend on kmax either."""
    u, inv = np.unique(v, return_inverse=True)
    t, f, b, p, q = (_p_contour if sign > 0 else _q_contour)(u, s)
    f = np.exp(f) * ((b[..., None] + p[..., None] * _EXP[0] - q[..., None] * _EXP[1]) * _STEP)
    moments = []
    for _ in range(kmax + 1):
        moments.append((f.sum(axis=(-2, -1)), 2.0 * f[..., ::2].sum(axis=(-2, -1))))
        f = f * t
    return (np.array(moments) / (2j * np.pi)).transpose(1, 0, 2)[..., inv.reshape(np.shape(v))]


def _pearcey_integrable(x, y, s):
    """[p''(x) q(y) - p'(x) q'(y) + p(x) q''(y) - s p(x) q(y)] / (x - y),
    with the numerator's x-derivative (p one derivative up) on the diagonal.
    One moment pass per contour serves the grid and the diagonal: p^(0..3)
    on the distinct x, q^(0..2) on the distinct x and y, each diagonal
    value looked up in them; the Cauchy band's points take one more.  Each
    numerator value comes from the trapezoidal rule; where the half-step
    rule's differs by more than 1e-7 of its largest term, ArithmeticError
    is raised.  The grid is checked on the entries whose quotient
    _near_diagonal keeps, the diagonal and the band on their own values."""
    def numerator(p, q, checked=True):  # the rule first, then k; q[:, 1] is -q'
        (a, b, c, d), half = ((r[2] * w[0], r[1] * w[1], r[0] * w[2], -s * r[0] * w[0])
                              for r, w in zip(p, q))
        value = a + b + c + d
        scale = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(c), abs(d)))
        if (checked & (abs(value - sum(half)) > 1e-7 * scale)).any():
            raise ArithmeticError("pearcey_kernel: the trapezoidal rule and its half-step "
                                  "rule disagree by more than 1e-7 of the numerator's terms")
        return value

    ux, uxy = np.unique(x), np.unique(np.r_[x.ravel(), y.ravel()])
    p = _moments(ux, s, 3)
    q = _moments(uxy, s, 2, sign=-1.0)
    return _near_diagonal(
        x, y, lambda x, y: numerator(_moments(x, s, 2), _moments(y, s, 2, sign=-1.0)),
        lambda x: numerator(p[:, 1:, np.searchsorted(ux, x)], q[:, :, np.searchsorted(uxy, x)]),
        grid=lambda keep: numerator(p[:, :3, np.searchsorted(ux, x)],
                                    q[:, :, np.searchsorted(uxy, y)], keep))


def _pearcey_s(s, name="pearcey_kernel"):
    _in_range(name, "pearcey requires -10 <= s <= 10", np.float64(s), -10.0, 10.0)


def _pearcey_args(name, s, x, y=0.0):
    """x and y (|x|, |y| <= 20) as float arrays, with s checked (|s| <= 10)."""
    x, y = _args(name, x, y, "|x|, |y| must not exceed 20", -20.0, 20.0)
    _pearcey_s(s, name)
    return x, y


def pearcey_kernel(x, y, s: float):
    """Pearcey kernel from its integrable form (Tracy-Widom, CMP 263, 2006):

        K(x, y) = [p''(x) q(y) - p'(x) q'(y) + p(x) q''(y) - s p(x) q(y)]
                  / (x - y)

    with p, q the single contour integrals of pearcey_p and pearcey_q and
    their derivatives taken as quadrature moments, p''' q - p'' q' + p' q''
    - s p' q on the diagonal and the Cauchy mean (r = 0.25) within 1e-3 of
    it; |x|, |y| <= 20 and |s| <= 10.  Each distinct argument has its own
    xi and eta contours through the saddles of the exponent (_p_contour,
    _q_contour), each summed by one trapezoidal rule.  On every numerator
    value that rule must agree with its half-step rule to 1e-7 of the
    largest of the four terms, and the value must be real to 1e-7, else
    ArithmeticError is raised.  A call takes one moment pass per contour on
    the distinct arguments, shared by the quotient and the diagonal, plus
    one for any Cauchy band entries.  Agrees with 40-digit integrals to
    1e-9 on the whole range, and with the double contour integral
    _pearcey_raw to 1e-9 on [-2, 2]^2 for s in {-1, 0, 1, 3} and to 1e-12
    within 1e-3 of the diagonal (tests/test_kernels.py).
    """
    x, y = _pearcey_args("pearcey_kernel", s, x, y)
    k = _pearcey_integrable(x, y, s)
    if (np.abs(k.imag) > 1e-7 * np.maximum(1.0, np.abs(k.real))).any():
        raise ArithmeticError("pearcey_kernel: non-real kernel value")
    return _scalar_or_array(k.real)


def pearcey_p(x: float, s: float, moment: int = 0) -> complex:
    """xi-factor of the Pearcey integrand, on pearcey_kernel's contours and
    ranges: p(x) = (1/2 pi i) Int_C e^{xi^4/4 - s xi^2/2 + xi x} dxi, with
    xi^moment inserted (moment = k gives the k-th derivative of p)."""
    x, _ = _pearcey_args("pearcey_p", s, x)
    return complex(_moments(x, s, moment)[0, moment])


def pearcey_q(y: float, s: float, moment: int = 0) -> complex:
    """eta-factor, on pearcey_kernel's contours and ranges: q(y) =
    (1/2 pi i) Int_{-i inf}^{i inf} e^{-eta^4/4 + s eta^2/2 - eta y} d eta,
    with eta^moment inserted."""
    y, _ = _pearcey_args("pearcey_q", s, y)
    return complex(_moments(y, s, moment, sign=-1.0)[0, moment])


# ---------------------------------------------------------------------------
# 2x2 matrix kernels (orthogonal / symplectic classes)

def _blocks(k11, k12, k21, k22) -> np.ndarray:
    """The four broadcast entries as (..., 2, 2) blocks."""
    k11, k12, k21, k22 = np.broadcast_arrays(k11, k12, k21, k22)
    return np.stack([np.stack([k11, k12], -1), np.stack([k21, k22], -1)], -2)


def matrix_kernel_bulk(beta: int, x, y) -> np.ndarray:
    """Bulk 2x2 matrix kernel; beta = 1 (orthogonal) or 4 (symplectic).

    Entries are built from the sine kernel, its x-derivative, the sine
    integral and sgn with sgn(0) = 0; the beta = 4 entries carry doubled
    frequency and no sgn term.  Broadcasts over x and y with |x - y| <=
    1e307, checked once on x - y; the result has shape (..., 2, 2).
    """
    if beta not in (1, 4):
        raise ValueError("matrix_kernel_bulk: beta must be 1 or 4")
    d = _difference("matrix_kernel_bulk", x, y)
    f = 1.0 if beta == 1 else 2.0
    k12 = np.sinc(f * d)
    k22 = _sinc_integral(d) - 0.5 * np.sign(d) if beta == 1 else 0.5 * _sinc_integral(2.0 * d)
    # K11 = -f S_x(f d) = f S_x(-f d) (S_x is odd), which keeps +0.0 on the diagonal
    return _blocks(f * _sinc_dx(-f * d), k12, -k12, k22)


def _edge_airy(x, y):
    """The Airy pairs at x and at y, the Airy tails at x and at y, and
    integral_x^inf K_Ai(t, y) dt broadcast over x and y, for x, y in [-30, 1e3].
    Airy is evaluated once on the distinct values of x and y, and all the
    tails come from one tail integral: Ai(t) stacked over K_Ai(t, y_j) for
    each distinct y_j.  Beyond t = 14 the K_Ai integrand is below 1e-15,
    and the tail of Ai is integrated by parts."""
    u, iu = np.unique(np.concatenate([x.ravel(), y.ravel()]), return_inverse=True)
    ix, iy = iu[:x.size].reshape(x.shape), iu[x.size:].reshape(y.shape)
    f = airy(u)
    ys, jy = np.unique(iy, return_inverse=True)
    col = u[ys, None, None]
    fcol = FunctionValuePair(f.value[ys, None, None], f.derivative[ys, None, None])

    def integrand(t, ft):
        return np.concatenate([ft.value[None], _airy_quotient(t, col, ft, fcol)])

    vals, it = _tail_integral(integrand, u, np.r_[_TAIL_BEYOND_CUT, np.zeros(ys.size)])
    tail = vals[0, it]
    far = u > _TAIL_CUT
    if far.any():
        tail[far] = _airy_tail_asym(u[far])

    def at(i):
        return FunctionValuePair(f.value[i], f.derivative[i])

    return at(ix), at(iy), tail[ix], tail[iy], vals[1 + jy.reshape(y.shape), it[ix]]


def matrix_kernel_edge(beta: int, x, y) -> np.ndarray:
    """Soft-edge 2x2 matrix kernel; beta = 1 (orthogonal) or 4 (symplectic).

    Built from the scalar Airy kernel, its y-derivative, Ai, the Airy tail
    integrals, and integral_x^inf K_Ai(., y).  Broadcasts over x and y in
    [-30, 1e3]; the result has shape (..., 2, 2).  One Airy evaluation on
    the distinct values of x and y serves every entry, K_Ai feeds its
    y-derivative, and one tail integral gives the Airy tails and the K_Ai
    tails together.

    The lower-left entry is -K12 with the arguments swapped,
    K21(x, y) = -K12(y, x); unlike in the bulk (where K12 is even in x - y
    and the swap is invisible) this is what makes the assembled 2k x 2k
    block matrix exactly skew-symmetric, as the Pfaffian requires.
    """
    x, y = _args("matrix_kernel_edge", x, y, "arguments must be >= -30, <= 1e3", -30.0, _AIRY_MAX)
    if beta not in (1, 4):
        raise ValueError("matrix_kernel_edge: beta must be 1 or 4")
    fx, fy, tx, ty, kint = _edge_airy(x, y)
    ax, ay = fx.value, fy.value
    kxy = _airy_quotient(x, y, fx, fy)
    dky = _airy_dy(x, y, fx, fy, kxy)
    if beta == 1:
        k11 = dky + 0.5 * ax * ay
        k12 = kxy + 0.5 * ax * (1.0 - ty)
        k21 = -(kxy + 0.5 * ay * (1.0 - tx))
        # int_x^y Ai = airy_tail(x) - airy_tail(y)
        k22 = -kint - 0.5 * (tx - ty) + 0.5 * tx * ty - 0.5 * np.sign(x - y)
        return _blocks(k11, k12, k21, k22)
    k11 = 0.5 * dky + 0.25 * ax * ay
    k12 = 0.5 * kxy - 0.25 * ax * ty
    k21 = -(0.5 * kxy - 0.25 * ay * tx)
    k22 = -0.5 * kint + 0.25 * tx * ty
    return _blocks(k11, k12, k21, k22)


# ---------------------------------------------------------------------------
# kernel handles and correlation assembly

@dataclass(frozen=True)
class KernelHandle:
    """A named universal kernel with its parameters.

    family: one of sine, airy, bessel_hard, bessel_origin, pearcey (scalar)
    or sine_beta1, sine_beta4, airy_beta1, airy_beta4 (2x2 matrix); alpha
    and s are checked as the kernel functions check them.
    """

    family: str
    alpha: Optional[float] = None
    s: Optional[float] = None

    def __post_init__(self):
        if self.family not in _SCALAR_FAMILIES + _MATRIX_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        takes = {"bessel_hard": "alpha", "bessel_origin": "alpha", "pearcey": "s"}.get(self.family)
        for name in ("alpha", "s"):
            if name != takes and getattr(self, name) is not None:
                raise ValueError(f"{self.family} takes no {name} parameter")
        if takes == "alpha":
            _order(self.family, self.alpha)
        elif takes == "s":
            _pearcey_s(self.s)

    @property
    def arity(self) -> str:
        return "scalar" if self.family in _SCALAR_FAMILIES else "matrix2x2"

    def evaluate(self, x, y):
        """The kernel at (x, y), broadcast over x and y like a numpy ufunc:
        scalar families give a float for scalar input and an array of the
        broadcast shape otherwise, matrix families append a (2, 2) axis
        pair.  A grid is evaluate(xs[:, None], ys[None, :])."""
        f = self.family
        if f in _MATRIX_FAMILIES:
            matrix = matrix_kernel_bulk if f.startswith("sine") else matrix_kernel_edge
            return matrix(int(f[-1]), x, y)
        if f.startswith("bessel"):
            bessel = bessel_hard_kernel if f == "bessel_hard" else bessel_origin_kernel
            return bessel(self.alpha, x, y)
        if f == "pearcey":
            return pearcey_kernel(x, y, self.s)
        return sine_kernel(x, y) if f == "sine" else airy_kernel(x, y)


def _kernel_mesh(name, kernel, arity, points, kmax):
    """K(x_i, x_j) on the point mesh from one broadcast call, shape (k, k)
    or (k, k, 2, 2)."""
    if isinstance(kernel, KernelHandle):
        if kernel.arity != arity:
            what = "a scalar" if arity == "scalar" else "a 2x2 matrix"
            raise ValueError(f"{name} needs {what} kernel")
        kernel = kernel.evaluate
    pts = np.array(list(points), dtype=float)
    k = len(pts)
    if not 1 <= k <= kmax:
        raise ValueError(f"{name} supports 1 <= k <= {kmax} points")
    mesh = np.asarray(kernel(pts[:, None], pts[None, :]), dtype=float)
    want = (k, k) if arity == "scalar" else (k, k, 2, 2)
    if mesh.shape != want:
        raise ValueError(f"{name}: kernel returned shape {mesh.shape} on a "
                         f"{k}-point mesh, expected {want}; it must broadcast")
    return mesh


def correlation_det(kernel, points) -> float:
    """k-point correlation det[K(x_i, x_j)] for a scalar kernel.

    kernel may be a KernelHandle of scalar arity or a plain callable, which
    must broadcast over its two arguments: it is called once, on the
    (k, 1) x (1, k) point mesh.  Determinant by LU with partial pivoting.
    """
    return float(np.linalg.det(_kernel_mesh("correlation_det", kernel, "scalar", points, 12)))


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian of an even-dimensional skew-symmetric matrix, read from its
    strict upper triangle (the lower one is taken as its negative).

    Skew LTL^T elimination with pivoting (Parlett-Reid, BIT 10, 1970;
    Wimmer, ACM TOMS 38, 2012), the same loop at every size: each step
    swaps the largest entry of the first column into row 1 (a sign flip),
    multiplies the result by the pivot a[0, 1] and leaves the rank-2
    update of the trailing block.  Within 1e-15 prod_j |a_j|^(1/2) of a
    50-digit expansion even where column sizes differ by orders of
    magnitude; 0.0 when a pivot column is zero, 1.0 for the empty matrix.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n) or n % 2:
        raise ValueError("pfaffian needs an even-dimensional square matrix")
    a = np.triu(a, 1)
    a = a - a.T
    pf = 1.0
    while a.size:
        p = 1 + int(np.abs(a[1:, 0]).argmax())
        if p != 1:
            a[[1, p]] = a[[p, 1]]
            a[:, [1, p]] = a[:, [p, 1]]
            pf = -pf
        pivot = a[0, 1]
        if pivot == 0.0:
            return 0.0
        pf *= pivot
        u = np.outer(a[0, 2:] / pivot, a[2:, 1])
        a = a[2:, 2:] + (u - u.T)
    return float(pf)


def correlation_pfaffian(kernel, points) -> float:
    """k-point correlation Pf[K(x_i, x_j)] for a 2x2 matrix kernel.

    kernel may be a KernelHandle of matrix arity or a plain callable, which
    must broadcast over its two arguments and return (..., 2, 2) blocks: it
    is called once, on the (k, 1) x (1, k) point mesh.  Every block,
    (j, i) as well as (i, j), comes from that call, so the 2k x 2k matrix
    is verified skew-symmetric to 1e-8 (relative to the largest entry)
    before its Pfaffian is returned; Pf^2 = det.
    """
    blocks = _kernel_mesh("correlation_pfaffian", kernel, "matrix2x2", points, 8)
    k = len(blocks)
    a = blocks.transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)
    scale = 1.0 + float(np.abs(a).max())
    skew_defect = float(np.abs(a + a.T).max())
    if skew_defect > 1e-8 * scale:
        raise ValueError(
            f"correlation_pfaffian: assembled matrix not skew-symmetric "
            f"(defect {skew_defect:.2e})"
        )
    return pfaffian(a)
