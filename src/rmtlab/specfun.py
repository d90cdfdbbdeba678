"""Airy and Bessel evaluation plus the oscillatory primitives.

Every other module (universal kernels, Riemann-Hilbert parametrices,
scaling-limit experiments) consumes these primitives.  What computes what:

* Ai(z), Ai'(z): scipy.special.airy (the AMOS routines) for real z; for
  complex z the exponentially scaled airye times e^{-zeta},
  zeta = (2/3) z^{3/2}, which stays finite up to the overflow guard.  This
  module adds the |z| <= 1e3 range check and raises OverflowError in the
  deep growth sectors (Re zeta < -700).
* J_alpha(x), J_alpha'(x): scipy.special.jv and jvp, with the range checks
  and the x = 0 conventions of bessel_j.
* integral_0^t sin(pi u)/(pi u) du: scipy.special.sici.
* integral_x^inf Ai: a cumulative composite Gauss-Legendre table fed by the
  vectorized Airy (scipy's itairy reaches only ~1e-7), with integration by
  parts beyond x = 8.

Accuracy verified against mpmath and quadrature oracles in
tests/test_specfun.py: Ai, Ai' to 1e-10 relative on [-20, 20] and to 1e-8
relative for complex |z| <= 30 in every sector; J_alpha to 1e-10 for
-1 < alpha <= 40, x <= 50; the Airy tail to 1e-9 absolute; the sine
integral to 1e-10 absolute for |t| <= 1e5.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .quadrature import gauss_legendre_panels

__all__ = [
    "FunctionValuePair",
    "airy",
    "airy_real",
    "airy_tail",
    "bessel_j",
    "sinc_integral",
]


@dataclass(frozen=True)
class FunctionValuePair:
    """A special-function value bundled with its first derivative."""

    value: complex
    derivative: complex


# ---------------------------------------------------------------------------
# Airy

def airy(z) -> FunctionValuePair:
    """Airy function Ai and derivative Ai' for real or complex argument.

    Real input gives float values, complex input complex values.  Raises
    ValueError beyond |z| = 1e3 and OverflowError in the deep growth
    sectors where the result would overflow; underflow in the decay
    sector degrades gracefully to 0.
    """
    zin = z
    z = complex(z)
    if abs(z) > 1.1e3:
        raise ValueError("airy: |z| exceeds the supported range 1e3")
    zeta = (2.0 / 3.0) * z * cmath.sqrt(z)
    if abs(z) > 20.0 and zeta.real < -700.0:
        raise OverflowError("airy: result too large to represent")
    if isinstance(zin, complex) or getattr(zin, "imag", 0) != 0:
        # scaled pair times e^{-zeta}: unscaled AMOS returns 0 or nan once
        # Re zeta < -666 in the growth sectors, short of the guard above
        eai, eaip, _, _ = special.airye(z)
        scale = cmath.exp(-zeta)
        return FunctionValuePair(complex(eai * scale), complex(eaip * scale))
    ai, aip, _, _ = special.airy(z.real)
    return FunctionValuePair(float(ai), float(aip))


def airy_real(x):
    """Vectorized (Ai, Ai') on the real axis, as two 1-d arrays."""
    ai, aip, _, _ = special.airy(np.atleast_1d(np.asarray(x, dtype=float)))
    return ai, aip


# ---------------------------------------------------------------------------
# integral of Ai over [x, infinity)

_TAIL_ANCHOR = 8.0
_TAIL_LEFT = -40.5
_TAIL_PANELS = 194   # panels of width 1/4 on [_TAIL_LEFT, _TAIL_ANCHOR]
_TAIL_ORDER = 16


def _airy_tail_asym(x):
    """integral_x^inf Ai for x >= 8 by repeated integration by parts
    (Ai'' = x Ai); four levels leave a relative remainder below 4e-6 of an
    already ~1e-8 sized tail."""
    a, ap = airy_real(x)
    a, ap = float(a[0]), float(ap[0])
    total = 0.0
    coef = 1.0
    m = 0
    for _ in range(4):
        total += coef * (-ap / x ** (m + 1) - (m + 1) * a / x ** (m + 2))
        coef *= (m + 1) * (m + 2)
        m += 3
    return total


@lru_cache(maxsize=None)
def _tail_table():
    """Knots and suffix sums integral_{knot}^inf Ai, built once."""
    t, w = gauss_legendre_panels(_TAIL_LEFT, _TAIL_ANCHOR, _TAIL_PANELS, _TAIL_ORDER)
    ai, _ = airy_real(t.ravel())
    panel = (ai.reshape(t.shape) * w).sum(axis=1)
    knots = np.linspace(_TAIL_LEFT, _TAIL_ANCHOR, _TAIL_PANELS + 1)
    suffix = np.zeros(len(knots))
    suffix[-1] = _airy_tail_asym(_TAIL_ANCHOR)
    suffix[:-1] = suffix[-1] + panel[::-1].cumsum()[::-1]
    return knots, suffix


def airy_tail(x: float) -> float:
    """integral_x^infinity Ai(t) dt, absolute accuracy ~1e-12.

    The complementary integral over (-inf, y] is 1 - airy_tail(y).  Backed
    by a cumulative panel table built once on first use (read-only after),
    so dense kernel-grid evaluation stays cheap.
    """
    x = float(x)
    if x < _TAIL_LEFT + 0.49:
        raise ValueError("airy_tail: argument below supported range -40")
    if x >= _TAIL_ANCHOR:
        return _airy_tail_asym(x)
    knots, suffix = _tail_table()
    j = int(np.searchsorted(knots, x, side="right"))
    t, w = gauss_legendre_panels(x, knots[j], 1, _TAIL_ORDER)
    ai, _ = airy_real(t.ravel())
    return float(ai @ w.ravel() + suffix[j])


# ---------------------------------------------------------------------------
# Bessel J of real order

def bessel_j(alpha: float, x: float) -> FunctionValuePair:
    """Bessel function J_alpha(x) and its derivative, real order alpha > -1,
    0 <= x <= 1e3.

    At x = 0 the value is 1 for alpha = 0 and 0 otherwise; the derivative
    is 0 for alpha = 0 or alpha > 1, 1/2 for alpha = 1 and inf in between.
    """
    alpha = float(alpha)
    x = float(x)
    if alpha <= -1.0:
        raise ValueError("bessel_j: order must exceed -1")
    if x < 0.0:
        raise ValueError("bessel_j: argument must be nonnegative")
    if x > 1.001e3:
        raise ValueError("bessel_j: argument exceeds the supported range 1e3")
    if x == 0.0:
        j = 1.0 if alpha == 0.0 else 0.0
        if alpha == 0.0 or alpha > 1.0:
            jp = 0.0
        elif alpha == 1.0:
            jp = 0.5
        else:
            jp = math.inf
        return FunctionValuePair(j, jp)
    return FunctionValuePair(float(special.jv(alpha, x)), float(special.jvp(alpha, x)))


# ---------------------------------------------------------------------------
# sine integral primitive

def sinc_integral(t: float) -> float:
    """integral_0^t sin(pi u)/(pi u) du = Si(pi t)/pi; odd in t, absolute
    accuracy ~1e-10 over |t| <= 1e6."""
    t = float(t)
    if abs(t) > 1.001e6:
        raise ValueError("sinc_integral: argument exceeds the supported range 1e6")
    si, _ = special.sici(math.pi * abs(t))
    return math.copysign(float(si), t) / math.pi
