"""Airy and Bessel evaluation plus the oscillatory primitives.

Every other module (universal kernels, Riemann-Hilbert parametrices,
scaling-limit experiments) consumes these primitives.  What computes what:

* Ai(z), Ai'(z): scipy.special.airy (the AMOS routines) for real z; for
  complex z the exponentially scaled airye times e^{-zeta},
  zeta = (2/3) z^{3/2}, which stays finite up to the overflow guard.  This
  module adds the |z| <= 1e3 range check and raises OverflowError in the
  deep growth sectors (Re zeta < -700).
* J_alpha(x), J_alpha'(x): scipy.special.jv and jvp (complex x off the
  negative axis and 0 too), with the range checks; at x = 0 scipy's limits.
* integral_0^t sin(pi u)/(pi u) du: scipy.special.sici, for every finite t.
* integral_x^inf Ai: _tail_integral, suffix sums over the one tail grid
  (scipy's itairy reaches only ~1e-7), with integration by parts beyond
  x = 14.  The grid's Airy node values are kept, filled panel by panel
  from the right the first time a call reaches a panel.  The edge
  kernels integrate Ai and K_Ai(., y) in one call of the same routine,
  as a stack of integrands.

scipy.special is imported on first use, inside the functions that call it,
and the tail constant at 14 is a literal, so importing rmtlab never loads it.

airy, bessel_j, sinc_integral and airy_tail broadcast over their argument
like numpy ufuncs (scalar input gives a float, or a complex for complex
airy), and each range guard raises ValueError unless every element lies
in range, so NaN fails it; airy_real flattens its argument.

Accuracy verified against mpmath and quadrature oracles in
tests/test_specfun.py: Ai, Ai' to 1e-10 relative on [-20, 20] and to 1e-8
relative for complex |z| <= 30 in every sector; J_alpha to 1e-10 for
-1 < alpha <= 40, x <= 50; the Airy tail to 1e-14 absolute on [-40, 20]
and 1e-8 relative beyond 8; the sine integral to 1e-10 absolute for
|t| <= 1e5 and to 1e-16 absolute for 1e6 <= |t| <= 1e300.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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
    """A special-function value bundled with its first derivative; arrays
    when the argument was an array."""

    value: complex
    derivative: complex


# |argument| bounds of airy and bessel_j (the kernels' bounds derive from them);
# the guards admit 10% and 0.1% more, for the kernels' Cauchy circles
_AIRY_MAX = _BESSEL_MAX = 1e3
# the largest alpha of a weight x^alpha or |x|^{2 alpha} and of a Bessel kernel:
# at 1000 the Gauss-Jacobi rule of the recurrence nodes and J_alpha overflow
ALPHA_MAX = 100.0


def _in_range(name, what, v, lo=-sys.float_info.max, hi=sys.float_info.max):
    """v, or ValueError(f"{name}: {what}") unless all of v lies in [lo, hi] (NaN in none)."""
    if not ((lo <= v) & (v <= hi)).all():
        raise ValueError(f"{name}: {what}")
    return v


def _scalar_or_array(v):
    """A 0-d result as a Python float (complex if v is), anything else as
    an array."""
    v = np.asarray(v)
    if v.ndim:
        return v
    return complex(v) if np.iscomplexobj(v) else float(v)


# ---------------------------------------------------------------------------
# Airy

def airy(z) -> FunctionValuePair:
    """Airy function Ai and derivative Ai' for real or complex argument.

    Broadcasts like a numpy ufunc: scalar input gives floats, or complex
    values for complex input.  Raises ValueError unless every |z| <= 1e3
    (the guard admits 1.1e3) and OverflowError if any complex z lies in
    the deep growth sectors where the result would overflow, |z| > 20 with
    Re zeta < -700, zeta = (2/3) z^(3/2) (principal branch); underflow in
    the decay sector degrades to 0.  rh.diagnostics reports either error
    of its local parametrix as a rejected --n and --delta.
    """
    _in_range("airy", "|z| must be finite within the supported range 1e3", np.abs(z),
              hi=1.1 * _AIRY_MAX)
    if not np.iscomplexobj(z):
        x = np.asarray(z, dtype=float)
        ai, aip = airy_real(x)
        return FunctionValuePair(_scalar_or_array(ai.reshape(x.shape)),
                                 _scalar_or_array(aip.reshape(x.shape)))
    # + 0.0 clears a -0.0 imaginary part, for which AMOS misplaces the cut
    z = np.asarray(z, dtype=complex) + 0.0
    zeta = (2.0 / 3.0) * z * np.sqrt(z)
    if ((np.abs(z) > 20.0) & (zeta.real < -700.0)).any():
        raise OverflowError("airy: result too large to represent")
    # scaled pair times e^{-zeta}: unscaled AMOS returns 0 or nan once
    # Re zeta < -666 in the growth sectors, short of the guard above
    from scipy import special
    eai, eaip, _, _ = special.airye(z)
    scale = np.exp(-zeta)
    return FunctionValuePair(_scalar_or_array(eai * scale), _scalar_or_array(eaip * scale))


def airy_real(x):
    """Vectorized (Ai, Ai') on the real axis, as two 1-d arrays (x is
    flattened); no range check."""
    from scipy import special
    ai, aip, _, _ = special.airy(np.ravel(np.asarray(x, dtype=float)))
    return ai, aip


# ---------------------------------------------------------------------------
# integral of Ai over [x, infinity)

# the one tail grid: order-20 Gauss-Legendre panels between the knots
# -40.5, -40, ..., 14, shared with the edge kernel tail integral
_TAIL_LEFT, _TAIL_CUT, _TAIL_PANELS, _TAIL_ORDER = -40.5, 14.0, 109, 20
_TAIL_T, _TAIL_W = gauss_legendre_panels(_TAIL_LEFT, _TAIL_CUT, _TAIL_PANELS, _TAIL_ORDER)
_TAIL_T.flags.writeable = _TAIL_W.flags.writeable = False
# the Airy pair on the last panels of the grid, as far left as any call has reached
_tail_pair = FunctionValuePair(np.empty((0, _TAIL_ORDER)), np.empty((0, _TAIL_ORDER)))


def _tail_nodes(j0):
    """Read-only nodes t, weights w and Airy pair at t of the tail grid's
    panels j0 and beyond, each of shape (panels - j0, order).  The first
    call that reaches a panel evaluates Airy on it and on every unfilled
    panel up to those already filled; the extended pair is published in
    one assignment, so a concurrent caller sees the old or the new pair,
    never an unfilled panel."""
    global _tail_pair
    pair = _tail_pair
    first = _TAIL_PANELS - len(pair.value)  # the leftmost panel filled
    if j0 < first:
        f = airy(_TAIL_T[j0:first])
        value = np.concatenate([f.value, pair.value])
        derivative = np.concatenate([f.derivative, pair.derivative])
        value.flags.writeable = derivative.flags.writeable = False
        pair = _tail_pair = FunctionValuePair(value, derivative)
    k = j0 - (_TAIL_PANELS - len(pair.value))
    return (_TAIL_T[j0:], _TAIL_W[j0:],
            FunctionValuePair(pair.value[k:], pair.derivative[k:]))


def _tail_integral(f, x, right=0.0):
    """integral_x^14 f + right at each distinct x (clipped at 14), and the
    index of each x into them.  f(t, pair) gets (k, order) nodes and the
    Airy pair at them, and may add leading axes (one integrand each); right
    is a scalar or one value per integrand.  The panels right of the knot
    below min(x) are summed from the right, so an entry does not depend on
    the rest of the batch; right joins those suffix sums, then one partial
    panel per distinct x off a knot."""
    xs, ix = np.unique(np.minimum(x, _TAIL_CUT), return_inverse=True)
    width = (_TAIL_CUT - _TAIL_LEFT) / _TAIL_PANELS
    j0 = min(int((np.min(xs, initial=_TAIL_CUT) - _TAIL_LEFT) // width), _TAIL_PANELS - 1)
    t, w, pair = _tail_nodes(j0)
    panel = (f(t, pair) * w).sum(axis=-1)
    suffix = np.zeros(panel.shape[:-1] + (_TAIL_PANELS - j0 + 1,))
    suffix[..., :-1] = panel[..., ::-1].cumsum(axis=-1)[..., ::-1]
    suffix += np.asarray(right)[..., None]
    knots = _TAIL_LEFT + width * np.arange(j0, _TAIL_PANELS + 1)
    j = np.searchsorted(knots, xs)
    out = suffix[..., j]
    gap = xs < knots[j]
    if gap.any():
        tp, wp = (v[:, 0] for v in gauss_legendre_panels(xs[gap], knots[j[gap]], 1, _TAIL_ORDER))
        out[..., gap] += (f(tp, airy(tp)) * wp).sum(axis=-1)
    return out, ix.reshape(np.shape(x))


def _airy_tail_asym(x):
    """integral_x^inf Ai for x >= 14 by repeated integration by parts
    (Ai'' = x Ai); four levels leave a relative remainder below 1e-8 of a
    tail below 1e-16."""
    f = airy(x)
    total = 0.0
    coef = 1.0
    m = 0
    for _ in range(4):
        total += coef * (-f.derivative / x ** (m + 1) - (m + 1) * f.value / x ** (m + 2))
        coef *= (m + 1) * (m + 2)
        m += 3
    return total


# _airy_tail_asym(_TAIL_CUT) as a literal, so the import evaluates no Airy function
_TAIL_BEYOND_CUT = 2.61498612476515e-17


def airy_tail(x):
    """integral_x^infinity Ai(t) dt for -40 <= x <= 1e3, absolute accuracy
    ~1e-15; broadcasts over x, and scalar x gives a float.

    The complementary integral over (-inf, y] is 1 - airy_tail(y).  The
    tail grid's integral below 14 (_tail_integral), integration by parts
    beyond.
    """
    x = _in_range("airy_tail", "argument must lie in the supported range -40 to 1e3",
                  np.asarray(x, dtype=float), _TAIL_LEFT + 0.49, _AIRY_MAX)
    vals, ix = _tail_integral(lambda t, f: f.value, x, _TAIL_BEYOND_CUT)
    out = np.asarray(vals[ix])
    far = x > _TAIL_CUT
    if far.any():
        out[far] = _airy_tail_asym(x[far])
    return _scalar_or_array(out)


# ---------------------------------------------------------------------------
# Bessel J of real order

def bessel_j(alpha: float, x) -> FunctionValuePair:
    """Bessel function J_alpha(x) and its derivative, finite real order
    alpha > -1, 0 <= x <= 1e3 or complex 0 < |x| <= 1e3 off the negative
    axis; broadcasts over x (scalar x gives floats, or complex values for
    complex x).  At x = 0, scipy's limits: J_alpha(0) = 1, 0 or inf for
    alpha = 0, > 0 or < 0, and J_alpha'(0) = 0 (alpha = 0 or > 1), 1/2
    (alpha = 1), inf (0 < alpha < 1) or -inf (alpha < 0).
    """
    alpha = _in_range("bessel_j", "order must be finite and exceed -1",
                      np.float64(alpha), math.nextafter(-1.0, 0.0))
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    off_cut = x.imag != 0.0 if np.iscomplexobj(x) else x == 0.0
    if not ((np.abs(x) <= 1.001 * _BESSEL_MAX) & ((x.real > 0.0) | off_cut)).all():
        raise ValueError("bessel_j: argument must lie in the supported range 1e3, "
                         "nonnegative if real, off 0 and the negative axis if complex")
    from scipy import special
    return FunctionValuePair(_scalar_or_array(special.jv(alpha, x)),
                             _scalar_or_array(special.jvp(alpha, x)))


# ---------------------------------------------------------------------------
# sine integral primitive

def sinc_integral(t):
    """integral_0^t sin(pi u)/(pi u) du = Si(pi t)/pi for every finite t, +-1/2
    where pi t overflows; odd in t, absolute accuracy ~1e-10 (1e-16 for
    |t| >= 1e6); broadcasts over t."""
    t = _in_range("sinc_integral", "argument must be finite", np.asarray(t, dtype=float))
    return _scalar_or_array(_sinc_integral(t))


def _sinc_integral(t):  # unchecked, on a float array
    from scipy import special
    with np.errstate(over="ignore"):
        si, _ = special.sici(math.pi * np.abs(t))
    return np.copysign(si, t) / math.pi
