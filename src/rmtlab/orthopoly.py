"""Orthogonal polynomials for varying weights e^{-N V(x)} and their
Christoffel-Darboux kernels.

Recurrence coefficients come from one pass of the discretized Stieltjes
procedure (Gautschi 2004, sec. 2.2) on max(2400, 16 n_max) composite
Gauss-Legendre nodes, with x = +-u^2 and a Gauss-Jacobi first u-panel at a
hard edge or an origin singularity.  The pass is certified by the exact
virial identities of the weight |x|^e e^{-N V} (Freud 1976), the
integrals of (x^m phi_k^2 w)' for m = 1, 2, which a window that cuts off
weight or too few nodes break: the largest residual over the absolute
terms, at most 1e-12, is kept as verify_delta.  The m = 2 identity is
0 = 0 for an even weight and is left out there; for V = x on a hard edge
it is the one that involves a.  Laguerre and generalized Hermite tables
with alpha <= 100, n_max <= 512 and N/n_max in {1/4, 1, 4} pass them
within 1e-12 of their closed forms.  The truncation window is chosen from
the equilibrium measure of the scaled potential (N/(n_max + e/2)) V plus
an exponential fringe, which is where the weighted polynomials actually
live (|x|^e acts as a charge e/2 at 0); the weight's own tail criterion
alone would truncate into the oscillatory region.

An even weight (no hard edge, no odd power in V) gets an exactly
symmetric window, and the pass runs on the nodes x > 0 of a rule with
half the panels on [0, hi], their weights doubled: phi_k(-x) = (-1)^k
phi_k(x), so b_k = 0 exactly and is not computed.  nodes_used counts the
nodes of the whole mirrored rule.

The constant term of V only scales the weight by e^{-N V(0)}: log_weight
and the quadrature leave it out, so it cannot round away the
x-dependence, and it enters log gamma_k^2 as exactly -N V(0).  The same
orthonormal three-term recurrence, with periodic rescaling and a tracked
log-scale, evaluates phi_k = P_k e^{-N V/2} / gamma_k, so nothing
overflows for n up to 512; a point beyond the window where every phi_k
rounds to 0.0 gets 0.0 without running it.

Every kernel grid is the defining sum K_n(x, y) = sum_{k<n} phi_k(x)
phi_k(y), taken as the Gram product Phi(x)^T Phi(y) of the rows 0..n-1,
on and off the diagonal alike.  The scalar cd_kernel keeps the
Christoffel-Darboux quotient as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import equilibrium as eqm
from .equilibrium import NonConvergenceError, Potential
from .quadrature import gauss_legendre_panels, power_weight_panels

__all__ = [
    "WeightSpec",
    "RecurrenceTable",
    "ScalingWindow",
    "UnderflowError",
    "recurrence_table",
    "weighted_polys",
    "cd_kernel",
    "cd_kernel_grid",
    "cd_kernel_sum",
    "rescaled_kernel",
    "bulk_window",
    "soft_edge_window",
    "hard_edge_window",
    "origin_window",
]


class UnderflowError(ArithmeticError):
    """The weight's dynamic range defeats the log-scaling safeguards."""


@dataclass(frozen=True)
class WeightSpec:
    """Weight |x|^{2 alpha} e^{-N V(x)} on the line, or x^alpha e^{-N V(x)}
    on [0, inf) when the potential carries a hard edge.

    truncation is the integration window half-width (None picks it
    automatically from the scaled equilibrium measure plus fringe)."""

    potential: Potential
    N: int
    truncation: float = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        # the window [-truncation, truncation] must have a finite width
        if self.truncation is not None and not 0.0 < 2.0 * self.truncation < math.inf:
            raise ValueError("truncation must be positive, with 2 * truncation finite")

    @property
    def alpha(self) -> float:
        return self.potential.singularity_alpha

    @property
    def exponent(self) -> float:
        """The power of |x| in the weight: alpha on a hard edge, 2 alpha on the line."""
        return self.alpha if self.potential.hard_edge else 2.0 * self.alpha

    @property
    def even(self) -> bool:
        """The weight is even: no hard edge and no odd power in V."""
        return not self.potential.hard_edge and not any(self.potential.coefficients[1::2])

    def _nv(self, x):
        """N (V(x) - V(0)): the constant term of V only scales the weight by
        e^{-N V(0)}, which log_gamma_sq carries, and left in it would round
        away the x-dependence.  inf where V overflows."""
        c = self.potential.coefficients
        with np.errstate(over="ignore"):
            return self.N * npoly.polyval(x, np.asarray((0.0,) + c[1:]))

    def log_weight(self, x):
        """log of the weight over its constant factor e^{-N V(0)}: -inf where
        it vanishes (x < 0 on a hard edge) or V overflows."""
        x = np.asarray(x, dtype=float)
        lw = -self._nv(x)
        if self.alpha != 0.0:
            with np.errstate(divide="ignore"):
                lw = lw + self.exponent * np.log(np.abs(x))
        return np.where(x < 0.0, -np.inf, lw) if self.potential.hard_edge else lw

    def window(self, n_max: int, measure=None):
        """Integration window [lo, hi].  The automatic one reads measure,
        the equilibrium measure of (N/d) V at the degree d = n_max + e/2,
        solved for if not given: the top polynomial P_{n_max} under e^{-N V}
        spreads over its support, and |x|^e acts as a charge e/2 at 0 (exact
        for a hard edge and an even V, whose endpoint equation gains e/n)."""
        degree = n_max + self.exponent / 2.0
        ratio, pot = self.N / degree, self.potential
        scaled = Potential(tuple(c * ratio for c in pot.coefficients),
                           hard_edge=pot.hard_edge, singularity_alpha=pot.singularity_alpha)
        if measure is not None and measure.potential != scaled:
            raise ValueError("measure is not the equilibrium measure of (N/(n_max + e/2)) V")
        if self.truncation is not None:
            lo = 0.0 if pot.hard_edge else -self.truncation
            hi = self.truncation
            self._check_tail(lo, hi)
            return lo, hi
        if measure is None:
            measure = eqm.solve_equilibrium(scaled)
        return _auto_window(self, degree, measure)

    def _check_tail(self, lo, hi):
        lw = self.log_weight(np.linspace(lo, hi, 512))
        tail = lw[-1] if self.potential.hard_edge else max(lw[0], lw[-1])
        if tail > lw.max() + math.log(1e-30):
            raise ValueError("truncation window too small: weight tail not negligible")


def _auto_window(w: WeightSpec, degree: float, mu):
    """Support of the scaled equilibrium measure mu plus the fringe where
    the top weighted polynomial has decayed below ~1e-32 of its peak."""
    a, b = mu.support
    target = 74.0

    def fringe(side):
        slope = max(_soft_edge_constant(mu, side), 1e-12)
        return 1.3 * (3.0 * target / (4.0 * degree * slope)) ** (2.0 / 3.0)

    hi = b + fringe("right")
    if w.even:  # exactly symmetric, so the Stieltjes pass can run on [0, hi]
        return -hi, hi
    return (0.0 if w.potential.hard_edge else a - fringe("left")), hi


@dataclass
class RecurrenceTable:
    """Monic recurrence x P_k = P_{k+1} + b_k P_k + a_k P_{k-1} plus the
    squared norms gamma_k^2 = <P_k, P_k>_w."""

    N: int
    n_max: int
    a: np.ndarray             # a_k for k = 1..n_max
    b: np.ndarray             # b_k for k = 0..n_max
    log_gamma_sq: np.ndarray  # log gamma_k^2, k = 0..n_max
    window: tuple             # truncation interval (lo, hi)
    nodes_used: int           # nodes of the Stieltjes pass
    log_mass: float           # log gamma_0^2 + N V(0): the mass of exp(log_weight)
    verify_delta: float       # virial residual of the pass, at most 1e-12

    @property
    def gamma_sq(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # 0.0 where it underflows, inf where it overflows
            return np.exp(self.log_gamma_sq)


# Node count of the Stieltjes pass: max(_NODES_MIN, 16 n_max), in Gauss
# panels of _PANEL_ORDER points.
_NODES_MIN = 2400
_PANEL_ORDER = 32


def _logsumexp(v):
    """log(sum(exp(v))) in the arithmetic of scipy.special.logsumexp: the
    largest terms apart, the rest shifted by the maximum."""
    top = v.max()
    hit = v == top
    count = np.float64(np.count_nonzero(hit))
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.exp(np.where(hit, -np.inf, v) - top).sum()
        return np.log1p(rest / count if rest else rest) + np.log(count) + top


def _stieltjes(w: WeightSpec, n_max: int, lo: float, hi: float, nodes: int):
    """Discretized Stieltjes procedure (Gautschi 2004, sec. 2.2) on about
    `nodes` nodes; returns (a, b, log gamma_0^2 + N V(0), node count, virial
    residual).  An even weight on its symmetric window runs only the nodes
    x > 0 of a rule with half the panels on [0, hi], doubled weights:
    b_k = 0 exactly, and the count is that of the mirrored rule."""
    panels = max(4, math.ceil(nodes / _PANEL_ORDER))
    power = w.potential.hard_edge or (w.alpha != 0.0 and lo < 0.0 < hi)
    even = w.even
    if even:
        lo, panels = 0.0, (panels + 1) // 2
    if power:
        # x = +-u^2 absorbs |x|^exponent; an overflowing V is a -inf
        # log-weight, and a window too wide ends in the checks below
        x, lw = power_weight_panels(lo, hi, w.exponent, panels, _PANEL_ORDER)
        lw -= w._nv(x)
    else:
        x, qw = (v.ravel() for v in gauss_legendre_panels(lo, hi, panels, _PANEL_ORDER))
        lw = np.log(qw) + w.log_weight(x)
    if even:
        lw += math.log(2.0)
    log_g0 = _logsumexp(lw)
    if not np.isfinite(log_g0):
        raise UnderflowError("weight vanishes identically on the grid")
    # the rows N x V'(x), N |x| sum_j j |v_j| |x|^{j-1} and, unless the
    # weight is even (0 = 0 there), the same times x and |x|: the identity
    # N <x^2 V' phi_k, phi_k> = (2k + e) b_k + 2 sum_{j<=k} b_j pins a where
    # V' is constant.  An overflow ends in a breakdown or a nan residual
    dv, ax = npoly.polyder(w.potential.coefficients), np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        virial = w.N * np.array([x * npoly.polyval(x, dv), ax * npoly.polyval(ax, np.abs(dv))])
        if not even:
            virial = np.concatenate([virial, virial * [x, ax]])
        a, b, sums = _scaled_recurrence(x, 0.5 * (lw - log_g0), n_max, even=even, virial=virial)
        k = 2.0 * np.arange(n_max + 1) + w.exponent
        rights = [(k + 1.0, k + 1.0),
                  (k * b + 2.0 * np.cumsum(b), k * np.abs(b) + 2.0 * np.cumsum(np.abs(b)))]
        resid = float(np.max([np.abs(c - r) / (s + t) for (c, s), (r, t) in
                              zip(sums.reshape(-1, 2, n_max + 1), rights)]))
    return a, b, log_g0, len(x) * (2 if even else 1), resid


def recurrence_table(w: WeightSpec, n_max: int, measure=None) -> RecurrenceTable:
    """Recurrence coefficients and norms for the weight, up to n_max <= 512.

    One Stieltjes pass on max(2400, 16 n_max) nodes, certified by the
    virial identities of the weight |x|^e e^{-N V} (Freud 1976), N <x V'
    phi_k, phi_k> = 2k + 1 + e and, unless the weight is even, N <x^2 V'
    phi_k, phi_k> = (2k + e) b_k + 2 sum_{j<=k} b_j: NonConvergenceError
    when a residual, relative to the absolute terms, exceeds 1e-12; the
    largest is kept as verify_delta.  measure, the equilibrium measure of
    (N/(n_max + e/2)) V, spares the window its own solve (ValueError for
    the measure of any other potential).  The constant term of V enters
    only log_gamma_sq, as exactly -N V(0).
    """
    if not 1 <= n_max <= 512:
        raise ValueError("n_max must be between 1 and 512")
    lo, hi = w.window(n_max, measure)
    a, b, log_g0, used, resid = _stieltjes(w, n_max, lo, hi, max(_NODES_MIN, 16 * n_max))
    if not resid <= 1e-12:
        raise NonConvergenceError(f"virial residual {resid:.1e} on {used} nodes (limit 1e-12)")
    log_gamma0 = log_g0 - w.N * w.potential.coefficients[0]
    return RecurrenceTable(N=w.N, n_max=n_max, a=a, b=b,
                           log_gamma_sq=log_gamma0 + np.concatenate([[0.0], np.cumsum(np.log(a))]),
                           window=(lo, hi), nodes_used=used, log_mass=log_g0,
                           verify_delta=resid)


# ---------------------------------------------------------------------------
# weighted functions and kernels

def _scaled_recurrence(x, logscale, n, t: RecurrenceTable = None, even=False, virial=None):
    """The one orthonormal three-term recurrence r_k = (x - b_k) phi_k -
    sqrt(a_k) phi_{k-1} = sqrt(a_{k+1}) phi_{k+1} on the points x, from
    phi_0 = exp(logscale).  phi_k is carried as y_k exp(logscale_k); every
    8 steps y is divided pointwise by max(|y_k|, |y_{k-1}|), whose log
    joins the log-scale, so neither polynomial growth nor a tiny weight
    leaves the double range.  Each step writes into buffers allocated once.
    even says the weight is even: b_k = 0 and x - b_k = x, so neither is
    computed (a table's pass runs on the half x > 0 of a symmetric rule).

    Without a table, x are quadrature nodes whose weights are folded into
    phi_0, and b_k = sum x phi_k^2, a_{k+1} = sum r_k^2 are discrete inner
    products, as is sums[:, k] = sum virial phi_k^2, taken in one product
    per block of 8 steps, over which the mass exp(2 logscale) is constant
    (verify_delta may differ from a per-step sum in its last bits); returns
    (a, b, sums).  With a table, returns (y, logs): the rows y_k, k = 0..n,
    and one log-scale row per block of 8 of them."""
    build = t is None
    a, b = (np.zeros(n), np.zeros(n + 1)) if build else (t.a, t.b)
    logscale = np.array(logscale, dtype=float)  # a copy: updated in place
    size = len(x)
    cur, prev, tmp = np.ones(size), np.zeros(size), np.empty(size)
    xb = x if even else np.empty(size)
    s_prev = 0.0
    if build:
        mass = np.exp(2.0 * logscale)
        vm, sums, sq = virial * mass, np.empty((len(virial), n + 1)), np.empty((8, size))
        sums[:, 0] = vm.sum(axis=1)
    else:
        y, logs = np.empty((n + 1, size)), np.empty((n // 8 + 1, size))
        y[0], logs[0] = cur, logscale
    for k in range(n + 1):
        if build and not even:
            np.multiply(x, cur, out=tmp)
            tmp *= cur
            b[k] = np.dot(tmp, mass)
        if k == n:
            break
        # r overwrites prev, whose last use is s_prev * prev
        if not even:
            np.subtract(x, b[k], out=xb)
        np.multiply(prev, s_prev, out=tmp)
        r = np.multiply(xb, cur, out=prev)
        r -= tmp
        if build:
            j = k % 8
            a[k] = np.dot(np.multiply(r, r, out=sq[j]), mass)
            if not a[k] > 0.0:
                raise NonConvergenceError("Stieltjes breakdown: too few nodes")
            if j == 7 or k == n - 1:  # r^2 = a_{k+1} phi_{k+1}^2
                sums[:, k - j + 1:k + 2] = vm @ sq[:j + 1].T
        s = math.sqrt(a[k])
        r /= s
        prev, cur, s_prev = cur, r, s
        if (k + 1) % 8 == 0:
            m = np.maximum(np.abs(cur), np.abs(prev, out=tmp))
            m[~(m > 0)] = 1.0
            cur /= m
            prev /= m
            logscale += np.log(m, out=m)
            if build:
                np.exp(np.multiply(2.0, logscale, out=mass), out=mass)
                np.multiply(virial, mass, out=vm)
            else:
                logs[(k + 1) // 8] = logscale
        if not build:
            y[k + 1] = cur
    if build:
        sums[:, 1:] /= a
    return (a, b, sums) if build else (y, logs)


def _underflowed(t: RecurrenceTable, x, log_phi0, n):
    """Mask of the points beyond the window at which every phi_k, k <= n,
    rounds to 0.0, or None if there is none.  The zeros of P_k lie in the
    window [-R, R], so |phi_k(x)| <= phi_0(x) (|x| + R)^k / sqrt(a_1 ...
    a_k).  Where the log of that bound is below -800 (the smallest
    subnormal is e^-744.4) the point gets 0.0 without the recurrence,
    which could overflow there: y grows like |x|^8 between rescales, past
    the double range for |x| above about 1e38."""
    reach = max(-t.window[0], t.window[1])
    far = np.abs(x) > reach
    if not far.any():
        return None
    # |x| + R < 2 |x| there, whose log cannot overflow
    norm = float(np.max(-0.5 * np.cumsum(np.log(t.a[:n])), initial=0.0))
    dead = np.zeros(len(x), dtype=bool)
    dead[far] = log_phi0[far] + n * (math.log(2.0) + np.log(np.abs(x[far]))) + norm < -800.0
    return dead if dead.any() else None


def _phi_recurrence(t: RecurrenceTable, w: WeightSpec, x, n):
    """Orthonormal weighted functions phi_k(x), k = 0..n, from the table,
    shape (n+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if w.potential.hard_edge and np.any(x < 0.0):
        raise ValueError("hard-edge weight evaluated at negative argument")
    # phi_0 = sqrt(weight) / gamma_0
    log_phi0 = 0.5 * (w.log_weight(x) - t.log_mass)
    dead = _underflowed(t, x, log_phi0, n)
    if dead is not None:
        phi = np.zeros((n + 1, len(x)))
        if not dead.all():
            phi[:, ~dead] = _phi_recurrence(t, w, x[~dead], n)
        return phi
    # the recurrence's arrays are scaled in place, each log-scale row over
    # its block of 8 rows of phi
    phi, grow = _scaled_recurrence(x, log_phi0, n, t, even=w.even)
    np.exp(np.minimum(grow, 705.0, out=grow), out=grow)
    phi *= np.repeat(grow, 8, axis=0)[:n + 1]
    return phi


def weighted_polys(t: RecurrenceTable, w: WeightSpec, x, n: int):
    """phi_k(x) = gamma_k^{-1} P_k(x) sqrt(weight(x)) for k = 0..n-1.

    Scalar x gives a list of n floats; array x gives shape (n, len(x))."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    scalar = np.ndim(x) == 0
    out = _phi_recurrence(t, w, x, max(n - 1, 0))[:n]
    return [float(v) for v in out[:, 0]] if scalar else out


def cd_kernel(t: RecurrenceTable, w: WeightSpec, n: int, x: float, y: float) -> float:
    """The Christoffel-Darboux quotient

        K_n(x,y) = sqrt(a_n) [phi_n(x) phi_{n-1}(y) - phi_{n-1}(x) phi_n(y)]
                   / (x - y),

    the sum cd_kernel_sum where |x - y| < 1e-7 (1 + |x|).  A cross-check
    of cd_kernel_grid's Gram product, by a second formula."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    if abs(x - y) < 1e-7 * (1.0 + abs(x)):
        return cd_kernel_sum(t, w, n, x, y)
    (px, py), (qx, qy) = _phi_recurrence(t, w, np.array([x, y]), n)[n - 1:]
    return float((qx * py - px * qy) / (x - y) * math.sqrt(t.a[n - 1]))


def cd_kernel_sum(t: RecurrenceTable, w: WeightSpec, n: int, x: float, y: float) -> float:
    """K_n(x, y) = sum_k phi_k(x) phi_k(y), k < n: one entry of cd_kernel_grid."""
    return float(cd_kernel_grid(t, w, n, x, y)[0, 0])


def cd_kernel_grid(t: RecurrenceTable, w: WeightSpec, n: int, xs, ys) -> np.ndarray:
    """K_n(x, y) = sum_k phi_k(x) phi_k(y), k < n, on the tensor grid
    xs x ys: the Gram product Phi(xs)^T Phi(ys) of one recurrence over the
    distinct bit patterns of xs and ys (a square grid is one set of points)."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    pts, idx = np.unique(np.concatenate([xs, ys]).view(np.int64), return_inverse=True)
    phi = _phi_recurrence(t, w, pts.view(np.float64), n - 1)
    ix, iy = np.split(idx, [len(xs)])
    return phi[:, ix].T @ phi[:, iy]


# ---------------------------------------------------------------------------
# scaling windows

@dataclass(frozen=True)
class ScalingWindow:
    """Centering and rescaling data: reference point x_star, scale constant
    c with exponent e (so c_n = (c n)^e), a 1-d grid of rescaled
    coordinates, and an orientation (-1 flips into the support at a left
    edge)."""

    x_star: float
    exponent: float
    c: float
    grid: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        if self.exponent not in (1.0, 2.0 / 3.0, 2.0):
            raise ValueError("exponent must be 1 (bulk/origin), 2/3 (edge) or 2 (hard edge)")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +-1")
        if not 0.0 < self.c < math.inf:
            raise ValueError("scaling constant c must be finite and positive, "
                             f"got {self.c} at x_star = {self.x_star}")
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))

    def c_n(self, n: int) -> float:
        return (self.c * n) ** self.exponent

    def points(self, n: int) -> np.ndarray:
        return self.x_star + self.orientation * self.grid / self.c_n(n)


def bulk_window(mu, x_star: float, grid) -> ScalingWindow:
    return ScalingWindow(x_star, 1.0, float(eqm.density(mu, x_star)), grid)


def _soft_edge_constant(mu, side: str) -> float:
    """kappa of rho(x) ~ kappa sqrt|x - e|/pi at the soft edge e of mu:
    |h(e)| sqrt(b - a) on the line, |h(b)|/sqrt(b) at the right edge of a
    hard-edge measure, whose left edge 0 is hard (ValueError)."""
    a, b = mu.support
    if side not in ("right", "left") or (side == "left" and mu.potential.hard_edge):
        raise ValueError("side must be 'right' or, on a soft edge, 'left'")
    e = b if side == "right" else a
    he = abs(float(np.polyval(mu.h[::-1], e)))
    return he / math.sqrt(b) if mu.potential.hard_edge else he * math.sqrt(b - a)


def soft_edge_window(mu, grid, side: str = "right") -> ScalingWindow:
    kappa, right = _soft_edge_constant(mu, side), side == "right"
    return ScalingWindow(mu.support[1 if right else 0], 2.0 / 3.0, kappa, grid,
                         orientation=1 if right else -1)


def hard_edge_window(mu, grid) -> ScalingWindow:
    # beta = Int V' dmu = b h(0)^2, read off h as soft_edge_window reads h(b)
    beta = mu.support[1] * float(mu.h[0]) ** 2
    return ScalingWindow(0.0, 2.0, 2.0 * math.sqrt(beta), grid)


def origin_window(mu, grid) -> ScalingWindow:
    return ScalingWindow(0.0, 1.0, float(eqm.density(mu, 0.0)), grid)


def rescaled_kernel(t: RecurrenceTable, w: WeightSpec, n: int,
                    window: ScalingWindow) -> np.ndarray:
    """(1/c_n) K_n at the window's rescaled grid points:

        out[i, j] = K_n(x* + u_i/c_n, x* + u_j/c_n) / c_n

    (arguments sign-flipped at a left edge).  Errors out when the window
    leaves the weight's truncation interval."""
    pts = window.points(n)
    lo, hi = t.window
    if pts.min() < lo - 1e-12 or pts.max() > hi + 1e-12:
        raise ValueError("scaling window leaves the truncation interval")
    cn = window.c_n(n)
    return cd_kernel_grid(t, w, n, pts, pts) / cn
