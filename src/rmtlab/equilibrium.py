"""Equilibrium measures for polynomial external fields.

One-cut equilibrium measures come from Newton's method on the endpoint
equations (Saff-Totik, Logarithmic Potentials with External Fields, 1997,
ch. IV; Deift-Kriecherbauer-McLaughlin, J. Approx. Theory 95, 1998).  On a
soft edge, with support [c - r, c + r] and x = c + r cos(theta),

    mean_theta V'(x) = 0,        mean_theta r cos(theta) V'(x) = 2;

on a hard edge, support [0, b] and x = b (1 + cos theta)/2, the single
equation

    (1/2 pi) Int_0^b V'(x) sqrt(x/(b - x)) dx = (1/2) mean_theta x V'(x) = 1.

Both say that grad Phi = 0 for the Mhaskar-Saff functional of the interval,
Phi = mean_theta V(x) - 2 log r (soft) or - 2 log b (hard), whose least
value picks the support among intervals (Saff-Totik ch. IV).  So on a soft
edge Newton descends on Phi from an interval that encloses every critical
point of V, with the Hessian shifted positive definite where it is not; on
a hard edge the equation is a polynomial in b, and Newton polishes the
positive root of least Phi.  For polynomial V the theta-means are exact on
deg V + 2 Gauss-Chebyshev nodes, and so is the Jacobian (through V'').  The
density is

    soft:  rho(x) = h(x) sqrt((b-x)(x-a))/pi,  h(x) = (1/2) mean (V'(x) - V'(t))/(x - t),
    hard:  rho(x) = h(x) sqrt((b-x)/x)/pi,     h(x) = (1/2) mean (xV'(x) - tV'(t))/(x - t),

the means over the arcsine law t of the support; h is exact polynomial
algebra on the arcsine moments.

On both edges dmu = p(t) dt/sqrt(1 - t^2), t = (x - c)/r, with the
polynomial p = r h(x)(1 - t)/pi, times r(1 + t) on a soft edge.  So the
power moments are exact means of pi p(t) x^j on 2 deg V + 4 Gauss-Chebyshev
nodes, and one Chebyshev-T expansion of p gives Int log|x - y| dmu exactly
on the support, through Int log|t - s| T_k(s) ds/sqrt(1 - s^2) =
-pi T_k(t)/k (and -pi log 2 for k = 0).  Off the support the effective
potential is 2 phi, phi(x) = Int_b^x h(s) sqrt((s-a)(s-b)) ds (soft) or
Int_b^x h(s) sqrt((s-b)/s) ds (hard), mirrored from a on the left.

Failures are honest: MultiCutError when h < -1e-10 max|h| somewhere on the
support, or the effective potential is negative at a real zero of h off
it (its only possible minima there); NonConvergenceError when |h| <=
1e-6 max|h| at an endpoint (the edge-critical case, where the Jacobian is
singular and the endpoint is fixed only to about the square root of the
rounding error), or when Newton does not settle in 60 steps.

Also provides the density / effective-potential / classification helpers
(V = mu.potential) and the brute-force grid minimizer, an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial import polynomial as npoly

from .quadrature import gauss_legendre_panels
from .specfun import ALPHA_MAX

__all__ = [
    "Potential",
    "EquilibriumMeasure",
    "GridMeasure",
    "MultiCutError",
    "NonConvergenceError",
    "solve_equilibrium",
    "qv",
    "density",
    "phi",
    "effective_potential",
    "classify",
    "grid_energy_minimize",
]


class MultiCutError(ArithmeticError):
    """The one-cut ansatz is not the equilibrium measure: its support has
    more than one component."""


class NonConvergenceError(ArithmeticError):
    """An iterative routine exhausted its budget, or its answer is not
    determined to working accuracy (an edge-critical potential)."""


@dataclass(frozen=True)
class Potential:
    """Polynomial external field V(x) = sum coefficients[k] x^k.

    hard_edge restricts the support to [0, inf) with weight x^alpha e^{-NV};
    singularity_alpha is the exponent alpha (also the strength of the
    |x|^{2 alpha} spectral singularity on the full line), 0 <= alpha <=
    ALPHA_MAX.  The singularity never alters the equilibrium measure
    itself, only local statistics, so the solver ignores it by design.
    """

    coefficients: tuple
    hard_edge: bool = False
    singularity_alpha: float = 0.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.coefficients)
        object.__setattr__(self, "coefficients", c)
        d = self.degree
        if not all(math.isfinite(v) for v in c):
            raise ValueError("potential coefficients must be finite")
        if not 0.0 <= self.singularity_alpha <= ALPHA_MAX:
            raise ValueError(f"singularity_alpha must lie in [0, {ALPHA_MAX:g}]")
        if self.hard_edge:
            if d < 1 or c[-1] <= 0.0:
                raise ValueError("hard-edge potential needs positive leading coefficient")
            # V'(0) > 0 and no root of V' on (0, inf); coefficients too far
            # apart for the companion matrix are a numerical failure
            with np.errstate(over="raise", invalid="raise"):
                roots = _real_roots(npoly.polyder(np.asarray(c)))
            if not c[1] > 0.0 or np.any(roots > 0.0):
                raise ValueError("hard-edge potential must have V' > 0 on [0, inf)")
        else:
            if d < 2 or d % 2:
                raise ValueError("potential must have even degree >= 2")
            if c[-1] <= 0.0:
                raise ValueError("potential needs a positive leading coefficient")

    @property
    def degree(self) -> int:
        c = self.coefficients
        d = len(c) - 1
        while d > 0 and c[d] == 0.0:
            d -= 1
        return d

    def __call__(self, x):
        return npoly.polyval(x, np.asarray(self.coefficients))


@dataclass
class EquilibriumMeasure:
    """One-cut equilibrium measure.

    density on [a, b]:      (1/pi) h(x) sqrt((b-x)(x-a))
    hard edge, on [0, b]:   (1/pi) h(x) sqrt((b-x)/x)

    h is a polynomial (coefficients ascending); moments are the power
    moments m_0 .. m_{deg V + 2}; ell the Euler-Lagrange constant.
    iterations counts the Newton steps on the endpoint equations (bracket
    growth not included), and residual is the largest endpoint-equation
    residual at the returned support.
    """

    potential: Potential
    support: tuple
    h: np.ndarray
    moments: np.ndarray
    ell: float
    iterations: int = 0
    residual: float = 0.0

    @property
    def solver(self) -> str:
        return "hard-newton" if self.potential.hard_edge else "soft-newton"

    @property
    def margin(self) -> float:
        """One-cut margin min h / max |h| on the support."""
        hmin, hmax = _h_range(self.h, *self.support)
        return hmin / hmax


# ---------------------------------------------------------------------------
# q from moments (exact polynomial arithmetic)

def qv(mu: EquilibriumMeasure, x):
    """q(x) = V'(x)^2/4 - Int (V'(x) - V'(t))/(x - t) dmu(t) for the
    equilibrium measure mu of V = mu.potential, from its power moments:
    a polynomial, less beta/x on the half line, where beta = Int V' dmu."""
    V, moments = mu.potential, mu.moments
    vp = npoly.polyder(np.asarray(V.coefficients[: V.degree + 1]))
    x = np.asarray(x, dtype=float)
    val = npoly.polyval(x, npoly.polysub(npoly.polymul(vp, vp) / 4.0, _divided_mean(vp, moments)))
    if V.hard_edge:
        if np.any(x == 0.0):
            raise ZeroDivisionError("qv: x = 0 is the hard-edge pole")
        val = val - float(vp @ moments[: V.degree]) / x  # beta = Int V' dmu
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# endpoint equations

_NEWTON_STEPS = 60

_PHI_T, _PHI_W = (v[0] for v in gauss_legendre_panels(0.0, 1.0, 1, 96))


def _real_roots(coeffs: np.ndarray):
    """Real roots, ascending, of the polynomial with ascending coefficients.

    A leading coefficient c_n is dropped while the rest, of degree
    1 <= m < n, has roots it cannot move: |c_n| R^(n-m) <= eps |c_m|, so
    c_n x^n is below the rounding of the rest on the Cauchy disc
    |x| <= R = 1 + max_k |c_k / c_m| that holds their roots (compared in
    logarithms).  The roots c_n adds lie beyond R, and dividing by it would
    overflow the companion matrix."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    while len(c) > 2:
        rest = np.trim_zeros(c[:-1], "b")
        if len(rest) < 2:
            break
        logs = np.log(np.abs(rest[rest != 0.0]))
        reach = (len(c) - len(rest)) * np.logaddexp(0.0, logs.max() - logs[-1])
        if math.log(abs(c[-1])) - logs[-1] + reach > math.log(np.finfo(float).eps):
            break
        c = rest
    if len(c) <= 1:
        return np.array([])
    r = npoly.polyroots(c)
    return np.sort(r[np.abs(r.imag) < 1e-7 * (1.0 + np.abs(r).max())].real)


def _soft_newton(v, t):
    """Support [c - r, c + r] by descending Newton on grad Phi = 0 over the
    arcsine nodes t (module docstring); also the Newton steps and the
    residual of the endpoint equations (grad Phi with its r-part times r)."""
    vp = npoly.polyder(v)
    vpp = npoly.polyder(vp)
    # a mean is taken as sum() / m, the arithmetic of ndarray.mean without
    # its Python wrapper, which would cost more than the sum on these nodes
    m, tt = len(t), t * t

    def merit(c, r):
        return npoly.polyval(c + r * t, v).sum() / m - 2.0 * math.log(r)

    def equations(c, r):
        x = c + r * t
        d1, d2 = npoly.polyval(x, vp), npoly.polyval(x, vpp)
        grad = np.array([d1.sum() / m, (t * d1).sum() / m - 2.0 / r])
        cross = (t * d2).sum() / m
        hess = np.array([[d2.sum() / m, cross], [cross, (tt * d2).sum() / m + 2.0 / (r * r)]])
        return grad, hess, np.array([grad[0], r * grad[1]])

    # start outside the outermost critical point of V, with mean r t V'(x)
    # at 4x its target 2: from r = 1 Newton can run off to infinity
    # (critical quartic)
    roots = _real_roots(vp)
    c, r = 0.5 * (roots[0] + roots[-1]), max(0.5 * (roots[-1] - roots[0]), 1.0)
    while equations(c, r)[2][1] < 6.0:
        r *= 1.5
    for it in range(1, _NEWTON_STEPS + 1):
        grad, hess, _ = equations(c, r)
        shift = max(0.0, -2.0 * np.linalg.eigvalsh(hess)[0])
        try:
            dc, dr = np.linalg.solve(hess + shift * np.eye(2), grad)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular endpoint Jacobian") from None
        if abs(dc) + abs(dr) <= 4e-16 * (abs(c) + r):
            c, r = c - dc, r - dr
            break
        level = merit(c, r)
        level += 1e-13 * (1.0 + abs(level))  # Phi is flat to rounding near its minimum
        for _ in range(50):
            if r - dr > 0.0 and merit(c - dc, r - dr) <= level:
                break
            dc, dr = 0.5 * dc, 0.5 * dr
        else:
            raise NonConvergenceError("endpoint Newton found no descent step")
        c, r = c - dc, r - dr
    else:
        raise NonConvergenceError(f"endpoint Newton did not settle in {_NEWTON_STEPS} steps")
    return (c - r, c + r), it, float(np.abs(equations(c, r)[2]).max())


def _hard_newton(v, u):
    """b from mean x V'(x) = 2, x = b u over the arcsine nodes u of [0, 1].

    The left side is a polynomial in b that vanishes at b = 0; its positive
    roots are the critical points of Phi(b) = mean V(x) - 2 log b, and the
    one of least Phi, polished by Newton, is the support of a one-cut
    measure.  Returns b, the Newton steps and the residual."""
    mom = np.mean(u[:, None] ** np.arange(len(v)), axis=0)
    f = 0.5 * np.arange(len(v)) * v * mom
    f[0] -= 1.0
    roots = _real_roots(f)
    roots = roots[roots > 0.0]
    if not roots.size:
        raise NonConvergenceError("hard-edge endpoint equation mean x V'(x) = 2, x = b u, "
                                  "has no positive root b")
    b = min(roots, key=lambda x: npoly.polyval(x, v * mom) - 2.0 * math.log(x))
    fp = npoly.polyder(f)
    for it in range(1, _NEWTON_STEPS + 1):
        step = npoly.polyval(b, f) / npoly.polyval(b, fp)
        b -= step
        if abs(step) <= 4e-16 * b:
            break
    else:
        raise NonConvergenceError(f"endpoint Newton did not settle in {_NEWTON_STEPS} steps")
    return float(b), it, abs(float(npoly.polyval(b, f)))


def _divided_mean(w, m):
    """Coefficients of Int (W(x) - W(t))/(x - t) dmu(t), W = sum w_j x^j,
    from the power moments m of mu."""
    out = np.zeros(max(len(w) - 1, 1))
    for j in range(1, len(w)):
        out[:j] += w[j] * m[j - 1::-1]
    return out


def _h_range(h, a, b):
    """Minimum and max |h| of the polynomial h on [a, b]."""
    crit = _real_roots(npoly.polyder(h))
    xs = np.concatenate([[a, b], crit[(crit > a) & (crit < b)]])
    hv = npoly.polyval(xs, h)
    return float(hv.min()), float(np.abs(hv).max())


def solve_equilibrium(V: Potential) -> EquilibriumMeasure:
    """Solve the one-cut equilibrium problem for the potential V by Newton
    on the endpoint equations (see the module docstring).

    Raises NonConvergenceError when h (nearly) vanishes at an endpoint,
    where the endpoint Jacobian is singular, or when Newton does not
    settle; MultiCutError when h < 0 somewhere on the support or the
    effective potential is negative at a real zero of h off it, so that
    the one-cut ansatz is not the equilibrium measure; ArithmeticError
    ("non-finite value ...") when a step overflows or turns invalid,
    before numpy can warn.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _solve_one_cut(V)
    except FloatingPointError as exc:
        raise ArithmeticError(f"non-finite value in the equilibrium solve ({exc})") from None


def _solve_one_cut(V: Potential) -> EquilibriumMeasure:
    v = np.asarray(V.coefficients[: V.degree + 1])
    t = chebyshev.chebgauss(V.degree + 2)[0]
    if V.hard_edge:
        b, it, resid = _hard_newton(v, 0.5 * (1.0 + t))
        a, w = 0.0, npoly.polymulx(npoly.polyder(v))
    else:
        (a, b), it, resid = _soft_newton(v, t)
        w = npoly.polyder(v)
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    x = c + r * t
    h = 0.5 * _divided_mean(w, np.mean(x[:, None] ** np.arange(len(w)), axis=0))

    hmin, hmax = _h_range(h, a, b)
    for edge in ([b] if V.hard_edge else [a, b]):
        if abs(npoly.polyval(edge, h)) <= 1e-6 * hmax:
            raise NonConvergenceError(
                f"h vanishes at the endpoint {edge:.6g} (edge-critical potential): "
                "the endpoint equations are singular there")
    if hmin < -1e-10 * hmax:
        raise MultiCutError(
            f"h changes sign on [{a:.6g}, {b:.6g}] (min h / max h = {hmin / hmax:.2e})")
    # moments m_0 .. m_{deg V + 2} (module docstring); with the factor r a
    # support that rounds to a point gives 0/0, an ArithmeticError
    t = chebyshev.chebgauss(2 * len(v) + 2)[0]
    x = c + r * t
    p = r * npoly.polyval(x, h) * (1.0 - t) * (1.0 if V.hard_edge else r * (1.0 + t))
    m = p @ (x[:, None] ** np.arange(len(v) + 2))
    mu = EquilibriumMeasure(potential=V, support=(a, b), h=h, moments=m / m[0], ell=0.0,
                            iterations=it, residual=resid)
    # off the support the effective potential has its minima at the real zeros of h
    roots = _real_roots(h)
    xs = np.r_[roots[roots > b], [] if V.hard_edge else roots[roots < a]]
    e = effective_potential(mu, xs)
    bad = e < -1e-10 * (1.0 + np.abs(V(xs)))
    if bad.any():
        raise MultiCutError(f"effective potential {e[bad][0]:.2e} < 0 at x = {xs[bad][0]:.6g} "
                            "off the support")
    mu.ell = float(V(c)) - 2.0 * _log_transform(mu, c).real
    return mu


# ---------------------------------------------------------------------------
# density, log potential, phi and the effective potential

def density(mu: EquilibriumMeasure, x):
    """rho(x) = h(x) sqrt((b-x)(x-a))/pi, or h(x) sqrt((b-x)/x)/pi on a
    hard edge (infinite at x = 0); zero off the support."""
    x = np.asarray(x, dtype=float)
    a, b = mu.support
    hv = np.maximum(npoly.polyval(x, mu.h), 0.0)
    if mu.potential.hard_edge:
        xs = np.where(x > 0.0, x, 1.0)
        root = np.where(x > 0.0, np.sqrt(np.maximum(b - x, 0.0) / xs),
                        np.where(x == 0.0, np.inf, 0.0))
    else:
        root = np.sqrt(np.maximum((b - x) * (x - a), 0.0))
    val = hv * root / np.pi
    return val if val.ndim else float(val)


def _arcsine_chebyshev(mu: EquilibriumMeasure):
    """c, r and the Chebyshev-T coefficients of the polynomial p with
    dmu = p(t) dt/sqrt(1 - t^2), x = c + r t, on both edges."""
    a, b = mu.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    # h(c + r t) by Horner on coefficient arrays, the operations of
    # Polynomial(h)(Polynomial([c, r])) without the class machinery
    p = np.array([mu.h[-1] + 0.0])
    for hj in mu.h[-2::-1]:
        p = npoly.polyadd(hj, npoly.polymul(p, [c, r]))
    p = npoly.polymul(p, [1.0, -1.0])
    if not mu.potential.hard_edge:
        p = npoly.polymul(p, [r, r])
    return c, r, chebyshev.poly2cheb(p * (r / np.pi))


def _log_transform(mu: EquilibriumMeasure, z):
    """g(z) = Int log(z - y) dmu(y), principal branch, broadcast over complex
    z off (-inf, b]; on the support (Im z = +0) the boundary value from
    above, Int log|x - y| dmu(y) + i pi mu([x, b]).

    With w = (z - c)/r and zeta = w + sqrt(w - 1) sqrt(w + 1), |zeta| >= 1,
    Int log(w - s) T_k(s) ds/sqrt(1 - s^2) = -pi zeta^{-k}/k (k >= 1) and
    pi log(zeta/2) (k = 0), so the Chebyshev-T coefficients of p
    (_arcsine_chebyshev) give g exactly."""
    c, r, p = _arcsine_chebyshev(mu)
    w = (np.asarray(z, dtype=complex) - c) / r
    zeta = w + np.sqrt(w - 1.0) * np.sqrt(w + 1.0)
    k = np.arange(1, len(p))
    series = npoly.polyval(1.0 / zeta, np.r_[0.0, p[1:] / k])
    return np.pi * (p[0] * (math.log(0.5 * r) + np.log(zeta)) - series)


def phi(mu: EquilibriumMeasure, z, side: str = "right"):
    """phi(z) = Int_b^z h(s) R(s) ds along a straight path, R(s) =
    ((s-a)(s-b))^{1/2} on a soft edge and ((s-b)/s)^{1/2} on a hard edge;
    side 'left' (soft edge only) is the mirror image Int_z^a h(s)
    ((a-s)(b-s))^{1/2} ds.  For z on (a, b) this is the +side boundary value
    of the right variant; off the support the effective potential is
    2 phi.  Broadcasts over z; returns complex values."""
    u, core = _phi_core(mu, z, side)
    return 2.0 * u * np.sqrt(u) * core


def _phi_core(mu: EquilibriumMeasure, z, side: str = "right"):
    """u = z - b (or a - z on the left) and the analytic factor
    core = Int_0^1 t^2 h(s) R(s) dt, s = e + (z - e) t^2, of
    phi = 2 u^{3/2} core; core is analytic and positive at the endpoint e."""
    a, b = mu.support
    hard = mu.potential.hard_edge
    if side == "right":
        sign, e, o = 1.0, b, a
    elif side == "left" and not hard:
        sign, e, o = -1.0, a, b
    else:
        raise ValueError("side must be 'right' or, on a soft edge, 'left'")
    u = sign * (np.asarray(z, dtype=complex) - e)
    u = np.where((u.imag == 0.0) & (u.real < 0.0) & (u.real > a - b), u + 1e-300j, u)
    # s = e + (z - e) t^2 isolates the u^{3/2} factor
    s = e + sign * u[..., None] * _PHI_T ** 2
    root = np.sqrt(sign * (s - o))
    core = (_PHI_W * _PHI_T ** 2 * npoly.polyval(s, mu.h)
            * (1.0 / root if hard else root)).sum(axis=-1)
    return u, core


def effective_potential(mu: EquilibriumMeasure, x):
    """2 Int log(1/|x-y|) dmu(y) + V(x) - ell, V = mu.potential: zero on
    the support and 2 phi off it, nonnegative for a one-cut measure; x >= 0
    on a hard edge."""
    V = mu.potential
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not x.size:  # as for the real zeros of h off a convex V's support
        return x
    a, b = mu.support
    if V.hard_edge and np.any(x < 0.0):
        raise ValueError("the hard-edge effective potential lives on x >= 0")
    val = np.empty_like(x)
    inside = (x >= a) & (x <= b)
    val[inside] = V(x[inside]) - 2.0 * _log_transform(mu, x[inside]).real - mu.ell
    val[x > b] = 2.0 * phi(mu, x[x > b]).real
    if not V.hard_edge:
        val[x < a] = 2.0 * phi(mu, x[x < a], "left").real
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# classification of singular points

def classify(mu: EquilibriumMeasure):
    """Scan for singular points: interior zeros of rho (even order 2k),
    endpoint zeros of h (vanishing order k + 1/2), and real zeros of h off
    the support where the effective potential degenerates to zero.  Returns
    a list of (location, kind, k) with kind in {'interior', 'edge',
    'exterior'}; regular one-cut inputs give []."""
    a, b = mu.support
    width = b - a
    out = []
    roots = _real_roots(mu.h)
    tol = 1e-5 * width
    # cluster root multiplicities
    clusters = []
    for r in roots:
        if clusters and abs(r - clusters[-1][0]) < 100 * tol:
            loc, mult = clusters[-1]
            clusters[-1] = ((loc * mult + r) / (mult + 1), mult + 1)
        else:
            clusters.append((r, 1))
    hscale = _h_range(mu.h, a, b)[1]
    for loc, mult in clusters:
        if not (a - tol <= loc <= b + tol):
            continue
        if abs(npoly.polyval(loc, mu.h)) > 1e-6 * hscale:
            continue
        if min(abs(loc - a), abs(loc - b)) < 100 * tol:
            out.append((float(loc), "edge", mult))
        else:
            k = max(1, round(mult / 2))
            out.append((float(loc), "interior", k))
    # exterior singular points: off the support the effective potential 2 phi
    # has its minima at the real zeros of h, so it can only touch 0 there
    V = mu.potential
    xs = np.array([loc for loc, _ in clusters if loc > b + 100 * tol
                   or (loc < a - 100 * tol and not V.hard_edge)])
    e = effective_potential(mu, xs)
    return out + [(float(x), "exterior", 0) for x in xs[e <= 1e-8 * (1.0 + np.abs(V(xs)))]]


# ---------------------------------------------------------------------------
# discrete-grid oracle

@dataclass
class GridMeasure:
    """Minimizer of the discretized weighted energy on a fixed grid."""

    x: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    energy_path: np.ndarray
    iterations: int


def _simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, len(u) + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _auto_box(V: Potential):
    def reach(x):
        while V(x) - V(0.0) < 40.0:
            x *= 1.3
        return x

    return 0.0 if V.hard_edge else reach(-1.0), reach(1.0)


def grid_energy_minimize(V: Potential, grid_size: int, box=None,
                         max_iter: int = 4000, tol: float = 1e-10,
                         strict: bool = True) -> GridMeasure:
    """Brute-force minimizer of the discretized weighted energy

        E(p) = - sum_ij p_i p_j log|x_i - x_j| + sum_i p_i V(x_i)

    over the probability simplex, by projected gradient with backtracking
    (monotone in energy).  The diagonal carries the cell self-energy
    log(delta) - 3/2 so E is the energy of the step-function measure.
    Serves as the independent oracle for the moment solver (~1e-3).
    """
    if grid_size > 2000:
        raise ValueError("grid_size must not exceed 2000")
    lo, hi = box if box is not None else _auto_box(V)
    delta = (hi - lo) / grid_size
    x = lo + (np.arange(grid_size) + 0.5) * delta
    if V.hard_edge:
        x = x[x > 0]
    dif = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dif, 1.0)
    lmat = np.log(dif)
    np.fill_diagonal(lmat, math.log(delta) - 1.5)
    vvec = V(x)

    p = np.full(len(x), 1.0 / len(x))
    lp = lmat @ p
    energy = float(-p @ lp + p @ vvec)
    path = [energy]
    step = 1.0 / (np.abs(lmat).sum(axis=1).max())
    it = 0
    for it in range(1, max_iter + 1):
        grad = -2.0 * lp + vvec
        eta = step
        for _ in range(40):
            cand = _simplex_project(p - eta * grad)
            lcand = lmat @ cand
            ecand = float(-cand @ lcand + cand @ vvec)
            if ecand <= energy + 1e-15 * abs(energy):
                break
            eta *= 0.5
        move = float(np.abs(cand - p).max())
        p, lp, energy = cand, lcand, ecand
        path.append(energy)
        step = min(eta * 2.0, 1e3)
        if move < tol / len(x):
            break
    else:
        if strict:
            raise NonConvergenceError("grid minimizer exhausted its budget")
    return GridMeasure(x=x, weights=p, density=p / delta,
                       energy_path=np.array(path), iterations=it)
