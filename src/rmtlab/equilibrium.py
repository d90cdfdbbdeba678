"""Equilibrium measures for polynomial external fields.

Solves the weighted logarithmic-energy minimization in the one-cut case by
a damped fixed point on the moments of the measure: a polynomial potential
V of degree d determines

    q(x) = (V'(x)/2)^2 - Int (V'(x) - V'(t))/(x - t) dmu(t)
           [ - (1/x) Int V' dmu   on the half line ]

whose coefficients are linear in the first few moments of mu, and the
minimizer's density is rho(x) = sqrt(max(-q, 0))/pi.  Iterating

    moments  ->  moments of sqrt(q^-)/pi

from a discrete-grid seed converges to the equilibrium measure; a Newton
polish on the same map finishes to ~1e-14 when the damped iteration slows
down (near-critical potentials).

Also provides the density / effective-potential / classification helpers
and the brute-force grid minimizer used as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
from numpy.polynomial import polynomial as npoly
from scipy.special import roots_jacobi

from .quadrature import gauss_chebyshev_u

__all__ = [
    "Potential",
    "EquilibriumMeasure",
    "GridMeasure",
    "MultiCutError",
    "NonConvergenceError",
    "solve_equilibrium",
    "qv",
    "density",
    "effective_potential",
    "classify",
    "grid_energy_minimize",
]


class MultiCutError(RuntimeError):
    """The negative set of q has more than one component."""


class NonConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget."""


@dataclass(frozen=True)
class Potential:
    """Polynomial external field V(x) = sum coefficients[k] x^k.

    hard_edge restricts the support to [0, inf) with weight x^alpha e^{-NV};
    singularity_alpha is the exponent alpha (also the strength of the
    |x|^{2 alpha} spectral singularity on the full line).  The singularity
    never alters the equilibrium measure itself, only local statistics, so
    the solver ignores it by design.
    """

    coefficients: tuple
    hard_edge: bool = False
    singularity_alpha: float = 0.0

    def __post_init__(self):
        c = tuple(float(v) for v in self.coefficients)
        object.__setattr__(self, "coefficients", c)
        d = self.degree
        if self.singularity_alpha < 0.0:
            raise ValueError("singularity_alpha must be nonnegative")
        if self.hard_edge:
            if d < 1 or c[-1] <= 0.0:
                raise ValueError("hard-edge potential needs positive leading coefficient")
            xs = np.linspace(0.0, 10.0 * self._scale(), 512)
            if np.any(self.deriv(xs) <= 0.0):
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

    def _scale(self) -> float:
        lead = self.coefficients[self.degree]
        return max(1.0, (1.0 / lead) ** (1.0 / self.degree))

    def __call__(self, x):
        return npoly.polyval(x, np.asarray(self.coefficients))

    def deriv(self, x):
        return npoly.polyval(x, npoly.polyder(np.asarray(self.coefficients)))

    @property
    def is_even(self) -> bool:
        return all(v == 0.0 for v in self.coefficients[1::2])


@dataclass
class EquilibriumMeasure:
    """One-cut equilibrium measure.

    density on [a, b]:      (1/pi) h(x) sqrt((b-x)(x-a))
    hard edge, on [0, b]:   (1/pi) h(x) sqrt((b-x)/x)

    h is a polynomial (coefficients ascending); moments are the power
    moments of the measure; ell the Euler-Lagrange constant.
    """

    potential: Potential
    support: tuple
    h: np.ndarray
    moments: np.ndarray
    ell: float
    iterations: int = 0
    residual: float = 0.0
    _ucoef: np.ndarray = field(default=None, repr=False)

    def to_text(self) -> str:
        pot = ",".join(repr(float(v)) for v in self.potential.coefficients)
        lines = [
            "rmtlab-eqmeasure v1",
            f"potential {pot}",
            f"hard_edge {int(self.potential.hard_edge)}",
            f"singularity_alpha {float(self.potential.singularity_alpha)!r}",
            f"support {float(self.support[0])!r} {float(self.support[1])!r}",
            f"ell {float(self.ell)!r}",
            "h " + " ".join(repr(float(v)) for v in self.h),
            "moments " + " ".join(repr(float(v)) for v in self.moments),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EquilibriumMeasure":
        rows = [ln.split() for ln in text.strip().splitlines()]
        if rows[0][0] != "rmtlab-eqmeasure" or rows[0][1] != "v1":
            raise ValueError("unrecognized equilibrium-measure record")
        kv = {r[0]: r[1:] for r in rows[1:]}
        pot = Potential(
            tuple(float(v) for v in kv["potential"][0].split(",")),
            hard_edge=bool(int(kv["hard_edge"][0])),
            singularity_alpha=float(kv["singularity_alpha"][0]),
        )
        return cls(
            potential=pot,
            support=(float(kv["support"][0]), float(kv["support"][1])),
            h=np.array([float(v) for v in kv["h"]]),
            moments=np.array([float(v) for v in kv["moments"]]),
            ell=float(kv["ell"][0]),
        )


# ---------------------------------------------------------------------------
# q from moments (exact polynomial arithmetic)

def _q_polynomial(pot: Potential, moments: np.ndarray) -> np.ndarray:
    """Coefficients of the polynomial part of q; moments[j] is the j-th
    power moment of the measure (m_0 = 1 expected)."""
    v = np.asarray(pot.coefficients, dtype=float)
    d = pot.degree
    vp = npoly.polyder(v)
    q = npoly.polymul(vp, vp) / 4.0
    div = np.zeros(max(d - 1, 1))
    for k in range(2, d + 1):
        for i in range(k - 1):
            div[i] += k * v[k] * moments[k - 2 - i]
    return npoly.polysub(q, div)


def _hard_beta(pot: Potential, moments: np.ndarray) -> float:
    """Int V' dmu expressed in moments."""
    v = np.asarray(pot.coefficients, dtype=float)
    return float(sum(k * v[k] * moments[k - 1] for k in range(1, pot.degree + 1)))


def qv(V: Potential, mu: "EquilibriumMeasure | np.ndarray", x):
    """q(x) for the potential V and the measure mu (an EquilibriumMeasure
    or a raw moment vector).  Polynomial in x, plus a -beta/x pole on the
    half line, where beta = Int V' dmu."""
    moments = mu.moments if isinstance(mu, EquilibriumMeasure) else np.asarray(mu)
    q = _q_polynomial(V, moments)
    x = np.asarray(x, dtype=float)
    val = npoly.polyval(x, q)
    if V.hard_edge:
        if np.any(x == 0.0):
            raise ZeroDivisionError("qv: x = 0 is the hard-edge pole")
        val = val - _hard_beta(V, moments) / x
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# support detection

def _real_roots(coeffs: np.ndarray):
    c = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if len(nz) == 0:
        return np.array([])
    c = c[: nz[-1] + 1]
    if len(c) <= 1:
        return np.array([])
    r = npoly.polyroots(c)
    scale = 1.0 + np.abs(r).max()
    rr = np.sort(r[np.abs(r.imag) < 1e-7 * scale].real)
    return rr


def _negativity_interval(pot: Potential, moments: np.ndarray, strict: bool = False):
    """Bracketing interval of the negativity set of q.

    During the iteration (strict=False) a transiently multi-component
    negative set is bracketed by its hull; the density clamp zeroes the
    positive bump in between.  On the converged solution (strict=True) a
    genuinely positive region between negativity components, at relative
    tolerance 1e-9 on a 1e4-point scan with polynomial root polishing,
    raises MultiCutError; q merely touching zero from below (even-order
    interior roots, the critical cases) stays one-cut.
    """
    if pot.hard_edge:
        beta = _hard_beta(pot, moments)
        if beta <= 0.0:
            raise MultiCutError("hard edge not active: Int V' dmu <= 0")
        p = npoly.polysub(
            npoly.polymulx(_q_polynomial(pot, moments)), np.array([beta]))
        roots = _real_roots(p)
        roots = roots[roots > 1e-12]
        if len(roots) == 0:
            raise NonConvergenceError("no positive root of x q(x)")
        # the negative region starts at 0 where q -> -inf
        cells = np.concatenate([[0.0], roots, [roots[-1] * 2 + 1.0]])
        signs = _cell_signs(p, cells)
        if strict:
            _check_one_cut(signs)
        idx = 0
        while idx < len(signs) and signs[idx] <= 0:
            idx += 1
        return 0.0, float(cells[idx])
    q = _q_polynomial(pot, moments)
    roots = _real_roots(q)
    if len(roots) < 2:
        raise NonConvergenceError("q has no real roots; no support found")
    pad = 0.5 * (roots[-1] - roots[0] + 1.0)
    cells = np.concatenate([[roots[0] - pad], roots, [roots[-1] + pad]])
    signs = _cell_signs(q, cells)
    if strict:
        _check_one_cut(signs)
    neg = [i for i, s in enumerate(signs) if s < 0]
    if not neg:
        raise NonConvergenceError("q is nonnegative everywhere")
    return float(cells[neg[0]]), float(cells[neg[-1] + 1])


def _cell_signs(poly, cells):
    scan = npoly.polyval(np.linspace(cells[0], cells[-1], 10_000), poly)
    scale = np.abs(scan).max() + 1e-300
    signs = []
    for lo, hi in zip(cells[:-1], cells[1:]):
        xs = np.linspace(lo, hi, 12)[1:-1]
        vals = npoly.polyval(xs, poly)
        tol = 1e-9 * scale
        if np.all(vals > tol):
            signs.append(1)
        elif np.all(vals < -tol):
            signs.append(-1)
        elif np.all(np.abs(vals) <= tol):
            signs.append(0)
        else:
            signs.append(1 if vals.max() > -vals.min() else -1)
    return signs


def _check_one_cut(signs):
    runs = 0
    prev_pos = True
    for s in signs:
        if s < 0 and prev_pos:
            runs += 1
            prev_pos = False
        elif s > 0:
            prev_pos = True
    if runs > 1:
        raise MultiCutError(f"q has {runs} negativity components")
    if runs == 0:
        raise NonConvergenceError("q is nonnegative everywhere")


# ---------------------------------------------------------------------------
# moment map

_GC_T, _GC_W = gauss_chebyshev_u(320)

_GJ_T, _GJ_W = roots_jacobi(160, 0.5, -0.5)


def _moment_map(pot: Potential, moments: np.ndarray):
    """One application of moments -> moments of sqrt(q^-)/pi, normalized to
    unit mass; also returns the detected support."""
    a, b = _negativity_interval(pot, moments)
    nm = len(moments)
    if pot.hard_edge:
        beta = _hard_beta(pot, moments)
        p = npoly.polysub(npoly.polymulx(_q_polynomial(pot, moments)), np.array([beta]))
        x = 0.5 * b * (_GJ_T + 1.0)
        ratio = np.maximum(-npoly.polyval(x, p) / (b - x), 0.0)
        w = 0.5 * b * _GJ_W / np.pi * np.sqrt(ratio)
        raw = np.array([np.sum(w * x ** j) for j in range(nm)])
    else:
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        x = c + r * _GC_T
        q = _q_polynomial(pot, moments)
        ratio = np.maximum(-npoly.polyval(x, q) / ((b - x) * (x - a)), 0.0)
        w = r * r * _GC_W / np.pi * np.sqrt(ratio)
        raw = np.array([np.sum(w * x ** j) for j in range(nm)])
    if raw[0] <= 0.0:
        raise NonConvergenceError("vanishing mass in moment map")
    return raw / raw[0], (a, b)


def _n_moments(pot: Potential) -> int:
    d = pot.degree
    return max(d - 1, 1) + (1 if pot.hard_edge else 0)


def solve_equilibrium(V: Potential, seed_moments=None, damping: float = 0.5,
                      budget: int = 500) -> EquilibriumMeasure:
    """Solve the one-cut equilibrium problem for the potential V.

    Fixed point on the moment vector (m_0 = 1 held), damped by `damping`,
    seeded from the discrete grid minimizer unless seed_moments is given;
    a finite-difference Newton polish on the same map finishes off when
    the damped iteration has slowed down.  Raises MultiCutError for
    potentials whose q develops more than one negativity component and
    NonConvergenceError when the budget is exhausted.
    """
    nm = _n_moments(V)
    if seed_moments is not None:
        m = np.asarray(seed_moments, dtype=float)[:nm].copy()
        m[0] = 1.0
    elif nm == 1 or V.degree <= 2:
        m = np.zeros(nm)
        m[0] = 1.0
        if nm > 1:
            m[1:] = 0.1
    else:
        g = grid_energy_minimize(V, 400, max_iter=600, tol=1e-8, strict=False)
        m = np.array([np.sum(g.weights * g.x ** j) for j in range(nm)])
        m[0] = 1.0
    even = V.is_even and not V.hard_edge
    if even:
        m[1::2] = 0.0

    resid = np.inf
    lo_hist, hi_hist = np.full(nm, np.inf), np.full(nm, -np.inf)
    it = 0
    for it in range(1, budget + 1):
        new, _ = _moment_map(V, m)
        if even:
            new[1::2] = 0.0
        resid = float(np.abs(new - m).max())
        m = (1.0 - damping) * m + damping * new
        lo_hist = np.minimum(lo_hist, m)
        hi_hist = np.maximum(hi_hist, m)
        if resid < 1e-14 * (1.0 + np.abs(m).max()):
            break
        if it > 60 and resid < 1e-6:
            break
    if resid > 1e-13 * (1.0 + np.abs(m).max()):
        free = [j for j in range(1, nm) if not (even and j % 2)]
        if len(free) == 1:
            # a single free moment: bracketed root finding on the residual,
            # robust through the non-smooth critical point of the map
            m = _brent_refine(V, m, free[0], lo_hist[free[0]], hi_hist[free[0]], even)
            resid = float(np.abs(_moment_map(V, m)[0] - m)[free].max())
        else:
            m, resid = _newton_polish(V, m, even)
        if resid > 1e-10 * (1.0 + np.abs(m).max()):
            raise NonConvergenceError(
                f"moment iteration stalled at residual {resid:.2e} after {it} steps")

    # the converged q must have a single negativity component
    support = _negativity_interval(V, m, strict=True)
    a, b = support
    h = _extract_h(V, m, a, b)
    mu = EquilibriumMeasure(potential=V, support=(a, b), h=h, moments=m,
                            ell=0.0, iterations=it, residual=resid)
    mu.ell = _ell_at_midpoint(mu)
    return mu


def _brent_refine(pot, m, j, lo, hi, even):
    """Root of the scalar residual m_j - Phi_j(m) by bracketing; handles
    the kink that the moment map develops at critical potentials."""
    from scipy.optimize import brentq

    def resid(val):
        mm = m.copy()
        mm[j] = val
        if even:
            mm[1::2] = 0.0
        return float(mm[j] - _moment_map(pot, mm)[0][j])

    span = max(hi - lo, 1e-6 * (1.0 + abs(m[j])))
    a, b = lo - 0.5 * span, hi + 0.5 * span
    fa, fb = resid(a), resid(b)
    grow = 0
    while fa * fb > 0 and grow < 40:
        a -= span
        b += span
        fa, fb = resid(a), resid(b)
        grow += 1
    if fa * fb > 0:
        raise NonConvergenceError("could not bracket the moment fixed point")
    root = brentq(resid, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    out = m.copy()
    out[j] = root
    if even:
        out[1::2] = 0.0
    return out


def _newton_polish(pot, m, even, steps: int = 12):
    """Newton on R(m) = m - Phi(m) over the free coordinates, finite
    difference Jacobian; the map is low dimensional (deg V - 2 unknowns)."""
    nm = len(m)
    free = [j for j in range(1, nm) if not (even and j % 2)]
    resid = np.inf
    for _ in range(steps):
        phi, _ = _moment_map(pot, m)
        r = (m - phi)[free]
        resid = float(np.abs(r).max()) if len(r) else 0.0
        if resid < 1e-14 * (1.0 + np.abs(m).max()) or len(r) == 0:
            break
        eps = 1e-7
        jac = np.zeros((len(free), len(free)))
        for col, j in enumerate(free):
            mp = m.copy()
            mp[j] += eps
            phij, _ = _moment_map(pot, mp)
            jac[:, col] = ((mp - phij)[free] - r) / eps
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
        m = m.copy()
        m[free] -= step
    phi, _ = _moment_map(pot, m)
    resid = float(np.abs((m - phi)[free]).max()) if free else 0.0
    return m, resid


def _extract_h(pot, moments, a, b):
    """Polynomial h with rho = h sqrt((b-x)(x-a))/pi (soft) or
    h sqrt((b-x)/x)/pi (hard edge); h^2 is an exact polynomial division."""
    deg_h = max(pot.degree - (1 if pot.hard_edge else 2), 0)
    t = np.cos(np.pi * (np.arange(2 * deg_h + 9) + 0.5) / (2 * deg_h + 9))
    if pot.hard_edge:
        beta = _hard_beta(pot, moments)
        p = npoly.polysub(npoly.polymulx(_q_polynomial(pot, moments)), np.array([beta]))
        x = 0.5 * b * (t + 1.0) * 0.999 + 0.0005 * b
        hsq = np.maximum(-npoly.polyval(x, p) / (b - x), 0.0)
    else:
        q = _q_polynomial(pot, moments)
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        x = c + 0.999 * r * t
        hsq = np.maximum(-npoly.polyval(x, q) / ((b - x) * (x - a)), 0.0)
    h = npoly.polyfit(x, np.sqrt(hsq), deg_h)
    return np.atleast_1d(h)


# ---------------------------------------------------------------------------
# density and effective potential

def density(mu: EquilibriumMeasure, x):
    """rho(x) = sqrt(max(-q(x), 0))/pi; zero off the support."""
    x = np.asarray(x, dtype=float)
    pot = mu.potential
    if pot.hard_edge:
        beta = _hard_beta(pot, mu.moments)
        p = npoly.polysub(npoly.polymulx(_q_polynomial(pot, mu.moments)), np.array([beta]))
        xs = np.where(x == 0.0, 1.0, x)
        val = np.where(x > 0.0,
                       np.sqrt(np.maximum(-npoly.polyval(xs, p) / xs, 0.0)) / np.pi,
                       np.where(x == 0.0, np.inf, 0.0))
    else:
        q = npoly.polyval(x, _q_polynomial(pot, mu.moments))
        val = np.sqrt(np.maximum(-q, 0.0)) / np.pi
    return val if val.ndim else float(val)


_LOG_M = 256


def _u_coefficients(mu: EquilibriumMeasure):
    """Chebyshev-U expansion of h on the support (soft edge only)."""
    if mu._ucoef is not None:
        return mu._ucoef
    a, b = mu.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    th = np.pi * np.arange(1, _LOG_M + 1) / (_LOG_M + 1)
    u = np.cos(th)
    hv = npoly.polyval(c + r * u, mu.h)
    deg = len(mu.h) + 1
    coef = np.zeros(deg + 3)
    for k in range(deg + 3):
        coef[k] = (2.0 / (_LOG_M + 1)) * np.sum(hv * np.sin((k + 1) * th) * np.sin(th))
    mu._ucoef = coef
    return coef


def _log_potential_inside(mu: EquilibriumMeasure, t):
    """Int log|x - y| dmu(y) for t = (x-c)/r in [-1, 1], via the classical
    Chebyshev expansion of the logarithmic kernel (exact for polynomial h)."""
    a, b = mu.support
    r = 0.5 * (b - a)
    coef = _u_coefficients(mu)
    mass = mu.moments[0]
    total = math.log(r) * mass
    tcheb = [np.ones_like(t), t]
    for _ in range(len(coef) + 2):
        tcheb.append(2.0 * t * tcheb[-1] - tcheb[-2])
    s = coef[0] * (-(np.pi / 2.0) * math.log(2.0) + (np.pi / 4.0) * tcheb[2])
    for k in range(1, len(coef)):
        s += coef[k] * (-(np.pi / 2.0) * (tcheb[k] / k - tcheb[k + 2] / (k + 2)))
    return total + (r * r / np.pi) * s


def _log_potential_outside(mu: EquilibriumMeasure, x):
    a, b = mu.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    y = c + r * _GC_T
    hv = npoly.polyval(y, mu.h)
    w = (r * r / np.pi) * _GC_W * hv
    return np.array([np.sum(w * np.log(np.abs(xx - y))) for xx in np.atleast_1d(x)])


def _log_potential_hard(mu: EquilibriumMeasure, x):
    """Int log|x - y| dmu for a hard-edge measure, by the smooth
    substitution y = b sin^2(psi) and adaptive quadrature."""
    b = mu.support[1]
    h = mu.h

    out = []
    for xx in np.atleast_1d(x):
        def f(psi):
            y = b * math.sin(psi) ** 2
            return (2.0 * b / math.pi) * npoly.polyval(y, h) * math.cos(psi) ** 2 \
                * math.log(abs(xx - y) + 1e-300)

        pts = []
        if 0.0 < xx < b:
            pts = [math.asin(math.sqrt(xx / b))]
        val, _ = scipy.integrate.quad(f, 0.0, math.pi / 2.0, points=pts or None,
                                      limit=200, epsabs=1e-12, epsrel=1e-11)
        out.append(val)
    return np.array(out)


def effective_potential(mu: EquilibriumMeasure, V: Potential, x):
    """2 Int log(1/|x-y|) dmu(y) + V(x) - ell: zero on the support,
    nonnegative off it for regular potentials."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    a, b = mu.support
    if V.hard_edge:
        logpot = _log_potential_hard(mu, x)
    else:
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        t = (x - c) / r
        inside = np.abs(t) <= 1.0 + 1e-12
        logpot = np.empty_like(x)
        if inside.any():
            logpot[inside] = _log_potential_inside(mu, np.clip(t[inside], -1.0, 1.0))
        if (~inside).any():
            logpot[~inside] = _log_potential_outside(mu, x[~inside])
    val = -2.0 * logpot + V(x) - mu.ell
    return float(val[0]) if scalar else val


def _ell_at_midpoint(mu: EquilibriumMeasure) -> float:
    a, b = mu.support
    mid = 0.5 * (a + b)
    if mu.potential.hard_edge:
        lp = float(_log_potential_hard(mu, mid)[0])
    else:
        lp = float(_log_potential_inside(mu, np.array([0.0]))[0])
    return -2.0 * lp + float(mu.potential(mid))


# ---------------------------------------------------------------------------
# classification of singular points

def classify(mu: EquilibriumMeasure, V: Potential):
    """Scan for singular points: interior zeros of rho (even order 2k),
    endpoint zeros of h (vanishing order k + 1/2), and off-support points
    where the effective potential degenerates to zero.  Returns a list of
    (location, kind, k) with kind in {'interior', 'edge', 'exterior'};
    regular one-cut inputs give []."""
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
    hscale = np.abs(npoly.polyval(np.linspace(a, b, 64), mu.h)).max() + 1e-300
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
    # exterior singular points: zeros of the effective potential off support
    for lo, hi in [(a - 2.0 * width, a - 1e-3 * width), (b + 1e-3 * width, b + 2.0 * width)]:
        if V.hard_edge and lo < 0:
            lo = max(lo, 1e-6)
            if lo >= hi:
                continue
        xs = np.linspace(lo, hi, 160)
        vals = effective_potential(mu, V, xs)
        scale = 1.0 + np.abs(vals).max()
        j = int(np.argmin(vals))
        if vals[j] <= 1e-8 * scale and 0 < j < len(xs) - 1:
            out.append((float(xs[j]), "exterior", 0))
    return out


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
    if V.hard_edge:
        hi = 1.0
        while V(hi) - V(0.0) < 40.0:
            hi *= 1.3
        return 0.0, hi
    lo = -1.0
    while V(lo) - V(0.0) < 40.0:
        lo *= 1.3
    hi = 1.0
    while V(hi) - V(0.0) < 40.0:
        hi *= 1.3
    return lo, hi


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
