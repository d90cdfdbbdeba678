"""Orthogonal polynomials for varying weights e^{-N V(x)} and their
Christoffel-Darboux kernels.

Recurrence coefficients come from a discretized Stieltjes procedure:
Lanczos with full reorthogonalization on a composite Gauss-Legendre grid,
with the grid density doubled until every coefficient is stable to 1e-12.
The truncation window is chosen from the equilibrium measure of the
scaled potential (N/n_max) V plus an exponential fringe, which is where
the weighted polynomials actually live; the weight's own tail criterion
alone would truncate into the oscillatory region.

Weighted functions phi_k = P_k e^{-N V/2} / gamma_k are evaluated by the
orthonormal three-term recurrence with periodic rescaling and a tracked
log-scale, so nothing overflows for n up to 512.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import equilibrium as eqm
from .equilibrium import NonConvergenceError, Potential
from .quadrature import gauss_legendre_panels

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


class UnderflowError(RuntimeError):
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

    @property
    def alpha(self) -> float:
        return self.potential.singularity_alpha

    def log_weight(self, x):
        """log of the weight, -inf where it vanishes."""
        x = np.asarray(x, dtype=float)
        lw = -self.N * self.potential(x)
        a = self.alpha
        if self.potential.hard_edge:
            if a != 0.0:
                with np.errstate(divide="ignore"):
                    lw = lw + a * np.log(np.maximum(x, 0.0))
        elif a != 0.0:
            with np.errstate(divide="ignore"):
                lw = lw + 2.0 * a * np.log(np.abs(x))
        return lw

    def window(self, n_max: int):
        """Integration window [lo, hi]."""
        if self.truncation is not None:
            lo = 0.0 if self.potential.hard_edge else -self.truncation
            hi = self.truncation
            self._check_tail(lo, hi)
            return lo, hi
        return _auto_window(self, n_max)

    def _check_tail(self, lo, hi):
        xs = np.linspace(lo, hi, 512)
        lw = self.log_weight(xs)
        peak = lw.max()
        for edge in ([hi] if self.potential.hard_edge else [lo, hi]):
            if self.log_weight(np.array([edge]))[0] > peak + math.log(1e-30):
                raise ValueError(
                    "truncation window too small: weight tail not negligible")


def _auto_window(w: WeightSpec, n_max: int):
    """Support of the scaled equilibrium measure plus the fringe where the
    top weighted polynomial has decayed below ~1e-32 of its peak."""
    # the top polynomial P_{n_max} under e^{-N V} spreads over the support
    # of the equilibrium measure in the field (N/n_max) V
    ratio = w.N / n_max
    pot = w.potential
    scaled = Potential(tuple(c * ratio for c in pot.coefficients),
                       hard_edge=pot.hard_edge,
                       singularity_alpha=pot.singularity_alpha)
    mu = eqm.solve_equilibrium(scaled)
    a, b = mu.support
    hb = abs(float(np.polyval(mu.h[::-1], b)))
    target = 74.0
    if pot.hard_edge:
        slope = hb / math.sqrt(max(b, 1e-12))
        m = (3.0 * target / (4.0 * n_max * max(slope, 1e-12))) ** (2.0 / 3.0)
        return 0.0, b + 1.3 * m
    slope = hb * math.sqrt(b - a)
    m = (3.0 * target / (4.0 * n_max * max(slope, 1e-12))) ** (2.0 / 3.0)
    ha = abs(float(np.polyval(mu.h[::-1], a)))
    slope_a = ha * math.sqrt(b - a)
    ma = (3.0 * target / (4.0 * n_max * max(slope_a, 1e-12))) ** (2.0 / 3.0)
    return a - 1.3 * ma, b + 1.3 * m


@dataclass
class RecurrenceTable:
    """Monic recurrence x P_k = P_{k+1} + b_k P_k + a_k P_{k-1} plus the
    squared norms gamma_k^2 = <P_k, P_k>_w."""

    N: int
    n_max: int
    a: np.ndarray          # a_k for k = 1..n_max
    b: np.ndarray          # b_k for k = 0..n_max
    gamma_sq: np.ndarray   # k = 0..n_max
    window: tuple = (0.0, 0.0)
    nodes_used: int = 0

    def sqrt_a(self):
        return np.sqrt(self.a)

    def to_text(self) -> str:
        fmt = lambda arr: " ".join(repr(float(v)) for v in arr)
        return "\n".join([
            "rmtlab-recurrence v1",
            f"N {self.N}",
            f"n_max {self.n_max}",
            f"window {float(self.window[0])!r} {float(self.window[1])!r}",
            "a " + fmt(self.a),
            "b " + fmt(self.b),
            "gamma_sq " + fmt(self.gamma_sq),
        ]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RecurrenceTable":
        """Parse a to_text record.  Raises ValueError when the record is
        malformed, truncated, of the wrong length or not finite."""
        rows = [ln.split() for ln in text.strip().splitlines()]
        if not rows or rows[0][:2] != ["rmtlab-recurrence", "v1"]:
            raise ValueError("unrecognized recurrence record")
        kv = {r[0]: r[1:] for r in rows[1:] if r}
        try:
            table = cls(
                N=int(kv["N"][0]),
                n_max=int(kv["n_max"][0]),
                a=np.array(kv["a"], dtype=float),
                b=np.array(kv["b"], dtype=float),
                gamma_sq=np.array(kv["gamma_sq"], dtype=float),
                window=(float(kv["window"][0]), float(kv["window"][1])),
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"malformed recurrence record: {exc!r}") from exc
        n = table.n_max
        if (len(table.a), len(table.b), len(table.gamma_sq)) != (n, n + 1, n + 1):
            raise ValueError("recurrence record has the wrong length")
        if not all(np.isfinite(v).all() for v in (table.a, table.b, table.gamma_sq)):
            raise ValueError("recurrence record holds non-finite values")
        return table


def _lanczos_coefficients(w: WeightSpec, n_max, x, quad_w):
    lw = w.log_weight(x)
    shift = lw.max()
    if not np.isfinite(shift):
        raise UnderflowError("weight vanishes identically on the grid")
    dens = np.exp(lw - shift) * quad_w
    if dens.max() <= 0.0 or not np.isfinite(dens).all():
        raise UnderflowError("weight dynamic range exceeded")
    g0 = dens.sum()
    v = np.sqrt(dens / g0)
    basis = np.empty((n_max + 1, len(x)))
    basis[0] = v
    a = np.zeros(n_max)
    b = np.zeros(n_max + 1)
    vm1 = np.zeros_like(v)
    sq_prev = 0.0
    for k in range(n_max + 1):
        xv = x * basis[k]
        b[k] = float(basis[k] @ xv)
        if k == n_max:
            break
        r = xv - b[k] * basis[k] - sq_prev * vm1
        # full reorthogonalization, twice
        for _ in range(2):
            r -= basis[: k + 1].T @ (basis[: k + 1] @ r)
        nrm = float(np.linalg.norm(r))
        if nrm < 1e-200:
            raise NonConvergenceError("Lanczos breakdown: grid too coarse")
        a[k] = nrm * nrm
        sq_prev = nrm
        vm1 = basis[k]
        basis[k + 1] = r / nrm
    log_g0 = math.log(g0) + shift
    log_gamma = log_g0 + np.concatenate([[0.0], np.cumsum(np.log(a))])
    gamma_sq = np.exp(np.clip(log_gamma, -700.0, 700.0))
    return a, b, gamma_sq


def recurrence_table(w: WeightSpec, n_max: int, use_cache: bool = True) -> RecurrenceTable:
    """Recurrence coefficients and norms for the weight, up to n_max.

    Doubles the quadrature grid (up to 4 times) until a and b are stable
    to 1e-12 relative; raises NonConvergenceError otherwise.  Results are
    cached in $RMTLAB_CACHE when that variable is set.
    """
    if n_max > 512:
        raise ValueError("n_max must not exceed 512")
    cache_path = _cache_path(w, n_max) if use_cache else None
    cached = _read_cache(cache_path, w, n_max) if cache_path else None
    if cached is not None:
        return cached
    lo, hi = w.window(n_max)
    nodes = max(1200, 8 * n_max)
    prev = None
    for _ in range(5):
        x, qw = gauss_legendre_panels(lo, hi, max(4, math.ceil(nodes / 32)), 32)
        x, qw = x.ravel(), qw.ravel()
        a, b, gsq = _lanczos_coefficients(w, n_max, x, qw)
        if prev is not None:
            pa, pb = prev
            da = np.abs(a - pa) / np.maximum(np.abs(a), 1e-30)
            db = np.abs(b - pb) / np.maximum(np.sqrt(a[:1].max()) + np.abs(b), 1e-30)
            if da.max() <= 1e-12 and db.max() <= 1e-12:
                table = RecurrenceTable(N=w.N, n_max=n_max, a=a, b=b,
                                        gamma_sq=gsq, window=(lo, hi),
                                        nodes_used=len(x))
                if cache_path:
                    _write_cache(cache_path, table.to_text())
                return table
        prev = (a, b)
        nodes *= 2
    raise NonConvergenceError(
        "recurrence coefficients not stable after 4 grid doublings")


# Part of the cache key; bump it whenever the computed coefficients change.
_CACHE_ALGORITHM = "lanczos-gl32-doubling-1"


def _cache_path(w: WeightSpec, n_max: int):
    root = os.environ.get("RMTLAB_CACHE")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    key = repr((_CACHE_ALGORITHM, tuple(w.potential.coefficients),
                w.potential.hard_edge, w.potential.singularity_alpha, w.N,
                w.truncation, n_max))
    h = hashlib.sha256(key.encode()).hexdigest()[:20]
    return os.path.join(root, f"recurrence-{h}.txt")


def _read_cache(path, w: WeightSpec, n_max: int):
    """The cached table, or None when the record is missing, truncated or
    otherwise unusable; the caller then recomputes and replaces it."""
    try:
        with open(path) as fh:
            text = fh.read()
        table = RecurrenceTable.from_text(text)
    except (OSError, ValueError):
        return None
    # to_text ends every record with a newline; without it the last
    # number may have been cut short
    if not text.endswith("\n") or (table.N, table.n_max) != (w.N, n_max):
        return None
    return table


def _write_cache(path, text):
    """Write through a temporary file in the same directory and rename it
    into place, so readers never see a partial record."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# weighted functions and kernels

def _phi_recurrence(t: RecurrenceTable, w: WeightSpec, x, n, derivatives=False):
    """Orthonormal weighted functions phi_k(x), k = 0..n, evaluated by the
    three-term recurrence with rescale-by-max every 8 steps and a log-scale
    accumulator.  Returns (phi, dphi or None) with shape (n+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if w.potential.hard_edge and np.any(x < 0.0):
        raise ValueError("hard-edge weight evaluated at negative argument")
    sa = np.concatenate([[1.0], t.sqrt_a()])
    npts = len(x)
    y = np.zeros((n + 1, npts))
    yp = np.zeros((n + 1, npts)) if derivatives else None
    logs = np.zeros((n + 1, npts))
    logscale = np.zeros(npts)
    g0 = math.sqrt(t.gamma_sq[0])
    y[0] = 1.0 / g0
    cur = y[0].copy()
    prev = np.zeros(npts)
    curp = np.zeros(npts)
    prevp = np.zeros(npts)
    for k in range(n):
        nxt = ((x - t.b[k]) * cur - sa[k] * prev) / sa[k + 1]
        if derivatives:
            nxtp = (cur + (x - t.b[k]) * curp - sa[k] * prevp) / sa[k + 1]
            prevp, curp = curp, nxtp
        prev, cur = cur, nxt
        if (k + 1) % 8 == 0:
            m = np.maximum(np.abs(cur), np.abs(prev))
            m = np.where(m > 0, m, 1.0)
            cur /= m
            prev /= m
            if derivatives:
                curp /= m
                prevp /= m
            logscale += np.log(m)
        y[k + 1] = cur
        logs[k + 1] = logscale
        if derivatives:
            yp[k + 1] = curp
    # assemble in log space: phi_k = y_k * exp(logs_k) * sqrt(weight)
    lw = 0.5 * w.log_weight(x)
    grow = np.exp(np.clip(logs + lw[None, :], -745.0, 705.0))
    phi = y * grow
    if not derivatives:
        return phi, None
    # phi' = (p' + p * (log sqrt(weight))') sqrt(weight)
    dlw = -0.5 * w.N * w.potential.deriv(x)
    al = w.alpha
    if al != 0.0:
        xs = np.where(x != 0.0, x, np.inf)
        dlw = dlw + (0.5 * al if w.potential.hard_edge else al) / xs
    dphi = yp * grow + phi * dlw[None, :]
    return phi, dphi


def weighted_polys(t: RecurrenceTable, w: WeightSpec, x, n: int):
    """phi_k(x) = gamma_k^{-1} P_k(x) sqrt(weight(x)) for k = 0..n-1.

    Scalar x gives a list of n floats; array x gives shape (n, len(x))."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    scalar = np.ndim(x) == 0
    phi, _ = _phi_recurrence(t, w, x, max(n - 1, 0))
    out = phi[:n]
    return [float(v) for v in out[:, 0]] if scalar else out


def cd_kernel(t: RecurrenceTable, w: WeightSpec, n: int, x: float, y: float) -> float:
    """Christoffel-Darboux kernel K_n(x, y) from the weighted functions:

        K_n(x,y) = sqrt(a_n) [phi_n(x) phi_{n-1}(y) - phi_{n-1}(x) phi_n(y)]
                   / (x - y)

    with the confluent (derivative-recurrence) form on the diagonal."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    san = math.sqrt(t.a[n - 1])
    if abs(x - y) < 1e-7 * (1.0 + abs(x)):
        m = 0.5 * (x + y)
        phi, dphi = _phi_recurrence(t, w, m, n, derivatives=True)
        return san * float(dphi[n, 0] * phi[n - 1, 0] - dphi[n - 1, 0] * phi[n, 0])
    phi, _ = _phi_recurrence(t, w, np.array([x, y]), n)
    num = phi[n, 0] * phi[n - 1, 1] - phi[n - 1, 0] * phi[n, 1]
    return san * float(num) / (x - y)


def cd_kernel_sum(t: RecurrenceTable, w: WeightSpec, n: int, x: float, y: float) -> float:
    """Direct sum form sum_k phi_k(x) phi_k(y), k < n (cross-check)."""
    phi, _ = _phi_recurrence(t, w, np.array([x, y]), n - 1)
    return float(np.sum(phi[:n, 0] * phi[:n, 1]))


def cd_kernel_grid(t: RecurrenceTable, w: WeightSpec, n: int, xs, ys) -> np.ndarray:
    """K_n on the tensor grid xs x ys, vectorized; near-diagonal entries
    use the confluent form at the pair midpoint."""
    if n > t.n_max:
        raise ValueError("n exceeds the table's n_max")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    san = math.sqrt(t.a[n - 1])
    px, _ = _phi_recurrence(t, w, xs, n)
    py, _ = _phi_recurrence(t, w, ys, n)
    dx = xs[:, None] - ys[None, :]
    num = px[n][:, None] * py[n - 1][None, :] - px[n - 1][:, None] * py[n][None, :]
    near = np.abs(dx) < 1e-7 * (1.0 + np.abs(xs[:, None]))
    out = np.empty_like(dx)
    np.divide(num, dx, out=out, where=~near)
    out *= san
    if near.any():
        ii, jj = np.nonzero(near)
        mids = 0.5 * (xs[ii] + ys[jj])
        pm, dm = _phi_recurrence(t, w, mids, n, derivatives=True)
        out[ii, jj] = san * (dm[n] * pm[n - 1] - dm[n - 1] * pm[n])
    return out


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
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))

    def c_n(self, n: int) -> float:
        return (self.c * n) ** self.exponent

    def points(self, n: int) -> np.ndarray:
        return self.x_star + self.orientation * self.grid / self.c_n(n)


def bulk_window(mu, x_star: float, grid) -> ScalingWindow:
    c = eqm.density(mu, x_star)
    if c <= 0.0:
        raise ValueError("bulk window needs positive density at x_star")
    return ScalingWindow(x_star, 1.0, float(c), grid)


def soft_edge_window(mu, grid, side: str = "right") -> ScalingWindow:
    a, b = mu.support
    if side == "right":
        hb = abs(float(np.polyval(mu.h[::-1], b)))
        return ScalingWindow(b, 2.0 / 3.0, hb * math.sqrt(b - a), grid, orientation=1)
    ha = abs(float(np.polyval(mu.h[::-1], a)))
    return ScalingWindow(a, 2.0 / 3.0, ha * math.sqrt(b - a), grid, orientation=-1)


def hard_edge_window(mu, grid) -> ScalingWindow:
    from .equilibrium import _hard_beta

    beta = _hard_beta(mu.potential, mu.moments)
    return ScalingWindow(0.0, 2.0, 2.0 * math.sqrt(beta), grid)


def origin_window(mu, grid) -> ScalingWindow:
    c = eqm.density(mu, 0.0)
    return ScalingWindow(0.0, 1.0, float(c), grid)


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
