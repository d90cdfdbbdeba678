"""Quadrature rules: composite Gauss-Legendre panels (the Airy tail grid
of specfun, the Pearcey contours) and the power-weight rule behind the
discretized Stieltjes nodes (Gauss-Jacobi by Golub-Welsch on numpy's eigh).
The Gauss-Chebyshev rule of the equilibrium solver is numpy's chebgauss."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_panels", "power_weight_panels"]


@lru_cache(maxsize=None)
def _legendre(order):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=32)
def _jacobi(order, beta):
    """The order-point Gauss-Jacobi rule for (1 + t)^b dt on [-1, 1], b = 2 beta
    + 1, by Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the recurrence, the weights mu_0 v_0^2 with mu_0 =
    2^{b+1} / (b + 1).  Read-only: every table with that exponent shares it."""
    b = 2.0 * beta + 1.0
    k = np.arange(1, order)
    s = 2.0 * np.arange(order) + b
    off = 2.0 * k * (k + b) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    t, v = np.linalg.eigh(np.diag(b * b / (s * (s + 2.0))) + np.diag(off, -1), UPLO="L")
    w = 2.0 ** (b + 1.0) / (b + 1.0) * v[0] ** 2
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_legendre_panels(lo, hi, panels: int, order: int):
    """Nodes and weights of `panels` equal panels on [lo, hi], each carrying
    an `order`-point Gauss-Legendre rule; both arrays have shape
    (panels, order), so row sums are the per-panel integrals.  Array lo and
    hi broadcast: one rule per interval, with shape (..., panels, order)."""
    t, w = _legendre(order)
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:2] - edges[..., :1])
    return (mid[..., None] + half[..., None] * t,
            np.broadcast_to(half[..., None] * w, mid.shape + (order,)))


def power_weight_panels(lo: float, hi: float, beta: float, panels: int, order: int):
    """Flat nodes and log weights for int_lo^hi f(x) |x|^beta dx, lo <= 0 <= hi:
    x = +-u^2 on each side of 0 turns |x|^beta dx into 2 u^{2 beta + 1} du,
    a Gauss-Jacobi first u-panel absorbs u^{2 beta + 1} and the others are
    Gauss-Legendre, so smooth f converges spectrally for any beta >= 0.
    The sides share the panels in proportion to their length in u.  The
    log weights are sums of logs, so none leaves the double range (u^201
    at beta = 100 overflows past u = 34)."""
    sides = [(s, np.sqrt(e)) for s, e in ((-1.0, -lo), (1.0, hi)) if e > 0.0]
    total = sum(root for _, root in sides)
    t, tw = _jacobi(order, beta)
    xs, lws = [], []
    for sign, root in sides:
        count = max(2, round(panels * root / total))
        u, uw = gauss_legendre_panels(0.0, root, count, order)
        half = 0.5 * root / count
        lw = np.log(2.0 * uw) + (2.0 * beta + 1.0) * np.log(u)
        lw[0] = np.log(2.0 * tw) + (2.0 * beta + 2.0) * math.log(half)
        lws.append(lw.ravel())
        u[0] = half * (t + 1.0)
        xs.append(sign * u.ravel() ** 2)
    return np.concatenate(xs), np.concatenate(lws)
