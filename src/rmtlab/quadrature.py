"""Composite Gauss-Legendre rules, the one panel quadrature behind the Airy
tail table, the edge matrix-kernel tail integral, the Pearcey contours and
the discretized Stieltjes grids."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_panels"]


@lru_cache(maxsize=None)
def _legendre(order):
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre_panels(lo: float, hi: float, panels: int, order: int):
    """Nodes and weights of `panels` equal panels on [lo, hi], each carrying
    an `order`-point Gauss-Legendre rule; both arrays have shape
    (panels, order), so row sums are the per-panel integrals."""
    t, w = _legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return mid[:, None] + half * t[None, :], np.broadcast_to(half * w, (panels, order))
