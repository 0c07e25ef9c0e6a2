"""The checked quadrature rule and the graded panel builder of the package.

Composite Gauss-Legendre on panel edges: the integrand is called once per
check, on both rules' points of every panel (the 32 of GL32, then the 64 of
GL64), the 64-node sum is returned, and it is accepted only when the
32-node sum agrees with it to the target; otherwise QuadratureError,
carrying the achieved and target errors.  Every integral over the clock r
(p's, and the boundary integrals I and J) takes its edges from
``graded_edges``, whose geometric part, like the octaves of phi's panels in
``bernstein``, comes from ``geometric_edges``.  phi's Laplace integrals keep
their own 24- vs 40-node check in ``bernstein``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

GL32 = leggauss(32)
GL64 = leggauss(64)
# the points of both rules on [-1, 1], GL32's then GL64's, for one integrand call
_POINTS = np.concatenate([GL32[0], GL64[0]])
_N32 = GL32[0].size
# Start of the graded panels, as a fraction of their end, for an integral from
# 0 whose integrand ~ r^q is singular there.  The panel [0, hi*GRADE] is
# resolved only roughly, so it must hold a negligible share: that share is
# GRADE^{1+q}, which at 1e-30 passes q = -1/2 and -2/3 (d/alpha of D1 and J4
# on the diagonal) to a 1e-8 target, while every divergent q <= -1 still
# misses it by percents.
GRADE = 1e-30


def geometric_edges(start, stop, num):
    """np.geomspace(start, stop, num) for start, stop > 0, by its arithmetic
    (num steps in log10, 10 to their power, the ends pinned) without its
    per-call overhead.  Scalars give one row of num edges; (k, 1) columns
    give k rows, each equal to np.geomspace of its own ends."""
    log_start = np.log10(start)
    step = (np.log10(stop) - log_start) / (num - 1)
    edges = 10.0 ** (np.arange(float(num)) * step + log_start)
    edges[..., :1], edges[..., -1:] = start, stop
    return edges


def graded_edges(lo, start, hi, kinks):
    """Panel edges on [lo, hi]: 40 geometric edges from ``start`` to ``hi``,
    plus ``lo`` and every kink strictly between ``start`` and ``hi``."""
    edges = set(geometric_edges(start, hi, 40).tolist())
    edges.update((lo, hi), (k for k in kinks if start < k < hi))
    return np.array(sorted(edges))


def integrate_panels(fn, edges, nodes):
    """Sum over the panels between consecutive ``edges`` of the Gauss rule
    ``nodes`` = (points, weights) on [-1, 1], with one call of ``fn``."""
    x, w = nodes
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
    wt = 0.5 * (b - a)[:, None] * w[None, :]
    vals = fn(mid.ravel()).reshape(mid.shape)
    return float(np.sum(wt * vals))


def checked_panels(what, fn, edges, rtol, atol=0.0):
    """64-node panel sum of ``fn``, checked against the 32-node sum to rtol
    relative or atol absolute.  ``fn`` is called once, on both rules' points
    of every panel; each sum is ``integrate_panels``'s, bit for bit."""
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    vals = fn((0.5 * (a + b) + half * _POINTS).ravel()).reshape(-1, _POINTS.size)
    v32 = float(np.sum(half * GL32[1] * vals[:, :_N32]))
    v64 = float(np.sum(half * GL64[1] * vals[:, _N32:]))
    achieved = abs(v64 - v32) / max(abs(v64), 1e-300)
    if achieved > rtol and abs(v64 - v32) > atol:
        raise QuadratureError(
            "%s quadrature achieved %.2g, target %.2g" % (what, achieved, rtol),
            achieved=achieved,
            target=rtol,
        )
    return v64
