"""The one checked quadrature rule of the package.

Composite Gauss-Legendre on caller-chosen panel edges: the integrand is
called once per rule on the nodes of every panel, the 64-node sum is
returned, and it is accepted only when the 32-node sum agrees with it to the
target; otherwise QuadratureError, carrying the achieved and target errors.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

GL32 = leggauss(32)
GL64 = leggauss(64)


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
    """64-node panel sum of ``fn`` (one call per rule on all nodes), checked
    against the 32-node sum to rtol relative or atol absolute."""
    v32 = integrate_panels(fn, edges, GL32)
    v64 = integrate_panels(fn, edges, GL64)
    achieved = abs(v64 - v32) / max(abs(v64), 1e-300)
    if achieved > rtol and abs(v64 - v32) > atol:
        raise QuadratureError(
            "%s quadrature achieved %.2g, target %.2g" % (what, achieved, rtol),
            achieved=achieved,
            target=rtol,
        )
    return v64
