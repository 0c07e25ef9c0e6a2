"""The one checked quadrature rule and the graded panel builder of the package.

Composite Gauss-Legendre on rows of panel edges: ``panel_sums`` calls the
integrand once, on both rules' points of every panel (the coarse rule's,
then the fine one's), and ``checked`` returns the fine sums only if each
agrees with its coarse sum to the target, which a non-finite sum never does;
otherwise QuadratureError at the first that does not, carrying the achieved
and target errors.  Each caller has a fixed pair: ``Q_RULES`` (32 vs 64
nodes) for every integral over q and the boundary integrals, through
``checked_panels``, and ``PHI_RULES`` (24 vs 40) for phi's Laplace integrals
in ``bernstein``.  Every integral over the clock r takes its edges from
``graded_edges``, whose geometric part, like the octaves of phi's panels,
comes from ``geometric_edges``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

GL32 = leggauss(32)
GL64 = leggauss(64)
# each checked rule's nodes on [-1, 1]: both rules' points, the coarse rule's
# first, then the coarse and the fine weights
Q_RULES, PHI_RULES = ((np.concatenate([c[0], f[0]]), c[1], f[1])
                      for c, f in ((GL32, GL64), (leggauss(24), leggauss(40))))
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


def panel_sums(fn, edges, rules):
    """(coarse, fine) panel sums of ``fn`` per row of ``edges`` (rows,
    panels + 1), for the rule ``rules`` (``Q_RULES`` or ``PHI_RULES``).
    ``fn`` is called once, on the (rows, panels, points) array of both
    rules' points, and may add leading axes, which the sums keep.  Each
    row's sum reduces its own contiguous block, so it is
    ``integrate_panels``'s on that row, bit for bit."""
    points, wc, wf = rules
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    half = 0.5 * (b - a)
    vals = fn(0.5 * (a + b) + half * points)
    rows = vals.shape[:-2] + (-1,)
    coarse = (half * wc * vals[..., : wc.size]).reshape(rows).sum(axis=-1)
    return coarse, (half * wf * vals[..., wc.size :]).reshape(rows).sum(axis=-1)


def checked(coarse, fine, rtol, atol, message):
    """``fine``, if each entry agrees with ``coarse`` to rtol relative or
    atol absolute; else QuadratureError with message(i, achieved) at the
    first entry i, in C order, that does not (NaN and inf never agree)."""
    for i, (c, f) in enumerate(zip(coarse.ravel().tolist(), fine.ravel().tolist())):
        diff = abs(f - c)
        achieved = diff / max(abs(f), 1e-300)
        if not (achieved <= rtol or diff <= atol):
            raise QuadratureError(message(i, achieved), achieved=achieved, target=rtol)
    return fine


def checked_panels(what, fn, edges, rtol, atol=0.0):
    """64-node panel sum of ``fn``, checked against the 32-node sum to rtol
    relative or atol absolute: ``panel_sums`` and ``checked`` on one row,
    ``fn`` called on a flat array."""
    coarse, fine = panel_sums(lambda u: fn(u.ravel()).reshape(u.shape), edges[None], Q_RULES)
    return float(checked(coarse, fine, rtol, atol, lambda i, achieved:
                         "%s quadrature achieved %.2g, target %.2g" % (what, achieved, rtol))[0])
