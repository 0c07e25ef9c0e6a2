"""The one checked quadrature rule and the graded panel builder of the package.

Composite Gauss-Legendre on rows of panel edges: ``panel_sums`` calls the
integrand once, on both rules' points of every panel (the coarse rule's,
then the fine one's), and ``checked`` returns the fine sums only if each
agrees with its coarse sum to the target, which a non-finite sum never does;
otherwise QuadratureError at the first that does not, carrying the achieved
and target errors.  Each caller has a fixed pair: ``Q_RULES`` (32 vs 64
nodes) for every integral over q and the boundary integrals, and for
``kernels.Subexp``'s moments beyond s = 1, and ``PHI_RULES`` (24 vs 40) for
phi's Laplace integrals in ``bernstein``.

A list of integrals is summed in groups (``grouped_panel_sums``): the
integrals with the same panel count share one ``panel_sums`` call per chunk
of at most ``PANEL_CHUNK`` panels, which bounds the node arrays, and the
integrand ``fn(u, rows)`` learns which integrals of the list its rows are
(``row_columns`` gives it their per-integral values as columns).  A row's
sum reduces its own contiguous block, so each integral's sum is,
bit for bit, its sum alone.  ``checked_panels_many`` checks such a list on
``Q_RULES`` in list order, so it raises the QuadratureError of the first
integral in the list that misses its target; ``checked_panels`` is its
one-integral case, and phi's integrals are grouped the same way.  There is
no unchecked Gauss sum: every one goes through ``panel_sums`` and
``checked``.  Every integral over the clock r takes its edges from
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
# most panels summed in one panel_sums call: bounds the (rows, panels, points) temporaries
PANEL_CHUNK = 256


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


def panel_sums(fn, edges, rules):
    """(coarse, fine) panel sums of ``fn`` per row of ``edges`` (rows,
    panels + 1), for the rule ``rules`` (``Q_RULES`` or ``PHI_RULES``).
    ``fn`` is called once, on the (rows, panels, points) array of both
    rules' points, and may add leading axes, which the sums keep.  Each
    row's sum reduces its own contiguous block, so it is the plain
    composite Gauss sum of that row alone, bit for bit."""
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


def grouped_panel_sums(fn, edges, rules, lead=(), chunk=PANEL_CHUNK):
    """(coarse, fine) panel sums of each integral of the list ``edges`` (1-D
    arrays of panel edges) for the rule ``rules``, shaped lead + (len(edges),).
    The integrals with the same panel count go through ``panel_sums``
    together, at most ``chunk`` panels per call, and ``fn(u, rows)`` is called
    once per call, on its (len(rows), panels, points) nodes u, rows being
    the list indices of u's rows; it returns lead + u.shape.  ``chunk`` is
    ``PANEL_CHUNK`` unless the caller names the bound it reads."""
    if len(edges) == 1:  # one integral needs no grouping: keep its call as cheap as a plain panel_sums
        return panel_sums(lambda u: fn(u, [0]), edges[0][None], rules)
    coarse, fine = np.empty(lead + (len(edges),)), np.empty(lead + (len(edges),))
    groups = {}
    for i, e in enumerate(edges):
        groups.setdefault(e.size, []).append(i)
    for size, rows in groups.items():
        per = max(1, chunk // (size - 1))
        for k in range(0, len(rows), per):
            r = rows[k : k + per]
            block = np.stack([edges[i] for i in r])
            coarse[..., r], fine[..., r] = panel_sums(lambda u: fn(u, r), block, rules)
    return coarse, fine


def row_columns(values):
    """rows -> the entries ``rows`` of the per-integral ``values`` of a list,
    as a (rows, 1, 1) column that broadcasts against ``fn``'s nodes; a lone
    value is given as it is, so a one-integral list evaluates as a scalar
    call would."""
    if len(values) == 1:
        return lambda rows: values[0]
    return np.array(values, dtype=float)[:, None, None].__getitem__


def checked_panels_many(whats, fn, edges, rtol, atol=0.0):
    """The 64-node panel sum of each integral of the list ``edges``, each
    checked against its 32-node sum to rtol relative or atol absolute, in list
    order: ``grouped_panel_sums`` with ``fn(u, rows)``, then ``checked``.
    ``whats`` names the integrals in a QuadratureError's message."""
    coarse, fine = grouped_panel_sums(fn, edges, Q_RULES)
    return checked(coarse, fine, rtol, atol, lambda i, achieved:
                   "%s quadrature achieved %.2g, target %.2g" % (whats[i], achieved, rtol)).tolist()


def checked_panels(what, fn, edges, rtol, atol=0.0):
    """``checked_panels_many`` of the one integral on ``edges``, ``fn`` called
    on a flat array."""
    return checked_panels_many((what,), lambda u, _: fn(u.ravel()).reshape(u.shape), [edges], rtol, atol)[0]
