"""Fundamental solution p(t,x,y) and the solution operator u(t,x).

The fundamental solution of the generalized time-fractional equation is the
Stieltjes integral of the transition kernel against the crossing law,

    p(t,x,y) = int_0^inf q(r,x,y) d_r P(S_r >= t),

and since d_r P(S_r >= t) = d_r P(E_t <= r), it is computed through the
inverse subordinator in both modes:

* Monte Carlo:  p = E[ q(E_t, x, y) ], the ensemble mean over sample_E_t;
* quadrature:   p = int q(r,x,y) g_t(r) dr with g_t the density of E_t.

Quadrature mode needs the closed-form density of the order-1/2 Caputo
kernel, g_t(r) = exp(-r^2/(4t)) / sqrt(pi t); any other kernel is refused
with DomainError and goes through method="mc".  Its target is 1e-8
relative.  The clock panels are geometric from r_hi*1e-9, split at the kinks
of q; next to the diagonal they start below 1e-3 rho^alpha, and on it, where
q ~ r^{-d/alpha} is singular at r = 0, they grade down to r_hi*1e-30
(``quadrature.graded_edges``): p(t,x,x) is finite there when d < alpha, and
a divergent one raises QuadratureError.

p is never obtained by numerically differentiating P(S_r >= t) in r: the
crossing-time form integrates the Stieltjes measure exactly.

The solution u(t,x) = int_D p(t,x,y) f(y) m(dy) is evaluated with the order
of integration swapped: the inner boundary integral Q(r,x) = int q(r,x,y)
f(y) dy is computed per clock value and then averaged against g_t (or the
ensemble).  Every integral over q, p's and Q's alike, is checked by
``quadrature.checked_panels`` and evaluates q once per check, on one node
array holding the 32- and the 64-node Gauss-Legendre points of every panel:
the two panel sums must agree to the target, otherwise QuadratureError.
Model kernels here are class representatives, so u verifies structure
(decay rates, symmetry, boundary order), not physical values.

``diagonal_probe`` feeds the truncated-kernel diagonal finiteness check:
near r = 0 the crossing law follows the structural form
[r + (n t_f - t)^n] r^n exp(-c t log t), so int q(r,x,x) dP(r) near 0 is a
sum of two powers of r and its finiteness follows from the lowest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .heat_kernel import q_eval
from .kernels import Power
from .quadrature import GRADE, checked_panels, graded_edges
from .simulate import SimConfig, sample_E_t

__all__ = [
    "SolutionRequest",
    "PValue",
    "StableHalfDensity",
    "p_quadrature",
    "p_mc",
    "solve_u",
    "diagonal_probe",
]

# the one target of the quadrature mode, relative
_RTOL = 1e-8


def is_half_caputo(kernel):
    return (
        isinstance(kernel, Power)
        and abs(kernel.beta - 0.5) < 1e-14
        and abs(kernel.scale - 1.0 / math.sqrt(math.pi)) < 1e-12
    )


class StableHalfDensity:
    """Closed-form density of E_t for the order-1/2 Caputo kernel.

    P(E_t <= r) = P(S_r >= t) = erf(r/(2 sqrt t)), so
    g_t(r) = exp(-r^2/(4t)) / sqrt(pi t).
    """

    def __init__(self, t):
        self.t = t

    def __call__(self, r):
        return np.exp(-np.asarray(r) ** 2 / (4.0 * self.t)) / math.sqrt(math.pi * self.t)

    def r_max(self):
        return 18.0 * math.sqrt(self.t)  # exp(-81) tail mass


@dataclass
class SolutionRequest:
    """One p(t,x,y) or u(t,x) evaluation request."""

    kernel: object
    model: object
    geometry: object
    t: float
    x: float
    y: float | None = None
    f: object = None  # callable on an array of points y -> f(y), for solve_u
    method: str = "quadrature"
    sim: SimConfig | None = None
    ensemble: object = None  # shared E_t ensemble (MC mode)
    q_override: object = None  # diagnostic kernel r -> q(r), replaces q(r,x,y)

    def q_at(self, r, y=None):
        """q(r, x, y) on an array of clock values r or of points y (default self.y)."""
        if self.q_override is not None:
            return self.q_override(r)
        return q_eval(self.model, self.geometry, r, self.x, self.y if y is None else y)


@dataclass
class PValue:
    value: float
    se: float = 0.0
    n_paths: int = 0
    censored: int = 0
    method: str = "quadrature"
    diagnostic: str | None = None


def _density_for(req):
    if not is_half_caputo(req.kernel):
        raise DomainError(
            'quadrature mode needs the closed-form E_t density of the order-1/2 Caputo '
            'kernel; use method="mc" for %s' % type(req.kernel).__name__
        )
    return StableHalfDensity(req.t)


def _ensemble(req, what):
    """The shared E_t ensemble of ``req``, or a fresh one from its SimConfig."""
    if req.ensemble is not None:
        return req.ensemble
    if req.sim is None:
        raise DomainError("%s needs a SimConfig or a shared ensemble" % what)
    return sample_E_t(req.kernel, req.sim, req.t)


def _panel_edges(req, r_hi):
    start = r_hi * 1e-9
    kinks = set()
    if req.q_override is None:
        model, geometry = req.model, req.geometry
        for pnt in (req.x, req.y):
            dp = geometry.delta(pnt)
            if math.isfinite(dp):
                kinks.add(dp**model.alpha)
        rho = geometry.rho(req.x, req.y)
        if rho > 0.0:
            kinks.add(rho**model.alpha)
            # near the diagonal the kink would sit inside the first panel [0, start]
            start = min(start, 1e-3 * rho**model.alpha)
        else:
            # on it the first panel must hold a negligible share of r^{-d/alpha}
            start = r_hi * GRADE
        kinks.add(1.0)  # long-time branch switch of the displayed classes
    return graded_edges(0.0, start, r_hi, kinks)


def p_quadrature(req):
    """Deterministic p(t,x,y) through the E_t density, checked to 1e-8 relative."""
    dens = _density_for(req)
    edges = _panel_edges(req, dens.r_max())
    value = checked_panels("p", lambda rs: req.q_at(rs) * dens(rs), edges, _RTOL)
    return PValue(value=value, method="quadrature")


def _mc_value(ens, vals):
    """Ensemble mean of the per-path ``vals`` with its CLT standard error and
    the censored count of ``ens``."""
    n = len(vals)
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(n)
    censored = int(np.count_nonzero(ens.censored)) if ens.censored is not None else 0
    diag = None
    if mean > 0.0 and se / mean > 0.10:
        diag = (
            "increase paths: relative se %.1f%%; variance %.3g over %d paths"
            % (100.0 * se / mean, float(np.var(vals)), n)
        )
    return PValue(value=mean, se=se, n_paths=n, censored=censored, method="mc", diagnostic=diag)


def p_mc(req):
    """Monte Carlo p(t,x,y): ensemble mean of q(E_t,x,y), censoring counted."""
    ens = _ensemble(req, "p_mc")
    return _mc_value(ens, np.asarray(req.q_at(ens.values), dtype=float))


# panel edges toward a wall, as fractions of the distance to the window's middle
_WALL_STEPS = 16.0 ** -np.arange(11)


def _inner_edges(req, r):
    """Panels of Q(r,x), split at the kinks of q(r,x,.): y = x +- r^{1/alpha} 8^j,
    delta(y) = r^{1/alpha} and the interval's midpoint.  Toward a wall
    q ~ delta(y)^{alpha gamma}, so the panels there shrink geometrically."""
    g, x = req.geometry, req.x
    scale = r ** (1.0 / req.model.alpha)
    offs = scale * 8.0 ** np.arange(8)
    kinks = {x, *(x - offs), *(x + offs)}
    # unbounded windows sized so the power tail of q^j beyond them is <= 2e-4
    if g.kind == "interval":
        lo, hi = 0.0, g.length
        kinks.update([scale, hi - scale], 0.5 * hi * _WALL_STEPS, hi - 0.5 * hi * _WALL_STEPS)
    elif g.kind == "half-line":
        lo, hi = 0.0, x + 1e4 * scale
        kinks.update([scale], hi * _WALL_STEPS)
    elif g.kind == "free":
        lo, hi = x - 1e4 * scale, x + 1e4 * scale
    else:
        raise DomainError("solve_u supports interval, half-line and free geometries")
    return np.array([lo, *sorted(k for k in kinks if lo < k < hi), hi])


def _inner_Q(req, r):
    """Q(r,x) = int_D q(r,x,y) f(y) dy, checked to 1e-7 relative or 1.49e-8 absolute."""
    f = req.f if req.f is not None else (lambda y: 1.0)
    return checked_panels("Q(r=%g, x)" % r, lambda ys: req.q_at(r, ys) * f(ys),
                           _inner_edges(req, r), 1e-7, 1.49e-8)


def solve_u(req):
    """u(t,x) = int_D p(t,x,y) f(y) dy, by the swapped-order quadrature.

    MC mode evaluates the inner integral on a log grid of clock values and
    interpolates it over the shared ensemble, so the standard error is the
    per-path CLT error of Q(E_t, x).
    """
    if req.method == "quadrature":
        dens = _density_for(req)
        r_hi = dens.r_max()
        # the inner integral is smooth in log r; a trapezoid in log r at 160
        # nodes resolves it far below the factor-level tolerances u feeds
        edges = np.geomspace(r_hi * 1e-7, r_hi, 160)
        vals = np.array([_inner_Q(req, r) for r in edges])
        mids = 0.5 * (edges[:-1] + edges[1:])
        gm = np.asarray(dens(mids), dtype=float)
        qm = 0.5 * (vals[:-1] + vals[1:])
        total = float(np.sum(np.diff(edges) * gm * qm))
        return PValue(value=total, method="quadrature")
    ens = _ensemble(req, "solve_u MC mode")
    col = ens.values
    grid = np.geomspace(max(col.min(), 1e-12), col.max(), 80)
    qvals = np.array([_inner_Q(req, r) for r in grid])
    return _mc_value(ens, np.interp(col, grid, qvals))


def diagonal_probe(kernel, model, t):
    """Diagonal finiteness verdict for truncated kernels, in closed form.

    q(r,x,x) = r^{-d/alpha} against the structural small-r crossing law
    [r + w] r^n, w = (n t_f - t)^n (the exp(-c t log t) factor is an
    r-independent constant and irrelevant to convergence), integrates
    r^{-d/alpha} ((n+1) r^n + n w r^{n-1}) near 0.  That converges iff its
    lowest exponent with a nonzero coefficient, n - 1 - d/alpha when w > 0
    and n - d/alpha otherwise, exceeds -1; at exactly -1 it diverges like
    log r.  d/alpha is the quotient ``estimates`` floors for the threshold.
    """
    t_f = kernel.support_end
    if not math.isfinite(t_f):
        raise DomainError("diagonal probe needs a truncated kernel")
    if t < t_f / 2.0:
        raise DomainError("diagonal probe covers t >= t_f/2")
    n = math.floor(t / t_f) + 1
    weight = (n * t_f - t) ** n
    lowest = (n - 1 if weight > 0.0 else n) - model.d / model.alpha
    return {
        "verdict": "converged" if lowest > -1.0 else "diverged",
        "n_t": n,
        "weight": weight,
        "lowest_exponent": lowest,
    }
