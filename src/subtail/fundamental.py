"""Fundamental solution p(t,x,y) and the solution operator u(t,x).

The fundamental solution of the generalized time-fractional equation is the
Stieltjes integral of the transition kernel against the crossing law,

    p(t,x,y) = int_0^inf q(r,x,y) d_r P(S_r >= t),

and since d_r P(S_r >= t) = d_r P(E_t <= r), it is computed through the
inverse subordinator in both modes:

* Monte Carlo:  p = E[ q(E_t, x, y) ], the ensemble mean over sample_E_t;
* quadrature:   p = int q(r,x,y) g_t(r) dr with g_t the density of E_t.

The density g_t is closed-form for the order-1/2 Caputo kernel,
g_t(r) = exp(-r^2/(4t)) / sqrt(pi t); any other kernel uses a monotone
log-spline fit of the empirical E_t CDF, whose smoothing bandwidth is
reported and whose advertised accuracy is capped at 1e-2 relative.

p is never obtained by numerically differentiating P(S_r >= t) in r: the
crossing-time form integrates the Stieltjes measure exactly.

The solution u(t,x) = int_D p(t,x,y) f(y) m(dy) is evaluated with the order
of integration swapped: the inner boundary integral Q(r,x) = int q(r,x,y)
f(y) dy is computed per clock value and then averaged against g_t (or the
ensemble).  Every integral over q, p's and Q's alike, evaluates q once per
node array and is checked by the package's one rule,
``quadrature.checked_panels``: its 32- and 64-node Gauss-Legendre panel
sums must agree to the target, otherwise QuadratureError.  Model
kernels here are class representatives, so u verifies structure (decay
rates, symmetry, boundary order), not physical values.

``diagonal_probe`` feeds the truncated-kernel diagonal finiteness check:
near r = 0 the crossing law follows the structural form
[r + (n t_f - t)^n] r^n exp(-c t log t), and geometric panel refinement of
int q(r,x,x) dP(r) toward r = 0 either converges (panel contribution below
1e-3 of the running total) or divergence is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .heat_kernel import q_eval
from .kernels import Power
from .quadrature import GL32, checked_panels
from .simulate import SimConfig, sample_E_t

__all__ = [
    "SolutionRequest",
    "PValue",
    "StableHalfDensity",
    "EmpiricalDensity",
    "p_quadrature",
    "p_mc",
    "solve_u",
    "diagonal_probe",
]

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

    accuracy = 1e-10

    def __init__(self, t):
        self.t = t

    def __call__(self, r):
        return np.exp(-np.asarray(r) ** 2 / (4.0 * self.t)) / math.sqrt(math.pi * self.t)

    def r_max(self):
        return 18.0 * math.sqrt(self.t)  # exp(-81) tail mass


class EmpiricalDensity:
    """Monotone log-spline density from an E_t crossing ensemble.

    The CDF is fitted by a PCHIP interpolant through quantile knots in log r
    (monotone by construction); the density is its log-derivative over r.
    The knot spacing is the smoothing bandwidth; accuracy claims are capped
    at 1e-2 relative accordingly.
    """

    accuracy = 1e-2

    def __init__(self, ensemble, j=0, n_knots=64):
        col = np.sort(ensemble.values[:, j])
        if ensemble.censored is not None:
            keep = ~ensemble.censored[:, j]
            col = np.sort(ensemble.values[keep, j])
        qs = np.linspace(0.002, 0.998, n_knots)
        knots = np.quantile(col, qs)
        logk, idx = np.unique(np.log(knots), return_index=True)
        cdf = qs[idx]
        self._spline = PchipInterpolator(logk, cdf, extrapolate=False)
        self._deriv = self._spline.derivative()
        self.lo, self.hi = float(np.exp(logk[0])), float(np.exp(logk[-1]))
        self.mass_below = float(cdf[0])
        self.mass_above = 1.0 - float(cdf[-1])
        self.bandwidth = float(np.max(np.diff(logk)))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        ok = (r >= self.lo) & (r <= self.hi)
        out[ok] = np.maximum(self._deriv(np.log(r[ok])), 0.0) / r[ok]
        return out

    def r_max(self):
        return self.hi


@dataclass
class SolutionRequest:
    """One p(t,x,y) or u(t,x) evaluation request."""

    kernel: object
    table: object
    model: object
    geometry: object
    t: float
    x: float
    y: float | None = None
    f: object = None  # callable on an array of points y -> f(y), for solve_u
    method: str = "quadrature"
    sim: SimConfig | None = None
    ensemble: object = None  # shared E_t ensemble (MC / empirical modes)
    rtol: float = 1e-8
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
    if is_half_caputo(req.kernel):
        return StableHalfDensity(req.t)
    if req.rtol < 1e-2:
        raise DomainError(
            "empirical-CDF density mode cannot honour rtol=%g; it refuses targets below 1e-2"
            % req.rtol
        )
    return EmpiricalDensity(_ensemble(req, "empirical mode"))


def _ensemble(req, what):
    """The shared E_t ensemble of ``req``, or a fresh one from its SimConfig."""
    if req.ensemble is not None:
        return req.ensemble
    if req.sim is None:
        raise DomainError("%s needs a SimConfig or a shared ensemble" % what)
    return sample_E_t(req.kernel, req.sim, req.t)


def _panel_edges(req, r_hi):
    model, geometry = req.model, req.geometry
    lo = r_hi * 1e-9
    kinks = set()
    if req.q_override is None:
        for pnt in (req.x, req.y):
            dp = geometry.delta(pnt)
            if math.isfinite(dp):
                kinks.add(dp**model.alpha)
        rho = geometry.rho(req.x, req.y)
        if rho > 0.0:
            kinks.add(rho**model.alpha)
            # near the diagonal the kink would sit inside the first panel [0, lo]
            lo = min(lo, 1e-3 * rho**model.alpha)
        kinks.add(1.0)  # long-time branch switch of the displayed classes
    edges = set(np.geomspace(lo, r_hi, 40))
    edges |= {k for k in kinks if lo < k < r_hi}
    edges.add(0.0)
    edges.add(r_hi)
    return np.array(sorted(edges))


def p_quadrature(req):
    """Deterministic p(t,x,y) through the E_t density."""
    dens = _density_for(req)
    edges = _panel_edges(req, dens.r_max())
    v64 = checked_panels("p", lambda rs: req.q_at(rs) * dens(rs), edges,
                          max(req.rtol, dens.accuracy))
    if isinstance(dens, EmpiricalDensity):
        # boundary masses outside the fitted CDF window contribute endpoint values
        q_lo, q_hi = req.q_at(np.array([dens.lo, dens.hi]))
        v64 += dens.mass_below * float(q_lo)
        v64 += dens.mass_above * float(q_hi)
        return PValue(value=v64, method="quadrature-empirical",
                      diagnostic="bandwidth=%.3g(log r)" % dens.bandwidth)
    return PValue(value=v64, method="quadrature")


def p_mc(req):
    """Monte Carlo p(t,x,y): ensemble mean of q(E_t,x,y), censoring counted."""
    ens = _ensemble(req, "p_mc")
    col = ens.values[:, 0]
    vals = np.asarray(req.q_at(col), dtype=float)
    n = len(vals)
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(n)
    censored = int(np.count_nonzero(ens.censored[:, 0])) if ens.censored is not None else 0
    diag = None
    if mean > 0.0 and se / mean > 0.10:
        diag = (
            "increase paths: relative se %.1f%%; variance %.3g over %d paths"
            % (100.0 * se / mean, float(np.var(vals)), n)
        )
    return PValue(value=mean, se=se, n_paths=n, censored=censored, method="mc", diagnostic=diag)


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
    col = ens.values[:, 0]
    grid = np.geomspace(max(col.min(), 1e-12), col.max(), 80)
    qvals = np.array([_inner_Q(req, r) for r in grid])
    z = np.interp(col, grid, qvals)
    return PValue(
        value=float(np.mean(z)),
        se=float(np.std(z)) / math.sqrt(len(z)),
        n_paths=len(z),
        censored=int(np.count_nonzero(ens.censored[:, 0])) if ens.censored is not None else 0,
        method="mc",
    )


def diagonal_probe(kernel, model, t, n_octaves=60, rel_cut=1e-3):
    """Diagonal finiteness probe for truncated kernels.

    Integrates q(r,x,x) = r^{-d/alpha} against the structural small-r
    crossing law [r + (n t_f - t)^n] r^n (the exp(-c t log t) factor is an
    r-independent constant and irrelevant to convergence), over geometric
    panels [R 2^{-j-1}, R 2^{-j}].  Convergence is declared when the last
    octave contributes less than ``rel_cut`` of the running total, otherwise
    divergence.
    """
    t_f = kernel.support_end
    if not math.isfinite(t_f):
        raise DomainError("diagonal probe needs a truncated kernel")
    if t < t_f / 2.0:
        raise DomainError("diagonal probe covers t >= t_f/2")
    n = math.floor(t / t_f) + 1
    weight = (n * t_f - t) ** n
    s = model.d / model.alpha

    def dP(r):  # structural dP/dr up to the constant exp(-c t log t)
        return (n + 1.0) * r**n + n * weight * r ** (n - 1.0)

    R = 1.0
    contributions = []
    total = 0.0
    x, w = GL32
    for j in range(n_octaves):
        a, b = R * 2.0 ** (-j - 1), R * 2.0 ** (-j)
        mid = 0.5 * (a + b) + 0.5 * (b - a) * x
        val = float(np.sum(0.5 * (b - a) * w * mid**-s * dP(mid)))
        contributions.append(val)
        total += val
    verdict = "converged" if contributions[-1] <= rel_cut * total else "diverged"
    return {
        "verdict": verdict,
        "n_t": n,
        "weight": weight,
        "total": total,
        "last_fraction": contributions[-1] / total,
        "octaves": n_octaves,
    }
