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
with DomainError and goes through the Monte Carlo route.  Its target is 1e-8
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
E_t ensemble).  Every integral over q, p's and Q's alike, is checked by
``quadrature.checked_panels_many`` on the 32- and the 64-node
Gauss-Legendre points of its panels: the two panel sums must agree to the
target, otherwise QuadratureError.  Model kernels here are class
representatives, so u verifies structure (decay rates, symmetry, boundary
order), not physical values.

A ``Problem`` holds what every point of one fundamental solution shares:
the kernel, the model, the geometry, f for u, the SimConfig of the Monte
Carlo routes and a diagnostic q_override.  Each route has a list form that
takes the problem once and a list of points, (t, x, y) for p and (t, x) for
u; an empty list gives [].  The one-point functions ``p_quadrature``,
``p_mc`` and ``solve_u`` are their list form on one point.

* ``p_mc_many`` walks one E_t ensemble, ``sample_E_t`` at the points' t
  in list order (unsorted and repeated levels allowed), to the largest t,
  and point i reads row i, so every level's first passage comes from the
  same subordinator paths.  Each point's Phi(delta_x), Phi(delta_y) and
  Phi(rho) must be positive floats, as in quadrature mode, and are checked
  before the walk.
* ``p_quadrature_many`` and ``solve_u_many`` check all their integrals in
  one ``checked_panels_many`` call, in groups of the same panel count, with
  q evaluated once per group chunk: x, y and t (for Q, x and r) reach q and
  the density as (rows, 1, 1) columns, and ``heat_kernel`` raises such a
  column as it raises a lone float, so every value equals its one-point
  call bit for bit.  Every point is checked against the domain before any
  evaluation, and the first point in list order whose integral misses
  its target raises its QuadratureError.
* ``solve_u_mc`` is u's Monte Carlo route, one point at a time.

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
from .quadrature import GRADE, checked_panels_many, graded_edges, row_columns
from .simulate import SimConfig, sample_E_t

__all__ = [
    "Problem",
    "PValue",
    "StableHalfDensity",
    "p_quadrature_many",
    "p_mc_many",
    "solve_u_many",
    "diagonal_probe",
]

# the one target of the quadrature mode, relative
_RTOL = 1e-8
# clock nodes of u's outer integral in quadrature mode
_U_NODES = 160


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
        return np.exp(-np.asarray(r) ** 2 / (4.0 * self.t)) / np.sqrt(math.pi * self.t)

    def r_max(self):
        return 18.0 * math.sqrt(self.t)  # exp(-81) tail mass


@dataclass
class Problem:
    """One fundamental solution, evaluated at many points: the kernel w of
    the time derivative, the estimate class q and the domain D, with what the
    routes need besides the points."""

    kernel: object
    model: object
    geometry: object
    f: object = None  # callable on an array of points y -> f(y), for u
    sim: SimConfig | None = None  # the Monte Carlo routes' E_t ensemble
    q_override: object = None  # diagnostic kernel r -> q(r), replaces q(r,x,y)

    def q_at(self, r, x, y):
        """q(r, x, y); r, x and y broadcast against each other."""
        if self.q_override is not None:
            return self.q_override(r)
        return q_eval(self.model, self.geometry, r, x, y)


@dataclass
class PValue:
    value: float
    se: float = 0.0
    n_paths: int = 0
    censored: int = 0
    method: str = "quadrature"
    diagnostic: str | None = None


def _half_caputo(problem):
    """DomainError unless the problem's kernel has the closed-form E_t
    density that quadrature mode integrates against."""
    if not is_half_caputo(problem.kernel):
        raise DomainError(
            'quadrature mode needs the closed-form E_t density of the order-1/2 Caputo '
            'kernel; use method="mc" for %s' % type(problem.kernel).__name__
        )


def _kink(model, dist):
    """Phi(dist) = dist^alpha for a distance dist > 0; DomainError unless it
    is a positive float, since the clock panels start and split there."""
    try:
        phi = dist**model.alpha
    except OverflowError:
        phi = math.inf
    if not 0.0 < phi < math.inf:
        raise DomainError("Phi(%g) = %g^alpha leaves the positive floats for alpha=%g" % (dist, dist, model.alpha))
    return phi


def _point_kinks(problem, x, y):
    """The set of Phi(delta_x) and Phi(delta_y) where the distance is finite,
    and Phi(rho) where rho > 0, else None: the kinks of q(., x, y) in r,
    each checked by ``_kink``."""
    model, geometry = problem.model, problem.geometry
    kinks = {_kink(model, dp) for dp in map(geometry.delta, (x, y)) if math.isfinite(dp)}
    rho = geometry.rho(x, y)
    return kinks, (_kink(model, rho) if rho > 0.0 else None)


def _panel_edges(problem, x, y, r_hi):
    start = r_hi * 1e-9
    kinks = set()
    if problem.q_override is None:
        kinks, phi_rho = _point_kinks(problem, x, y)
        if phi_rho is not None:
            kinks.add(phi_rho)
            # near the diagonal the kink would sit inside the first panel [0, start]
            start = min(start, 1e-3 * phi_rho)
        else:
            # on it the first panel must hold a negligible share of r^{-d/alpha}
            start = r_hi * GRADE
        kinks.add(1.0)  # long-time branch switch of the displayed classes
    return graded_edges(0.0, start, r_hi, kinks)


def p_quadrature_many(problem, points):
    """[p_quadrature(problem, t, x, y) for (t, x, y) in points], bit for
    bit, from one ``checked_panels_many`` call: x, y and t reach q and the
    density as columns.  Every point is checked against the domain before
    any evaluation, and the first point in list order that misses 1e-8
    raises its QuadratureError."""
    if not points:
        return []
    _half_caputo(problem)
    edges = [_panel_edges(problem, x, y, StableHalfDensity(t).r_max()) for t, x, y in points]
    t, x, y = map(row_columns, zip(*points))

    def integrand(rs, rows):
        return problem.q_at(rs, x(rows), y(rows)) * StableHalfDensity(t(rows))(rs)

    values = checked_panels_many(("p",) * len(points), integrand, edges, _RTOL)
    return [PValue(value=v, method="quadrature") for v in values]


def p_quadrature(problem, t, x, y):
    """Deterministic p(t,x,y) through the E_t density, checked to 1e-8 relative."""
    return p_quadrature_many(problem, [(t, x, y)])[0]


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


def p_mc_many(problem, points):
    """[p_mc(problem, t, x, y) for (t, x, y) in points] from one E_t walk:
    ``sample_E_t`` of ``problem.sim`` at the points' t in list order, to the
    largest t, and point i's ensemble mean of q(E_t,x,y) over row i,
    censoring counted.  Without q_override, each point's Phi(delta) and
    Phi(rho) are checked (``_point_kinks``) before the walk."""
    if not points:
        return []
    if problem.sim is None:
        raise DomainError("p_mc_many needs a SimConfig")
    if problem.q_override is None:
        for _, x, y in points:
            _point_kinks(problem, x, y)
    rows = map(sample_E_t(problem.kernel, problem.sim, [t for t, _, _ in points]).row, range(len(points)))
    return [_mc_value(ens, np.asarray(problem.q_at(ens.values, x, y), dtype=float))
            for (_, x, y), ens in zip(points, rows)]


def p_mc(problem, t, x, y):
    """Monte Carlo p(t,x,y): ensemble mean of q(E_t,x,y), censoring counted."""
    return p_mc_many(problem, [(t, x, y)])[0]


# panel edges toward a wall, as fractions of the distance to the window's middle
_WALL_STEPS = 16.0 ** -np.arange(11)


def _inner_edges(problem, x, r):
    """Panels of Q(r,x), split at the kinks of q(r,x,.): y = x +- r^{1/alpha} 8^j,
    delta(y) = r^{1/alpha} and the interval's midpoint.  Toward a wall
    q ~ delta(y)^{alpha gamma}, so the panels there shrink geometrically."""
    g = problem.geometry
    scale = r ** (1.0 / problem.model.alpha)
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


def _inner_Qs(problem, xs, rs):
    """Q(r,x) = int_D q(r,x,y) f(y) dy at each (x, r) pair of the lists ``xs``
    and ``rs``, checked to 1e-7 relative or 1.49e-8 absolute in list order;
    x and r reach q as columns."""
    f = problem.f if problem.f is not None else (lambda y: 1.0)
    edges = [_inner_edges(problem, x, r) for x, r in zip(xs, rs)]
    x, r = row_columns(xs), row_columns(rs)
    return checked_panels_many(["Q(r=%g, x)" % v for v in rs],
                               lambda ys, rows: problem.q_at(r(rows), x(rows), ys) * f(ys),
                               edges, 1e-7, 1.49e-8)


def solve_u_many(problem, points):
    """[solve_u(problem, t, x) for (t, x) in points], bit for bit: every x is
    checked against the domain before any evaluation, and the inner
    integrals of every point go through one ``checked_panels_many`` call, so
    the first one in list order that misses its target raises its
    QuadratureError."""
    if not points:
        return []
    _half_caputo(problem)
    for _, x in points:
        problem.geometry.delta(x)
    dens = [StableHalfDensity(t) for t, _ in points]
    # the inner integral is smooth in log r; a trapezoid in log r at
    # _U_NODES nodes resolves it far below the factor-level tolerances u feeds
    nodes = [np.geomspace(d.r_max() * 1e-7, d.r_max(), _U_NODES) for d in dens]
    vals = _inner_Qs(problem, [x for _, x in points for _ in range(_U_NODES)],
                     [r for row in nodes for r in row])
    out = []
    for i, (d, edges) in enumerate(zip(dens, nodes)):
        q = np.array(vals[_U_NODES * i : _U_NODES * (i + 1)])
        gm = np.asarray(d(0.5 * (edges[:-1] + edges[1:])), dtype=float)
        qm = 0.5 * (q[:-1] + q[1:])
        out.append(PValue(value=float(np.sum(np.diff(edges) * gm * qm)), method="quadrature"))
    return out


def solve_u(problem, t, x):
    """u(t,x) = int_D p(t,x,y) f(y) dy, by the swapped-order quadrature."""
    return solve_u_many(problem, [(t, x)])[0]


def solve_u_mc(problem, t, x):
    """Monte Carlo u(t,x): the inner integral on a log grid of clock values,
    checked in one ``_inner_Qs`` call and interpolated over a fresh E_t
    ensemble from ``problem.sim``, so the standard error is the per-path CLT
    error of Q(E_t, x)."""
    if problem.sim is None:
        raise DomainError("solve_u_mc needs a SimConfig")
    ens = sample_E_t(problem.kernel, problem.sim, t)
    col = ens.values
    grid = np.geomspace(max(col.min(), 1e-12), col.max(), 80)
    qvals = np.array(_inner_Qs(problem, [x] * grid.size, grid))
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
