"""Closed-form estimate families for the fundamental solution p(t,x,y).

This module transcribes, with every suppressed constant set to 1, the
displayed two-sided estimates: the auxiliary piecewise function F_alpha
(seven cases, selected by the exponent s against the thresholds of its
boundary class: {0, alpha/2, alpha} for F_k, {2-alpha, 1, alpha} for F_c),
the large-domain log factor G_d, the near-diagonal boundary integral

    I_k^gamma(t,x,y) = int_{Phi(rho)}^{1/(2e^2 phi(1/t))}
                           a_k^gamma(r,x,y) / V(x, Phi^{-1}(r)) dr,
    J_k^gamma(t,x,y) = a_k^gamma(1/phi(1/t),x,y) / V(Phi^{-1}(1/phi(1/t)))
                       + w(t) I_k^gamma(t,x,y),

evaluated, like every integral of a_k^gamma here, by the package's checked
panel rule (``quadrature.checked_panels_many``; the list forms
``boundary_integral_many``, ``I_gamma_quadrature_many`` and ``J_gamma_many``
check a whole list in one call, bit for bit as one at a time, and raise the
first miss in list order), its closed forms per exponent
case (a)..(g) and boundary scenario (Sc.1)-(Sc.3), the elementary integral
S_p with its asymptotic regimes, and
the theorem registry: each tag of the special classes, the general theorems
and the two worked examples (truncated-Caputo in free space,
distributed-order on a bounded interval) maps to its named regime
predicates and its form.  theorem_estimate checks the predicates and
evaluates the form; regime_grid admits exactly the points that pass them.
The regime inequality Phi(rho) phi(1/t) vs 1/(4e^2), its tie rule and the
default margin and horizon come from ``tail_bounds``, the one place they are
defined.  A case reads w, the kernel's parameters and its certified (Sub.)
constants from its table (``table.kernel``, ``table.conditions``).

Conventions: log+ x = max(0, log x); when gamma = 0 the boundary distances
are treated as infinite, which silently switches every scenario split to its
interior branch; at exact case boundaries the display's own equality branch
is used (never interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .bernstein import calN
from .errors import DomainError, RegimeError
from .heat_kernel import (a_gamma_delta, boundary_min_form, boundary_power_form, delta_star_min_form,
                          geometry_probe, q_eval)
from .kernels import Truncated
from .quadrature import GRADE, checked_panels_many, graded_edges, row_columns
from .tail_bounds import HORIZON_T, MARGIN, QUARTER_E2, near_diagonal, off_diagonal, within_bound

__all__ = [
    "F_alpha",
    "G_alpha_d",
    "I_gamma_quadrature",
    "I_gamma_quadrature_many",
    "J_gamma",
    "J_gamma_many",
    "boundary_integral",
    "closed_I_gamma",
    "S_p",
    "EstimateCase",
    "theorem_estimate",
    "regime_failure",
    "CASE_TAGS",
    "HALF_E2",
]

# the upper limit 1/(2e^2) of the near-diagonal integral in units of 1/phi(1/t)
HALF_E2 = 2.0 * QUARTER_E2
# the boundary integral's target
_BOUNDARY_RTOL = 1e-8


def _logp(x):
    return max(0.0, math.log(x)) if x > 0.0 else 0.0


# ---------------------------------------------------------------------------
# The auxiliary piecewise functions
# ---------------------------------------------------------------------------


def F_alpha(cls, alpha, s, phi_t_inv, rho, dx, dy):
    """F^alpha_k(s,t,x,y) (cls "k") or F^alpha_c(s,t,x,y) (cls "c"), with
    phi_t_inv = 1/phi(t^{-1}) precomputed.

    Seven cases, selected by s against the class thresholds {a0, a1, alpha}
    of ``_boundary_class``: {0, alpha/2, alpha} resp. {2-alpha, 1, alpha}.
    Below a0, F stands for int r^{-s/alpha} dr up to phi_t_inv, whence the
    power phi_t_inv^{(a0-s)/alpha}.  The c class's 2-alpha < s < 1 display
    abbreviates the boundary product as delta(x,y)^{alpha-1}; it is
    evaluated as delta_*^{alpha-1} by pattern with the neighbouring cases.

    dx, dy may be inf (free space / gamma = 0 convention); the boundary
    indicator then vanishes and only the s = alpha and s > alpha cases
    survive.
    """
    e, a0, a1 = _boundary_class(cls, alpha)
    dstar = dx * dy
    dmin, dmax = min(dx, dy), max(dx, dy)
    # every case through a1 and below alpha carries the boundary indicator
    if (s <= a1 or s < alpha) and not dstar ** (alpha / 2.0) <= phi_t_inv:
        return 0.0
    if s < a0:
        return max(rho ** (2.0 * e), dstar**e) * phi_t_inv ** ((a0 - s) / alpha)
    if s == a0:
        return max(rho ** (2.0 * e), dstar**e) * _logp(2.0 * phi_t_inv / max(rho, dmax) ** alpha)
    if s < a1:
        return max(rho ** (alpha - s), dstar**e * dmax ** (a0 - s))
    if s == a1:
        return rho**e + dmin**e * math.log(max(rho, 2.0 * dmax) / max(rho, dmin))
    if s < alpha:
        return max(rho ** (alpha - s), dmin ** (alpha - s))
    if s == alpha:
        if rho == 0.0:
            return math.inf
        return 1.0 + _logp(2.0 * min(phi_t_inv, dmin**alpha) / rho**alpha)
    return rho ** (alpha - s)


def G_alpha_d(table, alpha, d, t, l, T):
    """Large-domain log factor G^alpha_d(t, l) with explicit horizon T."""
    if d < alpha:
        return 0.0
    if d == alpha:
        return math.log(
            2.0 / (table.phi(1.0 / t) * l * (1.0 / table.phi(1.0 / T)))
        )
    return l ** (alpha - d)


# ---------------------------------------------------------------------------
# Boundary integrals
# ---------------------------------------------------------------------------


def boundary_integral(model, k, lo, hi, dx, dy, weight_pow=0.0):
    """int_lo^hi r^{weight_pow} a_k^gamma(r)/V(Phi^{-1}(r)) dr by the checked
    panel rule, to _BOUNDARY_RTOL.

    Inverted limits return 0 (the regime is empty).  The panels are
    geometric on [lo, hi] and split at the scales Phi(delta_x), Phi(delta_y)
    and 1 where a_k^gamma turns; for lo = 0 they are geometric from
    hi*GRADE, below which one panel reaches 0 (``quadrature.graded_edges``).
    A divergent integral misses the target and raises QuadratureError.
    """
    return boundary_integral_many(model, k, [(lo, hi, dx, dy)], weight_pow)[0]


def _distances(values):
    """``quadrature.row_columns`` of the distances of a list, except that a
    list of free-space ones stays the float inf, the only infinity
    a_gamma_delta skips; a list mixing the two is refused."""
    infinite = [math.isinf(v) for v in values]
    if all(infinite):
        return lambda rows: math.inf
    if any(infinite):
        raise DomainError("a list of boundary integrals takes infinite distances in every row or in none")
    return row_columns(values)


def boundary_integral_many(model, k, limits, weight_pow=0.0):
    """[boundary_integral(model, k, lo, hi, dx, dy, weight_pow) for (lo, hi,
    dx, dy) in limits], bit for bit: the non-empty ranges go through one
    ``checked_panels_many`` call, an empty one (hi <= lo) gives 0.0 without
    evaluation, and the first integral in list order that misses the target
    raises its QuadratureError."""
    out = [0.0] * len(limits)
    live = [i for i, (lo, hi, _, _) in enumerate(limits) if hi > lo]
    if not live:
        return out
    g, alpha, d = model.gamma, model.alpha, model.d
    edges = []
    for i in live:
        lo, hi, dx, dy = limits[i]
        splits = {p**alpha for p in (dx, dy) if math.isfinite(p)} | {1.0}
        edges.append(graded_edges(lo, lo or hi * GRADE, hi, splits))
    dx, dy = (_distances([limits[i][j] for i in live]) for j in (2, 3))

    def f(r, rows):
        return r**weight_pow * a_gamma_delta(g, alpha, k, r, dx(rows), dy(rows)) / r ** (d / alpha)

    for i, v in zip(live, checked_panels_many(("boundary integral",) * len(live), f, edges, _BOUNDARY_RTOL)):
        out[i] = v
    return out


def I_gamma_quadrature_many(model, geometry, table, k, points):
    """I_k^gamma at each (t, x, y) of ``points`` by ``boundary_integral_many``;
    every point is checked against the domain before any evaluation."""
    limits = []
    for t, x, y in points:
        rho, dx, dy = geometry_probe(geometry, x, y)
        limits.append((rho**model.alpha, HALF_E2 / table.phi(1.0 / t), dx, dy))
    return boundary_integral_many(model, k, limits)


def I_gamma_quadrature(model, geometry, table, k, t, x, y):
    """The near-diagonal integral I_k^gamma(t,x,y) by the checked panel rule."""
    return I_gamma_quadrature_many(model, geometry, table, k, [(t, x, y)])[0]


def _J_lead(model, geometry, table, k, t, x, y):
    """J_k^gamma's first term a_k^gamma(1/phi(1/t))/V(Phi^{-1}(1/phi(1/t))) and w(t)."""
    _, dx, dy = geometry_probe(geometry, x, y)
    phi_inv = 1.0 / table.phi(1.0 / t)
    lead = a_gamma_delta(model.gamma, model.alpha, k, phi_inv, dx, dy)
    return lead / model.V_inv_time(phi_inv), float(table.kernel.w(t))


def J_gamma(model, geometry, table, k, t, x, y):
    """J_k^gamma(t,x,y): the full near-diagonal estimate form (w the table's)."""
    lead, w_t = _J_lead(model, geometry, table, k, t, x, y)
    return lead + w_t * I_gamma_quadrature(model, geometry, table, k, t, x, y)


def J_gamma_many(model, geometry, table, k, points):
    """[J_gamma(model, geometry, table, k, t, x, y) for (t, x, y) in points],
    bit for bit, its integrals from one ``I_gamma_quadrature_many`` call."""
    out = []
    for pt, integral in zip(points, I_gamma_quadrature_many(model, geometry, table, k, points)):
        lead, w_t = _J_lead(model, geometry, table, k, *pt)
        out.append(lead + w_t * integral)
    return out


# ---------------------------------------------------------------------------
# Closed forms of the near-diagonal integral (cases (a)-(g))
# ---------------------------------------------------------------------------


def _dgamma_case(alpha, d, gamma):
    ratio = d / alpha
    if gamma > 0.0 and abs(d - (1.0 - 2.0 * gamma) * alpha) < 1e-12:
        return "b"
    if gamma > 0.0 and abs(d - (1.0 - gamma) * alpha) < 1e-12:
        return "d"
    if abs(d - alpha) < 1e-12:
        return "f"
    if ratio < 1.0 - 2.0 * gamma:
        return "a"
    if 1.0 - 2.0 * gamma < ratio < 1.0 - gamma:
        return "c"
    if 1.0 - gamma < ratio < 1.0:
        return "e"
    if ratio > 1.0:
        return "g"
    raise DomainError("exponents (alpha=%g, d=%g, gamma=%g) not covered by the closed forms"
                      % (alpha, d, gamma))


def closed_I_gamma(model, geometry, table, t, x, y):
    """Closed form of I_1^gamma via the boundary-scenario decomposition.

    The three scenarios split the integration range by where the boundary
    factor a_1^gamma(r) saturates: (Sc.1) both distances comparable to rho,
    a ~ delta_*^Phi,gamma r^{-2 gamma} throughout; (Sc.2) three bands, a ~ 1
    below Phi(delta_x), one factor decaying up to Phi(delta_y), both beyond;
    (Sc.3) a ~ 1 on the whole range.  The band integrals S_p are elementary
    for power V and Phi and are evaluated exactly, so the only slack left
    against the direct quadrature is the saturation of a itself.

    Returns (value, case, scenario) with the exponent case letter (a)..(g)
    for grouping; gamma = 0 treats boundary distances as infinite, which
    forces the interior scenario.
    """
    g, alpha, d = model.gamma, model.alpha, model.d
    l, dx, dy = geometry_probe(geometry, x, y)
    if dx > dy:
        dx, dy = dy, dx
    if g == 0.0:
        dx = dy = math.inf
    phi_t = table.phi(1.0 / t)
    if not near_diagonal(l**alpha * phi_t, 1.0, table.quad_rtol):
        raise RegimeError(
            "closed_I_gamma needs Phi(rho) phi(1/t) = %g <= 1/(4e^2)" % (l**alpha * phi_t)
        )
    Phi = lambda r: r**alpha
    S = lambda p, A, B: S_p(p, A, B, alpha, d)["quadrature"]
    case = _dgamma_case(alpha, d, g)
    A = Phi(l)
    B = HALF_E2 / phi_t
    dstar_phi = Phi(dx) * Phi(dy)
    if Phi(dx) <= 4.0 * A:
        sc = 1
        val = dstar_phi**g * S(2.0 * g, A, B)
    elif near_diagonal(Phi(dy) * phi_t, 1.0, table.quad_rtol):
        sc = 2
        val = S(0.0, A, Phi(dx) / 2.0)
        val += Phi(dx) ** g * S(g, Phi(dx) / 2.0, Phi(dy))
        val += dstar_phi**g * S(2.0 * g, Phi(dy), B)
    else:
        sc = 3
        val = S(0.0, A, B)
    return val, case, "Sc.%d" % sc


def S_p(p, A, B, alpha, d):
    """The elementary integral S_p(A,B) = int_A^B r^{-p}/V(Phi^{-1}(r)) dr.

    Returns the direct quadrature value together with the matching
    asymptotic form: the A-endpoint dominates when d/alpha > 1-p, the
    B-endpoint when d/alpha < 1-p, and the integral is log(B/A) at equality.
    """
    if not 0.0 <= A < B:
        raise DomainError("S_p needs 0 <= A < B")
    q = p + d / alpha
    if A == 0.0 and q > 1.0 - 1e-12:
        raise DomainError("S_p diverges at A = 0 when p + d/alpha >= 1")
    if abs(q - 1.0) < 1e-12:
        direct = math.log(B / A)
        return {"quadrature": direct, "asymptotic": direct, "case": "iv"}
    direct = (B ** (1.0 - q) - A ** (1.0 - q)) / (1.0 - q)
    if d / alpha > 1.0 - p:
        asym = A ** (1.0 - p) / A ** (d / alpha)
        case = "ii"
    else:
        asym = B ** (1.0 - p) / B ** (d / alpha)
        case = "iii"
    return {"quadrature": direct, "asymptotic": asym, "case": case}


# ---------------------------------------------------------------------------
# Theorem registry: tag -> (regime predicates, form)
# ---------------------------------------------------------------------------


@dataclass
class EstimateCase:
    """One theorem evaluation request.

    margin is the safety factor applied to the regime inequalities; the
    horizon T enters the fixed-T statements (t >= T) and G_alpha_d.
    """

    tag: str
    table: object
    model: object
    geometry: object
    t: float
    x: float
    y: float
    horizon_T: float = HORIZON_T
    margin: float = MARGIN

    def __post_init__(self):
        if self.tag not in CASE_TAGS:
            raise DomainError("unknown estimate case tag %r" % (self.tag,))
        # Example 1 is stated for w = s^-beta - delta^-beta on (0, delta]: its
        # regimes and forms read the kernel's beta and delta
        if self.tag.startswith("example1-") and not isinstance(self.table.kernel, Truncated):
            raise DomainError("case tag %r needs a Truncated kernel, got %s"
                              % (self.tag, type(self.table.kernel).__name__))


class _Point(NamedTuple):
    """What every form shares; prod is Phi(rho) phi(1/t), inv is 1/phi(1/t)."""

    alpha: float
    d: float
    rho: float
    dx: float
    dy: float
    phi_t: float
    inv: float
    w_t: float
    prod: float


class _Delegate(NamedTuple):
    """select(case, prod) -> (sub tag, sub margin); branch formats the sub-branch."""

    select: object
    branch: str


# Regime predicates (name, test(case, prod)) with prod = Phi(rho) phi(1/t); every
# non-strict inequality goes through the tie rule ``within_bound``.
_NEAR = ("Phi(rho) phi(1/t) <= 1/(4e^2)",
         lambda c, prod: near_diagonal(prod, c.margin, c.table.quad_rtol))
_OFF = ("Phi(rho) phi(1/t) > 1/(4e^2)",
        lambda c, prod: off_diagonal(prod, c.margin, c.table.quad_rtol))
_NEAR_OR_OFF = ("Phi(rho) phi(1/t) outside the margin band around 1/(4e^2)",
                lambda c, prod: _NEAR[1](c, prod) or _OFF[1](c, prod))
_LATE = ("t >= T", lambda c, prod: within_bound(c.margin * c.horizon_T, c.t, c.table.quad_rtol))
_TRUNC_LATE = ("t >= t_f/2", lambda c, prod: within_bound(c.table.kernel.support_end / 2.0, c.t, c.table.quad_rtol))
_EX1_EARLY = ("t <= delta/2", lambda c, prod: within_bound(c.t, c.table.kernel.delta / 2.0, c.table.quad_rtol))
_EX1_LATE = ("t >= delta/2", lambda c, prod: within_bound(c.table.kernel.delta / 2.0, c.t, c.table.quad_rtol))
_UNIT_EARLY = ("t <= 1", lambda c, prod: within_bound(c.t, 1.0, c.table.quad_rtol))
_UNIT_LATE = ("t >= 1", lambda c, prod: within_bound(1.0, c.t, c.table.quad_rtol))
_BOUNDED = ("diam(D) < inf", lambda c, prod: c.geometry.bounded)
_LAMBDA_ZERO = ("lambda = 0", lambda c, prod: c.model.lam is None or c.model.lam == 0.0)
_LAMBDA_POS = ("lambda > 0", lambda c, prod: c.model.lam is not None and c.model.lam > 0.0)
_SUB = ("(Sub.) certified", lambda c, prod: c.table.conditions.sub is not None)
_TRUNC = ("(Trunc.) kernel", lambda c, prod: math.isfinite(c.table.kernel.support_end))


def _large_time(near_tag, off_tag, branch):
    """A t >= T statement that extends the small-time displays verbatim.

    The sub-display is picked by the bare inequality and evaluated at margin
    1, where near and off are complementary: no point of the outer tag's
    margin band is refused, and the outer margin applies only to t >= m T.
    """

    def select(case, prod):
        near = near_diagonal(prod, 1.0, case.table.quad_rtol)
        return (near_tag if near else off_tag(case)), 1.0

    return _Delegate(select, branch)


# the off-diagonal display of each family under mainlarge-i
_MAIN_OFF = {"HK_D": "mainsmall-ii-b", "D1": "mainsmall-ii-b", "D2": "mainsmall-ii-b",
             "D3": "mainsmall-ii-b", "HK_M": "mainsmall-ii-c"}


def _main_off_tag(case):
    return _MAIN_OFF.get(case.model.family, "mainsmall-ii-a")


def _diffusive(case):
    return abs(case.model.alpha - 2.0) < 1e-12


def _boundary_class(cls, alpha):
    """(e, a0, a1) of the jump/diffusion ("k") or censored ("c") class: the
    boundary exponent e and the two lower thresholds of F_alpha's cases."""
    return (alpha / 2.0, 0.0, alpha / 2.0) if cls == "k" else (alpha - 1.0, 2.0 - alpha, 1.0)


def _q_ct(case):
    return q_eval(case.model, case.geometry, case.t, case.x, case.y), "q(ct,x,y)"


def _diffusion_off(case, pt, bnd):
    """bnd phi(1/t)^{d/alpha} exp(-c t bar_phi_alpha((rho/t)^alpha))."""
    t = case.t
    return bnd * pt.phi_t ** (pt.d / pt.alpha) * math.exp(
        -t * case.table.bar_phi_alpha(pt.alpha, (pt.rho / t) ** pt.alpha)
    )


def _f_special_near(cls, branch, case, pt):
    alpha, d = pt.alpha, pt.d
    expo = _boundary_class(cls, alpha)[0]
    first = delta_star_min_form(expo, pt.inv ** (2.0 / alpha), pt.dx, pt.dy) * pt.phi_t ** (d / alpha)
    second = pt.w_t * delta_star_min_form(expo, pt.rho**2, pt.dx, pt.dy) * F_alpha(cls, alpha, d, pt.inv, pt.rho, pt.dx, pt.dy)
    return first + second, branch


def _f_special_off(cls, branch, case, pt):
    bnd = boundary_min_form(1.0, _boundary_class(cls, pt.alpha)[0], pt.inv ** (1.0 / pt.alpha), pt.dx, pt.dy)
    if branch == "off-diagonal diffusion":
        return _diffusion_off(case, pt, bnd), branch
    return bnd * pt.inv / pt.rho ** (pt.d + pt.alpha), branch


def _f_bounded(cls, subexp, case, pt):
    """scale (1 ^ delta_*/rho^2)^e [(1 ^ delta_*^e) + F(d, T_D)] on a bounded D,
    scale w(t) or, for the (Sub.) kernels, exp(-theta t^beta)."""
    expo = _boundary_class(cls, pt.alpha)[0]
    # at t = T_D := [phi^{-1}(R^-alpha/(4e^2))]^{-1} the inverse exponent is
    # exactly 4e^2 R^alpha
    invTD = case.geometry.diam**pt.alpha / QUARTER_E2
    bracket = delta_star_min_form(expo, 1.0, pt.dx, pt.dy) + F_alpha(cls, pt.alpha, pt.d, invTD, pt.rho, pt.dx, pt.dy)
    rho_form = delta_star_min_form(expo, pt.rho**2, pt.dx, pt.dy)
    if not subexp:
        return pt.w_t * rho_form * bracket, "large-time bounded"
    beta, theta = case.table.conditions.sub["beta"], case.table.conditions.sub["theta"]
    val = math.exp(-theta * case.t**beta) * rho_form * bracket
    return val, "subexponential large-time"


def _f_exterior(case, pt):
    alpha, d, family = pt.alpha, pt.d, case.model.family
    b1 = boundary_min_form(1.0, alpha / 2.0, 1.0, pt.dx, pt.dy)
    if near_diagonal(pt.prod, case.margin, case.table.quad_rtol):
        G = G_alpha_d(case.table, alpha, d, case.t, max(1.0, pt.rho), case.horizon_T)
        first = b1 * (pt.phi_t ** (d / alpha) + pt.w_t * G)
        second = 0.0
        if pt.rho <= 1.0:
            # at t* = [phi^{-1}(1/(4e^2))]^{-1} the inverse exponent is 4e^2
            second = (
                pt.w_t
                * delta_star_min_form(alpha / 2.0, pt.rho**2, pt.dx, pt.dy)
                * F_alpha("k", alpha, d, 1.0 / QUARTER_E2, pt.rho, pt.dx, pt.dy)
            )
        return first + second, "exterior near-diagonal"
    if family.startswith("J") or family == "HK_J":
        return b1 * pt.inv / pt.rho ** (d + alpha), "exterior off-diagonal jump"
    return _diffusion_off(case, pt, b1), "exterior off-diagonal diffusion"


def _f_trunc(cls, case, pt):
    """The (Trunc.) window forms; cls None is the unbounded J2/J3/D2/D3 class."""
    alpha, d, t, t_f = pt.alpha, pt.d, case.t, case.table.kernel.support_end
    n_t = math.floor(t / t_f) + 1
    F = partial(F_alpha, cls or "k", alpha)
    expo = _boundary_class(cls or "k", alpha)[0]
    if cls is None:
        if not (pt.rho**alpha <= pt.inv and t < math.floor((d + alpha) / alpha) * t_f):
            return _q_ct(case)
        scale = pt.inv
    else:
        thresh = math.floor((d + alpha) / alpha) if cls == "k" else math.floor((d + 2.0 * alpha - 2.0) / alpha)
        if t >= thresh * t_f:
            return boundary_power_form(math.exp(-t), expo, pt.dx, pt.dy), "post-singular exponential"
        scale = case.geometry.diam**alpha / QUARTER_E2
    # 1/phi(1/t) (1 ^ delta_*/l^2)^{alpha/2} at l^2 = (1/phi(1/t))^{2/alpha}
    head = pt.inv * delta_star_min_form(alpha / 2.0, pt.inv ** (2.0 / alpha), pt.dx, pt.dy)
    bracket = (
        head
        + F(d - alpha * n_t, scale, pt.rho, pt.dx, pt.dy)
        + (n_t * t_f - t) ** n_t * F(d - alpha * (n_t - 1), scale, pt.rho, pt.dx, pt.dy)
    )
    return delta_star_min_form(expo, pt.rho**2, pt.dx, pt.dy) * bracket, "truncated polynomial window (n_t=%d)" % n_t


def _f_main_near(case, pt):
    m = case.model
    return J_gamma(m, case.geometry, case.table, m.k, case.t, case.x, case.y), "near-diagonal J form"


def _f_main_off(variant, case, pt):
    m = case.model
    a = a_gamma_delta(m.gamma, pt.alpha, m.k, pt.inv, pt.dx, pt.dy)
    if variant == "a":
        return a / (pt.phi_t * m.Phi(pt.rho) * m.V(pt.rho)), "off-diagonal jump"
    N = calN(case.table, pt.alpha, case.t, pt.rho)
    diff = a * math.exp(-N) / m.V_inv_time(pt.inv)
    if variant == "b":
        return diff, "off-diagonal diffusion"
    jump = a / (pt.phi_t * m.Psi(pt.rho) * m.V(pt.rho))
    return jump + diff, "off-diagonal mixed"


def _f_main_large_bounded(case, pt):
    I = boundary_integral(case.model, 1, pt.rho**pt.alpha, 2.0 * case.geometry.diam**pt.alpha, pt.dx, pt.dy)
    return pt.w_t * I, "large-time boundary integral"


def _f_main_sub_near(case, pt):
    if not near_diagonal(pt.prod, case.margin, case.table.quad_rtol):
        return _q_ct(case)
    m, t = case.model, case.t
    beta, theta = case.table.conditions.sub["beta"], case.table.conditions.sub["theta"]
    lead = a_gamma_delta(m.gamma, pt.alpha, m.k, t, pt.dx, pt.dy) / m.V_inv_time(t)
    I = boundary_integral(m, m.k, pt.rho**pt.alpha, HALF_E2 / pt.phi_t, pt.dx, pt.dy)
    lower = lead + pt.w_t * I
    upper = lead + math.exp(-0.5 * theta * t**beta) * I
    return 0.5 * (lower + upper), "subexp near-diagonal", lower, upper


def _f_main_sub_bounded(case, pt):
    m, t, w_t, alpha = case.model, case.t, pt.w_t, pt.alpha
    beta, theta = case.table.conditions.sub["beta"], case.table.conditions.sub["theta"]
    I = boundary_integral(m, 1, pt.rho**alpha, 2.0 * case.geometry.diam**alpha, pt.dx, pt.dy)
    if beta < 1.0:
        decay = math.exp(-theta * t**beta)
        return 0.5 * (w_t + decay) * I, "subexp boundary integral", w_t * I, decay * I
    tail = boundary_power_form(math.exp(-m.lam * t), m.gamma * alpha, pt.dx, pt.dy)
    lower = w_t * I + tail
    upper = math.exp(-0.5 * theta * t) * I + tail
    return 0.5 * (lower + upper), "exponential boundary mix", lower, upper


def _f_main2(bounded, case, pt):
    m, t, t_f, alpha = case.model, case.t, case.table.kernel.support_end, pt.alpha
    n_t = math.floor(t / t_f) + 1
    past_window = t >= math.floor(m.d / alpha + 2.0 * m.gamma) * t_f
    if bounded and past_window:
        return boundary_power_form(math.exp(-t), m.gamma * alpha, pt.dx, pt.dy), "post-singular exponential"
    if not bounded and pt.rho**alpha > t:
        return _q_ct(case)
    if past_window:
        return a_gamma_delta(m.gamma, alpha, m.k, t, pt.dx, pt.dy) / m.V_inv_time(t), "post-singular q form"
    hi = 2.0 * case.geometry.diam**alpha if bounded else 2.0 * t
    i1 = boundary_integral(m, 1, pt.rho**alpha, hi, pt.dx, pt.dy, weight_pow=float(n_t))
    i2 = boundary_integral(m, 1, pt.rho**alpha, hi, pt.dx, pt.dy, weight_pow=float(n_t - 1))
    return i1 + (n_t * t_f - t) ** n_t * i2, "truncated window (n_t=%d)" % n_t


def _f_example1_small(case, pt):
    alpha, d, t, rho, beta = pt.alpha, pt.d, case.t, pt.rho, case.table.kernel.beta
    if rho <= t ** (beta / alpha):
        if d < alpha:
            return t ** (-beta * d / alpha), "on-diagonal d<alpha"
        if rho == 0.0:
            return math.inf, "on-diagonal divergent"
        if d == alpha:
            return t**-beta * math.log(2.0 * t ** (beta / alpha) / rho), "on-diagonal log"
        return t**-beta / rho ** (d - alpha), "on-diagonal d>alpha"
    if not _diffusive(case):
        return t**beta / rho ** (d + alpha), "off-diagonal jump"
    val = t ** (-beta * d / alpha) * math.exp(
        -rho ** (2.0 / (2.0 - beta)) * t ** (-beta / (2.0 - beta))
    )
    return val, "off-diagonal gaussian"


def _f_example1_large(case, pt):
    alpha, d, t, rho, delta = pt.alpha, pt.d, case.t, pt.rho, case.table.kernel.delta
    n_t = math.floor(t / delta) + 1
    if rho**alpha > t:
        if not _diffusive(case):
            return t / rho ** (d + alpha), "off-diagonal jump"
        return t ** (-d / alpha) * math.exp(-rho**2 / t), "off-diagonal gaussian"
    if t >= math.floor(d / alpha) * delta:
        return t ** (-d / alpha), "diagonal-regular"
    d_over_a_int = abs(d / alpha - round(d / alpha)) < 1e-12
    if d_over_a_int and t >= (d - alpha) * delta / alpha:
        val = t ** (-d / alpha) + (d * delta / (alpha * t) - 1.0) ** (d / alpha) * math.log(
            2.0 * t / rho**alpha
        )
        return val, "log window"
    if t >= math.floor((d - alpha) / alpha) * delta and not d_over_a_int:
        val = t ** (-d / alpha) + (n_t * delta - t) ** n_t * t**-n_t / rho ** (d - alpha * n_t)
        return val, "mixed window (n_t=%d)" % n_t
    val = (rho**alpha / t + (n_t * delta - t) ** n_t) * t**-n_t / rho ** (d - alpha * n_t)
    return val, "early window (n_t=%d)" % n_t


_REGIMES = {
    "specialsmall-i-a": ((_NEAR,), partial(_f_special_near, "k", "near-diagonal jump/diffusion")),
    "specialsmall-i-b": ((_NEAR,), partial(_f_special_near, "c", "near-diagonal censored")),
    "specialsmall-ii-a": ((_OFF,), partial(_f_special_off, "k", "off-diagonal jump")),
    "specialsmall-ii-b": ((_OFF,), partial(_f_special_off, "c", "off-diagonal censored")),
    "specialsmall-ii-c": ((_OFF,), partial(_f_special_off, "k", "off-diagonal diffusion")),
    "speciallarge-i": ((_LATE, _BOUNDED), partial(_f_bounded, "k", False)),
    "speciallarge-ii": ((_LATE, _BOUNDED), partial(_f_bounded, "c", False)),
    "speciallarge-iii": ((_LATE,), _large_time(
        "specialsmall-i-a", lambda c: "specialsmall-ii-a", "large-time unbounded: {}")),
    "speciallarge-iv": ((_LATE,), _large_time(
        "specialsmall-i-a", lambda c: "specialsmall-ii-c", "large-time unbounded: {}")),
    "speciallarge-v": ((_LATE, _NEAR_OR_OFF), _f_exterior),
    "specialsub-i": ((_LATE, _BOUNDED, _SUB), partial(_f_bounded, "k", True)),
    "specialsub-ii": ((_LATE, _BOUNDED, _SUB), partial(_f_bounded, "c", True)),
    "specialtrunc-i": ((_TRUNC, _TRUNC_LATE, _BOUNDED), partial(_f_trunc, "k")),
    "specialtrunc-ii": ((_TRUNC, _TRUNC_LATE, _BOUNDED), partial(_f_trunc, "c")),
    "specialtrunc-iii": ((_TRUNC, _TRUNC_LATE), partial(_f_trunc, None)),
    "mainsmall-i": ((_NEAR,), _f_main_near),
    "mainsmall-ii-a": ((_OFF,), partial(_f_main_off, "a")),
    "mainsmall-ii-b": ((_OFF,), partial(_f_main_off, "b")),
    "mainsmall-ii-c": ((_OFF,), partial(_f_main_off, "c")),
    # lambda = 0: the small-time estimates extend verbatim to t >= T
    "mainlarge-i": ((_LATE, _LAMBDA_ZERO), _large_time("mainsmall-i", _main_off_tag, "large-time: {}")),
    "mainlarge-ii": ((_LATE, _LAMBDA_POS, _BOUNDED), _f_main_large_bounded),
    "mainsub-i": ((_SUB, _LATE), _f_main_sub_near),
    "mainsub-ii": ((_SUB, _LATE, _LAMBDA_POS, _BOUNDED), _f_main_sub_bounded),
    "main2-i": ((_TRUNC, _TRUNC_LATE), partial(_f_main2, False)),
    "main2-ii": ((_TRUNC, _TRUNC_LATE, _LAMBDA_POS, _BOUNDED), partial(_f_main2, True)),
    "example1-small": ((_EX1_EARLY,), _f_example1_small),
    "example1-large": ((_EX1_LATE,), _f_example1_large),
    "example2-i": ((_UNIT_EARLY,), _Delegate(
        lambda c, prod: ("specialsmall-i-a", c.margin), "distributed-order near-diagonal")),
    "example2-ii": ((_UNIT_EARLY,), _Delegate(
        lambda c, prod: ("specialsmall-ii-c" if _diffusive(c) else "specialsmall-ii-a", c.margin),
        "distributed-order off-diagonal")),
    "example2-iii": ((_UNIT_LATE,), _Delegate(
        lambda c, prod: ("speciallarge-i", 1.0), "distributed-order large-time")),
}

CASE_TAGS = tuple(_REGIMES)


def _sub_case(case, delegate, prod):
    tag, margin = delegate.select(case, prod)
    return replace(case, tag=tag, margin=margin)


def regime_failure(case, phi_t):
    """Name of the first regime predicate of ``case.tag`` that fails, or None.

    ``phi_t`` is phi(1/t), passed in so that a t-grid computes it once per t.
    A delegating tag also checks the predicates of the display it delegates
    to, at the margin of the delegation.
    """
    prod = case.geometry.rho(case.x, case.y) ** case.model.alpha * phi_t
    predicates, form = _REGIMES[case.tag]
    for name, test in predicates:
        if not test(case, prod):
            return name
    if isinstance(form, _Delegate):
        return regime_failure(_sub_case(case, form, prod), phi_t)
    return None


def _evaluate(case, pt):
    form = _REGIMES[case.tag][1]
    if isinstance(form, _Delegate):
        out = _evaluate(_sub_case(case, form, pt.prod), pt)
        out["branch"] = form.branch.format(out["branch"])
        return out
    value, branch, *bounds = form(case, pt)
    lower, upper = bounds or (value, value)
    return {"value": value, "lower": lower, "upper": upper, "branch": branch}


def theorem_estimate(case):
    """Evaluate the displayed two-sided form of one theorem branch.

    Free constants are 1, the constant c of every exponential argument
    (as in q(ct,x,y) and exp(-ct)) included; returns {"value", "lower",
    "upper", "branch"}; out-of-regime inputs raise RegimeError naming the
    failed predicate.
    """
    m = case.model
    rho, dx, dy = geometry_probe(case.geometry, case.x, case.y)
    phi_t = case.table.phi(1.0 / case.t)
    pt = _Point(m.alpha, m.d, rho, dx, dy, phi_t, 1.0 / phi_t, float(case.table.kernel.w(case.t)),
                rho**m.alpha * phi_t)
    failed = regime_failure(case, phi_t)
    if failed is not None:
        raise RegimeError("outside regime: %s" % failed)
    return _evaluate(case, pt)
