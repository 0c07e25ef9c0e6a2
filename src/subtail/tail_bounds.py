"""Theoretical tail-probability bounds and their validity regimes.

Each bound of the theory holds on an explicit inequality region of (r, t),
always with free constants whose existence (not value) is proven; here the
structural part is evaluated with every free constant set to 1 and the
comparability layer fits and monitors the constants.

Upper bounds for P(S_r >= t):

* small-t-poly:   c r w(t)                    on t <= t_s, r phi(1/t) <= 1/(4e^2)
* large-t-poly:   c r w(t)                    on t >= T,  r phi(1/t) <= 1/(4e^2)
* subexp:         c r exp(-theta t^beta / 2)  on t >= T, r/t <= L
                  (sharp variant c r exp(-theta t^beta + k r) for beta < 1)
* truncated-small-r: [r + (n t_f - t)^n] r^n exp(-c t log t), n = floor(t/t_f)+1,
                  on r <= r_0, t >= t_f/2
* truncated-linear:  exp(-c t log(t/r))       on t >= t_f/2, r/t <= L

Lower bounds:

* universal-lower: P(S_r >= t) >= e^{-eL} r w(t) whenever r phi(1/t) <= L
* lower-tail (both directions for P(S_r <= t)):
      exp(-r H((phi')^{-1}(t/r))) as the upper bound and the same exponent
      with free (c1, c2) below, on r >= N b^{-1}(t).

The regime inequality r phi(1/t) vs 1/(4e^2), which the heat-kernel
estimates reuse with r = Phi(rho) (near_diagonal / off_diagonal), its tie
rule (within_bound) and the classifier's constants are defined here and
nowhere else.  The tail-regime table maps each tag to the structural
condition it needs, its predicates and its form.

Regime classification applies a margin factor of 2 to every boundary
inequality, because the statements are asymptotic near their boundaries and
MC noise would dominate there.  A point inside no regime, or inside two
regimes whose structural forms disagree, is reported as unclassified rather
than guessed at.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

from .errors import RegimeError
from .kernels import check_conditions

__all__ = [
    "QUARTER_E2",
    "MARGIN",
    "HORIZON_T",
    "near_diagonal",
    "off_diagonal",
    "within_bound",
    "lower_bound_universal",
    "upper_bound_form",
    "lower_tail_bounds",
    "truncated_small_r_threshold",
]

# the edge 1/(4e^2) of the regime inequality
QUARTER_E2 = 1.0 / (4.0 * math.e**2)
# The regime classifier's constants: MARGIN is the safety factor kept from
# every boundary, HORIZON_T the fixed large-time horizon of the t >= T
# statements, SUB_L the r/t threshold of the subexponential bounds (the theory
# only guides it qualitatively) and SUB_K the rate k of the sharp subexponential
# form.
MARGIN = 2.0
HORIZON_T = 1.0
SUB_L = 0.5
SUB_K = 1.0


def within_bound(value, bound, rtol):
    """Tie rule of the non-strict regime inequalities ``value <= bound``.

    The theory's regions are closed (r phi(1/t) <= L and the like), but a
    ``value`` built from phi is certified only to the table's ``quad_rtol``:
    the package's one checked rule (``quadrature.checked``) accepts phi when
    its 24- and 40-node sums agree to that relative error, so at a tie the
    computed value can land ulps above the bound, and a strict float
    comparison would decide the edge by rounding noise.
    So the value counts as ``<= bound`` unless it exceeds the bound by more
    than ``rtol`` relative.  The slack is the certified error of phi because
    nothing finer is known about the value and nothing coarser is needed;
    the theory itself fixes only that the inequality is non-strict.
    """
    return value - bound <= rtol * abs(bound)


def near_diagonal(prod, margin, rtol):
    """The regime inequality prod <= 1/(4e^2 margin), prod = r phi(1/t) (with
    r = Phi(rho) in the heat-kernel estimates); its edge is admitted by the
    tie rule ``within_bound`` (rtol: the table's quad_rtol)."""
    return within_bound(prod, QUARTER_E2 / margin, rtol)


def off_diagonal(prod, margin, rtol):
    """Its strict complement prod > margin/(4e^2)."""
    return not within_bound(prod, margin * QUARTER_E2, rtol)


_R0 = weakref.WeakKeyDictionary()  # table -> {t_f: r_0}


def truncated_small_r_threshold(table, kernel):
    """r_0 with r phi(1/r) <= 1/(4e^2) and r <= t_f/6 for all r <= r_0.

    r phi(1/r) = phi(lam)/lam at lam = 1/r falls as lam grows, so below the
    cap t_f/6 r_0 is 1/lam at the root of 1/(4e^2) - phi(lam)/lam, found by
    the table's root finder from the grid cell its probes pick, without
    building the grid.  r_0 depends only on the table's phi and on t_f, so
    the root is solved once per (table, t_f) and later calls return the
    remembered value.
    """
    t_f = kernel.support_end
    known = _R0.setdefault(table, {})
    if t_f not in known:
        r0 = t_f / 6.0
        if r0 * table.phi(1.0 / r0) > QUARTER_E2:
            r0 = 1.0 / table._root(lambda lam: QUARTER_E2 - table.phi(lam) / lam)
        known[t_f] = r0
    return known[t_f]


class _TailPoint(NamedTuple):
    """What every predicate and form shares; rp is r phi(1/t), r0 the
    truncated small-r threshold (None unless the kernel is truncated)."""

    kernel: object
    conditions: object
    r: float
    t: float
    rp: float
    r0: float | None
    rtol: float


def _edge(value):
    """The predicate value(p) <= 1/MARGIN under the tie rule."""
    return lambda p: within_bound(value(p), 1.0 / MARGIN, p.rtol)


def _near(p):
    return near_diagonal(p.rp, MARGIN, p.rtol)


_SMALL_T = _edge(lambda p: p.t / p.conditions.spoly["t_s"])
_LATE = _edge(lambda p: HORIZON_T / p.t)
_SMALL_R_OVER_T = _edge(lambda p: (p.r / p.t) / SUB_L)
_TRUNC_LATE = _edge(lambda p: p.conditions.trunc["t_f"] / (2.0 * p.t))
_BELOW_R0 = _edge(lambda p: p.r / p.r0)
_ABOVE_R0 = _edge(lambda p: p.r0 / p.r)


def _poly_form(p):
    return {"form": "r*w(t)", "value": p.r * float(p.kernel.w(p.t))}


def _subexp_form(p):
    beta, theta = p.conditions.sub["beta"], p.conditions.sub["theta"]
    out = {"form": "r*exp(-theta/2 t^beta)", "value": p.r * math.exp(-0.5 * theta * p.t**beta)}
    if beta < 1.0:
        out["sharp_value"] = p.r * math.exp(-theta * p.t**beta + SUB_K * p.r)
        out["sharp_form"] = "r*exp(-theta t^beta + k r)"
    return out


def _truncated_small_r_form(p):
    t_f = p.conditions.trunc["t_f"]
    n = math.floor(p.t / t_f) + 1
    return {
        "form": "[r+(n t_f - t)^n] r^n exp(-c t log t)",
        "value": (p.r + (n * t_f - p.t) ** n) * p.r**n * math.exp(-p.t * math.log(p.t)),
        "n_t": n,
    }


def _truncated_linear_form(p):
    return {"form": "exp(-c t log(t/r))", "value": math.exp(-p.t * math.log(p.t / p.r))}


# tag -> (ConditionReport field the kernel needs, predicates, form).  The
# small-r statement refines the linear-in-log one on r <= r_0, so the linear
# regime starts above r_0 to keep the classification a partition (no point
# receives two structurally different forms).
_TAIL_REGIMES = {
    "small-t-poly": ("spoly", (_SMALL_T, _near), _poly_form),
    "large-t-poly": ("lpoly", (_LATE, _near), _poly_form),
    "subexp": ("sub", (_LATE, _SMALL_R_OVER_T), _subexp_form),
    "truncated-small-r": ("trunc", (_BELOW_R0, _TRUNC_LATE), _truncated_small_r_form),
    "truncated-linear": ("trunc", (_SMALL_R_OVER_T, _TRUNC_LATE, _ABOVE_R0),
                         _truncated_linear_form),
}


def _point(kernel, table, r, t, conditions):
    if conditions is None:
        conditions = check_conditions(kernel)
    r0 = None if conditions.trunc is None else truncated_small_r_threshold(table, kernel)
    return _TailPoint(kernel, conditions, r, t, r * table.phi(1.0 / t), r0, table.quad_rtol)


def lower_bound_universal(table, kernel, r, t, L):
    """Universal lower bound e^{-eL} r w(t), valid whenever r phi(1/t) <= L.

    The edge r phi(1/t) = L is admitted by the tie rule of ``within_bound``.
    """
    rp = r * table.phi(1.0 / t)
    if not within_bound(rp, L, table.quad_rtol):
        raise RegimeError("universal lower bound needs r phi(1/t) = %g <= L = %g" % (rp, L))
    return math.exp(-math.e * L) * r * float(kernel.w(t))


def upper_bound_form(kernel, table, r, t, conditions=None):
    """Structural upper bound for P(S_r >= t) at (r, t).

    A regime admits (r, t) when the kernel satisfies its structural
    condition and every predicate holds under the tie rule ``within_bound``.
    Returns the form of the unique admissible regime (free constant left at
    1), with the admitting tags under "regimes".  Points admitted by several
    regimes are fine only when the forms coincide structurally; otherwise the
    result is the tag "unclassified", never a guess.
    """
    p = _point(kernel, table, r, t, conditions)
    tags = [tag for tag, (needs, predicates, _) in _TAIL_REGIMES.items()
            if getattr(p.conditions, needs) is not None and all(test(p) for test in predicates)]
    if not tags:
        return {"tag": "unclassified", "reason": "no regime admits (r=%g, t=%g)" % (r, t)}
    vals = [{"tag": tag, **_TAIL_REGIMES[tag][2](p)} for tag in tags]
    if len({v["form"] for v in vals}) > 1:
        return {"tag": "unclassified", "reason": "regimes %s disagree structurally" % sorted(tags)}
    out = vals[0]
    out["regimes"] = tags
    return out


@dataclass(frozen=True)
class LowerTailBounds:
    """Two-sided bounds for P(S_r <= t): exp(-exponent) above, and the same
    exponent with free (c1, c2) below, which at c1 = c2 = 1 is the upper
    bound again."""

    exponent: float
    upper: float


def lower_tail_bounds(table, r, t, N=1.0):
    """Jain-Pruitt lower-tail bounds at (r, t), valid for r >= N b^{-1}(t)."""
    binv = table.invert("b", t)
    if r < N * binv:
        raise RegimeError(
            "lower-tail bounds need r = %g >= N b^{-1}(t) = %g" % (r, N * binv)
        )
    lam = table.invert("phi_prime", t / r)
    expo = r * table.H(lam)
    return LowerTailBounds(exponent=expo, upper=math.exp(-expo))
