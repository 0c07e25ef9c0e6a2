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

Regime classification applies a margin factor of 2 to every boundary
inequality, because the statements are asymptotic near their boundaries and
MC noise would dominate there.  A point inside no regime, or inside two
regimes whose structural forms disagree, is reported as unclassified rather
than guessed at.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

from .errors import RegimeError
from .kernels import Truncated, check_conditions

__all__ = [
    "Regime",
    "classify",
    "lower_bound_universal",
    "upper_bound_form",
    "lower_tail_bounds",
    "truncated_small_r_threshold",
    "within_bound",
]

# The regime classifier's constants: MARGIN is the safety factor kept from
# every boundary, HORIZON_T the fixed large-time horizon of the t >= T
# statements, SUB_L the r/t threshold of the subexponential bounds (the theory
# only guides it qualitatively) and SUB_K the rate k of the sharp subexponential
# form.
MARGIN = 2.0
HORIZON_T = 1.0
SUB_L = 0.5
SUB_K = 1.0


@dataclass
class Regime:
    tag: str
    constraints: list = field(default_factory=list)  # (name, value, bound) with value <= bound


_R0 = weakref.WeakKeyDictionary()  # table -> {t_f: r_0}


def truncated_small_r_threshold(table, kernel):
    """r_0 with r phi(1/r) <= 1/(4e^2) and r <= t_f/6 for all r <= r_0.

    r phi(1/r) = phi(lam)/lam at lam = 1/r falls as lam grows, so below the
    cap t_f/6 r_0 is 1/lam at the root of 1/(4e^2) - phi(lam)/lam, found by
    the table's root finder from its own grid.  r_0 depends only on the
    table's phi and on t_f, so the root is solved once per (table, t_f) and
    later calls return the remembered value.
    """
    from .estimates import QUARTER_E2  # imported here: estimates imports this module

    t_f = kernel.support_end
    known = _R0.setdefault(table, {})
    if t_f not in known:
        r0 = t_f / 6.0
        if r0 * table.phi(1.0 / r0) > QUARTER_E2:
            r0 = 1.0 / table._root(lambda lam: QUARTER_E2 - table.phi(lam) / lam,
                                   QUARTER_E2 - table.phi_grid / table.lam_grid)
        known[t_f] = r0
    return known[t_f]


def classify(kernel, table, r, t, conditions=None):
    """All upper-bound regimes admitting (r, t) after the margin factor.

    A regime admits (r, t) when every constraint holds under the tie rule
    ``within_bound``.
    """
    from .estimates import QUARTER_E2  # imported here: estimates imports this module

    if conditions is None:
        conditions = check_conditions(kernel)
    edge = 1.0 / MARGIN  # every constraint reads value <= edge
    regs = []
    rp = r * table.phi(1.0 / t)
    if conditions.spoly is not None:
        regs.append(Regime(
            "small-t-poly",
            [("t/t_s", t / conditions.spoly["t_s"], edge), ("4e^2 r phi(1/t)", rp / QUARTER_E2, edge)],
        ))
    if conditions.lpoly is not None:
        regs.append(Regime(
            "large-t-poly",
            [("T/t", HORIZON_T / t, edge), ("4e^2 r phi(1/t)", rp / QUARTER_E2, edge)],
        ))
    if conditions.sub is not None:
        regs.append(Regime(
            "subexp",
            [("T/t", HORIZON_T / t, edge), ("(r/t)/L", (r / t) / SUB_L, edge)],
        ))
    if conditions.trunc is not None:
        t_f = conditions.trunc["t_f"]
        r0 = truncated_small_r_threshold(table, kernel)
        regs.append(Regime(
            "truncated-small-r",
            [("r/r_0", r / r0, edge), ("t_f/(2t)", t_f / (2.0 * t), edge)],
        ))
        # the small-r statement refines the linear-in-log one on r <= r_0, so
        # the linear regime starts above r_0 to keep the classification a
        # partition (no point receives two structurally different forms)
        regs.append(Regime(
            "truncated-linear",
            [
                ("(r/t)/L", (r / t) / SUB_L, edge),
                ("t_f/(2t)", t_f / (2.0 * t), edge),
                ("r_0/r", r0 / r, edge),
            ],
        ))
    return [reg for reg in regs if _admits(reg, table.quad_rtol)]


def _admits(reg, rtol):
    return all(within_bound(v, b, rtol) for _, v, b in reg.constraints)


def within_bound(value, bound, rtol):
    """Tie rule of the non-strict regime inequalities ``value <= bound``.

    The theory's regions are closed (r phi(1/t) <= L and the like), but a
    ``value`` built from phi is certified only to the table's ``quad_rtol``:
    ``bernstein._bernstein_values`` accepts phi when its 24- and 40-node
    quadratures agree to that relative error, so at a tie the computed value
    can land ulps above the bound, and a strict float comparison would decide
    the edge by rounding noise.
    So the value counts as ``<= bound`` unless it exceeds the bound by more
    than ``rtol`` relative.  The slack is the certified error of phi because
    nothing finer is known about the value and nothing coarser is needed;
    the theory itself fixes only that the inequality is non-strict.
    """
    return value - bound <= rtol * abs(bound)


def lower_bound_universal(table, kernel, r, t, L):
    """Universal lower bound e^{-eL} r w(t), valid whenever r phi(1/t) <= L.

    The edge r phi(1/t) = L is admitted by the tie rule of ``within_bound``.
    """
    rp = r * table.phi(1.0 / t)
    if not within_bound(rp, L, table.quad_rtol):
        raise RegimeError("universal lower bound needs r phi(1/t) = %g <= L = %g" % (rp, L))
    return math.exp(-math.e * L) * r * float(kernel.w(t))


def _form_value(tag, kernel, conditions, r, t):
    w_t = float(kernel.w(t))
    if tag in ("small-t-poly", "large-t-poly"):
        return {"tag": tag, "form": "r*w(t)", "value": r * w_t, "constant": 1.0}
    if tag == "subexp":
        beta, theta = conditions.sub["beta"], conditions.sub["theta"]
        val = r * math.exp(-0.5 * theta * t**beta)
        out = {"tag": tag, "form": "r*exp(-theta/2 t^beta)", "value": val, "constant": 1.0}
        if beta < 1.0:
            out["sharp_value"] = r * math.exp(-theta * t**beta + SUB_K * r)
            out["sharp_form"] = "r*exp(-theta t^beta + k r)"
        return out
    if tag == "truncated-small-r":
        t_f = conditions.trunc["t_f"]
        n = math.floor(t / t_f) + 1
        val = (r + (n * t_f - t) ** n) * r**n * math.exp(-t * math.log(t))
        return {
            "tag": tag,
            "form": "[r+(n t_f - t)^n] r^n exp(-c t log t)",
            "value": val,
            "n_t": n,
            "constant": 1.0,
        }
    if tag == "truncated-linear":
        return {
            "tag": tag,
            "form": "exp(-c t log(t/r))",
            "value": math.exp(-t * math.log(t / r)),
            "constant": 1.0,
        }
    raise RegimeError("unknown regime tag %r" % tag)


def upper_bound_form(kernel, table, r, t, conditions=None):
    """Structural upper bound for P(S_r >= t) at (r, t).

    Returns the form of the unique admissible regime (free constant left at
    1).  Points admitted by several regimes are fine only when the forms
    coincide structurally; otherwise the result is the tag "unclassified",
    never a guess.
    """
    if conditions is None:
        conditions = check_conditions(kernel)
    regs = classify(kernel, table, r, t, conditions=conditions)
    if not regs:
        return {"tag": "unclassified", "reason": "no regime admits (r=%g, t=%g)" % (r, t)}
    vals = [_form_value(reg.tag, kernel, conditions, r, t) for reg in regs]
    forms = {v["form"] for v in vals}
    if len(forms) > 1:
        return {
            "tag": "unclassified",
            "reason": "regimes %s disagree structurally" % sorted(v["tag"] for v in vals),
        }
    out = vals[0]
    out["regimes"] = [reg.tag for reg in regs]
    return out


@dataclass(frozen=True)
class LowerTailBounds:
    """Two-sided bounds for P(S_r <= t): exp(-exponent) above, and the same
    exponent with free (c1, c2) below (evaluated at c1 = c2 = 1)."""

    exponent: float
    upper: float
    lower: float


def lower_tail_bounds(table, r, t, N=1.0):
    """Jain-Pruitt lower-tail bounds at (r, t), valid for r >= N b^{-1}(t)."""
    binv = table.invert("b", t)
    if r < N * binv:
        raise RegimeError(
            "lower-tail bounds need r = %g >= N b^{-1}(t) = %g" % (r, N * binv)
        )
    lam = table.invert("phi_prime", t / r)
    expo = r * table.H(lam)
    up = math.exp(-expo)
    return LowerTailBounds(exponent=expo, upper=up, lower=math.exp(-expo))
