"""Two-sided comparability certification.

The theory asserts bounds of the shape c1 g <= f <= c2 g with unspecified
constants ("f comparable to g"), or with constants inside an exponential
argument ("f ~ g1 + g2 exp(-c X)").  Verification therefore never checks
equality: it measures the ratio f/g across a regime grid and certifies that
its spread (max/min, after inflating Monte Carlo estimates by +-3 standard
errors) stays within a per-case budget; exponential constants are recovered
by a least-squares fit of the log-ratio against the exponent argument, with
envelope fits providing a (c_low, c_high) bracket and a t-statistic
guarding against fitting noise.

Budgets are configuration, tuned once and frozen in the golden cases: 8 for
closed-form-vs-quadrature comparisons, 50 for theorem forms against
quadrature p (which absorbs the unknown constants of the theorems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError
from .estimates import EstimateCase, regime_failure
from .tail_bounds import MARGIN

__all__ = ["RatioReport", "ExpFit", "two_sided_check", "exp_constant_fit", "regime_grid"]


@dataclass
class RatioReport:
    """Verdict of one two-sided comparability check."""

    case: str
    n_points: int
    ratio_min: float
    ratio_max: float
    spread: float
    budget: float
    passed: bool
    worst_low: object = None  # coordinates of the envelope extremes
    worst_high: object = None

    def to_dict(self):
        return {
            "case": self.case,
            "n_points": self.n_points,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "spread": self.spread,
            "budget": self.budget,
            "passed": bool(self.passed),
            "worst_low": self.worst_low,
            "worst_high": self.worst_high,
        }


def two_sided_check(observed, predicted, spread_budget, se=None, coords=None, case=""):
    """Certify observed comparable-to predicted with the given spread budget.

    The envelope ratios use observed +- 3 se; a lower envelope touching 0
    (all the signal inside the noise) makes the spread infinite, which fails
    with the offending coordinate reported rather than being clipped away.
    """
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape:
        raise DomainError("observed and predicted grids are not aligned")
    if np.any(pred <= 0.0) or np.any(~np.isfinite(pred)):
        bad = int(np.argmin(pred))
        raise DomainError(
            "predicted value %g <= 0 inside the regime at index %d%s"
            % (pred[bad], bad, "" if coords is None else " coords=%r" % (coords[bad],))
        )
    s = np.zeros_like(obs) if se is None else np.asarray(se, dtype=float)
    lo_env = np.maximum(obs - 3.0 * s, 0.0) / pred
    hi_env = (obs + 3.0 * s) / pred
    i_lo = int(np.argmin(lo_env))
    i_hi = int(np.argmax(hi_env))
    rmin, rmax = float(lo_env[i_lo]), float(hi_env[i_hi])
    spread = math.inf if rmin <= 0.0 else rmax / rmin
    return RatioReport(
        case=case,
        n_points=int(obs.size),
        ratio_min=rmin,
        ratio_max=rmax,
        spread=spread,
        budget=float(spread_budget),
        passed=bool(spread <= spread_budget),
        worst_low=None if coords is None else coords[i_lo],
        worst_high=None if coords is None else coords[i_hi],
    )


@dataclass
class ExpFit:
    """Exponential-constant fit of log(observed/structural) against X."""

    c: float
    c_low: float
    c_high: float
    intercept: float
    residual: float
    t_stat: float
    diagnostic: str | None = None


_MIN_DECADES = 1.5  # the span of X that exp_constant_fit requires


def exp_constant_fit(log_ratio, X, se_log=None):
    """Least-squares slope of the log-ratio against the exponent argument X.

    X must span at least _MIN_DECADES decades.  The structural polynomial
    prefactor must already be divided out of the ratio; the fitted c is
    minus the slope.  c_low/c_high come from refitting the +-3 se envelopes.
    A |slope| t-statistic below 2 means no exponential signal, reported as
    a diagnostic rather than a value to trust.
    """
    y = np.asarray(log_ratio, dtype=float)
    x = np.asarray(X, dtype=float)
    if x.size != y.size or x.size < 3:
        raise DomainError("exp_constant_fit needs aligned grids with >= 3 points")
    if np.any(~np.isfinite(y)):
        raise DomainError("log-ratio grid contains non-finite entries")
    if np.min(x) <= 0.0 or math.log10(np.max(x) / np.min(x)) < _MIN_DECADES:
        raise DomainError(
            "exponent argument must span >= %.1f decades (got %.2f)"
            % (_MIN_DECADES, math.log10(max(np.max(x) / max(np.min(x), 1e-300), 1.0)))
        )

    def slope_fit(yy):
        A = np.vstack([x, np.ones_like(x)]).T
        sol, res, _, _ = np.linalg.lstsq(A, yy, rcond=None)
        return sol[0], sol[1]

    slope, intercept = slope_fit(y)
    fit = slope * x + intercept
    resid = float(np.max(np.abs(y - fit)))
    n = x.size
    sxx = float(np.sum((x - x.mean()) ** 2))
    sigma2 = float(np.sum((y - fit) ** 2)) / max(n - 2, 1)
    se_slope = math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    t_stat = abs(slope) / se_slope if se_slope > 0 else math.inf
    if se_log is None:
        c_lo = c_hi = -slope
    else:
        s = np.asarray(se_log, dtype=float)
        lo_slope, _ = slope_fit(y - 3.0 * s)
        hi_slope, _ = slope_fit(y + 3.0 * s)
        c_lo, c_hi = sorted((-lo_slope, -hi_slope))
    diag = None
    if t_stat < 2.0:
        diag = "no exponential signal: slope t-statistic %.2f < 2" % t_stat
    return ExpFit(
        c=-slope,
        c_low=c_lo,
        c_high=c_hi,
        intercept=intercept,
        residual=resid,
        t_stat=t_stat,
        diagnostic=diag,
    )


# ---------------------------------------------------------------------------
# Regime grids
# ---------------------------------------------------------------------------


def _point_cloud(geometry, resolution):
    """Deterministic (x, y) candidates spanning the boundary regimes."""
    pairs = []
    if geometry.kind == "interval":
        L = geometry.length
        deltas = np.geomspace(1e-4 * L, 0.45 * L, max(4, resolution))
        rhos = np.geomspace(1e-4 * L, 0.9 * L, max(6, resolution))
        for dlt in deltas:
            for rho in rhos:
                y = dlt + rho
                if y < L * (1.0 - 1e-9):
                    pairs.append((dlt, y))
    elif geometry.kind in ("half-line", "exterior", "free"):
        base = 1.0 if geometry.kind != "exterior" else 1.0 + 1e-6
        xs = base * np.geomspace(1.0, 100.0, max(4, resolution))
        rhos = np.geomspace(1e-3, 50.0, max(6, resolution))
        for x in xs:
            for rho in rhos:
                pairs.append((x, x + rho))
    return pairs


def regime_grid(tag, table, model, geometry, resolution=8, margin=MARGIN, t_window=None):
    """Admissible (t, x, y) tuples for a theorem branch, margin applied.

    A point is admitted exactly when the regime predicates that
    ``theorem_estimate`` checks for ``tag`` pass
    (:func:`subtail.estimates.regime_failure`) on the table's kernel and
    conditions, so every point returned is inside the theorem's regime;
    phi(1/t) is evaluated once per t.  The t and point grids are log-spaced
    and nested under resolution doubling (2n-1 refinement keeps supersets).
    Returns the admissible list (deterministic order); an unknown tag raises
    DomainError and an empty set RegimeError.
    """
    if t_window is None:
        t_window = (1e-3, 1.0)
    ts = np.geomspace(t_window[0], t_window[1], max(4, resolution))
    pairs = _point_cloud(geometry, resolution)
    out = []
    for t in ts:
        phi_t = table.phi(1.0 / t)
        for x, y in pairs:
            point = (float(t), float(x), float(y))
            case = EstimateCase(tag, table, model, geometry, *point, margin=margin)
            if regime_failure(case, phi_t) is None:
                out.append(point)
    if not out:
        raise RegimeError("empty admissible set for %s with margin %g" % (tag, margin))
    return out
