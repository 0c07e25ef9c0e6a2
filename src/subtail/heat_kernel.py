"""Model transition kernels q(t,x,y) realizing the two-sided estimate classes.

Seven explicit families are available, covering bounded domains with
exponential long-time decay (J1, J4, D1), half-space-like domains (J2, D2)
and exteriors of a bounded set (J3, D3); J-families have jump-type
off-diagonal decay t/rho^{d+alpha}, D-families Gaussian-type
exp(-c rho^{a/(a-1)}/t^{1/(a-1)}).  The general classes HK_J / HK_D / HK_M
are parametrized by the boundary exponent gamma in [0,1), the long-time rate
lambda >= 0 and the boundary clock k in {1,2}:

    q^j(t,x,l) = t / (t V(x,Phi^-1(t)) + Psi(l) V(x,l))
    q^d(t,x,l) = exp(-a M(t,l)) / V(x, Phi^-1(t))

with boundary factors

    a_1^gamma(t,x,y) = (Phi(d(x))/(Phi(d(x))+t))^g (Phi(d(y))/(Phi(d(y])+t))^g
    a_2^gamma(t,x,y) = a_1^gamma(t/(t+1),x,y).

Every comparability class is realized by a single representative member: the
suppressed constants are 1 and the exponential rate inside q^d is the
model's ``exp_c`` (default 1).  M(t,l) is evaluated through
:func:`subtail.bernstein.calM`, the single source of truth.

Geometries are one-dimensional (interval, half-line, exterior of [-1,1],
free space) with the volume profile V(x,r) = r^d carried as a free exponent
on the model: the estimates depend only on (rho, delta_D, d, alpha), and 1-D
point placement spans every boundary regime while keeping the solution
operator integrable by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import calM
from .errors import DomainError
from .shapes import PowerLaw

__all__ = ["Geometry", "HKModel", "a_gamma", "a_gamma_delta", "boundary_min_form", "q_eval",
           "geometry_probe"]


@dataclass(frozen=True)
class Geometry:
    """1-D model domain supplying the metric rho, delta_D and diam.

    kinds: "interval" (0, length); "half-line" (0, inf); "exterior"
    {|u| > 1}; "free" (all of R, with delta_D = inf).
    """

    kind: str
    length: float = 1.0

    def __post_init__(self):
        if self.kind not in ("interval", "half-line", "exterior", "free"):
            raise DomainError("unknown geometry kind %r" % (self.kind,))
        if self.kind == "interval" and not self.length > 0.0:
            raise DomainError("interval geometry needs a positive length")

    def contains(self, x):
        if self.kind == "interval":
            return 0.0 < x < self.length
        if self.kind == "half-line":
            return x > 0.0
        if self.kind == "exterior":
            return abs(x) > 1.0
        return True

    def delta(self, x):
        """Distance to the boundary (inf in free space)."""
        if not self.contains(x):
            raise DomainError("x=%g is not in the domain" % x)
        if self.kind == "interval":
            return min(x, self.length - x)
        if self.kind == "half-line":
            return x
        if self.kind == "exterior":
            return abs(x) - 1.0
        return math.inf

    @staticmethod
    def rho(x, y):
        return abs(x - y)

    @property
    def diam(self):
        return self.length if self.kind == "interval" else math.inf

    @property
    def bounded(self):
        return self.kind == "interval"


def geometry_probe(geometry, x, y):
    """All six point quantities of the boundary calculus at (x, y)."""
    dx, dy = geometry.delta(x), geometry.delta(y)
    return {
        "rho": geometry.rho(x, y),
        "delta_x": dx,
        "delta_y": dy,
        "delta_star": dx * dy,
        "delta_min": min(dx, dy),
        "delta_max": max(dx, dy),
    }


_SPECIAL = {
    # family: (gamma_exponent_fn, kind, k, needs_alpha_gt1, lam_allowed)
    "J1": ("half", "jump", 1, False, True),
    "J2": ("half", "jump", 1, False, False),
    "J3": ("half", "jump", 2, False, False),
    "J4": ("censored", "jump", 1, True, True),
    "D1": ("half", "diffusion", 1, True, True),
    "D2": ("half", "diffusion", 1, True, False),
    "D3": ("half", "diffusion", 2, True, False),
}


@dataclass(frozen=True)
class HKModel:
    """One representative member of a heat-kernel estimate class.

    ``family`` is one of the displayed classes J1..J4, D1..D3 or a general
    tag "HK_J" / "HK_D" / "HK_M".  For the displayed classes gamma and k are
    implied (J1 realizes HK_J with gamma=1/2, k=1 and lambda>0; J4 realizes
    gamma=(alpha-1)/alpha; D3 realizes gamma=1/2, k=2 with lambda=0, and so
    on) and only (alpha, d, lambda) are free.
    """

    family: str
    alpha: float
    d: float
    gamma: float | None = None
    lam: float | None = None
    k: int | None = None
    psi_alpha: float | None = None
    exp_c: float = 1.0
    lambda_rate: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.d <= 0.0:
            raise DomainError("alpha and d must be positive")
        if self.family in _SPECIAL:
            g_kind, kind, k, needs_a1, lam_ok = _SPECIAL[self.family]
            if needs_a1 and self.alpha <= 1.0:
                raise DomainError("%s requires alpha > 1" % self.family)
            gamma = 0.5 if g_kind == "half" else (self.alpha - 1.0) / self.alpha
            lam = (self.lambda_rate if lam_ok else 0.0) if self.lam is None else self.lam
            if lam > 0.0 and not lam_ok:
                raise DomainError("%s has no exponential long-time branch" % self.family)
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "lam", lam)
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "psi_alpha", self.alpha)
        elif self.family in ("HK_J", "HK_D", "HK_M"):
            if self.gamma is None or self.lam is None or self.k is None:
                raise DomainError("general families need explicit gamma, lam and k")
            if not 0.0 <= self.gamma < 1.0:
                raise DomainError("gamma must lie in [0,1)")
            if self.k not in (1, 2):
                raise DomainError("k must be 1 or 2")
            if self.family in ("HK_D", "HK_M") and self.alpha <= 1.0:
                raise DomainError("%s requires the lower scaling index alpha > 1" % self.family)
            if self.psi_alpha is None:
                object.__setattr__(self, "psi_alpha", self.alpha)
            if self.psi_alpha < self.alpha:
                raise DomainError("Psi must dominate Phi: psi_alpha >= alpha")
        else:
            raise DomainError("unknown heat-kernel family %r" % (self.family,))

    @property
    def Phi(self):
        return PowerLaw(self.alpha)

    @property
    def Psi(self):
        return PowerLaw(self.psi_alpha)

    def V(self, r):
        return r**self.d

    def V_inv_time(self, t):
        """V(Phi^{-1}(t)) = t^{d/alpha}."""
        return t ** (self.d / self.alpha)


def model_from_config(cfg):
    """Build a model + geometry pair from the JSON dict form."""
    geo_cfg = cfg.get("geometry", {"kind": "free"})
    geometry = Geometry(kind=geo_cfg["kind"], length=geo_cfg.get("length", 1.0))
    model = HKModel(
        family=cfg["family"],
        alpha=cfg["alpha"],
        d=cfg["d"],
        gamma=cfg.get("gamma"),
        lam=cfg.get("lambda"),
        k=cfg.get("k"),
        psi_alpha=cfg.get("psi_alpha"),
        exp_c=cfg.get("exp_c", 1.0),
    )
    return model, geometry


def a_gamma_delta(gamma, alpha, k, t, dx, dy):
    """Boundary factor a_k^gamma from the distances dx, dy (inf contributes 1)."""
    if k == 2:
        t = t / (t + 1.0)
    if gamma == 0.0:
        return 1.0
    out = 1.0
    for dp in (dx, dy):
        if math.isinf(dp):
            continue
        ph = dp**alpha
        out *= (ph / (ph + t)) ** gamma
    return out


def a_gamma(model, geometry, k, t, x, y):
    """Boundary factor a_k^gamma(t,x,y); k selects the long-time clock."""
    if t <= 0.0:
        raise DomainError("a_gamma requires t > 0")
    return a_gamma_delta(model.gamma, model.alpha, k, t, geometry.delta(x), geometry.delta(y))


def boundary_min_form(body, expo, scale, dx, dy):
    """(body (1 ^ dx/scale)^expo) (1 ^ dy/scale)^expo, in that order (inf gives 1)."""
    for dp in (dx, dy):
        if not math.isinf(dp):
            body *= min(1.0, dp / scale) ** expo
    return body


def _q_jump_min_form(model, bnd_scale, t, x, y, geometry):
    """Displayed J-form: boundary factors (1 ^ delta/scale)^(alpha*gamma) times
    t^{-d/a} ^ t/rho^{d+a}."""
    rho = geometry.rho(x, y)
    out = min(t ** (-model.d / model.alpha), t / rho ** (model.d + model.alpha)) if rho > 0 else t ** (
        -model.d / model.alpha
    )
    g = model.gamma * model.alpha  # displayed exponent alpha/2 or alpha-1
    return boundary_min_form(out, g, bnd_scale, geometry.delta(x), geometry.delta(y))


def _q_diff_form(model, bnd_scale, t, x, y, geometry):
    rho = geometry.rho(x, y)
    a = model.alpha
    body = t ** (-model.d / a) * math.exp(
        -model.exp_c * rho ** (a / (a - 1.0)) / t ** (1.0 / (a - 1.0))
    )
    return boundary_min_form(body, model.gamma * a, bnd_scale, geometry.delta(x), geometry.delta(y))


def _q_special(model, geometry, t, x, y):
    kind = _SPECIAL[model.family][1]
    lam = model.lam
    a = model.alpha
    if lam > 0.0 and t >= 1.0:
        out = math.exp(-lam * t)
        g = model.gamma * a
        for p in (x, y):
            out *= geometry.delta(p) ** g
        return out
    if model.k == 2:
        scale = min(t ** (1.0 / a), 1.0)
    else:
        scale = t ** (1.0 / a)
    if kind == "jump":
        return _q_jump_min_form(model, scale, t, x, y, geometry)
    return _q_diff_form(model, scale, t, x, y, geometry)


def q_jump_part(model, geometry, t, x, y):
    """General-class jump part a^gamma q^j with its t <> 1 branch rules."""
    rho = geometry.rho(x, y)
    qj = t / (t * model.V_inv_time(t) + model.Psi(rho) * model.V(rho))
    if model.lam > 0.0 and t >= 1.0:
        return a_gamma(model, geometry, 1, 1.0, x, y) * math.exp(-model.lam * t)
    k = model.k if t >= 1.0 else 1
    return a_gamma(model, geometry, k, t, x, y) * qj


def q_diff_part(model, geometry, t, x, y):
    """General-class diffusion part a^gamma q^d."""
    rho = geometry.rho(x, y)
    if model.lam > 0.0 and t >= 1.0:
        return a_gamma(model, geometry, 1, 1.0, x, y) * math.exp(-model.lam * t)
    k = model.k if t >= 1.0 else 1
    if rho == 0.0:
        qd = 1.0 / model.V_inv_time(t)
    else:
        qd = math.exp(-model.exp_c * calM(model.Phi, t, rho)) / model.V_inv_time(t)
    return a_gamma(model, geometry, k, t, x, y) * qd


def q_eval(model, geometry, t, x, y):
    """Evaluate the model transition kernel at (t, x, y)."""
    if t <= 0.0:
        raise DomainError("q requires t > 0")
    if not (geometry.contains(x) and geometry.contains(y)):
        raise DomainError("points must lie in the domain")
    if model.lam and model.lam > 0.0 and not geometry.bounded:
        raise DomainError("lambda > 0 requires a bounded geometry")
    if model.family in _SPECIAL:
        return _q_special(model, geometry, t, x, y)
    if model.family == "HK_J":
        return q_jump_part(model, geometry, t, x, y)
    if model.family == "HK_D":
        return q_diff_part(model, geometry, t, x, y)
    return q_jump_part(model, geometry, t, x, y) + q_diff_part(model, geometry, t, x, y)
