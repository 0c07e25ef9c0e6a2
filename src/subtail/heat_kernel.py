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

times the boundary factor (from t = 1 on with lambda > 0: exp(-lambda t)
a_k^gamma(1,x,y), or for the displayed classes exp(-lambda t) times its
saturated form)

    a_1^gamma(t,x,y) = (Phi(d(x))/(Phi(d(x))+t))^g (Phi(d(y))/(Phi(d(y))+t))^g,
    a_2^gamma(t,x,y) = a_1^gamma(t/(t+1),x,y).

This module is the one home of the boundary calculus, which ``estimates``
never writes inline: a_k^gamma (``a_gamma_delta``, the one place a_2's
clock t/(t+1) is written), its min forms (1 ^ d/scale)^e (``boundary_min_form``)
and (1 ^ d(x)d(y)/l^2)^e (``delta_star_min_form``), and its saturated form
Phi(d(x))^gamma Phi(d(y))^gamma (``boundary_power_form``).

Every comparability class is realized by a single representative member: the
suppressed constants are 1 and the exponential rate inside q^d is the
model's ``exp_c`` (default 1).  Phi(r) = r^alpha, Psi(r) = r^psi_alpha and
M(t,l) is evaluated as :func:`subtail.bernstein.calM` of the exponent alpha,
the single source of truth, in one array expression per call.
:func:`q_eval` takes arrays of clock values and points, so an integral over
q evaluates it once per node array.

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

__all__ = ["Geometry", "HKModel", "a_gamma_delta", "boundary_min_form", "boundary_power_form",
           "delta_star_min_form", "q_eval", "geometry_probe"]


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
        """Whether x lies in the domain; elementwise for an array x."""
        if self.kind == "interval":
            return (0.0 < x) & (x < self.length)
        if self.kind == "half-line":
            return x > 0.0
        if self.kind == "exterior":
            return abs(x) > 1.0
        return True

    def delta(self, x):
        """Distance to the boundary (inf in free space); elementwise for an array x."""
        inside = self.contains(x)
        if not (inside is True or np.all(inside)):
            raise DomainError("x=%s is not in the domain" % (x,))
        if self.kind == "interval":
            return _min(x, self.length - x)
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
    """The point quantities (rho, delta_x, delta_y) of the boundary calculus at (x, y)."""
    return geometry.rho(x, y), geometry.delta(x), geometry.delta(y)


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
_DEFAULT_LAMBDA = 1.0  # long-time rate of the displayed classes that have one (J1, J4, D1)


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

    def __post_init__(self):
        if self.alpha <= 0.0 or self.d <= 0.0:
            raise DomainError("alpha and d must be positive")
        if self.family in _SPECIAL:
            g_kind, kind, k, needs_a1, lam_ok = _SPECIAL[self.family]
            if needs_a1 and self.alpha <= 1.0:
                raise DomainError("%s requires alpha > 1" % self.family)
            gamma = 0.5 if g_kind == "half" else (self.alpha - 1.0) / self.alpha
            lam = (_DEFAULT_LAMBDA if lam_ok else 0.0) if self.lam is None else self.lam
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

    def Phi(self, r):
        return r**self.alpha

    def Psi(self, r):
        return r**self.psi_alpha

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


def _min(a, b):
    """min(a, b), elementwise for arrays; floats stay off numpy (the helpers
    below also run inside adaptive quadratures, where a numpy call dominates)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def a_gamma_delta(gamma, alpha, k, t, dx, dy):
    """Boundary factor a_k^gamma from the distances dx, dy (inf contributes 1).

    Arrays broadcast; only free space has infinite distances, and those are floats.
    """
    if k == 2:
        t = t / (t + 1.0)
    if gamma == 0.0:
        return 1.0
    out = 1.0
    for dp in (dx, dy):
        if isinstance(dp, float) and math.isinf(dp):
            continue
        ph = dp**alpha
        out = out * (ph / (ph + t)) ** gamma
    return out


def boundary_min_form(body, expo, scale, dx, dy):
    """(body (1 ^ dx/scale)^expo) (1 ^ dy/scale)^expo, in that order (inf gives 1); arrays broadcast."""
    for dp in (dx, dy):
        body = body * _min(1.0, dp / scale) ** expo
    return body


def delta_star_min_form(expo, l2, dx, dy):
    """(1 ^ dx dy / l2)^expo for l2 = l^2: 1 when dx dy is infinite or l2 = 0 (scalars)."""
    ds = dx * dy
    if l2 == 0.0 or math.isinf(ds):
        return 1.0
    return min(1.0, ds / l2) ** expo


def boundary_power_form(body, g, dx, dy):
    """(body dx^g) dy^g, in that order: body Phi(dx)^gamma Phi(dy)^gamma with
    g = gamma alpha, the saturated a_k^gamma; arrays broadcast."""
    return body * dx**g * dy**g


def q_eval(model, geometry, t, x, y):
    """Evaluate the model transition kernel at (t, x, y).

    t, x and y may be arrays, which broadcast: one call evaluates q on a
    whole node array.  All-scalar arguments return a float.
    """
    t, x, y = np.asarray(t, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("q requires t > 0")
    if model.lam > 0.0 and not geometry.bounded:
        raise DomainError("lambda > 0 requires a bounded geometry")
    dx, dy = geometry.delta(x), geometry.delta(y)
    rho = geometry.rho(x, y)
    a, d, lam = model.alpha, model.d, model.lam
    # long-time branch: exp(-lam t) times the boundary factor at t = 1
    late = (t >= 1.0) & (lam > 0.0)
    if model.family in _SPECIAL:
        g = model.gamma * a  # displayed boundary exponent alpha/2 or alpha-1
        scale = t ** (1.0 / a)
        if model.k == 2:
            scale = np.minimum(scale, 1.0)
        body = t ** (-d / a)
        if _SPECIAL[model.family][1] == "jump":
            with np.errstate(divide="ignore"):  # rho = 0 leaves t^{-d/a}
                body = np.minimum(body, t / rho ** (d + a))
        else:
            body = body * np.exp(-model.exp_c * rho ** (a / (a - 1.0)) / t ** (1.0 / (a - 1.0)))
        q = boundary_min_form(body, g, scale, dx, dy)
        if lam > 0.0:
            q = np.where(late, boundary_power_form(np.exp(-lam * t), g, dx, dy), q)
    else:
        a_k = a_gamma_delta(model.gamma, a, model.k, np.where(late, 1.0, t), dx, dy)
        v = model.V_inv_time(t)
        parts = []
        if model.family != "HK_D":
            parts.append(t / (t * v + model.Psi(rho) * model.V(rho)))
        if model.family != "HK_J":
            parts.append(np.exp(-model.exp_c * calM(a, t, rho)) / v)
        if lam > 0.0:
            parts = [np.where(late, np.exp(-lam * t), part) for part in parts]
        q = sum(a_k * part for part in parts)
    return float(q) if np.ndim(q) == 0 else q
