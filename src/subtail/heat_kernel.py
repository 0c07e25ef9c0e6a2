"""Model transition kernels q(t,x,y) realizing the two-sided estimate classes.

The general classes HK_J / HK_D / HK_M are parametrized by the boundary
exponent gamma in [0,1), the long-time rate lambda >= 0 and the boundary
clock k in {1,2}; HK_J sums the jump part, HK_D the diffusion part and HK_M
both:

    q^j(t,x,l) = t / (t V(x,Phi^-1(t)) + Psi(l) V(x,l))
    q^d(t,x,l) = exp(-c M(t,l)) / V(x, Phi^-1(t))

times the boundary factor, which from t = 1 on with lambda > 0 is
exp(-lambda t) a_k^gamma(1,x,y) in place of the whole q:

    a_1^gamma(t,x,y) = (Phi(d(x))/(Phi(d(x))+t))^g (Phi(d(y))/(Phi(d(y))+t))^g,
    a_2^gamma(t,x,y) = a_1^gamma(t/(t+1),x,y).

The seven displayed classes are presets of these, evaluated by the same
formula: J1..J4 are HK_J and D1..D3 HK_D with gamma, k and psi_alpha = alpha
fixed, covering bounded domains with exponential long-time decay (J1, J4,
D1; lambda defaults to 1), half-space-like domains (J2, D2) and exteriors
of a bounded set (J3, D3, k = 2).  J4 has gamma = (alpha-1)/alpha, the
others gamma = 1/2.

This module is the one home of the boundary calculus, which ``estimates``
never writes inline: a_k^gamma (``a_gamma_delta``, the one place a_2's
clock t/(t+1) is written), its min forms (1 ^ d/scale)^e (``boundary_min_form``)
and (1 ^ d(x)d(y)/l^2)^e (``delta_star_min_form``), and its saturated form
Phi(d(x))^gamma Phi(d(y))^gamma (``boundary_power_form``).

Every comparability class is realized by a single representative member: the
suppressed constants are 1 and the exponential rate c inside q^d is the
model's ``exp_c`` (default 1).  Phi(r) = r^alpha, Psi(r) = r^psi_alpha and
M(t,l) is evaluated as :func:`subtail.bernstein.calM` of the exponent alpha,
the single source of truth, in one array expression per call.
:func:`q_eval` takes arrays of clock values and points, so an integral over
q evaluates it once per node array, and a list of integrals once per chunk
of them, its per-integral points as columns.  A power of a point quantity
(a distance to the boundary, rho, a boundary ratio at a point) is the C
library's pow whether the point comes as a scalar or in a column, so a
value never depends on the list it was computed in.

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
from .kernels import float_pow

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
    # family: (gamma_exponent_fn, parts, k, needs_alpha_gt1, lam_allowed)
    "J1": ("half", "j", 1, False, True),
    "J2": ("half", "j", 1, False, False),
    "J3": ("half", "j", 2, False, False),
    "J4": ("censored", "j", 1, True, True),
    "D1": ("half", "d", 1, True, True),
    "D2": ("half", "d", 1, True, False),
    "D3": ("half", "d", 2, True, False),
}
# the parts of q each family sums: the jump part q^j ("j"), the diffusion part q^d ("d") or both
_PARTS = {"HK_J": "j", "HK_D": "d", "HK_M": "jd", **{fam: spec[1] for fam, spec in _SPECIAL.items()}}
_DEFAULT_LAMBDA = 1.0  # long-time rate of the displayed classes that have one (J1, J4, D1)


@dataclass(frozen=True)
class HKModel:
    """One representative member of a heat-kernel estimate class.

    ``family`` is one of the displayed classes J1..J4, D1..D3 or a general
    tag "HK_J" / "HK_D" / "HK_M".  A displayed class is a preset of HK_J or
    HK_D: gamma, k and psi_alpha are fixed, and given values for them are
    refused (J1 realizes HK_J with gamma=1/2, k=1 and lambda>0; J4 realizes
    gamma=(alpha-1)/alpha; D3 realizes gamma=1/2, k=2 with lambda=0, and so
    on), so only (alpha, d, lambda, exp_c) are free.  ``exp_c`` must be a
    finite number > 0, and lambda a number >= 0.
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
        if not (math.isfinite(self.exp_c) and self.exp_c > 0.0):
            raise DomainError("exp_c must be a finite number > 0, got %r" % (self.exp_c,))
        if self.lam is not None and not self.lam >= 0.0:
            raise DomainError("lambda must be a number >= 0, got %r" % (self.lam,))
        if self.family in _SPECIAL:
            given = [name for name in ("gamma", "k", "psi_alpha") if getattr(self, name) is not None]
            if given:
                raise DomainError("%s fixes %s; give only alpha, d, lambda and exp_c"
                                  % (self.family, ", ".join(given)))
            g_kind, _, k, needs_a1, lam_ok = _SPECIAL[self.family]
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
        return _point_pow(r, self.psi_alpha)

    def V(self, r):
        return _point_pow(r, self.d)

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


def _point_pow(v, p):
    """v**p for a quantity of the points (a distance to the boundary, rho, a
    boundary ratio): a scalar, or a column (..., 1) holding one value per
    integral of a list form, is raised as a lone float, by the C library's
    pow (``kernels.float_pow``), so an integral's q has the same bits in a
    list as alone; an array of nodes takes numpy's vectorised power."""
    if not isinstance(v, np.ndarray):
        return v**p
    if v.ndim == 0:
        return v[()] ** p
    return float_pow(v, p) if v.shape[-1] == 1 else v**p


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
        ph = _point_pow(dp, alpha)
        out = out * _point_pow(ph / (ph + t), gamma)
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
    whole node array, and on the nodes of several integrals when their
    points (or clock values) come as columns (rows, 1, 1), each row's values
    bit for bit those of its scalar call.  All-scalar arguments return a
    float.
    """
    t, x, y = np.asarray(t, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("q requires t > 0")
    if model.lam > 0.0 and not geometry.bounded:
        raise DomainError("lambda > 0 requires a bounded geometry")
    dx, dy = geometry.delta(x), geometry.delta(y)
    rho = geometry.rho(x, y)
    a, lam = model.alpha, model.lam
    # long-time branch: exp(-lam t) times the boundary factor at t = 1
    late = (t >= 1.0) & (lam > 0.0)
    a_k = a_gamma_delta(model.gamma, a, model.k, np.where(late, 1.0, t), dx, dy)
    with np.errstate(over="ignore", under="ignore"):
        v = model.V_inv_time(t)
    if not (0.0 < v.min() and v.max() < np.inf):
        raise DomainError("V(Phi^-1(r)) = r^(d/alpha) leaves the positive floats at some r in [%g, %g] "
                          "for d=%g, alpha=%g" % (np.min(t), np.max(t), model.d, model.alpha))
    parts = []
    if "j" in _PARTS[model.family]:
        parts.append(t / (t * v + model.Psi(rho) * model.V(rho)))
    if "d" in _PARTS[model.family]:
        parts.append(np.exp(-model.exp_c * calM(a, t, rho)) / v)
    if lam > 0.0:
        parts = [np.where(late, np.exp(-lam * t), part) for part in parts]
    q = sum(a_k * part for part in parts)
    return float(q) if np.ndim(q) == 0 else q
