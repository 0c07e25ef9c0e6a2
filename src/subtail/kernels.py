"""Tail kernels w and their Levy measures.

A tail kernel is a right-continuous non-increasing function
w : (0, inf) -> [0, inf) with w(0+) = inf, w(inf) = 0 (or w identically 0
past a finite support endpoint) and integrable min{1,s}-moment:

    int_0^inf min{1, s} (-dw(s)) < inf.

Such a w plays two roles at once: it is the convolution kernel of a
generalized fractional-time derivative, and -dw is the Levy measure of a
driftless subordinator.  The Caputo derivative of order beta corresponds to
w(s) = s^{-beta} / Gamma(1-beta).  Gamma is ``special.gamma``, which keeps
scipy's bits; the package imports no scipy.

Five kernel families are built in:

* ``Power``            w(s) = scale * s^{-beta},                 0 < beta < 1
* ``Truncated``        w(s) = scale * (s^{-beta} - delta^{-beta}) on (0, delta]
* ``Subexp``           power piece on (0, 1] joined continuously to
                       c0 * exp(-theta * s^beta) on [1, inf)
* ``DistributedOrder`` finite mixture of Caputo kernels
* ``Tabulated``        piecewise log-linear table with a declared tail class

Each family exposes, besides pointwise evaluation, the truncated moments
M_k(a) = int_0^a u^k w(u) du, for a scalar or an array a: in closed form,
except ``Subexp``'s beyond s = 1, which add to the closed-form head up to 1
the integral from 1 on quadrature's one checked Gauss-Legendre rule.  An
array entry equals the scalar call at it bit for bit (powers go through
``float_pow``, and each Subexp entry gets its own row of panels).  These
drive the fast Laplace-transform quadrature in :mod:`subtail.bernstein` and
give exact small-jump compensators for the simulator.  ``moments(a)`` gives
the rows k = 0..3 at once, each bit for bit its ``moment(k, a)``; Subexp's
integrals beyond 1 share one exponential per distinct cut of the four rows.

Each family inverts its own w (``w_inv``: a closed form, or Newton for
``DistributedOrder``) as the generalized inverse inf{s : w(s) < y}, which
returns a zero-tail atom's location for any y at or below its mass;
``inverse_w_vec`` applies it to an array.  ``jump_sizes`` draws the jumps
above a cutoff eps from uniforms, with P(J > s) = w(s)/w(eps), for both
samplers of S: through ``inverse_w_vec``, except that a ``DistributedOrder``
kernel draws by composition over its Caputo terms (``terms``, each a
``Power``), one term's closed-form inverse per jump and no Newton solve.

``check_conditions`` certifies, on a logarithmic grid, which of the
structural scaling conditions a kernel satisfies: small-time polynomial
decay, large-time polynomial decay, (sub)exponential decay, and finite
support with bi-Lipschitz behaviour near the endpoint.  All reported
exponents come with a witnessed ratio constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import AtomError, DomainError, RangeError
from .quadrature import Q_RULES, checked, geometric_edges, panel_sums
from .special import gamma

__all__ = [
    "Power",
    "Truncated",
    "Subexp",
    "DistributedOrder",
    "Tabulated",
    "caputo",
    "jump_sizes",
    "kernel_from_config",
    "check_conditions",
    "ConditionReport",
]

_FLOAT_MAX = np.finfo(float).max


def float_pow(x, p):
    """x**p elementwise, rounded as a Python float power rounds it (the C
    library's pow); inf where it overflows.  p is a scalar or an array of
    x's shape.

    numpy's vectorised power differs from that pow in the last bit for about
    one argument in twenty.  A moment or phi value must not depend on
    whether it was asked for alone or in an array, so every power that
    feeds one goes through here.
    """
    x = np.asarray(x, dtype=float)
    xs = x.ravel().tolist()
    ps = p.ravel().tolist() if isinstance(p, np.ndarray) else repeat(float(p))
    try:
        vals = list(map(pow, xs, ps))
    except OverflowError:
        vals = [_pow_or_inf(a, b) for a, b in zip(xs, ps)]
    out = np.array(vals)
    return out if x.ndim == 1 else out.reshape(x.shape)


def _pow_or_inf(a, b):
    try:
        return a**b
    except OverflowError:
        return math.inf


# Subexp's integral beyond s = 1: geometric panels per row, rows times
# moments per panel_sums call (bounding its temporaries) and the check's
# relative target
_SUBEXP_PANELS, _SUBEXP_ROWS, _SUBEXP_RTOL = 32, 32, 1e-13


def _like(a, out):
    """``out`` as a float when the argument ``a`` was a scalar."""
    return out.item() if np.ndim(a) == 0 else out


def _as_positive_array(s):
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(~np.isfinite(s)):
        raise DomainError("kernel argument must be a positive finite real, got %r" % (s,))
    return s


# ---------------------------------------------------------------------------
# Kernel variants
# ---------------------------------------------------------------------------


class _Kernel:
    """What every kernel family shares."""

    def moments(self, a):
        """Rows k = 0..3 of the truncated moments M_k(a), each bit for bit
        ``moment(k, a)``."""
        return np.array([self.moment(k, a) for k in range(4)])


@dataclass(frozen=True)
class Power(_Kernel):
    """w(s) = scale * s^{-beta}.  Caputo when scale = 1/Gamma(1-beta)."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError("Power kernel requires beta in (0,1)")
        if self.scale <= 0.0:
            raise DomainError("Power kernel requires scale > 0")
        if _FLOAT_MAX ** -self.beta == 1.0:
            raise DomainError("Power kernel beta=%r is too small: s^-beta rounds to 1 at every float s, "
                              "so w is flat and every jump overflows" % self.beta)

    support_end = math.inf

    @property
    def small_exponent(self):
        return self.beta

    def breakpoints(self):
        return ()

    def w(self, s):
        s = _as_positive_array(s)
        return self.scale * s ** (-self.beta)

    def nu(self, s):
        s = _as_positive_array(s)
        return self.scale * self.beta * s ** (-self.beta - 1.0)

    def moment(self, k, a):
        p = k + 1.0 - self.beta
        return _like(a, self.scale * float_pow(a, p) / p)

    def w_inv(self, y):
        # a jump past the largest float is inf, which lies above every level
        with np.errstate(over="ignore", divide="ignore"):
            return (self.scale / y) ** (1.0 / self.beta)

    def atoms(self):
        return ()


@dataclass(frozen=True)
class Truncated(_Kernel):
    """w(s) = scale * (s^{-beta} - delta^{-beta}) on (0, delta], zero after."""

    beta: float
    delta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError("Truncated kernel requires beta in (0,1)")
        if self.delta <= 0.0 or self.scale <= 0.0:
            raise DomainError("Truncated kernel requires delta, scale > 0")

    @property
    def support_end(self):
        return self.delta

    @property
    def small_exponent(self):
        return self.beta

    def breakpoints(self):
        return (self.delta,)

    def w(self, s):
        s = _as_positive_array(s)
        # delta^-beta ((s/delta)^-beta - 1): no cancellation next to delta
        out = self.scale * self.delta ** (-self.beta) * np.expm1(-self.beta * np.log(s / self.delta))
        return np.where(s < self.delta, out, 0.0)

    def nu(self, s):
        s = _as_positive_array(s)
        out = self.scale * self.beta * s ** (-self.beta - 1.0)
        return np.where(s < self.delta, out, 0.0)

    def moment(self, k, a):
        b = np.minimum(a, self.delta)
        p = k + 1.0 - self.beta
        out = float_pow(b, p) / p - self.delta ** (-self.beta) * float_pow(b, k + 1.0) / (k + 1.0)
        return _like(a, self.scale * out)

    def w_inv(self, y):
        return (y / self.scale + self.delta ** (-self.beta)) ** (-1.0 / self.beta)

    def atoms(self):
        return ()


@dataclass(frozen=True)
class Subexp(_Kernel):
    """Sub- or plain exponential tail, c0*exp(-theta*s^beta) for s >= 1.

    The decay condition only constrains s >= 1; on (0, 1] we pin the power
    piece c * s^{-smallBeta} with c = c0*exp(-theta) chosen so the two
    pieces join continuously at s = 1.  That choice satisfies the kernel
    integrability condition and small-time polynomial scaling simultaneously.
    """

    beta: float
    theta: float
    c0: float = 1.0
    smallBeta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise DomainError("Subexp kernel requires beta in (0,1]")
        if not 0.0 < self.smallBeta < 1.0:
            raise DomainError("Subexp kernel requires smallBeta in (0,1)")
        if self.theta <= 0.0 or self.c0 <= 0.0:
            raise DomainError("Subexp kernel requires theta, c0 > 0")

    support_end = math.inf

    @property
    def small_exponent(self):
        return self.smallBeta

    @property
    def _c_small(self):
        return self.c0 * math.exp(-self.theta)

    def breakpoints(self):
        return (1.0,)

    def w(self, s):
        s = _as_positive_array(s)
        small = self._c_small * s ** (-self.smallBeta)
        # huge arguments underflow to exactly 0, which is the documented
        # behaviour (monotone tail limit), not an error
        large = self.c0 * np.exp(-self.theta * s**self.beta)
        return np.where(s <= 1.0, small, large)

    def nu(self, s):
        s = _as_positive_array(s)
        small = self._c_small * self.smallBeta * s ** (-self.smallBeta - 1.0)
        large = self.c0 * self.theta * self.beta * s ** (self.beta - 1.0) * np.exp(
            -self.theta * s**self.beta
        )
        return np.where(s <= 1.0, small, large)

    def moment(self, k, a):
        return _like(a, self._moments((k,), a)[0])

    def moments(self, a):
        out = self._moments(range(4), a)
        return out[:, 0] if np.ndim(a) == 0 else out

    def _moments(self, ks, a):
        """Rows M_k(a), k in ks, at a scalar or 1-D a, as (len(ks), a.size)."""
        x = np.array(a, dtype=float, ndmin=1)
        out = np.array([self._c_small * float_pow(np.minimum(x, 1.0), p) / p
                        for p in (k + 1.0 - self.smallBeta for k in ks)])
        far = np.flatnonzero(x > 1.0)
        # c0 e^{-theta} = 0 past theta ~ 745: the integral beyond 1 adds 0
        if far.size and self._c_small > 0.0:
            out[:, far] += self._c_small * self._tail_integrals(ks, x[far])
        return out

    def _cut(self, k):
        """U = (1 + L/theta)^{1/beta} of ``_tail_integrals``, inf where it overflows."""
        q = (k + 1.0) / self.beta
        c = max(746.0, 2.0 * q)
        log_cut = math.log1p((c + 2.0 * q * math.log1p(c / self.theta)) / self.theta) / self.beta
        return math.exp(log_cut) if log_cut < 709.0 else math.inf

    def _tail_integrals(self, ks, a):
        """Row k of ks, entry j: int_1^b u^k e^{-theta(u^beta - 1)} du, for the
        1-D array a > 1, where b = min(a_j, U_k) and U_k = (1 + L/theta)^{1/beta}
        is the cut past which u^{k+1} e^{-theta(u^beta - 1)} < 2^-1074: with
        q = (k+1)/beta, c = max(746, 2q) and L = c + 2q log(1 + c/theta),
        its log at U is q log(1 + L/theta) - L <= -c, and the integral past
        U is below that bound over k+1, as beta theta U^beta >= 2(k+1).
        RangeError where U_k overflows and an entry needs it.

        Each distinct b is one row of _SUBEXP_PANELS geometric panels on
        ``quadrature.Q_RULES``, and the rows of every k with that b share its
        nodes' exponential; each sum is checked to _SUBEXP_RTOL, k by k and
        entry by entry, so a value does not depend on the other entries or
        rows.  The nodes u carry an absolute rounding of ~1e-16, so the
        result is good to about theta * 1e-16 relative, inside the check for
        every theta at which e^{-theta} is nonzero."""
        b = np.minimum(a, np.array([self._cut(k) for k in ks])[:, None])
        cuts = np.unique(b[np.isfinite(b)])

        per = max(1, _SUBEXP_ROWS // len(ks))
        # every call's integrand values share one buffer: fresh arrays this
        # size would be fresh pages, faulted in on every call
        buf = np.empty((len(ks), min(per, cuts.size), _SUBEXP_PANELS, Q_RULES[0].size))

        def integrand(u):
            e = np.log(u)
            e *= self.beta
            np.exp(np.multiply(-self.theta, np.expm1(e, out=e), out=e), out=e)
            out = buf[:, : len(u)]
            for row, k in zip(out, ks):
                np.multiply(u**k, e, out=row)
            return out

        coarse, fine = np.empty((2, len(ks), cuts.size))
        for i in range(0, cuts.size, per):
            rows = cuts[i : i + per, None]
            with np.errstate(over="ignore", invalid="ignore"):  # checked refuses a non-finite sum
                coarse[:, i : i + rows.size], fine[:, i : i + rows.size] = panel_sums(
                    integrand, geometric_edges(1.0, rows, _SUBEXP_PANELS + 1), Q_RULES)
        out = np.empty(b.shape)
        for j, k in enumerate(ks):
            if np.isinf(b[j]).any():
                raise RangeError("theta=%r is too small for Subexp's moments beyond s = 1: the cut "
                                 "where e^{-theta u^beta} has underflowed overflows" % self.theta)
            at = np.searchsorted(cuts, b[j])
            out[j] = checked(coarse[j, at], fine[j, at], _SUBEXP_RTOL, 0.0, lambda i, achieved: (
                "Subexp moment M_%g(%r) quadrature achieved %.2g, target %.2g"
                % (k, float(a[i]), achieved, _SUBEXP_RTOL)))
        return out

    def w_inv(self, y):
        w1 = self._c_small
        small = (w1 / y) ** (1.0 / self.smallBeta)
        # the min keeps the unused branch's logarithm away from y > c0
        large = (np.log(self.c0 / np.minimum(y, w1)) / self.theta) ** (1.0 / self.beta)
        return np.where(y >= w1, small, large)

    def atoms(self):
        return ()


@dataclass(frozen=True)
class DistributedOrder(_Kernel):
    """w(s) = sum_i kappa_i s^{-beta_i} / Gamma(1-beta_i), a Caputo mixture;
    ``terms`` holds its terms of positive weight as ``Power`` kernels."""

    weights: tuple  # of (beta_i, kappa_i)

    def __post_init__(self):
        ws = tuple((float(b), float(k)) for b, k in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise DomainError("DistributedOrder kernel needs at least one weight")
        for b, k in ws:
            if not 0.0 < b < 1.0:
                raise DomainError("DistributedOrder exponents must lie in (0,1)")
            if k < 0.0:
                raise DomainError("DistributedOrder weights must be >= 0")
        if not any(k > 0.0 for _, k in ws):
            raise DomainError("DistributedOrder needs one strictly positive weight")
        # the Caputo terms c_i s^{-beta_i}, c_i = kappa_i/Gamma(1-beta_i), as Power
        # kernels, and (beta_i, c_i beta_i) of their Levy densities, as
        # kappa_i beta_i/Gamma(1-beta_i)
        terms = tuple((b, k, gamma(1.0 - b)) for b, k in ws if k > 0.0)
        object.__setattr__(self, "terms", tuple(Power(beta=b, scale=k / g) for b, k, g in terms))
        object.__setattr__(self, "_nu_terms", tuple((b, k * b / g) for b, k, g in terms))

    support_end = math.inf

    @property
    def small_exponent(self):
        return max(b for b, k in self.weights if k > 0.0)

    def breakpoints(self):
        return ()

    def w(self, s):
        s = _as_positive_array(s)
        out = np.zeros_like(s)
        for p in self.terms:
            out += p.scale * s ** (-p.beta)
        return out

    def nu(self, s):
        s = _as_positive_array(s)
        out = np.zeros_like(s)
        for b, n in self._nu_terms:
            out += n * s ** (-b - 1.0)
        return out

    def moment(self, k, a):
        tot = 0.0
        for term in self.terms:
            p = k + 1.0 - term.beta
            tot += term.scale * float_pow(a, p) / p
        return _like(a, tot)

    def w_inv(self, y):
        """Newton on log w in x = log s, from below the root.

        log w(e^x) = log sum_i c_i e^{-beta_i x} is a log-sum-exp, so convex
        and decreasing in x; w(s) >= c_i s^{-beta_i} puts the start
        max_i log (c_i/y)^{1/beta_i} left of the root.  A convex function lies
        above its tangents, so the iterates rise monotonically to the root.
        Each entry stops at its own first step of 1e-8 or less, so an entry's
        result does not depend on the other entries of the batch.
        """
        y = np.asarray(y, dtype=float)
        terms = [(p.beta, p.scale) for p in self.terms]
        log_y = np.log(y)
        x = np.max([(math.log(c) - log_y) / b for b, c in terms], axis=0)
        done = np.zeros(x.shape, dtype=bool)
        for _ in range(64):
            parts = [(b, c * np.exp(-b * x)) for b, c in terms]
            w = sum(p for _, p in parts)
            step = (np.log(w) - log_y) * w / sum(b * p for b, p in parts)
            x = np.where(done, x, x + step)
            done |= ~(step > 1e-8)
            if done.all():
                break
        return np.exp(x)

    def atoms(self):
        return ()


@dataclass(frozen=True)
class Tabulated(_Kernel):
    """Piecewise log-linear kernel through strictly decreasing knots.

    ``knots`` is a sequence of (s, w(s)) pairs with strictly increasing s and
    strictly decreasing positive w; between knots the kernel is a power law
    (linear in log-log), which preserves monotonicity.  Below the first knot
    the first segment's power law is extended (so w blows up at 0).  The
    declared ``tail`` class governs s beyond the last knot:

    * ``"power"`` - extend the last segment's power law to infinity;
    * ``"zero"``  - w drops to 0 at the last knot, leaving a Levy atom there.
    """

    knots: tuple
    tail: str = "power"

    def __post_init__(self):
        kn = tuple((float(s), float(v)) for s, v in self.knots)
        object.__setattr__(self, "knots", kn)
        if len(kn) < 2:
            raise DomainError("Tabulated kernel needs at least two knots")
        s = np.array([p[0] for p in kn])
        v = np.array([p[1] for p in kn])
        if np.any(s[1:] <= s[:-1]) or np.any(s <= 0.0):
            raise DomainError("Tabulated knots need strictly increasing positive s")
        if np.any(v[1:] >= v[:-1]) or np.any(v <= 0.0):
            raise DomainError("Tabulated knot values must be strictly decreasing and positive")
        if self.tail not in ("power", "zero"):
            raise DomainError("Tabulated tail class must be 'power' or 'zero'")
        q = np.log(v[:-1] / v[1:]) / np.log(s[1:] / s[:-1])
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_q", q)
        # segment i is c_i u^{-q_i}; the moment tables are cached per k
        object.__setattr__(self, "_c", np.array([vi * si**qi for vi, si, qi in zip(v, s, q)]))
        object.__setattr__(self, "_tables", {})
        if q[0] >= 1.0:
            raise DomainError(
                "first-segment slope %.3f >= 1 violates the min{1,s} integrability condition"
                % q[0]
            )

    @property
    def support_end(self):
        return self._s[-1] if self.tail == "zero" else math.inf

    @property
    def small_exponent(self):
        return float(self._q[0])

    def breakpoints(self):
        return tuple(self._s)

    def _segment(self, s):
        # index i such that the power law of segment i applies at s;
        # clipped so the first/last segment extrapolates
        idx = np.searchsorted(self._s, s, side="right") - 1
        return np.clip(idx, 0, len(self._q) - 1)

    def w(self, s):
        s = _as_positive_array(s)
        i = self._segment(s)
        out = self._v[i] * (s / self._s[i]) ** (-self._q[i])
        if self.tail == "zero":
            out = np.where(s >= self._s[-1], 0.0, out)
        return out

    def nu(self, s):
        s = _as_positive_array(s)
        if np.any(np.isin(s, self._s)):
            raise AtomError("atom here: Levy density requested exactly at a tabulated knot")
        i = self._segment(s)
        out = self._q[i] * self._v[i] * self._s[i] ** self._q[i] * s ** (-self._q[i] - 1.0)
        if self.tail == "zero":
            out = np.where(s > self._s[-1], 0.0, out)
        return out

    def w_inv(self, y):
        """Closed form per segment; the atom's location for y at or below its mass."""
        y = np.asarray(y, dtype=float)
        # y in (v_{i+1}, v_i] has its preimage in [s_i, s_{i+1}), on segment i
        i = np.clip(np.searchsorted(-self._v, -y, side="right") - 1, 0, len(self._q) - 1)
        s = self._s[i] * (self._v[i] / y) ** (1.0 / self._q[i])
        if self.tail == "zero":
            s = np.where(y <= self._v[-1], self._s[-1], s)
        return s

    def atoms(self):
        if self.tail == "zero":
            return ((float(self._s[-1]), float(self._v[-1])),)
        return ()

    def _piece_moment(self, k, lo, hi, i):
        # int_lo^hi u^k v_i (u/s_i)^(-q_i) du on one power-law piece
        c = self._c[i]
        p = k + 1.0 - self._q[i]
        if abs(p) < 1e-12:
            return c * math.log(hi / lo)
        return c * (hi**p - lo**p) / p

    def _moment_table(self, k):
        """Per j = searchsorted(knots, a), the terms of M_k(a) for s_{j-1} <
        a <= s_j: the whole pieces below s_{j-1} summed one after another in
        knot order (0 for j = 0), and the piece holding a, c u^{-q} from
        lo = s_{j-1} (from 0 below the first knot), as c, p = k + 1 - q, lo**p
        and lo.  Cached per k."""
        tab = self._tables.get(k)
        if tab is None:
            s, last = self._s, len(self._q) - 1
            lo = np.concatenate([[0.0], s])
            seg = np.minimum(np.arange(-1, len(s)).clip(0), last)
            base = np.cumsum([0.0, self._piece_moment(k, 0.0, s[0], 0)]
                             + [self._piece_moment(k, s[i], s[i + 1], i) for i in range(last + 1)])
            p = k + 1.0 - self._q[seg]
            lo_p = np.array([x**e for x, e in zip(lo.tolist(), p.tolist())])
            tab = self._tables[k] = (base, self._c[seg], p, lo_p, lo)
        return tab

    def moment(self, k, a):
        x = np.array(a, dtype=float, ndmin=1)
        # head below the first knot: extrapolated power law, finite since q0 < k+1
        if self._q[0] >= k + 1.0:
            return _like(a, np.full(x.shape, math.inf))
        base, c, p, lo_p, lo = self._moment_table(k)
        j = np.searchsorted(self._s, x)
        pj = p[j]
        flat = np.abs(pj) < 1e-12  # on a segment of slope k + 1 the piece is a logarithm
        logs = flat.any()
        if logs:
            pj[flat] = 1.0
        part = c[j] * (float_pow(x, pj) - lo_p[j]) / pj
        if logs:
            part[flat] = [cj * math.log(v / lj) for cj, v, lj in zip(c[j[flat]], x[flat], lo[j[flat]])]
        out = base[j] + part
        if self.tail == "zero":
            out = np.where(x > self._s[-1], base[-1], out)
        return _like(a, out)


def caputo(beta):
    """Caputo kernel of order beta: w(s) = s^{-beta} / Gamma(1-beta)."""
    if not 0.0 < beta < 1.0:  # before Gamma(1-beta), which refuses 1-beta <= 0 by its own name
        raise DomainError("Caputo kernel requires beta in (0,1)")
    return Power(beta=beta, scale=1.0 / gamma(1.0 - beta))


def kernel_from_config(cfg):
    """Build a kernel from its JSON dict form: {"kind": ..., parameters...}."""
    kind = cfg.get("kind")
    if kind == "power":
        return Power(beta=cfg["beta"], scale=cfg.get("scale", 1.0))
    if kind == "truncated":
        return Truncated(beta=cfg["beta"], delta=cfg.get("delta", 1.0), scale=cfg.get("scale", 1.0))
    if kind == "subexp":
        return Subexp(
            beta=cfg["beta"],
            theta=cfg["theta"],
            c0=cfg.get("c0", 1.0),
            smallBeta=cfg.get("smallBeta", 0.5),
        )
    if kind == "distributed":
        return DistributedOrder(weights=tuple((b, k) for b, k in cfg["weights"]))
    if kind == "tabulated":
        return Tabulated(knots=tuple((s, v) for s, v in cfg["knots"]), tail=cfg.get("tail", "power"))
    raise DomainError("unknown kernel kind %r" % (kind,))


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def inverse_w_vec(kernel, y):
    """``kernel.w_inv``, the generalized inverse inf{s : w(s) < y}, on an array.

    Unchecked: at or below a zero-tail atom's mass it gives the atom's location.
    """
    return kernel.w_inv(np.asarray(y, dtype=float))


def jump_sizes(kernel, eps, w_eps):
    """u -> the jumps above eps of the uniforms u on [0, 1), one per entry,
    with P(J > s) = w(s)/w_eps for w_eps = w(eps): ``inverse_w_vec(kernel,
    w_eps * u)``.

    A ``DistributedOrder`` kernel draws by composition (Devroye, *Non-Uniform
    Random Variate Generation*, 1986, II.4) instead of Newton: [0, w_eps) is
    cut into one slice per Caputo term, of length c_i eps^{-beta_i}, in term
    order; y = w_eps u falls in slice i, start <= y < end (the last slice
    has no end, so an ulp between the lengths' sum and w_eps cannot put y
    past it), and the jump is that term's ``Power.w_inv`` at y less the
    slice's start.  So P(J > s) = sum_i c_i s^{-beta_i}/w_eps, and each jump
    still takes one uniform.
    """
    if not isinstance(kernel, DistributedOrder):
        return lambda u: inverse_w_vec(kernel, w_eps * u)
    terms = kernel.terms
    starts = np.cumsum([0.0] + [p.scale * eps ** -p.beta for p in terms[:-1]]).tolist()
    ends = starts[1:] + [math.inf]  # the last slice takes all y past the others

    def draw(u):
        y = w_eps * u
        out = np.empty_like(y)
        for p, start, end in zip(terms, starts, ends):
            at = np.flatnonzero((y >= start) & (y < end))
            out[at] = p.w_inv(y[at] - start)
        return out

    return draw


# ---------------------------------------------------------------------------
# Structural condition certification
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Grid-certified structural conditions of a kernel.

    Every reported exponent delta is witnessed: the grid of ratio tests
    w(R)/w(r) >= c (R/r)^{-delta} passed with the recorded c.
    """

    ker_ok: bool
    ker_integral: float
    spoly: dict | None = None
    lpoly: dict | None = None
    sub: dict | None = None
    trunc: dict | None = None
    evidence: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)


def _ratio_constants(logs, logw, delta):
    """Entry j: min over pairs r <= R <= grid[j] of log[w(R)/w(r) (R/r)^delta].

    With y_j = log w_j + delta log s_j the pair minimum up to j is
    min_{k<=j} (y_k - max_{i<=k} y_i), one pass for every prefix.
    """
    y = logw + delta * logs
    return np.minimum.accumulate(y - np.maximum.accumulate(y))


_GRID_LO, _GRID_HI = 1e-6, 1e6  # check_conditions' grid, before clipping to the support
_C_FLOOR = 0.25  # the smallest ratio constant check_conditions certifies


def check_conditions(kernel, points_per_decade=64):
    """Certify (S.Poly.), (L.Poly.), (Sub.) and (Trunc.) on a log grid.

    The grid has >= ``points_per_decade`` points per decade on [_GRID_LO,
    _GRID_HI] clipped to the kernel support.  Exponents are taken from the
    variant's structure and verified; t_s is the largest grid point whose
    ratio constant stays above _C_FLOOR (capped at t_f/2 for truncated
    kernels, where that value is structural rather than empirical).
    """
    report = ConditionReport(ker_ok=True, ker_integral=float(kernel.moment(0, 1.0)))
    end = kernel.support_end
    top = min(_GRID_HI, end * (1.0 - 1e-9)) if math.isfinite(end) else _GRID_HI
    n = max(8, int(round(points_per_decade * math.log10(top / _GRID_LO))))
    grid = np.geomspace(_GRID_LO, top, n + 1)
    w = kernel.w(grid)

    if isinstance(kernel, Tabulated) and len(kernel.knots) < 8:
        report.diagnostics.append(
            "insufficient resolution: tabulated kernel has only %d knots" % len(kernel.knots)
        )

    # (Ker.): monotone, divergent at 0, vanishing at infinity, finite moment
    mono_ok = bool(np.all(np.diff(w) <= 1e-12 * np.maximum(w[:-1], 1e-300)))
    limits_ok = w[0] > 1e3 * max(w[-1], 1e-300) and (
        w[-1] < 1e-3 * w[0] or math.isfinite(end)
    )
    report.ker_ok = mono_ok and limits_ok and math.isfinite(report.ker_integral)
    report.evidence["grid"] = {"lo": float(grid[0]), "hi": float(grid[-1]), "n": int(n + 1)}

    logs, logw = np.log(grid), np.log(np.maximum(w, 1e-300))

    # ---- (S.Poly.)(t_s): LS^0(-delta1, t_s) --------------------------------
    delta1 = float(kernel.small_exponent)
    c_log = _ratio_constants(logs, logw, delta1)
    ok = c_log >= math.log(_C_FLOOR)
    if ok[0]:
        j_star = len(grid) - 1 if ok.all() else max(0, int(np.nonzero(~ok)[0][0]) - 1)
        t_s = float(grid[j_star])
        empirical = True
        if math.isfinite(end) and t_s > end / 2.0:
            t_s, empirical = end / 2.0, False
            j_star = int(np.searchsorted(grid, t_s, side="right") - 1)
        report.spoly = {
            "t_s": t_s,
            "delta1": delta1,
            "c": math.exp(c_log[j_star]),
            "empirical": empirical,
        }

    # ---- (L.Poly.): LS^inf(-delta2, 1) -------------------------------------
    i1 = int(np.searchsorted(grid, 1.0))
    if i1 < len(grid) - 4 and np.all(w[i1:] > 0.0):
        slopes = -np.diff(logw[i1:]) / np.diff(logs[i1:])
        delta2 = float(np.max(slopes))
        if 0.0 < delta2 <= 25.0:
            c2 = float(np.exp(_ratio_constants(logs[i1:], logw[i1:], delta2)[-1]))
            if c2 >= _C_FLOOR:
                report.lpoly = {"delta2": delta2, "c": c2}

    # ---- (Sub.)(beta, theta) ------------------------------------------------
    if isinstance(kernel, Subexp):
        tgrid = grid[grid >= 1.0]
        wt = kernel.w(tgrid)
        pos = wt > 0.0
        # compared in log space so that underflowed tail values pass trivially
        lhs = np.log(wt[pos])
        rhs = math.log(kernel.c0) - kernel.theta * tgrid[pos] ** kernel.beta
        if np.all(lhs <= rhs + 1e-9):
            report.sub = {"beta": kernel.beta, "theta": kernel.theta, "c0": kernel.c0}

    # ---- (Trunc.)(t_f) -------------------------------------------------------
    if math.isfinite(end):
        t_f = float(end)
        pts = np.linspace(t_f / 4.0, t_f, 33)[:-1]
        sec = kernel.w(pts) / (t_f - pts)  # secants anchored at (t_f, 0)
        report.trunc = {"t_f": t_f, "K_lo": float(np.min(sec)), "K_hi": float(np.max(sec))}
        if report.spoly is not None:
            report.trunc["delta3"] = report.spoly["delta1"]
        report.evidence["trunc_secants"] = {"n": len(pts)}

    return report
