"""Bernstein-function calculus for a tail kernel.

For a kernel w with Levy measure -dw, the Laplace exponent of the associated
driftless subordinator is

    phi(lambda) = int_0^inf (1 - e^{-lambda s}) (-dw(s)).

Integrating by parts turns this and its companions into plain Laplace
transforms of w itself, which is how everything here is computed (no
differentiation of w is ever needed, so tabulated kernels work too):

    phi(lambda)  = lambda   * int_0^inf            e^{-lambda u} w(u) du
    phi'(lambda) =            int_0^inf (1 - lambda u) e^{-lambda u} w(u) du
    H(lambda)    = lambda^2 * int_0^inf          u e^{-lambda u} w(u) du

with H(lambda) = phi(lambda) - lambda phi'(lambda) the Jain-Pruitt
concentration function.  phi' and H are computed from their own integrands,
so the identity phi - lambda*phi' = H compares genuinely independent
quadratures.

The integrals are evaluated by composite Gauss-Legendre panels on octaves of
[1e-5/lambda, 50/lambda] (split additionally at kernel breakpoints) plus a
closed-form head: on [0, 1e-5/lambda] the factor e^{-lambda u} is Taylor
expanded to three terms and the remaining truncated moments
int_0^a u^k w(u) du come exactly from the kernel.  Every evaluation is done
at two node counts and the discrepancy is the achieved-error diagnostic; a
silent wrong value is never returned.

A BernsteinTable caches phi, phi', H on a logarithmic grid (default 96
points per decade on [1e-9, 1e9]) and supplies monotone inverses, the
composite function b(s) = s phi'(H^{-1}(1/s)), the envelope inverse
bar_phi_alpha, and the variational quantities

    M(t,l) = sup_{s>0} { l/s - t/Phi(s) }
    N(t,l) = sup_{s>0} { l/s - t phi^{-1}(1/Phi(s)) }

computed by bracketed golden-section maximization.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from .errors import DomainError, QuadratureError, RangeError
from .shapes import PowerLaw, as_shape

__all__ = ["BernsteinTable", "calM", "calN", "PowerLaw"]

_NODE_CACHE = {}


def _gl(n):
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = leggauss(n)
    return _NODE_CACHE[n]


_HEAD_FRAC = 1e-5  # lambda*u0 at the closed-form head boundary
_TAIL_MULT = 50.0  # integrate out to 50/lambda; the remainder is < e^-50


def _head_moments(kernel, lam):
    """int_0^{1e-5/lam} u^k w(u) du for k = 0..3; once these overflow a float,
    DomainError names the smallest supported lambda (least finite power of 2)."""

    def finite(l):
        try:
            m = [kernel.moment(k, _HEAD_FRAC / l) for k in range(4)]
        except OverflowError:
            return None
        return m if all(map(math.isfinite, m)) else None

    m = finite(lam)
    if m is None:
        floor = 1.0
        while floor > 1e-300 and finite(floor / 2.0) is not None:
            floor /= 2.0
        raise DomainError("lambda=%g is below the smallest supported lambda %r of this kernel "
                          "(its truncated moments overflow)" % (lam, floor))
    return m


def _laplace_integral(kernel, lam, kind, n_nodes):
    """One of the three Laplace integrals at a single lambda > 0.

    kind 0: int e^{-lam u} w du        (for phi)
    kind 1: int u e^{-lam u} w du      (for H)
    kind 2: int (1-lam u) e^{-lam u} w du  (for phi')
    """
    u0 = _HEAD_FRAC / lam
    hi = _TAIL_MULT / lam
    m = _head_moments(kernel, lam)
    if kind == 0:
        head = m[0] - lam * m[1] + 0.5 * lam**2 * m[2]
    elif kind == 1:
        head = m[1] - lam * m[2] + 0.5 * lam**2 * m[3]
    else:
        head = m[0] - 2.0 * lam * m[1] + 1.5 * lam**2 * m[2]

    n_oct = int(math.ceil(math.log2(hi / u0)))
    edges = np.geomspace(u0, hi, n_oct + 1)
    brk = [b for b in kernel.breakpoints() if u0 < b < hi]
    if brk:
        edges = np.unique(np.concatenate([edges, brk]))
    a, b = edges[:-1], edges[1:]
    x, wgt = _gl(n_nodes)
    u = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
    pw = 0.5 * (b - a)[:, None] * wgt[None, :]
    f = np.exp(-lam * u) * kernel.w(u)
    if kind == 1:
        f = f * u
    elif kind == 2:
        f = f * (1.0 - lam * u)
    return head + float(np.sum(pw * f))


def _checked_integral(kernel, lam, kind, rtol):
    v1 = _laplace_integral(kernel, lam, kind, 24)
    v2 = _laplace_integral(kernel, lam, kind, 40)
    scale = max(abs(v2), 1e-300)
    achieved = abs(v1 - v2) / scale
    if achieved > rtol:
        raise QuadratureError(
            "Laplace integral did not converge at lambda=%g (kind %d)" % (lam, kind),
            achieved=achieved,
            target=rtol,
        )
    return v2


class BernsteinTable:
    """Cached monotone representations of phi, phi', H, b and their inverses.

    Immutable after construction; all queries are pure, so a table can be
    shared freely across threads.
    """

    def __init__(self, kernel, lam_lo=1e-9, lam_hi=1e9, points_per_decade=96, quad_rtol=1e-10):
        self.kernel = kernel
        self.quad_rtol = quad_rtol
        n = int(round(points_per_decade * math.log10(lam_hi / lam_lo)))
        self.lam_grid = np.geomspace(lam_lo, lam_hi, n + 1)
        i0 = np.empty_like(self.lam_grid)
        i1 = np.empty_like(self.lam_grid)
        i2 = np.empty_like(self.lam_grid)
        for j, lam in enumerate(self.lam_grid):
            i0[j] = _laplace_integral(kernel, lam, 0, 24)
            i1[j] = _laplace_integral(kernel, lam, 1, 24)
            i2[j] = _laplace_integral(kernel, lam, 2, 24)
        self.phi_grid = self.lam_grid * i0
        self.H_grid = self.lam_grid**2 * i1
        self.phi_prime_grid = i2
        # b on its own grid: with lam = H^{-1}(1/s) running over lam_grid,
        # s = 1/H(lam) and b(s) = phi'(lam)/H(lam), exact up to quadrature
        self.b_s_grid = 1.0 / self.H_grid[::-1]
        self.b_grid = (self.phi_prime_grid / self.H_grid)[::-1]
        self._log_lam = np.log(self.lam_grid)
        self._log_phi = np.log(self.phi_grid)
        self._log_H = np.log(self.H_grid)

    # -- forward maps -------------------------------------------------------

    def phi(self, lam):
        """Laplace exponent phi(lambda); phi(0) = 0 exactly."""
        if np.ndim(lam) > 0:
            return np.array([self.phi(v) for v in np.asarray(lam, float)])
        lam = float(lam)
        if lam < 0.0:
            raise DomainError("phi requires lambda >= 0")
        if lam == 0.0:
            return 0.0
        return lam * _checked_integral(self.kernel, lam, 0, self.quad_rtol)

    def phi_prime(self, lam):
        if np.ndim(lam) > 0:
            return np.array([self.phi_prime(v) for v in np.asarray(lam, float)])
        lam = float(lam)
        if lam <= 0.0:
            raise DomainError("phi_prime requires lambda > 0")
        return _checked_integral(self.kernel, lam, 2, self.quad_rtol)

    def H(self, lam):
        if np.ndim(lam) > 0:
            return np.array([self.H(v) for v in np.asarray(lam, float)])
        lam = float(lam)
        if lam < 0.0:
            raise DomainError("H requires lambda >= 0")
        if lam == 0.0:
            return 0.0
        return lam**2 * _checked_integral(self.kernel, lam, 1, self.quad_rtol)

    def b_fun(self, s):
        """b(s) = s * phi'(H^{-1}(1/s)), strictly increasing."""
        if np.ndim(s) > 0:
            return np.array([self.b_fun(v) for v in np.asarray(s, float)])
        s = float(s)
        if s <= 0.0:
            raise DomainError("b requires s > 0")
        lam = self.invert("H", 1.0 / s)
        return s * self.phi_prime(lam)

    # -- inverses -----------------------------------------------------------

    def _bracket_from_grid(self, grid_vals, y):
        """Bracket lam for an increasing grid function, expanding if needed."""
        j = int(np.searchsorted(grid_vals, y))
        if 0 < j < len(grid_vals):
            return self.lam_grid[j - 1], self.lam_grid[j]
        if j == 0:
            lo, hi = self.lam_grid[0] / 4.0, self.lam_grid[0]
            return lo, hi
        return self.lam_grid[-1], self.lam_grid[-1] * 4.0

    def _invert_monotone(self, fwd, grid_vals, y, increasing=True):
        vals = grid_vals if increasing else -grid_vals
        target = y if increasing else -y
        lo, hi = self._bracket_from_grid(vals, target)
        sign = 1.0 if increasing else -1.0
        g = lambda lam: sign * (fwd(lam) - y)
        glo, ghi = g(lo), g(hi)
        n_expand = 0
        while glo > 0.0:
            hi, ghi = lo, glo
            lo /= 16.0
            glo = g(lo)
            n_expand += 1
            if n_expand > 200 or lo < 1e-280:
                raise RangeError("target %g below range" % y, bracket=(float(lo), float(hi)))
        n_expand = 0
        while ghi < 0.0:
            lo, glo = hi, ghi
            hi *= 16.0
            ghi = g(hi)
            n_expand += 1
            if n_expand > 200 or hi > 1e280:
                raise RangeError("target %g above range" % y, bracket=(float(lo), float(hi)))
        return brentq(g, lo, hi, rtol=1e-14, maxiter=200)

    def invert(self, which, y):
        """Inverse of phi, H, b or phi' at y; forward(invert(y)) = y to 1e-9."""
        y = float(y)
        if y <= 0.0:
            raise RangeError("invert target must be positive", bracket=None)
        if which == "phi":
            return self._invert_monotone(self.phi, self.phi_grid, y)
        if which == "H":
            return self._invert_monotone(self.H, self.H_grid, y)
        if which == "phi_prime":
            return self._invert_monotone(self.phi_prime, self.phi_prime_grid, y, increasing=False)
        if which == "b":
            # b(1/H(lam)) = phi'(lam)/H(lam) is strictly decreasing in lam;
            # a single lambda-space solve avoids nesting two inversions
            bfun = lambda lam: self.phi_prime(lam) / self.H(lam)
            grid = self.phi_prime_grid / self.H_grid
            lam = self._invert_monotone(bfun, grid, y, increasing=False)
            return 1.0 / self.H(lam)
        raise DomainError("invert target must be one of phi, H, b, phi_prime")

    def phi_inv_fast(self, y):
        """phi^{-1} by log-log interpolation on the cache (~1e-5 relative).

        Used inside optimizer loops; out-of-grid targets fall back to the
        precise bracketed inverse.
        """
        y_arr = np.atleast_1d(np.asarray(y, float))
        out = np.exp(np.interp(np.log(y_arr), self._log_phi, self._log_lam))
        bad = (y_arr < self.phi_grid[0]) | (y_arr > self.phi_grid[-1])
        if np.any(bad):
            out[bad] = [self.invert("phi", v) for v in y_arr[bad]]
        return float(out[0]) if np.ndim(y) == 0 else out

    # -- envelope inverse ---------------------------------------------------

    def bar_phi_alpha(self, alpha, lam):
        """bar_phi_alpha(lam) = inf { s > 0 : s^alpha / phi(s) >= lam }.

        For alpha >= 1 the target s -> s^alpha/phi(s) is increasing; for
        alpha < 1 it may not be, in which case the running-supremum envelope
        is used and a warning is emitted.  A lam that s^alpha/phi(s) does not
        reach raises RangeError.
        """
        if alpha <= 0.0:
            raise DomainError("bar_phi_alpha requires alpha > 0")
        lam = float(lam)
        if lam < 0.0:
            raise DomainError("bar_phi_alpha requires lam >= 0")
        if lam == 0.0:
            return 0.0
        g_grid = self.lam_grid**alpha / self.phi_grid
        if alpha < 1.0 and np.any(np.diff(g_grid) < 0.0):
            warnings.warn(
                "s^alpha/phi(s) is not monotone for alpha=%g; using its running-supremum envelope"
                % alpha,
                RuntimeWarning,
            )
            env = np.maximum.accumulate(g_grid)
            j = int(np.searchsorted(env, lam))
            if j == 0:
                return float(self.lam_grid[0])
            if j >= len(env):
                raise RangeError("lam=%g above the envelope range of the grid" % lam, bracket=None)
            return float(self.lam_grid[j])

        def g(s):
            try:
                return s**alpha / self.phi(s) - lam
            except DomainError as exc:  # s below the kernel's smallest supported lambda
                raise RangeError("lam=%g not reached by s^alpha/phi(s) at supported s" % lam) from exc

        lo, hi = self._bracket_from_grid(g_grid, lam)
        # g_grid holds the 24-node phi and g the checked 40-node one, which
        # differ by ulps: a target at or next to a node can fall just outside
        # the grid bracket, so the signs are verified on g itself and the
        # bracket widened outward while both ends share a sign
        glo, ghi = g(lo), g(hi)
        for _ in range(200):
            if glo > 0.0 and ghi > 0.0:
                hi, ghi = lo, glo
                lo /= 4.0
                glo = g(lo)
            elif glo < 0.0 and ghi < 0.0:
                lo, glo = hi, ghi
                hi *= 4.0
                ghi = g(hi)
            else:
                break
        if glo > 0.0 and ghi > 0.0:
            # s^alpha/phi(s) stays above lam through 200 quarterings: the infimum is 0
            return 0.0
        if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
            raise RangeError(
                "lam=%g not reached by s^alpha/phi(s)" % lam, bracket=(float(lo), float(hi))
            )
        return brentq(g, lo, hi, rtol=1e-13, maxiter=200)

    # -- comparability evidence ----------------------------------------------

    def phiHw_brackets(self):
        """Achieved ratio brackets for phi and H against the truncated moments.

        Returns min/max over the grid of phi(l)/(l * int_0^{1/l} w) and
        H(l)/(l^2 * int_0^{1/l} u w(u) du); the moment integrals are exact.
        """
        m0 = np.array([self.kernel.moment(0, 1.0 / l) for l in self.lam_grid])
        m1 = np.array([self.kernel.moment(1, 1.0 / l) for l in self.lam_grid])
        r_phi = self.phi_grid / (self.lam_grid * m0)
        r_H = self.H_grid / (self.lam_grid**2 * m1)
        return {
            "phi": (float(np.min(r_phi)), float(np.max(r_phi))),
            "H": (float(np.min(r_H)), float(np.max(r_H))),
        }


# ---------------------------------------------------------------------------
# Variational quantities M(t,l) and N(t,l)
# ---------------------------------------------------------------------------


_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def _golden_max(f, a, b, tol=1e-12, maxiter=300):
    """Golden-section maximum of f on [a, b] in log coordinates."""
    a, b = math.log(a), math.log(b)
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = f(math.exp(x1)), f(math.exp(x2))
    for _ in range(maxiter):
        if b - a <= tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = f(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = f(math.exp(x2))
    x = x1 if f1 >= f2 else x2
    return max(f1, f2), math.exp(x)


def _maximize_unimodal(f, s_heur, scan_points=33):
    """Bracket a unimodal maximum by factor-4 expansion, then golden section."""
    s0 = s_heur
    f0 = f(s0)
    lo, hi = s0, s0
    flo, fhi = f0, f0
    for _ in range(200):
        cand = lo / 4.0
        fc = f(cand)
        if fc < flo:
            break
        lo, flo = cand, fc
    else:
        raise QuadratureError("bracket expansion failed (left)")
    lo = lo / 4.0
    for _ in range(200):
        cand = hi * 4.0
        fc = f(cand)
        if fc < fhi:
            break
        hi, fhi = cand, fc
    else:
        raise QuadratureError("bracket expansion failed (right)")
    hi = hi * 4.0
    # unimodality scan: values should rise then fall across the bracket
    lw, hw = math.log(lo), math.log(hi)
    ss = [math.exp(lw + (hw - lw) * i / (scan_points - 1)) for i in range(scan_points)]
    vals = [f(s) for s in ss]
    k = max(range(scan_points), key=vals.__getitem__)
    drops = sum(
        1
        for i in range(1, scan_points - 1)
        if vals[i] < vals[i - 1] - 1e-14 and vals[i] < vals[i + 1] - 1e-14
    )
    if drops > 0:
        warnings.warn(
            "objective not unimodal on the bracket; reporting the best local scan peak",
            RuntimeWarning,
        )
    a = ss[max(k - 1, 0)]
    b = ss[min(k + 1, scan_points - 1)]
    val, s_star = _golden_max(f, a, b)
    return max(val, vals[k]), s_star


def calM(phi_shape, t, l):
    """M(t,l) = sup_{s>0} { l/s - t/Phi(s) } for a shape with alpha1 > 1."""
    shape = as_shape(phi_shape)
    if shape.alpha1 <= 1.0:
        raise DomainError("M(t,l) requires the lower scaling index alpha_1 > 1")
    if t <= 0.0 or l <= 0.0:
        raise DomainError("M(t,l) requires t, l > 0")
    alpha = 0.5 * (shape.alpha1 + shape.alpha2)
    s_heur = (alpha * t / l) ** (1.0 / (alpha - 1.0))
    f = lambda s: l / s - t / shape(s)
    val, _ = _maximize_unimodal(f, s_heur)
    return val


def calN(table, phi_shape, t, l):
    """N(t,l) = sup_{s>0} { l/s - t phi^{-1}(1/Phi(s)) } from the table."""
    shape = as_shape(phi_shape)
    if shape.alpha1 <= 1.0:
        raise DomainError("N(t,l) requires the lower scaling index alpha_1 > 1")
    if t <= 0.0 or l <= 0.0:
        raise DomainError("N(t,l) requires t, l > 0")
    alpha = 0.5 * (shape.alpha1 + shape.alpha2)
    s_heur = (alpha * t / l) ** (1.0 / (alpha - 1.0))
    f = lambda s: l / s - t * table.phi_inv_fast(1.0 / shape(s))
    val, _ = _maximize_unimodal(f, s_heur)
    return val
