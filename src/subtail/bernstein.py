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
concentration function.  phi' and H are integrated with their own weights,
so the identity phi - lambda*phi' = H compares independent quadratures.

One evaluator, ``_bernstein_values``, computes all three on a 1-D array of
lambda: per lambda, the package's one checked rule (``quadrature``'s
24- vs 40-node pair) on the 23 octaves of [1e-5/lambda, 50/lambda]
(``quadrature.geometric_edges``, split additionally at kernel breakpoints),
and a closed-form head: on [0, 1e-5/lambda] the factor e^{-lambda u} is
Taylor expanded to three terms and the remaining truncated moments
int_0^a u^k w(u) du come exactly from the kernel, one ``kernel.moments``
call for k = 0..3 and the whole array.  The lambdas' panels are summed by
``quadrature.grouped_panel_sums``, grouped by panel count in chunks of at
most ``quadrature.PANEL_CHUNK`` panels, one ``kernel.w`` call per chunk,
which bounds the memory of a build.  Every power that feeds
a value is rounded as a lone float's would be (``kernels.float_pow``), so a
value never depends on the batch it was computed in, and an array fails at
its first failing lambda, as that lambda alone would.

A BernsteinTable caches phi, phi', H, checked to ``PHI_RTOL`` relative, on a
logarithmic grid on [1e-9, 1e9] (its one setting: 96 points per decade by
default), built by one evaluator call the first time something reads it
(``phiHw_brackets``, a ``*_grid`` attribute or ``bar_phi_alpha``'s envelope
check at alpha < 1); a grid that cannot be built raises there, not when the
table is made, and a table whose grid nothing reads never builds it.  It
holds its ``kernel`` and, certified at the first read, the kernel's
``conditions`` (``kernels.check_conditions``).
Its queries phi(), phi_prime() and H() take a value from the table's memo,
else from one evaluator call for all the lambdas of the query not memoised,
so the grid holds bit for bit what they return at its nodes.  The table supplies monotone inverses, the composite
function b(s) = s phi'(H^{-1}(1/s)), the envelope inverse bar_phi_alpha, all
solved by one bracketed root finder, and the variational quantities

    M(t,l) = sup_{s>0} { l/s - t/Phi(s) }                 (closed form, arrays)
    N(t,l) = sup_{s>0} { l/s - t phi^{-1}(1/Phi(s)) }     (first-order condition, arrays)

for the power shape Phi(s) = s^alpha, alpha > 1: both take the exponent
alpha.  N is solved in lambda = phi^{-1}(1/Phi(s)) by the root finder, and
needs no phi^{-1}.

The root finder is written as step generators (``_brent_steps``,
``_increasing_root_steps``) that yield each lambda they need and receive the
function's value there; ``increasing_root`` drives them with a function.
Its first bracket is the grid cell np.searchsorted(g(lam_grid), 0.0) picks,
found by probing g at only the nodes that search reads, in numpy's order
(``_probe_search``), so no root solve builds the grid.  ``invert`` takes a
scalar or an array of targets, rejects a NaN, infinite or non-positive one
with RangeError before it evaluates anything, and solves them in lockstep
(``_lockstep``), one solver per target and one evaluator call per step for
the lambdas not yet memoised; if a step raises, the targets are solved
again one at a time, in order, so an array raises what its first failing
target raises alone.  ``calN`` solves one root per (t, l) in the same
lockstep; ``_lockstep`` serves ``invert`` and ``calN`` only.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .errors import DomainError, RangeError
from .kernels import check_conditions, float_pow
from .quadrature import PHI_RULES, checked, geometric_edges, grouped_panel_sums

__all__ = ["PHI_RTOL", "BernsteinTable", "calM", "calN", "increasing_root"]

PHI_RTOL = 1e-10  # phi's checked target, relative: the slack of tail_bounds.within_bound
_LAM_ENDS = (1e-9, 1e9)  # the ends of every table's lambda grid

_HEAD_FRAC = 1e-5  # lambda*u0 at the closed-form head boundary
_TAIL_MULT = 50.0  # integrate out to 50/lambda; the remainder is < e^-50
# geometric panels on [u0, 50/lambda]: 23 octaves for every lambda
_OCTAVES = math.ceil(math.log2(_TAIL_MULT / _HEAD_FRAC))
_NAMES = ("phi", "H", "phi'")


def _supported(kernel, lam):
    """u0 = 1e-5/lam, hi = 50/lam, m and the mask of the supported lam.

    Rows 0-3 of m are the truncated moments int_0^{u0} u^k w(u) du, from
    one kernel.moments call; rows 4-5, hi and 2 lam^2, only join the check.
    A lam is supported where all of m is finite; overflow beyond that raises
    no warning."""
    with np.errstate(all="ignore"):
        u0, hi = _HEAD_FRAC / lam, _TAIL_MULT / lam
        m = np.concatenate([kernel.moments(u0), [hi, 2.0 * lam * lam]])
    return u0, hi, m, np.isfinite(m).all(axis=0)


def _unsupported(kernel, lam):
    """DomainError naming the smallest or largest supported lambda of the
    kernel: going from 1 towards lam in factors of 2, the last power of 2
    before the first unsupported one, found by bisection over the exponent
    (support is monotone in lambda; 2^{+-1079} is never supported)."""
    up = lam >= 1.0
    with np.errstate(over="ignore"):
        powers = np.ldexp(1.0, np.arange(1, 1080) if up else -np.arange(1, 1080))
    lo, j = 0, powers.size - 1  # powers[j] is unsupported, all before lo are
    while lo < j:
        mid = (lo + j) // 2
        if _supported(kernel, powers[mid : mid + 1])[3][0]:
            lo = mid + 1
        else:
            j = mid
    edge = float(powers[j - 1]) if j else 1.0
    return DomainError("lambda=%g is %s the %s supported lambda %r of this kernel "
                       "(its truncated moments or its panels overflow)"
                       % (lam, "above" if up else "below", "largest" if up else "smallest", edge))


def _panel_edges(kernel, u0, hi):
    """Row j: the sorted panel edges on [u0[j], hi[j]], the geometric octaves
    (``quadrature.geometric_edges``, np.geomspace's values) and the kernel's
    breakpoints inside, padded with inf; and the panel count of each row."""
    u0, hi = u0[:, None], hi[:, None]
    edges = geometric_edges(u0, hi, _OCTAVES + 1)
    brk = np.array(kernel.breakpoints(), dtype=float)
    inside = (u0 < brk) & (brk < hi) if brk.size else brk
    if not inside.any():
        return edges, np.full(len(edges), _OCTAVES)
    edges = np.concatenate([edges, np.where(inside, brk, np.inf)], axis=1)
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.inf  # a breakpoint on an edge
    edges.sort(axis=1)
    return edges, np.isfinite(edges).sum(axis=1) - 1


def _integrands(kernel, lam, u):
    """e^{-lam u} w, u e^{-lam u} w and (1 - lam u) e^{-lam u} w, stacked, at
    the nodes u of the lam (shaped (n, 1, 1)).  An overflow raises no
    warning: ``quadrature.checked`` refuses the non-finite sum it makes."""
    f = np.empty((3,) + u.shape)
    f0, f1, f2 = f
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(lam, u, out=f2)  # lam u
        np.exp(np.negative(f2, out=f0), out=f0)
        f0 *= kernel.w(u)
        np.multiply(f0, u, out=f1)
        np.subtract(1.0, f2, out=f2)
        f2 *= f0
    return f


def _bernstein_values(kernel, lam, rtol):
    """(phi, H, phi') at each entry of the 1-D array lam > 0: the 40-node
    sums of the ``_integrands``, chunked as the module docstring says, plus
    their heads.  At the first lam (in array order) that fails: DomainError
    when it is not supported, else the QuadratureError of its first integral
    (phi, H, phi') whose 40- and 24-node values do not agree to rtol relative.
    """
    u0, hi, m, ok = _supported(kernel, lam)
    if not ok.all():
        j = int(np.argmin(ok))
        _bernstein_values(kernel, lam[:j], rtol)  # a miss before it raises first
        raise _unsupported(kernel, lam[j])
    m0, m1, m2, m3 = m[:4]
    l2 = float_pow(lam, 2.0)
    heads = np.array([
        m0 - lam * m1 + 0.5 * l2 * m2,
        m1 - lam * m2 + 0.5 * l2 * m3,
        m0 - 2.0 * lam * m1 + 1.5 * l2 * m2,
    ])
    l3 = lam[:, None, None]
    edges, panels = _panel_edges(kernel, u0, hi)
    coarse, fine = grouped_panel_sums(lambda u, rows: _integrands(kernel, l3[rows], u),
                                      [row[: n + 1] for row, n in zip(edges, panels.tolist())],
                                      PHI_RULES, (3,))
    coarse += heads
    fine += heads

    def message(i, _):
        return "Laplace integral of %s did not converge at lambda=%g" % (_NAMES[i % 3], lam[i // 3])

    # checked (lam, integral)-major: the first failing lam, there its first failing integral
    phi, H, dphi = checked(coarse.T, fine.T, rtol, 0.0, message).T
    return phi * lam, H * l2, dphi


# Brent's tolerances: relative only, since an absolute xtol such as 2e-12
# would swamp every root below ~1e-3
_XTOL, _RTOL, _MAXITER = 1e-300, 1e-14, 200


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _div(a, b):
    """a / b as C divides doubles: +-inf, or NaN for a = 0, where b = 0."""
    if b:
        return a / b
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _drive(steps, f):
    """Run the step generator steps to its result, answering each x it
    yields with f(x)."""
    fx = None
    while True:
        try:
            x = steps.send(fx)
        except StopIteration as stop:
            return stop.value
        fx = f(x)


def _lockstep(start, n, f):
    """Run n step generators, each made by start(), to their results in
    lockstep.  Each round answers the x of every live problem with one
    call f(xs, live), live being their indices; a problem that returns drops
    out.  If a round raises, the problems run again one at a time, in order,
    so a batch raises what its first failing problem raises alone."""
    try:
        return _rounds([start() for _ in range(n)], f)
    except Exception:
        return [_rounds([start()], lambda xs, _: f(xs, [i]))[0] for i in range(n)]


def _rounds(solvers, f):
    """``_lockstep``'s rounds, without its retry."""
    xs, out = [float(s.send(None)) for s in solvers], [None] * len(solvers)
    live = list(range(len(solvers)))
    while live:
        going = []
        for i, v in zip(live, f([xs[i] for i in live], live)):
            try:
                xs[i] = float(solvers[i].send(v))
                going.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        live = going
    return out


def _checked(fx, x, bracket):
    """float(fx), or RangeError with the bracket where fx is NaN."""
    fx = float(fx)
    if math.isnan(fx):
        raise RangeError("the function is NaN at x=%r inside the bracket" % x, bracket=bracket)
    return fx


def _brent_steps(xa, xb):
    """Root of f in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), to |error| below
    (_XTOL + _RTOL |x|)/2, as a step generator: it yields each x at which it
    needs f, receives f(x) and returns the root (``_drive`` runs it with f).

    A line-for-line port of scipy's ``brentq.c``: the same steps in the same
    floating-point order, so it returns scipy.optimize.brentq's root bit for
    bit.  f must change sign on [xa, xb].  A NaN value of f, or no
    convergence in _MAXITER steps, raises RangeError with the bracket.
    """
    bracket = (float(xa), float(xb))
    xpre, xcur = bracket
    xblk = fblk = spre = scur = 0.0
    fpre = _checked((yield xpre), xpre, bracket)
    fcur = _checked((yield xcur), xcur, bracket)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise RangeError("the function has one sign on the bracket", bracket=bracket)
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked((yield xcur), xcur, bracket)
    raise RangeError("Brent's method did not converge in %d steps" % _MAXITER, bracket=bracket)


def _increasing_root_steps(lo, hi):
    """``increasing_root`` as a step generator: yields each x at which it
    needs g, receives g(x) and returns the root."""
    glo = yield lo
    ghi = yield hi
    for _ in range(200):
        if glo > 0.0:
            lo, hi, ghi = lo / 16.0, lo, glo
            glo = yield lo
        elif ghi < 0.0:
            lo, hi, glo = hi, hi * 16.0, ghi
            ghi = yield hi
        elif glo <= 0.0 <= ghi:
            return (yield from _brent_steps(lo, hi))
        else:  # NaN
            break
    raise RangeError("target not bracketed within a factor 16^200 of the first bracket",
                     bracket=(float(lo), float(hi)))


def increasing_root(g, lo, hi):
    """Root of g, increasing on (0, inf), from the first bracket [lo, hi].

    The bracket's signs are checked on g itself, the function Brent's
    method solves, and it is moved outward by factors of 16 while both ends
    share a sign.  When 200 moves find no sign change, or g turns NaN inside
    the final bracket, or Brent's method does not converge, RangeError.
    The package's one root finder (``_increasing_root_steps``).
    """
    return _drive(_increasing_root_steps(lo, hi), g)


def _probe_search(points):
    """np.searchsorted(g(points), 0.0), side "left", as a step generator:
    it yields the points whose g numpy's binary search reads, in its order,
    and receives g there.  From lo, hi = 0, len(points) it probes
    mid = lo + ((hi - lo) >> 1), and g < 0 sets lo = mid + 1, anything
    else (NaN included, which numpy sorts last) hi = mid."""
    lo, hi = 0, len(points)
    while lo < hi:
        mid = lo + ((hi - lo) >> 1)
        if (yield points[mid]) < 0.0:
            lo = mid + 1
        else:
            hi = mid
    return lo


# invert's function of lambda for each target map, from (phi, H, phi') at
# lambda and the target y; each increases in lambda
_INVERSES = {
    "phi": lambda v, y: v[0] - y,
    "H": lambda v, y: v[1] - y,
    "phi_prime": lambda v, y: y - v[2],
    # b(1/H(lam)) = phi'(lam)/H(lam) is strictly decreasing in lam; a single
    # lambda-space solve avoids nesting two inversions
    "b": lambda v, y: y - v[2] / v[1],
}


# the attributes of a table's grid, all built by one evaluator call at the
# first read of any of them
_GRID_ATTRS = frozenset(("phi_grid", "H_grid", "phi_prime_grid"))


class BernsteinTable:
    """Cached monotone representations of phi, phi', H, b and their inverses.

    Construction checks points_per_decade and makes lam_grid only, on
    [1e-9, 1e9] at that many nodes per decade.  The grid
    values are built at the first read of any of them, and that read raises
    the build's DomainError or QuadratureError if the grid cannot be built;
    the queries phi(), H(), phi_prime(), b_fun(), invert() and
    bar_phi_alpha() at alpha >= 1 neither build nor read it.  ``conditions``,
    the kernel's ConditionReport, is likewise certified at its first read.
    Beyond those lazy values and a memo of evaluations, a table is immutable
    and all queries are pure, so it can be shared freely across threads (two
    threads may both build the grid, to the same values).
    """

    def __init__(self, kernel, points_per_decade=96):
        lo, hi = _LAM_ENDS
        n = int(round(points_per_decade * math.log10(hi / lo))) if 0.0 < points_per_decade < math.inf else 0
        if n < 1:
            raise DomainError("the lambda grid on [%g, %g] needs a finite points_per_decade > 0 making "
                              "at least two nodes; got points_per_decade=%r" % (lo, hi, points_per_decade))
        self.kernel = kernel
        self.lam_grid = np.geomspace(lo, hi, n + 1)
        self._memo = {}

    def __getattr__(self, name):
        """Build the grid at the first read of one of its attributes.  Only
        reached when the attribute is missing, so later reads are plain
        attribute reads."""
        if name not in _GRID_ATTRS:
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        # the checked values phi(), H() and phi_prime() return at the nodes
        phi, H, dphi = _bernstein_values(self.kernel, self.lam_grid, PHI_RTOL)
        self.__dict__.update(phi_grid=phi, H_grid=H, phi_prime_grid=dphi)
        return self.__dict__[name]

    @cached_property
    def conditions(self):
        """The kernel's structural conditions, certified once per table."""
        return check_conditions(self.kernel)

    # -- forward maps -------------------------------------------------------

    def _values(self, lams):
        """(phi, H, phi') at each float lam > 0 of the list lams: from the
        memo, else from one evaluator call for all lam not in it.  New values
        join the memo, which holds at most as many lam as the grid, since
        root finders and callers ask for the same lam again and again."""
        memo, got, new = self._memo, {}, []
        for lam in lams:
            if lam not in got:
                got[lam] = v = memo.get(lam)
                if v is None:
                    new.append(lam)
        if new:
            vals = _bernstein_values(self.kernel, np.array(new), PHI_RTOL)
            for lam, v in zip(new, zip(*(row.tolist() for row in vals))):
                if len(memo) >= len(self.lam_grid):
                    memo.clear()
                memo[lam] = got[lam] = v
        return [got[lam] for lam in lams]

    def _forward(self, lam, col, name, zero_ok):
        """Column col of ``_values`` at lam, a scalar or an array; 0 where
        lam = 0 if zero_ok."""
        x = np.array(lam, dtype=float, ndmin=1)
        flat = x.ravel()
        pos = flat > 0.0
        if not pos.all():
            if np.isnan(flat).any():
                raise DomainError("%s requires a lambda that is not NaN" % name)
            if (flat < 0.0).any() or (not zero_ok and (flat == 0.0).any()):
                raise DomainError("%s requires lambda %s 0" % (name, ">=" if zero_ok else ">"))
            pos = flat != 0.0
        vals = [v[col] for v in self._values(flat[pos].tolist())]
        if np.ndim(lam) == 0:
            return vals[0] if vals else 0.0
        out = np.zeros(flat.shape)
        out[pos] = vals
        return out.reshape(x.shape)

    def phi(self, lam):
        """Laplace exponent phi(lambda); phi(0) = 0 exactly."""
        return self._forward(lam, 0, "phi", True)

    def phi_prime(self, lam):
        return self._forward(lam, 2, "phi_prime", False)

    def H(self, lam):
        return self._forward(lam, 1, "H", True)

    def b_fun(self, s):
        """b(s) = s * phi'(H^{-1}(1/s)), strictly increasing; for an array
        s, one inversion and one phi' call."""
        s = float(s) if np.ndim(s) == 0 else np.asarray(s, dtype=float)
        if not np.all((0.0 < s) & (s < math.inf)):  # NaN fails both
            raise DomainError("b requires a finite s > 0")
        return s * self.phi_prime(self.invert("H", 1.0 / s))

    # -- inverses -----------------------------------------------------------

    def _root_steps(self):
        """Step generator of the root of g, increasing in lambda.

        The first bracket is the grid cell in which g changes sign, at the
        index np.searchsorted(g(lam_grid), 0.0), found by probing g at only
        the nodes that search reads (``_probe_search``); for a root beyond
        either end of the grid it is the factor 4 past that end.
        ``increasing_root``'s steps take it from there.
        """
        lam = self.lam_grid
        j = yield from _probe_search(lam)
        if j == 0:
            lo, hi = lam[0] / 4.0, lam[0]
        elif j == len(lam):
            lo, hi = lam[-1], lam[-1] * 4.0
        else:
            lo, hi = lam[j - 1], lam[j]
        return (yield from _increasing_root_steps(lo, hi))

    def _root(self, g):
        """Root of g, increasing in lambda (``_root_steps``)."""
        return _drive(self._root_steps(), g)

    def invert(self, which, y):
        """Inverse of phi, H, b or phi' at y, a scalar or an array of
        targets; forward(invert(y)) = y to 1e-9.

        Every target is checked before any solve: a NaN, infinite or
        non-positive one raises RangeError.  The targets are solved in
        ``_lockstep``, one solver per target and each round one ``_values``
        call, so an array raises what its first failing target raises alone.
        """
        ys = np.array(y, dtype=float, ndmin=1)
        flat = ys.ravel().tolist()
        for v in flat:
            if not math.isfinite(v):
                raise RangeError("invert target %r is not finite" % v, bracket=None)
            if v <= 0.0:
                raise RangeError("invert target must be positive", bracket=None)
        if which not in _INVERSES:
            raise DomainError("invert target must be one of phi, H, b, phi_prime")
        g = _INVERSES[which]
        out = _lockstep(self._root_steps, len(flat),
                        lambda xs, live: [g(v, flat[i]) for v, i in zip(self._values(xs), live)])
        if which == "b":
            out = [1.0 / v[1] for v in self._values(out)]
        return out[0] if np.ndim(y) == 0 else np.array(out).reshape(ys.shape)

    # -- envelope inverse ---------------------------------------------------

    def bar_phi_alpha(self, alpha, lam):
        """bar_phi_alpha(lam) = inf { s > 0 : s^alpha / phi(s) >= lam }.

        For alpha >= 1 the target s -> s^alpha/phi(s) is increasing and
        solved by ``_root``, which builds no grid; for alpha < 1 it may not
        be, which is checked on the grid, and then the running-supremum
        envelope is used and a warning is emitted.  A lam at or below the
        target's limit at s -> 0 gives 0, the set then holding every s > 0;
        that limit is 1/int_0^inf w at alpha = 1 and 0 above (and is taken
        as 0 below alpha = 1).  A lam that s^alpha/phi(s) does not reach at a
        supported s raises RangeError.
        """
        if alpha <= 0.0:
            raise DomainError("bar_phi_alpha requires alpha > 0")
        lam = float(lam)
        if lam < 0.0:
            raise DomainError("bar_phi_alpha requires lam >= 0")
        # lim_{s -> 0} s^alpha/phi(s); phi(s)/s rises to int_0^inf w as s -> 0
        if lam <= (1.0 / self.kernel.moment(0, math.inf) if alpha == 1.0 else 0.0):
            return 0.0
        # solved in logs, where s^alpha neither underflows nor overflows
        log_lam = math.log(lam)
        if alpha < 1.0:
            log_g = alpha * np.log(self.lam_grid) - np.log(self.phi_grid)
            if np.any(np.diff(log_g) < 0.0):
                warnings.warn(
                    "s^alpha/phi(s) is not monotone for alpha=%g; using its running-supremum "
                    "envelope" % alpha,
                    RuntimeWarning,
                )
                env = np.maximum.accumulate(log_g)
                j = int(np.searchsorted(env, log_lam))
                if j == 0:
                    return float(self.lam_grid[0])
                if j >= len(env):
                    raise RangeError("lam=%g above the envelope range of the grid" % lam,
                                     bracket=None)
                return float(self.lam_grid[j])

        def g(s):
            try:
                phi = self.phi(s)
            except DomainError as exc:  # s beyond the kernel's supported lambda
                raise RangeError("lam=%g not reached by s^alpha/phi(s) at supported s" % lam) from exc
            return alpha * math.log(s) - math.log(phi) - log_lam

        return self._root(g)

    # -- comparability evidence ----------------------------------------------

    def phiHw_brackets(self):
        """Achieved ratio brackets for phi and H against the truncated moments.

        Returns min/max over the grid of phi(l)/(l * int_0^{1/l} w) and
        H(l)/(l^2 * int_0^{1/l} u w(u) du); the moment integrals are exact.
        """
        m0 = self.kernel.moment(0, 1.0 / self.lam_grid)
        m1 = self.kernel.moment(1, 1.0 / self.lam_grid)
        r_phi = self.phi_grid / (self.lam_grid * m0)
        r_H = self.H_grid / (self.lam_grid**2 * m1)
        return {
            "phi": (float(np.min(r_phi)), float(np.max(r_phi))),
            "H": (float(np.min(r_H)), float(np.max(r_H))),
        }


# ---------------------------------------------------------------------------
# Variational quantities M(t,l) and N(t,l)
# ---------------------------------------------------------------------------


def calM(alpha, t, l):
    """M(t,l) = sup_{s>0} { l/s - t/Phi(s) } for the power shape Phi(s) = s^alpha.

    For alpha > 1 the sup sits at s* = (alpha t/l)^{1/(alpha-1)}, so
    M = (1 - 1/alpha) l (l/(alpha t))^{1/(alpha-1)}, and M(t,0) = 0.  t and
    l may be arrays, which broadcast; all-scalar arguments return a float.
    """
    if not 1.0 < alpha < math.inf:
        raise DomainError("M(t,l) requires a power shape s^alpha with alpha > 1")
    t, l = np.asarray(t, dtype=float), np.asarray(l, dtype=float)
    # reductions without temporaries; a NaN propagates through min and max and fails
    if not (t.min(initial=math.inf) > 0.0 and l.min(initial=0.0) >= 0.0
            and max(t.max(initial=0.0), l.max(initial=0.0)) < math.inf):
        raise DomainError("M(t,l) requires finite t > 0 and l >= 0")
    M = (1.0 - 1.0 / alpha) * l * (l / (alpha * t)) ** (1.0 / (alpha - 1.0))
    return float(M) if M.ndim == 0 else M


def calN(table, alpha, t, l):
    """N(t,l) = sup_{s>0} { l/s - t phi^{-1}(1/Phi(s)) } for the power shape
    Phi(s) = s^alpha with alpha > 1, from the table.

    With lam = phi^{-1}(1/Phi(s)) it is sup_lam { l phi(lam)^{1/alpha} - t lam },
    whose objective is concave (phi is a Bernstein function and alpha > 1),
    so the sup sits at the root of the increasing
    h(lam) = log(t alpha/l) + (1 - 1/alpha) log phi(lam) - log phi'(lam).
    t and l broadcast as in calM; each (t, l) is one of the table's root
    searches (``_root_steps``), all in ``_lockstep``, a round one ``_values``
    call, so an entry has its scalar call's bits and no grid is built.
    """
    if not 1.0 < alpha < math.inf:
        raise DomainError("N(t,l) requires a power shape s^alpha with alpha > 1")
    t, l = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(l, dtype=float))
    ts, ls = t.ravel().tolist(), l.ravel().tolist()
    if not all(0.0 < v < math.inf for v in ts + ls):
        raise DomainError("N(t,l) requires finite t, l > 0")
    c = 1.0 - 1.0 / alpha

    def h(lams, idx):
        try:
            return [math.log(ts[i] * alpha / ls[i]) + c * math.log(v[0]) - math.log(v[2])
                    for v, i in zip(table._values(lams), idx)]
        except (ArithmeticError, ValueError) as exc:  # unsupported lambda, log of 0
            # named for idx[0]: a failing round is asked again problem by problem
            raise RangeError("the search for N(t,l) left the float range at t=%r, l=%r"
                             % (ts[idx[0]], ls[idx[0]]), bracket=None) from exc

    lams = _lockstep(table._root_steps, len(ts), h)
    N = [v * p[0] ** (1.0 / alpha) - u * x for u, v, x, p in zip(ts, ls, lams, table._values(lams))]
    N = np.array(N).reshape(t.shape)
    return float(N) if N.ndim == 0 else N
