"""Monte Carlo simulation of the driftless subordinator S.

S has Levy measure -dw and no drift or Gaussian part.  Jumps larger than a
cutoff eps form a compound Poisson process with rate w(eps) and jump-size law
P(J > s) = w(s)/w(eps), each jump drawn from one uniform u by
``kernels.jump_sizes``: by inverse transform, or for a sum of Caputo terms
(``DistributedOrder``) by composition, the term whose slice of [0, w(eps))
holds w(eps) u inverting its own power in closed form.  Jumps below eps are
replaced by their mean drift

    d_eps = int_0^eps s (-dw(s)) = M_0(eps) - eps w(eps),

which is exact from the kernel's closed-form truncated moments.  What remains
is the bias of replacing the sub-eps jumps by their mean; it shrinks with
eps, and halving eps must move a tail estimate by no more than its noise.

``sample_S_at`` draws S_r at one clock value r as a flat ``PathEnsemble``.
``sample_E_t`` draws the inverse subordinator E_t = inf{ r > 0 : S_r > t }
by walking the jump epochs in the r-clock until the running sum plus drift
crosses t; a crossing inside a jump-free drift segment is resolved
analytically, so E_t carries no time-discretization error.  At one level t
it returns a flat ensemble; given an array of levels it walks each path once,
to the largest level, and reads every level's first passage from that one
path, so the levels share paths as E_t of one S does, and the largest
level's row is the one-level walk's bit for bit.

``sample_S_tilted`` draws S_r for one rare event {S_r >= t} under an
exponentially tilted law (Asmussen & Glynn, *Stochastic Simulation*, 2007,
ch. VI), for kernels with bounded support and no atoms.  With

    kappa(theta) = r int_eps^end (e^{theta s} - 1) nu(ds),

the jumps above eps form a Poisson process of intensity r e^{theta s} nu(ds),
theta = theta* solving the saddle-point equation kappa'(theta) + r d_eps = t,
and each path carries the likelihood ratio exp(kappa(theta) - theta sum J).
The tilted jumps are drawn by thinning (Lewis & Shedler 1979): (eps, end] is
cut into geometric cells, each so narrow that |theta| times its width is at
most ln 2; a proposal from nu on a cell (``kernel.w_inv`` of a uniform
between w at its ends) is kept with probability e^{theta (s - top)}, top the
cell end where e^{theta s} is largest, so at most half the proposals are
lost.  A proposal's cell is np.searchsorted's, found at a fifth of its cost
by a guide table (Chen & Asau 1974; ``_cell_finder``): bin k = floor(v K/rate)
of K = 64 x cells starts at the cell of (k - 1) rate/K, below v's since
rounding moves v's bin by far less than one, and steps forward while v
reaches the cell's end.  Both integrals of kappa are checked quadratures.

``exact_stable_sampler`` draws S_r for the pure stable exponent
phi(lambda) = lambda^beta by Kanter's method and is used only to validate
the compound-Poisson approximation; ``stable_half_upper_cdf`` and
``_lower_cdf`` give the beta = 1/2 tails in closed form, with
``special``'s erf and erfc.

Reproducibility: all randomness flows from an integer seed through one key
constructor, ``_rng(seed, stream)``, which keys a counter-based Philox
generator by (seed mod 2^64, stream): stream 1 serves S_r, 2 serves E_t, 3
the exact sampler and 4 the tilted S_r.  Both S_r samplers draw all Poisson
jump counts first, then the per-jump uniforms in path order, consumed in
blocks of whole paths of at most ``_JUMP_BLOCK`` = 2^15 jumps (a path with
more gets a block of its own); the counts' buffer becomes the running jump
offsets.  Traced peaks at 10^6 paths (tracemalloc, numpy 2.4):
``sample_S_at`` holds 16 bytes a path, the offsets and then the sums, plus
under 2 MiB of block temporaries whatever the jump count (17.4-18.0 MB);
``sample_S_tilted`` with a weighted ``tail_estimate`` of it 25 bytes a
path, for the values, the weights, the estimate's x and its hit mask
(25.0 MB); ``sample_E_t`` 117 bytes a path at one level and ~17.5 more per
further level, for its walk's arrays (117 MB; 381 MB at 16 levels).
``sample_S_at`` sums each path's jumps pairwise (np.add.reduceat), several
times faster than a sum in order and at least as accurate (Higham, SIAM
J. Sci. Comput. 14, 1993); its sums are read only against a level t, and
on criterion 3's grid they split the paths as exactly rounded sums do.
``sample_S_tilted`` sums them one at a time in path order (np.bincount):
its sums enter the likelihood ratio exp(kappa - theta sum J), whose last
bits the golden report's criterion 5 numbers keep.  Either way a path's sum
is reduced alone, in an order set by its jump count only, so the block
size, the memory alignment and the CPU's vector extensions move no bit of
it; with Philox's stream the same in any blocks, identical configs give
bit-identical ensembles, and any integer seed works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinTable, increasing_root
from .errors import DomainError, RangeError
from .kernels import inverse_w_vec, jump_sizes
from .quadrature import checked_panels, graded_edges
from .special import erf, erfc

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "TailEstimate",
    "sample_S_at",
    "sample_S_tilted",
    "cumulant",
    "saddle_point",
    "tail_estimate",
    "sample_E_t",
    "exact_stable_sampler",
    "stable_half_upper_cdf",
    "stable_half_lower_cdf",
]

_MAX_EXPECTED_JUMPS = 4e8  # across all paths; beyond this, ask for a larger eps
# per path of an E_t walk: it makes one numpy round per jump of its longest path,
# which the total does not bound when paths are few (3.9 s CPU at 5e4 per path
# for 1/2-Caputo at eps 1e-2 and 100 paths on a 2-CPU x86 host)
_MAX_WALK_JUMPS = 1e5
_MAX_PATHS = 10**7  # paths of one ensemble (SimConfig's docstring gives the bytes)
_JUMP_BLOCK = 1 << 15  # jumps held at once by an S_r sampler, unless one path has more
_KAPPA_RTOL = 1e-12  # target of the two checked integrals of kappa


@dataclass(frozen=True)
class SimConfig:
    """Compound-Poisson simulation parameters with RNG provenance.

    n_paths runs from 100 to _MAX_PATHS = 10^7, a cap set by memory: an S_r
    ensemble and its tail estimate hold 16-25 bytes a path, ~250 MB at the
    cap, and a one-level E_t walk ~117 bytes a path and ~17 more per further
    level, ~1.2 GB.  A larger count is refused here, before any array is made.
    """

    cutoff_eps: float
    n_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not self.cutoff_eps > 0.0:
            raise DomainError("cutoff_eps must be positive")
        if self.n_paths < 100:
            raise DomainError("n_paths must be at least 100")
        if self.n_paths > _MAX_PATHS:
            raise DomainError("n_paths=%d is above the cap of %.0e paths of one ensemble"
                              % (self.n_paths, _MAX_PATHS))


def _rng(seed, stream):
    """The Philox generator keyed by (seed mod 2^64, stream)."""
    key = (np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF), np.uint64(stream))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PathEnsemble:
    """Per-path samples: S_r at the clock value r, or E_t at the level t.  A
    multi-level E_t ensemble has an array ``level`` and one row of
    ``values``/``censored`` per level (levels x paths).  For E_t,
    ``censored`` flags the paths that had not crossed within the r-budget;
    they hold the budget and are flagged, not dropped.  A tilted S_r
    ensemble carries each path's likelihood ratio in ``weights``.
    """

    level: float | np.ndarray
    values: np.ndarray
    censored: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def n_paths(self):
        return self.values.shape[-1]

    def row(self, i):
        """The one-level E_t ensemble of level i of a multi-level one; its
        arrays are views of this ensemble's rows."""
        return PathEnsemble(level=float(self.level[i]), values=self.values[i], censored=self.censored[i])


@dataclass
class TailEstimate:
    """Estimate of one tail probability: binomial, or a weighted mean."""

    p_hat: float
    se: float
    n_paths: int
    diagnostic: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0 and self.se >= 0.0):
            raise DomainError("tail estimate %g +- %g is not a probability" % (self.p_hat, self.se))


def _drift_rate(kernel, eps):
    return kernel.moment(0, eps) - eps * float(kernel.w(eps))


def _path_sums(counts, draw, in_order=False):
    """Per path i, the sum of its counts[i] values of ``draw(m)``, which
    returns the next m per-jump values in path order; drawn in blocks of
    whole paths of at most _JUMP_BLOCK jumps, at least one path each.
    ``counts`` is consumed: its buffer becomes the running jump offsets.

    Each path's values are summed pairwise by one np.add.reduceat per block,
    over the block's non-empty paths only (reduceat gives values[i], not 0,
    for an empty segment); with ``in_order``, one at a time in path order by
    np.bincount, the sum ``sample_S_tilted`` keeps (module docstring).
    Either way a path's sum depends on its own values alone, not on the
    block it lands in, the memory alignment of its values or the CPU's
    vector extensions.  A block's temporaries grow with its jumps, and with
    its paths by one byte each, however few jumps they have.
    """
    n = counts.size
    ends = np.cumsum(counts, out=counts)  # jump offset after each path
    sums = np.zeros(n)
    lo = start = 0
    while lo < n:
        hi = max(int(np.searchsorted(ends, start + _JUMP_BLOCK, side="right")), lo + 1)
        stop = int(ends[hi - 1])
        values = draw(stop - start)  # before the path indices, so their temporaries never coexist
        block = ends[lo:hi]
        grew = np.empty(hi - lo, dtype=bool)  # the non-empty paths: each ends past the one before
        grew[0] = block[0] > start
        np.greater(block[1:], block[:-1], out=grew[1:])
        full = np.flatnonzero(grew)
        first = block.take(full - 1) - start  # where each one's jumps start in values,
        first[:1] = 0  # the first one's at 0 (take wrapped its index -1)
        if in_order:
            path_idx = np.repeat(full, np.diff(first, append=stop - start))
            sums[lo:hi] = np.bincount(path_idx, weights=values, minlength=hi - lo)
        else:
            sums[lo + full] = np.add.reduceat(values, first)
        lo, start = hi, stop
    return sums


def _check_jump_budget(config, rate):
    if config.n_paths * rate > _MAX_EXPECTED_JUMPS:
        raise DomainError(
            "expected %.2g jumps for eps=%g; raise cutoff_eps (never silently truncates)"
            % (config.n_paths * rate, config.cutoff_eps)
        )


def sample_S_at(kernel, config, r):
    """Sample S at one clock value r > 0.

    Poisson(r w(eps)) jumps per path with sizes drawn by ``jump_sizes``;
    the sub-eps activity adds the deterministic drift d_eps per unit clock.
    Holds 16 bytes a path and a block's temporaries (module docstring).
    """
    if not r > 0.0:
        raise DomainError("the clock value must be positive")
    r = float(r)
    eps = config.cutoff_eps
    end = kernel.support_end
    if math.isfinite(end) and eps >= end:
        raise DomainError("cutoff_eps=%g is outside the kernel support (0, %g)" % (eps, end))
    w_eps = float(kernel.w(eps))
    if not math.isfinite(w_eps):
        raise DomainError("w(eps) overflowed; raise cutoff_eps")
    _check_jump_budget(config, r * w_eps)
    rng = _rng(config.seed, 1)
    draw = jump_sizes(kernel, eps, w_eps)
    values = _path_sums(rng.poisson(r * w_eps, size=config.n_paths), lambda m: draw(rng.random(m)))
    values += _drift_rate(kernel, eps) * r
    return PathEnsemble(level=r, values=values)


def _tiltable_support(kernel, eps):
    """The support end of a kernel whose jumps above eps can be tilted."""
    end = kernel.support_end
    if not math.isfinite(end) or kernel.atoms():
        raise DomainError(
            "exponential tilting needs a kernel with finite support and no atoms; "
            "%s has support end %g and atoms %r" % (type(kernel).__name__, end, kernel.atoms())
        )
    if eps >= end:
        raise DomainError("cutoff_eps=%g is outside the kernel support (0, %g)" % (eps, end))
    return end


def cumulant(kernel, eps, r, theta):
    """(kappa(theta), kappa'(theta)) of the jumps above eps over clock r:
    r int (e^{theta s} - 1) nu(ds) and r int s e^{theta s} nu(ds) on
    (eps, end], each a checked quadrature (QuadratureError on a miss)."""
    end = _tiltable_support(kernel, eps)
    edges = graded_edges(eps, eps, end, kernel.breakpoints())
    kappa = checked_panels("kappa", lambda s: np.expm1(theta * s) * kernel.nu(s), edges, _KAPPA_RTOL)
    slope = checked_panels("kappa'", lambda s: s * np.exp(theta * s) * kernel.nu(s), edges, _KAPPA_RTOL)
    return r * kappa, r * slope


def saddle_point(kernel, eps, r, t):
    """theta* solving kappa'(theta) + r d_eps = t, by a bracketed search.

    kappa' increases from 0 (theta -> -inf) to inf, so a root exists iff t
    exceeds the drift r d_eps; otherwise DomainError.  The search runs in
    x = e^{theta end} > 0, from the bracket [1, 16] moved by x16 at most 200
    times; a t so near the drift that theta* < -200 ln 16/end raises RangeError.
    """
    end = _tiltable_support(kernel, eps)
    target = t - r * _drift_rate(kernel, eps)
    if not target > 0.0:
        raise DomainError("t=%g is at or below the drift r d_eps=%g" % (t, t - target))
    g = lambda x: cumulant(kernel, eps, r, math.log(x) / end)[1] - target
    try:
        return math.log(increasing_root(g, 1.0, 16.0)) / end
    except RangeError as exc:
        raise RangeError("no saddle point for t=%g above the drift r d_eps=%g; smallest theta tried %g"
                         % (t, t - target, math.log(exc.bracket[0]) / end)) from exc


def _cell_finder(cum):
    """v -> min(np.searchsorted(cum, v, side="right"), cum.size - 1) for arrays
    v in [0, cum[-1]], cum non-decreasing, by a guide table (module docstring)."""
    bins, ends = 64 * cum.size, np.append(cum[:-1], np.inf)
    guide = np.searchsorted(ends, np.arange(-1, bins) * (cum[-1] / bins), side="right")

    def find(v):
        cell = guide[(v * (bins / cum[-1])).astype(np.intp)]
        up = np.flatnonzero(v >= ends[cell])
        while up.size:
            cell[up] += 1
            up = up[v[up] >= ends[cell[up]]]
        return cell

    return find


def sample_S_tilted(kernel, config, r, t):
    """Sample S_r under the law tilted towards {S_r >= t}, with weights.

    theta = ``saddle_point``; the jumps above eps are Poisson with intensity
    r e^{theta s} nu(ds), drawn by thinning proposals cell by cell (see the
    module docstring), and path i has weight exp(kappa(theta) - theta J_i),
    J_i its jump sum, so mean(weight * 1{S >= t}) estimates P(S_r >= t)
    without bias.  DomainError unless the kernel has finite support and no
    atoms.  The weights and then the values are formed in place, so the
    sampler and a weighted ``tail_estimate`` of its ensemble hold 25 bytes a
    path (8 each for the values, the weights and the estimate's x, 1 for
    its hit mask) and a block's temporaries.
    """
    if not r > 0.0:
        raise DomainError("the clock value must be positive")
    r, t = float(r), float(t)
    eps = config.cutoff_eps
    end = _tiltable_support(kernel, eps)
    theta = saddle_point(kernel, eps, r, t)
    kappa, _ = cumulant(kernel, eps, r, theta)
    # octaves of (eps, end], each cut into equal cells with |theta| width <= ln 2
    octaves = np.geomspace(eps, end, max(1, math.ceil(math.log2(end / eps))) + 1)
    cuts = np.ceil(abs(theta) * np.diff(octaves) / math.log(2.0)).clip(1).astype(int)
    lo = np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b, k in zip(octaves, octaves[1:], cuts)])
    hi = np.append(lo[1:], end)
    top = hi if theta >= 0.0 else lo
    w_lo, w_hi = kernel.w(lo), kernel.w(hi)
    env = r * np.exp(theta * top) * (w_lo - w_hi)  # proposal rate of each cell
    cum = np.cumsum(env)
    rate = float(cum[-1])
    dw = (w_lo - w_hi) / env  # w per unit of envelope mass, per cell
    _check_jump_budget(config, rate)
    rng = _rng(config.seed, 4)
    cell_of = _cell_finder(cum)

    def draw(m):
        v, u = rng.random((m, 2)).T  # a jump's two uniforms are adjacent draws
        v = v * rate
        cell = cell_of(v)
        # v's place in its cell's envelope mass, mapped onto [w(hi), w(lo)]
        s = inverse_w_vec(kernel, w_hi[cell] + (cum[cell] - v) * dw[cell])
        s[u >= np.exp(theta * (s - top[cell]))] = 0.0  # thinned out
        return s

    jumps = _path_sums(rng.poisson(rate, size=config.n_paths), draw, in_order=True)
    # exp(kappa - theta J) and J + r d_eps, each formed in its one array
    weights = np.multiply(theta, jumps)
    np.exp(np.subtract(kappa, weights, out=weights), out=weights)
    values = np.add(jumps, _drift_rate(kernel, eps) * r, out=jumps)
    return PathEnsemble(level=r, values=values, weights=weights)


def tail_estimate(kernel, ens, t, side):
    """Estimate of P(S_r >= t) (side "upper") or P(S_r <= t) ("lower") from
    an S_r ensemble, r = ens.level: binomial, or for a weighted ensemble the
    mean of weight * 1{hit} with se its sample sd / sqrt(n), the bits of
    np.std(ddof=1) with one n-long array in place of its two."""
    if t <= 0.0:
        raise DomainError("a tail estimate requires t > 0")
    if side not in ("upper", "lower"):
        raise DomainError("side must be 'upper' or 'lower', not %r" % (side,))
    col = ens.values
    hit = col >= t if side == "upper" else col <= t
    n = ens.n_paths
    if ens.weights is not None:
        x = np.where(hit, ens.weights, 0.0)
        diag = None if hit.any() else "no tilted path reached the tail"
        p_hat = float(np.mean(x))
        # np.std(x, ddof=1) bit for bit, with x's buffer holding (x - mean)^2
        np.subtract(x, p_hat, out=x)
        sd = math.sqrt(float(np.sum(np.multiply(x, x, out=x))) / (n - 1))
        return TailEstimate(p_hat=p_hat, se=sd / math.sqrt(n), n_paths=n, diagnostic=diag)
    hits = int(np.count_nonzero(hit))
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    diag = None
    if hits == 0 and side == "lower":
        diag = "insufficient paths for the lower tail at this (r, t)"
    elif hits == 0:
        expected = min(1.0, ens.level * float(kernel.w(t)))
        want = 10.0 / max(expected, 1e-300)
        if expected <= 0.0 or n < want:
            diag = "insufficient paths: structural expectation ~%.3g wants >= %.3g paths" % (expected, want)
    return TailEstimate(p_hat=p, se=se, n_paths=n, diagnostic=diag)


def sample_E_t(kernel, config, t):
    """Sample the inverse subordinator at a level t > 0, or at each level of
    a 1-D array t.

    Walks the compound-Poisson jumps in the r-clock; a crossing inside a
    drift segment is resolved analytically, a crossing by a jump happens at
    the jump's epoch.  The walk carries each path until it crosses the
    largest level t_max; a step takes its path across the levels in
    (S before, S after], found by np.searchsorted on the sorted distinct
    levels.  Paths that have not crossed a level within r <= 1e6/phi(1/t_max)
    are censored there at that one budget and flagged; phi increases, so it
    is no level's own 1e6/phi(1/t) below.  A walk whose paths expect more
    than _MAX_EXPECTED_JUMPS jumps in all, or more than _MAX_WALK_JUMPS each,
    is refused.  phi(1/t_max) is the table's evaluator's, its one call, so a
    t_max whose 1/t_max it does not support is refused with its DomainError
    before the walk.  An array t gives ``level`` = t and (levels x paths)
    ``values``/``censored`` in the order of t; ``PathEnsemble.row`` hands
    out one level's row.
    """
    levels = np.asarray(t, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise DomainError("the levels must be one number or a non-empty 1-D array")
    if not np.all((levels > 0.0) & (levels < math.inf)):
        raise DomainError("the level must be a positive finite number")
    tops, row_of = np.unique(levels, return_inverse=True)
    t_max = float(tops[-1])
    eps = config.cutoff_eps
    w_eps = float(kernel.w(eps))
    if w_eps <= 0.0 or not math.isfinite(w_eps):
        raise DomainError("kernel has no jump activity above eps=%g" % eps)
    phi_t = BernsteinTable(kernel).phi(1.0 / t_max)
    # a path walks ~ w(eps) E_t jumps, with E_t of order 1/phi(1/t)
    per_path = w_eps / phi_t
    _check_jump_budget(config, per_path)
    if per_path > _MAX_WALK_JUMPS:
        raise DomainError("expected %.2g jumps per path for eps=%g; raise cutoff_eps" % (per_path, eps))
    budget = 1e6 / phi_t
    rng = _rng(config.seed, 2)
    n = config.n_paths
    drift = _drift_rate(kernel, eps)

    # the paths below t_max only: their index, running sum, clock and the
    # number of levels they have crossed
    idx = np.arange(n)
    S = np.zeros(n)
    clock = np.zeros(n)
    done = np.zeros(n, dtype=np.intp)
    E = np.full((tops.size, n), np.nan)
    draw = jump_sizes(kernel, eps, w_eps)
    while idx.size:
        k = idx.size
        gaps = rng.standard_exponential(k) / w_eps
        jumps = draw(rng.random(k))
        s_after_gap = S + drift * gaps if drift > 0.0 else S
        S_next = s_after_gap + jumps
        # jumps are >= 0, so a crossing inside the drift segment has S_next >= t too
        reached = np.searchsorted(tops, S_next, side="right")
        counts = reached - done
        hit = np.flatnonzero(counts)
        # one entry per (path, level) crossed in this step
        counts = counts[hit]
        at = np.repeat(hit, counts)
        lev = np.repeat(done[hit] - (np.cumsum(counts) - counts), counts) + np.arange(at.size)
        when = clock[at] + gaps[at]
        if drift > 0.0:  # without drift S < t: no path crosses before its jump
            t_at = tops[lev]
            by_drift = s_after_gap[at] >= t_at
            on = at[by_drift]
            when[by_drift] = clock[on] + (t_at[by_drift] - S[on]) / drift
        E[lev, idx[at]] = when
        clock = clock + gaps
        go_on = (reached < tops.size) & (clock < budget)
        idx, S, clock, done = idx[go_on], S_next[go_on], clock[go_on], reached[go_on]

    censored = np.isnan(E)
    E[censored] = budget
    if levels.ndim == 0:
        return PathEnsemble(level=float(levels), values=E[0], censored=censored[0])
    if not np.array_equal(levels, tops):
        E, censored = E[row_of], censored[row_of]
    return PathEnsemble(level=levels, values=E, censored=censored)


def exact_stable_sampler(beta, r, n_samples, seed=0):
    """Exact samples of S_r for the pure stable exponent phi(lam) = lam^beta.

    Kanter's representation: with U uniform on (0,1) and W standard
    exponential,

        A(u) = sin(beta pi u)^{beta/(1-beta)} sin((1-beta) pi u)
               / sin(pi u)^{1/(1-beta)},
        S_1  = (A(U)/W)^{(1-beta)/beta},

    and S_r = r^{1/beta} S_1 by stable scaling.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("exact stable sampler requires beta in (0,1)")
    if r <= 0.0:
        raise DomainError("clock value must be positive")
    rng = _rng(seed, 3)
    u = rng.uniform(1e-16, 1.0 - 1e-16, size=n_samples)
    w = rng.standard_exponential(n_samples)
    a = (
        np.sin(beta * np.pi * u) ** (beta / (1.0 - beta))
        * np.sin((1.0 - beta) * np.pi * u)
        / np.sin(np.pi * u) ** (1.0 / (1.0 - beta))
    )
    s1 = (a / w) ** ((1.0 - beta) / beta)
    return r ** (1.0 / beta) * s1


def stable_half_upper_cdf(r, t):
    """P(S_r >= t) = erf(r/(2 sqrt(t))) for the beta = 1/2 stable subordinator."""
    return erf(r / (2.0 * np.sqrt(t)))


def stable_half_lower_cdf(r, t):
    """P(S_r <= t) = erfc(r/(2 sqrt(t))) for the beta = 1/2 stable subordinator."""
    return erfc(r / (2.0 * np.sqrt(t)))
