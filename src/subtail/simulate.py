"""Monte Carlo simulation of the driftless subordinator S.

S has Levy measure -dw and no drift or Gaussian part.  Jumps larger than a
cutoff eps form a compound Poisson process with rate w(eps) and jump-size law
P(J > s) = w(s)/w(eps); jumps below eps are either discarded (a stochastic
lower bound for S_r) or compensated by their mean drift

    d_eps = int_0^eps s (-dw(s)) = M_0(eps) - eps w(eps),

which is exact from the kernel's closed-form truncated moments.  Halving eps
(``eps_refinement``) quantifies the residual bias; this convergence table is
the deliverable, not a proof.

The inverse subordinator E_t = inf{ r > 0 : S_r > t } is sampled by walking
the jump epochs in the r-clock until the running sum (plus drift) crosses the
level; a crossing inside a jump-free drift segment is resolved analytically,
so E_t carries no time-discretization error.

``exact_stable_sampler`` draws S_r for the pure stable exponent
phi(lambda) = lambda^beta by Kanter's method and is used only to validate
the compound-Poisson approximation.

Reproducibility: all randomness flows from SimConfig.seed through a
counter-based Philox generator, with per-ensemble draws made in fixed
path-major order, so identical configs give bit-identical ensembles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, erfc

from .errors import DomainError
from .kernels import inverse_w_vec

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "TailEstimate",
    "sample_S_at",
    "tail_estimate",
    "upper_tail_prob",
    "lower_tail_prob",
    "sample_E_t",
    "exact_stable_sampler",
    "eps_refinement",
    "stable_half_upper_cdf",
    "stable_half_lower_cdf",
]

_MAX_EXPECTED_JUMPS = 4e8  # across all paths; beyond this, ask for a larger eps


@dataclass(frozen=True)
class SimConfig:
    """Compound-Poisson simulation parameters with RNG provenance."""

    cutoff_eps: float
    n_paths: int = 100_000
    seed: int = 0
    compensate: bool = True

    def __post_init__(self):
        if not self.cutoff_eps > 0.0:
            raise DomainError("cutoff_eps must be positive")
        if self.n_paths < 100:
            raise DomainError("n_paths must be at least 100")

    def with_eps(self, eps):
        return replace(self, cutoff_eps=eps)

    def with_paths(self, n):
        return replace(self, n_paths=n)


def _rng(config, stream):
    key = (np.uint64(config.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PathEnsemble:
    """Per-path samples of S at clock values r, or crossing data at levels t.

    ``values`` has shape (n_paths, len(levels)); for crossing ensembles it
    holds E_t with the overshoot S_{E_t} - t alongside, and censored entries
    (crossing not reached within the r-budget) are flagged, not dropped.
    """

    kind: str  # "S_at_r" | "crossing"
    levels: np.ndarray
    values: np.ndarray
    seed: int
    cutoff_eps: float
    compensate: bool
    overshoot: np.ndarray | None = None
    censored: np.ndarray | None = None

    @property
    def n_paths(self):
        return self.values.shape[0]

    def column(self, j=0):
        return self.values[:, j]

    def quantiles(self, qs, j=0):
        col = self.values[:, j]
        if self.censored is not None and self.censored[:, j].any():
            col = col[~self.censored[:, j]]
        return np.quantile(col, qs)

    def summary(self, j=0):
        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        out = {
            "kind": self.kind,
            "level": float(self.levels[j]),
            "n_paths": int(self.n_paths),
            "seed": int(self.seed),
            "cutoff_eps": float(self.cutoff_eps),
            "compensate": bool(self.compensate),
            "mean": float(np.mean(self.values[:, j])),
            "quantiles": {str(q): float(v) for q, v in zip(qs, self.quantiles(qs, j))},
        }
        if self.censored is not None:
            out["censored"] = int(np.count_nonzero(self.censored[:, j]))
        return out

    def to_csv(self, path, j=0):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path_index,value\n")
            for i, v in enumerate(self.values[:, j]):
                fh.write("%d,%.17g\n" % (i, v))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([self.summary(j) for j in range(len(self.levels))], fh, indent=1,
                      sort_keys=True)
            fh.write("\n")


@dataclass
class TailEstimate:
    """Binomial estimate of one tail probability."""

    p_hat: float
    se: float
    n_paths: int
    regime: str = ""
    diagnostic: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0 and self.se >= 0.0):
            raise DomainError("tail estimate %g +- %g is not a probability" % (self.p_hat, self.se))


def _drift_rate(kernel, eps):
    return kernel.moment(0, eps) - eps * float(kernel.w(eps))


def sample_S_at(kernel, config, r):
    """Sample S at one clock value or a sorted array of clock values.

    Poisson(r_max * w(eps)) jumps with epochs uniform on [0, r_max] and sizes
    drawn by the inverse tail CDF; with ``compensate`` the sub-eps activity
    adds the deterministic drift d_eps per unit clock.  Without compensation
    the sample is stochastically below the true S_r.
    """
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rs <= 0.0) or np.any(np.diff(rs) < 0.0):
        raise DomainError("clock values must be positive and sorted")
    eps = config.cutoff_eps
    end = kernel.support_end
    if math.isfinite(end) and eps >= end:
        raise DomainError("cutoff_eps=%g is outside the kernel support (0, %g)" % (eps, end))
    w_eps = float(kernel.w(eps))
    if not math.isfinite(w_eps):
        raise DomainError("w(eps) overflowed; raise cutoff_eps")
    r_max = float(rs[-1])
    if config.n_paths * r_max * w_eps > _MAX_EXPECTED_JUMPS:
        raise DomainError(
            "expected %.2g jumps for eps=%g; raise cutoff_eps (never silently truncates)"
            % (config.n_paths * r_max * w_eps, eps)
        )
    rng = _rng(config, 1)
    n = config.n_paths
    counts = rng.poisson(r_max * w_eps, size=n)
    total = int(counts.sum())
    path_idx = np.repeat(np.arange(n), counts)
    drift = _drift_rate(kernel, eps) if config.compensate else 0.0
    vals = np.empty((n, len(rs)))
    if len(rs) == 1:
        # every jump lands before r_max; no need to draw epochs at all
        sizes = inverse_w_vec(kernel, w_eps * rng.uniform(0.0, 1.0, size=total))
        vals[:, 0] = np.bincount(path_idx, weights=sizes, minlength=n) + drift * r_max
    else:
        epochs = rng.uniform(0.0, r_max, size=total)
        sizes = inverse_w_vec(kernel, w_eps * rng.uniform(0.0, 1.0, size=total))
        for j, rj in enumerate(rs):
            contrib = np.where(epochs <= rj, sizes, 0.0)
            vals[:, j] = np.bincount(path_idx, weights=contrib, minlength=n) + drift * rj
    return PathEnsemble(
        kind="S_at_r",
        levels=rs,
        values=vals,
        seed=config.seed,
        cutoff_eps=eps,
        compensate=config.compensate,
    )


def tail_estimate(kernel, ens, t, side):
    """Binomial estimate of P(S_r >= t) (side "upper") or P(S_r <= t)
    ("lower") from the first column of an S_r ensemble, r = ens.levels[0]."""
    if t <= 0.0:
        raise DomainError("a tail estimate requires t > 0")
    col = ens.column(0)
    hits = int(np.count_nonzero(col >= t)) if side == "upper" else int(np.count_nonzero(col <= t))
    n = ens.n_paths
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    diag = None
    if hits == 0:
        expected = min(1.0, float(ens.levels[0]) * float(kernel.w(t))) if side == "upper" else None
        if expected is not None and (expected <= 0.0 or n < 10.0 / max(expected, 1e-300)):
            diag = (
                "insufficient paths: structural expectation ~%.3g wants >= %.3g paths"
                % (expected, 10.0 / max(expected, 1e-300))
            )
        elif expected is None:
            diag = "insufficient paths for the lower tail at this (r, t)"
    return TailEstimate(p_hat=p, se=se, n_paths=n, regime=side, diagnostic=diag)


def upper_tail_prob(kernel, config, r, t):
    """Estimate P(S_r >= t) with its binomial standard error."""
    if r <= 0.0 or t <= 0.0:
        raise DomainError("upper_tail_prob requires r, t > 0")
    return tail_estimate(kernel, sample_S_at(kernel, config, r), t, "upper")


def lower_tail_prob(kernel, config, r, t):
    """Estimate P(S_r <= t) with its binomial standard error."""
    if r <= 0.0 or t <= 0.0:
        raise DomainError("lower_tail_prob requires r, t > 0")
    return tail_estimate(kernel, sample_S_at(kernel, config, r), t, "lower")


def _phi_proxy(kernel, lam):
    # phi(lam) is comparable (within [1/4,4]-ish) to lam * int_0^{1/lam} w,
    # which is closed-form; good enough to size the censoring budget
    return lam * kernel.moment(0, 1.0 / lam)


def sample_E_t(kernel, config, t):
    """Sample the inverse subordinator at one level or a sorted array of levels.

    Walks the compound-Poisson jumps in the r-clock; with compensation on,
    crossings that happen inside a drift segment are resolved analytically
    (overshoot 0); jump crossings record the overshoot S_{E_t} - t.  Paths
    that have not crossed within r <= 1e6/phi(1/t_max) are censored at the
    budget and flagged.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0.0) or np.any(np.diff(ts) < 0.0):
        raise DomainError("levels must be positive and sorted")
    eps = config.cutoff_eps
    w_eps = float(kernel.w(eps))
    if w_eps <= 0.0 or not math.isfinite(w_eps):
        raise DomainError("kernel has no jump activity above eps=%g" % eps)
    t_max = float(ts[-1])
    budget = 1e6 / _phi_proxy(kernel, 1.0 / t_max)
    rng = _rng(config, 2)
    n, m = config.n_paths, len(ts)
    drift = _drift_rate(kernel, eps) if config.compensate else 0.0

    S = np.zeros(n)
    clock = np.zeros(n)
    E = np.full((n, m), np.nan)
    over = np.zeros((n, m))
    active = np.arange(n)
    while active.size:
        k = active.size
        gaps = rng.standard_exponential(k) / w_eps
        jumps = inverse_w_vec(kernel, w_eps * rng.uniform(0.0, 1.0, size=k))
        s_a, c_a = S[active], clock[active]
        if drift > 0.0:
            s_after_gap = s_a + drift * gaps
        else:
            s_after_gap = s_a
        for j, tj in enumerate(ts):
            col = E[active, j]
            todo = np.isnan(col)
            if drift > 0.0:
                drift_cross = todo & (s_after_gap >= tj)
                if drift_cross.any():
                    idx = active[drift_cross]
                    E[idx, j] = clock[idx] + (tj - S[idx]) / drift
                    over[idx, j] = 0.0
                todo = todo & ~drift_cross
            jump_cross = todo & (s_after_gap + jumps >= tj)
            if jump_cross.any():
                idx = active[jump_cross]
                E[idx, j] = c_a[jump_cross] + gaps[jump_cross]
                over[idx, j] = s_after_gap[jump_cross] + jumps[jump_cross] - tj
        S[active] = s_after_gap + jumps
        clock[active] = c_a + gaps
        still = np.isnan(E[active, m - 1]) & (clock[active] < budget)
        active = active[still]

    censored = np.isnan(E)
    E = np.where(censored, budget, E)
    return PathEnsemble(
        kind="crossing",
        levels=ts,
        values=E,
        seed=config.seed,
        cutoff_eps=eps,
        compensate=config.compensate,
        overshoot=over,
        censored=censored,
    )


def exact_stable_sampler(beta, r, n_samples=1, seed=0, rng=None):
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
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(3))))
    u = rng.uniform(1e-16, 1.0 - 1e-16, size=n_samples)
    w = rng.standard_exponential(n_samples)
    a = (
        np.sin(beta * np.pi * u) ** (beta / (1.0 - beta))
        * np.sin((1.0 - beta) * np.pi * u)
        / np.sin(np.pi * u) ** (1.0 / (1.0 - beta))
    )
    s1 = (a / w) ** ((1.0 - beta) / beta)
    out = r ** (1.0 / beta) * s1
    return float(out[0]) if n_samples == 1 else out


def eps_refinement(kernel, config, r, t, steps, side="upper"):
    """Convergence table: the tail estimate under ``steps`` eps-halvings."""
    rows = []
    eps = config.cutoff_eps
    for _ in range(steps + 1):
        est = tail_estimate(kernel, sample_S_at(kernel, config.with_eps(eps), r), t, side)
        rows.append({"cutoff_eps": eps, "p_hat": est.p_hat, "se": est.se})
        eps *= 0.5
    return rows


def stable_half_upper_cdf(r, t):
    """P(S_r >= t) = erf(r/(2 sqrt(t))) for the beta = 1/2 stable subordinator."""
    return erf(r / (2.0 * np.sqrt(t)))


def stable_half_lower_cdf(r, t):
    """P(S_r <= t) = erfc(r/(2 sqrt(t))) for the beta = 1/2 stable subordinator."""
    return erfc(r / (2.0 * np.sqrt(t)))
