import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfinv

from subtail import simulate
from subtail.bernstein import BernsteinTable
from subtail.errors import DomainError, RangeError
from subtail.golden import builtin_kernel_set
from subtail.kernels import (DistributedOrder, Subexp, Tabulated, Truncated, caputo, inverse_w_vec,
                             jump_sizes)
from subtail.simulate import (
    SimConfig,
    TailEstimate,
    cumulant,
    exact_stable_sampler,
    saddle_point,
    sample_E_t,
    sample_S_at,
    sample_S_tilted,
    stable_half_lower_cdf,
    stable_half_upper_cdf,
    tail_estimate,
)

CFG = SimConfig(cutoff_eps=1e-3, n_paths=50_000, seed=20240517)


class TestSampleS:
    def test_truncated_tiny_r_is_drift_only(self):
        # P(no jump) = exp(-r w(eps)) -> 1, so S_r -> r*d_eps
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        cfg = SimConfig(cutoff_eps=0.01, n_paths=2000, seed=5)
        r = 1e-7
        ens = sample_S_at(k, cfg, r)
        d_eps = k.moment(0, 0.01) - 0.01 * float(k.w(0.01))
        no_jump = ens.values == pytest.approx(r * d_eps, rel=1e-12)
        assert np.mean(no_jump) > 1.0 - 2.0 * r * float(k.w(0.01)) - 1e-3

    def test_stable_ks_against_closed_form(self):
        k = caputo(0.5)
        ens = sample_S_at(k, SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=11), 2.0)
        x = np.sort(ens.values)
        cdf = stable_half_lower_cdf(2.0, x)
        ks = np.max(np.abs(cdf - np.arange(1, len(x) + 1) / len(x)))
        assert ks < 1.628 / math.sqrt(len(x))  # 99% KS band

    def test_truncated_mean(self):
        # E S_r = r * int_0^{t_f} s nu(ds) = r * moment(0, t_f) by parts
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=3)
        r = 0.7
        ens = sample_S_at(k, cfg, r)
        want = r * k.moment(0, 1.0)
        got = float(np.mean(ens.values))
        se = float(np.std(ens.values)) / math.sqrt(ens.n_paths)
        assert abs(got - want) < 4.0 * se

    def test_eps_overflow_guard(self):
        k = caputo(0.9)
        with pytest.raises(DomainError, match="cutoff_eps"):
            sample_S_at(k, SimConfig(cutoff_eps=1e-12, n_paths=100_000, seed=1), 10.0)

    def test_determinism(self):
        k = caputo(0.5)
        a = sample_S_at(k, CFG, 1.0).values
        b = sample_S_at(k, CFG, 1.0).values
        assert np.array_equal(a, b)

    def test_distributed_jumps_need_no_newton_inverse(self, monkeypatch):
        # both samplers draw a Caputo mixture's jumps term by term
        def no_newton(self, y):
            raise AssertionError("DistributedOrder.w_inv called")

        monkeypatch.setattr(DistributedOrder, "w_inv", no_newton)
        k = builtin_kernel_set()["distributed"]
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=500, seed=9)
        assert np.all(sample_S_at(k, cfg, 2.0).values > 0.0)
        ens = sample_E_t(k, cfg, np.array([0.3, 1.0, 3.0]))
        assert ens.values.shape == (3, 500) and not ens.censored.any()


class TestTailProbs:
    def test_stable_upper_lower(self):
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=7)
        ens = sample_S_at(k, cfg, 2.0)
        up, lo = (tail_estimate(k, ens, 1.0, side) for side in ("upper", "lower"))
        assert abs(up.p_hat - stable_half_upper_cdf(2.0, 1.0)) < 3.0 * up.se
        assert abs(lo.p_hat - stable_half_lower_cdf(2.0, 1.0)) < 3.0 * lo.se

    def test_upper_plus_lower_is_one(self):
        k = caputo(0.5)
        ens = sample_S_at(k, CFG, 1.3)
        up, lo = (tail_estimate(k, ens, 0.9, side) for side in ("upper", "lower"))
        pooled = math.hypot(up.se, lo.se)
        assert abs(up.p_hat + lo.p_hat - 1.0) <= 3.0 * pooled + 1e-12

    def test_tiny_t_gives_probability_one(self):
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-6, n_paths=1000, seed=2)
        assert tail_estimate(k, sample_S_at(k, cfg, 1.0), 1e-9, "upper").p_hat == 1.0

    def test_insufficient_paths_diagnostic(self):
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=1000, seed=2)
        # expectation ~ r w(50) ~ 8e-9
        est = tail_estimate(k, sample_S_at(k, cfg, 1e-7), 50.0, "upper")
        assert est.p_hat == 0.0
        assert est.diagnostic is not None and "insufficient paths" in est.diagnostic

    def test_small_path_counts_give_estimates(self):
        # p_hat - 6 se falls below 0 here, which is no reason to refuse them
        k = caputo(0.5)
        for n in (100, 400):
            ens = sample_S_at(k, SimConfig(cutoff_eps=1e-3, n_paths=n, seed=3), 0.5)
            for t in (5.0, 10.0, 20.0, 40.0, 80.0):
                est = tail_estimate(k, ens, t, "upper")
                assert 0.0 <= est.p_hat <= 1.0 and est.se > 0.0, (n, t)
                assert abs(est.p_hat - stable_half_upper_cdf(0.5, t)) <= 4.0 * est.se, (n, t)
        with pytest.raises(DomainError):
            TailEstimate(p_hat=0.5, se=-0.1, n_paths=100)

    def test_eps_refinement_stable(self):
        # halving the cutoff moves the estimate by no more than its noise
        k = caputo(0.5)
        rows = []
        for i in range(3):
            cfg = SimConfig(cutoff_eps=2e-3 * 0.5**i, n_paths=50_000, seed=9)
            rows.append(tail_estimate(k, sample_S_at(k, cfg, 2.0), 1.0, "upper"))
        for a, b in zip(rows[:-1], rows[1:]):
            pooled = math.hypot(a.se, b.se)
            assert abs(a.p_hat - b.p_hat) <= 3.0 * pooled


class TestSampleEt:
    def test_consistency_with_upper_tail(self):
        # empirical P(E_t <= r) must match P(S_r >= t) within pooled MC error
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=50_000, seed=13)
        t = 1.0
        ens = sample_E_t(k, cfg, t)
        for r in np.linspace(0.3, 3.0, 10):
            p_e = float(np.mean(ens.values <= r))
            up = tail_estimate(k, sample_S_at(k, cfg, r), t, "upper")
            pooled = math.hypot(math.sqrt(p_e * (1 - p_e) / ens.n_paths) + 1e-12, up.se)
            assert abs(p_e - up.p_hat) <= 3.5 * pooled, r

    def test_stable_median(self):
        # P(E_t <= r) = erf(r/(2 sqrt t)); median of E_1 is 2 erfinv(1/2)
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=21)
        ens = sample_E_t(k, cfg, 1.0)
        med = float(np.quantile(ens.values[~ens.censored], 0.5))
        want = 2.0 * float(erfinv(0.5))
        assert med == pytest.approx(want, rel=0.02)
        assert want == pytest.approx(0.95387, rel=1e-4)

    def test_stable_level_scaling(self):
        # E_{ct} =d c^beta E_t: quantiles scale by c^{1/2} for beta = 1/2
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=23)
        qs = [0.25, 0.5, 0.75]
        q, q16 = (
            np.quantile(ens.values[~ens.censored], qs)
            for ens in (sample_E_t(k, cfg, 1.0), sample_E_t(k, cfg, 16.0))
        )
        assert np.allclose(q16 / q, 4.0, rtol=0.02)

    @pytest.mark.parametrize("kernel", [caputo(0.5), Truncated(beta=0.5, delta=1.0, scale=1.0)])
    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
    def test_level_must_be_positive_and_finite(self, kernel, t):
        with pytest.raises(DomainError, match="the level must be a positive finite number"):
            sample_E_t(kernel, SimConfig(cutoff_eps=1e-3, n_paths=100, seed=1), t)

    def test_jump_budget_refuses_a_walk_too_long_to_run(self):
        # a path expects ~ w(eps)/phi(1/t) = 10 sqrt(t/pi) jumps here: 5.6e42
        # in all at t = 1e80, refused before the walk as sample_S_at refuses its draw
        k = caputo(0.5)
        with pytest.raises(DomainError, match=r"expected 5.6e\+42 jumps .*raise cutoff_eps"):
            sample_E_t(k, SimConfig(cutoff_eps=1e-2, n_paths=100, seed=1), 1e80)

    def test_a_level_beyond_phis_support_is_refused_before_the_walk(self, monkeypatch):
        # phi(1/t) sizes the budgets, and the evaluator refuses 1/t = 1e-300
        def no_draw(*args):
            raise AssertionError("the walk began")

        monkeypatch.setattr(simulate, "jump_sizes", no_draw)
        with pytest.raises(DomainError, match="lambda=1e-300 is below the smallest supported lambda"):
            sample_E_t(caputo(0.5), SimConfig(cutoff_eps=1e-2, n_paths=100, seed=1), 1e300)

    def test_walk_budget_per_path_refuses_a_long_walk_of_few_paths(self, monkeypatch):
        # the walk makes one round per jump of its longest path, so 100 paths
        # expecting ~5.6e5 jumps each (5.6e7 in all, inside the total budget)
        # are refused before any draw; t = 1e6 (~5.6e3 each) still walks
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-2, n_paths=100, seed=1)
        assert sample_E_t(k, cfg, 1e6).n_paths == 100

        def no_draw(*args):
            raise AssertionError("the walk began")

        monkeypatch.setattr(simulate, "jump_sizes", no_draw)
        with pytest.raises(DomainError, match=r"expected 5.6e\+05 jumps per path .*raise cutoff_eps"):
            sample_E_t(k, cfg, 1e10)

    def test_determinism(self):
        k = caputo(0.5)
        a = sample_E_t(k, CFG, 1.0).values
        b = sample_E_t(k, CFG, 1.0).values
        assert np.array_equal(a, b)


def _gathering_E(kernel, config, t):
    """E_t walked over n-length running sums and clocks, gathered from and
    scattered into at every step: the reference for the uncrossed-only walk.
    At a list of levels it walks until each path crosses the largest, with
    the largest level's budget, and fills one row per level in that order."""
    levels = np.atleast_1d(np.asarray(t, dtype=float))
    top = int(np.argmax(levels))
    eps, n = config.cutoff_eps, config.n_paths
    w_eps = float(kernel.w(eps))
    budget = 1e6 / BernsteinTable(kernel).phi(1.0 / levels[top])
    rng = simulate._rng(config.seed, 2)
    drift = simulate._drift_rate(kernel, eps)
    S, clock, E = np.zeros(n), np.zeros(n), np.full((levels.size, n), np.nan)
    active = np.arange(n)
    draw = jump_sizes(kernel, eps, w_eps)
    while active.size:
        k = active.size
        gaps = rng.standard_exponential(k) / w_eps
        jumps = draw(rng.uniform(0.0, 1.0, size=k))
        s_a, c_a = S[active], clock[active]
        s_after_gap = s_a + drift * gaps if drift > 0.0 else s_a
        for row, level in zip(E, levels):
            open_ = np.isnan(row[active])
            by_drift = open_ & (s_after_gap >= level)
            row[active[by_drift]] = c_a[by_drift] + (level - s_a[by_drift]) / drift
            by_jump = open_ & ~by_drift & (s_after_gap + jumps >= level)
            row[active[by_jump]] = c_a[by_jump] + gaps[by_jump]
        S[active] = s_after_gap + jumps
        clock[active] = c_a + gaps
        active = active[np.isnan(E[top, active]) & (clock[active] < budget)]
    censored = np.isnan(E)
    values = np.where(censored, budget, E)
    return (values[0], censored[0]) if np.ndim(t) == 0 else (values, censored)


class TestUncrossedWalk:
    @pytest.mark.parametrize("name", sorted(builtin_kernel_set()))
    def test_equals_the_gathering_walk_with_censoring(self, monkeypatch, name):
        k = builtin_kernel_set()[name]
        cfg = SimConfig(cutoff_eps=1e-2, n_paths=2000, seed=17)
        t = 0.5
        # a budget at the median of E_t censors about half of the paths
        budget = float(np.median(sample_E_t(k, cfg, t).values))
        monkeypatch.setattr(BernsteinTable, "phi", lambda tab, lam: 1e6 / budget)
        ens = sample_E_t(k, cfg, t)
        values, censored = _gathering_E(k, cfg, t)
        assert np.array_equal(ens.values, values) and np.array_equal(ens.censored, censored)
        assert 0 < np.count_nonzero(censored) < cfg.n_paths


# unsorted, with a repeat: rows come in the order given
_LEVELS = [0.5, 0.05, 2.0, 0.2, 0.05]


class TestMultiLevelWalk:
    @pytest.mark.parametrize("name", sorted(builtin_kernel_set()))
    def test_largest_level_row_is_the_one_level_walk(self, name):
        k = builtin_kernel_set()[name]
        cfg = SimConfig(cutoff_eps=1e-2, n_paths=2000, seed=17)
        ens = sample_E_t(k, cfg, np.array(_LEVELS))
        one = sample_E_t(k, cfg, max(_LEVELS))
        top = _LEVELS.index(max(_LEVELS))
        assert ens.values.shape == ens.censored.shape == (len(_LEVELS), 2000) and ens.n_paths == 2000
        assert np.array_equal(ens.values[top], one.values)
        assert np.array_equal(ens.censored[top], one.censored)

    @pytest.mark.parametrize("name", sorted(builtin_kernel_set()))
    def test_every_row_equals_the_gathering_walk_with_censoring(self, monkeypatch, name):
        k = builtin_kernel_set()[name]
        cfg = SimConfig(cutoff_eps=1e-2, n_paths=2000, seed=17)
        # a budget at the median of the largest level's E_t censors about half there
        budget = float(np.median(sample_E_t(k, cfg, max(_LEVELS)).values))
        monkeypatch.setattr(BernsteinTable, "phi", lambda tab, lam: 1e6 / budget)
        ens = sample_E_t(k, cfg, np.array(_LEVELS))
        values, censored = _gathering_E(k, cfg, _LEVELS)
        assert np.array_equal(ens.level, _LEVELS)
        assert np.array_equal(ens.values, values) and np.array_equal(ens.censored, censored)
        assert 0 < np.count_nonzero(censored[_LEVELS.index(max(_LEVELS))]) < cfg.n_paths
        for i, level in enumerate(_LEVELS):
            row = ens.row(i)
            assert row.level == level and np.shares_memory(row.values, ens.values)
            assert np.array_equal(row.values, values[i]) and np.array_equal(row.censored, censored[i])

    def test_half_caputo_levels_match_the_closed_form(self):
        # P(E_t <= r) = P(S_r >= t) = erf(r/(2 sqrt t)) at every level of one walk
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=20_000, seed=41)
        levels = np.array([0.03, 0.2, 1.0, 4.0])
        ens = sample_E_t(k, cfg, levels)
        assert not ens.censored.any()
        n = ens.n_paths
        for values, t in zip(ens.values, levels):
            for r in np.sqrt(t) * np.array([0.3, 1.0, 2.0, 3.5]):
                p = stable_half_upper_cdf(r, t)
                se = math.sqrt(p * (1.0 - p) / n)
                assert abs(float(np.mean(values <= r)) - p) <= 5.0 * se, (t, r)

    @pytest.mark.parametrize("levels", [[], [[0.5]], [0.5, math.nan], [0.5, 0.0]])
    def test_bad_level_arrays_are_refused(self, levels):
        with pytest.raises(DomainError, match="the level"):
            sample_E_t(caputo(0.5), SimConfig(cutoff_eps=1e-3, n_paths=100, seed=1), np.array(levels))

    def test_one_phi_call_at_the_largest_level_sizes_the_walk(self, monkeypatch):
        # 1/t = 1e-300 is below phi's support, so the largest level decides
        def no_draw(*args):
            raise AssertionError("the walk began")

        monkeypatch.setattr(simulate, "jump_sizes", no_draw)
        with pytest.raises(DomainError, match="lambda=1e-300 is below the smallest supported lambda"):
            sample_E_t(caputo(0.5), SimConfig(cutoff_eps=1e-2, n_paths=100, seed=1),
                       np.array([0.1, 1e300, 1.0]))


class TestUniformDraws:
    def test_random_is_uniform_zero_one_on_the_philox_stream(self):
        # the samplers' rng.random(m) gives the doubles and stream positions
        # of rng.uniform(0.0, 1.0, size=m), interleaved with other draws
        a, b = simulate._rng(20240517, 2), simulate._rng(20240517, 2)
        for m in (1, 7, 0, 1000, 3, 4096, 65, 1 << 15):
            assert np.array_equal(a.standard_exponential(m), b.standard_exponential(m))
            assert a.random(m).tobytes() == b.uniform(0.0, 1.0, size=m).tobytes()
        assert a.random() == b.uniform(0.0, 1.0)


class TestMassSpreadsOverWindow:
    def test_quarter_mass_moves_across_the_phi_window(self):
        # searching dyadic multiples c in {2^k}: some eps1 < N have
        # P(S_{N/phi(1/t)} >= t) - P(S_{eps1/phi(1/t)} >= t) >= 1/4
        for kern in (caputo(0.5), Truncated(beta=0.5, delta=1.0, scale=1.0)):
            tab = BernsteinTable(kern, points_per_decade=8)
            for t in (0.1, 0.25):
                base = 1.0 / tab.phi(1.0 / t)
                probs = {}
                for k in range(-4, 5):
                    r = 2.0**k * base
                    cfg = SimConfig(cutoff_eps=t * 1e-3, n_paths=20_000, seed=500 + k)
                    probs[k] = tail_estimate(kern, sample_S_at(kern, cfg, r), t, "upper").p_hat
                found = any(
                    probs[kN] - probs[ke] >= 0.25
                    for ke in probs
                    for kN in probs
                    if kN > ke
                )
                assert found, (type(kern).__name__, t, probs)


class TestExactStable:
    def test_ks_against_levy_cdf(self):
        x = exact_stable_sampler(0.5, 2.0, 100_000, seed=31)
        xs = np.sort(x)
        cdf = stable_half_lower_cdf(2.0, xs)
        ks = np.max(np.abs(cdf - np.arange(1, len(xs) + 1) / len(xs)))
        assert ks < 1.628 / math.sqrt(len(xs))

    def test_scaling_identity(self):
        # S_r =d r^2 S_1 for beta = 1/2: check both against the closed-form
        # quantiles x_q = (r / (2 erfcinv(q)))^2
        from scipy.special import erfcinv

        qs = np.array([0.25, 0.5, 0.75])
        for r, seed in ((3.0, 37), (1.0, 41)):
            x = exact_stable_sampler(0.5, r, 200_000, seed=seed)
            want = (r / (2.0 * erfcinv(qs))) ** 2
            assert np.allclose(np.quantile(x, qs), want, rtol=0.03)

    def test_negative_seed_is_a_key(self):
        # the seed is taken mod 2^64, so a negative seed keys its own stream
        a = exact_stable_sampler(0.5, 2.0, 1000, seed=-7)
        b = exact_stable_sampler(0.5, 2.0, 1000, seed=-7)
        assert np.all(np.isfinite(a)) and np.all(a > 0.0)
        assert np.array_equal(a, b)

    def test_cross_validates_compound_poisson_beta09(self):
        # KS distance sampler-vs-sampler < 0.01 at beta = 0.9
        # (eps = 1e-4 keeps the jump count desk-scale; compensated bias ~2e-3)
        beta, r = 0.9, 1.0
        exact = np.sort(exact_stable_sampler(beta, r, 100_000, seed=43))
        ens = sample_S_at(
            caputo(beta), SimConfig(cutoff_eps=1e-4, n_paths=100_000, seed=47), r
        )
        approx = np.sort(ens.values)
        grid = np.concatenate([exact, approx])
        f1 = np.searchsorted(exact, grid, side="right") / len(exact)
        f2 = np.searchsorted(approx, grid, side="right") / len(approx)
        assert np.max(np.abs(f1 - f2)) < 0.01


class TestTailEstimateBand:
    def test_tail_estimate_band_invariant(self):
        with pytest.raises(DomainError):
            TailEstimate(p_hat=1.5, se=0.0, n_paths=100)

    @pytest.mark.parametrize("side", ["uper", "Upper", "", None])
    def test_unknown_side_is_refused(self, side):
        k = caputo(0.5)
        ens = sample_S_at(k, SimConfig(cutoff_eps=1e-2, n_paths=100, seed=3), 1.0)
        with pytest.raises(DomainError, match="side must be 'upper' or 'lower'"):
            tail_estimate(k, ens, 1.0, side)


_BLOCK_KERNELS = {
    **builtin_kernel_set(),
    "tabulated-zero": Tabulated(knots=((0.5, 1.8), (1.0, 1.0), (2.0, 0.55)), tail="zero"),
}


def _one_shot_S(kernel, config, r):
    """S_r with every jump held at once: the reference for the blocked draws."""
    n, eps = config.n_paths, config.cutoff_eps
    w_eps = float(kernel.w(eps))
    rng = simulate._rng(config.seed, 1)
    counts = rng.poisson(r * w_eps, size=n)
    path_idx = np.repeat(np.arange(n), counts)
    sizes = jump_sizes(kernel, eps, w_eps)(rng.uniform(0.0, 1.0, size=int(counts.sum())))
    jumps = np.bincount(path_idx, weights=sizes, minlength=n)
    return jumps + simulate._drift_rate(kernel, eps) * r, counts


class TestBlockedDraws:
    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    @pytest.mark.parametrize("name", sorted(_BLOCK_KERNELS))
    def test_blocked_equals_one_shot(self, monkeypatch, name, block):
        if block is not None:
            monkeypatch.setattr(simulate, "_JUMP_BLOCK", block)
        k = _BLOCK_KERNELS[name]
        cfg = SimConfig(cutoff_eps=1e-2, n_paths=400, seed=61)
        w_eps = float(k.w(cfg.cutoff_eps))
        # ~0.5 jumps per path leaves many paths jump-free; ~12 puts more
        # jumps on one path than a block of 1 or 7 holds
        for mean_jumps in (0.5, 12.0):
            r = mean_jumps / w_eps
            want, counts = _one_shot_S(k, cfg, r)
            assert np.array_equal(sample_S_at(k, cfg, r).values, want), (name, block, r)
        if block in (1, 7):
            assert counts.max() > block  # some path spans more than a block

    def test_memory_scales_with_paths_not_jumps(self):
        # ~1.8M jumps: holding them all at once takes ~60 MB, several times
        # the path arrays plus a few block-sized temporaries
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=200_000, seed=7)
        tracemalloc.start()
        try:
            sample_S_at(k, cfg, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (4 * cfg.n_paths + 8 * simulate._JUMP_BLOCK)
        assert peak <= bound, (peak, bound)


_TRUNC = Truncated(beta=0.5, delta=1.0, scale=1.0)


def _searchsorted_tilted(kernel, config, r, t):
    """S_r tilted towards {S_r >= t} with each jump's cell found by
    np.searchsorted and every jump held at once: the reference for the
    guide-table lookup and the blocked draws."""
    eps = config.cutoff_eps
    end = kernel.support_end
    theta = saddle_point(kernel, eps, r, t)
    kappa, _ = cumulant(kernel, eps, r, theta)
    octaves = np.geomspace(eps, end, max(1, math.ceil(math.log2(end / eps))) + 1)
    cuts = np.ceil(abs(theta) * np.diff(octaves) / math.log(2.0)).clip(1).astype(int)
    lo = np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b, k in zip(octaves, octaves[1:], cuts)])
    hi = np.append(lo[1:], end)
    top = hi if theta >= 0.0 else lo
    w_lo, w_hi = kernel.w(lo), kernel.w(hi)
    env = r * np.exp(theta * top) * (w_lo - w_hi)
    cum = np.cumsum(env)
    rate = float(cum[-1])
    dw = (w_lo - w_hi) / env
    rng = simulate._rng(config.seed, 4)
    counts = rng.poisson(rate, size=config.n_paths)
    v, u = rng.random((int(counts.sum()), 2)).T
    v = v * rate
    cell = np.minimum(np.searchsorted(cum, v, side="right"), cum.size - 1)
    s = inverse_w_vec(kernel, w_hi[cell] + (cum[cell] - v) * dw[cell])
    s[u >= np.exp(theta * (s - top[cell]))] = 0.0
    jumps = np.bincount(np.repeat(np.arange(config.n_paths), counts), weights=s, minlength=config.n_paths)
    return jumps + simulate._drift_rate(kernel, eps) * r, np.exp(kappa - theta * jumps)


@st.composite
def _cum_and_points(draw):
    """A non-decreasing positive cum (zero masses repeat entries) and points
    v in [0, cum[-1]]: 0, every entry and its 1-ulp neighbours, cum[-1] and
    the float just below it, and uniform draws."""
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1e-3), st.floats(1e-3, 1e3))
    masses = draw(st.lists(mass, min_size=1, max_size=40).filter(lambda m: sum(m) > 0.0))
    cum = np.cumsum(masses)
    rate = float(cum[-1])
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30)))
    v = np.concatenate([[0.0, rate, np.nextafter(rate, 0.0)], cum, np.nextafter(cum, 0.0),
                        np.nextafter(cum, np.inf), u * rate])
    return cum, v[(v >= 0.0) & (v <= rate)]


class TestGuideTable:
    @settings(max_examples=300, deadline=None)
    @given(case=_cum_and_points())
    def test_equals_searchsorted(self, case):
        cum, v = case
        # the last cell also takes v = cum[-1], which a draw v = u rate can round to
        want = np.minimum(np.searchsorted(cum, v, side="right"), cum.size - 1)
        assert np.array_equal(simulate._cell_finder(cum)(v), want)

    @pytest.mark.parametrize("block", [1, 7, None, 1 << 18])
    @pytest.mark.parametrize("r, t", [(0.3, 0.1), (0.3, 3.5), (0.05, 1.95)])
    def test_tilted_sampler_equals_the_searchsorted_draw(self, monkeypatch, block, r, t):
        if block is not None:
            monkeypatch.setattr(simulate, "_JUMP_BLOCK", block)
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=3000, seed=89)
        ens = sample_S_tilted(_TRUNC, cfg, r, t)
        values, weights = _searchsorted_tilted(_TRUNC, cfg, r, t)
        assert np.array_equal(ens.values, values), (block, r, t)
        assert np.array_equal(ens.weights, weights), (block, r, t)


class TestTiltedS:
    def test_mean_weight_is_one(self):
        # E[exp(kappa - theta J)] = 1 under the tilted law
        for r, t in ((0.3, 1.5), (0.3, 0.1), (0.05, 1.95)):
            w = sample_S_tilted(_TRUNC, SimConfig(cutoff_eps=1e-3, n_paths=20_000, seed=71), r, t).weights
            se = float(np.std(w, ddof=1)) / math.sqrt(w.size)
            assert abs(float(np.mean(w)) - 1.0) <= 4.0 * se, (r, t)

    def test_saddle_point_solves_its_equation(self):
        eps = 1e-3
        drift = simulate._drift_rate(_TRUNC, eps)
        # E S_r = r M_0(t_f) = r: t = 0.1 lies below the mean of S_0.3, so
        # its theta is negative
        for r, t in ((0.3, 0.1), (0.3, 0.5), (0.3, 3.5), (0.05, 1.95)):
            theta = saddle_point(_TRUNC, eps, r, t)
            assert (theta < 0.0) == (t < r * _TRUNC.moment(0, 1.0)), (r, t)
            _, slope = cumulant(_TRUNC, eps, r, theta)
            assert abs(slope + r * drift - t) <= 1e-10 * t, (r, t)
        with pytest.raises(DomainError, match="drift"):
            saddle_point(_TRUNC, eps, 0.3, 0.5 * 0.3 * drift)

    def test_saddle_point_search_reach(self):
        # t = 0.012 lies just above the drift 0.3 d_eps = 0.00949, where
        # theta* < -200 ln 16/end = -554.5, beyond the x16 search's reach
        end = _TRUNC.support_end
        with pytest.raises(RangeError, match=r"t=0\.012 above the drift r d_eps=0\.00948683") as info:
            saddle_point(_TRUNC, 1e-3, 0.3, 0.012)
        assert str(info.value).endswith("smallest theta tried %g" % (-200.0 * math.log(16.0) / end))

    def test_rare_tail_matches_de_hoog(self):
        # P(S_0.3 >= 3.5) = 1.2951085e-6 by de Hoog inversion of
        # (1 - e^{-r phi(s)})/s at 30 and 50 digits; plain MC would need ~1e8 paths
        est = tail_estimate(
            _TRUNC, sample_S_tilted(_TRUNC, SimConfig(cutoff_eps=1e-3, n_paths=2**16, seed=73), 0.3, 3.5),
            3.5, "upper")
        assert est.se < 0.02 * est.p_hat
        assert abs(est.p_hat - 1.2951085e-6) <= 3.0 * est.se

    def test_agrees_with_plain_sampler(self):
        for r, t in ((0.3, 1.5), (0.3, 0.1), (0.05, 0.5)):
            cfg = SimConfig(cutoff_eps=1e-3, n_paths=20_000, seed=79)
            plain = tail_estimate(_TRUNC, sample_S_at(_TRUNC, cfg, r), t, "upper")
            tilted = tail_estimate(_TRUNC, sample_S_tilted(_TRUNC, cfg, r, t), t, "upper")
            assert abs(plain.p_hat - tilted.p_hat) <= 3.0 * math.hypot(plain.se, tilted.se), (r, t)

    @pytest.mark.parametrize("kernel", [
        caputo(0.5),
        Subexp(beta=0.5, theta=1.0),
        Tabulated(knots=((0.5, 1.8), (1.0, 1.0), (2.0, 0.55)), tail="zero"),  # atom at 2
    ])
    def test_unbounded_or_atomic_kernels_are_refused(self, kernel):
        with pytest.raises(DomainError, match="finite support and no atoms"):
            sample_S_tilted(kernel, SimConfig(cutoff_eps=1e-2, n_paths=100, seed=1), 0.3, 1.0)

    def test_determinism_and_blocks(self, monkeypatch):
        cfg = SimConfig(cutoff_eps=1e-3, n_paths=2000, seed=83)
        a = sample_S_tilted(_TRUNC, cfg, 0.3, 2.5)
        b = sample_S_tilted(_TRUNC, cfg, 0.3, 2.5)
        monkeypatch.setattr(simulate, "_JUMP_BLOCK", 7)
        c = sample_S_tilted(_TRUNC, cfg, 0.3, 2.5)
        for other in (b, c):
            assert np.array_equal(a.values, other.values)
            assert np.array_equal(a.weights, other.weights)

    def test_weighted_estimate_is_the_weighted_mean(self):
        ens = simulate.PathEnsemble(level=1.0, values=np.array([0.5, 2.0, 3.0, 1.0]),
                                    weights=np.array([1.0, 0.5, 0.25, 2.0]))
        est = tail_estimate(_TRUNC, ens, 2.0, "upper")
        x = np.array([0.0, 0.5, 0.25, 0.0])
        assert est.p_hat == float(np.mean(x))
        assert est.se == pytest.approx(float(np.std(x, ddof=1)) / 2.0, rel=1e-15)
