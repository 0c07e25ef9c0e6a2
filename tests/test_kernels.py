import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from subtail.errors import AtomError, DomainError, QuadratureError, RangeError
from subtail.golden import builtin_kernel_set
from subtail.kernels import (
    DistributedOrder,
    Power,
    Subexp,
    Tabulated,
    Truncated,
    caputo,
    check_conditions,
    inverse_w_vec,
    jump_sizes,
    kernel_from_config,
)


class TestEvalW:
    def test_caputo_at_one(self):
        # Gamma(1/2) = sqrt(pi)
        assert caputo(0.5).w(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_truncated_vanishes_at_endpoint(self):
        assert Truncated(beta=0.5, delta=1.0, scale=1.0).w(1.0) == 0.0
        assert Truncated(beta=0.5, delta=1.0, scale=1.0).w(2.0) == 0.0

    @pytest.mark.parametrize("s", [1.0 - 1e-6, 1.0 - 1e-12, 0.5, 1e-8])
    def test_truncated_against_mpmath_next_to_delta(self, s):
        # s^-beta - delta^-beta cancels next to delta; 40 digits are the oracle
        with mp.workdps(40):
            want = float(mp.mpf(s) ** -0.5 - 1)
        assert Truncated(beta=0.5, delta=1.0, scale=1.0).w(s) == pytest.approx(want, rel=2e-15, abs=0.0)

    def test_subexp_huge_argument_underflows_to_zero(self):
        k = Subexp(beta=1.0, theta=1.0, c0=1.0, smallBeta=0.5)
        assert k.w(1e9) == 0.0  # underflow, not an error

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, math.nan])
    def test_caputo_outside_its_orders_names_beta(self, beta):
        with pytest.raises(DomainError, match=r"beta in \(0,1\)"):
            caputo(beta)

    def test_nonpositive_argument_is_domain_error(self):
        for s in (0.0, -1.0):
            with pytest.raises(DomainError):
                caputo(0.5).w(s)


class TestLevyDensity:
    def test_power_density(self):
        assert caputo(0.5).nu(1.0) == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)

    def test_truncated_density_inside_and_outside(self):
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        assert k.nu(0.25) == pytest.approx(0.5 * 0.25**-1.5, rel=1e-12)  # = 4
        assert k.nu(2.0) == 0.0

    def test_distributed_density_keeps_scipy_gammas_bits(self):
        # nu's coefficients kappa beta/Gamma(1-beta) are computed once, and
        # nu keeps the bits of that formula with scipy's Gamma in every call
        weights = ((0.1, 0.4), (0.3, 1.0), (0.5, 0.0), (0.7, 2.5), (0.95, 0.2))
        k = DistributedOrder(weights=weights)
        s = 10.0 ** np.random.default_rng(11).uniform(-6.0, 6.0, 257)
        want = np.zeros_like(s)
        for b, kap in weights:
            if kap > 0.0:
                want += kap * b / gamma_fn(1.0 - b) * s ** (-b - 1.0)
        got = k.nu(s)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert [float(k.nu(v)).hex() for v in s[:16]] == [v.hex() for v in want[:16]]

    def test_tabulated_knot_signals_atom(self):
        k = Tabulated(knots=((0.5, 1.8), (1.0, 1.0), (2.0, 0.55)))
        with pytest.raises(AtomError):
            k.nu(1.0)
        assert k.nu(0.7) > 0.0

    def test_tabulated_zero_tail_lists_atom(self):
        k = Tabulated(knots=((0.5, 1.8), (1.0, 1.0)), tail="zero")
        assert k.atoms() == ((1.0, 1.0),)
        assert k.w(1.5) == 0.0


class TestInverseW:
    def test_power_closed_form(self):
        assert Power(beta=0.5, scale=1.0).w_inv(2.0) == pytest.approx(0.25, rel=1e-12)

    def test_truncated_closed_form(self):
        assert Truncated(beta=0.5, delta=1.0, scale=1.0).w_inv(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_round_trip_all_variants(self, kernels):
        for name, k in kernels.items():
            end = k.support_end
            hi = min(end * 0.999, 1e3) if math.isfinite(end) else 1e3
            for s0 in np.geomspace(1e-3, hi, 17):
                y = k.w(s0)
                if y <= 0.0:
                    continue
                s = k.w_inv(y)
                assert s == pytest.approx(s0, rel=1e-10), (name, s0)

    def test_vectorized_matches_scalar(self, kernels):
        for name, k in kernels.items():
            end = k.support_end
            hi = min(end * 0.9, 50.0) if math.isfinite(end) else 50.0
            s0 = np.geomspace(1e-3, hi, 9)
            y = k.w(s0)
            got = inverse_w_vec(k, y)
            assert np.allclose(got, s0, rtol=1e-9), name

    def test_batch_independent(self, kernels):
        # the sampler inverts its jump draws in blocks of any size, so an
        # entry's inverse must not depend on the rest of its batch
        for name, k in kernels.items():
            y = float(k.w(1e-3)) * np.random.default_rng(17).uniform(0.0, 1.0, 3000)
            full = k.w_inv(y)
            for chunk in (1, 7, 1000):
                for i in range(0, y.size, chunk):
                    assert np.array_equal(full[i : i + chunk], k.w_inv(y[i : i + chunk])), (
                        name, chunk, i)

    def test_below_zero_tail_atom(self):
        # w jumps from 1.0 to 0 at s = 1: the sampler's generalized inverse
        # puts every target at or below the jump on the atom
        k = Tabulated(knots=((0.5, 1.8), (1.0, 1.0)), tail="zero")
        got = inverse_w_vec(k, np.array([1e-9, 0.5, 1.0]))
        assert np.all(got == 1.0)

    def test_scalar_and_vector_agree_far_out(self):
        k = builtin_kernel_set()["distributed"]
        s = k.w_inv(1e-7)
        assert inverse_w_vec(k, np.array([1e-7]))[0] == pytest.approx(s, rel=1e-13)
        assert k.w(s) == pytest.approx(1e-7, rel=1e-13)


_ROUND_TRIP_KERNELS = {
    **builtin_kernel_set(),
    "tabulated-zero": Tabulated(knots=((0.5, 1.8), (1.0, 1.0), (2.0, 0.55)), tail="zero"),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_ROUND_TRIP_KERNELS)), log_y=st.floats(-2.0, 6.0))
def test_inverse_w_round_trip_property(name, log_y):
    # targets from 1e-2 up: below that the truncated kernel's root s sits next
    # to delta, where one ulp of s moves w(s) by more than 1e-13 relative
    k = _ROUND_TRIP_KERNELS[name]
    y = 10.0**log_y
    if y <= max((m for _, m in k.atoms()), default=0.0):
        return
    assert k.w(k.w_inv(y)) == pytest.approx(y, rel=1e-13)


_EPS = 1e-3


class TestJumpSizes:
    """Uniforms to the jumps above eps, P(J > s) = w(s)/w(eps): a
    DistributedOrder kernel by composition over its Caputo terms, every
    other kernel by its own inverse."""

    @pytest.mark.parametrize("kernel", [
        builtin_kernel_set()["distributed"],
        DistributedOrder(weights=((0.2, 0.5), (0.5, 0.0), (0.9, 2.0))),
    ], ids=["builtin", "three-terms-one-zero"])
    def test_law_of_the_draw_by_composition(self, monkeypatch, kernel):
        def no_newton(self, y):
            raise AssertionError("Newton inverse called")

        monkeypatch.setattr(DistributedOrder, "w_inv", no_newton)
        w_eps = float(kernel.w(_EPS))
        u = np.random.default_rng(5).uniform(0.0, 1.0, 1_000_000)
        jumps = jump_sizes(kernel, _EPS, w_eps)(u)
        assert jumps.min() >= _EPS * (1.0 - 1e-12)
        for s in (2 * _EPS, 10 * _EPS, 0.1, 1.0, 10.0):
            p = float(kernel.w(s)) / w_eps
            se = math.sqrt(p * (1.0 - p) / u.size)
            assert abs(np.mean(jumps > s) - p) <= 5.0 * se, (s, np.mean(jumps > s), p)

    def test_a_target_past_the_slices_falls_in_the_last(self):
        # w_eps a few ulps above the slices' sum: the top uniform still
        # lands in the last term's slice, just above eps
        k = builtin_kernel_set()["distributed"]
        w_eps = float(k.w(_EPS)) * (1.0 + 4e-16)
        s = jump_sizes(k, _EPS, w_eps)(np.array([0.5, 1.0 - 2.0**-53]))
        assert s[0] > s[1] and s[1] == pytest.approx(_EPS, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(set(_ROUND_TRIP_KERNELS) - {"distributed"}))
    def test_other_kernels_draw_by_their_own_inverse(self, name):
        k = _ROUND_TRIP_KERNELS[name]
        w_eps = float(k.w(_EPS))
        u = np.random.default_rng(6).uniform(0.0, 1.0, 1000)
        assert np.array_equal(jump_sizes(k, _EPS, w_eps)(u), inverse_w_vec(k, w_eps * u))


class TestMomentsAndKerIntegral:
    def test_moment_matches_quadrature(self, kernels):
        for name, k in kernels.items():
            for a in (0.01, 0.5, 2.0):
                if math.isfinite(k.support_end):
                    a = min(a, k.support_end)
                want, _ = quad(lambda u: k.w(u), 0.0, a, points=[min(a, b) for b in k.breakpoints()] or None, limit=200)
                assert k.moment(0, a) == pytest.approx(want, rel=1e-8), (name, a)

    def test_ker_integral_equals_small_mass(self, kernels):
        # int_0^inf min{1,s}(-dw) = int_0^1 w(s) ds when w(inf) = 0
        for name, k in kernels.items():
            hi = min(k.support_end, 60.0) * 0.999999
            edges = sorted({0.0, hi, 1.0, *(b for b in k.breakpoints() if 0.0 < b < hi)})
            direct = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                piece, _ = quad(lambda s: min(1.0, s) * k.nu(s), a, b, limit=200)
                direct += piece
            direct += sum(min(1.0, s) * j for s, j in k.atoms())
            direct += k.w(hi)  # analytic remainder: int_hi^inf nu = w(hi)
            rep = check_conditions(k, points_per_decade=16)
            assert rep.ker_integral == pytest.approx(direct, rel=1e-5), name
            assert rep.ker_ok, name

    def test_density_consistency(self, kernels):
        # int_a^b nu = w(a) - w(b) inside an absolutely continuous piece
        for name, k in kernels.items():
            a, b = 0.011, 0.77
            got, _ = quad(lambda s: k.nu(s), a, b, limit=200, epsrel=1e-11)
            want = k.w(a) - k.w(b)
            assert got == pytest.approx(want, rel=1e-8), name


def _moment_one_float(k, j, a):
    """M_j(a) of kernel k from its closed form, one Python float at a time:
    the reference the array moments must match bit for bit.  None for
    Subexp beyond 1, which has no closed form; ``TestSubexpMoments`` holds
    it to mpmath instead."""
    if isinstance(k, Power):
        p = j + 1.0 - k.beta
        return k.scale * a**p / p
    if isinstance(k, Truncated):
        b, p = min(a, k.delta), j + 1.0 - k.beta
        return k.scale * (b**p / p - k.delta ** (-k.beta) * b ** (j + 1.0) / (j + 1.0))
    if isinstance(k, Subexp):
        p = j + 1.0 - k.smallBeta
        return k.c0 * math.exp(-k.theta) * a**p / p if a <= 1.0 else None
    if isinstance(k, DistributedOrder):
        tot = 0.0
        for b, kap in k.weights:
            if kap > 0.0:
                p = j + 1.0 - b
                tot += kap / gamma_fn(1.0 - b) * a**p / p
        return tot
    s, v, q = k._s, k._v, k._q  # Tabulated: pieces in knot order

    def piece(lo, hi, i):
        c, p = v[i] * s[i] ** q[i], j + 1.0 - q[i]
        return c * math.log(hi / lo) if abs(p) < 1e-12 else c * (hi**p - lo**p) / p

    tot = piece(0.0, min(a, s[0]), 0)
    for i in range(len(q)):
        if a <= s[i]:
            break
        tot += piece(s[i], min(a, s[i + 1]), i)
    if a > s[-1] and k.tail == "power":
        tot += piece(s[-1], a, len(q) - 1)
    return tot


def _joins(k):
    # the knots of a table, the truncation point, Subexp's join at 1, and
    # their neighbouring floats on either side
    pts = [float(b) for b in k.breakpoints()] + [1.0]
    return pts + [float(np.nextafter(b, d)) for b in pts for d in (0.0, np.inf)]


_MOMENT_KERNELS = {
    **_ROUND_TRIP_KERNELS,
    # the segment from 1 to 2 has slope 1, where M_0's piece is a logarithm
    "tabulated-log": Tabulated(knots=((0.5, 1.5), (1.0, 1.0), (2.0, 0.5), (4.0, 0.1))),
}


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(_MOMENT_KERNELS)),
    j=st.integers(0, 3),
    logs=st.lists(st.floats(-14.0, 8.0), max_size=12),
    picks=st.lists(st.integers(0, 10**6), max_size=12),
)
def test_array_moments_equal_scalar_calls(name, j, logs, picks):
    k = _MOMENT_KERNELS[name]
    joins = _joins(k)
    a = np.array([10.0**x for x in logs] + [joins[i % len(joins)] for i in picks], dtype=float)
    got = k.moment(j, a)
    assert got.shape == a.shape
    one_by_one = [k.moment(j, float(x)) for x in a]
    assert all(isinstance(m, float) for m in one_by_one)
    assert np.array_equal(got, np.array(one_by_one, dtype=float))
    closed = [_moment_one_float(k, j, float(x)) for x in a]
    assert [g for g, c in zip(got.tolist(), closed) if c is not None] == [
        c for c in closed if c is not None]


_ROW_KERNELS = {
    **_MOMENT_KERNELS,
    "subexp-theta-30": Subexp(beta=0.5, theta=30.0),  # cuts U_k below 1e6: one a, four b
    "subexp-beta-0.3": Subexp(beta=0.3, theta=0.01),
}


@pytest.mark.parametrize("name", sorted(_ROW_KERNELS))
def test_moments_rows_are_the_moment_calls(name):
    k = _ROW_KERNELS[name]
    a = np.concatenate([np.geomspace(1e-6, 1e6, 193), [2.0, 2.0, 1.0 + 1e-12, math.inf]])
    rows = k.moments(a)
    assert rows.shape == (4, a.size)
    for j in range(4):
        assert np.array_equal(rows[j], k.moment(j, a)), (name, j)
    for x in (0.5, 3.0, 1e4):
        assert np.array_equal(k.moments(x), [k.moment(j, x) for j in range(4)]), (name, x)


@pytest.mark.parametrize("kernel, a", [
    (Subexp(beta=0.05, theta=1e-6), [2.0, math.inf]),
    (Subexp(beta=0.1, theta=1e-30), [2.0, math.inf]),
])
def test_moments_fail_as_the_first_failing_moment_call(kernel, a):
    a = np.array(a)
    with pytest.raises((QuadratureError, RangeError)) as want:
        for j in range(4):
            kernel.moment(j, a)
    with pytest.raises(want.type, match="^%s$" % re.escape(str(want.value))):
        kernel.moments(a)


def _subexp_moment_mp(k, j, a):
    """M_j(a) of the Subexp kernel k at 30 digits: the head up to 1 in closed
    form, then int_1^a u^j c0 e^{-theta u^beta} du split at each decade and
    where theta u^beta passes its peak q - 1 = (j+1)/beta - 1 and two
    points beyond."""
    with mp.workdps(30):
        beta, theta, c0 = mp.mpf(k.beta), mp.mpf(k.theta), mp.mpf(k.c0)
        p = j + 1 - mp.mpf(k.smallBeta)
        head = c0 * mp.exp(-theta) * mp.mpf(min(a, 1.0)) ** p / p
        if a <= 1.0:
            return head
        q = (j + 1) / beta
        peaks = [(v / theta) ** (1 / beta) for v in (q - 1, 2 * q + 20, 4 * q + 80) if v > theta]
        decades = [mp.mpf(10) ** m for m in range(1, 40) if 10**m < max(peaks, default=10)]
        hi = mp.inf if a == math.inf else mp.mpf(a)
        pts = [mp.mpf(1), *sorted(u for u in peaks + decades if 1 < u < hi), hi]
        return head + c0 * mp.quad(lambda u: u**j * mp.exp(-theta * u**beta), pts)


class TestSubexpMoments:
    """Beyond s = 1, M_k(a) is the closed-form head plus the integral from
    1 on the checked Gauss-Legendre rule, held to 30-digit mpmath at 1e-14
    relative.  Forming it as a difference of two upper incomplete gammas
    put M_3 100% off at theta = 0.01 for a in (1, 2]."""

    BUDGET = 1e-14

    @pytest.mark.parametrize("theta", [0.01, 1.0, 30.0])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0])
    def test_against_mpmath(self, beta, theta):
        k = Subexp(beta=beta, theta=theta)
        misses = []
        for j in range(4):
            for a in (1.0 + 1e-12, 1.0 + 1e-8, 1.0001, 2.0, 50.0, 1e6, math.inf):
                got, want = k.moment(j, a), float(_subexp_moment_mp(k, j, a))
                rel = abs(got - want) / want
                if not rel <= self.BUDGET:
                    misses.append((j, a, rel))
        assert misses == []

    def test_an_unrepresentable_cut_is_a_range_error_naming_theta(self):
        # U = (1 + L/theta)^(1/beta) overflows; a finite a needs no cut
        k = Subexp(beta=0.1, theta=1e-30)
        assert k.moment(0, 2.0) == pytest.approx(float(_subexp_moment_mp(k, 0, 2.0)), rel=1e-14)
        with pytest.raises(RangeError, match="theta=1e-30"):
            k.moment(0, math.inf)

    def test_a_missed_check_is_a_quadrature_error(self):
        # M_3(inf) ~ Gamma(80) theta^-80 / beta overflows, and so do the nodes' u^3
        with pytest.raises(QuadratureError, match=r"Subexp moment M_3\(inf\)"):
            Subexp(beta=0.05, theta=1e-6).moment(3, np.array([2.0, math.inf]))


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(0.05, 0.95),
    s1=st.floats(1e-5, 1e4),
    ratio=st.floats(1.0, 1e3),
)
def test_monotone_property(beta, s1, ratio):
    k = Power(beta=beta, scale=1.0)
    assert k.w(s1) >= k.w(s1 * ratio)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.1, 0.9), y=st.floats(1e-6, 1e6))
def test_power_round_trip_property(beta, y):
    k = Power(beta=beta, scale=1.0)
    assert k.w(k.w_inv(y)) == pytest.approx(y, rel=1e-9)


class TestCheckConditions:
    def test_power(self):
        rep = check_conditions(caputo(0.5))
        assert rep.spoly is not None and rep.spoly["delta1"] == pytest.approx(0.5)
        assert rep.lpoly is not None and rep.lpoly["delta2"] == pytest.approx(0.5, abs=1e-6)
        assert rep.sub is None and rep.trunc is None

    def test_truncated(self):
        rep = check_conditions(Truncated(beta=0.5, delta=1.0, scale=1.0))
        assert rep.trunc is not None
        assert rep.trunc["t_f"] == 1.0
        assert 0.5 <= rep.trunc["K_lo"] <= rep.trunc["K_hi"] <= 1.5
        assert rep.spoly["t_s"] == pytest.approx(0.5)
        assert rep.spoly["delta1"] == pytest.approx(0.5)
        assert rep.lpoly is None

    def test_subexp(self):
        rep = check_conditions(Subexp(beta=0.5, theta=1.0))
        assert rep.sub == {"beta": 0.5, "theta": 1.0, "c0": 1.0}
        assert rep.lpoly is None

    def test_distributed(self):
        rep = check_conditions(DistributedOrder(weights=((0.3, 1.0), (0.7, 1.0))))
        assert rep.spoly["delta1"] == pytest.approx(0.7)
        assert rep.lpoly is not None
        assert rep.sub is None

    def test_sparse_table_diagnostic(self):
        rep = check_conditions(Tabulated(knots=((0.5, 1.8), (1.0, 1.0), (2.0, 0.55))))
        assert any("insufficient resolution" in d for d in rep.diagnostics)


class TestConfig:
    def test_round_trip(self):
        cfgs = [
            {"kind": "power", "beta": 0.5, "scale": 1.0},
            {"kind": "truncated", "beta": 0.5, "delta": 1.0, "scale": 1.0},
            {"kind": "subexp", "beta": 0.5, "theta": 1.0, "c0": 1.0, "smallBeta": 0.5},
            {"kind": "distributed", "weights": [[0.3, 1.0], [0.7, 1.0]]},
            {"kind": "tabulated", "knots": [[0.5, 1.8], [1.0, 1.0], [2.0, 0.55]], "tail": "power"},
        ]
        for cfg in cfgs:
            k = kernel_from_config(cfg)
            assert k.w(0.3) > 0.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            kernel_from_config({"kind": "gaussian"})
