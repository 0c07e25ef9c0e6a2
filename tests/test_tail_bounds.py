import math

import mpmath
import numpy as np
import pytest

from subtail import bernstein, golden
from subtail.bernstein import PHI_RTOL, BernsteinTable
from subtail.errors import RangeError, RegimeError
from subtail.kernels import Subexp, Truncated, caputo
from subtail.simulate import SimConfig, sample_S_at, tail_estimate
from subtail.tail_bounds import (
    QUARTER_E2,
    lower_bound_universal,
    lower_tail_bounds,
    truncated_small_r_threshold,
    upper_bound_form,
    within_bound,
)


@pytest.fixture(scope="module")
def caputo_table():
    return BernsteinTable(caputo(0.5), points_per_decade=24)


@pytest.fixture(scope="module")
def trunc_table():
    return BernsteinTable(Truncated(beta=0.5, delta=1.0, scale=1.0), points_per_decade=24)


class TestUniversalLower:
    def test_hand_value(self, caputo_table):
        got = lower_bound_universal(caputo_table, 0.01, 1.0, L=0.01)
        want = math.exp(-0.01 * math.e) * 0.01 / math.sqrt(math.pi)
        assert got == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.0054905, rel=1e-4)

    def test_linear_in_r(self, caputo_table):
        v1 = lower_bound_universal(caputo_table, 1e-4, 1.0, L=0.01)
        v2 = lower_bound_universal(caputo_table, 1e-5, 1.0, L=0.01)
        assert v1 / v2 == pytest.approx(10.0, rel=1e-9)

    def test_regime_error_names_inequality(self, caputo_table):
        with pytest.raises(RegimeError, match="r phi"):
            lower_bound_universal(caputo_table, 10.0, 1.0, L=0.01)

    def test_tie_rule_at_edge(self, caputo_table):
        # r phi(1/t) = L up to rounding is on the closed regime; a real excess
        # of 1e-6 relative is far above phi's certified error and is refused
        L = 0.05
        for t in (0.01, 0.25, 0.7, 1.0, 3.0, 40.0):
            r = L / caputo_table.phi(1.0 / t)
            for r_edge in (r, np.nextafter(r, np.inf)):
                assert lower_bound_universal(caputo_table, r_edge, t, L=L) > 0.0
            with pytest.raises(RegimeError, match="r phi"):
                lower_bound_universal(caputo_table, r * (1.0 + 1e-6), t, L=L)

    @pytest.mark.parametrize("b", [QUARTER_E2, 0.05, 1.0, 3e-7, 40.0, 1e12])
    def test_tie_slack_is_phis_target(self, b, monkeypatch):
        # the slack is phi's certified error PHI_RTOL, relative to the bound:
        # half of it is admitted and twice it refused, at every scale
        assert within_bound(b * (1.0 + PHI_RTOL / 2.0), b)
        assert not within_bound(b * (1.0 + 2.0 * PHI_RTOL), b)
        # ... and the rule reads the target bernstein checks phi to
        monkeypatch.setattr(bernstein, "PHI_RTOL", 1e-6)
        assert within_bound(b * (1.0 + 5e-7), b) and not within_bound(b * (1.0 + 2e-6), b)

    def test_mc_dominance(self, caputo_table):
        # the MC estimate must sit above the bound minus noise
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=30_000, seed=99)
        for t in (0.25, 1.0):
            L = 0.05
            r = L / caputo_table.phi(1.0 / t)
            bound = lower_bound_universal(caputo_table, r, t, L=L)
            est = tail_estimate(k, sample_S_at(k, cfg, r), t, "upper")
            assert est.p_hat + 3.0 * est.se >= bound


class TestUpperBoundForm:
    def test_caputo_small_time_form(self, caputo_table):
        t = 0.25
        r = 0.9 / (8.0 * math.e**2 * caputo_table.phi(1.0 / t))
        out = upper_bound_form(caputo_table, r, t)
        assert out["form"] == "r*w(t)"
        assert out["value"] == pytest.approx(r * 2.0 / math.sqrt(math.pi), rel=1e-9)

    def test_truncated_weight_example(self, trunc_table):
        r0 = truncated_small_r_threshold(trunc_table)
        r = r0 / 4.0
        out = upper_bound_form(trunc_table, r, 1.75)
        assert out["tag"] == "truncated-small-r"
        assert out["n_t"] == 2
        want = (r + 0.25**2) * r**2 * math.exp(-1.75 * math.log(1.75))
        assert out["value"] == pytest.approx(want, rel=1e-12)

    def test_subexp_form(self):
        tab = BernsteinTable(Subexp(beta=0.5, theta=1.0), points_per_decade=16)
        out = upper_bound_form(tab, 0.1, 9.0)
        assert out["tag"] == "subexp"
        assert out["value"] == pytest.approx(0.1 * math.exp(-1.5), rel=1e-12)
        assert out["sharp_value"] == pytest.approx(0.1 * math.exp(-3.0 + 0.1), rel=1e-12)

    def test_overflowing_sharp_subexp_form_is_range_error(self):
        tab = BernsteinTable(Subexp(beta=0.5, theta=1e-6), points_per_decade=16)
        with pytest.raises(RangeError, match=r"r=1000, t=10000"):
            upper_bound_form(tab, 1000.0, 1e4)

    @pytest.mark.parametrize("t", [300.5, 3000.5, 16000.5])
    def test_truncated_small_r_form_past_a_factors_overflow(self, t):
        # (n t_f - t)^n overflows at t_f = 100 from n ~ 155 on; the product
        # itself is tiny, and mpmath's value of the same formula is the oracle
        tab = BernsteinTable(Truncated(beta=0.5, delta=100.0, scale=1.0), points_per_decade=16)
        r = 1e-4
        out = upper_bound_form(tab, r, t)
        assert out["tag"] == "truncated-small-r"
        n = out["n_t"]
        with mpmath.workdps(50):
            mr, mt = mpmath.mpf(r), mpmath.mpf(t)
            want = (mr + (n * 100 - mt) ** n) * mr**n * mpmath.exp(-mt * mpmath.log(mt))
        assert out["value"] == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_unclassified_outside(self, caputo_table):
        out = upper_bound_form(caputo_table, 100.0, 1e-3)  # far beyond r phi(1/t) bound
        assert out["tag"] == "unclassified"

    def test_truncated_regimes_partition(self, trunc_table):
        r0 = truncated_small_r_threshold(trunc_table)
        # r below r_0: only the sharp small-r statement fires
        out = upper_bound_form(trunc_table, r0 / 8.0, 2.0)
        assert out["regimes"] == ["truncated-small-r"]
        # r well above r_0 with r/t still small: only the linear-in-log one
        out = upper_bound_form(trunc_table, 16.0 * r0, 2.0)
        assert out["regimes"] == ["truncated-linear"]
        assert out["form"] == "exp(-c t log(t/r))"

    def test_small_r_threshold_bisected_once_per_table(self):
        # r_0 depends only on the table, so repeated forms reuse it: after the
        # first call each upper_bound_form evaluates phi once, for r phi(1/t).
        # The first call's root probes phi at the ceil(log2(nodes + 1)) nodes
        # that pick its first bracket and builds no grid.
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        tab = BernsteinTable(k, points_per_decade=8)
        calls = []
        phi = tab.phi
        tab.phi = lambda lam: calls.append(lam) or phi(lam)
        per_call = []
        for r, t in ((1e-3, 2.0), (0.05, 0.8), (1e-3, 2.0), (0.2, 5.0)):
            del calls[:]
            upper_bound_form(tab, r, t)
            per_call.append(len(calls))
        probes = math.ceil(math.log2(len(tab.lam_grid) + 1))
        assert probes == 8
        assert 1 < per_call[0] <= 16 + probes and per_call[1:] == [1, 1, 1]
        assert "phi_grid" not in vars(tab)
        # the remembered r_0 is the root finder's own value on a fresh table
        fresh = BernsteinTable(k, points_per_decade=8)
        assert truncated_small_r_threshold(tab) == truncated_small_r_threshold(fresh)

    def test_small_r_cap_follows_the_tie_rule(self):
        # phi is linear in the kernel's scale, so a scale puts t_f/6 phi(6/t_f)
        # just past 1/(4e^2): 1e-12 relative past, inside phi's certified
        # error, r_0 is the cap itself; 1e-8 past, it is the root below it
        cap = 1.0 / 6.0
        unit = BernsteinTable(Truncated(beta=0.5, delta=1.0, scale=1.0), points_per_decade=16)
        prod = cap * unit.phi(1.0 / cap)
        for rel, at_cap in ((1e-12, True), (1e-8, False)):
            k = Truncated(beta=0.5, delta=1.0, scale=QUARTER_E2 * (1.0 + rel) / prod)
            tab = BernsteinTable(k, points_per_decade=16)
            assert cap * tab.phi(1.0 / cap) > QUARTER_E2
            r0 = truncated_small_r_threshold(tab)
            assert (r0 == cap) is at_cap and r0 <= cap

    def test_the_form_reads_the_tables_own_kernel(self, monkeypatch):
        # w and the conditions come from the table, certified once for all
        # the table's forms
        calls = []
        real = bernstein.check_conditions
        monkeypatch.setattr(bernstein, "check_conditions", lambda k: calls.append(k) or real(k))
        tab = BernsteinTable(Subexp(beta=0.5, theta=1.0), points_per_decade=16)
        out = upper_bound_form(tab, 0.01, 0.2)
        assert out["tag"] == "small-t-poly"
        assert out["value"] == 0.01 * float(tab.kernel.w(0.2))
        assert upper_bound_form(tab, 0.1, 9.0)["tag"] == "subexp"
        assert calls == [tab.kernel]

    def test_power_overlap_of_equal_forms_classifies(self, caputo_table):
        # power kernels satisfy both polynomial regimes with the same form
        t = 10.0
        r = 0.9 / (8.0 * math.e**2 * caputo_table.phi(1.0 / t))
        out = upper_bound_form(caputo_table, r, t)
        assert out["form"] == "r*w(t)"
        assert set(out["regimes"]) == {"small-t-poly", "large-t-poly"}


class TestLowerTail:
    def test_stable_algebra_chain(self, caputo_table):
        # (phi')^{-1}(1/4) = 4, H(4) = 1, exponent = 4
        bounds = lower_tail_bounds(caputo_table, 4.0, 1.0, N=1.0)
        assert bounds.exponent == pytest.approx(4.0, rel=1e-8)
        assert bounds.upper == pytest.approx(math.exp(-4.0), rel=1e-7)

    def test_regime_guard(self, caputo_table):
        # b^{-1}(1) = 2 for the half-stable table
        with pytest.raises(RegimeError):
            lower_tail_bounds(caputo_table, 1.0, 1.0, N=1.0)

    def test_exponent_increasing_in_r(self, caputo_table):
        es = [lower_tail_bounds(caputo_table, r, 1.0).exponent for r in (3.0, 5.0, 9.0, 17.0)]
        assert all(a < b for a, b in zip(es, es[1:]))

    def test_mc_dominance(self, caputo_table):
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=30_000, seed=55)
        for r in (4.0, 6.0):
            est = tail_estimate(k, sample_S_at(k, cfg, r), 1.0, "lower")
            up = lower_tail_bounds(caputo_table, r, 1.0).upper
            assert est.p_hat <= up + 3.0 * est.se


class TestRegimePartition:
    def test_margin_enforced(self, caputo_table):
        t = 0.25
        r_edge = 1.0 / (4.0 * math.e**2 * caputo_table.phi(1.0 / t))
        # just inside the unmargined boundary but outside margin 2
        out = upper_bound_form(caputo_table, 0.9 * r_edge, t)
        assert out["tag"] == "unclassified" and out["reason"].startswith("no regime admits")
        assert "small-t-poly" in upper_bound_form(caputo_table, 0.4 * r_edge, t)["regimes"]


class TestCriterionFour:
    def test_point_outside_the_form_fails_without_raising(self, caputo_table, monkeypatch):
        # criterion 4 predicts from upper_bound_form: once a point leaves the
        # r w(t) form the criterion has no prediction there, so it fails
        real = golden.upper_bound_form
        calls = []

        def first_point_only(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                return real(*args, **kwargs)
            return {"tag": "unclassified", "reason": "patched"}

        monkeypatch.setattr(golden, "upper_bound_form", first_point_only)
        rep, lower_ok = golden._tail_ratio_grid(caputo_table, (0.1, 0.4), 7, 200)
        assert len(calls) == 2
        assert not (rep.passed and lower_ok)
        monkeypatch.setattr(golden, "upper_bound_form", lambda *a, **k: {"tag": "unclassified"})
        out = golden.crit_4_tail_two_sidedness(golden.TableCache())
        assert out["passed"] is False
        for res in out["kernels"].values():
            assert set(res) == {"spread", "spread_doubled_paths", "lower_bound_ok",
                                "verdict_stable", "n_points"}
