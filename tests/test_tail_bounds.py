import math

import numpy as np
import pytest

from subtail import golden
from subtail.bernstein import BernsteinTable
from subtail.errors import RegimeError
from subtail.kernels import Subexp, Truncated, caputo, check_conditions
from subtail.simulate import SimConfig, sample_S_at, tail_estimate
from subtail.tail_bounds import (
    lower_bound_universal,
    lower_tail_bounds,
    truncated_small_r_threshold,
    upper_bound_form,
)


@pytest.fixture(scope="module")
def caputo_table():
    return BernsteinTable(caputo(0.5), points_per_decade=24)


@pytest.fixture(scope="module")
def trunc_pair():
    k = Truncated(beta=0.5, delta=1.0, scale=1.0)
    return k, BernsteinTable(k, points_per_decade=24), check_conditions(k, points_per_decade=16)


class TestUniversalLower:
    def test_hand_value(self, caputo_table):
        k = caputo(0.5)
        got = lower_bound_universal(caputo_table, k, 0.01, 1.0, L=0.01)
        want = math.exp(-0.01 * math.e) * 0.01 / math.sqrt(math.pi)
        assert got == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.0054905, rel=1e-4)

    def test_linear_in_r(self, caputo_table):
        k = caputo(0.5)
        v1 = lower_bound_universal(caputo_table, k, 1e-4, 1.0, L=0.01)
        v2 = lower_bound_universal(caputo_table, k, 1e-5, 1.0, L=0.01)
        assert v1 / v2 == pytest.approx(10.0, rel=1e-9)

    def test_regime_error_names_inequality(self, caputo_table):
        with pytest.raises(RegimeError, match="r phi"):
            lower_bound_universal(caputo_table, caputo(0.5), 10.0, 1.0, L=0.01)

    def test_tie_rule_at_edge(self, caputo_table):
        # r phi(1/t) = L up to rounding is on the closed regime; a real excess
        # of 1e-6 relative is far above phi's certified error and is refused
        k = caputo(0.5)
        L = 0.05
        for t in (0.01, 0.25, 0.7, 1.0, 3.0, 40.0):
            r = L / caputo_table.phi(1.0 / t)
            for r_edge in (r, np.nextafter(r, np.inf)):
                assert lower_bound_universal(caputo_table, k, r_edge, t, L=L) > 0.0
            with pytest.raises(RegimeError, match="r phi"):
                lower_bound_universal(caputo_table, k, r * (1.0 + 1e-6), t, L=L)

    def test_mc_dominance(self, caputo_table):
        # the MC estimate must sit above the bound minus noise
        k = caputo(0.5)
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=30_000, seed=99)
        for t in (0.25, 1.0):
            L = 0.05
            r = L / caputo_table.phi(1.0 / t)
            bound = lower_bound_universal(caputo_table, k, r, t, L=L)
            est = tail_estimate(k, sample_S_at(k, cfg, r), t, "upper")
            assert est.p_hat + 3.0 * est.se >= bound


class TestUpperBoundForm:
    def test_caputo_small_time_form(self, caputo_table):
        k = caputo(0.5)
        t = 0.25
        r = 0.9 / (8.0 * math.e**2 * caputo_table.phi(1.0 / t))
        out = upper_bound_form(k, caputo_table, r, t)
        assert out["form"] == "r*w(t)"
        assert out["value"] == pytest.approx(r * 2.0 / math.sqrt(math.pi), rel=1e-9)

    def test_truncated_weight_example(self, trunc_pair):
        k, tab, rep = trunc_pair
        r0 = truncated_small_r_threshold(tab, k)
        r = r0 / 4.0
        out = upper_bound_form(k, tab, r, 1.75, conditions=rep)
        assert out["tag"] == "truncated-small-r"
        assert out["n_t"] == 2
        want = (r + 0.25**2) * r**2 * math.exp(-1.75 * math.log(1.75))
        assert out["value"] == pytest.approx(want, rel=1e-12)

    def test_subexp_form(self):
        k = Subexp(beta=0.5, theta=1.0)
        tab = BernsteinTable(k, points_per_decade=16)
        rep = check_conditions(k, points_per_decade=16)
        out = upper_bound_form(k, tab, 0.1, 9.0, conditions=rep)
        assert out["tag"] == "subexp"
        assert out["value"] == pytest.approx(0.1 * math.exp(-1.5), rel=1e-12)
        assert out["sharp_value"] == pytest.approx(0.1 * math.exp(-3.0 + 0.1), rel=1e-12)

    def test_unclassified_outside(self, caputo_table):
        k = caputo(0.5)
        out = upper_bound_form(k, caputo_table, 100.0, 1e-3)  # far beyond r phi(1/t) bound
        assert out["tag"] == "unclassified"

    def test_truncated_regimes_partition(self, trunc_pair):
        k, tab, rep = trunc_pair
        r0 = truncated_small_r_threshold(tab, k)
        # r below r_0: only the sharp small-r statement fires
        out = upper_bound_form(k, tab, r0 / 8.0, 2.0, conditions=rep)
        assert out["regimes"] == ["truncated-small-r"]
        # r well above r_0 with r/t still small: only the linear-in-log one
        out = upper_bound_form(k, tab, 16.0 * r0, 2.0, conditions=rep)
        assert out["regimes"] == ["truncated-linear"]
        assert out["form"] == "exp(-c t log(t/r))"

    def test_small_r_threshold_bisected_once_per_table(self):
        # r_0 depends only on the table, so repeated forms reuse it: after the
        # first call each upper_bound_form evaluates phi once, for r phi(1/t).
        # The first call's root probes phi at the ceil(log2(nodes + 1)) nodes
        # that pick its first bracket and builds no grid.
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        rep = check_conditions(k, points_per_decade=16)
        tab = BernsteinTable(k, points_per_decade=8)
        calls = []
        phi = tab.phi
        tab.phi = lambda lam: calls.append(lam) or phi(lam)
        per_call = []
        for r, t in ((1e-3, 2.0), (0.05, 0.8), (1e-3, 2.0), (0.2, 5.0)):
            del calls[:]
            upper_bound_form(k, tab, r, t, conditions=rep)
            per_call.append(len(calls))
        probes = math.ceil(math.log2(len(tab.lam_grid) + 1))
        assert probes == 8
        assert 1 < per_call[0] <= 16 + probes and per_call[1:] == [1, 1, 1]
        assert "phi_grid" not in vars(tab)
        # the remembered r_0 is the root finder's own value on a fresh table
        fresh = BernsteinTable(k, points_per_decade=8)
        assert truncated_small_r_threshold(tab, k) == truncated_small_r_threshold(fresh, k)

    def test_power_overlap_of_equal_forms_classifies(self, caputo_table):
        # power kernels satisfy both polynomial regimes with the same form
        k = caputo(0.5)
        t = 10.0
        r = 0.9 / (8.0 * math.e**2 * caputo_table.phi(1.0 / t))
        out = upper_bound_form(k, caputo_table, r, t)
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
        k = caputo(0.5)
        t = 0.25
        r_edge = 1.0 / (4.0 * math.e**2 * caputo_table.phi(1.0 / t))
        # just inside the unmargined boundary but outside margin 2
        out = upper_bound_form(k, caputo_table, 0.9 * r_edge, t)
        assert out["tag"] == "unclassified" and out["reason"].startswith("no regime admits")
        assert "small-t-poly" in upper_bound_form(k, caputo_table, 0.4 * r_edge, t)["regimes"]


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
        rep, lower_ok = golden._tail_ratio_grid(caputo(0.5), caputo_table, (0.1, 0.4), 7, 200)
        assert len(calls) == 2
        assert not (rep.passed and lower_ok)
        monkeypatch.setattr(golden, "upper_bound_form", lambda *a, **k: {"tag": "unclassified"})
        out = golden.crit_4_tail_two_sidedness(golden.TableCache())
        assert out["passed"] is False
        for res in out["kernels"].values():
            assert set(res) == {"spread", "spread_doubled_paths", "lower_bound_ok",
                                "verdict_stable", "n_points"}
