import math

import numpy as np
import pytest

from subtail.bernstein import BernsteinTable
from subtail.comparability import exp_constant_fit, regime_grid, two_sided_check
from subtail.errors import DomainError, RegimeError
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import caputo


class TestTwoSided:
    def test_self_comparison(self):
        v = np.linspace(1.0, 5.0, 9)
        rep = two_sided_check(v, v, spread_budget=8.0)
        assert rep.spread == pytest.approx(1.0)
        assert rep.passed

    def test_constant_absorbed(self):
        v = np.geomspace(0.1, 10.0, 7)
        rep = two_sided_check(v, 2.0 * v, spread_budget=1.5)
        assert rep.spread == pytest.approx(1.0)
        assert rep.passed
        assert rep.ratio_min == pytest.approx(0.5)

    def test_outlier_fails_with_coordinates(self):
        v = np.ones(10)
        obs = v.copy()
        obs[4] = 100.0
        coords = [("t", i) for i in range(10)]
        rep = two_sided_check(obs, v, spread_budget=8.0, coords=coords)
        assert not rep.passed
        assert rep.worst_high == ("t", 4)

    def test_nonpositive_prediction_is_hard_failure(self):
        with pytest.raises(DomainError):
            two_sided_check(np.ones(3), np.array([1.0, 0.0, 2.0]), 8.0)

    def test_noise_floor_goes_infinite(self):
        obs = np.array([1.0, 0.01])
        se = np.array([0.0, 0.01])  # second point all noise
        rep = two_sided_check(obs, np.ones(2), 8.0, se=se)
        assert rep.spread == math.inf
        assert not rep.passed

    def test_spread_is_max_over_min_ratio(self):
        obs = np.array([1.0, 1.1, 3.0, 3.3])
        pred = np.ones(4)
        rep = two_sided_check(obs, pred, 8.0)
        assert rep.spread == pytest.approx(3.3)


class TestExpFit:
    def test_exact_synthetic(self):
        X = np.geomspace(1.0, 60.0, 12)
        fit = exp_constant_fit(-2.0 * X, X)
        assert fit.c == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-9
        assert fit.t_stat > 1e6

    def test_noisy_synthetic(self):
        rng = np.random.default_rng(7)
        X = np.geomspace(1.0, 60.0, 24)
        noise = rng.normal(0.0, 0.05, size=X.size)
        fit = exp_constant_fit(-2.0 * X + noise, X, se_log=np.full(X.size, 0.05))
        assert 1.9 <= fit.c <= 2.1
        assert fit.residual <= 0.15
        assert fit.c_low <= fit.c <= fit.c_high

    def test_no_signal_diagnostic(self):
        rng = np.random.default_rng(11)
        X = np.geomspace(1.0, 60.0, 16)
        fit = exp_constant_fit(rng.normal(0.0, 1.0, size=X.size), X)
        assert fit.diagnostic is not None and "no exponential signal" in fit.diagnostic

    def test_narrow_span_rejected(self):
        X = np.linspace(1.0, 2.0, 8)
        with pytest.raises(DomainError, match="decades"):
            exp_constant_fit(-X, X)


@pytest.fixture(scope="module")
def setup():
    tab = BernsteinTable(caputo(0.5), points_per_decade=16)
    m = HKModel("J1", alpha=1.0, d=1.0)
    g = Geometry("interval", 1.0)
    return tab, m, g


class TestRegimeGrid:

    def test_near_and_off_are_disjoint(self, setup):
        tab, m, g = setup
        near = set(regime_grid("mainsmall-i", tab, m, g, resolution=6))
        off = set(regime_grid("mainsmall-ii-a", tab, m, g, resolution=6))
        assert near and off
        assert not near & off

    def test_near_predicate_margin(self, setup):
        tab, m, g = setup
        pts = regime_grid("mainsmall-i", tab, m, g, resolution=6, margin=2.0)
        for t, x, y in pts:
            prod = abs(x - y) ** m.alpha * tab.phi(1.0 / t)
            assert prod <= 1.0 / (8.0 * math.e**2) * (1.0 + 1e-12)

    def test_refinement_is_superset(self, setup):
        tab, m, g = setup
        coarse = set(regime_grid("mainsmall-i", tab, m, g, resolution=6))
        fine = set(regime_grid("mainsmall-i", tab, m, g, resolution=11))
        # 2n-1 point refinement of each axis keeps the coarse t-nodes;
        # spatial pairs follow the same nesting
        coarse_t = {t for t, _, _ in coarse}
        fine_t = {t for t, _, _ in fine}
        assert coarse_t <= fine_t

    def test_empty_set_is_an_error(self, setup):
        tab, m, g = setup
        with pytest.raises(RegimeError):
            regime_grid("mainsmall-ii-a", tab, m, g, resolution=4, t_window=(1e6, 1e7))


class TestCriterion8Reuse:
    def test_each_point_is_evaluated_once(self, monkeypatch):
        from subtail import golden

        seen = []
        p_quadrature = golden.p_quadrature

        def counted(req):
            seen.append((req.t, req.x, req.y))
            return p_quadrature(req)

        monkeypatch.setattr(golden, "p_quadrature", counted)
        tables = golden.TableCache()
        out = golden.crit_8_mainsmall_quadrature(tables)["branches"]
        # 1,815 distinct points: the resolution-8 grids' 288 lie in the resolution-15 ones
        assert len(seen) == len(set(seen)) == 1815
        monkeypatch.setattr(golden, "p_quadrature", p_quadrature)
        tab = golden.half_caputo_table(tables)
        for tag, branch in out.items():
            alone = [golden.mainsmall_report(tab, tag, res, 50.0) for res in (8, 15)]
            assert (branch["n_points"], branch["spread"], branch["spread_refined"]) == (
                alone[0].n_points, alone[0].spread, alone[1].spread)

    def test_coarse_grid_is_inside_the_refined_one(self):
        from subtail import golden

        tab = golden.half_caputo_table(golden.TableCache())
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        for tag, margin in golden.C8_MARGINS.items():
            coarse, fine = (regime_grid(tag, tab, m, g, resolution=res, margin=margin,
                                        t_window=(1e-3, 0.1)) for res in (8, 15))
            assert set(coarse) <= set(fine)
