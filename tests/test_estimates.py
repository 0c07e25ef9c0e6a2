import math

import numpy as np
import pytest

from subtail import estimates, golden
from subtail.bernstein import BernsteinTable
from subtail.comparability import regime_grid
from subtail.errors import DomainError, QuadratureError, RegimeError
from subtail.estimates import (
    EstimateCase,
    F_alpha,
    G_alpha_d,
    I_gamma_quadrature,
    I_gamma_quadrature_many,
    J_gamma,
    J_gamma_many,
    boundary_integral,
    boundary_integral_many,
    S_p,
    closed_I_gamma,
    theorem_estimate,
)
from subtail.heat_kernel import Geometry, HKModel
from subtail.golden import builtin_kernel_set
from subtail.kernels import Truncated, caputo
from subtail.tail_bounds import QUARTER_E2, near_diagonal

INF = math.inf


@pytest.fixture(scope="module")
def half_table():
    return BernsteinTable(caputo(0.5), points_per_decade=24)


class TestFFunctions:
    def test_s_above_alpha(self):
        # alpha=1, s=d=2 > alpha: rho^{alpha-s}
        assert F_alpha("k", 1.0, 2.0, 10.0, 0.5, INF, INF) == pytest.approx(2.0)

    def test_s_equal_alpha_log_cut(self):
        # log+ term zero once rho^alpha >= 2/phi(1/t)
        assert F_alpha("k", 2.0, 2.0, 1.0, 2.0, INF, INF) == pytest.approx(1.0)
        # and 1 + log(arg) below the cut
        got = F_alpha("k", 2.0, 2.0, 8.0, 1.0, INF, INF)
        assert got == pytest.approx(1.0 + math.log(16.0))

    def test_indicator_kills_interior_cases_in_free_space(self):
        assert F_alpha("k", 2.0, 0.5, 1.0, 0.3, INF, INF) == 0.0
        assert F_alpha("k", 2.0, -1.0, 1.0, 0.3, INF, INF) == 0.0

    def test_fc_s_equal_one(self):
        # alpha=1.5, s=1, rho=dmin=dmax=0.1: rho^{a-1} + dmin^{a-1} log 2
        got = F_alpha("c", 1.5, 1.0, 1e9, 0.1, 0.1, 0.1)
        want = 0.1**0.5 + 0.1**0.5 * math.log(2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_branch_boundary_comparability(self):
        # adjacent branches differ by a bounded factor at their meeting point
        phi_inv, rho, dx, dy = 5.0, 0.7, 0.8, 0.9
        a = 2.0
        for s0 in (a / 2.0, a):
            below = F_alpha("k", a, s0 - 1e-9, phi_inv, rho, dx, dy)
            at = F_alpha("k", a, s0, phi_inv, rho, dx, dy)
            above = F_alpha("k", a, s0 + 1e-9, phi_inv, rho, dx, dy)
            for pair in ((below, at), (at, above)):
                ratio = pair[0] / pair[1]
                assert 1.0 / 8.0 <= ratio <= 8.0, (s0, pair)

    def test_k_class_below_zero_tracks_the_integral_it_stands_for(self):
        # for s < 0, (1 ^ delta_*/rho^2)^{alpha/2} F_k is comparable to
        # int_{Phi(rho)}^U r^{-s/alpha} a_1^{1/2}(r) dr, which grows like U^{-s/alpha}
        alpha, s, d = 2.0, -1.0, 1.0
        m = HKModel("HK_J", alpha=alpha, d=d, gamma=0.5, lam=0.0, k=1)
        for rho, dx, dy in ((0.1, 0.2, 0.3), (0.05, 0.1, 0.5), (0.2, 0.1, 0.1)):
            ratios = []
            for U in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
                F = F_alpha("k", alpha, s, U, rho, dx, dy)
                I = boundary_integral(m, 1, rho**alpha, U, dx, dy, weight_pow=(d - s) / alpha)
                ratios.append(min(1.0, dx * dy / rho**2) ** (alpha / 2.0) * F / I)
            assert max(ratios) / min(ratios) <= 8.0, (rho, dx, dy, ratios)


class TestGFunction:
    def test_three_cases(self, half_table):
        assert G_alpha_d(half_table, 2.0, 1.0, 3.0, 1.5, 1.0) == 0.0
        assert G_alpha_d(half_table, 1.0, 2.0, 3.0, 1.5, 1.0) == pytest.approx(1.5**-1.0)
        # d = alpha: log(2 phi(1/t)^{-1} / (l phi(1/T)^{-1}))
        got = G_alpha_d(half_table, 1.0, 1.0, 4.0, 1.5, 1.0)
        want = math.log(2.0 * 2.0 / (1.5 * 1.0))
        assert got == pytest.approx(want, rel=1e-9)


class TestIGamma:
    def test_log_integral_gamma_zero(self, half_table):
        # gamma=0, V=r, Phi=r: I = log(upper/lower); arrange upper=4, lower=1
        t = (8.0 * math.e**2) ** 2
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        g = Geometry("free")
        got = I_gamma_quadrature(m, g, half_table, 1, t, 0.0, 1.0)
        assert got == pytest.approx(math.log(4.0), rel=1e-8)

    def test_interior_saturation_matches_gamma_zero(self, half_table):
        # deep interior points: boundary factors ~ 1, so gamma=1/2 ~ gamma=0
        t = (8.0 * math.e**2) ** 2
        g = Geometry("half-line")
        m_half = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        m_zero = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        x = 1e6
        v_half = I_gamma_quadrature(m_half, g, half_table, 1, t, x, x + 1.0)
        v_zero = I_gamma_quadrature(m_zero, g, half_table, 1, t, x, x + 1.0)
        assert v_half == pytest.approx(v_zero, rel=0.01)

    def test_empty_interval_returns_zero(self, half_table):
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("half-line")
        # tiny t: upper limit below Phi(rho)
        assert I_gamma_quadrature(m, g, half_table, 1, 1e-8, 1.0, 5.0) == 0.0

    def test_J_dominates_first_term(self, half_table):
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("interval", 1.0)
        t = 1e4
        first = J_gamma(m, g, half_table, 1, t, 0.4, 0.5)
        assert first >= 0.0
        # J >= leading term alone (w(t) I >= 0)
        phi_inv = 1.0 / half_table.phi(1.0 / t)
        from subtail.heat_kernel import a_gamma_delta

        lead = a_gamma_delta(0.5, 1.0, 1, phi_inv, 0.4, 0.5) / m.V_inv_time(phi_inv)
        assert first >= lead

    def test_boundary_integral_from_zero(self):
        # gamma = 0: the integrand is r^{weight_pow - d/alpha}.  int_0^1 r^{-1/2}
        # and r^{-2/3} converge to 2 and 3; int_0^1 r^{-1} diverges and must
        # miss the target rather than return a number
        for alpha, want in ((2.0, 2.0), (1.5, 3.0)):
            m = HKModel("HK_J", alpha=alpha, d=1.0, gamma=0.0, lam=0.0, k=1)
            assert boundary_integral(m, 1, 0.0, 1.0, INF, INF) == pytest.approx(want, rel=1e-8)
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        with pytest.raises(QuadratureError):
            boundary_integral(m, 1, 0.0, 1.0, INF, INF)


class TestListForms:
    """A list form returns, bit for bit, what its one-point calls return."""

    @pytest.mark.parametrize("case", sorted(golden.DGAMMA_CASES))
    def test_I_on_criterion_7s_points(self, half_table, case):
        # criterion 7's near-diagonal grid of (0, 1) for each exponent case
        alpha, d, gamma = golden.DGAMMA_CASES[case]
        m, g = HKModel("HK_J", alpha=alpha, d=d, gamma=gamma, lam=0.0, k=1), Geometry("interval", 1.0)
        pts = [(t, dx, dx + rho) for t in (0.003, 0.02, 0.12, 0.7, 5.0)
               for dx in (0.012, 0.02, 0.045, 0.08, 0.15, 0.25, 0.45)
               for rho in (0.001, 0.004, 0.012, 0.03, 0.09, 0.2, 0.4)
               if dx + rho < 1.0 - 1e-9
               and near_diagonal(rho**alpha * half_table.phi(1.0 / t), 2.0, half_table.quad_rtol)]
        assert len(pts) >= 60
        assert I_gamma_quadrature_many(m, g, half_table, 1, pts) == [
            I_gamma_quadrature(m, g, half_table, 1, *pt) for pt in pts]

    def test_J_on_criterion_8s_mainsmall_i_points(self, half_table):
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        pts = regime_grid("mainsmall-i", half_table, m, g, resolution=8, margin=2.0, t_window=(1e-3, 0.1))
        assert J_gamma_many(m, g, half_table, m.k, pts) == [J_gamma(m, g, half_table, m.k, *pt) for pt in pts]

    def test_free_space_boundary_integrals(self):
        # free space keeps its distances the float inf, which a_k^gamma skips
        m = HKModel("HK_J", alpha=1.5, d=1.0, gamma=0.3, lam=0.0, k=2)
        ranges = ((0.0, 1.0), (0.01, 3.0), (2.0, 1.0), (1e-4, 0.5), (0.01, 3.0))
        limits = [(lo, hi, INF, INF) for lo, hi in ranges]
        for w in (0.0, 1.0):
            got = boundary_integral_many(m, 1, limits, weight_pow=w)
            assert got == [boundary_integral(m, 1, *lim, weight_pow=w) for lim in limits]
            assert got[2] == 0.0 and got[4] == got[1] and all(v > 0.0 for v in got[:2])
        tab = BernsteinTable(caputo(0.5), points_per_decade=24)
        pts = [(t, 0.0, y) for t in (0.5, 4.0) for y in (0.01, 0.3, 1e-6)]
        g = Geometry("free")
        assert I_gamma_quadrature_many(m, g, tab, 2, pts) == [
            I_gamma_quadrature(m, g, tab, 2, *pt) for pt in pts]

    def test_empty_ranges_are_not_evaluated_and_distances_do_not_mix(self, monkeypatch):
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        with pytest.raises(DomainError, match="infinite distances in every row or in none"):
            boundary_integral_many(m, 1, [(0.1, 1.0, INF, INF), (0.1, 1.0, 0.5, INF)])
        monkeypatch.setattr(estimates, "checked_panels_many", None)
        assert boundary_integral_many(m, 1, [(1.0, 0.5, 0.2, 0.3), (2.0, 2.0, INF, INF)]) == [0.0, 0.0]
        assert boundary_integral_many(m, 1, []) == []


class TestClosedIGamma:
    CASES = {
        # case -> (alpha, d, gamma)
        "a": (2.0, 0.5, 0.2),
        "b": (2.0, 1.0, 0.25),
        "c": (2.0, 0.8, 0.4),
        "d": (2.0, 1.0, 0.5),
        "e": (2.0, 1.5, 0.5),
        "f": (1.0, 1.0, 0.5),
        "g": (1.0, 2.0, 0.5),
    }

    def _grid(self, geometry):
        # points spanning the three boundary scenarios on the interval (0,1)
        pts = []
        for x in (0.02, 0.15, 0.42):
            for off in (0.001, 0.02, 0.3):
                y = x + off
                if geometry.contains(y):
                    pts.append((x, y))
        return pts

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_matches_quadrature(self, case, half_table):
        alpha, d, gamma = self.CASES[case]
        m = HKModel("HK_J", alpha=alpha, d=d, gamma=gamma, lam=0.0, k=1)
        g = Geometry("interval", 1.0)
        ratios = []
        seen = set()
        for t in (0.003, 0.05, 0.4):
            for x, y in self._grid(g):
                rho = abs(x - y)
                if rho**alpha * half_table.phi(1.0 / t) > 1.0 / (8.0 * math.e**2):
                    continue
                closed, got_case, sc = closed_I_gamma(m, g, half_table, t, x, y)
                assert got_case == case
                seen.add(sc)
                quadv = I_gamma_quadrature(m, g, half_table, 1, t, x, y)
                if quadv > 0.0:
                    ratios.append(quadv / closed)
        assert ratios
        spread = max(ratios) / min(ratios)
        assert spread <= 8.0, (case, spread, sorted(seen))

    def test_regime_guard(self, half_table):
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("interval", 1.0)
        with pytest.raises(RegimeError):
            closed_I_gamma(m, g, half_table, 1e-9, 0.2, 0.8)

    def test_sc3_reduces_to_gamma_zero(self, half_table):
        # both deltas large: the closed form equals the gamma = 0 form
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.5, lam=0.0, k=1)
        m0 = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
        g = Geometry("half-line")
        t, x, y = 1e4, 50.0, 50.4
        v, case, sc = closed_I_gamma(m, g, half_table, t, x, y)
        v0, _, _ = closed_I_gamma(m0, g, half_table, t, x, y)
        assert sc == "Sc.3" and case == "g"
        q = I_gamma_quadrature(m, g, half_table, 1, t, x, y)
        q0 = I_gamma_quadrature(m0, g, half_table, 1, t, x, y)
        assert v == v0
        assert q == pytest.approx(q0, rel=0.05)

    def test_sc2_split_follows_the_tie_rule(self, half_table):
        # Phi(delta_y) phi(1/t) 1e-12 relative past 1/(4e^2) is inside phi's
        # certified error, so the closed Sc.2 band keeps it; 1e-8 past is Sc.3
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("half-line")
        t = 1e4
        phi_t = half_table.phi(1.0 / t)
        for rel, scenario in ((1e-12, "Sc.2"), (1e-8, "Sc.3")):
            y = QUARTER_E2 * (1.0 + rel) / phi_t
            assert y * phi_t > QUARTER_E2
            assert closed_I_gamma(m, g, half_table, t, 0.9 * y, y)[2] == scenario


class TestSp:
    def test_log_case(self):
        out = S_p(0.0, 1.0, 4.0, 1.0, 1.0)
        assert out["case"] == "iv"
        assert out["quadrature"] == pytest.approx(math.log(4.0), rel=1e-12)

    def test_A_dominates(self):
        for A in (1e-3, 1e-2, 0.1):
            for B in (10.0, 100.0):
                out = S_p(1.0, A, B, 2.0, 1.0)  # d/alpha = 1/2 > 1-p = 0
                assert out["case"] == "ii"
                ratio = out["quadrature"] / out["asymptotic"]
                assert 0.25 <= ratio <= 4.0

    def test_B_dominates(self):
        for A in (1e-3, 1e-2):
            for B in (1.0, 10.0):
                out = S_p(0.0, A, B, 2.0, 1.0)  # d/alpha = 1/2 < 1-p = 1
                assert out["case"] == "iii"
                ratio = out["quadrature"] / out["asymptotic"]
                assert 0.25 <= ratio <= 4.0

    def test_lower_bound_with_eighth(self):
        for p, alpha, d in ((0.0, 2.0, 1.0), (1.0, 2.0, 1.0), (0.5, 1.0, 1.0)):
            for A, B in ((0.01, 0.5), (0.1, 30.0)):
                out = S_p(p, A, B, alpha, d)
                a_term = A ** (1.0 - p) / A ** (d / alpha)
                b_term = B ** (1.0 - p) / B ** (d / alpha)
                assert out["quadrature"] >= 0.125 * (a_term + b_term)


class TestTheoremEstimate:
    def test_example1_small_on_diagonal(self, half_table):
        tab = BernsteinTable(Truncated(beta=0.5, delta=1.0, scale=1.0), points_per_decade=16)
        m = HKModel("D2", alpha=2.0, d=1.0)
        g = Geometry("free")
        case = EstimateCase("example1-small", tab, m, g, 0.25, 0.0, 0.05)
        out = theorem_estimate(case)
        assert out["branch"] == "on-diagonal d<alpha"
        assert out["value"] == pytest.approx(0.25**-0.25, rel=1e-12)
        assert out["value"] == pytest.approx(1.4142, rel=1e-4)

    def test_example1_finiteness_threshold(self):
        # d=2, alpha=1, delta=1: p(t,x,x) < inf iff t >= 2
        tab = BernsteinTable(Truncated(beta=0.5, delta=1.0, scale=1.0), points_per_decade=16)
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
        g = Geometry("free")
        # below the threshold the log-window branch grows without bound
        vals = [
            theorem_estimate(EstimateCase("example1-large", tab, m, g, 1.5, 0.0, eps))
            for eps in (1e-3, 1e-9, 1e-15)
        ]
        assert all(v["branch"] == "log window" for v in vals)
        assert vals[0]["value"] < vals[1]["value"] < vals[2]["value"]
        # above the threshold the diagonal value is finite even at rho = 0
        fine = theorem_estimate(EstimateCase("example1-large", tab, m, g, 2.5, 0.0, 0.0))
        assert fine["branch"] == "diagonal-regular"
        assert fine["value"] == pytest.approx(2.5**-2.0, rel=1e-12)

    def test_main2_weight_arithmetic(self):
        tab = BernsteinTable(Truncated(beta=0.5, delta=1.0, scale=1.0), points_per_decade=16)
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("half-line")
        t = 1.75
        n_t = math.floor(t / 1.0) + 1
        assert n_t == 2
        assert (n_t * 1.0 - t) ** n_t == pytest.approx(0.0625)
        out = theorem_estimate(EstimateCase("main2-i", tab, m, g, t, 3.0, 3.2))
        assert "n_t=2" in out["branch"]
        assert out["value"] > 0.0

    def test_mainlarge_ii_divergent_diagonal_is_quadrature_error(self):
        # on the diagonal rho = 0, and for J1 (d = alpha) the boundary integral
        # from Phi(rho) = 0 diverges like int_0 dr/r
        tab = BernsteinTable(builtin_kernel_set()["distributed"], points_per_decade=24)
        m = HKModel("J1", alpha=1.0, d=1.0)
        g = Geometry("interval", 1.0)
        with pytest.raises(QuadratureError):
            theorem_estimate(EstimateCase("mainlarge-ii", tab, m, g, 9.0, 0.3, 0.3))

    def test_mainsmall_regime_guard(self, half_table):
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        g = Geometry("interval", 1.0)
        with pytest.raises(RegimeError, match="4e"):
            theorem_estimate(EstimateCase("mainsmall-i", half_table, m, g, 1e-9, 0.2, 0.8))

    def test_mainsmall_offdiag_diffusion_value(self, half_table):
        from subtail.bernstein import calN

        m = HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        g = Geometry("free")
        t, x, y = 0.01, 0.0, 5.0
        out = theorem_estimate(EstimateCase("mainsmall-ii-b", half_table, m, g, t, x, y))
        inv = 1.0 / half_table.phi(1.0 / t)
        want = math.exp(-calN(half_table, m.alpha, t, 5.0)) / inv ** (1.0 / 2.0)
        assert out["value"] == pytest.approx(want, rel=1e-9)

    def test_specialsub_two_sided(self):
        from subtail.kernels import Subexp

        tab = BernsteinTable(Subexp(beta=0.5, theta=1.0), points_per_decade=16)
        m = HKModel("J1", alpha=1.0, d=1.0)
        g = Geometry("interval", 1.0)
        out = theorem_estimate(EstimateCase("specialsub-i", tab, m, g, 9.0, 0.3, 0.5))
        assert out["value"] > 0.0
        assert "subexponential" in out["branch"]

    def test_sJ2_decomposition_bounded_ratio(self, half_table):
        # the a_2-clock boundary integral splits through the isolated-point
        # construction: I_2^g(t,x,y) vs a_1^g(1,x,y) I_1^0(t,x,y') plus the
        # short-range piece frozen at t* = [phi^{-1}(1/(4e^2))]^{-1}
        kern = caputo(0.5)
        g = Geometry("exterior")
        m = HKModel("J3", alpha=1.0, d=1.0)
        m0 = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        m1 = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        t_star = (4.0 * math.e**2) ** 2  # for beta = 1/2
        ratios = []
        for t in (1e4, 1e5, 1e6):
            for x, y in ((2.0, 2.5), (1.5, 4.0), (3.0, 9.0)):
                lhs = I_gamma_quadrature(m, g, half_table, 2, t, x, y)
                rho = abs(x - y)
                y_eff = x + max(rho, 1.0)
                phx, phy = g.delta(x), g.delta(y)
                a1_at_1 = (phx / (phx + 1.0)) ** 0.5 * (phy / (phy + 1.0)) ** 0.5
                rhs = a1_at_1 * I_gamma_quadrature(m0, g, half_table, 1, t, x, y_eff)
                if rho <= 1.0:
                    rhs += I_gamma_quadrature(m1, g, half_table, 1, t_star, x, y)
                ratios.append(lhs / rhs)
        assert all(1.0 / 8.0 <= r <= 8.0 for r in ratios)
        assert max(ratios) / min(ratios) <= 8.0
