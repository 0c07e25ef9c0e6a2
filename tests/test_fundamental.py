import math

import numpy as np
import pytest
from scipy.special import erfc

from subtail.errors import DomainError, QuadratureError
from subtail.fundamental import (
    PValue,
    SolutionRequest,
    diagonal_probe,
    _inner_Q,
    p_mc,
    p_quadrature,
    solve_u,
)
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import Truncated, caputo
from subtail.simulate import SimConfig, sample_E_t


def req_free_J(t, x, y, **kw):
    return SolutionRequest(
        kernel=caputo(0.5),
        model=HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1),
        geometry=Geometry("free"),
        t=t,
        x=x,
        y=y,
        **kw,
    )


class TestDensities:
    def test_closed_form_normalizes(self):
        req = req_free_J(1.3, 0.0, 1.0, q_override=lambda r: np.ones_like(r))
        assert p_quadrature(req).value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_diagnostic_value(self):
        # q(r) = e^{-r} gives p = e^t erfc(sqrt t) in closed form
        for t in (0.3, 1.0, 4.0):
            req = req_free_J(t, 0.0, 1.0, q_override=lambda r: np.exp(-r))
            want = math.exp(t) * erfc(math.sqrt(t))
            assert p_quadrature(req).value == pytest.approx(want, rel=1e-9)
        assert math.e * erfc(1.0) == pytest.approx(0.427584, rel=1e-6)

    def test_quadrature_mode_refuses_a_kernel_without_closed_form_density(self):
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        req = SolutionRequest(
            kernel=k,
            model=HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1),
            geometry=Geometry("free"),
            t=0.4,
            x=0.0,
            y=0.5,
            sim=SimConfig(cutoff_eps=1e-3, n_paths=20_000, seed=5),
        )
        with pytest.raises(DomainError, match='method="mc"'):
            p_quadrature(req)


class TestPValues:
    def test_mc_constant_kernel_total_mass(self):
        req = req_free_J(
            0.7,
            0.0,
            1.0,
            q_override=lambda r: np.full(np.shape(r), 2.5),
            sim=SimConfig(cutoff_eps=1e-3, n_paths=5_000, seed=3),
        )
        out = p_mc(req)
        assert out.value == pytest.approx(2.5, abs=1e-12)
        assert out.se == 0.0

    def test_mc_matches_quadrature(self):
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=40_000, seed=17)
        for t in (0.25, 1.0):
            for rho in (0.5, 2.0):
                req = req_free_J(t, 0.0, rho, sim=cfg)
                mc = p_mc(req)
                qd = p_quadrature(req)
                assert abs(mc.value - qd.value) <= 3.0 * mc.se, (t, rho)

    def test_mc_symmetry_shared_ensemble(self):
        k = caputo(0.5)
        ens = sample_E_t(k, SimConfig(cutoff_eps=1e-3, n_paths=10_000, seed=29), 0.8)
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        a = p_mc(SolutionRequest(k, m, g, 0.8, 0.3, 0.7, ensemble=ens))
        b = p_mc(SolutionRequest(k, m, g, 0.8, 0.7, 0.3, ensemble=ens))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_quadrature_symmetry_and_positivity(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        k = caputo(0.5)
        for t in (0.05, 0.4):
            a = p_quadrature(SolutionRequest(k, m, g, t, 0.2, 0.9))
            b = p_quadrature(SolutionRequest(k, m, g, t, 0.9, 0.2))
            assert a.value > 0.0
            assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_time_monotone_off_diagonal(self):
        # deep off-diagonal J regime: p increases in t (the t/rho^{d+a} branch)
        vals = []
        for t in (0.01, 0.02, 0.04, 0.08):
            req = req_free_J(t, 0.0, 25.0)
            vals.append(p_quadrature(req).value)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_near_diagonal_point_is_finite_and_symmetric(self):
        # |x - y| = 4e-6 puts the kink rho^alpha = 1.6e-11 of q(., x, y) below
        # the geometric r-grid, which then starts under it.  On the diagonal
        # q ~ r^{-d/alpha} (1/2 for D1, 2/3 for J4) and the grid grades down
        # to r_hi*1e-30; p there meets its value at |x - y| = 1e-12.
        g = Geometry("interval", 1.0)
        d1 = HKModel("D1", alpha=2.0, d=1.0)
        j4 = HKModel("J4", alpha=1.5, d=1.0)
        k = caputo(0.5)
        cases = [(d1, 0.064, (0.5, 0.500004), (0.500004, 0.5), 1e-8)]
        for t in (0.01, 0.1, 0.5):
            cases.append((d1, t, (0.5, 0.5), (0.5 + 1e-12, 0.5), 1e-9))
            cases.append((j4, t, (0.5, 0.5), (0.5 + 1e-12, 0.5), 1e-5))
        for m, t, (x, y), (x2, y2), rel in cases:
            a = p_quadrature(SolutionRequest(k, m, g, t, x, y)).value
            b = p_quadrature(SolutionRequest(k, m, g, t, x2, y2)).value
            assert math.isfinite(a) and a > 0.0
            assert a == pytest.approx(b, rel=rel), (m.family, t)

    def test_divergent_diagonal_is_quadrature_error(self):
        # J1 has d/alpha = 1: int_0 q(r,x,x) dr ~ int_0 r^{-1} dr diverges
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        for t in (0.01, 0.1, 0.5):
            with pytest.raises(QuadratureError):
                p_quadrature(SolutionRequest(caputo(0.5), m, g, t, 0.5, 0.5))

    def test_increase_paths_diagnostic(self):
        # far off-diagonal at few paths: huge relative error -> diagnostic
        req = req_free_J(0.01, 0.0, 60.0, sim=SimConfig(cutoff_eps=1e-3, n_paths=500, seed=13))
        out = p_mc(req)
        assert out.diagnostic is None or "increase paths" in out.diagnostic


class TestSolveU:
    def test_free_space_mass_golden(self):
        # d = alpha = 1 free-space model: int q^j(r,x,y) dy
        # = int r/(r^2 + rho^2) drho = pi for every r, so u(t,x) with f = 1
        # equals pi at any t (golden number; scale-free in r)
        for t in (0.1, 0.7):
            req = req_free_J(t, 0.0, None, f=lambda y: 1.0)
            out = solve_u(req)
            assert out.value == pytest.approx(math.pi, rel=2e-3)

    def test_odd_f_cancels_at_midpoint(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        out = solve_u(SolutionRequest(caputo(0.5), m, g, 0.2, 0.5, f=lambda y: y - 0.5))
        ref = solve_u(SolutionRequest(caputo(0.5), m, g, 0.2, 0.5, f=lambda y: abs(y - 0.5)))
        assert abs(out.value) <= 1e-6 * ref.value

    def test_inner_integral_closed_form(self):
        # J1 (alpha = 1) on (0, 1) at r >= 1 is e^{-r} a_1^{1/2}(1,x,y)
        # = e^{-r} sqrt(dx/(dx+1)) sqrt(dy/(dy+1)), and with
        # int sqrt(u/(u+1)) du = sqrt(u(u+1)) - asinh(sqrt(u)),
        # Q(r, x) = e^{-r} sqrt(dx/(dx+1)) 2 (sqrt(3)/2 - asinh(1/sqrt(2)))
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        for x in (1e-3, 0.3, 0.5):
            req = SolutionRequest(caputo(0.5), m, g, 0.2, x, f=lambda y: 1.0)
            for r in (1.5, 4.0):
                dx = min(x, 1.0 - x)
                want = (math.exp(-r) * math.sqrt(dx / (dx + 1.0))
                        * 2.0 * (math.sqrt(3.0) / 2.0 - math.asinh(1.0 / math.sqrt(2.0))))
                assert _inner_Q(req, r) == pytest.approx(want, rel=1e-10), (x, r)

    def test_mc_mode_agrees(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        base = SolutionRequest(caputo(0.5), m, g, 0.3, 0.4, f=lambda y: 1.0)
        u_q = solve_u(base)
        base.method = "mc"
        base.sim = SimConfig(cutoff_eps=1e-4, n_paths=20_000, seed=37)
        u_m = solve_u(base)
        assert abs(u_m.value - u_q.value) <= 4.0 * u_m.se + 0.01 * u_q.value


class TestDiagonalProbe:
    def test_example1_threshold(self):
        # d=2, alpha=1, delta=1: diverges at t=1.5, converges at t=2.5
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
        assert diagonal_probe(k, m, 1.5)["verdict"] == "diverged"
        assert diagonal_probe(k, m, 2.5)["verdict"] == "converged"
        # the integrand's lowest power of r: log-divergent at t = 1.5
        assert diagonal_probe(k, m, 1.5)["lowest_exponent"] == -1.0
        assert diagonal_probe(k, m, 2.5)["lowest_exponent"] == 0.0

    @pytest.mark.parametrize("d, alpha, t", [(3.0, 1.0, 2.875), (4.0, 1.0, 3.875),
                                             (1.5, 0.5, 2.875), (5.0, 1.0, 4.875)])
    def test_log_divergent_cases_diverge(self, d, alpha, t):
        # lowest exponent exactly -1 with a small weight (n t_f - t)^n: the
        # integral diverges like log r, however little the weight
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        m = HKModel("HK_J", alpha=alpha, d=d, gamma=0.0, lam=0.0, k=1)
        probe = diagonal_probe(k, m, t)
        assert probe["lowest_exponent"] == -1.0 and probe["weight"] > 0.0
        assert probe["verdict"] == "diverged"

    def test_verdict_is_the_estimates_threshold(self):
        # p(t,x,x) < inf iff t >= floor(d/alpha) t_f (Example 1)
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        for d in np.arange(0.5, 6.0, 0.5):
            for alpha in (0.5, 1.0, 1.5, 2.0):
                m = HKModel("HK_J", alpha=alpha, d=float(d), gamma=0.0, lam=0.0, k=1)
                for t in np.linspace(0.5, 6.0, 45):
                    finite = t >= math.floor(d / alpha) * k.support_end
                    expect = "converged" if finite else "diverged"
                    assert diagonal_probe(k, m, float(t))["verdict"] == expect, (d, alpha, t)

    def test_threshold_is_sharp(self):
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        m = HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.0, lam=0.0, k=1)
        assert diagonal_probe(k, m, 1.95)["verdict"] == "diverged"
        assert diagonal_probe(k, m, 2.05)["verdict"] == "converged"
