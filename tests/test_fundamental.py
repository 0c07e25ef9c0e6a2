import math

import numpy as np
import pytest
from scipy.special import erfc

from subtail import fundamental, golden
from subtail.bernstein import calN
from subtail.comparability import regime_grid
from subtail.errors import DomainError, QuadratureError
from subtail.fundamental import (
    Problem,
    PValue,
    diagonal_probe,
    _inner_Qs,
    p_mc,
    p_mc_many,
    p_quadrature,
    p_quadrature_many,
    solve_u,
    solve_u_many,
    solve_u_mc,
)
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import Truncated, caputo
from subtail.simulate import SimConfig, sample_E_t


def free_J(**kw):
    return Problem(
        kernel=caputo(0.5),
        model=HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1),
        geometry=Geometry("free"),
        **kw,
    )


class TestDensities:
    def test_closed_form_normalizes(self):
        problem = free_J(q_override=lambda r: np.ones_like(r))
        assert p_quadrature(problem, 1.3, 0.0, 1.0).value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_diagnostic_value(self):
        # q(r) = e^{-r} gives p = e^t erfc(sqrt t) in closed form
        for t in (0.3, 1.0, 4.0):
            problem = free_J(q_override=lambda r: np.exp(-r))
            want = math.exp(t) * erfc(math.sqrt(t))
            assert p_quadrature(problem, t, 0.0, 1.0).value == pytest.approx(want, rel=1e-9)
        assert math.e * erfc(1.0) == pytest.approx(0.427584, rel=1e-6)

    def test_quadrature_mode_refuses_a_kernel_without_closed_form_density(self):
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        problem = Problem(
            kernel=k,
            model=HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1),
            geometry=Geometry("free"),
            sim=SimConfig(cutoff_eps=1e-3, n_paths=20_000, seed=5),
        )
        with pytest.raises(DomainError, match='method="mc"'):
            p_quadrature(problem, 0.4, 0.0, 0.5)


class TestPValues:
    def test_mc_constant_kernel_total_mass(self):
        problem = free_J(
            q_override=lambda r: np.full(np.shape(r), 2.5),
            sim=SimConfig(cutoff_eps=1e-3, n_paths=5_000, seed=3),
        )
        out = p_mc(problem, 0.7, 0.0, 1.0)
        assert out.value == pytest.approx(2.5, abs=1e-12)
        assert out.se == 0.0

    def test_mc_matches_quadrature(self):
        cfg = SimConfig(cutoff_eps=1e-4, n_paths=40_000, seed=17)
        problem = free_J(sim=cfg)
        for t in (0.25, 1.0):
            for rho in (0.5, 2.0):
                mc = p_mc(problem, t, 0.0, rho)
                qd = p_quadrature(problem, t, 0.0, rho)
                assert abs(mc.value - qd.value) <= 3.0 * mc.se, (t, rho)

    def test_mc_symmetry_shared_ensemble(self):
        k = caputo(0.5)
        sim = SimConfig(cutoff_eps=1e-3, n_paths=10_000, seed=29)
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        a, b = p_mc_many(Problem(k, m, g, sim=sim), [(0.8, 0.3, 0.7), (0.8, 0.7, 0.3)])
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_quadrature_symmetry_and_positivity(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        k = caputo(0.5)
        for t in (0.05, 0.4):
            a = p_quadrature(Problem(k, m, g), t, 0.2, 0.9)
            b = p_quadrature(Problem(k, m, g), t, 0.9, 0.2)
            assert a.value > 0.0
            assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_time_monotone_off_diagonal(self):
        # deep off-diagonal J regime: p increases in t (the t/rho^{d+a} branch)
        vals = []
        for t in (0.01, 0.02, 0.04, 0.08):
            vals.append(p_quadrature(free_J(), t, 0.0, 25.0).value)
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
            a = p_quadrature(Problem(k, m, g), t, x, y).value
            b = p_quadrature(Problem(k, m, g), t, x2, y2).value
            assert math.isfinite(a) and a > 0.0
            assert a == pytest.approx(b, rel=rel), (m.family, t)

    def test_divergent_diagonal_is_quadrature_error(self):
        # J1 has d/alpha = 1: int_0 q(r,x,x) dr ~ int_0 r^{-1} dr diverges
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        for t in (0.01, 0.1, 0.5):
            with pytest.raises(QuadratureError):
                p_quadrature(Problem(caputo(0.5), m, g), t, 0.5, 0.5)

    def test_increase_paths_diagnostic(self):
        # far off-diagonal at few paths: huge relative error -> diagnostic
        problem = free_J(sim=SimConfig(cutoff_eps=1e-3, n_paths=500, seed=13))
        out = p_mc(problem, 0.01, 0.0, 60.0)
        assert out.diagnostic is None or "increase paths" in out.diagnostic


class TestSolveU:
    def test_free_space_mass_golden(self):
        # d = alpha = 1 free-space model: int q^j(r,x,y) dy
        # = int r/(r^2 + rho^2) drho = pi for every r, so u(t,x) with f = 1
        # equals pi at any t (golden number; scale-free in r)
        for t in (0.1, 0.7):
            out = solve_u(free_J(f=lambda y: 1.0), t, 0.0)
            assert out.value == pytest.approx(math.pi, rel=2e-3)

    def test_odd_f_cancels_at_midpoint(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        out = solve_u(Problem(caputo(0.5), m, g, f=lambda y: y - 0.5), 0.2, 0.5)
        ref = solve_u(Problem(caputo(0.5), m, g, f=lambda y: abs(y - 0.5)), 0.2, 0.5)
        assert abs(out.value) <= 1e-6 * ref.value

    def test_inner_integral_closed_form(self):
        # J1 (alpha = 1) on (0, 1) at r >= 1 is e^{-r} a_1^{1/2}(1,x,y)
        # = e^{-r} sqrt(dx/(dx+1)) sqrt(dy/(dy+1)), and with
        # int sqrt(u/(u+1)) du = sqrt(u(u+1)) - asinh(sqrt(u)),
        # Q(r, x) = e^{-r} sqrt(dx/(dx+1)) 2 (sqrt(3)/2 - asinh(1/sqrt(2)))
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        problem = Problem(caputo(0.5), m, g, f=lambda y: 1.0)
        for x in (1e-3, 0.3, 0.5):
            for r in (1.5, 4.0):
                dx = min(x, 1.0 - x)
                want = (math.exp(-r) * math.sqrt(dx / (dx + 1.0))
                        * 2.0 * (math.sqrt(3.0) / 2.0 - math.asinh(1.0 / math.sqrt(2.0))))
                assert _inner_Qs(problem, [x], [r])[0] == pytest.approx(want, rel=1e-10), (x, r)

    @pytest.mark.parametrize("family, alpha, kind, kw", [
        ("J1", 1.0, "interval", {}),
        ("J4", 1.5, "interval", {}),
        ("HK_M", 1.5, "interval", {"gamma": 0.5, "lam": 0.5, "k": 1}),
        ("D2", 2.0, "half-line", {}),
        ("HK_J", 1.0, "half-line", {"gamma": 0.3, "lam": 0.0, "k": 1}),
    ])
    def test_mc_modes_grid_in_one_call_is_the_per_r_integrals(self, family, alpha, kind, kw):
        # solve_u_mc checks its 80 log-grid inner integrals together
        m, g = HKModel(family, alpha=alpha, d=1.0, **kw), Geometry(kind, 1.0)
        problem = Problem(caputo(0.5), m, g, f=lambda y: np.exp(-y))
        grid = np.geomspace(1e-6, 5.0, 80)
        assert _inner_Qs(problem, [0.3] * grid.size, grid) == [_inner_Qs(problem, [0.3], [r])[0] for r in grid]

    def test_mc_mode_agrees(self):
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=1.0, d=1.0)
        problem = Problem(caputo(0.5), m, g, f=lambda y: 1.0,
                          sim=SimConfig(cutoff_eps=1e-4, n_paths=20_000, seed=37))
        u_q = solve_u(problem, 0.3, 0.4)
        u_m = solve_u_mc(problem, 0.3, 0.4)
        assert abs(u_m.value - u_q.value) <= 4.0 * u_m.se + 0.01 * u_q.value

    def test_mc_route_keeps_its_bits(self):
        # pinned: the seeded Monte Carlo u keeps its bits
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        problem = Problem(caputo(0.5), m, g, f=lambda y: np.exp(-y),
                          sim=SimConfig(cutoff_eps=1e-2, n_paths=500, seed=11))
        got = solve_u_mc(problem, 0.3, 0.4)
        assert _fields(got) == (0.5551563027112566, 0.02382869300033463, 500, 0, "mc", None)

    def test_mc_route_needs_a_simconfig(self):
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        with pytest.raises(DomainError, match="solve_u_mc needs a SimConfig"):
            solve_u_mc(Problem(caputo(0.5), m, g), 0.3, 0.4)


def _bits(values):
    return [v.value for v in values]


def _criterion_8_points():
    """The 1,815 distinct (t, x, y) of criterion 8: both branches at
    resolutions 8 and 15."""
    tab = golden.half_caputo_table(golden.TableCache())
    m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
    pts = [pt for tag, margin in golden.C8_MARGINS.items() for res in (8, 15)
           for pt in regime_grid(tag, tab, m, g, resolution=res, margin=margin, t_window=(1e-3, 0.1))]
    return m, g, list(dict.fromkeys(pts))


class TestListForms:
    """A list form returns, bit for bit, what its one-point calls return,
    and raises what the first failing point in the list raises alone."""

    def test_p_on_criterion_8s_points(self):
        m, g, pts = _criterion_8_points()
        assert len(pts) == 1815
        problem = Problem(caputo(0.5), m, g)
        assert _bits(p_quadrature_many(problem, pts)) == _bits(p_quadrature(problem, *pt) for pt in pts)

    def test_p_on_criterion_9s_points(self):
        tab = golden.TableCache()(caputo(0.5), points_per_decade=24)
        m, g = HKModel("D2", alpha=2.0, d=1.0), Geometry("half-line")
        ts, rhos = (0.02, 0.1, 0.5), np.geomspace(2.0, 14.0, 10)
        Ns = calN(tab, m.alpha, np.array(ts)[:, None], rhos).tolist()
        pts = [(t, 10.0, 10.0 + rho) for t, N_t in zip(ts, Ns) for rho, N in zip(rhos, N_t) if N <= 80.0]
        assert len(pts) > 20
        problem = Problem(caputo(0.5), m, g)
        assert _bits(p_quadrature_many(problem, pts)) == _bits(p_quadrature(problem, *pt) for pt in pts)

    def test_u_on_criterion_11s_requests(self):
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        pts = [(t, dlt) for t in golden.C11_T_VALUES for dlt in golden.C11_DELTAS]
        assert len(pts) == 8
        problem = Problem(caputo(0.5), m, g)
        assert _bits(solve_u_many(problem, pts)) == _bits(solve_u(problem, *pt) for pt in pts)

    @pytest.mark.parametrize("family, alpha, kind, kw", [
        ("J4", 1.5, "interval", {}),
        ("HK_M", 1.5, "interval", {"gamma": 0.5, "lam": 0.5, "k": 1}),
        ("HK_J", 1.5, "half-line", {"gamma": 0.3, "lam": 0.0, "k": 2}),
        ("D3", 2.0, "exterior", {}),
    ])
    def test_mixed_panel_counts_chunks_and_a_repeat(self, family, alpha, kind, kw):
        # powers alpha, psi_alpha and gamma off numpy's exact special cases, so
        # the points' columns must be raised as lone floats to keep the bits;
        # at t = 0.002 the clock range ends below the kink at 1, so the list
        # mixes panel counts, 15 points of ~45 panels span several chunks,
        # and the list repeats a point
        m, g = HKModel(family, alpha=alpha, d=1.0, **kw), Geometry(kind, 1.0)
        lo = {"interval": 0.05, "half-line": 0.05, "exterior": 1.05}[kind]
        rng = np.random.default_rng(7)
        pts = [(10.0 ** rng.uniform(-2.0, 0.0), lo + rng.uniform(0.0, 0.9), lo + rng.uniform(0.0, 0.9))
               for _ in range(12)]
        pts += [(0.3, lo + 0.4, lo + 0.4 + 1e-3), (0.002, lo + 0.45, lo + 0.5), pts[3]]
        problem = Problem(caputo(0.5), m, g)
        edges = [fundamental._panel_edges(problem, x, y, 18.0 * math.sqrt(t)).size for t, x, y in pts]
        assert len(set(edges)) > 1 and sum(edges) > 2 * 256
        got = _bits(p_quadrature_many(problem, pts))
        assert got == _bits(p_quadrature(problem, *pt) for pt in pts)
        assert got[14] == got[3]

    def test_the_first_miss_in_list_order_is_raised(self):
        # points 2 and 4 sit on the diagonal of J1, where p diverges
        problem = Problem(caputo(0.5), HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0))
        pts = [(0.1, 0.2, 0.7), (0.01, 0.5, 0.5), (0.2, 0.3, 0.35), (0.5, 0.4, 0.4), (0.05, 0.6, 0.1)]
        alone = []
        for i in (1, 3):
            with pytest.raises(QuadratureError) as err:
                p_quadrature(problem, *pts[i])
            alone.append(err.value)
        assert alone[0].achieved != alone[1].achieved
        with pytest.raises(QuadratureError) as err:
            p_quadrature_many(problem, pts)
        assert str(err.value) == str(alone[0]) and err.value.achieved == alone[0].achieved

    def test_a_point_outside_the_domain_is_refused_before_any_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fundamental, "q_eval", lambda *a: calls.append(a))
        m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
        with pytest.raises(DomainError, match="not in the domain"):
            p_quadrature_many(Problem(caputo(0.5), m, g), [(0.1, x, 0.5) for x in (0.2, 0.5, 1.5, 0.7)])
        with pytest.raises(DomainError, match="interval, half-line and free"):
            solve_u_many(Problem(caputo(0.5), m, Geometry("exterior")), [(0.1, x) for x in (1.2, 2.0)])
        assert calls == []

    def test_u_names_the_point_outside_the_domain(self, monkeypatch):
        # the point alone, before any evaluation, not q's column of every node
        calls = []
        monkeypatch.setattr(fundamental, "q_eval", lambda *a: calls.append(a))
        problem = Problem(caputo(0.5), HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0))
        with pytest.raises(DomainError) as err:
            solve_u_many(problem, [(0.1, 0.2), (0.2, 5.0), (0.1, -1.0)])
        assert str(err.value) == "x=5.0 is not in the domain"
        assert calls == []

    def test_an_empty_list_gives_an_empty_list(self):
        problem = Problem(caputo(0.5), HKModel("D1", alpha=2.0, d=1.0), Geometry("interval", 1.0))
        assert p_quadrature_many(problem, []) == [] and solve_u_many(problem, []) == []


def _fields(v):
    return (v.value, v.se, v.n_paths, v.censored, v.method, v.diagnostic)


class TestMCListForm:
    """``p_mc_many`` reads every point's p from the rows of one E_t walk."""

    K, M, G = caputo(0.5), HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
    SIM = SimConfig(cutoff_eps=1e-2, n_paths=500, seed=11)
    PROBLEM = Problem(K, M, G, sim=SIM)

    def test_p_mc_is_the_one_request_list(self):
        got = p_mc(self.PROBLEM, 0.3, 0.2, 0.6)
        assert _fields(got) == _fields(p_mc_many(self.PROBLEM, [(0.3, 0.2, 0.6)])[0])
        # the one-level walk of a scalar t, as p_mc drew it alone
        ens = sample_E_t(self.K, self.SIM, 0.3)
        assert got.value == float(np.mean(self.PROBLEM.q_at(ens.values, 0.2, 0.6)))
        assert p_mc_many(self.PROBLEM, []) == []

    def test_unsorted_and_repeated_t_read_the_rows_of_one_walk(self, monkeypatch):
        calls = []
        sample = fundamental.sample_E_t
        monkeypatch.setattr(fundamental, "sample_E_t", lambda *a: calls.append(list(a[2])) or sample(*a))
        pts = [(0.4, 0.3, 0.6), (0.1, 0.2, 0.7), (0.4, 0.6, 0.3), (0.25, 0.5, 0.55)]
        got = p_mc_many(self.PROBLEM, pts)
        assert calls == [[0.4, 0.1, 0.4, 0.25]]
        levels = [0.1, 0.25, 0.4]
        ens = sample(self.K, self.SIM, np.array(levels))
        for (t, x, y), res in zip(pts, got):
            row = ens.row(levels.index(t))
            assert res.value == float(np.mean(self.PROBLEM.q_at(row.values, x, y)))
            assert res.censored == int(np.count_nonzero(row.censored)) and res.n_paths == 500
        assert got[0].value == pytest.approx(got[2].value, rel=1e-12)

    def test_a_point_whose_phi_leaves_the_floats_is_refused_before_any_walk(self, monkeypatch):
        # 0.3^1e300 underflows to 0, which quadrature mode refuses as a clock
        # kink; the Monte Carlo route refuses it too, before it walks E_t
        def walk(*a):
            raise AssertionError("sample_E_t was called")

        monkeypatch.setattr(fundamental, "sample_E_t", walk)
        model = HKModel("HK_J", alpha=1e300, d=1.0, gamma=0.5, lam=0.0, k=1)
        problem = Problem(self.K, model, Geometry("half-line"), sim=self.SIM)
        with pytest.raises(DomainError, match=r"Phi\(0.3\) = 0.3\^alpha leaves the positive floats"):
            p_mc_many(problem, [(0.1, 0.3, 0.5)])


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
