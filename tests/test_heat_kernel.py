import math
from dataclasses import replace

import numpy as np
import pytest

from subtail.bernstein import calM
from subtail.errors import DomainError
from subtail.heat_kernel import Geometry, HKModel, a_gamma_delta, geometry_probe, q_eval


class TestGeometry:
    def test_interval_probe(self):
        g = Geometry("interval", 1.0)
        assert geometry_probe(g, 0.3, 0.8) == pytest.approx((0.5, 0.3, 0.2))

    def test_half_line_probe(self):
        assert geometry_probe(Geometry("half-line"), 2.0, 5.0) == (3.0, 2.0, 5.0)

    def test_exterior_probe(self):
        assert geometry_probe(Geometry("exterior"), -3.0, 2.0) == (5.0, 2.0, 1.0)

    def test_delta_lipschitz(self):
        g = Geometry("interval", 2.0)
        xs = np.linspace(0.05, 1.95, 21)
        for x in xs:
            for y in xs:
                assert abs(g.delta(x) - g.delta(y)) <= g.rho(x, y) + 1e-14

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            Geometry("interval", 1.0).delta(1.5)
        with pytest.raises(DomainError):
            Geometry("exterior").delta(0.5)


class TestAGamma:
    def test_half_time_at_phi_delta(self):
        # gamma=1/2 and t = Phi(delta(x)) = Phi(delta(y)) gives 1/2
        g = Geometry("interval", 1.0)
        m = HKModel("HK_J", alpha=2.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        x = 0.3
        t = g.delta(x) ** 2
        a = a_gamma_delta(m.gamma, m.alpha, 1, t, g.delta(x), g.delta(1.0 - x))
        assert a == pytest.approx(0.5, rel=1e-12)

    def test_gamma_zero_is_one(self):
        g = Geometry("interval", 1.0)
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        assert a_gamma_delta(m.gamma, m.alpha, 1, 17.3, g.delta(0.2), g.delta(0.9)) == 1.0

    def test_a2_is_a1_at_shrunk_clock(self):
        g = Geometry("exterior")
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=2)
        t = 1.0
        dx, dy = g.delta(3.0), g.delta(-2.0)
        assert a_gamma_delta(m.gamma, m.alpha, 2, t, dx, dy) == pytest.approx(
            a_gamma_delta(m.gamma, m.alpha, 1, 0.5, dx, dy), rel=1e-12
        )


class TestKTwoClock:
    # q's general branch takes a_2 from a_gamma_delta, the one place a_2(t) =
    # a_1(t/(t+1)) is written, at every t: below t = 1 too, with no jump there
    CASES = [HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.3, lam=0.0, k=2),
             HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.25, lam=0.0, k=2)]
    G, X, Y = Geometry("half-line"), 0.1, 0.4

    @pytest.mark.parametrize("m", CASES, ids=lambda m: m.family)
    @pytest.mark.parametrize("t", [0.05, 0.5, 0.99])
    def test_boundary_factor_is_a_2(self, m, t):
        # gamma = 0 leaves q without its boundary factor
        factor = q_eval(m, self.G, t, self.X, self.Y) / q_eval(replace(m, gamma=0.0), self.G, t, self.X, self.Y)
        want = a_gamma_delta(m.gamma, m.alpha, 2, t, self.G.delta(self.X), self.G.delta(self.Y))
        assert factor == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", CASES, ids=lambda m: m.family)
    def test_q_is_continuous_across_t_one(self, m):
        below, at = (q_eval(m, self.G, t, self.X, self.Y) for t in (1.0 - 1e-9, 1.0))
        assert below == pytest.approx(at, rel=1e-6)


class TestQEval:
    def test_free_space_on_diagonal(self):
        # J-family, gamma=0, alpha=1, d=1, t=1, rho=0 -> t^{-d/alpha} = 1
        g = Geometry("free")
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        assert q_eval(m, g, 1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_D2_off_diagonal_value(self):
        # interior points with a ~ 1: exp(-M(t, rho)) = exp(-rho^2/(4t)) = e^-1
        g = Geometry("half-line")
        m = HKModel("D2", alpha=2.0, d=1.0)
        x, y = 1e6, 1e6 + 2.0
        got = q_eval(m, g, 1.0, x, y)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_qj_sandwich(self):
        # q^j within [1/2, 1] of min{1/V(Phi^-1(t)), t/(Psi(l)V(l))}
        g = Geometry("free")
        m = HKModel("HK_J", alpha=1.5, d=2.0, gamma=0.0, lam=0.0, k=1)
        for t in np.geomspace(0.01, 100.0, 7):
            for l in np.geomspace(0.01, 100.0, 7):
                qj = t / (t * m.V_inv_time(t) + m.Psi(l) * m.V(l))
                ref = min(1.0 / m.V_inv_time(t), t / (m.Psi(l) * m.V(l)))
                assert 0.5 * ref <= qj <= ref + 1e-300

    def test_symmetry(self):
        g = Geometry("interval", 1.0)
        for fam in ("J1", "D1"):
            m = HKModel(fam, alpha=2.0, d=1.0)
            for t in (0.02, 0.5, 3.0):
                assert q_eval(m, g, t, 0.2, 0.7) == pytest.approx(
                    q_eval(m, g, t, 0.7, 0.2), rel=1e-12
                )

    def test_monotone_decay_in_rho(self):
        g = Geometry("half-line")
        for fam, alpha in (("J2", 1.0), ("D2", 2.0)):
            m = HKModel(fam, alpha=alpha, d=1.0)
            x = 5.0
            vals = [q_eval(m, g, 0.7, x, x + r) for r in np.linspace(0.0, 10.0, 21)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_lambda_branch(self):
        # J1 at t >= 1: e^{-lam t} a_1^{1/2}(1,x,y), Phi(delta) = delta^2
        g = Geometry("interval", 1.0)
        m = HKModel("J1", alpha=2.0, d=1.0)
        got = q_eval(m, g, 2.0, 0.3, 0.6)
        want = math.exp(-2.0) * math.sqrt(0.09 / 1.09) * math.sqrt(0.16 / 1.16)
        assert got == pytest.approx(want, rel=1e-12)

    def test_lambda_needs_bounded(self):
        m = HKModel("J1", alpha=2.0, d=1.0)
        with pytest.raises(DomainError):
            q_eval(m, Geometry("half-line"), 0.5, 1.0, 2.0)

    def test_construction_guards(self):
        with pytest.raises(DomainError):
            HKModel("D1", alpha=0.9, d=1.0)  # diffusion class needs alpha > 1
        with pytest.raises(DomainError):
            HKModel("J4", alpha=1.0, d=1.0)
        with pytest.raises(DomainError):
            HKModel("HK_M", alpha=2.0, d=1.0, gamma=0.5, lam=0.0, k=1, psi_alpha=1.5)

    @pytest.mark.parametrize("fixed", [{"gamma": 0.9}, {"k": 2}, {"psi_alpha": 2.5},
                                       {"gamma": 0.5, "k": 1}])
    def test_a_displayed_family_refuses_what_it_fixes(self, fixed):
        # J1 fixes gamma = 1/2, k = 1 and psi_alpha = alpha; a given value is refused, not dropped
        with pytest.raises(DomainError, match="J1 fixes %s;" % ", ".join(fixed)):
            HKModel("J1", alpha=2.0, d=1.0, **fixed)

    @pytest.mark.parametrize("exp_c", [0.0, -1.0, math.inf, math.nan])
    def test_exp_c_must_be_finite_and_positive(self, exp_c):
        for fam in ("D1", "HK_D"):
            with pytest.raises(DomainError, match="exp_c must be a finite number > 0"):
                HKModel(fam, alpha=2.0, d=1.0, exp_c=exp_c,
                        **({} if fam == "D1" else {"gamma": 0.5, "lam": 0.0, "k": 1}))

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan])
    @pytest.mark.parametrize("fam", ["J1", "J2", "D1", "HK_J", "HK_D", "HK_M"])
    def test_a_negative_lambda_is_refused(self, fam, lam):
        # q reads only lambda > 0, so a negative rate would act as lambda = 0
        with pytest.raises(DomainError, match="lambda must be a number >= 0, got"):
            HKModel(fam, alpha=2.0, d=1.0, lam=lam, **({} if fam in ("J1", "J2", "D1") else {"gamma": 0.5, "k": 1}))

    def test_hk_m_is_sum(self):
        g = Geometry("free")
        m = HKModel("HK_M", alpha=2.0, d=1.0, gamma=0.0, lam=0.0, k=1, psi_alpha=2.5)
        mj = HKModel("HK_J", alpha=2.0, d=1.0, gamma=0.0, lam=0.0, k=1, psi_alpha=2.5)
        md = HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        t, x, y = 0.4, 0.0, 1.3
        assert q_eval(m, g, t, x, y) == pytest.approx(
            q_eval(mj, g, t, x, y) + q_eval(md, g, t, x, y), rel=1e-12
        )

    def test_qd_uses_calM_bit_for_bit(self):
        g = Geometry("free")
        m = HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.0, lam=0.0, k=1)
        t, rho = 0.75, 2.25
        want = math.exp(-calM(m.alpha, t, rho)) / m.V_inv_time(t)
        assert q_eval(m, g, t, 0.0, rho) == want  # exact equality, same code path

    def test_time_derivative_surrogate(self):
        # |q^j(t2)-q^j(t1)|/(t2-t1) <= C q^j(t1)/t1 for t2/t1 in [1, 1.01]
        g = Geometry("half-line")
        m = HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.5, lam=0.0, k=1)
        C = 6.0
        for t1 in np.geomspace(0.01, 10.0, 13):
            t2 = 1.01 * t1
            for rho in np.geomspace(0.01, 10.0, 13):
                q1 = q_eval(m, g, t1, 4.0, 4.0 + rho)
                q2 = q_eval(m, g, t2, 4.0, 4.0 + rho)
                assert abs(q2 - q1) / (t2 - t1) <= C * q1 / t1


# every family on a geometry it is valid on, with points (x, ys) inside
_INTERVAL = (Geometry("interval", 1.0), 0.3, [0.05, 0.3, 0.31, 0.7, 0.99])
_HALF_LINE = (Geometry("half-line"), 1.2, [0.01, 1.2, 1.3, 3.0, 5.0])
_EXTERIOR = (Geometry("exterior"), 1.5, [-3.0, -1.01, 1.01, 1.5, 2.2])
_FREE = (Geometry("free"), 0.0, [-2.0, 0.0, 0.01, 1.0, 5.0])
ARRAY_CASES = [
    (HKModel("J1", alpha=1.0, d=1.0), _INTERVAL),  # lambda = 1
    (HKModel("J2", alpha=1.0, d=1.0), _HALF_LINE),
    (HKModel("J3", alpha=1.0, d=1.0), _EXTERIOR),  # k = 2
    (HKModel("J4", alpha=1.5, d=1.0), _INTERVAL),
    (HKModel("D1", alpha=2.0, d=1.0), _INTERVAL),
    (HKModel("D2", alpha=2.0, d=1.0), _HALF_LINE),
    (HKModel("D3", alpha=2.0, d=1.0), _EXTERIOR),
    (HKModel("HK_J", alpha=1.0, d=1.0, gamma=0.3, lam=0.0, k=2), _HALF_LINE),
    (HKModel("HK_J", alpha=1.0, d=2.0, gamma=0.4, lam=0.0, k=1, psi_alpha=1.5), _FREE),
    (HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.25, lam=0.5, k=2), _INTERVAL),
    (HKModel("HK_M", alpha=1.5, d=1.0, gamma=0.5, lam=0.5, k=2, psi_alpha=2.0), _INTERVAL),
    (HKModel("HK_M", alpha=2.0, d=1.0, gamma=0.5, lam=0.0, k=1), _HALF_LINE),
]
ARRAY_TIMES = np.array([0.05, 0.7, 1.0, 2.5])  # both sides of the long-time switch t = 1


def _general_preset(model):
    """The general-family model with a displayed model's gamma, k, lambda and psi_alpha."""
    general = "HK_J" if model.family.startswith("J") else "HK_D"
    return HKModel(general, alpha=model.alpha, d=model.d, gamma=model.gamma, lam=model.lam,
                   k=model.k, psi_alpha=model.psi_alpha)


class TestDisplayedFamiliesArePresets:
    # a displayed family is its general class at fixed (gamma, k, lambda, psi):
    # J1-J4 take HK_J's q^j and D1-D3 HK_D's q^d, by the one formula
    @pytest.mark.parametrize("model,case", [c for c in ARRAY_CASES if not c[0].family.startswith("HK")],
                             ids=lambda v: getattr(v, "family", ""))
    def test_q_equals_the_general_preset_bit_for_bit(self, model, case):
        g, x, ys = case
        t, y = ARRAY_TIMES[:, None], np.array(ys)[None, :]
        got, want = q_eval(model, g, t, x, y), q_eval(_general_preset(model), g, t, x, y)
        assert got.tobytes() == want.tobytes()

    def test_presets(self):
        got = {m.family: (_general_preset(m).family, m.gamma, m.k, m.lam, m.psi_alpha)
               for m, _ in ARRAY_CASES if not m.family.startswith("HK")}
        assert got == {"J1": ("HK_J", 0.5, 1, 1.0, 1.0), "J2": ("HK_J", 0.5, 1, 0.0, 1.0),
                       "J3": ("HK_J", 0.5, 2, 0.0, 1.0), "J4": ("HK_J", 1.0 / 3.0, 1, 1.0, 1.5),
                       "D1": ("HK_D", 0.5, 1, 1.0, 2.0), "D2": ("HK_D", 0.5, 1, 0.0, 2.0),
                       "D3": ("HK_D", 0.5, 2, 0.0, 2.0)}


class TestQArrays:
    @pytest.mark.parametrize("model,case", ARRAY_CASES, ids=lambda v: getattr(v, "family", ""))
    def test_arrays_match_elementwise(self, model, case):
        g, x, ys = case
        ys = np.array(ys)
        want = np.array([[q_eval(model, g, float(t), x, float(y)) for y in ys] for t in ARRAY_TIMES])
        assert np.all(want > 0.0)
        np.testing.assert_allclose(q_eval(model, g, ARRAY_TIMES[:, None], x, ys[None, :]), want,
                                   rtol=1e-15, atol=0.0)
        for j, y in enumerate(ys):
            np.testing.assert_allclose(q_eval(model, g, ARRAY_TIMES, x, y), want[:, j],
                                       rtol=1e-15, atol=0.0)
        for i, t in enumerate(ARRAY_TIMES):
            np.testing.assert_allclose(q_eval(model, g, t, x, ys), want[i], rtol=1e-15, atol=0.0)

    def test_scalar_arguments_give_a_float(self):
        m = HKModel("J1", alpha=1.0, d=1.0)
        assert type(q_eval(m, Geometry("interval", 1.0), 0.4, 0.3, 0.6)) is float

    def test_a_point_outside_an_array_is_refused(self):
        m = HKModel("J1", alpha=1.0, d=1.0)
        with pytest.raises(DomainError):
            q_eval(m, Geometry("interval", 1.0), 0.4, 0.3, np.array([0.2, 1.2]))
        with pytest.raises(DomainError):
            q_eval(m, Geometry("interval", 1.0), np.array([0.4, 0.0]), 0.3, 0.5)
