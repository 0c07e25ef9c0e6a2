import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from subtail import bernstein, golden
from subtail.bernstein import BernsteinTable, calM, calN
from subtail.errors import DomainError, QuadratureError, RangeError
from subtail.golden import builtin_kernel_set
from subtail.kernels import Power, Tabulated, Truncated, caputo
from subtail.tail_bounds import QUARTER_E2, truncated_small_r_threshold

# the golden enclosure constant of the b-sandwich, (e^2-e)/(e-2)
B_SANDWICH = (math.e**2 - math.e) / (math.e - 2.0)


@pytest.fixture(scope="module")
def tables(kernels):
    return {name: BernsteinTable(k) for name, k in kernels.items()}


@pytest.fixture(scope="module")
def caputo_half(tables):
    return tables["power"]


@pytest.fixture(scope="module")
def built(kernels):
    # reference tables, their grids read
    tabs = {name: BernsteinTable(k, points_per_decade=12) for name, k in kernels.items()}
    for tab in tabs.values():
        tab.phi_grid
    return tabs


class TestStableIdentities:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_phi_prime_H(self, beta):
        tab = BernsteinTable(caputo(beta), points_per_decade=16)
        for lam in (0.01, 1.0, 4.0, 250.0):
            assert tab.phi(lam) == pytest.approx(lam**beta, rel=1e-10)
            assert tab.phi_prime(lam) == pytest.approx(beta * lam ** (beta - 1.0), rel=1e-10)
            assert tab.H(lam) == pytest.approx((1.0 - beta) * lam**beta, rel=1e-10)

    def test_phi_at_zero(self, tables):
        for tab in tables.values():
            assert tab.phi(0.0) == 0.0
            assert tab.H(0.0) == 0.0

    def test_inverses(self, caputo_half):
        assert caputo_half.invert("phi", 2.0) == pytest.approx(4.0, rel=1e-10)
        assert caputo_half.invert("H", 1.0) == pytest.approx(4.0, rel=1e-10)
        assert caputo_half.invert("b", 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_b_closed_form(self, caputo_half):
        # for the 1/2-stable exponent b(s) = s^2/4
        assert caputo_half.b_fun(2.0) == pytest.approx(1.0, rel=1e-10)
        assert caputo_half.b_fun(6.0) == pytest.approx(9.0, rel=1e-10)

    def test_truncated_phi_near_power(self):
        # exact closed form of the Caputo-truncated exponent:
        #   phi(lam) = sqrt(lam) erf(sqrt(lam)) - (1 - e^-lam)/sqrt(pi),
        # so the truncation correction is exactly lam^{-1/2}/sqrt(pi) relative
        from scipy.special import erf

        tab = BernsteinTable(
            Truncated(beta=0.5, delta=1.0, scale=1.0 / gamma_fn(0.5)), points_per_decade=16
        )
        lam = 100.0
        exact = math.sqrt(lam) * erf(math.sqrt(lam)) - (1.0 - math.exp(-lam)) / math.sqrt(math.pi)
        assert exact == pytest.approx(9.435810416452241, rel=1e-12)  # frozen oracle value
        assert tab.phi(lam) == pytest.approx(exact, rel=1e-10)
        assert tab.phi(lam) == pytest.approx(10.0, rel=0.06)  # O(lam^-1/2) relative


class TestQuadOracle:
    """Independent adaptive-quadrature oracle for the panel engine."""

    def test_phi_matches_scipy_quad(self, kernels):
        for name, k in kernels.items():
            for lam in (1e-3, 1.0, 1e4, 1e8):
                tab_val = BernsteinTable(k, points_per_decade=8).phi(lam)
                hi = min(k.support_end, 80.0 / lam)
                pieces = sorted(
                    {1.0 / lam, hi, *(b for b in k.breakpoints() if 0.0 < b < hi)}
                )
                ref = 0.0
                lo = 0.0
                for edge in pieces:
                    if edge <= lo:
                        continue
                    v, _ = quad(
                        lambda u: np.exp(-lam * u) * k.w(u), lo, edge, limit=300, epsabs=1e-300
                    )
                    ref += v
                    lo = edge
                assert tab_val == pytest.approx(lam * ref, rel=1e-8), (name, lam)

    def test_identity_phi_minus_lam_phip_equals_H(self, tables):
        # two independent quadratures must agree
        for name, tab in tables.items():
            for lam in np.geomspace(1e-4, 1e4, 17):
                lhs = tab.phi(lam) - lam * tab.phi_prime(lam)
                assert lhs == pytest.approx(tab.H(lam), rel=1e-8), name


def _b_grid(tab):
    """b on the table's grid, s ascending: with lam = H^{-1}(1/s) running over
    lam_grid, s = 1/H(lam) and b(s) = phi'(lam)/H(lam)."""
    return 1.0 / tab.H_grid[::-1], (tab.phi_prime_grid / tab.H_grid)[::-1]


class TestGridInvariants:
    def test_grid_holds_scalar_values(self, tables):
        # one checked evaluator serves both: every node, bit for bit
        for name, tab in tables.items():
            assert np.array_equal(tab.phi(tab.lam_grid), tab.phi_grid), name
            assert np.array_equal(tab.H(tab.lam_grid), tab.H_grid), name
            assert np.array_equal(tab.phi_prime(tab.lam_grid), tab.phi_prime_grid), name

    def test_phi_increasing_concave(self, tables):
        for name, tab in tables.items():
            assert np.all(np.diff(tab.phi_grid) > 0.0), name
            slopes = np.diff(tab.phi_grid) / np.diff(tab.lam_grid)
            assert np.all(np.diff(slopes) <= 1e-12 * slopes[:-1]), name  # concavity

    def test_H_increasing_below_phi(self, tables):
        for name, tab in tables.items():
            assert np.all(np.diff(tab.H_grid) > 0.0), name
            assert np.all(tab.H_grid <= tab.phi_grid * (1.0 + 1e-12)), name

    def test_b_increasing_with_limits(self, tables):
        # Lemma: b strictly increasing, b(0+) = 0, b(inf) = inf
        for name, tab in tables.items():
            b_s, b = _b_grid(tab)
            assert np.all(np.diff(b_s) > 0.0), name
            assert np.all(np.diff(b) > 0.0), name
            assert b[0] < 1e-6 and b[-1] > 1e6, name

    def test_phiHw_comparability(self, tables):
        # phi(l) within [1/4,4] of l*int_0^{1/l} w; H within [1/8,8] of its moment
        for name, tab in tables.items():
            br = tab.phiHw_brackets()
            assert 0.25 <= br["phi"][0] <= br["phi"][1] <= 4.0, (name, br)
            assert 0.125 <= br["H"][0] <= br["H"][1] <= 8.0, (name, br)


_ZERO_TAIL_KNOTS = np.geomspace(1e-3, 1e2, 17)
_ZERO_TAIL = Tabulated(knots=tuple(zip(_ZERO_TAIL_KNOTS, 0.8 * _ZERO_TAIL_KNOTS**-0.6)), tail="zero")


class TestArrayEvaluator:
    """One evaluator serves every query: a value never depends on its batch."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    def test_batch_equals_one_element_calls(self, kernels, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(bernstein, "_PANEL_CHUNK", chunk)
        rng = np.random.default_rng(11)
        lam = 10.0 ** rng.uniform(-8.0, 8.0, 40)
        # duplicates, and lambdas around those at which the truncation point 1
        # is an end of the panel range
        lam = np.concatenate([lam, lam[:6], [1e-5, 50.0, 1e-5 * 1.001, 50.0 / 1.001]])
        rng.shuffle(lam)
        for name, k in {**kernels, "tabulated-zero": _ZERO_TAIL}.items():
            if k.breakpoints():  # the batch mixes several panel counts
                _, panels = bernstein._panel_edges(k, 1e-5 / lam, 50.0 / lam)
                assert len(set(panels.tolist())) > 1, name
            batch = bernstein._bernstein_values(k, lam, 1e-10)
            ones = [bernstein._bernstein_values(k, lam[i : i + 1], 1e-10) for i in range(lam.size)]
            for col in range(3):
                assert np.array_equal(batch[col], [v[col][0] for v in ones]), (name, chunk, col)

    def test_array_query_is_one_evaluator_call(self, monkeypatch):
        # an array goes through the scalar memo: one call on its distinct
        # positive lambdas, and none when it is asked again
        calls = []
        evaluate = bernstein._bernstein_values
        monkeypatch.setattr(bernstein, "_bernstein_values",
                            lambda k, lam, rtol: calls.append(lam.size) or evaluate(k, lam, rtol))
        tab = BernsteinTable(caputo(0.5))
        lam = np.array([[0.0, 1.0, 4.0], [9.0, 0.25, 1.0]])
        first = tab.phi(lam)
        assert np.allclose(first, np.sqrt(lam), rtol=1e-10, atol=0.0)
        assert calls == [4]
        assert np.array_equal(tab.phi(lam), first)
        assert calls == [4]

    def test_build_memory_is_bounded_by_the_panel_chunk(self, kernels):
        # Chunks of at most _PANEL_CHUNK panels bound the build's node arrays:
        # one (panels, 64) float array of a chunk is _PANEL_CHUNK * 64 * 8 B,
        # and a chunk holds at most 16 of them at once.  Beside them live the
        # padded edges, n_lambda * (24 + breakpoints) floats, at most 3 copies.
        k = kernels["tabulated"]
        BernsteinTable(k, points_per_decade=4).phi_grid  # moment tables, imports
        tracemalloc.start()
        try:
            tab = BernsteinTable(k, points_per_decade=96)
            tab.phi_grid  # the build
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = bernstein._PANEL_CHUNK * 64 * 8
        edges = tab.lam_grid.size * (24 + len(k.breakpoints())) * 8
        assert peak <= 16 * chunk + 3 * edges, (peak, chunk, edges)


class TestLazyGrid:
    """The grid is built by one evaluator call at the first read of any of its
    attributes; construction and the queries phi(), H(), phi_prime() never
    build it."""

    @pytest.fixture
    def array_calls(self, monkeypatch):
        calls = []
        evaluate = bernstein._bernstein_values

        def counting(kernel, lam, rtol):
            if lam.size > 1:
                calls.append(lam.size)
            return evaluate(kernel, lam, rtol)

        monkeypatch.setattr(bernstein, "_bernstein_values", counting)
        return calls

    def test_construction_and_scalar_queries_build_nothing(self, array_calls):
        tab = BernsteinTable(caputo(0.5))
        assert tab.phi(4.0) == pytest.approx(2.0, rel=1e-10)
        tab.H(4.0), tab.phi_prime(4.0)
        assert array_calls == []

    @pytest.mark.parametrize("first", sorted(bernstein._GRID_ATTRS))
    def test_the_first_grid_read_builds_every_grid_attribute(self, array_calls, first):
        tab = BernsteinTable(caputo(0.5), points_per_decade=4)
        value = getattr(tab, first)
        for name in sorted(bernstein._GRID_ATTRS):
            getattr(tab, name)
        assert array_calls == [tab.lam_grid.size]
        assert getattr(tab, first) is value

    def test_other_missing_attributes_raise_attribute_error(self, array_calls):
        tab = BernsteinTable(caputo(0.5), points_per_decade=4)
        with pytest.raises(AttributeError, match="no attribute 'psi_grid'"):
            tab.psi_grid
        assert not hasattr(tab, "grid") and array_calls == []


class TestBuildErrors:
    """A failed build reports the first failing node in grid order, and there
    the first failing integral (phi, H, phi'), as a grid starting at that node does.
    The grid is built, and fails, at its first read."""

    def test_quadrature_error_at_the_first_node(self):
        with pytest.raises(QuadratureError) as built:
            BernsteinTable(caputo(0.5), quad_rtol=1e-17).phi_grid
        with pytest.raises(QuadratureError) as alone:
            BernsteinTable(caputo(0.5), lam_lo=1e-9, lam_hi=1e-8, points_per_decade=1,
                           quad_rtol=1e-17).phi_grid
        for err in (built.value, alone.value):
            assert str(err) == "Laplace integral of phi did not converge at lambda=1e-09"
            assert err.target == 1e-17
        assert built.value.achieved == alone.value.achieved
        assert built.value.achieved == pytest.approx(2.30e-16, rel=5e-3)

    def test_domain_error_names_the_largest_supported_lambda(self):
        with pytest.raises(DomainError) as built:
            BernsteinTable(caputo(0.5), lam_hi=1e200, points_per_decade=4).phi_grid
        assert str(built.value) == (
            "lambda=1e+154 is above the largest supported lambda 6.703903964971299e+153 "
            "of this kernel (its truncated moments or its panels overflow)")

    def test_earlier_node_decides_between_the_two(self):
        # the failing quadrature at 1e-9 comes before the unsupported 1e154 ...
        with pytest.raises(QuadratureError, match="lambda=1e-09"):
            BernsteinTable(caputo(0.5), lam_hi=1e200, points_per_decade=4,
                           quad_rtol=1e-17).phi_grid
        # ... and the unsupported 1e-120 before any failing quadrature
        with pytest.raises(DomainError, match="lambda=1e-120 is below the smallest supported"):
            BernsteinTable(caputo(0.5), lam_lo=1e-120, points_per_decade=4,
                           quad_rtol=1e-17).phi_grid

    @pytest.mark.parametrize("grid", [
        {"lam_lo": 0.0},
        {"lam_lo": 1.0, "lam_hi": 0.5},
        {"lam_lo": 1e-320},
        {"lam_hi": math.inf},
        {"lam_lo": math.nan},
        {"points_per_decade": 0},
        {"points_per_decade": -4},
        {"lam_lo": 1.0, "lam_hi": 1.001, "points_per_decade": 1},
    ])
    def test_bad_grid_is_domain_error(self, grid):
        with pytest.raises(DomainError, match="lambda grid"):
            BernsteinTable(caputo(0.5), **grid)


class TestFirstMiss:
    """The evaluator's check goes over (lambda, integral) in that order: an
    array fails at its first failing lambda, there at its first failing
    integral (phi, H, phi'), and an unsupported lambda is a failing one."""

    # relative shifts of the 24-node sums (phi, H, phi') per lambda; 1e-120 is
    # below the smallest supported lambda
    SHIFTS = {1e-3: (0.0, 0.0, 0.0), 7.0: (0.0, 1e-6, 1e-6), 1e-120: None,
              1.0: (0.0, 0.0, 1e-6), 1e6: (1e-6, 1e-6, 0.0)}

    def test_first_failing_lam_then_its_first_failing_integral(self, monkeypatch):
        check, outcomes = bernstein.checked, set()
        for order in itertools.permutations(self.SHIFTS):
            shifts = np.array([self.SHIFTS[lam] or (0.0,) * 3 for lam in order])
            # the evaluator checks a prefix of order, the lambdas before an unsupported one
            monkeypatch.setattr(bernstein, "checked", lambda c, f, *a: check(
                c * (1.0 + shifts[: len(c)]), f, *a))
            first = next(lam for lam in order if self.SHIFTS[lam] != (0.0, 0.0, 0.0))
            with pytest.raises((DomainError, QuadratureError)) as err:
                bernstein._bernstein_values(caputo(0.5), np.array(order), 1e-8)
            if self.SHIFTS[first] is None:
                assert err.type is DomainError
                assert str(err.value).startswith("lambda=1e-120 is below the smallest supported")
                outcomes.add("unsupported")
            else:
                name = bernstein._NAMES[int(np.argmax(self.SHIFTS[first]))]
                assert err.type is QuadratureError
                assert str(err.value) == (
                    "Laplace integral of %s did not converge at lambda=%g" % (name, first))
                assert err.value.achieved == pytest.approx(1e-6, rel=1e-6)
                assert err.value.target == 1e-8
                outcomes.add(name)
        assert outcomes == {"unsupported", "phi", "H", "phi'"}

    @pytest.mark.parametrize("query", ["phi", "H", "phi_prime"])
    def test_an_infinite_integral_is_refused(self, query):
        # the exact phi(1e14) is 1.77e307, but the panel sums overflow to inf
        tab = BernsteinTable(Power(beta=0.5, scale=1e300))
        assert math.isfinite(getattr(tab, query)(1e10))
        with pytest.raises(QuadratureError, match=r"did not converge at lambda=1e\+14") as err:
            getattr(tab, query)(1e14)
        assert math.isnan(err.value.achieved) and err.value.target == tab.quad_rtol

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("query", ["phi", "H", "phi_prime"])
    def test_an_infinite_integral_is_refused_without_a_warning(self, query):
        # numpy's overflow in the integrands is not reported before the refusal
        tab = BernsteinTable(Power(beta=0.5, scale=1e300))
        for lam in (1e14, [1e10, 1e14]):
            with pytest.raises(QuadratureError, match=r"did not converge at lambda=1e\+14"):
                getattr(tab, query)(lam)

    @pytest.mark.parametrize("query", ["phi", "H", "phi_prime"])
    def test_a_nan_lambda_is_refused_by_name(self, query, monkeypatch):
        monkeypatch.setattr(bernstein, "_bernstein_values", None)  # nothing is evaluated
        tab = BernsteinTable(caputo(0.5))
        for lam in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError, match="^%s requires a lambda that is not NaN$" % query):
                getattr(tab, query)(lam)


class TestBSandwich:
    def test_sandwich_all_kernels(self, tables):
        # phi(1/s)^{-1} <= b^{-1}(s) <= 6.49569 phi(1/s)^{-1}, no violations
        svals = np.geomspace(1e-3, 1e3, 12)
        for name, tab in tables.items():
            for s in svals:
                binv = tab.invert("b", s)
                ref = 1.0 / tab.phi(1.0 / s)
                ratio = binv / ref
                assert 1.0 - 1e-9 <= ratio <= 6.49569, (name, s, ratio)

    def test_stable_ratio_is_two(self, caputo_half):
        for s in (0.1, 1.0, 10.0):
            assert caputo_half.invert("b", s) * caputo_half.phi(1.0 / s) == pytest.approx(
                2.0, rel=1e-9
            )


class TestDecayLemmas:
    def test_cauchy_bound_small_time(self, kernels, tables):
        # H(1/t)^{d+1} <= C phi(1/t)^d w(t) on t <= t_s with stable fitted C
        from subtail.kernels import check_conditions

        for name in ("power", "truncated", "distributed"):
            k, tab = kernels[name], tables[name]
            rep = check_conditions(k, points_per_decade=16)
            d1, t_s = rep.spoly["delta1"], rep.spoly["t_s"]
            t_hi = min(t_s, 10.0)

            def fitted_C(n):
                ts = np.geomspace(1e-5, t_hi, n)
                vals = [
                    tab.H(1.0 / t) ** (d1 + 1.0) / (tab.phi(1.0 / t) ** d1 * k.w(t)) for t in ts
                ]
                return max(vals)

            c1, c2 = fitted_C(12), fitted_C(24)
            assert np.isfinite(c1) and c1 > 0.0
            assert abs(c2 / c1 - 1.0) < 0.5, name

    def test_decaycomp_large_time(self, kernels, tables):
        # phi(1/t)^{d2+1} <= C w(t) for t >= t0 under (L.Poly.)
        from subtail.kernels import check_conditions

        for name in ("power", "distributed"):
            k, tab = kernels[name], tables[name]
            rep = check_conditions(k, points_per_decade=16)
            d2 = rep.lpoly["delta2"]

            def fitted_C(n):
                ts = np.geomspace(1.0, 1e5, n)
                return max(tab.phi(1.0 / t) ** (d2 + 1.0) / k.w(t) for t in ts)

            c1, c2 = fitted_C(12), fitted_C(24)
            assert np.isfinite(c1) and c1 > 0.0
            assert abs(c2 / c1 - 1.0) < 0.5, name


class TestBarPhi:
    def test_stable_closed_form(self, caputo_half):
        # s^2/phi(s) = s^{3/2}, so bar_phi_2(lam) = lam^{2/3}
        assert caputo_half.bar_phi_alpha(2.0, 8.0) == pytest.approx(4.0, rel=1e-9)
        for lam in (0.05, 1.0, 30.0):
            assert caputo_half.bar_phi_alpha(2.0, lam) == pytest.approx(lam ** (2.0 / 3.0), rel=1e-9)

    def test_zero_lambda(self, tables):
        for tab in tables.values():
            assert tab.bar_phi_alpha(2.0, 0.0) == 0.0

    def test_grid_node_targets(self, tables):
        # g_grid is s^2/phi(s) on the grid, computed apart from the g that
        # brentq solves; targets on a node and one ulp either side must still
        # bracket
        for tab in tables.values():
            g_grid = tab.lam_grid**2 / tab.phi_grid
            for node in g_grid[::16]:
                for lam in (np.nextafter(node, 0.0), node, np.nextafter(node, np.inf)):
                    s = tab.bar_phi_alpha(2.0, lam)
                    assert s**2 / tab.phi(s) == pytest.approx(lam, rel=1e-12)

    def test_unreachable_target_is_range_error(self, caputo_half):
        with pytest.raises(RangeError):
            caputo_half.bar_phi_alpha(2.0, 1e300)

    def test_target_below_smallest_lambda_is_range_error(self, caputo_half):
        # s^2/phi(s) = s^{3/2} reaches 1e-300 only at s = 1e-200, below the
        # smallest lambda at which phi of this kernel can be evaluated
        with pytest.raises(RangeError):
            caputo_half.bar_phi_alpha(2.0, 1e-300)

    def test_truncated_large_lambda_asymptote(self):
        from scipy.optimize import brentq as brentq_oracle
        from scipy.special import erf

        tab = BernsteinTable(
            Truncated(beta=0.5, delta=1.0, scale=1.0 / gamma_fn(0.5)), points_per_decade=16
        )
        # bisection oracle on the exact closed-form exponent
        phi_exact = lambda s: math.sqrt(s) * erf(math.sqrt(s)) - (1.0 - math.exp(-s)) / math.sqrt(
            math.pi
        )
        for lam in (8.0, 1e4):
            oracle = brentq_oracle(lambda s: s**2 / phi_exact(s) - lam, 1e-6, 1e9)
            assert tab.bar_phi_alpha(2.0, lam) == pytest.approx(oracle, rel=1e-6)
        # phi ~ lam^{1/2} at large lam so bar_phi_2 approaches lam^{2/3}
        assert tab.bar_phi_alpha(2.0, 1e4) == pytest.approx(1e4 ** (2.0 / 3.0), rel=0.05)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_fresh_table_builds_no_grid_and_keeps_its_bits(self, kernels, built, alpha):
        # targets inside the grid's range, below the limit at 0 (alpha = 1,
        # finite-mean kernels) and at nodes
        for name, k in kernels.items():
            ref = built[name]
            n = len(ref.lam_grid)
            lams = [1e-3, 0.37, 1.0, 42.0, 1e4] + [
                float(ref.lam_grid[j] ** alpha / ref.phi_grid[j]) for j in (n // 3, n // 2, 2 * n // 3)]
            want = [_reference_bar_phi(ref, alpha, lam).hex() for lam in lams]
            fresh = BernsteinTable(k, points_per_decade=12)
            assert [fresh.bar_phi_alpha(alpha, lam).hex() for lam in lams] == want, name
            assert "phi_grid" not in vars(fresh), name
            assert [ref.bar_phi_alpha(alpha, lam).hex() for lam in lams] == want, name

    def test_envelope_flag_below_one(self, caputo_half):
        # alpha = 0.3 < beta' region: s^0.3/s^0.5 decreasing -> envelope path
        with pytest.warns(RuntimeWarning):
            caputo_half.bar_phi_alpha(0.3, 0.5)


class TestSmallestLambda:
    def test_panel_overflow_is_domain_error(self):
        # the truncated kernel's head moments stay finite, but the panel end
        # 50/lambda overflows below ~2.8e-307 and 1e-5/lambda at 5e-324
        tab = BernsteinTable(Truncated(0.5, 1.0, 1.0), points_per_decade=4)
        for lam in (1e-310, 5e-324):
            with pytest.raises(DomainError, match="smallest supported lambda"):
                tab.phi(lam)
        with pytest.raises(DomainError, match="largest supported lambda"):
            tab.phi(1e200)

    def test_bar_phi_turns_domain_error_into_range_error(self):
        # s^2/phi(s) ~ s/E[S_1] = s near 0, so 1e-308 is reached only below
        # the smallest supported lambda (~3.6e-307), where the search ends
        tab = BernsteinTable(Truncated(0.5, 1.0, 1.0), lam_lo=1e-150, lam_hi=1.0, points_per_decade=1)
        with pytest.raises(RangeError) as info:
            tab.bar_phi_alpha(2.0, 1e-308)
        assert isinstance(info.value.__cause__, DomainError)

    def test_bar_phi_below_the_limit_at_zero_is_zero(self):
        # s/phi(s) falls to 1/E[S_1] = 1/int_0^inf w = 1 as s -> 0, so every
        # s > 0 has s/phi(s) >= 0.5, whatever the grid's smallest lambda
        kern = Truncated(0.5, 1.0, 1.0)
        for tab in (BernsteinTable(kern),
                    BernsteinTable(kern, lam_lo=1e-150, lam_hi=1.0, points_per_decade=1)):
            assert tab.bar_phi_alpha(1.0, 0.5) == 0.0

    def test_moment_overflow_is_domain_error(self, caputo_half):
        # the head moments int_0^{1e-5/lam} u^k w(u) du overflow a float here
        for query in (caputo_half.phi, caputo_half.phi_prime, caputo_half.H):
            with pytest.raises(DomainError, match="smallest supported lambda"):
                query(1e-100)

    def test_named_floor_is_supported(self, caputo_half):
        with pytest.raises(DomainError) as info:
            caputo_half.phi(1e-300)
        floor = float(str(info.value).split("smallest supported lambda ")[1].split()[0])
        assert 1e-100 < floor < 1e-80
        # phi(lam) = lam^{1/2} holds down to the named floor
        assert caputo_half.phi(floor) == pytest.approx(math.sqrt(floor), rel=1e-8)


def _scanned_edge(kernel, lam):
    """The edge _unsupported names, by the scan of every power of 2 from 1
    towards lam: the last supported one before the first unsupported."""
    up = lam >= 1.0
    with np.errstate(over="ignore"):
        powers = np.ldexp(1.0, np.arange(1, 1080) if up else -np.arange(1, 1080))
    j = int(np.argmin(bernstein._supported(kernel, powers)[3]))
    return float(powers[j - 1]) if j else 1.0


@pytest.mark.parametrize("lam", [1e-320, 1e300], ids=["below", "above"])
@pytest.mark.parametrize("name", sorted(builtin_kernel_set()))
def test_unsupported_bisects_to_the_scanned_edge(monkeypatch, name, lam):
    kern = builtin_kernel_set()[name]
    edge = _scanned_edge(kern, lam)
    calls = []
    supported = bernstein._supported
    monkeypatch.setattr(bernstein, "_supported", lambda k, l: calls.append(l.size) or supported(k, l))
    err = bernstein._unsupported(kern, lam)
    assert set(calls) == {1} and len(calls) <= 11  # one lambda per call
    assert " supported lambda %r of this kernel " % edge in str(err)


def _scipy_brentq(g, lo, hi):
    from scipy.optimize import brentq

    return brentq(g, lo, hi, xtol=bernstein._XTOL, rtol=bernstein._RTOL,
                  maxiter=bernstein._MAXITER)


def _seeded_brackets(n=500):
    """(g, lo, hi): increasing power, log, tanh, cubic and tiny linear g
    around seeded roots, on seeded brackets from 1e-3 to 1e3 times the root
    wide.  Products of the tiny g's values underflow to 0, so Brent's
    extrapolation divides by zero, as scipy's C does without an error."""
    rng = np.random.default_rng(20240612)
    out = []
    for _ in range(n):
        r = float(10.0 ** rng.uniform(-8.0, 8.0))
        lo = r * float(10.0 ** rng.uniform(-3.0, 0.0))
        hi = r * float(10.0 ** rng.uniform(0.0, 3.0))
        p, a = float(rng.uniform(0.2, 3.0)), float(10.0 ** rng.uniform(-2.0, 2.0))
        c, tiny = r**p, float(10.0 ** rng.uniform(-300.0, -150.0))
        out += [
            (lambda x, p=p, c=c: x**p - c, lo, hi),
            (lambda x, r=r: math.log(x) - math.log(r), lo, hi),
            (lambda x, r=r, a=a: math.tanh(a * (x / r - 1.0)), lo, hi),
            (lambda x, r=r, a=a: (x - r) ** 3 + a * r * r * (x - r), lo, hi),
            (lambda x, r=r, tiny=tiny: tiny * (x / r - 1.0), lo, hi),
        ]
    return out


class TestBrent:
    # the port keeps scipy.optimize.brentq's roots bit for bit, so replacing
    # it moved no number of the package

    def test_port_matches_scipy_on_seeded_brackets(self):
        for g, lo, hi in _seeded_brackets():
            root = bernstein._drive(bernstein._brent_steps(lo, hi), g)
            assert root.hex() == _scipy_brentq(g, lo, hi).hex(), (lo, hi)

    def test_port_matches_scipy_on_table_solves(self, tables, monkeypatch):
        # every table solve runs the step generator; each recorded solve is
        # repeated by scipy on the same g and bracket
        solves, g = [], []

        def recording(xa, xb):
            x = yield from steps(xa, xb)
            solves.append((g[0], xa, xb, x))
            return x

        steps = bernstein._brent_steps
        monkeypatch.setattr(bernstein, "_brent_steps", recording)
        for tab in tables.values():
            for y in (1e-3, 0.37, 1.0, 42.0, 1e4):
                g[:] = [lambda lam, tab=tab, y=y: y - tab.phi_prime(lam) / tab.H(lam)]
                tab.invert("b", y)
            for alpha in (1.0, 1.5, 2.0):
                for lam in (1e-2, 0.9, 3.0, 1e3):
                    g[:] = [lambda s, tab=tab, a=alpha, lam=lam:
                            a * math.log(s) - math.log(tab.phi(s)) - math.log(lam)]
                    tab.bar_phi_alpha(alpha, lam)
        assert len(solves) >= 5 * 15
        for f, xa, xb, x in solves:
            assert x.hex() == _scipy_brentq(f, xa, xb).hex(), (xa, xb)

    def test_nan_inside_the_bracket_is_range_error(self):
        # increasing where defined; the first secant step lands at x = 1
        g = lambda x: math.nan if 0.75 < x < 1.25 else x - 1.0
        with pytest.raises(RangeError) as info:
            bernstein.increasing_root(g, 0.5, 4.0)
        assert info.value.bracket == (0.5, 4.0)

    def test_no_convergence_is_range_error(self):
        # a step at 1 is found by halving the bracket, and 2^900 takes ~940
        # halvings to shrink to 1e-14
        g = lambda x: -1.0 if x < 1.0 else 1.0
        with pytest.raises(RangeError) as info:
            bernstein.increasing_root(g, 0.5, 2.0**900)
        assert info.value.bracket == (0.5, 2.0**900)


def _grid_root(tab, g_grid, g):
    """Root of g, increasing in lambda, from the first bracket that
    np.searchsorted(g_grid, 0.0) picks on the table's built grid (the factor 4
    past an end for a root beyond it), then the scalar increasing_root."""
    lam = tab.lam_grid
    j = int(np.searchsorted(g_grid, 0.0))
    if j == 0:
        lo, hi = lam[0] / 4.0, lam[0]
    elif j == len(lam):
        lo, hi = lam[-1], lam[-1] * 4.0
    else:
        lo, hi = lam[j - 1], lam[j]
    return bernstein.increasing_root(g, lo, hi)


def _reference_invert(tab, which, y):
    """invert by ``_grid_root``, one target at a time."""
    y = float(y)
    g_grid, g = {
        "phi": (tab.phi_grid - y, lambda lam: tab.phi(lam) - y),
        "H": (tab.H_grid - y, lambda lam: tab.H(lam) - y),
        "phi_prime": (y - tab.phi_prime_grid, lambda lam: y - tab.phi_prime(lam)),
        "b": (y - tab.phi_prime_grid / tab.H_grid, lambda lam: y - tab.phi_prime(lam) / tab.H(lam)),
    }[which]
    root = _grid_root(tab, g_grid, g)
    return 1.0 / tab.H(root) if which == "b" else root


def _reference_bar_phi(tab, alpha, lam):
    """bar_phi_alpha at alpha >= 1 by ``_grid_root`` on the log grid
    alpha log(lam_grid) - log(phi_grid) - log(lam)."""
    if lam <= (1.0 / tab.kernel.moment(0, math.inf) if alpha == 1.0 else 0.0):
        return 0.0
    log_lam = math.log(lam)
    g = lambda s: alpha * math.log(s) - math.log(tab.phi(s)) - log_lam
    return _grid_root(tab, alpha * np.log(tab.lam_grid) - np.log(tab.phi_grid) - log_lam, g)


def _targets(tab, which):
    """Values of the map at lambda past both ends of the grid, off the grid
    and at nodes (the grid's own values), with a repeat."""
    grid = {"phi": tab.phi_grid, "H": tab.H_grid, "phi_prime": tab.phi_prime_grid,
            "b": _b_grid(tab)[1]}[which]
    lam = np.array([1e-12, 3e-10, 0.37, 1.0, 42.0, 7e9, 1e12])
    fwd = {"phi": tab.phi, "H": tab.H, "phi_prime": tab.phi_prime,
           "b": lambda l: tab.phi_prime(l) / tab.H(l)}[which](lam)
    n = len(grid)
    return np.concatenate([fwd, grid[[0, 1, n // 3, n // 2, n - 2, n - 1, n // 2]]])


class TestLockstepInvert:
    """invert solves an array of targets in lockstep, from first brackets
    probed without building the grid, to the bits of the scalar reference."""

    @pytest.mark.parametrize("which", ["phi", "H", "phi_prime", "b"])
    def test_array_equals_the_scalar_reference(self, kernels, built, which):
        for name, k in kernels.items():
            ref = built[name]
            y = _targets(ref, which)
            want = [_reference_invert(ref, which, v).hex() for v in y]
            fresh = BernsteinTable(k, points_per_decade=12)
            assert [v.hex() for v in fresh.invert(which, y).tolist()] == want, name
            assert "phi_grid" not in vars(fresh), name
            # a built grid answers the probes at its nodes with the same bits
            assert [v.hex() for v in ref.invert(which, y).tolist()] == want, name
            assert fresh.invert(which, y[2]).hex() == want[2], name

    def test_scalar_and_shaped_targets(self, caputo_half):
        y = np.array([[0.5, 2.0], [3.0, 8.0]])
        x = caputo_half.invert("phi", y)
        assert x.shape == (2, 2)
        assert isinstance(caputo_half.invert("phi", 2.0), float)
        assert x[1, 1] == caputo_half.invert("phi", 8.0)
        assert caputo_half.invert("H", np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_range_error_before_any_evaluation(self, monkeypatch, bad):
        calls = []
        evaluate = bernstein._bernstein_values
        monkeypatch.setattr(bernstein, "_bernstein_values",
                            lambda *a: calls.append(1) or evaluate(*a))
        tab = BernsteinTable(caputo(0.5))
        for which in ("phi", "H", "phi_prime", "b"):
            for y in (bad, [2.0, 3.0, bad]):
                with pytest.raises(RangeError, match="invert target %s is not finite" % bad):
                    tab.invert(which, y)
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_b_refuses_a_non_finite_or_non_positive_s_before_any_evaluation(self, monkeypatch, bad):
        monkeypatch.setattr(bernstein, "_bernstein_values", None)  # nothing is evaluated
        tab = BernsteinTable(caputo(0.5))
        for s in (bad, [2.0, bad], np.array([[bad, 3.0]])):
            with pytest.raises(DomainError, match="^b requires a finite s > 0$"):
                tab.b_fun(s)

    def test_array_raises_what_its_first_failing_target_raises(self):
        tab = BernsteinTable(caputo(0.5))
        with pytest.raises(DomainError) as alone:
            tab.invert("phi", 1e200)
        with pytest.raises(DomainError) as among:
            tab.invert("phi", [2.0, 1e200, 3.0])
        assert str(among.value) == str(alone.value)
        assert "largest supported lambda" in str(alone.value)
        # in lockstep the second target's downward bracket search fails
        # first; the array still raises the first target's error
        with pytest.raises(DomainError) as both:
            tab.invert("phi", [1e200, 1e-200])
        assert str(both.value) == str(alone.value)

    def test_criterion_2_builds_no_grid(self):
        made = []

        def tables(kernel):
            made.append(BernsteinTable(kernel))
            return made[-1]

        assert golden.crit_2_b_sandwich(tables)["passed"]
        assert len(made) == 5
        assert not any("phi_grid" in vars(tab) for tab in made)

    def test_conditions_are_the_kernels_certified_once_per_table(self, monkeypatch):
        calls = []
        real = bernstein.check_conditions
        monkeypatch.setattr(bernstein, "check_conditions", lambda k: calls.append(k) or real(k))
        made = [BernsteinTable(k, points_per_decade=8) for k in builtin_kernel_set().values()]
        for tab in made:
            first = tab.conditions
            assert tab.conditions is first
            assert asdict(first) == asdict(real(tab.kernel))
            assert "phi_grid" not in vars(tab)
        assert calls == [tab.kernel for tab in made]

    def test_truncated_r0_builds_no_grid_and_keeps_its_bits(self):
        k = Truncated(beta=0.5, delta=1.0, scale=1.0)
        fresh, ref = BernsteinTable(k), BernsteinTable(k)
        r0 = truncated_small_r_threshold(fresh)
        assert "phi_grid" not in vars(fresh)
        root = _grid_root(ref, QUARTER_E2 - ref.phi_grid / ref.lam_grid,
                          lambda lam: QUARTER_E2 - ref.phi(lam) / lam)
        assert r0 < k.support_end / 6.0
        assert r0.hex() == (1.0 / root).hex()


_finite_or_not = st.one_of(st.floats(), st.sampled_from([-1.0, 0.0, -0.0, 1.0, math.nan]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_finite_or_not, max_size=70))
def test_probe_search_is_numpy_searchsorted(values):
    # any array: unsorted, with NaN entries, zeros of both signs, infinities
    arr = np.array(values, dtype=float)
    probed = []

    def g(i):
        probed.append(i)
        return arr[i]

    j = bernstein._drive(bernstein._probe_search(range(arr.size)), g)
    assert j == np.searchsorted(arr, 0.0)
    assert len(probed) <= math.ceil(math.log2(arr.size + 1))


class TestVariational:
    def test_calM_quadratic(self):
        for t in (0.1, 1.0, 7.0):
            for l in (0.2, 2.0, 20.0):
                assert calM(2.0, t, l) == pytest.approx(l * l / (4.0 * t), rel=1e-9)

    def test_calM_cubic(self):
        # closed form: s* = (3t/l)^{1/2}, M = 2 (l/3)^{3/2} t^{-1/2}
        got = calM(3.0, 1.0, 3.0)
        assert got == pytest.approx(2.0, rel=1e-9)
        t, l = 0.7, 5.0
        want = 2.0 * (l / 3.0) ** 1.5 * t**-0.5
        assert calM(3.0, t, l) == pytest.approx(want, rel=1e-9)

    def test_calM_fixed_point_band(self):
        # M(Phi(l), l) lies in a band of spread <= 4 across l
        for alpha in (1.5, 2.0, 3.0):
            vals = [calM(alpha, l**alpha, l) for l in np.geomspace(1e-3, 1e3, 13)]
            assert max(vals) / min(vals) <= 4.0

    def test_calM_time_scaling(self):
        # M(T,l)/M(t,l) = (T/t)^{-1/(alpha-1)} exactly for power shapes
        for alpha in (1.5, 2.0):
            for t in (0.01, 0.1):
                T = 1.0
                got = calM(alpha, T, 1.0) / calM(alpha, t, 1.0)
                want = (T / t) ** (-1.0 / (alpha - 1.0))
                assert got == pytest.approx(want, rel=1e-8)

    def test_calM_decreasing_in_t(self):
        ts = np.geomspace(0.01, 10.0, 15)
        vals = [calM(2.0, t, 1.0) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_calM_matches_numeric_sup(self, alpha):
        # golden criterion 6's grid; the sup of l/s - t/s^alpha at 30 digits, at
        # the root of its first-order condition in u = log s
        grid = [(t, l) for t in np.geomspace(0.05, 20.0, 10) for l in np.geomspace(0.05, 20.0, 10)]
        with mp.workdps(30):
            a = mp.mpf(alpha)
            for t, l in grid:
                T, L = mp.mpf(t), mp.mpf(l)
                foc = lambda u: (-L * mp.exp(-u) + a * T * mp.exp(-a * u)) * mp.exp(u)
                s = mp.exp(mp.findroot(foc, (-40, 40), solver="ridder"))
                want = float(L / s - T / s**a)
                assert calM(alpha, t, l) == pytest.approx(want, rel=1e-12), (t, l)

    def test_calM_zero_distance_and_arrays(self):
        assert calM(2.0, 0.3, 0.0) == 0.0
        t = np.geomspace(0.01, 10.0, 7)[:, None]
        l = np.array([0.0, 0.1, 1.0, 30.0])
        got = calM(1.5, t, l)
        assert got.shape == (7, 4)
        want = [[calM(1.5, float(ti), float(li)) for li in l] for ti in t[:, 0]]
        assert np.array_equal(got, np.array(want))

    def test_calM_rejects_alpha_below_one(self):
        with pytest.raises(DomainError):
            calM(0.9, 1.0, 1.0)

    def test_calN_stable_example(self, caputo_half):
        # phi^{-1}(x) = x^2, Phi = s^2: optimum at s = 1 gives N = 3
        assert calN(caputo_half, 2.0, 1.0, 4.0) == pytest.approx(3.0, rel=1e-6)

    def test_calN_nonincreasing_in_t(self, caputo_half):
        ts = np.geomspace(0.05, 5.0, 10)
        vals = [calN(caputo_half, 2.0, t, 4.0) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_defining_relation_M(self):
        # t/M comparable to Phi(l/M) with two-sided ratio in [1/8, 8]
        for t in np.geomspace(0.1, 10.0, 5):
            for l in np.geomspace(0.1, 10.0, 5):
                M = calM(2.0, t, l)
                ratio = (t / M) / (l / M) ** 2.0
                assert 1.0 / 8.0 <= ratio <= 8.0

    def test_defining_relation_N(self, caputo_half):
        # 1/phi(N/t) comparable to Phi(l/N) with ratio in [1/8, 8]
        for t in np.geomspace(0.1, 10.0, 5):
            for l in np.geomspace(0.5, 50.0, 5):
                N = calN(caputo_half, 2.0, t, l)
                ratio = (1.0 / caputo_half.phi(N / t)) / (l / N) ** 2.0
                assert 1.0 / 8.0 <= ratio <= 8.0, (t, l, ratio)


# ---------------------------------------------------------------------------
# Properties of the forward maps and their inverses
# ---------------------------------------------------------------------------

_KERNELS = builtin_kernel_set()
_PROP_TABLES = {name: BernsteinTable(k, points_per_decade=8) for name, k in _KERNELS.items()}
_kernel_names = st.sampled_from(sorted(_KERNELS))
_log10_lam = st.floats(-8.0, 8.0)


@settings(max_examples=30, deadline=None)
@given(name=_kernel_names, x=_log10_lam, step=st.floats(1e-3, 2.0))
def test_phi_H_b_monotone(name, x, step):
    tab = _PROP_TABLES[name]
    lo, hi = 10.0**x, 10.0 ** (x + step)
    assert tab.phi(lo) < tab.phi(hi)
    assert tab.H(lo) < tab.H(hi)
    assert tab.b_fun(lo) < tab.b_fun(hi)


@settings(max_examples=30, deadline=None)
@given(name=_kernel_names, x=_log10_lam)
def test_invert_round_trips(name, x):
    tab = _PROP_TABLES[name]
    lam = 10.0**x
    for which, fwd in (("phi", tab.phi), ("H", tab.H), ("phi_prime", tab.phi_prime)):
        assert tab.invert(which, fwd(lam)) == pytest.approx(lam, rel=1e-9), which
    y = tab.b_fun(lam)
    assert tab.invert("b", y) == pytest.approx(lam, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(name=_kernel_names, frac=st.floats(0.0, 1.0))
def test_invert_exact_at_grid_values(name, frac):
    # a grid value is what the forward map returns at its node, so brentq
    # meets a zero at the bracket's end and returns the node itself
    tab = _PROP_TABLES[name]
    j = int(frac * (len(tab.lam_grid) - 1))
    assert tab.invert("phi", tab.phi_grid[j]) == tab.lam_grid[j]
    assert tab.invert("H", tab.H_grid[j]) == tab.lam_grid[j]
    assert tab.invert("phi_prime", tab.phi_prime_grid[j]) == tab.lam_grid[j]
    b_s, b = _b_grid(tab)
    assert tab.invert("b", b[j]) == b_s[j]


# ---------------------------------------------------------------------------
# N(t,l): a maximisation in s on the exact inverse of phi, as a reference
# ---------------------------------------------------------------------------

# the reference's scan nodes u = log s, shared by every (t, l): s from 4^-8
# to 4^8, eight nodes per factor 4
_REF_U = np.linspace(-8.0, 8.0, 129) * math.log(4.0)


def _ref_calN(table, t, l):
    """N(t,l) = sup_s { l/s - t phi^{-1}(1/s^2) } by maximising in u = log s
    with invert("phi"): the best scan node, then successive parabolas
    through u - h, u, u + h at shrinking h, one invert call per step for
    all entries of the 1-D arrays t and l.  The error in N is second order
    in the error of u, which the last parabola leaves below 1e-8."""
    t, l = t[:, None], l[:, None]

    def f(u):
        return l * np.exp(-u) - t * table.invert("phi", np.exp(-2.0 * u))

    def vertex(u, h, vals):
        lo, mid, hi = vals.T
        assert (hi - 2.0 * mid + lo < 0.0).all(), "not concave at the parabola"
        return u - (h * (hi - lo) / (2.0 * (hi - 2.0 * mid + lo)))[:, None]

    F = f(_REF_U[None, :])
    k = np.argmax(F, axis=1)
    assert ((0 < k) & (k < _REF_U.size - 1)).all(), "sup outside the scan"
    u = vertex(_REF_U[k][:, None], _REF_U[1] - _REF_U[0], F[np.arange(len(k))[:, None], k[:, None] + [-1, 0, 1]])
    for h in (1e-2, 1e-3, 1e-4):
        u = vertex(u, h, f(u + [-h, 0.0, h]))
    return f(u)[:, 0]


_N_TABLES = {name: BernsteinTable(k, points_per_decade=24) for name, k in _KERNELS.items()}
# golden criterion 6's (t, l) grid, and criterion 9's (t, rho) grid
_C6_T = _C6_L = np.geomspace(0.05, 20.0, 10)
_C9_T, _C9_RHO = np.array([0.02, 0.1, 0.5]), np.geomspace(2.0, 14.0, 10)


class TestLockstepN:
    @pytest.mark.parametrize("name", sorted(_N_TABLES))
    @pytest.mark.parametrize("ts, ls", [(_C6_T, _C6_L), (_C9_T, _C9_RHO)], ids=["crit6", "crit9"])
    def test_golden_grids_equal_the_scalar_search(self, name, ts, ls):
        tab = _N_TABLES[name]
        got = calN(tab, 2.0, ts[:, None], ls[None, :])
        t, l = np.meshgrid(ts, ls, indexing="ij")
        want = _ref_calN(tab, t.ravel(), l.ravel()).reshape(t.shape)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_scalar_call_is_a_float_equal_to_its_array_entry(self):
        tab = _N_TABLES["power"]
        got = calN(tab, 2.0, _C9_T[:, None], _C9_RHO)
        for i, t in enumerate(_C9_T.tolist()):
            for j, l in enumerate(_C9_RHO.tolist()):
                one = calN(tab, 2.0, t, l)
                assert type(one) is float and one == got[i, j]

    def test_closed_form_oracle(self):
        # phi(lam) = lam^{1/2}, Phi(s) = s^2: N(t,l) = (3/4) l (l/(4t))^{1/3}
        t, l = _C6_T[:, None], _C6_L[None, :]
        got = calN(_N_TABLES["power"], 2.0, t, l)
        np.testing.assert_allclose(got, 0.75 * l * (l / (4.0 * t)) ** (1.0 / 3.0), rtol=1e-12)

    def test_criteria_6_and_9_build_no_grid(self):
        tab = BernsteinTable(caputo(0.5), points_per_decade=24)
        calN(tab, 2.0, _C6_T[:, None], _C6_L[None, :])
        calN(tab, 2.0, _C9_T[:, None], _C9_RHO)
        assert "phi_grid" not in vars(tab)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, math.inf, math.nan])
    def test_calN_requires_a_power_shape_above_one(self, alpha):
        # calM and calN take the exponent alpha of Phi(s) = s^alpha
        with pytest.raises(DomainError, match="N\\(t,l\\) requires a power shape s\\^alpha with alpha > 1"):
            calN(_N_TABLES["power"], alpha, 1.0, 1.0)
        with pytest.raises(DomainError, match="M\\(t,l\\) requires a power shape s\\^alpha with alpha > 1"):
            calM(alpha, 1.0, 1.0)

    @pytest.mark.parametrize("t, l", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                      (1.0, -math.inf), (1.0, math.nan), (0.0, 1.0), (1.0, 0.0)])
    def test_calN_refuses_non_finite_or_non_positive_arguments(self, t, l):
        with pytest.raises(DomainError, match="finite t, l > 0"):
            calN(_N_TABLES["power"], 2.0, t, l)
        with pytest.raises(DomainError, match="finite t, l > 0"):
            calN(_N_TABLES["power"], 2.0, [1.0, t], l)

    @pytest.mark.parametrize("t, l", [(1e-300, 1.0), (1.0, 1e300)])
    def test_calN_search_leaving_the_float_range_is_a_range_error(self, t, l):
        named = re.escape("left the float range at t=%r, l=%r" % (t, l))
        with pytest.raises(RangeError, match=named):
            calN(_N_TABLES["power"], 2.0, t, l)
        # in an array, the first failing entry is named
        with pytest.raises(RangeError, match=named):
            calN(_N_TABLES["power"], 2.0, [1.0, t, 1e-299], l)

    @pytest.mark.parametrize("t, l", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                      (1.0, math.nan), (0.0, 1.0), (1.0, -1.0)])
    def test_calM_refuses_non_finite_or_out_of_domain_arguments(self, t, l):
        with pytest.raises(DomainError, match="finite t > 0 and l >= 0"):
            calM(2.0, t, l)
        with pytest.raises(DomainError, match="finite t > 0 and l >= 0"):
            calM(2.0, np.array([1.0, t]), l)

    def test_calM_of_empty_arrays(self):
        assert calM(2.0, 1.0, np.array([])).shape == (0,)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_N_TABLES)), lt=st.floats(-2.0, 2.0), ll=st.floats(-2.0, 2.0))
def test_calN_equals_the_scalar_search(name, lt, ll):
    tab = _N_TABLES[name]
    t, l = 10.0**lt, 10.0**ll
    got = calN(tab, 2.0, t, l)
    assert got == pytest.approx(float(_ref_calN(tab, np.array([t]), np.array([l]))[0]), rel=1e-10)
    assert calN(tab, 2.0, np.array([t, 1.0]), np.array([l, 1.0]))[0] == got
