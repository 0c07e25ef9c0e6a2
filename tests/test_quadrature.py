"""The checked panel rule and the panel-edge builders of ``quadrature``.

``panel_sums`` calls its integrand once, on both rules' points of every
row, and each row's sums must be what two plain one-rule sums on that row
return, bit for bit.  That plain, unchecked sum, ``_integrate_panels``,
lives here as the oracle, since no module of the package sums without a
check.  ``checked`` refuses the first entry, in C order, that misses its
target or is not finite.  ``grouped_panel_sums`` sums a list of
integrals by panel count, in chunks of at most ``PANEL_CHUNK`` panels, each
integral's sums its sums alone, and ``checked_panels_many`` raises the first
miss in list order; ``checked_panels`` is their one-integral case.
``graded_edges`` and ``geometric_edges`` must give
np.geomspace's edges exactly.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings
from hypothesis import strategies as st

from subtail import fundamental
from subtail.errors import QuadratureError
from subtail.fundamental import Problem, StableHalfDensity
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import Truncated, caputo
from subtail.quadrature import (
    GL32,
    GL64,
    GRADE,
    PANEL_CHUNK,
    PHI_RULES,
    Q_RULES,
    checked,
    checked_panels,
    checked_panels_many,
    geometric_edges,
    graded_edges,
    grouped_panel_sums,
    panel_sums,
    row_columns,
)


def _integrate_panels(fn, edges, nodes):
    """Sum over the panels between consecutive ``edges`` of the Gauss rule
    ``nodes`` = (points, weights) on [-1, 1], with one call of ``fn``."""
    x, w = nodes
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x[None, :]
    wt = 0.5 * (b - a)[:, None] * w[None, :]
    vals = fn(mid.ravel()).reshape(mid.shape)
    return float(np.sum(wt * vals))


def _two_call_rule(fn, edges):
    """(64-node sum, achieved error) of the rule with one call per node set."""
    v32 = _integrate_panels(fn, edges, GL32)
    v64 = _integrate_panels(fn, edges, GL64)
    return v64, abs(v64 - v32) / max(abs(v64), 1e-300)


def _p_case(family, alpha, t, x, y, **kw):
    problem = Problem(kernel=caputo(0.5), model=HKModel(family, alpha=alpha, d=1.0, **kw),
                      geometry=Geometry("interval", length=1.0))
    dens = StableHalfDensity(t)
    return lambda rs: problem.q_at(rs, x, y) * dens(rs), fundamental._panel_edges(problem, x, y, dens.r_max())


def _kappa_prime_case(theta):
    k, eps = Truncated(beta=0.5, delta=1.0, scale=1.0), 1e-3
    return (lambda s: s * np.exp(theta * s) * k.nu(s),
            graded_edges(eps, eps, k.support_end, k.breakpoints()))


_CASES = {
    "polynomial": (lambda r: 3.0 * r**3 - r + 2.0, np.linspace(0.0, 2.0, 5)),
    "inverse-sqrt-graded": (lambda r: r**-0.5, graded_edges(0.0, 2.0 * GRADE, 2.0, (0.5, 1.0))),
    "gaussian": (lambda r: np.exp(-r * r), graded_edges(0.0, 1e-9, 6.0, ())),
    "p-J1": _p_case("J1", 1.0, 0.3, 0.2, 0.7),
    "p-J1-diagonal": _p_case("J1", 1.0, 0.3, 0.4, 0.4),
    "p-D1": _p_case("D1", 2.0, 0.05, 0.3, 0.35),
    "p-HK_M": _p_case("HK_M", 1.5, 0.2, 0.25, 0.6, gamma=0.5, lam=0.5, k=1),
    "kappa-prime": _kappa_prime_case(2.0),
    "kappa-prime-negative": _kappa_prime_case(-3.0),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_checked_panels_is_the_two_call_rule_bit_for_bit(name):
    fn, edges = _CASES[name]
    v64, achieved = _two_call_rule(fn, edges)
    assert checked_panels(name, fn, edges, math.inf) == v64
    if achieved > 0.0:  # the 32-node sum enters only through the achieved error
        with pytest.raises(QuadratureError) as err:
            checked_panels(name, fn, edges, 0.0)
        assert err.value.achieved == achieved and err.value.target == 0.0


@pytest.mark.parametrize("name", sorted(_CASES))
def test_checked_panels_calls_the_integrand_once(name):
    fn, edges = _CASES[name]
    calls = []

    def counted(r):
        calls.append(r.size)
        return fn(r)

    checked_panels(name, counted, edges, math.inf)
    assert calls == [(len(edges) - 1) * (GL32[0].size + GL64[0].size)]


def test_divergent_integrand_raises_with_the_reference_errors():
    fn, edges = (lambda r: 1.0 / r), graded_edges(0.0, GRADE, 1.0, ())
    _, achieved = _two_call_rule(fn, edges)
    with pytest.raises(QuadratureError) as err:
        checked_panels("1/r", fn, edges, 1e-8)
    assert err.value.achieved == achieved and err.value.target == 1e-8
    assert achieved > 1e-3


def test_absolute_target_accepts_a_vanishing_integral():
    fn, edges = np.sin, np.array([-1.0, 0.0, 1.0])
    v64, achieved = _two_call_rule(fn, edges)
    assert achieved > 1e-8
    assert checked_panels("sin", fn, edges, 1e-8, atol=1e-12) == v64


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_a_non_finite_sum_is_refused(fill):
    fn, edges = (lambda r: np.full_like(r, fill)), graded_edges(0.0, GRADE, 1.0, ())
    with pytest.raises(QuadratureError) as err:
        checked_panels("x", fn, edges, 1e-8, atol=1e300)
    assert math.isnan(err.value.achieved) and err.value.target == 1e-8


# three integrands stacked on a leading axis, elementwise in ops whose bits
# do not depend on the array they run on, with values from 1e-200 to 1e200
_STACKED = (lambda u: 1e-200 * u * u, lambda u: 1.0 / (1.0 + u), lambda u: 1e200 * np.sqrt(u))


@pytest.mark.parametrize("rules, sizes", [(Q_RULES, (32, 64)), (PHI_RULES, (24, 40))], ids=["q", "phi"])
def test_panel_sums_are_the_two_call_rule_row_by_row(rules, sizes):
    rng = np.random.default_rng(3)
    # rows of 12 panels at mixed magnitudes, 1e-6 to 1e6
    edges = np.sort(10.0 ** (rng.uniform(-6.0, 6.0, (5, 1)) + rng.uniform(0.0, 2.0, (5, 13))), axis=1)
    calls = []

    def stacked(u):
        calls.append(u.shape)
        return np.stack([f(u) for f in _STACKED])

    coarse, fine = panel_sums(stacked, edges, rules)
    assert calls == [(5, 12, sum(sizes))] and coarse.shape == fine.shape == (3, 5)
    coarse_rule, fine_rule = (leggauss(n) for n in sizes)
    for k, f in enumerate(_STACKED):
        for j, row in enumerate(edges):
            assert coarse[k, j] == _integrate_panels(f, row, coarse_rule), (k, j)
            assert fine[k, j] == _integrate_panels(f, row, fine_rule), (k, j)


def _mixed_list():
    """Rows of 12, 30 and 7 panels in turn, 40 of them: the 13 rows of 30
    panels span two chunks of ``PANEL_CHUNK`` panels, and row 9 repeats
    row 0."""
    rng = np.random.default_rng(5)
    edges = [np.sort(rng.uniform(0.5, 4.0, (12, 30, 7)[i % 3] + 1)) for i in range(40)]
    edges[9] = edges[0]
    scale = rng.uniform(0.5, 2.0, len(edges))
    scale[9] = scale[0]
    return edges, scale


@pytest.mark.parametrize("rules", [Q_RULES, PHI_RULES], ids=["q", "phi"])
def test_grouped_sums_are_each_integral_alone(rules):
    edges, scale = _mixed_list()
    col = row_columns(scale.tolist())
    calls = []

    def fn(u, rows):
        calls.append((len(rows), u.shape[1]))
        assert u.shape[0] == len(rows) and u.shape[1] == edges[rows[0]].size - 1
        return np.stack([f(u) * col(rows) for f in _STACKED])

    coarse, fine = grouped_panel_sums(fn, edges, rules, (3,))
    assert coarse.shape == fine.shape == (3, len(edges))
    assert all(rows * panels <= PANEL_CHUNK for rows, panels in calls)
    per = {n: PANEL_CHUNK // n for n in (12, 30, 7)}
    assert sorted(calls) == sorted((min(per[n], rows - k), n) for n, rows in ((12, 14), (30, 13), (7, 13))
                                   for k in range(0, rows, per[n]))
    assert (8, 30) in calls and (5, 30) in calls
    for i, (e, c) in enumerate(zip(edges, scale)):
        alone = panel_sums(lambda u: np.stack([f(u) * c for f in _STACKED]), e[None], rules)
        assert np.array_equal(coarse[:, i], alone[0][:, 0]) and np.array_equal(fine[:, i], alone[1][:, 0]), i
    assert np.array_equal(fine[:, 9], fine[:, 0])


def test_checked_panels_many_raises_the_first_miss_in_list_order():
    # integrals 2 and 4 (list indices 1 and 3) miss; 4's panel count comes
    # first in the list, so its group is summed first, yet 2's error is raised
    edges, _ = _mixed_list()
    edges = [edges[1], edges[0], edges[2], edges[3], edges[4]]
    # 1/(r - pole), a pole inside the panels of the missing ones
    bad = {i: 0.4 * edges[i][0] + 0.6 * edges[i][-1] for i in (1, 3)}

    poles = row_columns([bad.get(i, -1.0) for i in range(len(edges))])
    names = ["integral %d" % (i + 1) for i in range(len(edges))]
    with pytest.raises(QuadratureError) as err:
        checked_panels_many(names, lambda u, rows: 1.0 / (u - poles(rows)), edges, 1e-8)
    with pytest.raises(QuadratureError) as first:
        checked_panels(names[1], lambda r: 1.0 / (r - bad[1]), edges[1], 1e-8)
    assert str(err.value).startswith("integral 2 quadrature achieved")
    assert str(err.value) == str(first.value) and err.value.achieved == first.value.achieved
    good = [edges[i] for i in range(len(edges)) if i not in bad]
    assert checked_panels_many(["good"] * 3, lambda u, rows: 1.0 / (u + 1.0), good, 1e-8) == [
        checked_panels("good", lambda r: 1.0 / (r + 1.0), e, 1e-8) for e in good]
    assert checked_panels_many([], None, [], 1e-8) == []


def test_checked_refuses_the_first_miss_in_c_order():
    fine = np.ones((3, 4))
    coarse = fine.copy()
    coarse[2, 0] = coarse[1, 3] = 1.5  # C order meets (1, 3) first
    coarse[0, 2] = np.nan
    seen = []

    def message(i, achieved):
        seen.append((i, achieved))
        return "miss"

    assert np.array_equal(checked(coarse[:2, :2], fine[:2, :2], 0.1, 0.0, message), fine[:2, :2])
    with pytest.raises(QuadratureError) as err:
        checked(coarse, fine, 0.1, 0.0, message)  # the NaN at (0, 2) comes first
    assert [i for i, _ in seen] == [2] and math.isnan(seen[0][1]) and math.isnan(err.value.achieved)
    coarse[0, 2] = 1.0
    with pytest.raises(QuadratureError) as err:
        checked(coarse, fine, 0.1, 0.0, message)
    assert seen[-1] == (7, 0.5) and err.value.achieved == 0.5 and err.value.target == 0.1
    assert checked(coarse, fine, 0.1, 0.5, message) is fine  # atol admits both


def _reference_graded_edges(lo, start, hi, kinks):
    edges = set(np.geomspace(start, hi, 40)) | {lo, hi}
    edges |= {k for k in kinks if start < k < hi}
    return np.array(sorted(edges))


@st.composite
def _graded_cases(draw):
    start = 10.0 ** draw(st.floats(-40.0, 10.0))
    hi = start * 10.0 ** draw(st.floats(1e-6, 40.0))
    lo = draw(st.sampled_from([0.0, start, 0.5 * start]))
    nodes = np.geomspace(start, hi, 40)
    kink = st.one_of(
        st.sampled_from(nodes.tolist()),  # on a geometric node
        st.sampled_from([start, hi, 0.5 * start, 2.0 * hi, lo]),  # at the ends and outside
        st.floats(start, hi),  # anywhere inside
        st.integers(0, 3).map(float),
    )
    kinks = draw(st.lists(kink, max_size=8))
    return lo, start, hi, kinks + kinks[: draw(st.integers(0, 2))]  # and duplicates


@settings(max_examples=300, deadline=None)
@given(_graded_cases())
def test_graded_edges_are_the_geomspace_set(case):
    want = _reference_graded_edges(*case)
    got = graded_edges(*case)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_graded_edges_keep_numpy_kinks():
    kinks = set(np.geomspace(1e-3, 2.0, 40)[[3, 17]]) | {np.float64(1.0), 5.0}
    assert np.array_equal(graded_edges(0.0, 1e-3, 2.0, kinks),
                          _reference_graded_edges(0.0, 1e-3, 2.0, kinks))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)), min_size=1, max_size=6),
       st.integers(2, 64))
def test_geometric_edges_are_geomspace_row_by_row(logs, num):
    start = np.array([[10.0 ** a] for a, _ in logs])
    stop = np.array([[10.0 ** b] for _, b in logs])
    rows = geometric_edges(start, stop, num)
    assert rows.shape == (len(logs), num)
    for row, a, b in zip(rows, start[:, 0], stop[:, 0]):
        assert np.array_equal(row, np.geomspace(a, b, num))
        assert np.array_equal(geometric_edges(float(a), float(b), num), row)
