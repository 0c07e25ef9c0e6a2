"""Micro-benchmarks of the fundamental-solution layer, on frozen inputs.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_fundamental_layer.py

pytest-benchmark times each case and prints min/median/mean per round.  The
cases: the transition kernel q of the ``fundsol`` workload's HK_D model on
the half-line, on the node array of one ``p_quadrature`` check (every
panel's 32 and 64 Gauss-Legendre points, one ``q_at`` call),
``solve_u``'s inner integral Q(r, x) at one fixed r, for golden criterion
11's point (J1 on the interval (0, 1), f = 1, x = 1e-2, t = 0.2), one
``_inner_Qs`` call; p at golden criterion 8's resolution-8 mainsmall-i
points through the call criterion 8 makes, one ``p_quadrature_many`` call
(the points are drawn once from a 1/2-Caputo table, outside the timing);
and the ``mc`` workload's ``fundsol`` call at seed 1 (J1 on (0, 1), 16
points, 4000 paths, eps 1e-3), one ``p_mc_many`` call: its E_t walk and
the per-path q of every point.  The default test run does not collect this
directory (``testpaths = ["tests"]``).
"""

import numpy as np

from subtail import fundamental, golden
from subtail.comparability import regime_grid
from subtail.fundamental import Problem, StableHalfDensity, p_mc_many, p_quadrature_many
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import caputo
from subtail.quadrature import GL32, GL64
from subtail.simulate import SimConfig

HK_D = Problem(caputo(0.5), HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.25, lam=0.0, k=2), Geometry("half-line"))
HK_D_POINT = (0.1, 0.3, 0.8)
C11 = Problem(caputo(0.5), HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0), f=lambda y: 1.0)
C11_X = 1e-2
R = 0.05  # the clock value of the inner integral


def _p_nodes(problem, t, x, y):
    """The clock values at which ``p_quadrature`` evaluates q at (t, x, y)."""
    edges = fundamental._panel_edges(problem, x, y, StableHalfDensity(t).r_max())
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * np.concatenate([GL32[0], GL64[0]])).ravel()


def _run(benchmark, fn, rounds):
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)


def test_q_of_hk_d_on_p_nodes(benchmark):
    nodes = _p_nodes(HK_D, *HK_D_POINT)
    assert nodes.size % 96 == 0
    q = _run(benchmark, lambda: HK_D.q_at(nodes, *HK_D_POINT[1:]), rounds=200)
    assert q.shape == nodes.shape and np.all(np.isfinite(q))


def test_inner_Q_at_fixed_r(benchmark):
    assert _run(benchmark, lambda: fundamental._inner_Qs(C11, [C11_X], [R])[0], rounds=200) > 0.0


def test_p_of_criterion_8s_mainsmall_i_points(benchmark):
    m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
    tab = golden.half_caputo_table(golden.TableCache())
    pts = regime_grid("mainsmall-i", tab, m, g, resolution=8, margin=golden.C8_MARGINS["mainsmall-i"],
                      t_window=(1e-3, 0.1))
    p = _run(benchmark, lambda: p_quadrature_many(Problem(tab.kernel, m, g), pts), rounds=20)
    assert len(p) == len(pts) > 100 and all(v.value > 0.0 for v in p)


# the (t, x, y) of the mc workload's fundsol call at seed 1, in its order
_MC_POINTS = [
    (0.07779706372215926, 0.07613670881738115, 0.24952249964573153),
    (0.081854513402246, 0.49623101724366553, 0.2597760052318153),
    (0.04199650584790154, 0.24690293360391974, 0.46364311916396017),
    (0.05078018285847165, 0.06934073473931798, 0.8038201780963156),
    (0.1199598880283902, 0.628064926639201, 0.21731563930524594),
    (0.48928373282336096, 0.8239518759157609, 0.15880096382522577),
    (0.058314057333912386, 0.6993359668249415, 0.6900725927257516),
    (0.4083352020653859, 0.4298962999652736, 0.7970321239468943),
    (0.17315211192519336, 0.32303165983962584, 0.5788225455292035),
    (0.34313941076426596, 0.8115776765854814, 0.5047554385216404),
    (0.13323034766131123, 0.08107324713620742, 0.26846597618876084),
    (0.2608350480724837, 0.42288259937069683, 0.2057066614211458),
    (0.11703567545385461, 0.6827366858590683, 0.6570372474520945),
    (0.06677043855028353, 0.44506546704010674, 0.5075838394249836),
    (0.24536898194926227, 0.5188445758518306, 0.4039295854678034),
    (0.09673216959996127, 0.07661746757021635, 0.08913856132087469),
]


def test_p_mc_many_of_the_mc_workloads_fundsol_call(benchmark):
    # the call's own seed is the workload seed plus its five tails calls
    sim = SimConfig(cutoff_eps=1e-3, n_paths=4000, seed=6)
    m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
    p = _run(benchmark, lambda: p_mc_many(Problem(caputo(0.5), m, g, sim=sim), _MC_POINTS), rounds=20)
    assert len(p) == 16 and all(v.value > 0.0 and v.censored == 0 for v in p)
