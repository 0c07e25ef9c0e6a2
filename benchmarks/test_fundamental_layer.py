"""Micro-benchmarks of the fundamental-solution layer, on frozen inputs.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_fundamental_layer.py

pytest-benchmark times each case and prints min/median/mean per round.  The
cases: the transition kernel q of the ``fundsol`` workload's HK_D model on
the half-line, on the node array of one ``p_quadrature`` check (every
panel's 32 and 64 Gauss-Legendre points, one ``q_at`` call),
``solve_u``'s inner integral Q(r, x) at one fixed r, for golden criterion
11's request (J1 on the interval (0, 1), f = 1, x = 1e-2, t = 0.2), and p
at golden criterion 8's resolution-8 mainsmall-i points through the call
criterion 8 makes, one ``p_quadrature_many`` call (the points are drawn
once from a 1/2-Caputo table, outside the timing).  The default test run
does not collect this directory (``testpaths = ["tests"]``).
"""

import numpy as np

from subtail import fundamental, golden
from subtail.comparability import regime_grid
from subtail.fundamental import SolutionRequest, StableHalfDensity, p_quadrature_many
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import caputo
from subtail.quadrature import GL32, GL64

HK_D = SolutionRequest(caputo(0.5), HKModel("HK_D", alpha=2.0, d=1.0, gamma=0.25, lam=0.0, k=2),
                       Geometry("half-line"), t=0.1, x=0.3, y=0.8)
C11 = SolutionRequest(caputo(0.5), HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0),
                      t=0.2, x=1e-2, f=lambda y: 1.0)
R = 0.05  # the clock value of the inner integral


def _p_nodes(req):
    """The clock values at which ``p_quadrature`` evaluates q for req."""
    edges = fundamental._panel_edges(req, StableHalfDensity(req.t).r_max())
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * np.concatenate([GL32[0], GL64[0]])).ravel()


def _run(benchmark, fn, rounds):
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)


def test_q_of_hk_d_on_p_nodes(benchmark):
    nodes = _p_nodes(HK_D)
    assert nodes.size % 96 == 0
    q = _run(benchmark, lambda: HK_D.q_at(nodes), rounds=200)
    assert q.shape == nodes.shape and np.all(np.isfinite(q))


def test_inner_Q_at_fixed_r(benchmark):
    assert _run(benchmark, lambda: fundamental._inner_Q(C11, R), rounds=200) > 0.0


def test_p_of_criterion_8s_mainsmall_i_points(benchmark):
    m, g = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)
    tab = golden.half_caputo_table(golden.TableCache())
    pts = regime_grid("mainsmall-i", tab, m, g, resolution=8, margin=golden.C8_MARGINS["mainsmall-i"],
                      t_window=(1e-3, 0.1))
    reqs = [SolutionRequest(tab.kernel, m, g, *pt) for pt in pts]
    p = _run(benchmark, lambda: p_quadrature_many(reqs), rounds=20)
    assert len(p) == len(pts) > 100 and all(v.value > 0.0 for v in p)
