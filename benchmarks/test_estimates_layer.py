"""Micro-benchmarks of the estimates layer, on frozen inputs.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_estimates_layer.py

pytest-benchmark times each case and prints min/median/mean per round.
Every case uses a ½-Caputo table at 24 points per decade, as the golden
criteria do; none of them reads the table's grid.  The cases: golden
criterion 6's 10×10 N(t,l) in one ``calN`` call, on a fresh table every
round, so a round pays for its evaluator calls as the report does; and
``theorem_estimate`` and ``p_quadrature`` at one fixed point of criterion
8's mainsmall-ii-a grid (J1 on the interval (0, 1)), on one shared table.
The default test run does not collect this directory
(``testpaths = ["tests"]``).
"""

import numpy as np
import pytest

from subtail.bernstein import BernsteinTable, calN
from subtail.estimates import EstimateCase, theorem_estimate
from subtail.fundamental import Problem, p_quadrature
from subtail.heat_kernel import Geometry, HKModel
from subtail.kernels import caputo

TS = LS = np.geomspace(0.05, 20.0, 10)  # criterion 6's (t, l) grid
# a point of criterion 8's resolution-8 mainsmall-ii-a grid, and its margin
POINT, MARGIN = (0.003727593720314938, 0.13530847888568107, 0.3804126614903103), 40.0
MODEL, GEOMETRY = HKModel("J1", alpha=1.0, d=1.0), Geometry("interval", 1.0)


def _table():
    return BernsteinTable(caputo(0.5), points_per_decade=24)


@pytest.fixture(scope="module")
def table():
    return _table()


def _run(benchmark, fn, rounds):
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=1)


def test_calN_of_criterion_6(benchmark):
    N = _run(benchmark, lambda: calN(_table(), 2.0, TS[:, None], LS[None, :]), rounds=10)
    assert N.shape == (10, 10) and np.all(N > 0.0)


def test_theorem_estimate_of_criterion_8(benchmark, table):
    case = EstimateCase("mainsmall-ii-a", table, MODEL, GEOMETRY, *POINT, margin=MARGIN)
    assert _run(benchmark, lambda: theorem_estimate(case)["value"], rounds=200) > 0.0


def test_p_quadrature_of_criterion_8(benchmark, table):
    problem = Problem(table.kernel, MODEL, GEOMETRY)
    assert _run(benchmark, lambda: p_quadrature(problem, *POINT).value, rounds=100) > 0.0
