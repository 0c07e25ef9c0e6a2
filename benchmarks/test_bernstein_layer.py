"""Micro-benchmarks of the BernsteinTable layer, on frozen inputs.

From the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_bernstein_layer.py

pytest-benchmark times each case and prints min/median/mean per round.
Every round runs on a fresh table, so no grid or memo carries over from an
earlier round.  The default test run does not collect this directory
(``testpaths = ["tests"]``).
"""

import numpy as np
import pytest

from subtail.bernstein import BernsteinTable
from subtail.golden import builtin_kernel_set

KERNELS = builtin_kernel_set()
LAM = 0.37  # the scalar phi query
S = 1.0  # the scalar b-inverse target
SVALS = np.geomspace(1e-3, 1e3, 48)  # golden criterion 2's b-inverse targets
ALPHA, TARGET = 2.0, 3.0  # the envelope inverse bar_phi_alpha(ALPHA, TARGET)


def _run(benchmark, kernel, query, rounds):
    """Time query(table) on a fresh 96-per-decade table each round."""
    return benchmark.pedantic(query, setup=lambda: ((BernsteinTable(kernel),), {}),
                              rounds=rounds, iterations=1)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_table_build(benchmark, name):
    grid = _run(benchmark, KERNELS[name], lambda tab: tab.phi_grid, rounds=5)
    assert grid.size == 18 * 96 + 1


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_scalar_phi(benchmark, name):
    assert _run(benchmark, KERNELS[name], lambda tab: tab.phi(LAM), rounds=50) > 0.0


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_scalar_b_inverse(benchmark, name):
    assert _run(benchmark, KERNELS[name], lambda tab: tab.invert("b", S), rounds=10) > 0.0


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_b_inverse_of_criterion_2(benchmark, name):
    out = _run(benchmark, KERNELS[name], lambda tab: tab.invert("b", SVALS), rounds=5)
    assert np.all(np.diff(out) > 0.0)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_bar_phi_alpha(benchmark, name):
    assert _run(benchmark, KERNELS[name], lambda tab: tab.bar_phi_alpha(ALPHA, TARGET),
                rounds=10) > 0.0
