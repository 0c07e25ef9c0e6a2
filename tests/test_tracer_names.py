"""Every program name the benchmark tracer wraps still resolves.

``perfbench/tracer.py`` patches functions and methods of the program by
name from outside; a renamed or deleted target would break
``perfbench/run.py --trace 1`` only when the benchmark runs.  This test
reads the tracer's own tables, so it follows the tracer when it changes.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_functions_resolve(tracer):
    for name, (modname, attr) in tracer._SPAN_FUNCS.items():
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_counted_functions_resolve():
    from subtail import bernstein, heat_kernel

    assert callable(heat_kernel.q_eval)
    assert callable(bernstein.calM)


def test_table_queries_resolve(tracer):
    from subtail.bernstein import BernsteinTable

    for meth in ("__init__", "invert", *tracer._TABLE_QUERIES):
        assert callable(getattr(BernsteinTable, meth, None)), meth


def test_kernel_methods_resolve(tracer):
    from subtail import kernels

    for cls_name in tracer._KERNEL_CLASSES:
        cls = getattr(kernels, cls_name)
        for meth in ("w", "moment"):
            assert callable(getattr(cls, meth, None)), (cls_name, meth)


def test_install_wraps_and_counts():
    # install() in a fresh process, since it patches classes for good
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import subtail.cli\n"
        "import tracer\n"
        "tr = tracer.install()\n"
        "from subtail.bernstein import BernsteinTable\n"
        "from subtail.kernels import caputo\n"
        "tab = BernsteinTable(caputo(0.5), points_per_decade=2)\n"
        "tab.invert('phi', 2.0)\n"
        # invert reads the evaluator's values directly, not the wrapped phi
        "tab.phi(0.5)\n"
        "tr.end_round()\n"
        "m = tr.rounds[0]['metrics']\n"
        "assert m['bernstein.table_builds'] == 1, m\n"
        "assert m['bernstein.invert_calls'] == 1, m\n"
        "assert m['bernstein.scalar_queries'] > 0, m\n"
        "assert m['kernels.w_calls'] > 0, m\n"
        # q_eval is looked up at call time, so the tracer sees fundamental's calls
        "from subtail.fundamental import SolutionRequest, p_mc, p_quadrature\n"
        "from subtail.heat_kernel import Geometry, HKModel\n"
        "from subtail.simulate import SimConfig\n"
        "req = SolutionRequest(caputo(0.5), HKModel('J1', alpha=1.0, d=1.0),\n"
        "                      Geometry('interval', 1.0), 0.1, 0.3, 0.6,\n"
        "                      sim=SimConfig(cutoff_eps=1e-2, n_paths=200, seed=1))\n"
        "p_quadrature(req)\n"
        "p_mc(req)\n"
        "tr.end_round()\n"
        "m = tr.rounds[1]['metrics']\n"
        "assert m['heat_kernel.q_calls.p_quadrature'] > 0, m\n"
        "assert m['heat_kernel.q_calls.p_mc'] > 0, m\n"
        # the sampler's and q's inner calls go through the wrapped names (a
        # distributed-order kernel's jumps are drawn term by term, without them)
        "import numpy as np\n"
        "from subtail import heat_kernel, simulate\n"
        "from subtail.golden import builtin_kernel_set\n"
        "simulate.sample_S_at(builtin_kernel_set()['tabulated'],\n"
        "                     SimConfig(cutoff_eps=1e-2, n_paths=200, seed=1), 0.5)\n"
        "heat_kernel.q_eval(HKModel('HK_D', alpha=2.0, d=1.0, gamma=0.5, lam=0.0, k=1),\n"
        "                   Geometry('interval', 1.0),\n"
        "                   np.geomspace(0.01, 1.0, 8), 0.3, 0.6)\n"
        "tr.end_round()\n"
        "m = tr.rounds[2]['metrics']\n"
        "assert m['kernels.inverse_w_draws'] > 0, m\n"
        "assert m['bernstein.calM_calls'] > 0, m\n"
    ) % str(TRACER.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
