"""Every integral in the package goes through its one checked rule, whose
Gauss-Legendre nodes only ``quadrature`` holds, every numeric root through
``bernstein``'s one bracketed root finder, no density is fitted by a
spline, no module imports the package inside a function or reads another
module's private names, every module-level import is used, every name in a
module's ``__all__`` is read somewhere in the package, no module imports
scipy and the runtime dependencies are numpy alone, and neither importing
the CLI, nor a half-Caputo ``fundsol`` run, nor the callers of Gamma, erf
and erfc and a ``tails`` run on each built-in kernel, nor Subexp's moments
beyond s = 1, loads scipy (nor the first two jsonschema), every layer
benchmark under ``benchmarks/`` imports, and no signature or record takes a
kernel or its conditions beside the BernsteinTable that holds them.

The modules are parsed, not imported, so a banned import is found even in
a branch no test runs; the checks of loaded modules run in a fresh
interpreter.
"""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "subtail"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (node.module + "." + alias.name for alias in node.names)


def test_no_scipy_integrate_and_one_root_finder():
    # the one root finder is bernstein's port of Brent's method
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for name in _imported_modules(path):
            assert not name.startswith(("scipy.integrate", "scipy.optimize")), (path.name, name)


def test_no_scipy_interpolate():
    for path in sorted(SRC.glob("*.py")):
        for name in _imported_modules(path):
            assert not name.startswith("scipy.interpolate"), (path.name, name)


# None: every special function is ``special``'s, every integral, Subexp's
# moments beyond s = 1 among them, ``quadrature``'s checked rule and every
# root ``bernstein``'s port of Brent's method.
_SCIPY_ALLOWED = set()


def _scipy_imports(path):
    """The scipy names a module imports: ``module.name`` for a from-import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module + "." + alias.name for alias in node.names]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "scipy")


def test_the_only_scipy_imports_are_the_allowlisted_ones():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = {(path.stem, name) for path in modules for name in _scipy_imports(path)}
    assert found == _SCIPY_ALLOWED


def test_the_runtime_dependencies_are_numpy_alone():
    # scipy is in the test extra only, the oracle of the quad, brentq and
    # special-function tests
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


# quadrature's plain Gauss nodes and unchecked sum: only its checked rules leave it
_UNCHECKED = {"GL32", "GL64", "integrate_panels"}


def test_only_quadrature_holds_gauss_legendre_nodes():
    # phi's Laplace integrals and every integral over q share quadrature's rule
    holders = sorted(path.name for path in SRC.glob("*.py")
                     if any(name.startswith("numpy.polynomial.legendre")
                            for name in _imported_modules(path)))
    assert holders == ["quadrature.py"]
    # ... and no other module reaches its nodes, by import or by attribute
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            assert not names & _UNCHECKED, (path.name, sorted(names & _UNCHECKED))


def _modules_after(code):
    """The top-level names of the modules a fresh interpreter has loaded
    after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code += "\nimport json, sys\nprint(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


# jsonschema and the packages it pulls in; the CLI checks configs itself
_JSONSCHEMA = {"jsonschema", "referencing", "rpds", "attrs"}


@pytest.fixture(scope="module")
def cli_import_modules():
    return _modules_after("import subtail.cli")


@pytest.fixture(scope="module")
def fundsol_run_modules(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fundsol")
    cfg = tmp_path / "fundsol.json"
    cfg.write_text(json.dumps({
        "kernel": {"kind": "power", "beta": 0.5, "scale": 1.0 / math.gamma(0.5)},
        "model": {"family": "D1", "alpha": 2.0, "d": 1.0,
                  "geometry": {"kind": "interval", "length": 1.0}},
        "points": [{"t": 0.1, "x": 0.3, "y": 0.6}],
    }))
    code = ("from subtail import cli\n"
            "assert cli.main(['fundsol', '--config', %r, '--out', %r]) == 0\n"
            % (str(cfg), str(tmp_path / "out")))
    return _modules_after(code)


def _benchmark_kernels():
    """The five built-in kernels as CLI configs, read from the benchmark's
    workloads module."""
    path = SRC.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.KERNELS


@pytest.fixture(scope="module")
def special_function_modules(tmp_path_factory):
    # every caller of Gamma, erf and erfc, and a small tails run per kernel
    tmp_path = tmp_path_factory.mktemp("tails")
    configs = []
    for name, kernel in _benchmark_kernels().items():
        cfg = tmp_path / (name + ".json")
        cfg.write_text(json.dumps({"kernel": kernel, "sim": {"cutoff_eps": 1e-3, "n_paths": 100},
                                   "grid": {"r": [0.5, 2.0], "t": [0.3, 1.0, 4.0]}}))
        configs.append((str(cfg), str(tmp_path / name)))
    code = ("import numpy as np\n"
            "from subtail import cli, golden, kernels, simulate\n"
            "builtin = golden.builtin_kernel_set()\n"
            "for beta in (0.3, 0.5, 0.8):\n"
            "    kernels.caputo(beta)\n"
            "builtin['distributed'].nu(0.5)\n"
            "builtin['distributed'].nu(np.geomspace(1e-3, 1e3, 7))\n"
            "for cdf in (simulate.stable_half_upper_cdf, simulate.stable_half_lower_cdf):\n"
            "    cdf(2.0, 0.5)\n"
            "    cdf(2.0, np.geomspace(0.1, 10.0, 5))\n"
            "for cfg, out in %r:\n"
            "    assert cli.main(['tails', '--config', cfg, '--out', out]) == 0\n" % configs)
    return _modules_after(code)


@pytest.fixture(scope="module")
def subexp_tail_modules(tmp_path_factory):
    # M_k(a) beyond s = 1 directly, through a phi-table run's grid (lambda
    # down to 1e-9, so u0 = 1e-5/lambda up to 1e4) and through
    # bar_phi_alpha(1, .), which reads M_0(inf)
    tmp_path = tmp_path_factory.mktemp("subexp")
    cfg = tmp_path / "phi.json"
    cfg.write_text(json.dumps({"kernel": {"kind": "subexp", "beta": 0.5, "theta": 1.0},
                               "lambdas": {"n": 5}}))
    code = ("import math\n"
            "from subtail import bernstein, cli, kernels\n"
            "k = kernels.Subexp(beta=0.5, theta=1.0)\n"
            "assert k.moment(3, 50.0) > k.moment(3, 1.0) > 0.0\n"
            "assert math.isfinite(k.moment(0, math.inf))\n"
            "assert cli.main(['phi-table', '--config', %r, '--out', %r]) == 0\n"
            "assert bernstein.BernsteinTable(k, points_per_decade=8).bar_phi_alpha(1.0, 2.0) > 0.0\n"
            % (str(cfg), str(tmp_path / "out")))
    return _modules_after(code)


def test_the_cli_imports_no_scipy(cli_import_modules):
    # no module of the package imports scipy, so no run loads it either
    assert "scipy" not in cli_import_modules


def test_subexp_moments_beyond_one_import_no_scipy(subexp_tail_modules):
    assert "scipy" not in subexp_tail_modules


def test_gamma_erf_erfc_and_tails_runs_import_no_scipy(special_function_modules):
    assert "scipy" not in special_function_modules


def test_a_half_caputo_fundsol_run_imports_no_scipy(fundsol_run_modules):
    assert "scipy" not in fundsol_run_modules


def test_the_cli_imports_no_jsonschema(cli_import_modules):
    assert cli_import_modules & _JSONSCHEMA == set()


def test_a_half_caputo_fundsol_run_imports_no_jsonschema(fundsol_run_modules):
    assert fundsol_run_modules & _JSONSCHEMA == set()


@pytest.mark.parametrize("path", sorted((SRC.parents[1] / "benchmarks").glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_layer_benchmark_module_imports(path):
    # the layer benchmarks are not collected by the default run, so a program
    # name they import that is renamed or deleted would break them unseen
    spec = importlib.util.spec_from_file_location("layer_" + path.stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _imports_the_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "subtail"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "subtail" for alias in node.names)


def test_no_function_level_imports_of_the_package():
    # an import inside a function hides a module cycle from the import graph
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not _imports_the_package(node), (path.name, fn.name, node.lineno)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another():
    # what one module needs of another is public; an attribute of an object
    # (``table._root``) is not a module's and is not checked
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # the names this module binds to package modules
        for node in ast.walk(tree):
            if not _imports_the_package(node):
                continue
            for alias in node.names:
                if isinstance(node, ast.Import):
                    bound.add(alias.asname or alias.name.split(".")[0])
                elif _private(alias.name):
                    found.append((path.stem, alias.name))
                elif (node.module or "subtail") == "subtail" and alias.name in modules:
                    bound.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    found.append((path.stem, ast.unparse(node)))
    assert found == []


def _referenced(tree, skip=None):
    """Names the code of ``tree`` reads, as a Name or an attribute, outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_level_import_is_used():
    # a name listed only in __all__ is a re-export, and nothing imports one
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append((path.name, bound))
    assert unused == []


# Jain-Pruitt's lower-tail exponent waits for the exact-tail sweep (ROADMAP
# item 2), where exact lower tails are its oracle.
_AWAITING_A_CALLER = {("tail_bounds", "lower_tail_bounds")}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_exported_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    refs = {mod: _referenced(tree) for mod, tree in trees.items()}
    uncalled = []
    for mod, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _exported(tree):
            own = _referenced(tree, skip=defs.get(name))
            if name not in own and not any(name in refs[o] for o in trees if o != mod):
                uncalled.append((mod, name))
    assert sorted(set(uncalled) - _AWAITING_A_CALLER) == []


# the names a kernel, its certified conditions and a BernsteinTable go by
_HELD_BY_A_TABLE = {"kernel", "kern", "conditions"}
_TABLE = {"table", "tab"}


def _fields(node):
    """The parameters of a function, or the annotated fields of a class (a
    dataclass's or a NamedTuple's); None for any other node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        return {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    if isinstance(node, ast.ClassDef):
        return {stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    return None


def test_a_table_is_the_one_handle_on_its_kernel():
    # a BernsteinTable holds its kernel and the kernel's conditions, so a
    # kernel or conditions passed beside it could only disagree with them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = _fields(node)
            if names and names & _TABLE and names & _HELD_BY_A_TABLE:
                found.append((path.stem, node.lineno, sorted(names & (_TABLE | _HELD_BY_A_TABLE))))
            if isinstance(node, ast.Call) and any(kw.arg == "conditions" for kw in node.keywords):
                found.append((path.stem, node.lineno, "conditions="))
    assert found == []
