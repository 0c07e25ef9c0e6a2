"""Every integral in the package goes through its one checked rule, whose
Gauss-Legendre nodes only ``quadrature`` holds, every numeric root through
``bernstein``'s one bracketed root finder, no density is fitted by a
spline, no module imports the package inside a function, every
module-level import is used, every name in a module's ``__all__`` is read
somewhere in the package, and neither importing the CLI nor a half-Caputo
``fundsol`` run loads scipy or jsonschema.

The modules are parsed, not imported, so a banned import is found even in
a branch no test runs; the checks of loaded modules run in a fresh
interpreter.
"""

import ast
import json
import math
import os
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


def test_only_quadrature_holds_gauss_legendre_nodes():
    # phi's Laplace integrals and every integral over q share quadrature's rule
    holders = sorted(path.name for path in SRC.glob("*.py")
                     if any(name.startswith("numpy.polynomial.legendre")
                            for name in _imported_modules(path)))
    assert holders == ["quadrature.py"]


def test_no_scipy_interpolate():
    for path in sorted(SRC.glob("*.py")):
        for name in _imported_modules(path):
            assert not name.startswith("scipy.interpolate"), (path.name, name)


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


def test_the_cli_imports_no_scipy(cli_import_modules):
    # scipy.special loads on first use, by the kernels and CDFs that need it
    assert "scipy" not in cli_import_modules


def test_a_half_caputo_fundsol_run_imports_no_scipy(fundsol_run_modules):
    assert "scipy" not in fundsol_run_modules


def test_the_cli_imports_no_jsonschema(cli_import_modules):
    assert cli_import_modules & _JSONSCHEMA == set()


def test_a_half_caputo_fundsol_run_imports_no_jsonschema(fundsol_run_modules):
    assert fundsol_run_modules & _JSONSCHEMA == set()


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
