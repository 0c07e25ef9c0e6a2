"""Every integral in the package goes through its one checked rule, every
numeric root through ``bernstein``'s one bracketed root finder, no density
is fitted by a spline, and no module imports the package inside a function.

The modules are parsed, not imported, so a banned import is found even in
a branch no test runs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subtail"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (node.module + "." + alias.name for alias in node.names)


def test_no_scipy_integrate_and_one_root_finder():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for name in _imported_modules(path):
            assert not name.startswith("scipy.integrate"), (path.name, name)
            if path.name != "bernstein.py":
                assert not name.startswith("scipy.optimize"), (path.name, name)


def test_no_scipy_interpolate():
    for path in sorted(SRC.glob("*.py")):
        for name in _imported_modules(path):
            assert not name.startswith("scipy.interpolate"), (path.name, name)


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
