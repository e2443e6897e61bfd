import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import bbforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(bbforge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"bbforge.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# bbforge runs on numpy alone; scipy and hypothesis are test-only dependencies.
RUNTIME_PACKAGES = sys.stdlib_module_names | {"numpy", "bbforge"}
SOURCES = sorted(Path(bbforge.__file__).parent.rglob("*.py"))


def _imported_packages(tree: ast.AST):
    """Top-level package of every absolute import, including those inside functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(_imported_packages(tree)) - RUNTIME_PACKAGES) == []


def _small_float_literals(tree: ast.AST):
    """Line and value of every float literal with ``0 < |x| < 1e-5``.

    The default of an annotated field in a class body is a user setting,
    not a check, and is exempt by that position.
    """
    field_defaults = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        for node in ast.walk(stmt.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-5:
            if id(node) not in field_defaults:
                yield node.lineno, node.value


def test_tolerances_live_in_defaults():
    # every tolerance is a named constant in bbforge.defaults
    hits = [
        f"{path.name}:{line} {value!r}"
        for path in SOURCES
        if path.name != "defaults.py"
        for line, value in _small_float_literals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert hits == []
