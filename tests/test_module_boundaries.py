"""No graphfib module imports another module's private (underscore) names,
imports a name it never uses, or relies on ``assert``, which ``python -O``
strips."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "graphfib")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def private_imports(source):
    """``(module, name)`` for each underscore name imported from graphfib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "graphfib":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((module, alias.name))
    return found


def test_the_scan_sees_relative_and_absolute_imports():
    source = (
        "from .graphs import _cell_index, edgeless\n"
        "from graphfib.graphs import _cells\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [("graphs", "_cell_index"), ("graphfib.graphs", "_cells")]


@pytest.mark.parametrize("filename", MODULES)
def test_no_private_cross_module_imports(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


def assert_lines(source):
    """Line numbers of the ``assert`` statements in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_scan_finds_assert_statements():
    source = "def f(x):\n    assert x > 0, 'positive'\n    return x\nassert f(1)\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("filename", MODULES)
def test_no_assert_statements(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert assert_lines(fh.read()) == []


def unused_imports(source):
    """Names bound by an import in ``source`` and never read; ``__future__`` is skipped."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from .graphs import Graph, edgeless as empty, mask_of\n"
        "def f(n):\n"
        "    return empty(n), os.path.sep\n"
    )
    assert unused_imports(source) == ["system", "Graph", "mask_of"]


@pytest.mark.parametrize("filename", [f for f in MODULES if f != "__init__.py"])
def test_no_unused_imports(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
