"""Every name a package module imports is used in that module.

A static check with `ast` (neither pyflakes nor ruff is a dependency): a
name bound by an import statement must appear as a name in the module
body, or be re-exported through `__all__`.
"""

import ast
from pathlib import Path

import pytest

import quakebend

MODULES = sorted(Path(quakebend.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"earthquake.py", "teich.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "import math\nimport numpy as np\n"
           "from os import path, sep\n"
           "__all__ = ['sep']\n"
           "x = np.pi\n")
    assert unused_imports(src) == [(2, "math"), (4, "path")]
