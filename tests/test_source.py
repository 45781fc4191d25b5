"""Static checks on the package source, in place of a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boxflow"

# `__init__` imports names to re-export them, not to use them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import scipy.fft\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "x = np.zeros(3) * pi + scipy.fft.rfft(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_level_names(tree: ast.Module):
    """(name, line) of each function, class and variable the module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_names` of the given modules that none of them reads.

    A read is a loaded name or an attribute of that name, in any module.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_checker_finds_dead_private_names():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_LIMIT, _SPARE = 1, 2\n"
            "_table: dict = {}\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    _orphan_local = 3\n"
            "class _Shared:\n"
            "    def _method(self):\n"
            "        return _helper()\n"
        ),
        "b.py": "from . import a\nx = a._Shared\n",
    }
    assert dead_private_names(sources) == [
        "a.py line 2: _SPARE",
        "a.py line 3: _table",
        "a.py line 6: _orphan",
    ]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
