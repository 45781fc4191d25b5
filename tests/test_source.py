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
