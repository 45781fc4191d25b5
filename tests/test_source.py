"""Static checks on the package source, in place of a linter."""

import ast
import json
import os
import subprocess
import sys
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


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(node: ast.AST) -> set[str]:
    """The loaded names and the attribute names anywhere under node."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_names` of the given modules that no live code reads.

    A read is a loaded name or an attribute of that name, in any module.
    Live code is every module-level statement that binds a public name or
    none, and the definition of every `_name` that live code reads; so a
    `_name` read only by itself or by other dead `_names` is dead too.
    """
    uses, defined, todo = {}, [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names, read = _bound_names(node), _reads(node)
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            for name in private:
                uses.setdefault(name, set()).update(read - {name})
                defined.append((module, node.lineno, name))
            if len(private) < len(names) or not names:
                todo.extend(read)
    live = set()
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(uses.get(name, ()))
    return [
        f"{module} line {line}: {name}"
        for module, line, name in defined
        if name not in live
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
            "def _loop(n):\n"
            "    return _loop(n - 1) + _only_for_dead\n"
            "_only_for_dead = 4\n"
            "def _ping():\n"
            "    return _pong()\n"
            "def _pong():\n"
            "    return _ping()\n"
            "_read_by_public = 6\n"
            "_UNREAD, PUBLIC = 5, _read_by_public\n"
        ),
        "b.py": "from . import a\nx = a._Shared\n",
    }
    assert dead_private_names(sources) == [
        "a.py line 2: _SPARE",
        "a.py line 3: _table",
        "a.py line 6: _orphan",
        "a.py line 11: _loop",
        "a.py line 13: _only_for_dead",
        "a.py line 14: _ping",
        "a.py line 16: _pong",
        "a.py line 19: _UNREAD",
    ]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def worker_branches(source: str) -> list[str]:
    """Lines outside `set_default_workers` where an `if` or `while` test, a
    conditional expression or a comparison reads `_workers` or `_pool`: a
    code path picked by the worker count."""
    tree = ast.parse(source)
    exempt = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "set_default_workers"
        for sub in ast.walk(node)
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            test = node.test
        elif isinstance(node, ast.Compare):
            test = node
        else:
            continue
        if id(node) not in exempt and _reads(test) & {"_workers", "_pool"}:
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_checker_finds_worker_branches():
    source = (
        "_workers, _pool = 1, None\n"
        "def set_default_workers(n):\n"
        "    if n != _workers and _pool is not None:\n"
        "        pass\n"
        "def inverse(a):\n"
        "    if a.ndim > 3 and _workers == 1:\n"
        "        return a\n"
        "    return fft(a, workers=_workers)\n"
        "def run(items):\n"
        "    pool = None if _pool is None else _pool\n"
        "    return [pool.submit(f) for _ in range(min(_workers, len(items)) - 1)]\n"
        "def spin(core):\n"
        "    while core._workers:\n"
        "        pass\n"
        "    return [x for x in range(3) if x < core._pool.size]\n"
    )
    assert worker_branches(source) == ["line 6", "line 10", "line 13", "line 15"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_set_default_workers_branches_on_the_worker_count(path):
    assert worker_branches(path.read_text()) == []


# The eleven public names that no code in `src/` reads, each kept for a reason.
UNREAD_PUBLIC_KEPT = {
    "curl": "a test oracle for the operators the solver writes out",
    "gradient": "a test oracle for the operators the solver writes out",
    "laplacian": "a test oracle for the operators the solver writes out",
    "nse_solve": "the benchmark tracer binds it (ROADMAP item 1)",
    "has_spectral": "the benchmark tracer reads it",
    "energy_audit": "to be surfaced in the studies' checks (ROADMAP item 3)",
    "enstrophy_audit": "to be surfaced in the studies' checks (ROADMAP item 3)",
    "biot_savart_r3": "to measure the inversion's reference against R^3 (ROADMAP item 7)",
    "EXTENSION_L2_BOUND": "the record of the extension lemma's constants",
    "EXTENSION_GRAD_BOUND": "the record of the extension lemma's constants",
    "EXTENSION_H2_BOUND": "the record of the extension lemma's constants",
}


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public module-level functions, classes and constants, and public
    methods of module-level classes, whose name no module reads (a loaded
    name or an attribute name, anywhere)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            defined = [(node.lineno, n) for n in _bound_names(node)] + [
                (m.lineno, m.name)
                for m in methods
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            unread += [
                f"{module} line {line}: {name}"
                for line, name in defined
                if not name.startswith("_") and name not in read
            ]
    return unread


def test_checker_finds_unread_public_names():
    sources = {
        "a.py": (
            "LIMIT, SPARE = 1, 2\n"
            "__version__ = '1'\n"
            "def used():\n"
            "    return LIMIT\n"
            "def unused():\n"
            "    return used()\n"
            "class Shape:\n"
            "    def area(self):\n"
            "        return 0\n"
            "    @property\n"
            "    def final(self):\n"
            "        return self.area()\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "def _private():\n"
            "    return Shape\n"
        ),
        "b.py": "from .a import unused\n",
    }
    assert unread_public_names(sources) == [
        "a.py line 1: SPARE",
        "a.py line 5: unused",
        "a.py line 11: final",
    ]


def test_every_public_name_is_read_in_src():
    sources = {p.name: p.read_text() for p in MODULES}
    unread = unread_public_names(sources)
    assert {u.rpartition(" ")[2] for u in unread} == set(UNREAD_PUBLIC_KEPT), unread


def test_a_fresh_import_loads_no_scipy(tmp_path):
    # every transform runs on numpy.fft, so the package, its CLI and the
    # config loader bring in no scipy module
    config = tmp_path / "study.json"
    config.write_text(
        json.dumps(
            {
                "kind": "inversion",
                "alphas": [1],
                "base_n": 16,
                "initial_data": {"family": "bump", "support_radius": 0.5},
            }
        )
    )
    probe = (
        "import sys\n"
        "import boxflow, boxflow.cli\n"
        "from boxflow import experiments\n"
        "experiments.load_config(sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
