"""No module of the package imports a name it never uses, and the package
defines no private name it never reads.

pyflakes and ruff are not part of the toolchain, so these are small AST
scans in their place. A name bound by `import` or `from ... import` must
appear as a name somewhere else in the module or in `__all__`;
`from __future__` imports are exempt. A private module-level name, a
`_name` function, class or constant, must be read somewhere in the package:
as a name, as an attribute, or imported by another module. Tests do not
count, so code kept only for them is flagged too.
"""

import ast
from pathlib import Path

import pytest

import ultradiffusion

SOURCES = sorted(Path(ultradiffusion.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line it is bound on."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, or exported."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from . import traces, spectral\n"
        "from .oracle import Kept as Alias, Gone\n"
        "__all__ = ['Gone']\n"
        "def f(x: Alias) -> int:\n"
        "    return spectral.size(x) + os.path.sep\n"
    )
    assert unused_imports(source) == ["json (line 2)", "traces (line 4)"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module binds at its top level, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") and not (
                    name.id.startswith("__") and name.id.endswith("__")
                ):
                    defined[name.id] = node.lineno
    return defined


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads, the attributes it reads, and the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private names that a module of `sources` ({module: source}) defines
    and no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def test_scan_flags_an_unread_private_name():
    source = (
        "import numpy as np\n"
        "from .traces import _integer\n"
        "_USED = 1\n"
        "_STALE = 2\n"
        "_PAIR_A, _PAIR_B = 3, 4\n"
        "def _helper(x):\n"
        "    return np._private(x) + _USED + _PAIR_A\n"
        "def _dead():\n"
        "    return 0\n"
        "class _Gone:\n"
        "    pass\n"
        "def kept():\n"
        "    return _helper(_integer(1))\n"
    )
    assert unread_private_names({"mod": source}) == [
        "mod._STALE (line 4)", "mod._PAIR_B (line 5)", "mod._dead (line 8)", "mod._Gone (line 10)",
    ]
