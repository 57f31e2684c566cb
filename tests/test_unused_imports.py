"""No module of the package imports a name it never uses.

pyflakes and ruff are not part of the toolchain, so this is a small AST
scan in their place: a name bound by `import` or `from ... import` must
appear as a name somewhere else in the module or in `__all__`.
`from __future__` imports are exempt.
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
