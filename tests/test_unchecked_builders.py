"""Only the named builders skip a constructor's checks.

`traces._unchecked` sets a frozen dataclass's fields without running its
`__post_init__`, and `ultrametric._built_space` hands a space over through
it. Each call is a claim that the values are valid by construction, so this
AST scan fails on a call from any function not in the allow-list below:
adding one is a visible, reviewed choice.
"""

import ast
from pathlib import Path

import ultradiffusion

SOURCES = sorted(Path(ultradiffusion.__file__).parent.glob("*.py"))

# (module, enclosing function) of every call allowed to skip the checks.
ALLOWED = {
    "_unchecked": {
        ("traces", "empirical_curve"),
        ("fitting", "simulate_curve"),
        ("ultrametric", "_built_space"),
        ("generator", "build_generator"),
    },
    "_built_space": {
        ("ultrametric", "_max_space"),
        ("spectral", "space_from_tree"),
    },
}


def unchecked_calls(source: str) -> list[tuple[str, str, int]]:
    """(callee, enclosing function, line) of each call to a name in ALLOWED."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in ALLOWED:
                found.append((name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def disallowed(module: str, source: str) -> list[str]:
    return [
        f"{module}.{function} calls {name}( on line {line}"
        for name, function, line in unchecked_calls(source)
        if (module, function) not in ALLOWED[name]
    ]


def test_only_the_named_builders_skip_the_checks():
    faults = [fault for path in SOURCES for fault in disallowed(path.stem, path.read_text())]
    assert faults == []


def test_every_allowed_builder_still_calls_its_path():
    # A stale entry would let a new function of the same name through.
    seen = {
        (name, path.stem, function)
        for path in SOURCES
        for name, function, _ in unchecked_calls(path.read_text())
    }
    expected = {(name, *where) for name, places in ALLOWED.items() for where in places}
    assert seen == expected


def test_scan_flags_a_call_outside_the_allow_list():
    source = (
        "from . import traces\n"
        "from .traces import _unchecked\n"
        "def build_generator(space, mu):\n"
        "    return _unchecked(Generator, rates=space)\n"
        "def helper(x):\n"
        "    def inner():\n"
        "        return traces._unchecked(Generator, rates=x)\n"
        "    return _built_space(x, x, x)\n"
        "made = _unchecked(Generator, rates=None)\n"
    )
    assert disallowed("generator", source) == [
        "generator.inner calls _unchecked( on line 7",
        "generator.helper calls _built_space( on line 8",
        "generator.<module> calls _unchecked( on line 9",
    ]
