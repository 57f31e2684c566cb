"""Only the named builders skip a constructor's checks.

`traces._unchecked` sets a frozen dataclass's fields without running its
`__post_init__`, making each array field read-only in place. Each call is a
claim that the values are valid by construction and the arrays the
builder's own, so this AST scan fails on a call from any function not in
the allow-list below: adding one is a visible, reviewed choice. The one
rule: a checked constructor copies, a builder hands over. So `setflags(` is
called only where arrays are frozen, in `_unchecked`, in `_readonly` (the
checked constructors' copy) and in `_axis`.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ultradiffusion
from ultradiffusion.fitting import UltradiffusionParams, sample_events, simulate_curve
from ultradiffusion.generator import Generator, build_generator
from ultradiffusion.oracle import ProbabilityVector
from ultradiffusion.spectral import (
    ChainSpectrum,
    TreeModel,
    caterpillar_tree,
    chain_spectrum,
    space_from_tree,
)
from ultradiffusion.traces import EventTrace, PopularityCurve, parse_trace_csv
from ultradiffusion.ultrametric import UltrametricSpace, build_from_trace, uniform_chain

SOURCES = sorted(Path(ultradiffusion.__file__).parent.glob("*.py"))
FIXTURE = Path(__file__).resolve().parents[1] / "data" / "synthetic_t50_mu02.csv"

# (module, enclosing function) of every call allowed to skip the checks.
ALLOWED = {
    "_unchecked": {
        ("fitting", "simulate_curve"),
        ("ultrametric", "_max_space"),
        ("spectral", "space_from_tree"),
        ("spectral", "chain_spectrum"),
        ("generator", "build_generator"),
        ("traces", "parse_trace_csv"),
    },
    "setflags": {
        ("traces", "_unchecked"),
        ("traces", "_readonly"),
        ("traces", "_axis"),
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
        "    return _unchecked(Generator, rates=x)\n"
        "made = _unchecked(Generator, rates=None)\n"
    )
    assert disallowed("generator", source) == [
        "generator.inner calls _unchecked( on line 7",
        "generator.helper calls _unchecked( on line 8",
        "generator.<module> calls _unchecked( on line 9",
    ]


def test_scan_flags_a_setflags_call_outside_the_three_freezers():
    source = (
        "def _readonly(values):\n"
        "    out = np.array(values)\n"
        "    out.setflags(write=False)\n"
        "def parse_trace_csv(path):\n"
        "    events.setflags(write=False)\n"
    )
    assert disallowed("traces", source) == ["traces.parse_trace_csv calls setflags( on line 5"]


_TRACE = sample_events(UltradiffusionParams(t_N=20, mu=0.2, M=120), seed=3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: simulate_curve(UltradiffusionParams(t_N=20, mu=0.2, M=120), 30.0),
        lambda: build_from_trace(_TRACE),
        lambda: uniform_chain(7),
        lambda: space_from_tree(caterpillar_tree(7, 0.3)),
        lambda: build_generator(uniform_chain(7), 0.3),
        lambda: parse_trace_csv(FIXTURE),
        lambda: chain_spectrum(7, 0.3),
    ],
    ids=["simulate_curve", "build_from_trace", "uniform_chain", "space_from_tree",
         "build_generator", "parse_trace_csv", "chain_spectrum"],
)
def test_built_values_are_frozen_and_pass_the_checked_constructor(build):
    made = build()
    # The parser builds one trace per story; each is checked.
    for built in made if isinstance(made, list) else [made]:
        values = {field.name: getattr(built, field.name) for field in fields(built)}
        arrays = {name: value for name, value in values.items() if isinstance(value, np.ndarray)}
        assert arrays
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            assert array.base is None, name
        checked = type(built)(**values)
        for name, value in values.items():
            np.testing.assert_array_equal(getattr(checked, name), value)


def _frozen(values, dtype=float):
    """A read-only array that owns its data."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


# Each checked constructor with valid inputs, every array among them frozen.
CHECKED = [
    (EventTrace, dict(story_id="s", events=_frozen([1.0, 2.0]), horizon=2.0)),
    (PopularityCurve, dict(horizon=2.0, values=_frozen([0.5, 1.0]))),
    (UltrametricSpace, dict(labels=_frozen([1.0, 2.0]), dist=_frozen([[0.0, 1.0], [1.0, 0.0]]))),
    (Generator, dict(rates=_frozen([[-1.0, 1.0], [1.0, -1.0]]))),
    (ChainSpectrum, dict(eigenvalues=_frozen([0.0, -1.0]))),
    (TreeModel, dict(parent=_frozen([-1, 0, 0], dtype=int), height=_frozen([1.0, 0.0, 0.0]))),
    (ProbabilityVector, dict(entries=_frozen([0.5, 0.5]))),
]


@pytest.mark.parametrize("cls, inputs", CHECKED, ids=[cls.__name__ for cls, _ in CHECKED])
def test_a_checked_constructor_copies_a_read_only_array_it_could_have_kept(cls, inputs):
    # Only `_unchecked` hands an array over; a checked constructor never
    # shares its caller's array, read-only and owning its data or not.
    made = cls(**inputs)
    for name, given in inputs.items():
        if isinstance(given, np.ndarray):
            kept = getattr(made, name)
            assert not np.shares_memory(kept, given), name
            assert not kept.flags.writeable and kept.base is None, name
            np.testing.assert_array_equal(kept, given)
