"""The self-check suite's clock and its failure rule.

`run_all` times each check on one clock, from the check's call (or the
restart after its warm-up) to its return. A check that raises a ValueError
or RuntimeError fails alone, and `oracle-check` still prints its table and
writes a strict-JSON report.
"""

import ast
import dataclasses
import json
import math
import types
from pathlib import Path

import pytest

import ultradiffusion
from ultradiffusion import checks, fitting, oracle, ultrametric
from ultradiffusion.cli import main

SOURCES = sorted(Path(ultradiffusion.__file__).parent.glob("*.py"))


@pytest.fixture
def fake_time(monkeypatch):
    """Give the suite's clock a time that moves only when a test moves it."""
    now = [0.0]
    monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    return now


def _only(monkeypatch, *entries):
    """Make `run_all` run these `_CHECKS` entries alone."""
    monkeypatch.setattr(checks, "_CHECKS", tuple(entries))


def _entry(name):
    (entry,) = [e for e in checks._CHECKS if e[0] == name]
    return entry


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "name, module, func, call, runtime",
    [
        # The first build is the one checked, and warms numpy's dispatch.
        ("distance-matrix-reproduction", ultrametric, "build_from_trace", 0, 0.0),
        ("distance-matrix-reproduction", ultrametric, "build_from_trace", 1, 0.02),
        # A check with no warm-up times from its call.
        ("random-trace-ultrametricity", ultrametric, "build_from_trace", 0, 0.02),
        ("master-equation-agreement", oracle, "integrate_propagator", 0, 0.0),
        ("master-equation-agreement", oracle, "integrate_propagator", 1, 0.02),
    ],
)
def test_the_window_leaves_out_the_warm_up_alone(
    monkeypatch, fake_time, name, module, func, call, runtime
):
    # Call `call` of `func`, as the check calls it, takes 20 ms of the clock.
    real, calls = getattr(module, func), []

    def slow(*args, **kwargs):
        if len(calls) == call:
            fake_time[0] += 0.02
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, func, slow)
    _only(monkeypatch, _entry(name))
    (result,) = checks.run_all()
    assert len(calls) > call
    assert result.runtime_s == runtime
    assert result.passed == (runtime < result.budget_s)


def test_a_space_of_other_labels_fails_naming_them(monkeypatch):
    real = ultrametric.build_from_trace

    def relabeled(trace):
        space = real(trace)
        return dataclasses.replace(space, labels=space.labels + 1.0)

    monkeypatch.setattr(ultrametric, "build_from_trace", relabeled)
    _only(monkeypatch, _entry("distance-matrix-reproduction"))
    (result,) = checks.run_all()
    # The distances still match: the labels alone fail the check.
    assert result.measured == 0.0 and not result.passed
    labels = [label + 1.0 for label in checks.WORKED_LABELS]
    assert result.detail.endswith(f"\nstate labels differ: {labels}")


def test_a_trace_found_not_ultrametric_is_named_first(monkeypatch):
    # Traces 2 and 4 are reported violated; the count is 2, the first named.
    real, calls = ultrametric.verify_ultrametric, []

    def flagging(space):
        report = real(space)
        calls.append(None)
        if len(calls) in (3, 5):
            return ultrametric.TripleReport(triple=(0, 1, 2), message=f"stub {len(calls)}")
        return report

    monkeypatch.setattr(ultrametric, "verify_ultrametric", flagging)
    _only(monkeypatch, _entry("random-trace-ultrametricity"))
    (result,) = checks.run_all()
    assert result.measured == 2.0 and not result.passed
    assert result.detail.endswith(" first failure: trace 2, stub 3")


def _refusing(error, now):
    """A check that raises `error` after two seconds of the clock `now`."""

    def check(tolerance, clock):
        now[0] += 2.0
        raise error

    return ("fit-round-trip", 1e-6, 2.0, check)


@pytest.mark.parametrize(
    "error, detail",
    [
        (fitting.FitError("no dynamics to fit: curve is constant"),
         "FitError: no dynamics to fit: curve is constant"),
        (ValueError("values must be finite"), "ValueError: values must be finite"),
    ],
)
def test_a_check_that_raises_fails_alone(monkeypatch, fake_time, error, detail):
    raising = _refusing(error, fake_time)
    before, after = _entry("saturation-curve-constants"), _entry("power-law-regime")
    _only(monkeypatch, before, raising, after)
    results = checks.run_all()
    assert [r.name for r in results] == [
        "saturation-curve-constants", "fit-round-trip", "power-law-regime"
    ]
    failed = results[1]
    assert not failed.passed and math.isnan(failed.measured)
    assert failed.detail == detail
    assert failed.runtime_s == 2.0
    assert (failed.tolerance, failed.budget_s) == (1e-6, 2.0)
    assert results[0].passed and results[2].passed


def test_an_error_no_command_maps_keeps_its_traceback(monkeypatch):
    def broken(tolerance, clock):
        raise TypeError("a bug in the check")

    _only(monkeypatch, ("broken", 0.0, 1.0, broken), _entry("power-law-regime"))
    with pytest.raises(TypeError, match="a bug in the check"):
        checks.run_all()


def test_oracle_check_reports_a_raising_check_and_exits_3(
    monkeypatch, fake_time, tmp_path, capsys
):
    raising = _refusing(fitting.FitError("curve is constant"), fake_time)
    _only(monkeypatch, _entry("saturation-curve-constants"), raising, _entry("power-law-regime"))
    out = tmp_path / "report"
    assert main(["oracle-check", "--out-dir", str(out)]) == 3
    text = capsys.readouterr().out
    assert "fit-round-trip: FitError: curve is constant" in text
    assert "2/3 checks passed" in text
    rows = _strict_json(out / "oracle_report.json")
    assert [row["name"] for row in rows] == [e[0] for e in checks._CHECKS]
    assert [row["passed"] for row in rows] == [True, False, True]
    assert rows[1]["measured"] is None
    assert rows[1]["runtime_s"] == 2.0


def test_a_fitter_that_refuses_every_curve_fails_only_the_checks_that_fit(
    monkeypatch, tmp_path, capsys
):
    def refuse(horizons, values, offset=False):
        return [fitting.FitError("no dynamics to fit: curve is constant") for _ in values]

    # The CLI imported fit_block by name, so patch both places it is read.
    monkeypatch.setattr(fitting, "fit_block", refuse)
    monkeypatch.setattr(ultradiffusion.cli, "fit_block", refuse)
    out = tmp_path / "report"
    assert main(["oracle-check", "--out-dir", str(out)]) == 3
    text = capsys.readouterr().out
    rows = _strict_json(out / "oracle_report.json")
    assert [row["name"] for row in rows] == list(checks.CHECK_NAMES)
    failed = {row["name"]: row["measured"] for row in rows if not row["passed"]}
    assert failed == {
        "fit-round-trip": None,
        "end-to-end-synthetic": None,
        "poisson-discriminator": None,
    }
    assert "fit-round-trip: FitError: no dynamics to fit: curve is constant" in text
    assert "7/10 checks passed" in text


def _time_readers(path):
    """`module.name` of each top-level definition that reads the time module."""
    tree = ast.parse(path.read_text())
    readers, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "time"}
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            readers.add(f"{path.stem}: from time import, line {node.lineno}")
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in aliases:
                readers.add(f"{path.stem}.{owner}")
    return readers


def test_only_the_suite_clock_and_run_all_read_time():
    readers = set().union(*(_time_readers(path) for path in SOURCES))
    assert "checks._Clock" in readers
    assert readers <= {"checks._Clock", "checks.run_all"}
