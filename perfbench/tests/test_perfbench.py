"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They cover deterministic inputs, the metric list against BENCHMARK.json, the
output checks (they must catch a wrong output), the tracer, a tiny pass of
every workload, and the result line of a short run.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ultradiffusion import checks, cli, fitting, traces  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_same_seed_gives_byte_identical_csv(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.write_csv(tmp_path / f"{name}.csv", workloads.make_stories(seed, 20, 100))
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    assert first != (tmp_path / "c.csv").read_bytes()
    # batch-fit's stories are the first ones of batch-aggregate's batch.
    workloads.write_csv(tmp_path / "d.csv", workloads.make_stories(3, 5, 100))
    assert first.startswith((tmp_path / "d.csv").read_bytes())


def test_batch_has_the_stated_memoryless_share_and_horizon_ties():
    props = workloads.input_properties(workloads.make_stories(1, 200, 1000))
    assert props["memoryless_share"] == 0.01
    assert props["rows"] == 200_000
    assert 0.0 < props["tied_at_horizon_share"] < 0.05


def test_metric_names_units_and_directions_match_benchmark_json():
    assert _spec(SPEC["end_to_end"]) == list(run.END_TO_END)
    assert _spec(SPEC["per_layer"]) == list(tracing.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["batch-fit", "batch-aggregate", "compare-export"])
def test_cli_workload_pass_is_checked_clean(tmp_path, name):
    workload = workloads.WORKLOADS[name](stories=10)
    workload.prepare(tmp_path, 1)
    out = tmp_path / "out"
    out.mkdir()
    outcome = workload.check(out, workload.run(out))
    assert outcome.problems == []
    assert outcome.attempted == min(10, workload.chunk or 10)
    assert outcome.failed <= 2  # the memoryless story, refused by fit, and a rare h1 >= 1


def test_checks_catch_a_dropped_record_and_a_wrong_matrix(tmp_path):
    fit = workloads.BatchFit(stories=10)
    fit.prepare(tmp_path, 2)
    out = tmp_path / "fit"
    out.mkdir()
    raw = fit.run(out)
    records = json.loads((out / "fits.json").read_text())
    (out / "fits.json").write_text(json.dumps(records[1:]))
    assert any("neither written nor reported" in p for p in fit.check(out, raw).problems)

    compare = workloads.CompareExport(stories=3)
    compare.prepare(tmp_path, 2)
    out = tmp_path / "compare"
    out.mkdir()
    raw = compare.run(out)
    table = out / "story_0002_distance.tsv"
    lines = table.read_text().splitlines()
    cells = lines[2].split("\t")
    cells[1] = "12345"
    lines[2] = "\t".join(cells)
    table.write_text("\n".join(lines) + "\n")
    assert any("distance matrix" in p for p in compare.check(out, raw).problems)


def test_model_verify_pass_counts_every_check_and_kernel_call(tmp_path):
    workload = workloads.ModelVerify(trace_events=(40,), chain_sizes=(10, 30))
    workload.prepare(tmp_path, 1)
    outcome = workload.check(tmp_path, workload.run(tmp_path))
    assert outcome.problems == []
    assert outcome.failed == 0
    # ten checks, four calls per trace, eight per chain, four dense-oracle calls
    assert outcome.attempted == 10 + 4 + 2 * 8 + 4
    assert {f"checks.{name}_s" for name in checks.CHECK_NAMES} <= set(outcome.values)


def test_sweep_tells_refused_skipped_and_wrong_apart():
    sweep = workloads._Sweep()

    def deep():
        raise RecursionError("too deep")

    value = sweep.call("refuses", deep)
    sweep.call("needs the refused value", len, value)
    sweep.call("disagrees", np.zeros, 3, check=lambda v: workloads._gap(v, np.ones(3), 1e-12))
    sweep.call("agrees", np.ones, 3, check=lambda v: workloads._gap(v, np.ones(3), 1e-12))
    # Checks wait for verify, outside the timed sweep.
    assert [status for _, status, _ in sweep.ops] == ["refused", "skipped", "ok", "ok"]
    assert [status for _, status, _ in sweep.verify()] == ["refused", "skipped", "wrong", "ok"]


@pytest.mark.parametrize(
    "name, measured, tolerance, runtime, only_slow",
    [
        ("fit-round-trip", 1e-9, 1e-6, 9.0, True),  # within tolerance, over budget
        ("fit-round-trip", 1.0, 1e-6, 9.0, False),  # outside tolerance, over budget
        ("fit-round-trip", 1e-9, 1e-6, 0.5, False),  # failed inside its budget
        ("end-to-end-synthetic", 0.999, 0.99, 9.0, True),  # a floor: above is within
        ("end-to-end-synthetic", 0.5, 0.99, 9.0, False),
        ("end-to-end-synthetic", float("nan"), 0.99, 9.0, False),
        ("poisson-discriminator", 0.01, 0.01, 9.0, False),  # strict: equal is outside
    ],
)
def test_failed_self_check_is_wrong_unless_only_over_budget(
    name, measured, tolerance, runtime, only_slow
):
    result = checks.CheckResult(
        name=name, passed=False, measured=measured, tolerance=tolerance,
        runtime_s=runtime, budget_s=5.0,
    )
    assert workloads._only_slow(result) is only_slow


def test_passes_are_bracketed_by_reference_runs(tmp_path):
    workload = workloads.BatchFit(stories=10)
    workload.prepare(tmp_path, 1)
    walls, cpus, refs, outcomes, peak = run.run_passes(
        workload, tmp_path, 3, reference.Reference()
    )
    assert len(walls) == len(cpus) == len(outcomes) == 3
    # One gap before the first pass and one after each pass.
    assert [len(gap) for gap in refs] == [workload.reference_runs] * 4
    assert all(r > 0 for gap in refs for r in gap) and peak > 0


def test_every_workload_has_a_reference_and_the_collector_stays_on():
    ref = reference.Reference()
    for name in run.WORKLOAD_NAMES:
        assert workloads.WORKLOADS[name].reference_part in reference.PARTS
    assert all(ref.run(part) > 0 for part in reference.PARTS)
    assert gc.isenabled()
    with pytest.raises(KeyError):
        ref.run("no-such-part")


def test_tracer_records_spans_per_thread_and_restores_functions():
    original = (cli.fit_exponential, fitting.fit_exponential, traces.uniform_grid)
    tracer = tracing.Tracer()
    tracer.install(1)
    try:
        assert cli.fit_exponential is not original[0]
        traces.uniform_grid(1.0, 3)
    finally:
        tracer.uninstall()
    assert (cli.fit_exponential, fitting.fit_exponential, traces.uniform_grid) == original
    (span,) = tracer.spans
    assert span["name"] == "traces.uniform_grid"
    assert span["pass"] == 1 and span["parent"] is None and span["thread"]
    assert span["end"] >= span["start"] and span["cpu"] >= 0


def test_union_counts_overlapping_intervals_once():
    assert tracing._union([(0.0, 2.0), (5.0, 6.0), (1.0, 3.0)]) == 4.0


def _result(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_the_result_line(trace, key):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "batch-aggregate",
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc, lines = _result(cmd, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "batch-fit",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc, lines = _result(cmd, tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
