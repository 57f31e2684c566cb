"""Command-line driver: exit codes, file outputs, determinism."""

import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ultradiffusion import checks, cli, traces
from ultradiffusion.cli import main
from ultradiffusion.baselines import fit_linear
from ultradiffusion.fitting import (
    FitError,
    UltradiffusionParams,
    exponential_model,
    fit_exponential,
    infer_params,
    r_squared,
    sample_events,
    simulate_curve,
)
from ultradiffusion.serialize import write_curve_tsv, write_json, write_trace_csv
from ultradiffusion.traces import EventTrace, empirical_curve, parse_trace_csv

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "data" / "synthetic_t50_mu02.csv"

FIT_KEYS = {
    "story_id", "h1", "h2", "h3", "r2", "t_N", "mu", "M", "r2_simulated",
}


def sampled_story(story_id, seed, m=200):
    params = UltradiffusionParams(t_N=50, mu=0.2, M=m)
    return sample_events(params, seed=seed, story_id=story_id)


def write_linear_story(path, m=120, horizon=600.0):
    lines = ["story_id,timestamp"]
    lines.extend(f"line,{k * horizon / m}" for k in range(1, m + 1))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFit:
    def test_bundled_fixture_recovers_parameters(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", "--input", str(FIXTURE), "--out-dir", str(out)])
        assert code == 0
        (record,) = json.loads((out / "fits.json").read_text())
        assert set(record) == FIT_KEYS
        assert record["t_N"] == 50
        assert record["r2_simulated"] >= 0.95
        assert record["M"] == 1000
        curve = out / "synthetic_t50_curve.tsv"
        assert curve.read_text().splitlines()[0] == "t\tp"

    @pytest.mark.parametrize("offset", [False, True], ids=["plain", "offset"])
    def test_readme_recipe_rebuilds_the_fitted_and_simulated_curves(
        self, tmp_path, monkeypatch, capsys, offset
    ):
        # The README's "Curve tables" recipe, run as written on a fit output,
        # gives the library's fitted and simulated curves on the table's times.
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme[readme.index("\n### Curve tables\n") :]
        start = section.index("```python\n") + len("```python\n")
        recipe = section[start : section.index("```\n", start)]
        monkeypatch.chdir(tmp_path)
        write_trace_csv("in.csv", [sampled_story("story_001", seed=0)])
        options = ["--offset"] if offset else []
        assert main(["fit", "--input", "in.csv", "--out-dir", "out", *options]) == 0
        scope = {}
        exec(recipe, scope)
        record, t = scope["record"], scope["t"]
        assert (record["h3"] > 0) == offset
        fitted = exponential_model(t, record["h1"], record["h2"], record["h3"])
        np.testing.assert_allclose(scope["fitted"], fitted, rtol=1e-12, atol=0)
        # `simulate_curve` samples the story's own grid, which the table's
        # 9-digit times only round.
        (story,) = parse_trace_csv("in.csv")
        params = UltradiffusionParams(record["t_N"], record["mu"], record["M"])
        simulated = simulate_curve(params, story.horizon)
        np.testing.assert_allclose(t, simulated.grid, rtol=5e-9, atol=0)
        np.testing.assert_allclose(scope["simulated"], simulated.values, rtol=1e-8, atol=0)

    def test_small_story_is_skipped_with_notice(self, tmp_path, capsys):
        csv = tmp_path / "mixed.csv"
        big = sampled_story("big", seed=11)
        lines = ["story_id,timestamp", "tiny,1.0", "tiny,2.0", "tiny,3.0"]
        lines.extend(f"big,{t:.9g}" for t in big.events)
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["fit", "--input", str(csv), "--out-dir", str(out)])
        assert code == 0
        assert "below the minimum" in capsys.readouterr().err
        records = json.loads((out / "fits.json").read_text())
        assert [r["story_id"] for r in records] == ["big"]

    def test_empty_csv_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("story_id,timestamp\n")
        code = main(["fit", "--input", str(csv), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o").exists()

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_fully_filtered_input_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "tiny.csv"
        csv.write_text("story_id,timestamp\ns,1.0\ns,2.0\n")
        out = tmp_path / "out"
        code = main(["fit", "--input", str(csv), "--out-dir", str(out)])
        assert code == 1
        assert not out.exists()

    def test_unfittable_story_exits_two_without_partial_files(self, tmp_path, capsys):
        # Sixty simultaneous events against a far horizon fill one grid
        # cell, too few to build a curve from.
        csv = tmp_path / "flat.csv"
        rows = "\n".join("flat,1.0" for _ in range(60))
        csv.write_text("story_id,timestamp\n" + rows + "\n")
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(csv), "--out-dir", str(out), "--horizon", "1000"]
        )
        assert code == 2
        assert "events fill 1 of 200 grid cells" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_memory_per_story_leaves_no_room_for_a_grid_block(self, tmp_path):
        # 2000 stories of 10 exponential times. The run peaks at about 4.4 KB
        # of traced allocations per story: the curve block's 1.6 KB row, the
        # parsed trace, the fit record and its share of the JSON text. A
        # whole-run (stories x 200) float64 grid array beside the values
        # block would add another 1.6 KB per story and cross the bound. The
        # run is measured in a fresh interpreter: in this one, a resize of
        # the interned-string table that the test session has filled can
        # land inside it and add 1.9 MB.
        stories = 2000
        rng = np.random.default_rng(10)
        csv = tmp_path / "small.csv"
        with csv.open("w") as handle:
            handle.write("story_id,timestamp\n")
            for k in range(stories):
                times = np.sort(rng.exponential(1.0, 10))
                handle.write("".join(f"s{k:04d},{t:.9g}\n" for t in times))
        probe = (
            "import sys, tracemalloc\n"
            "from ultradiffusion.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(sys.argv[1:])\n"
            "print(code, tracemalloc.get_traced_memory()[1])\n"
        )
        argv = ["fit", "--input", str(csv), "--out-dir", str(tmp_path / "out"), "--min-events", "5"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ))
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True
        )
        code, peak = map(int, result.stdout.split()[-2:])
        assert code == 0
        assert peak / stories < 5000

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["fit", "--input", str(FIXTURE), "--out-dir", str(out_a)]) == 0
        assert main(["fit", "--input", str(FIXTURE), "--out-dir", str(out_b)]) == 0
        assert (out_a / "fits.json").read_bytes() == (out_b / "fits.json").read_bytes()
        assert (
            (out_a / "synthetic_t50_curve.tsv").read_bytes()
            == (out_b / "synthetic_t50_curve.tsv").read_bytes()
        )

    def test_story_names_are_sanitized_and_deduplicated(self, tmp_path, capsys):
        # An id holding a bare CR is written quoted, so it reads back whole.
        ids = ["a b", "a_b", "a\rb"]
        csv = tmp_path / "names.csv"
        write_trace_csv(csv, [sampled_story(sid, seed=21 + 2 * k) for k, sid in enumerate(ids)])
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", str(csv), "--out-dir", str(out), "--min-events", "10"]
        )
        assert code == 0
        assert [r["story_id"] for r in json.loads((out / "fits.json").read_text())] == sorted(ids)
        assert sorted(p.name for p in out.glob("*_curve.tsv")) == [
            "a_b_2_curve.tsv", "a_b_3_curve.tsv", "a_b_curve.tsv"
        ]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_long_story_ids_are_cut_to_a_hundred_characters(self, command, tmp_path, capsys):
        # A 300-character id made file names past the 255-byte limit, and the
        # run aborted with "File name too long". Two ids that share their
        # first 100 characters take the deduplicating suffix; an id of 100
        # characters keeps its whole name.
        ids = ["x" * 300, "x" * 100 + "y" * 200, "z" * 100, "short"]
        csv = tmp_path / "long.csv"
        write_trace_csv(csv, [sampled_story(sid, seed=k) for k, sid in enumerate(ids)])
        out = tmp_path / "out"
        argv = [command, "--input", str(csv), "--out-dir", str(out), "--min-events", "10"]
        if command == "compare":
            argv.append("--export-matrices")
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        table = "fits.json" if command == "fit" else "comparison.json"
        assert [r["story_id"] for r in json.loads((out / table).read_text())] == sorted(ids)
        suffixes = ["_curve.tsv"] if command == "fit" else ["_distance.tsv", "_generator.tsv"]
        names = ["short", "x" * 100, "x" * 100 + "_2", "z" * 100]
        assert sorted(p.name for p in out.iterdir() if p.name != table) == sorted(
            name + suffix for name in names for suffix in suffixes
        )

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_ids_differing_only_in_case_get_distinct_file_names(self, command, tmp_path, capsys):
        # On a case-insensitive filesystem STORY_001_curve.tsv and
        # story_001_curve.tsv are one file: one story's tables overwrote the
        # other's while both records stayed in the JSON.
        ids = ["STORY_001", "other", "story_001"]
        csv = tmp_path / "case.csv"
        write_trace_csv(csv, [sampled_story(sid, seed=k) for k, sid in enumerate(ids)])
        out = tmp_path / "out"
        argv = [command, "--input", str(csv), "--out-dir", str(out), "--min-events", "10"]
        if command == "compare":
            argv.append("--export-matrices")
        assert main(argv) == 0
        table = "fits.json" if command == "fit" else "comparison.json"
        records = json.loads((out / table).read_text())
        files = [p.name for p in out.iterdir() if p.name != table]
        assert len({name.lower() for name in files}) == len(files)
        if command == "fit":
            assert len(list(out.glob("*_curve.tsv"))) == len(records)
        suffixes = ["_curve.tsv"] if command == "fit" else ["_distance.tsv", "_generator.tsv"]
        names = ["STORY_001", "other", "story_001_2"]
        assert sorted(files) == sorted(name + suffix for name in names for suffix in suffixes)


class TestStoryFailures:
    def test_data_errors_fail_the_story_not_the_run(self, tmp_path, capsys):
        # The memoryless story's amplitude cannot be inverted; the other fits.
        csv = tmp_path / "mixed.csv"
        write_linear_story(csv)
        with csv.open("a") as fh:
            fh.writelines(f"sat,{t:.9g}\n" for t in sampled_story("sat", seed=5).events)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(csv), "--out-dir", str(out)]) == 0
        assert "story 'line' failed: ValueError: amplitude" in capsys.readouterr().err
        assert [r["story_id"] for r in json.loads((out / "fits.json").read_text())] == ["sat"]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_programming_errors_propagate(self, tmp_path, monkeypatch, command):
        def broken(horizons, values, offset=False):
            raise TypeError("broken fitter")

        monkeypatch.setattr(cli, "fit_block", broken)
        with pytest.raises(TypeError, match="broken fitter"):
            main([command, "--input", str(FIXTURE), "--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "command, result", [("fit", "fits.json"), ("compare", "comparison.json")]
    )
    def test_a_story_the_batch_refuses_fails_alone(self, tmp_path, capsys, command, result):
        # Under a common horizon, sixty events at t = 1 fill one grid cell:
        # the curve block refuses it in place, and the stories fitted beside
        # it come out as they do without it.
        stories = [sampled_story("s1", seed=41), sampled_story("s2", seed=43)]
        horizon = f"{max(story.horizon for story in stories):.9g}"
        alone, mixed = tmp_path / "alone.csv", tmp_path / "mixed.csv"
        write_trace_csv(alone, stories)
        mixed.write_text(alone.read_text() + "".join("flat,1.0\n" for _ in range(60)))
        outs = []
        for csv in (alone, mixed):
            outs.append(tmp_path / csv.stem)
            argv = [command, "--input", str(csv), "--out-dir", str(outs[-1])]
            assert main([*argv, "--horizon", horizon]) == 0
        err = capsys.readouterr().err
        assert (
            "story 'flat' failed: ValueError: events fill 1 of 200 grid cells: "
            "are timestamps measured from the story's start?\n"
        ) in err
        files = sorted(path.name for path in outs[0].iterdir())
        assert result in files
        assert sorted(path.name for path in outs[1].iterdir()) == files
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestClockOrigin:
    """Timestamps must count from each story's start: a batch stamped with
    clock times is refused by name, before any fit, and gets no verdict."""

    CLOCK = (
        "events fill 1 of 200 grid cells: are timestamps measured from the story's start?"
    )

    @pytest.fixture
    def epoch_batch(self, tmp_path, capsys):
        # The seed-3 simulated batch, every timestamp moved to Unix-epoch
        # seconds: each story's events then share the last of its grid cells.
        assert main(["simulate", "--out-dir", str(tmp_path / "sim"), "--stories", "30",
                     "--seed", "3"]) == 0
        traces_in = parse_trace_csv(tmp_path / "sim" / "trace.csv")
        shifted = [
            dataclasses.replace(t, events=t.events + 1.3e9, horizon=t.horizon + 1.3e9)
            for t in traces_in
        ]
        write_trace_csv(tmp_path / "epoch.csv", shifted)
        capsys.readouterr()
        return tmp_path / "sim" / "trace.csv", tmp_path / "epoch.csv", traces_in

    @pytest.mark.parametrize("command", ["fit", "compare", "aggregate"])
    def test_epoch_stamped_stories_are_refused_by_name(
        self, tmp_path, capsys, epoch_batch, command
    ):
        plain, epoch, traces_in = epoch_batch
        assert main([command, "--input", str(plain), "--out-dir", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        out = tmp_path / "b"
        assert main([command, "--input", str(epoch), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:-1] == [
            f"story {t.story_id!r} failed: ValueError: {self.CLOCK}"
            for t in sorted(traces_in, key=lambda t: t.story_id)
        ]
        assert err[-1].startswith("error: ")
        # No output: in particular, no `memoryless` verdict.
        assert not out.exists()


def per_story_reference(traces, command, offset, out):
    """What `fit` or `compare` writes when every story is handled alone:
    fit_exponential -> infer_params -> simulate_curve, and in `fit` the
    write_curve_tsv of each fitted story's `empirical_curve`. Writes the
    files into `out`; returns the failure report."""
    results, failed = {}, {}
    for trace in traces:
        sid = trace.story_id
        try:
            curve = empirical_curve(trace)
            fit = fit_exponential(curve, offset)
        except (FitError, ValueError) as err:
            failed[sid] = err
            continue
        try:
            params = infer_params(fit, M=trace.count)
        except ValueError as err:
            mapped = err
        else:
            simulated = simulate_curve(params, curve.horizon)
            mapped = {
                "t_N": params.t_N,
                "mu": params.mu,
                "M": params.M,
                "r2_simulated": r_squared(curve.values, simulated.values),
            }
        if command == "fit":
            if isinstance(mapped, Exception):
                failed[sid] = mapped
                continue
            columns = (curve.grid, curve.values)
            record = {"story_id": sid, "h1": fit.h1, "h2": fit.h2, "h3": fit.h3,
                      "r2": fit.r2, **mapped}
        else:
            _, _, r2_lin = fit_linear(curve.grid, curve.values)
            columns = None
            record = {
                "story_id": sid, "r2_exponential": fit.r2, "r2_linear": r2_lin,
                "r2_simulated": None, "t_N": None, "mu": None,
                "verdict": "saturating" if fit.r2 > r2_lin else "memoryless", "note": "",
            }
            if isinstance(mapped, Exception):
                record["note"] = f"parameter mapping failed: {mapped}"
            else:
                record.update({key: mapped[key] for key in ("r2_simulated", "t_N", "mu")})
        results[sid] = record, columns
    out.mkdir()
    for sid, (_, columns) in sorted(results.items()):
        if columns:
            write_curve_tsv(out / f"{sid}_curve.tsv", *columns)
    result = "fits.json" if command == "fit" else "comparison.json"
    write_json(out / result, [results[sid][0] for sid in sorted(results)])
    return "".join(
        f"story {sid!r} failed: {type(err).__name__}: {err}\n"
        for sid, err in sorted(failed.items())
    )


class TestBlockPass:
    """`fit` and `compare` run every story as one block, and write what
    handling each story alone writes, byte for byte."""

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("offset", [False, True], ids=["plain", "offset"])
    @pytest.mark.parametrize("override", [False, True], ids=["own", "common"])
    def test_outputs_equal_the_per_story_reference(
        self, tmp_path, capsys, command, offset, override
    ):
        stories = [sampled_story(f"s{k}", seed=60 + k, m=80 + 40 * k) for k in range(5)]
        csv = write_linear_story(tmp_path / "in.csv")  # h1 >= 1: no mapping
        rows = [f"{s.story_id},{t:.9g}\n" for s in stories for t in s.events]
        rows += ["flat,1.0\n"] * 60  # one grid cell filled
        rows += ["tiny,5e-324\n"] * 60  # horizon too short for a grid
        rows += ["one,3.0\n"]  # a 1-event story
        # Tied at the horizon, in four cells of the story's own grid.
        rows += ["tied,2.0\n"] * 20 + ["tied,1.5\n", "tied,1.0\n", "tied,0.5\n"] * 7
        with csv.open("a") as fh:
            fh.writelines(rows)
        options = ["--min-events", "1", *(["--offset"] if offset else [])]
        traces_in = parse_trace_csv(csv)
        if override:
            horizon = 2 * max(trace.horizon for trace in traces_in)
            options += ["--horizon", repr(horizon)]
            traces_in = [EventTrace(t.story_id, t.events, horizon) for t in traces_in]
        got = tmp_path / "got"
        assert main([command, "--input", str(csv), "--out-dir", str(got), *options]) == 0
        err = capsys.readouterr().err
        want = tmp_path / "want"
        report = per_story_reference(traces_in, command, offset, want)
        assert err == report
        # Every kind of refusal met the block: a horizon too short for a grid
        # (under the common horizon, its events fill one grid cell instead),
        # events in too few grid cells, and an amplitude h1 >= 1, which
        # fails the story in `fit` and is a note in `compare`.
        assert ("too short to split" in report) != override
        assert "events fill 1 of 200 grid cells" in report
        result = "fits.json" if command == "fit" else "comparison.json"
        records = json.loads((got / result).read_text())
        assert {f"s{k}" for k in range(5)} <= {r["story_id"] for r in records}
        assert "amplitude h1=" in (report if command == "fit" else json.dumps(records))
        assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), path.name


class TestAggregate:
    def test_two_identical_stories_match_the_single_fit(self, tmp_path, capsys):
        story = sampled_story("solo", seed=33)
        single = tmp_path / "single.csv"
        double = tmp_path / "double.csv"
        write_trace_csv(single, [story])
        lines = ["story_id,timestamp"]
        for sid in ("one", "two"):
            lines.extend(f"{sid},{t:.9g}" for t in story.events)
        double.write_text("\n".join(lines) + "\n")

        out_single = tmp_path / "out_single"
        out_double = tmp_path / "out_double"
        assert main(["fit", "--input", str(single), "--out-dir", str(out_single)]) == 0
        assert (
            main(["aggregate", "--input", str(double), "--out-dir", str(out_double)])
            == 0
        )
        (fit,) = json.loads((out_single / "fits.json").read_text())
        agg = json.loads((out_double / "aggregate_fit.json").read_text())
        assert agg["n_stories"] == 2
        assert agg["h1"] == pytest.approx(fit["h1"], abs=1e-9)
        assert agg["h2"] == pytest.approx(fit["h2"], abs=1e-9)
        assert agg["r2"] == pytest.approx(fit["r2"], abs=1e-9)
        assert agg["M"] == 2 * fit["M"]

    def test_aggregate_record_has_the_fit_keys_and_the_story_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["aggregate", "--input", str(FIXTURE), "--out-dir", str(out)]) == 0
        record = json.loads((out / "aggregate_fit.json").read_text())
        assert set(record) == FIT_KEYS | {"n_stories"}
        assert record["story_id"] == "aggregate"
        assert record["n_stories"] == 1

    def test_a_story_whose_curve_cannot_be_built_fails_alone(self, tmp_path, capsys):
        # Events at 5e-324 leave no room for a uniform grid below them, so
        # the story is reported and left out, as `fit` leaves it out.
        alone, mixed = tmp_path / "alone.csv", tmp_path / "mixed.csv"
        write_trace_csv(alone, [sampled_story("s1", seed=7)])
        mixed.write_text(alone.read_text() + "".join("tiny,5e-324\n" for _ in range(60)))
        outs = [tmp_path / "out_alone", tmp_path / "out_mixed"]
        for csv, out in zip((alone, mixed), outs):
            assert main(["aggregate", "--input", str(csv), "--out-dir", str(out)]) == 0
        err = capsys.readouterr().err
        assert (
            "story 'tiny' failed: ValueError: horizon 5e-324 is too short to split "
            "into 200 uniform grid points\n"
        ) in err
        assert "Traceback" not in err
        for name in ("aggregate_fit.json", "aggregate_curve.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads((outs[1] / "aggregate_fit.json").read_text())["n_stories"] == 1

    def test_curves_are_checked_once_in_the_block_and_once_for_the_mean(
        self, tmp_path, monkeypatch, capsys
    ):
        csv = tmp_path / "in.csv"
        write_trace_csv(csv, [sampled_story(f"s{k}", seed=k) for k in range(3)])
        horizons = [trace.horizon for trace in parse_trace_csv(csv)]
        scaled, curves = [], []
        scale, checks = traces._scaled, traces.PopularityCurve.__post_init__

        def counted_scale(horizon, axis):
            scaled.append(horizon)
            return scale(horizon, axis)

        def counted_checks(curve):
            curves.append(curve)
            return checks(curve)

        monkeypatch.setattr(traces, "_scaled", counted_scale)
        monkeypatch.setattr(traces.PopularityCurve, "__post_init__", counted_checks)
        assert main(["aggregate", "--input", str(csv), "--out-dir", str(tmp_path / "out")]) == 0
        # The block's three grids once each, then the mean once as
        # PopularityCurve checks it, on the grid of the longest horizon.
        assert scaled[:4] == [*horizons, max(horizons)]
        assert [(curve.horizon, curve.values.size) for curve in curves] == [(max(horizons), 200)]

    def test_every_member_refused_is_the_pass_refusal(self, tmp_path, capsys):
        # Two clock-stamped stories: each curve is refused, so no curve is
        # left to average, and the run ends as `fit` ends with nothing fitted.
        csv = tmp_path / "clock.csv"
        stories = [sampled_story(f"c{k}", seed=k) for k in (1, 2)]
        write_trace_csv(csv, [
            dataclasses.replace(s, events=s.events + 1.3e9, horizon=s.horizon + 1.3e9)
            for s in stories
        ])
        out = tmp_path / "out"
        argv = ["--input", str(csv), "--out-dir", str(out), "--min-events", "1"]
        assert main(["aggregate", *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: every qualifying story failed to fit"
        assert main(["fit", *argv]) == 2
        assert capsys.readouterr().err.splitlines() == err
        assert not out.exists()

    @pytest.mark.parametrize("offset", [False, True], ids=["plain", "offset"])
    def test_curve_table_is_the_table_of_the_mean_curve(self, tmp_path, capsys, offset):
        csv = tmp_path / "in.csv"
        write_trace_csv(csv, [sampled_story("s1", seed=7), sampled_story("s2", seed=8)])
        out = tmp_path / "out"
        options = ["--offset"] if offset else []
        assert main(["aggregate", "--input", str(csv), "--out-dir", str(out), *options]) == 0
        mean = traces.aggregate_mean(*traces.curve_block(parse_trace_csv(csv))[:2])
        want = tmp_path / "want.tsv"
        write_curve_tsv(want, mean.grid, mean.values)
        assert (out / "aggregate_curve.tsv").read_bytes() == want.read_bytes()


class TestOutcomes:
    """`fit`, `compare` and `aggregate` give every parsed story one outcome,
    and what they print and write agrees with the list."""

    @pytest.fixture
    def mixed(self, tmp_path):
        # Skipped, refused, failed (in `fit`; a note in `compare`) and
        # fitted stories, with ids whose file names collide.
        csv = write_linear_story(tmp_path / "in.csv")
        rows = [f"{sid},{t:.9g}\n" for sid, seed in (("a_b", 1), ("A", 2), ("s", 3))
                for t in sampled_story(sid, seed=seed).events]
        rows += ["a b,1.0\n"] * 60 + ["tiny,1.0\n", "tiny,2.0\n"]
        rows += [f"a,{k / 2}\n" for k in range(1, 121)]
        with csv.open("a") as fh:
            fh.writelines(rows)
        return csv

    @pytest.fixture
    def passes(self, monkeypatch):
        """The outcome list of each `_outcomes` call, in call order."""
        lists, real = [], cli._outcomes

        def spy(*args, **kwargs):
            lists.append(real(*args, **kwargs))
            return lists[-1]

        monkeypatch.setattr(cli, "_outcomes", spy)
        return lists

    @pytest.mark.parametrize("command", ["fit", "compare", "aggregate"])
    def test_each_parsed_story_has_one_outcome(self, tmp_path, capsys, mixed, passes, command):
        out = tmp_path / "out"
        argv = [command, "--input", str(mixed), "--out-dir", str(out), "--min-events", "5"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        (got,) = passes
        parsed = [trace.story_id for trace in parse_trace_csv(mixed)]
        assert [o.trace.story_id for o in got] == sorted(parsed)
        status = {o.trace.story_id: o.status for o in got}
        assert status["tiny"] == "skipped"
        assert status["a b"] == "refused"
        if command == "aggregate":
            record = json.loads((out / "aggregate_fit.json").read_text())
            assert record["n_stories"] == list(status.values()).count("averaged") == 5
            return
        fitted = [sid for sid in sorted(parsed) if status[sid] == "fitted"]
        counts = re.fullmatch(r"(?:fitted|compared) (\d+) of (\d+) stories -> .*\n", stdout)
        assert counts.groups() == (str(len(fitted)), str(len(parsed) - 1))
        result = "fits.json" if command == "fit" else "comparison.json"
        assert [r["story_id"] for r in json.loads((out / result).read_text())] == fitted
        # `fit` fails the two memoryless stories; `compare` keeps them. The
        # refused `a b` uses up no name, so `a_b` takes none of its suffixes.
        names = {o.trace.story_id: o.name for o in got if o.name}
        if command == "fit":
            assert status["a"] == status["line"] == "failed"
            assert names == {"A": "A", "a_b": "a_b", "s": "s"}
        else:
            assert names == {"A": "A", "a": "a_2", "a_b": "a_b", "line": "line", "s": "s"}

    def test_a_fitted_story_keeps_no_reason(self, tmp_path, capsys, passes):
        # `compare` keeps `line`, whose mapping is refused, with a note; its
        # outcome, like that of `s` beside it, which maps, has no reason.
        csv = write_linear_story(tmp_path / "in.csv")
        with csv.open("a") as fh:
            fh.writelines(f"s,{t!r}\n" for t in sampled_story("s", seed=3).events.tolist())
        out = tmp_path / "out"
        assert main(["compare", "--input", str(csv), "--out-dir", str(out)]) == 0
        (got,) = passes
        assert [(o.trace.story_id, o.status, o.reason) for o in got] == [
            ("line", "fitted", None), ("s", "fitted", None)
        ]
        line, mapped = json.loads((out / "comparison.json").read_text())
        assert line["note"].startswith("parameter mapping failed: ") and line["t_N"] is None
        assert mapped["note"] == "" and mapped["t_N"] is not None


class TestSimulate:
    def test_writes_trace_model_curve_and_spectrum(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate", "--out-dir", str(out),
                "--t-n", "20", "--mu", "0.1", "--m-events", "100",
                "--stories", "2", "--seed", "5",
            ]
        )
        assert code == 0
        trace = (out / "trace.csv").read_text()
        assert trace.splitlines()[0] == "story_id,timestamp"
        assert "story_001" in trace and "story_002" in trace
        assert (out / "model_curve.tsv").exists()
        spectrum = (out / "spectrum.tsv").read_text().splitlines()
        assert spectrum[0] == "j\tlambda"
        assert len(spectrum) == 21

    def test_same_seed_is_reproducible(self, tmp_path, capsys):
        args = ["simulate", "--t-n", "10", "--mu", "0.2", "--m-events", "50",
                "--stories", "3", "--seed", "9"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        base = ["simulate", "--t-n", "10", "--mu", "0.2", "--m-events", "50"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(base + ["--out-dir", str(out_a), "--seed", "1"]) == 0
        assert main(base + ["--out-dir", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_simulated_traces_feed_back_into_fit(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert (
            main(
                ["simulate", "--out-dir", str(sim), "--t-n", "50", "--mu", "0.2",
                 "--m-events", "1000", "--stories", "2", "--seed", "4"]
            )
            == 0
        )
        out = tmp_path / "fits"
        code = main(["fit", "--input", str(sim / "trace.csv"), "--out-dir", str(out)])
        assert code == 0
        records = json.loads((out / "fits.json").read_text())
        assert [r["story_id"] for r in records] == ["story_001", "story_002"]

    def test_rejects_invalid_chain_length(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path / "o"), "--t-n", "1"])
        assert code == 1

    @pytest.mark.parametrize(
        "options",
        [["--t-n", "10000", "--mu", "0.1"], ["--t-n", "3", "--mu", "1e308"]],
    )
    def test_underflowing_decay_rate_is_an_input_error(self, tmp_path, capsys, options):
        out = tmp_path / "o"
        assert main(["simulate", "--out-dir", str(out), *options]) == 1
        err = capsys.readouterr().err
        assert "error: decay rate" in err
        assert "underflows" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCompare:
    def test_saturating_verdict_on_the_fixture(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--input", str(FIXTURE), "--out-dir", str(out)])
        assert code == 0
        (record,) = json.loads((out / "comparison.json").read_text())
        assert record["verdict"] == "saturating"
        assert record["r2_exponential"] > record["r2_linear"]

    def test_memoryless_verdict_on_evenly_spaced_events(self, tmp_path, capsys):
        csv = write_linear_story(tmp_path / "line.csv")
        out = tmp_path / "out"
        code = main(["compare", "--input", str(csv), "--out-dir", str(out)])
        assert code == 0
        (record,) = json.loads((out / "comparison.json").read_text())
        assert record["verdict"] == "memoryless"
        assert record["r2_linear"] > record["r2_exponential"]

    def test_a_line_too_steep_for_a_float_fails_its_story(self, tmp_path, capfd):
        # Evenly spaced events up to a subnormal horizon: the line's slope,
        # 1/1e-310, is past the largest float. The story fails by name, with
        # no warning, and the fixture's story beside it is compared.
        csv = tmp_path / "in.csv"
        shutil.copyfile(FIXTURE, csv)
        with csv.open("a") as fh:
            fh.writelines(f"line,{k * 1e-310 / 120!r}\n" for k in range(1, 121))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["compare", "--input", str(csv), "--out-dir", str(out), "--min-events", "5"]
            )
        assert code == 0
        err = capfd.readouterr().err
        assert err == (
            "story 'line' failed: ValueError: a line fit's slope overflows a float "
            "at times of scale 1e-310\n"
        )
        records = json.loads((out / "comparison.json").read_text())
        assert [r["story_id"] for r in records] == ["synthetic_t50"]

    @pytest.mark.parametrize("command, written", [("fit", "fits"), ("compare", "comparison")])
    def test_a_rate_too_fast_for_a_float_fails_its_story(self, tmp_path, capfd, command, written):
        # A saturating story rescaled to a subnormal horizon: its rate h2 =
        # k/T is past the largest float. The story fails by name, with no
        # warning, and the fixture's story beside it is fitted.
        trace = sampled_story("sub", seed=1)
        csv = tmp_path / "in.csv"
        shutil.copyfile(FIXTURE, csv)
        with csv.open("a") as fh:
            fh.writelines(f"sub,{float(t) * 1e-310 / trace.horizon!r}\n" for t in trace.events)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--input", str(csv), "--out-dir", str(out), "--min-events", "5"])
        assert code == 0
        assert capfd.readouterr().err == (
            "story 'sub' failed: ValueError: rate h2 overflows a float at horizon 1e-310\n"
        )
        records = json.loads((out / f"{written}.json").read_text())
        assert [r["story_id"] for r in records] == ["synthetic_t50"]

    def test_story_whose_fit_cannot_be_inverted_is_kept_with_a_note(
        self, tmp_path, capsys
    ):
        # One refusal, two policies: `fit` fails the story with the reason
        # that `compare` keeps as its note.
        csv = write_linear_story(tmp_path / "line.csv")
        assert main(["fit", "--input", str(csv), "--out-dir", str(tmp_path / "fit")]) == 2
        failures = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("story 'line' failed: ")
        ]
        out = tmp_path / "out"
        code = main(
            ["compare", "--input", str(csv), "--out-dir", str(out), "--export-matrices"]
        )
        assert code == 0
        (record,) = json.loads((out / "comparison.json").read_text())
        assert record["note"].startswith("parameter mapping failed: ")
        reason = record["note"].removeprefix("parameter mapping failed: ")
        assert failures == [f"story 'line' failed: ValueError: {reason}"]
        assert record["t_N"] is None
        assert record["mu"] is None
        assert record["r2_simulated"] is None
        assert (out / "line_distance.tsv").exists()
        assert not (out / "line_generator.tsv").exists()
        assert "no inferred mu" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [[], ["--offset"]], ids=["plain", "offset"])
    def test_mapped_fields_equal_the_fit_records(self, tmp_path, capsys, offset):
        csv = tmp_path / "in.csv"
        write_trace_csv(csv, [sampled_story(f"s{k}", seed=k) for k in range(4)])
        records = {}
        for command, result in (("fit", "fits.json"), ("compare", "comparison.json")):
            out = tmp_path / command
            assert main([command, "--input", str(csv), "--out-dir", str(out), *offset]) == 0
            records[command] = json.loads((out / result).read_text())
        ids = [[r["story_id"] for r in rows] for rows in records.values()]
        assert ids == [["s0", "s1", "s2", "s3"]] * 2
        for fit, compared in zip(records["fit"], records["compare"]):
            for key in ("t_N", "mu", "r2_simulated"):
                assert compared[key] == fit[key]

    def test_matrix_export_writes_distance_and_rates(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        write_trace_csv(csv, [sampled_story("story", seed=13, m=100)])
        out = tmp_path / "out"
        code = main(
            ["compare", "--input", str(csv), "--out-dir", str(out),
             "--min-events", "10", "--export-matrices"]
        )
        assert code == 0
        distance = (out / "story_distance.tsv").read_text().splitlines()
        assert distance[0].startswith("state\tX_")
        assert (out / "story_generator.tsv").exists()

    def test_matrix_export_honors_the_state_cap(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["compare", "--input", str(FIXTURE), "--out-dir", str(out),
             "--export-matrices"]
        )
        assert code == 0
        assert "cap" in capsys.readouterr().err
        assert not list(out.glob("*_distance.tsv"))
        assert (out / "comparison.json").exists()

    def test_state_cap_is_checked_before_the_matrix_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuse(trace):
            raise AssertionError(f"built the matrix of {trace.story_id}")

        monkeypatch.setattr(cli, "build_from_trace", refuse)
        out = tmp_path / "out"
        code = main(
            ["compare", "--input", str(FIXTURE), "--out-dir", str(out),
             "--export-matrices"]
        )
        assert code == 0
        # 1000 events at 977 distinct times, plus the no-rebroadcast state.
        assert "978 states exceeds the 500-state" in capsys.readouterr().err

    def test_a_story_whose_space_cannot_be_built_skips_only_its_export(
        self, tmp_path, capsys
    ):
        # Under --horizon 1000, T - t rounds to T for an event at 1e-14, so
        # story b's state space is refused; its record and the other
        # stories' matrices are still written.
        rng = np.random.default_rng(1)
        rows = ["story_id,timestamp"]
        for sid in "abc":
            events = np.sort(rng.exponential(100.0, 60))
            if sid == "b":
                events[0] = 1e-14
            rows += [f"{sid},{float(t)!r}" for t in events]
        csv = tmp_path / "in.csv"
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(["compare", "--input", str(csv), "--out-dir", str(out), "--min-events",
                     "10", "--horizon", "1000", "--export-matrices"])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "'b'" in line] == [
            "story 'b': state space refused (labels must be strictly ascending), "
            "skipping matrix export"
        ]
        assert [r["story_id"] for r in json.loads((out / "comparison.json").read_text())] == [
            "a", "b", "c"
        ]
        assert sorted(path.name for path in out.glob("*_distance.tsv")) == [
            "a_distance.tsv", "c_distance.tsv"
        ]
        assert not list(out.glob("b_*"))

    def test_each_underflowing_story_is_named_on_one_line(self, tmp_path, capsys):
        # Stretching time a thousandfold makes mu*d pass 745 in two stories.
        sim = tmp_path / "sim"
        assert main(["simulate", "--out-dir", str(sim), "--t-n", "50", "--mu", "0.1",
                     "--m-events", "200", "--stories", "3", "--seed", "7"]) == 0
        header, *rows = (sim / "trace.csv").read_text().splitlines()
        stretched = [f"{sid},{float(t) * 1000!r}" for sid, t in (r.split(",") for r in rows)]
        csv = tmp_path / "stretched.csv"
        csv.write_text("\n".join([header, *stretched]) + "\n")
        capsys.readouterr()
        code = main(["compare", "--input", str(csv), "--out-dir", str(tmp_path / "out"),
                     "--min-events", "10", "--export-matrices"])
        assert code == 0
        underflow = (
            "some rates underflowed to zero: e^(-mu*d) is 0 in double precision "
            "once mu*d exceeds about 745"
        )
        assert capsys.readouterr().err.splitlines() == [
            f"story 'story_001': {underflow}",
            "story 'story_002': no inferred mu, skipping rate-matrix export",
            f"story 'story_003': {underflow}",
        ]


FAILING = checks.CheckResult(
    name="survival-identity",
    passed=False,
    measured=1e-16,
    tolerance=1e-30,
    runtime_s=0.01,
    budget_s=60.0,
    detail="measured above a tampered tolerance",
)


class TestOracleCheck:
    def test_fresh_run_passes_and_prints_the_worked_matrix(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["oracle-check", "--out-dir", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "10/10 checks passed" in text
        assert "X_17" in text
        report = json.loads((out / "oracle_report.json").read_text())
        assert len(report) == 10
        assert all(entry["passed"] for entry in report)
        assert sum(entry["runtime_s"] for entry in report) < 60.0

    def test_tampered_tolerance_fails_the_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "run_all", lambda: [FAILING])
        code = main(["oracle-check"])
        text = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in text

    def test_report_rows_are_the_check_fields_without_detail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checks, "run_all", lambda: [FAILING])
        out = tmp_path / "report"
        assert main(["oracle-check", "--out-dir", str(out)]) == 3
        (row,) = json.loads((out / "oracle_report.json").read_text())
        fields = {f.name for f in dataclasses.fields(checks.CheckResult)}
        assert set(row) == fields - {"detail"}
        assert row["name"] == "survival-identity" and row["passed"] is False


class TestArgumentHandling:
    def test_no_arguments_is_an_input_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_subcommand_is_an_input_error(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command, option",
        [
            ("fit", "--mapping"),
            ("aggregate", "--mapping"),
            ("compare", "--mapping"),
            ("fit", "--paper-prefactor"),
            ("aggregate", "--paper-prefactor"),
            ("compare", "--paper-prefactor"),
            ("simulate", "--paper-prefactor"),
            ("compare", "--rescale-distances"),
            ("fit", "--grid-points"),
            ("aggregate", "--grid-points"),
            ("compare", "--grid-points"),
            ("simulate", "--grid-points"),
        ],
    )
    def test_removed_option_is_an_input_error(self, tmp_path, capsys, command, option):
        out = tmp_path / "o"
        inputs = [] if command == "simulate" else ["--input", str(FIXTURE)]
        assert main([command, *inputs, "--out-dir", str(out), option]) == 1
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not out.exists()

    # main() returning 1 means no exception escaped it, so no traceback.
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--min-events", "0"], "minimum event count must be at least 1"),
            (["--horizon", "0"], "horizon must be positive"),
            (["--horizon", "-1"], "horizon must be positive"),
            (["--horizon", "nan"], "horizon must be finite"),
        ],
    )
    def test_bad_trace_option_is_an_input_error(self, tmp_path, capsys, options, message):
        out = tmp_path / "o"
        code = main(["fit", "--input", str(FIXTURE), "--out-dir", str(out), *options])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare", "aggregate"])
    def test_event_past_the_horizon_refuses_only_its_story(self, tmp_path, capsys, command):
        # Story b's last event lies past the horizon: b is refused alone, and
        # a's outputs are those of a run on a alone.
        a = sampled_story("a", seed=0)
        b = dataclasses.replace(a, story_id="b", events=2 * a.events, horizon=2 * a.horizon)
        write_trace_csv(tmp_path / "both.csv", [a, b])
        write_trace_csv(tmp_path / "alone.csv", [a])
        a, b = parse_trace_csv(tmp_path / "both.csv")
        horizon = repr(a.horizon)
        runs = {}
        for name in ("both", "alone"):
            args = ["--input", str(tmp_path / f"{name}.csv"), "--out-dir", str(tmp_path / name)]
            assert main([command, *args, "--horizon", horizon]) == 0
            runs[name] = capsys.readouterr()
        assert runs["both"].err == (
            f"story 'b' failed: ValueError: story b: event at t={b.horizon!r} "
            f"exceeds horizon {a.horizon!r}\n"
        )
        assert runs["alone"].err == ""
        assert runs["both"].out.replace("both", "alone") == runs["alone"].out.replace(
            "1 of 1", "1 of 2"
        )
        for path in (tmp_path / "alone").iterdir():
            assert (tmp_path / "both" / path.name).read_bytes() == path.read_bytes()

    def test_a_lone_story_past_the_horizon_fails_the_run(self, tmp_path, capsys):
        # Its one line gives the event time as a plain number, not as the
        # repr of a numpy scalar.
        out = tmp_path / "o"
        code = main(["fit", "--input", str(FIXTURE), "--out-dir", str(out), "--horizon", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == (
            "story 'synthetic_t50' failed: ValueError: story synthetic_t50: "
            "event at t=1803.37449 exceeds horizon 1e-09\n"
            "error: every qualifying story failed to fit\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--m-events", "0"], "M must be a positive count"),
            (["--stories", "0"], "need at least one story"),
            (["--horizon", "inf"], "horizon must be finite"),
            # Too short for a model-curve grid: fails before trace.csv is written.
            (["--horizon", "5e-324"], "horizon 5e-324 is too short to split into 200"),
            (["--seed", "-1"], "seed must be nonnegative"),
            # Past the float range: refused by name, not an OverflowError.
            (["--t-n", str(10**400)], "t_N must be at most 1.79769e+308"),
        ],
    )
    def test_bad_simulate_option_is_an_input_error(self, tmp_path, capsys, options, message):
        out = tmp_path / "o"
        assert main(["simulate", "--out-dir", str(out), *options]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, message",
        [("directory", "Is a directory"), ("non-UTF-8", "not UTF-8 text")],
    )
    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys, kind, message):
        path = tmp_path / "in.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"story_id,timestamp\ns\xff,1.0\n")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["fit", "aggregate", "compare", "simulate", "oracle-check"]
    )
    def test_out_dir_naming_a_file_is_an_input_error(
        self, tmp_path, monkeypatch, capsys, command
    ):
        suite_runs = []

        def run_all():
            suite_runs.append(1)
            return [dataclasses.replace(FAILING, passed=True)]

        monkeypatch.setattr(checks, "run_all", run_all)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        inputs = {"simulate": ["--m-events", "50"], "oracle-check": []}.get(
            command, ["--input", str(FIXTURE)]
        )
        assert main([command, *inputs, "--out-dir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err
        assert "Traceback" not in err
        assert taken.read_text() == "kept\n"
        # oracle-check makes its --out-dir before it runs the suite.
        assert suite_runs == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["fit", "aggregate", "compare"])
    def test_seed_is_not_a_trace_option(self, tmp_path, capsys, command):
        code = main(
            [command, "--input", str(FIXTURE), "--out-dir", str(tmp_path), "--seed", "1"]
        )
        assert code == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ultradiffusion.cli", "simulate",
             "--out-dir", str(tmp_path / "o"), "--t-n", "5", "--m-events", "20"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "trace.csv").exists()

    def test_import_leaves_scipy_cluster_unloaded(self):
        # The ultrametricity kernel imports scipy.cluster when a check runs,
        # the oracle imports scipy.integrate at its first integration, and
        # only oracle-check imports the suite, so importing the CLI pays for
        # none of them, and importing the oracle or the suite for no scipy.
        for module, unloaded in (
            ("cli", "'scipy.cluster', 'scipy.integrate', 'ultradiffusion.checks'"),
            ("oracle", "'scipy.cluster', 'scipy.integrate'"),
            ("checks", "'scipy.cluster', 'scipy.integrate'"),
        ):
            probe = (
                f"import sys, ultradiffusion.{module}; print([name for name in "
                f"({unloaded}) if name in sys.modules])"
            )
            result = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "[]", module

    def test_console_script(self, tmp_path):
        # Call the entry point declared in pyproject.toml the way the wrapper
        # pip generates for it does, so no installed package is needed.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "ultradiffusion" in scripts
        module, attr = scripts["ultradiffusion"].split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "fit", "--input", str(FIXTURE),
             "--out-dir", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "fits.json").exists()

    @pytest.mark.skipif(
        shutil.which("ultradiffusion") is None,
        reason="the ultradiffusion command is not on PATH; "
        "install the package with `pip install -e . --no-build-isolation`",
    )
    def test_installed_console_script(self, tmp_path):
        result = subprocess.run(
            ["ultradiffusion", "fit", "--input", str(FIXTURE),
             "--out-dir", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "o" / "fits.json").exists()


def _run_workflow_step(name, tmp_path):
    """Run the named bash step of the CI workflow on this checkout.

    CI installs the package. Here shims first on PATH run this checkout's
    package for the `ultradiffusion` command, and this interpreter for
    `python`, so the step runs where tier-1 runs. The trap names the command
    that failed.
    """
    yaml = pytest.importorskip("yaml")
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("the step is a bash script and bash is not on PATH")
    workflow = yaml.safe_load((REPO_ROOT / ".github/workflows/tests.yml").read_text())
    (script,) = [
        step["run"]
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if step.get("name") == name
    ]
    shims = tmp_path / "bin"
    shims.mkdir()
    python = shlex.quote(sys.executable)
    for command, target in (
        ("ultradiffusion", f"{python} -m ultradiffusion.cli"),
        ("python", python),
    ):
        shim = shims / command
        shim.write_text(f'#!/bin/sh\nexec {target} "$@"\n')
        shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        RUNNER_TEMP=str(tmp_path),
    )
    trap = """trap 'echo "step failed at: $BASH_COMMAND" >&2' ERR\n"""
    result = subprocess.run(
        [bash, "-e", "-o", "pipefail", "-c", trap + script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    return result


def test_workflow_installed_command_step_runs(tmp_path):
    _run_workflow_step("Installed command on a simulated batch", tmp_path)


def test_workflow_self_check_step_runs(tmp_path):
    result = _run_workflow_step("Self-check suite and its JSON report", tmp_path)
    assert "10/10 checks passed" in result.stdout
