"""Metamorphic invariants of `fit`, `compare` and `aggregate`, driven
in-process on small generated batches.

A batch of three to six stories mixes six kinds, each drawn from an
integer seed: saturating stories, `sample_events` at M 800-1000, which are
fitted and have more states than `compare --export-matrices` exports;
`sample_events` stories at small M, and the same with the rows tied at the
horizon dropped (responses only); memoryless stories of uniform times;
stories of one repeated time (their curves are refused); and stories below
`--min-events`. Story ids come from a pool whose file names collide, some
of which need CSV quoting.

The invariants: permuting the stories or the rows, adding a story below the
minimum, splitting the input in two, renaming the stories, and scaling every
timestamp by a power of two.
"""

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ultradiffusion import cli
from ultradiffusion.cli import main
from ultradiffusion.fitting import UltradiffusionParams, sample_events

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MIN_EVENTS = 5
# Every id but "s" shares its file name with another, up to letter case.
IDS = ["a b", "a_b", "a,b", "A_B", 'a"b', "A", "a", "s"]
COMMANDS = [
    ["fit"],
    ["fit", "--offset"],
    ["compare", "--export-matrices"],
    ["compare", "--offset"],
    ["aggregate"],
]
# The commands that write one record per fitted story.
PER_STORY = COMMANDS[:4]
# The tables a story may have, after its file name and "_".
TABLES = {"curve.tsv", "distance.tsv", "generator.tsv"}
# Each example runs the CLI two or three times on up to 7 stories.
SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow]
)


def story_events(kind: str, seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "below":
        return np.sort(rng.uniform(0.5, 50.0, size % (MIN_EVENTS - 1) + 1))
    if kind == "memoryless":
        return np.sort(rng.uniform(0.5, 50.0, size))
    if kind == "tied":
        return np.full(size, rng.uniform(0.5, 50.0))
    params = UltradiffusionParams(t_N=int(rng.integers(3, 30)), mu=0.1, M=size)
    events = sample_events(params, seed=rng).events
    if kind == "responses":
        events = events[events < events[-1]]
    return events


def story(kind: str):
    """The kind, seed and size of a story of `kind`."""
    sizes = (800, 1000) if kind == "saturating" else (MIN_EVENTS, 40)
    return st.tuples(st.just(kind), st.integers(0, 2**32), st.integers(*sizes))


# Half the stories saturate, so that most batches of three or more fit three
# or more stories, among them ids whose file names collide.
stories = st.sampled_from(
    ["saturating"] * 5 + ["sampled", "responses", "memoryless", "tied", "below"]
).flatmap(story)


@st.composite
def batches(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=3, max_size=6, unique=True))
    return {sid: story_events(*draw(stories)) for sid in ids}


def rows_of(batch: dict) -> list[tuple[str, float]]:
    return [(sid, float(t)) for sid, events in batch.items() for t in events]


def run(argv: list[str], rows: list[tuple[str, float]]):
    """Exit code, stdout, stderr lines and output files of one command on
    the CSV of `rows`, with the run's paths replaced by placeholders."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.csv", Path(tmp) / "out"
        with src.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["story_id", "timestamp"])
            writer.writerows((sid, repr(t)) for sid, t in rows)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--input", str(src), "--out-dir", str(out),
                         "--min-events", str(MIN_EVENTS)])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        say = [text.replace(str(out), "OUT").replace(str(src), "IN")
               for text in (stdout.getvalue(), stderr.getvalue())]
    return code, say[0], say[1].splitlines(), files


@SETTINGS
@hypothesis.given(
    batch=batches(), command=st.sampled_from(COMMANDS), shuffle=st.integers(0, 2**32)
)
def test_permuting_stories_or_rows_changes_no_output(batch, command, shuffle):
    # Stories in another order, and every row in another order: the same
    # files and stdout, and the same stderr lines in some order.
    order = random.Random(shuffle)
    rows = rows_of(batch)
    ids = list(batch)
    order.shuffle(ids)
    by_story = rows_of({sid: batch[sid] for sid in ids})
    by_row = rows[:]
    order.shuffle(by_row)
    code, stdout, stderr, files = run(command, rows)
    for permuted in (by_story, by_row):
        got = run(command, permuted)
        assert got[0] == code
        assert got[1] == stdout
        assert Counter(got[2]) == Counter(stderr)
        assert got[3] == files


@SETTINGS
@hypothesis.given(
    batch=batches(),
    command=st.sampled_from(COMMANDS),
    extra=st.tuples(st.sampled_from(IDS), st.integers(0, 2**32), st.integers(0, 3)),
)
def test_a_story_below_the_minimum_changes_no_other_output(batch, command, extra):
    sid, seed, size = extra
    hypothesis.assume(sid not in batch)
    code, stdout, stderr, files = run(command, rows_of(batch))
    got = run(command, rows_of({**batch, sid: story_events("below", seed, size)}))
    skip = f"skipping story {sid!r}: {size + 1} events is below the minimum of {MIN_EVENTS}"
    assert got[0] == code
    assert got[1] == stdout
    # The notice of the added story, in parse order after the others'.
    skips = sum(line.startswith("skipping story ") for line in stderr)
    assert got[2] == [*stderr[:skips], skip, *stderr[skips:]]
    assert got[3] == files


def records(command: list[str], files) -> list[dict]:
    """The records of a `fit` or `compare` run; none if it wrote nothing."""
    name = "fits.json" if command[0] == "fit" else "comparison.json"
    return json.loads(files[name]) if files else []


def story_lines(stderr: list[str]) -> Counter:
    """The stderr lines about stories: all but the run's closing error."""
    return Counter(line for line in stderr if not line.startswith("error: "))


@SETTINGS
@hypothesis.given(
    batch=batches(),
    command=st.sampled_from(PER_STORY),
    sides=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_splitting_the_input_splits_the_records(batch, command, sides):
    # Two files between them give the whole input's records, tables and
    # story lines; only the file names may differ, because collision
    # suffixes depend on which ids share a run.
    halves = [{sid: events for (sid, events), side in zip(batch.items(), sides) if side == half}
              for half in (False, True)]
    code, _, stderr, files = run(command, rows_of(batch))
    parts = [run(command, rows_of(half)) for half in halves if half]
    got = [record for part in parts for record in records(command, part[3])]
    assert sorted(got, key=lambda record: record["story_id"]) == records(command, files)

    def tables(files):
        return Counter(data for name, data in (files or {}).items() if name.endswith(".tsv"))

    assert sum((tables(part[3]) for part in parts), Counter()) == tables(files)
    assert sum((story_lines(part[2]) for part in parts), Counter()) == story_lines(stderr)
    assert (code == 0) == any(part[0] == 0 for part in parts)


def per_story(command: list[str], files) -> dict:
    """Each fitted story's record and tables, by story id. The tables are
    found under the file names `_unique_names` gives the fitted ids, and
    every file is checked to be the record file or one of them."""
    found = {}
    fitted = records(command, files)
    stories = [SimpleNamespace(trace=SimpleNamespace(story_id=record["story_id"]))
               for record in fitted]
    cli._unique_names(stories)
    for story, record in zip(stories, fitted):
        prefix = story.name + "_"
        tables = {name[len(prefix):]: data for name, data in files.items()
                  if name.startswith(prefix) and name[len(prefix):] in TABLES}
        found[record["story_id"]] = record, tables
    named = sum(len(tables) for _, tables in found.values())
    assert files is None or named == len(files) - 1
    return found


def renamed_line(line: str, rename: dict) -> str:
    """A stderr line about a story, under the story's new id."""
    for prefix in ("skipping story ", "story "):
        for old, new in rename.items():
            if line.startswith(prefix + repr(old)):
                return prefix + repr(new) + line[len(prefix + repr(old)):]
    return line


@SETTINGS
@hypothesis.given(
    batch=batches(),
    command=st.sampled_from(PER_STORY),
    names=st.permutations([*IDS, "x", "X", "x y", "x_y", "z,z", "w"]),
)
def test_renaming_the_stories_changes_only_their_ids_and_file_names(batch, command, names):
    # The new ids sort, and share file names, in another order than the old.
    rename = dict(zip(batch, names))
    code, stdout, stderr, files = run(command, rows_of(batch))
    got = run(command, rows_of({rename[sid]: events for sid, events in batch.items()}))
    assert got[:2] == (code, stdout)
    assert Counter(got[2]) == Counter(renamed_line(line, rename) for line in stderr)
    want = {rename[sid]: ({**record, "story_id": rename[sid]}, tables)
            for sid, (record, tables) in per_story(command, files).items()}
    assert per_story(command, got[3]) == want


def by_id(argv: list[str], rows) -> dict:
    """The records of a `fit` or `compare` run on `rows`, by story id."""
    return {record["story_id"]: record for record in records(argv, run(argv, rows)[3])}


def assert_mapped_alike(a: dict, b: dict, j: int) -> None:
    """`b` maps the story that `a` maps, on timestamps 2^j times as large."""
    assert b["t_N"] == a["t_N"]
    assert b["mu"] == pytest.approx(a["mu"] + j * math.log(2.0) / (a["t_N"] - 1), rel=0, abs=1e-12)
    assert b["r2_simulated"] == pytest.approx(a["r2_simulated"], rel=0, abs=1e-12)


@SETTINGS
@hypothesis.given(
    batch=batches(), offset=st.booleans(), j=st.sampled_from([j for j in range(-6, 10) if j])
)
def test_scaling_time_by_a_power_of_two_scales_only_the_rate(batch, offset, j):
    # Timestamps times 2^j, written exactly: the curves are the same on the
    # axis k/n, so h1, h3, r2, t_N and the verdicts are bit for bit the
    # same, and h2 is exactly 2^-j times its value. mu = ln(t_N/h2)/(t_N-1)
    # moves by j*ln 2/(t_N-1), and r2_simulated by rounding. A mapping is
    # refused when h2 reaches t_N, in timestamp units, so a story leaves
    # `fit` exactly when its scaled h2 reaches t_N.
    flags = ["--offset"] if offset else []
    rows = rows_of(batch)
    scaled = [(sid, t * 2.0**j) for sid, t in rows]
    fit, compare = ["fit", *flags], ["compare", *flags]
    fits, fits_scaled = by_id(fit, rows), by_id(fit, scaled)
    for sid in fits.keys() | fits_scaled.keys():
        if sid not in fits_scaled:
            assert fits[sid]["h2"] * 2.0**-j >= fits[sid]["t_N"]
        elif sid not in fits:
            assert fits_scaled[sid]["h2"] * 2.0**j >= fits_scaled[sid]["t_N"]
        else:
            a, b = fits[sid], fits_scaled[sid]
            assert [b[key] for key in ("h1", "h3", "r2", "M")] == [
                a[key] for key in ("h1", "h3", "r2", "M")]
            assert b["h2"] == a["h2"] * 2.0**-j
            assert_mapped_alike(a, b, j)
    compared, compared_scaled = by_id(compare, rows), by_id(compare, scaled)
    assert compared.keys() == compared_scaled.keys() >= fits.keys() | fits_scaled.keys()
    for sid, a in compared.items():
        b = compared_scaled[sid]
        keys = ("r2_exponential", "r2_linear", "verdict")
        assert [b[key] for key in keys] == [a[key] for key in keys]
        if a["t_N"] is not None and b["t_N"] is not None:
            assert_mapped_alike(a, b, j)
        elif a["note"] != b["note"]:
            # Only the unit-bound refusal comes and goes with the scale.
            refusal = "parameter mapping failed: decay rate h2="
            assert all(note == "" or note.startswith(refusal) for note in (a["note"], b["note"]))
