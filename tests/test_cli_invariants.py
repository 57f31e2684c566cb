"""Metamorphic invariants of `fit`, `compare` and `aggregate`, driven
in-process on small generated batches.

A batch mixes stories of four kinds, each drawn from an integer seed:
`sample_events` stories at small M, the same with the rows tied at the
horizon dropped (responses only), memoryless stories of uniform times,
stories of one repeated time (their curves are refused) and stories below
`--min-events`. Story ids come from a pool whose file names
collide, some of which need CSV quoting.
"""

import contextlib
import csv
import io
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


stories = st.tuples(
    st.sampled_from(["sampled", "responses", "memoryless", "tied", "below"]),
    st.integers(0, 2**32),
    st.integers(MIN_EVENTS, 40),
)


@st.composite
def batches(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
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
