"""Table and JSON writers: formats, atomicity, determinism."""

import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ultradiffusion
from ultradiffusion.fitting import UltradiffusionParams, sample_events
from ultradiffusion.generator import build_generator
from ultradiffusion.serialize import (
    write_curve_tsv,
    write_distance_tsv,
    write_generator_tsv,
    write_json,
    write_spectrum_tsv,
    write_trace_csv,
)
from ultradiffusion.spectral import chain_spectrum
from ultradiffusion.traces import EventTrace, parse_trace_csv
from ultradiffusion.ultrametric import build_from_trace, uniform_chain

WORKED_TRACE = EventTrace(
    story_id="worked",
    events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
    horizon=17.0,
)


class TestCurveTables:
    def test_curve_header_and_rows(self, tmp_path):
        path = tmp_path / "curve.tsv"
        write_curve_tsv(path, np.array([1.0, 2.0]), np.array([0.5, 1.0]))
        assert path.read_text() == "t\tp\n1\t0.5\n2\t1\n"

    @pytest.mark.parametrize(
        "grid, values",
        [([1.0, 2.0], [0.1]), ([1.0], [0.1, 0.2]), ([[1.0, 2.0]], [[0.1, 0.2]])],
        ids=["short-values", "long-values", "matrix"],
    )
    def test_curve_rejects_ragged_columns(self, tmp_path, grid, values):
        with pytest.raises(ValueError, match="grid vector and values of its length"):
            write_curve_tsv(tmp_path / "curve.tsv", grid, values)
        assert list(tmp_path.iterdir()) == []

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "curve.tsv"
        write_curve_tsv(path, np.array([1.0 / 3.0]), np.array([2.0 / 3.0]))
        assert path.read_text() == "t\tp\n0.333333333\t0.666666667\n"


class TestTraceRoundTrip:
    def test_write_then_parse_recovers_the_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [WORKED_TRACE])
        (back,) = parse_trace_csv(path)
        assert back.story_id == WORKED_TRACE.story_id
        np.testing.assert_array_equal(back.events, WORKED_TRACE.events)
        assert back.horizon == WORKED_TRACE.horizon

    def test_multiple_stories_keep_their_order(self, tmp_path):
        other = EventTrace(story_id="other", events=np.array([2.0, 3.0]), horizon=3.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [WORKED_TRACE, other])
        stories = [t.story_id for t in parse_trace_csv(path)]
        assert stories == ["worked", "other"]

    def test_serialization_is_idempotent_after_one_round(self, tmp_path):
        # First write may shorten floats to 9 significant digits; after one
        # parse the representation is stable byte for byte.
        params = UltradiffusionParams(t_N=20, mu=0.1, M=100)
        trace = sample_events(params, seed=9)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_trace_csv(first, [trace])
        reparsed = parse_trace_csv(first)
        write_trace_csv(second, reparsed)
        assert first.read_bytes() == second.read_bytes()

    def test_rewrites_are_byte_identical(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_trace_csv(path_a, [WORKED_TRACE])
        write_trace_csv(path_b, [WORKED_TRACE])
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_any_story_id_round_trips(self, tmp_path):
        # The parser strips whitespace around a field, so `EventTrace`
        # refuses an id with whitespace at either end and no writer sees one.
        # An id without a bare CR is written as `csv` writes it.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ids = st.text(',"%\r\n \tab', min_size=1, max_size=8)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(ids, min_size=1, max_size=4, unique=True))
        @hypothesis.example(["a\rb"])
        @hypothesis.example(["%s", "50%", "%%"])
        @hypothesis.example([" a", "a"])
        @hypothesis.example(["\r"])
        def check(names):
            def build():
                return [
                    EventTrace(story_id=name, events=np.array([0.5, 1.0 + k]), horizon=1.0 + k)
                    for k, name in enumerate(names)
                ]

            padded = [name for name in names if name != name.strip()]
            if padded:
                with pytest.raises(ValueError, match=re.escape(f"story id {padded[0]!r} has")):
                    build()
                return
            stories = build()
            path = tmp_path / "trace.csv"
            path.unlink(missing_ok=True)
            write_trace_csv(path, stories)
            back = parse_trace_csv(path)
            assert [(t.story_id, t.events.tolist()) for t in back] == [
                (t.story_id, t.events.tolist()) for t in stories
            ]
            if not any("\r" in name for name in names):
                buffer = io.StringIO()
                writer = csv.writer(buffer, lineterminator="\n")
                writer.writerow(["story_id", "timestamp"])
                writer.writerows([t.story_id, "%.9g" % v] for t in stories for v in t.events)
                assert path.read_text() == buffer.getvalue()

        check()

    def test_no_temporary_files_left_behind(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [WORKED_TRACE])
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


class TestMatrixTables:
    def test_distance_matrix_labels_states_on_both_axes(self, tmp_path):
        path = tmp_path / "dist.tsv"
        write_distance_tsv(path, build_from_trace(WORKED_TRACE))
        lines = path.read_text().splitlines()
        assert lines[0] == "state\tX_0\tX_5\tX_9\tX_11\tX_12\tX_16\tX_17"
        assert lines[1] == "X_0\t0\t17\t17\t17\t17\t17\t17"
        assert lines[-1] == "X_17\t17\t12\t8\t6\t5\t1\t0"

    def test_states_whose_labels_agree_to_nine_digits_get_distinct_names(self, tmp_path):
        # Labels 999999999.6 and 999999999.7 both read 1e+09 to 9 digits, so
        # every name of the table takes the digits `repr` needs.
        trace = EventTrace("s", np.array([0.3, 0.4, 5e8, 1e9]), 1e9)
        path = tmp_path / "dist.tsv"
        write_distance_tsv(path, build_from_trace(trace))
        names = ["X_0", "X_500000000", "X_999999999.6", "X_999999999.7", "X_1000000000"]
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["state", *names]
        assert [line.split("\t")[0] for line in lines[1:]] == names

    def test_generator_matrix_uses_state_indices(self, tmp_path):
        gen = build_generator(uniform_chain(3), mu=0.0)
        path = tmp_path / "gen.tsv"
        write_generator_tsv(path, gen)
        lines = path.read_text().splitlines()
        assert lines[0] == "state\tstate_1\tstate_2\tstate_3"
        assert lines[1] == "state_1\t-2\t1\t1"

    def test_spectrum_is_indexed_from_one(self, tmp_path):
        spectrum = chain_spectrum(3, mu=0.0)
        path = tmp_path / "spectrum.tsv"
        write_spectrum_tsv(path, spectrum.eigenvalues)
        assert path.read_text() == "j\tlambda\n1\t0\n2\t-3\n3\t-3\n"


def _g(x) -> str:
    return f"{float(x):.9g}"


def _reference_rows(header, rows, labels=None):
    """Reference table text: every value formatted on its own by `_g`."""
    lines = ["\t".join(header)]
    for k, row in enumerate(rows):
        cells = [_g(v) for v in row]
        lines.append("\t".join(cells if labels is None else [str(labels[k])] + cells))
    return "\n".join(lines) + "\n"


# Values whose formatting is easy to get wrong, besides arbitrary floats.
SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16, 123456789.5]


class TestAgainstPerValueFormatting:
    """Every table writer matches `f"{x:.9g}"` applied value by value."""

    def test_every_writer_matches_the_per_value_reference(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.one_of(st.floats(), st.sampled_from(SPECIAL))
        shape = st.tuples(st.integers(1, 6), st.integers(1, 5))
        table = shape.flatmap(
            lambda nm: st.lists(
                st.lists(value, min_size=nm[1], max_size=nm[1]), min_size=nm[0], max_size=nm[0]
            )
        )
        path = tmp_path / "out"

        # Stand-ins for spaces, generators and traces: the real classes
        # reject the non-finite values the formats must still handle.
        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(table)
        def check(rows):
            arr = np.array(rows, dtype=float)
            n = len(arr)
            col = arr[:, 0]

            write_curve_tsv(path, col, arr[:, -1])
            expected = _reference_rows(["t", "p"], zip(col, arr[:, -1]))
            assert path.read_text() == expected

            write_spectrum_tsv(path, col)
            expected = _reference_rows(["j", "lambda"], [[v] for v in col], range(1, n + 1))
            assert path.read_text() == expected

            square = np.resize(arr, (n, n))
            labels = [f"X_{int(a) if float(a).is_integer() else _g(a)}" for a in col]
            # Labels that agree to 9 digits are all named to the digits of `repr`.
            if len(set(labels)) < n:
                labels = [f"X_{int(a) if float(a).is_integer() else float(a)!r}" for a in col]
            write_distance_tsv(path, SimpleNamespace(labels=col, dist=square))
            assert path.read_text() == _reference_rows(["state", *labels], square, labels)

            names = [f"state_{i}" for i in range(1, n + 1)]
            write_generator_tsv(path, SimpleNamespace(size=n, rates=square))
            assert path.read_text() == _reference_rows(["state", *names], square, names)

            write_trace_csv(path, [SimpleNamespace(story_id="a,b", events=col)])
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["story_id", "timestamp"])
            writer.writerows(["a,b", _g(t)] for t in col)
            assert path.read_text() == buffer.getvalue()

        check()


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # Under the C locale, outside UTF-8 mode, Python's default text encoding
    # is ASCII; the parser reads UTF-8, so the writers must write it.
    path = tmp_path / "trace.csv"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from ultradiffusion.serialize import write_trace_csv\n"
        "from ultradiffusion.traces import EventTrace, parse_trace_csv\n"
        "write_trace_csv(sys.argv[1], [EventTrace('caf\\u00e9', np.array([1.0, 2.5]), 2.5)])\n"
        "(trace,) = parse_trace_csv(sys.argv[1])\n"
        "assert (trace.story_id, trace.events.tolist()) == ('caf\\u00e9', [1.0, 2.5])\n"
    )
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(ultradiffusion.__file__).parent.parent),
    )
    result = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", script, str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert path.read_bytes() == "story_id,timestamp\ncaf\u00e9,1\ncaf\u00e9,2.5\n".encode()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX file modes")
def test_files_take_the_mode_open_gives_under_the_umask(tmp_path):
    # A temporary file from tempfile.mkstemp is 0o600 whatever the umask, and
    # renaming it into place keeps that mode.
    for umask in (0o022, 0o077):
        out = tmp_path / oct(umask)
        out.mkdir()
        old = os.umask(umask)
        try:
            write_json(out / "fits.json", [{"story_id": "s1"}])
            write_curve_tsv(out / "s1_curve.tsv", [1.0, 2.0], [0.1, 0.2])
        finally:
            os.umask(old)
        assert sorted(path.name for path in out.iterdir()) == ["fits.json", "s1_curve.tsv"]
        for path in out.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


class TestJson:
    def test_keys_are_sorted_and_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}
        assert text.index('"a"') < text.index('"b"')

    def test_lists_round_trip(self, tmp_path):
        payload = [{"story_id": "s1", "r2": 0.5}]
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_bytes_are_those_of_json_dumps(self, tmp_path):
        payload = [{"story_id": "caf\u00e9", "h1": 0.25, "mu": None, "nested": [1, {"b": 2, "a": 3}]}]
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    def test_a_payload_that_fails_partway_leaves_no_file(self, tmp_path):
        # The encoder fails after writing the first record.
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "out.json", [{"story_id": "s1"}, {"story_id": object()}])
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_stays_far_below_the_file_size(self, tmp_path):
        # Rendering the whole file as one string and then as one bytes copy
        # raised the traced peak by 7.3 times the file size; written a chunk
        # at a time, it stays near the file object's buffer.
        keys = ("h1", "h2", "h3", "r2", "t_N", "mu", "M", "r2_simulated")
        payload = [
            {"story_id": f"story_{n:05d}", **{key: n + 1 / (3 + k) for k, key in enumerate(keys)}}
            for n in range(20_000)
        ]
        path = tmp_path / "fits.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_json(path, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4_000_000
        assert peak - before < 0.05 * path.stat().st_size
