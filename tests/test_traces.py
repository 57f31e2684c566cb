"""Event trace parsing and popularity-curve construction."""

import csv
import math
import re
from unittest import mock

import numpy as np
import pytest

from ultradiffusion import traces
from ultradiffusion.serialize import write_trace_csv
from ultradiffusion.traces import (
    EventTrace,
    PopularityCurve,
    TraceFormatError,
    aggregate_mean,
    curve_block,
    parse_trace_csv,
    uniform_grid,
)


def write_csv(path, rows):
    lines = ["story_id,timestamp"] + [f"{story},{stamp}" for story, stamp in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_parse_trace_csv(path):
    """The row-at-a-time `csv.reader` parser the columnar one replaced."""
    order: list[str] = []
    times: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError(f"{path}: empty file")
        if [h.strip() for h in header] != ["story_id", "timestamp"]:
            raise TraceFormatError(
                f"{path}: line 1: expected header 'story_id,timestamp', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise TraceFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            story, raw = row[0].strip(), row[1].strip()
            if not story:
                raise TraceFormatError(f"{path}: line {lineno}: empty story_id")
            try:
                stamp = float(raw)
            except ValueError:
                raise TraceFormatError(
                    f"{path}: line {lineno}: malformed timestamp {raw!r}"
                ) from None
            if not math.isfinite(stamp):
                raise TraceFormatError(f"{path}: line {lineno}: timestamp {raw!r} is not finite")
            if stamp < 0:
                raise TraceFormatError(f"{path}: line {lineno}: negative timestamp {raw!r}")
            if story not in times:
                order.append(story)
                times[story] = []
            times[story].append(stamp)
    if not order:
        raise TraceFormatError(f"{path}: no data rows")
    traces = []
    for story in order:
        events = np.sort(np.asarray(times[story], dtype=float))
        try:
            traces.append(EventTrace(story_id=story, events=events, horizon=float(events[-1])))
        except ValueError as exc:
            # A zero timestamp violates trace invariants; surface it as a
            # format problem.
            raise TraceFormatError(f"{path}: {exc}") from None
    return traces


def parse_outcome(parse, path):
    """Story ids, event lists and horizons, or the error message."""
    try:
        return [(t.story_id, t.events.tolist(), t.horizon) for t in parse(path)]
    except TraceFormatError as exc:
        return str(exc)


class TestEventTrace:
    def test_accepts_sorted_positive_events(self):
        trace = EventTrace(story_id="s", events=np.array([1.0, 2.0, 5.0]), horizon=5.0)
        assert trace.count == 3
        assert trace.horizon == 5.0

    def test_keeps_simultaneous_events_distinct(self):
        trace = EventTrace(story_id="s", events=np.array([1.0, 2.0, 2.0]), horizon=4.0)
        assert trace.count == 3

    def test_event_may_sit_exactly_at_horizon(self):
        trace = EventTrace(story_id="s", events=np.array([3.0]), horizon=3.0)
        assert trace.events[-1] == trace.horizon

    def test_rejects_unsorted_events(self):
        with pytest.raises(ValueError, match="sorted"):
            EventTrace(story_id="s", events=np.array([2.0, 1.0]), horizon=5.0)

    def test_rejects_event_at_time_zero(self):
        with pytest.raises(ValueError, match="positive"):
            EventTrace(story_id="s", events=np.array([0.0, 1.0]), horizon=5.0)

    def test_rejects_event_beyond_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            EventTrace(story_id="s", events=np.array([1.0, 6.0]), horizon=5.0)

    def test_names_the_late_event_as_a_plain_number(self):
        # Not numpy's repr, np.float64(3.0).
        message = "story a: event at t=3.0 exceeds horizon 2.5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EventTrace(story_id="a", events=np.array([1.0, 2.0, 3.0]), horizon=2.5)

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="at least one event"):
            EventTrace(story_id="s", events=np.array([]), horizon=5.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            EventTrace(story_id="s", events=np.array([1.0]), horizon=0.0)

    def test_events_array_is_read_only(self):
        trace = EventTrace(story_id="s", events=np.array([1.0]), horizon=2.0)
        with pytest.raises(ValueError):
            trace.events[0] = 9.0


def reference_trace_fault(story_id, events, horizon):
    """The message of the first check a trace fails, tried one at a time in
    turn, or None for a trace that passes them all."""
    events = np.array(events, dtype=float)
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0:
        return f"story {story_id}: horizon must be positive and finite"
    if events.ndim != 1:
        return f"story {story_id}: events must be one-dimensional"
    if events.size == 0:
        return f"story {story_id}: trace needs at least one event"
    if not np.all(np.isfinite(events)):
        return f"story {story_id}: event times must be finite"
    if np.any(np.diff(events) < 0):
        return f"story {story_id}: events must be sorted ascending"
    if events[0] <= 0:
        return f"story {story_id}: event times must be positive"
    if events[-1] > horizon:
        return f"story {story_id}: event at t={events[-1].item()!r} exceeds horizon {horizon!r}"
    return None


class TestEventTraceAgainstTheOrderedChecks:
    """`EventTrace` accepts a valid trace in one pass and runs its checks one
    at a time only for a trace that fails; it must accept exactly what the
    ordered checks accept and refuse the rest with their message."""

    def test_same_verdict_and_message(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        odd = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, -1.0]
        times = st.floats(1e-3, 10.0) | st.sampled_from([1.0, 2.0, 3.0, 5e-324])
        horizons = st.floats(1.0, 20.0) | st.sampled_from([*odd, 1.0, 3.0, 10.0, 1e300]) | st.floats()

        @st.composite
        def inputs(draw):
            values = draw(st.lists(times, max_size=8))
            if draw(st.sampled_from([True, True, True, False])):
                values.sort()
            # One odd value, NaN included, anywhere in the trace.
            if values and draw(st.sampled_from([True, False, False])):
                values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(odd))
            shape = draw(st.sampled_from(["1-d"] * 6 + ["0-d", "2-d"]))
            if shape == "0-d":
                events = np.array(values[0] if values else 1.0)
            elif shape == "2-d":
                events = np.array(values, dtype=float).reshape(1, -1)
            else:
                events = np.array(values, dtype=float)
            return events, draw(horizons)

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(inputs())
        @hypothesis.example((np.array([1.0, math.nan, 2.0]), 3.0))
        @hypothesis.example((np.array([-0.0, 1.0]), 3.0))
        @hypothesis.example((np.array([5e-324, 3.0]), 3.0))
        @hypothesis.example((np.array([1.0, 3.0]), math.nan))
        @hypothesis.example((np.array(2.0), 3.0))
        @hypothesis.example((np.array([]), 3.0))
        def check(case):
            events, horizon = case
            expected = reference_trace_fault("s", events, horizon)
            if expected is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    EventTrace(story_id="s", events=events, horizon=horizon)
                return
            trace = EventTrace(story_id="s", events=events, horizon=horizon)
            assert trace.events is not events and not trace.events.flags.writeable
            assert np.array_equal(trace.events, events) and trace.horizon == float(horizon)

        check()


class TestUniformGrid:
    def test_excludes_zero_and_ends_at_horizon(self):
        np.testing.assert_allclose(uniform_grid(4.0, 4), [1.0, 2.0, 3.0, 4.0])

    def test_single_point_grid_is_the_horizon(self):
        np.testing.assert_allclose(uniform_grid(7.0, 1), [7.0])

    def test_rejects_nonpositive_horizon(self):
        for horizon in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                uniform_grid(horizon, 5)

    @pytest.mark.parametrize("horizon", [5e-324, 1e-320])
    def test_rejects_a_horizon_too_short_for_its_points(self, horizon):
        # Subnormal horizons round the times to repeated (5e-324) or
        # unevenly spaced (1e-320) values.
        message = f"horizon {horizon!r} is too short to split into 200 uniform grid points"
        with pytest.raises(ValueError, match=re.escape(message)):
            uniform_grid(horizon)

    def test_refuses_exactly_the_grids_that_fail_the_spacing_test(self):
        # Only a grid reaching into the subnormal range is tested for its
        # spacing; every other one passes the test, shown here by brute force
        # on horizons across the boundary and far from it.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tiny = np.finfo(float).tiny

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(
            st.sampled_from([1, 2, 3, 7, 200, 1000, 4096]),
            st.one_of(st.floats(1e-6, 1e6), st.sampled_from([1.0, 0.5, 2.0, 1e3 - 1e-9])),
            st.floats(1e-300, 1e300),
        )
        def check(points, scale, far):
            for horizon in (tiny * points * scale, far):
                grid = horizon * (np.arange(1, points + 1) / points)
                steps = np.diff(grid)
                sound = not steps.size or (
                    steps.min() > 0 and steps.max() - steps.min() <= 1e-6 * steps.max()
                )
                if sound:
                    assert uniform_grid(horizon, points).tobytes() == grid.tobytes()
                else:
                    with pytest.raises(ValueError, match="too short to split"):
                        uniform_grid(horizon, points)

        check()

    def test_short_horizon_is_enough_for_one_point(self):
        assert uniform_grid(5e-324, 1).tolist() == [5e-324]

    def test_rejects_non_integer_point_counts(self):
        # A fractional count gave a grid past the horizon: [0.4, 0.8, 1.2].
        for points in (2.5, True, np.float64(3), [3]):
            with pytest.raises(ValueError, match="grid_points must be an integer"):
                uniform_grid(1.0, points)
        np.testing.assert_allclose(uniform_grid(3.0, np.int64(3)), [1.0, 2.0, 3.0])

    def test_rejects_a_bad_point_count(self):
        with pytest.raises(ValueError, match="grid_points must be at least 1"):
            uniform_grid(1.0, 0)


class TestParseTraceCsv:
    def test_sorts_events_and_takes_horizon_from_last(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [("s1", 1), ("s1", 5), ("s1", 3)])
        (trace,) = parse_trace_csv(path)
        np.testing.assert_allclose(trace.events, [1.0, 3.0, 5.0])
        assert trace.horizon == 5.0

    def test_stories_keep_first_appearance_order(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", [("b", 2), ("a", 1), ("b", 4), ("a", 3)]
        )
        traces = parse_trace_csv(path)
        assert [t.story_id for t in traces] == ["b", "a"]
        np.testing.assert_allclose(traces[0].events, [2.0, 4.0])

    def test_crlf_rows_parse_the_same(self, tmp_path):
        # With a byte order mark too: the CLI reads its input only through
        # this parser, so the same traces give the same outputs.
        plain = write_csv(tmp_path / "plain.csv", [("s1", 1), ("s2", 2), ("s1", 3)])
        crlf = plain.read_bytes().replace(b"\n", b"\r\n")
        for k, data in enumerate([crlf, b"\xef\xbb\xbf" + crlf]):
            path = tmp_path / f"crlf{k}.csv"
            path.write_bytes(data)
            assert parse_outcome(parse_trace_csv, path) == parse_outcome(parse_trace_csv, plain)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        rows = [("s1", 1), ("s2", 2), ("s1", 3)]
        plain = write_csv(tmp_path / "plain.csv", rows)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_outcome(parse_trace_csv, marked) == parse_outcome(parse_trace_csv, plain)

    def test_quoted_story_ids_round_trip(self, tmp_path):
        ids = ["a,b", 'say "hi"', "two\nlines"]
        written = [EventTrace(story_id=i, events=[1.0, k + 2.0], horizon=9.0) for k, i in enumerate(ids)]
        path = tmp_path / "t.csv"
        write_trace_csv(path, written)
        back = parse_trace_csv(path)
        assert [t.story_id for t in back] == ids
        assert [t.events.tolist() for t in back] == [t.events.tolist() for t in written]

    def test_negative_timestamp_is_named(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [("s1", -1)])
        with pytest.raises(TraceFormatError, match="negative timestamp"):
            parse_trace_csv(path)

    def test_malformed_row_names_its_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("story_id,timestamp\ns1,1\ns1,not-a-number\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace_csv(path)

    def test_wrong_field_count_names_its_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("story_id,timestamp\ns1,1,extra\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace_csv(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            parse_trace_csv(path)

    def test_header_only_file_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("story_id,timestamp\n")
        with pytest.raises(TraceFormatError, match="no data"):
            parse_trace_csv(path)

    def test_wrong_header_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,when\ns1,1\n")
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace_csv(path)

    def test_zero_timestamp_is_a_format_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [("s1", 0), ("s1", 2)])
        with pytest.raises(TraceFormatError, match="positive"):
            parse_trace_csv(path)

    @pytest.mark.parametrize(
        "head, tail",
        [
            (b"\xffstory_id,timestamp\n", b""),
            (b"story_id,timestamp\n", b"s\xff,2\n"),
            (b'story_id,timestamp\n"s1",1\n', b'"s\xff",2\n'),
        ],
        ids=["header", "later chunk", "quoted"],
    )
    def test_undecodable_bytes_are_a_format_error_naming_the_file(self, tmp_path, head, tail):
        path = tmp_path / "t.csv"
        # Enough rows that the bad byte of `tail` is read in a later chunk.
        path.write_bytes(head + b"s1,1\n" * 20000 + tail)
        with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            parse_trace_csv(path)

    @pytest.mark.parametrize(
        "head, line",
        [("", 1), ("story_id,timestamp\n", 2), ('story_id,timestamp\n"a",1\n"b\nc",2\n', 4)],
        ids=["header", "first record", "after a two-line record"],
    )
    def test_a_quoted_field_over_the_csv_limit_is_a_format_error(self, tmp_path, head, line):
        # `csv` refuses a field longer than its limit; the error names the
        # record, and the limit is left as it was. Unquoted, the id parses.
        limit = csv.field_size_limit()
        story = "x" * (limit + 1)
        path = tmp_path / "t.csv"
        path.write_text(f'{head}"{story}",1\n')
        message = f"{path}: line {line}: field larger than field limit ({limit})"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            parse_trace_csv(path)
        assert csv.field_size_limit() == limit
        path.write_text(f"story_id,timestamp\n{story},1\n")
        assert parse_trace_csv(path)[0].story_id == story


class TestAgainstTheReferenceParser:
    """The columnar parser against `reference_parse_trace_csv`, with chunks
    small enough that chunk boundaries fall inside the generated files."""

    def test_same_traces_or_same_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        plain_ids = st.sampled_from(["a", "b", " a ", "b\t", "7", "c"])
        quoted_ids = st.sampled_from(
            ['"a"', '"x,y"', '"q""uote"', '"two\nlines"', '"cr\rid"', '" a "', 'p"q']
        )
        # Whitespace `str.strip` removes: U+001C `float` refuses, U+00A0 it accepts.
        pads = st.sampled_from(["", "", " ", "\t", "\x1c", "\xa0"])
        plain_stamps = st.tuples(
            pads,
            st.one_of(
                st.floats(0.001, 1e6).map(lambda x: "%.9g" % x),
                st.sampled_from(["1", "2", "1_0", "1e3", "0", "-0"]),
            ),
            pads,
        ).map("".join)
        bad_stamps = st.sampled_from(["-1", "-inf", "inf", "nan", "1e400", "abc", "", " "])

        def rows(ids, stamps):
            kinds = {
                "good": st.tuples(ids, stamps).map(",".join),
                "blank": st.sampled_from(["", " ", "\t "]),
                "one field": ids,
                "three fields": st.tuples(ids, stamps, stamps).map(",".join),
                "empty id": st.tuples(st.sampled_from(["", "  "]), stamps).map(",".join),
                "bad stamp": st.tuples(ids, bad_stamps).map(",".join),
            }
            # Mostly good rows, so that a file often reaches its later chunks.
            return st.sampled_from(["good"] * 25 + list(kinds)).flatmap(kinds.__getitem__)

        ends = st.sampled_from(["\n", "\r\n", "\r"])
        bodies = st.one_of(
            st.lists(st.tuples(rows(plain_ids, plain_stamps), ends), max_size=20),
            st.lists(
                st.tuples(
                    rows(
                        st.one_of(plain_ids, quoted_ids),
                        st.one_of(plain_stamps, st.just('"4"')),
                    ),
                    ends,
                ),
                max_size=20,
            ),
        )

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(
            st.sampled_from(["", "\ufeff"]),
            st.sampled_from(["story_id,timestamp"] * 8 + [" story_id , timestamp", "id,when"]),
            bodies,
            st.booleans(),
            st.integers(1, 120),
        )
        # One field then three: the cells still pair up as numbers.
        @hypothesis.example("", "story_id,timestamp", [("5", "\n"), ("6,7,8", "\n")], True, 40)
        def check(bom, header, body, last_end, chunk):
            text = bom + header + "\n" + "".join(row + end for row, end in body)
            if body and not last_end:
                text = text[: -len(body[-1][1])]
            path = tmp_path / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(traces, "_CHUNK_CHARS", chunk):
                ours = parse_outcome(parse_trace_csv, path)
            assert ours == parse_outcome(reference_parse_trace_csv, path)

        check()


def test_parse_peak_memory_stays_below_the_file_size(tmp_path, peak_rise):
    # The row-at-a-time parser held every timestamp as a Python float in a
    # list: +4.6 MB on this 2.2 MB file. Chunks bound the text held at once.
    rng = np.random.default_rng(0)
    stories = [
        EventTrace(story_id=f"story_{k:04d}", events=np.sort(rng.random(1000)) + 0.5, horizon=2.0)
        for k in range(100)
    ]
    path = tmp_path / "big.csv"
    write_trace_csv(path, stories)
    rows, rise = peak_rise(
        "from ultradiffusion.traces import parse_trace_csv",
        "traces = parse_trace_csv(sys.argv[1])",
        "sum(t.count for t in traces)",
        str(path),
    )
    assert rows == 100_000
    assert rise < path.stat().st_size


class TestEmpiricalCurve:
    """The curve of one trace: a one-row `curve_block`."""

    def test_counts_fraction_of_events_up_to_each_grid_time(self):
        trace = EventTrace(
            story_id="s", events=np.array([1.0, 2.0, 3.0, 4.0]), horizon=4.0
        )
        _, (values,), (fault,) = curve_block([trace])
        # Grid times 4k/200: the events are at k = 50, 100, 150 and 200.
        assert fault is None and values.size == 200
        steps = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert values[[48, 49, 99, 149, 199]].tolist() == steps
        assert np.unique(values).tolist() == steps

    def test_single_late_event_yields_step_curve(self):
        # One event fills one grid cell, too few to build a curve from: the
        # block still holds its step row beside the refusal.
        trace = EventTrace(story_id="s", events=np.array([5.0]), horizon=5.0)
        horizons, (values,), (fault,) = curve_block([trace])
        assert horizons.tolist() == [5.0]
        np.testing.assert_array_equal(values, [0.0] * 199 + [1.0])
        assert str(fault) == (
            "events fill 1 of 200 grid cells: are timestamps measured from the story's start?"
        )

    def test_worked_timeline_reaches_four_sixths_at_t8(self):
        trace = EventTrace(
            story_id="s",
            events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
            horizon=17.0,
        )
        _, (values,), (fault,) = curve_block([trace])
        # Four of the six events are in by t = 8, and no fifth before t = 12.
        grid = uniform_grid(17.0)
        between = (grid >= 8.0) & (grid < 12.0)
        assert fault is None and between.sum() == 47
        assert np.all(values[between] == 4.0 / 6.0)

    def test_curve_always_ends_at_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            horizon = float(rng.uniform(1.0, 100.0))
            events = np.sort(horizon * (1.0 - rng.random(n)))
            trace = EventTrace(story_id="s", events=events, horizon=horizon)
            # The block row, which a trace of few events has beside its refusal.
            _, (values,), _ = curve_block([trace])
            assert values[-1] == 1.0

    def test_counting_is_inclusive_at_event_times(self):
        trace = EventTrace(story_id="s", events=np.array([2.0, 3.0, 3.5, 4.0]), horizon=4.0)
        _, (values,), (fault,) = curve_block([trace])
        # Grid time 4 * 100/200 is exactly the event at 2.
        assert fault is None and uniform_grid(4.0)[99] == 2.0
        assert (values[98], values[99], values[-1]) == (0.0, 0.25, 1.0)

    def test_the_block_row_is_checked_once_and_passes_the_public_checks(self):
        # curve_block checks the row's grid once, the one check that can
        # fail on it; the public constructor takes the row unchanged.
        trace = EventTrace(
            story_id="s", events=np.array([1.0, 5.0, 5.0, 8.0, 17.0]), horizon=17.0
        )
        with mock.patch.object(traces, "_scaled", wraps=traces._scaled) as scaled:
            (horizon,), (values,), (fault,) = curve_block([trace])
        assert scaled.call_count == 1 and scaled.call_args.args[0] == 17.0
        assert fault is None
        curve = PopularityCurve(horizon=horizon, values=values)
        assert curve.grid.tobytes() == uniform_grid(17.0).tobytes()
        assert curve.values.tobytes() == values.tobytes()


class TestCurveBlock:
    """The block builder: each row is the trace's lone curve, bit for bit."""

    def test_rows_are_the_lone_curves_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def trace(draw):
            kind = draw(st.sampled_from(["spread", "tied", "one", "override", "tiny"]))
            if kind == "tiny":
                # Subnormal: often too short for the 200-point grid.
                span = draw(st.one_of(
                    st.sampled_from([5e-324, 1e-320, 2e-310]), st.floats(5e-324, 1e-305)
                ))
                return EventTrace("tiny", np.full(draw(st.integers(1, 5)), span), span)
            span = draw(st.floats(1e-3, 1e6))
            count = 1 if kind == "one" else draw(st.integers(2, 40))
            events = np.sort(span * np.array(draw(
                st.lists(st.floats(1e-9, 1.0), min_size=count, max_size=count)
            )))
            if kind == "tied":
                # Several events exactly at the horizon.
                events[-draw(st.integers(1, count)):] = span
            if kind == "override":
                # A --horizon beyond the last event.
                return EventTrace(kind, events, span * draw(st.floats(1.0, 10.0)))
            return EventTrace(kind, events, float(events[-1]))

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(trace(), min_size=1, max_size=8))
        def check(batch):
            horizons, values, faults = curve_block(batch)
            assert values.shape == (len(batch), 200)
            assert horizons.tolist() == [trace.horizon for trace in batch]
            assert len(faults) == len(batch)
            for n, trace in enumerate(batch):
                (horizon,), (lone,), (fault,) = curve_block([trace])
                assert horizon == trace.horizon
                if fault is not None:
                    assert (type(faults[n]), str(faults[n])) == (type(fault), str(fault))
                    continue
                assert faults[n] is None
                # The formulas of the earlier per-trace builder.
                times = trace.horizon * (np.arange(1, 201) / 200)
                fraction = np.searchsorted(trace.events, times, side="right") / trace.count
                assert uniform_grid(trace.horizon).tobytes() == times.tobytes()
                assert values[n].tobytes() == lone.tobytes() == fraction.tobytes()

        check()

    def test_rows_pass_the_public_checks_and_refusals_are_uniform_grids(self):
        # The block checks only the grid of each horizon and the cells its
        # events fill: every row it keeps passes the other checks of
        # PopularityCurve by construction, and a row it refuses carries
        # uniform_grid's refusal of its horizon or names the cells filled.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def trace(draw):
            span = draw(st.one_of(
                st.floats(1e-3, 1e6),
                st.sampled_from([5e-324, 1e-320, 2e-310, 2.2250738585072014e-308]),
                st.floats(5e-324, 1e-300),
            ))
            count = draw(st.integers(1, 30))
            fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
            events = span * np.array(fractions)
            # Times that round to 0 move to the horizon, as events must be > 0.
            events = np.sort(np.where(events > 0, events, span))
            if draw(st.booleans()):
                # Several events tied, inside the window or at the horizon.
                tied = draw(st.integers(1, count))
                events[-tied:] = events[-tied] if draw(st.booleans()) else span
            horizon = float(events[-1])
            if draw(st.booleans()):
                # A --horizon beyond the last event.
                horizon = min(horizon * draw(st.floats(1.0, 10.0)), 1e300)
            return EventTrace("s", events, horizon)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.lists(trace(), min_size=1, max_size=6))
        def check(batch):
            horizons, values, faults = curve_block(batch)
            for n, trace in enumerate(batch):
                try:
                    expected = uniform_grid(trace.horizon)
                except ValueError as err:
                    assert (type(faults[n]), str(faults[n])) == (type(err), str(err))
                    continue
                # Each distinct nonzero level of the curve is one filled cell.
                filled = np.unique(values[n][values[n] > 0]).size
                if filled < 4:
                    assert str(faults[n]).startswith(f"events fill {filled} of 200 grid cells")
                    continue
                assert faults[n] is None
                curve = PopularityCurve(horizons[n], values[n])
                assert curve.grid.tobytes() == expected.tobytes()
                assert curve.values.tobytes() == values[n].tobytes()
                assert curve.values[-1] == 1.0

        check()

    def test_a_horizon_too_short_fails_its_row_alone(self):
        good = EventTrace("good", np.array([1.0, 2.0, 3.0, 4.0]), 4.0)
        tiny = EventTrace("tiny", np.array([5e-324]), 5e-324)
        horizons, values, faults = curve_block([good, tiny, good])
        assert faults[0] is None and faults[2] is None
        message = "horizon 5e-324 is too short to split into 200 uniform grid points"
        assert str(faults[1]) == message
        assert values[0].tobytes() == curve_block([good])[1][0].tobytes()
        (lone,) = curve_block([tiny])[2]
        assert (type(lone), str(lone)) == (type(faults[1]), message)

    def test_no_traces_make_an_empty_block(self):
        horizons, values, faults = curve_block([])
        assert horizons.shape == (0,) and values.shape == (0, 200)
        assert faults == []

    def test_a_curve_whose_events_fill_under_four_cells_is_refused_by_name(self):
        # Clock timestamps, not times since the story's start: every event
        # of each story falls in the last of its 200 grid cells.
        rng = np.random.default_rng(3)
        stories = [np.sort(100.0 * (1.0 - rng.random(1000))) for _ in range(5)]
        batch = [EventTrace(f"s{k}", 1.3e9 + events, 1.3e9 + events[-1])
                 for k, events in enumerate(stories)]
        # Events in exactly 3 and 4 cells of a window of 200.
        batch += [EventTrace("three", np.array([1.0, 2.0, 2.0, 200.0]), 200.0),
                  EventTrace("four", np.array([1.0, 2.0, 3.0, 200.0]), 200.0)]
        _, values, faults = curve_block(batch)
        clock = "events fill 1 of 200 grid cells: are timestamps measured from the story's start?"
        assert [str(fault) for fault in faults[:5]] == [clock] * 5
        assert str(faults[5]).startswith("events fill 3 of 200 grid cells")
        assert faults[6] is None
        assert np.all(values[:5, :-1] == 0.0) and np.all(values[:, -1] == 1.0)


class TestPopularityCurve:
    def test_grid_is_the_uniform_grid_of_its_horizon(self):
        curve = PopularityCurve(horizon=3, values=[0.2, 0.5, 1.0])
        assert curve.horizon == 3.0 and type(curve.horizon) is float
        assert curve.grid.tobytes() == uniform_grid(3.0, 3).tobytes()

    def test_rejects_a_horizon_uniform_grid_refuses(self):
        for horizon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                PopularityCurve(horizon=horizon, values=np.ones(3))
        with pytest.raises(ValueError, match="too short to split into 200 uniform grid points"):
            PopularityCurve(horizon=5e-324, values=np.ones(200))
        assert PopularityCurve(horizon=5e-324, values=[1.0]).grid.tolist() == [5e-324]

    def test_rejects_values_that_are_no_nonempty_vector(self):
        for values in ([], [[0.5, 1.0]], 0.5):
            with pytest.raises(ValueError, match="nonempty vector"):
                PopularityCurve(horizon=1.0, values=values)

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            PopularityCurve(horizon=2.0, values=np.array([0.8, 0.2]))

    def test_rejects_values_above_one(self):
        for values in ([0.5, 1.5], [math.nan, 1.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                PopularityCurve(horizon=2.0, values=np.array(values))


def list_mean(curves):
    """The mean of a list of curves as `aggregate_mean` first computed it,
    one `PopularityCurve` per member: the reference its block form keeps."""
    span = max(curve.horizon for curve in curves)
    grid = uniform_grid(span)
    sampled = [np.interp(grid, curve.grid, curve.values) for curve in curves]
    values = np.array(
        [math.fsum(column) / len(sampled) for column in zip(*sampled)], dtype=float
    )
    return PopularityCurve(horizon=span, values=values)


def block_mean(curves):
    """`aggregate_mean` of the curves stacked as one block."""
    return aggregate_mean([c.horizon for c in curves], [c.values for c in curves])


class TestAggregateMean:
    def test_averages_two_curves_pointwise(self):
        mean = aggregate_mean([2.0, 2.0], [[0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(mean.values, [0.5, 1.0])

    def test_result_does_not_depend_on_input_order(self):
        rng = np.random.default_rng(11)
        members = []
        for k in range(6):
            horizon = float(rng.uniform(5.0, 20.0))
            events = np.sort(horizon * (1.0 - rng.random(30)))
            members.append(EventTrace(story_id=f"s{k}", events=events, horizon=horizon))
        horizons, values, _ = curve_block(members)
        forward = aggregate_mean(horizons, values)
        backward = aggregate_mean(horizons[::-1], values[::-1])
        np.testing.assert_array_equal(forward.values, backward.values)

    def test_grid_spans_longest_member(self):
        mean = aggregate_mean([2.0, 4.0], [[0.5, 1.0], [0.25, 1.0]])
        assert mean.grid.tolist() == [2.0, 4.0]
        # The short curve holds its final value past its own horizon.
        assert mean.values.tolist() == [0.625, 1.0]

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_mean(np.empty(0), np.empty((0, 200)))

    def test_rejects_blocks_of_mismatched_shapes(self):
        with pytest.raises(ValueError, match="2-D array with one horizon per row"):
            aggregate_mean([1.0, 2.0], [[0.5, 0.75, 1.0]])
        with pytest.raises(ValueError, match="2-D array with one horizon per row"):
            aggregate_mean(2.0, [0.5, 1.0])

    @pytest.mark.parametrize("first", [-1.0, 0.0], ids=["negative", "zero"])
    def test_rejects_a_horizon_that_is_not_positive_as_fit_block_does(self, first):
        # One block check serves both: fit_block refuses the same block.
        trace = EventTrace("s", np.linspace(0.1, 8.0, 50), 8.0)
        horizons, values, _ = curve_block([trace, trace])
        horizons[0] *= first
        with pytest.raises(ValueError, match="^horizons must be positive and finite$"):
            aggregate_mean(horizons, values)

    def test_single_curve_is_returned_unchanged_on_its_own_grid(self):
        trace = EventTrace(
            story_id="s", events=np.array([1.0, 2.0, 3.0, 4.0]), horizon=4.0
        )
        (horizon,), (values,), _ = curve_block([trace])
        curve = PopularityCurve(horizon, values)
        mean = block_mean([curve])
        assert mean.horizon == curve.horizon
        assert mean.grid.tobytes() == curve.grid.tobytes()
        assert mean.values.tobytes() == curve.values.tobytes()

    def test_block_mean_is_the_list_mean_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def curves(draw):
            # A member's values come from a generator seeded by a drawn
            # integer, then take a drawn run of one repeated value, a drawn
            # number of leading 0.0 and a drawn number of trailing 1.0.
            horizons = draw(st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8))
            members = []
            for horizon in horizons:
                values = np.sort(np.random.default_rng(draw(st.integers(0, 2**32))).random(200))
                start, length = draw(st.integers(0, 199)), draw(st.integers(0, 40))
                values[start : start + length] = values[start]
                zeros = draw(st.integers(0, 200))
                ones = draw(st.integers(0, 200 - zeros))
                values[:zeros] = 0.0
                values[200 - ones :] = 1.0
                members.append(PopularityCurve(horizon=horizon, values=values))
            return members

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(curves())
        def check(members):
            block = block_mean(members)
            reference = list_mean(members)
            assert block.grid.tobytes() == reference.grid.tobytes()
            assert block.values.tobytes() == reference.values.tobytes()

        check()

    def test_shared_grid_is_the_longest_block_row_bit_for_bit(self):
        # The mean's grid is the one uniform_grid makes of the longest
        # horizon, whose block row was sampled on it: over normal, huge and
        # subnormal-adjacent horizons, with ties for the longest.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        horizons = st.one_of(
            st.floats(1e-3, 1e6),
            st.floats(1e300, 1.7976931348623157e308),
            st.floats(2.2250738585072014e-308, 1e-300),
            st.sampled_from([1.7976931348623157e308, 2.2250738585072014e-308, 1e-305]),
        )

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            st.lists(horizons, min_size=1, max_size=6), st.integers(0, 3), st.randoms()
        )
        def check(spans, ties, rng):
            # Copies of the longest horizon, shuffled in among the others.
            spans = spans + [max(spans)] * ties
            rng.shuffle(spans)
            batch = [EventTrace("s", span * np.array([0.25, 0.5, 0.75, 1.0]), span)
                     for span in spans]
            horizons, values, faults = curve_block(batch)
            assert faults == [None] * len(batch)
            mean = aggregate_mean(horizons, values)
            longest = max(spans)
            assert mean.horizon == longest
            assert mean.grid.tobytes() == uniform_grid(longest).tobytes()
            # The longest rows, held at their values, are their own mean there.
            assert mean.values[-1] == 1.0

        check()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EventTrace("", np.array([1.0]), 1.0), "story_id must be nonempty"),
        # The type is tested first: b"" is no str, not an empty one.
        (lambda: EventTrace(b"story", np.array([1.0]), 1.0), "story_id must be a str, got bytes"),
        (lambda: EventTrace(b"", np.array([1.0]), 1.0), "story_id must be a str, got bytes"),
        (lambda: EventTrace(5, np.array([1.0]), 1.0), "story_id must be a str, got int"),
        (
            lambda: EventTrace(" a\t", np.array([1.0]), 1.0),
            "story id ' a\\t' has whitespace at an end, which parsing strips",
        ),
    ],
    ids=["empty-story-id", "bytes-story-id", "empty-bytes-story-id", "int-story-id",
         "padded-story-id"],
)
def test_refusals_read_as_pinned(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
