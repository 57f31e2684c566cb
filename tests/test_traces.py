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
    empirical_curve,
    parse_trace_csv,
    uniform_grid,
)


def write_csv(path, rows):
    lines = ["story_id,timestamp"] + [f"{story},{stamp}" for story, stamp in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_parse_trace_csv(path, horizon=None):
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
        span = float(events[-1]) if horizon is None else float(horizon)
        try:
            traces.append(EventTrace(story_id=story, events=events, horizon=span))
        except ValueError as exc:
            # A zero timestamp or an override horizon below the last event
            # violates trace invariants; surface it as a format problem.
            raise TraceFormatError(f"{path}: {exc}") from None
    return traces


def parse_outcome(parse, path, horizon=None):
    """Story ids, event lists and horizons, or the error message."""
    try:
        return [(t.story_id, t.events.tolist(), t.horizon) for t in parse(path, horizon)]
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

    def test_short_horizon_is_enough_for_one_point(self):
        assert uniform_grid(5e-324, 1).tolist() == [5e-324]

    def test_rejects_non_integer_point_counts(self):
        # A fractional count gave a grid past the horizon: [0.4, 0.8, 1.2].
        for points in (2.5, True, np.float64(3)):
            with pytest.raises(ValueError, match="grid_points must be an integer"):
                uniform_grid(1.0, points)
        np.testing.assert_allclose(uniform_grid(3.0, np.int64(3)), [1.0, 2.0, 3.0])


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

    def test_horizon_override_applies_to_every_story(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [("a", 1), ("b", 2)])
        traces = parse_trace_csv(path, horizon=10.0)
        assert [t.horizon for t in traces] == [10.0, 10.0]

    def test_crlf_rows_parse_the_same(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"story_id,timestamp\r\ns1,1\r\ns1,2\r\n")
        (trace,) = parse_trace_csv(path)
        np.testing.assert_allclose(trace.events, [1.0, 2.0])

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

    def test_override_below_last_event_is_a_format_error(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [("s1", 5)])
        with pytest.raises(TraceFormatError, match="horizon"):
            parse_trace_csv(path, horizon=3.0)

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
        plain_stamps = st.one_of(
            st.floats(0.001, 1e6).map(lambda x: "%.9g" % x),
            st.sampled_from(["1", " 2 ", "3\t", "1_0", "1e3", "0", "-0"]),
        )
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
            st.sampled_from([None, 50.0, 1e7]),
            st.integers(1, 120),
        )
        # One field then three: the cells still pair up as numbers.
        @hypothesis.example("", "story_id,timestamp", [("5", "\n"), ("6,7,8", "\n")], True, None, 40)
        def check(bom, header, body, last_end, horizon, chunk):
            text = bom + header + "\n" + "".join(row + end for row, end in body)
            if body and not last_end:
                text = text[: -len(body[-1][1])]
            path = tmp_path / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(traces, "_CHUNK_CHARS", chunk):
                ours = parse_outcome(parse_trace_csv, path, horizon)
            assert ours == parse_outcome(reference_parse_trace_csv, path, horizon)

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
    def test_counts_fraction_of_events_up_to_each_grid_time(self):
        trace = EventTrace(
            story_id="s", events=np.array([1.0, 2.0, 3.0, 4.0]), horizon=4.0
        )
        curve = empirical_curve(trace, grid_points=4)
        np.testing.assert_allclose(curve.values, [0.25, 0.5, 0.75, 1.0])
        assert curve.saturation_count == 4

    def test_single_late_event_yields_step_curve(self):
        trace = EventTrace(story_id="s", events=np.array([5.0]), horizon=5.0)
        curve = empirical_curve(trace, grid_points=2)
        np.testing.assert_allclose(curve.grid, [2.5, 5.0])
        np.testing.assert_allclose(curve.values, [0.0, 1.0])

    def test_worked_timeline_reaches_four_sixths_at_t8(self):
        trace = EventTrace(
            story_id="s",
            events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
            horizon=17.0,
        )
        curve = empirical_curve(trace, grid_points=17)
        assert curve.values[7] == pytest.approx(4.0 / 6.0)

    def test_curve_always_ends_at_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            horizon = float(rng.uniform(1.0, 100.0))
            events = np.sort(horizon * (1.0 - rng.random(n)))
            trace = EventTrace(story_id="s", events=events, horizon=horizon)
            curve = empirical_curve(trace, grid_points=37)
            assert curve.values[-1] == 1.0

    def test_counting_is_inclusive_at_event_times(self):
        trace = EventTrace(story_id="s", events=np.array([2.0, 4.0]), horizon=4.0)
        curve = empirical_curve(trace, grid_points=2)
        np.testing.assert_allclose(curve.values, [0.5, 1.0])

    def test_the_block_row_is_checked_once_and_passes_the_public_checks(self):
        # curve_block has checked the row, so the curve is made without a
        # second check; the public constructor still takes it unchanged.
        trace = EventTrace(story_id="s", events=np.array([1.0, 5.0, 5.0, 17.0]), horizon=17.0)
        with mock.patch.object(traces, "_row_faults", wraps=traces._row_faults) as faults:
            curve = empirical_curve(trace, grid_points=17)
        assert faults.call_count == 1
        again = PopularityCurve(
            grid=curve.grid, values=curve.values, saturation_count=curve.saturation_count
        )
        assert np.array_equal(again.grid, curve.grid)
        assert np.array_equal(again.values, curve.values)
        assert again.saturation_count == curve.saturation_count == 4
        assert not curve.grid.flags.writeable and not curve.values.flags.writeable


class TestCurveBlock:
    """The block builder: each row is the trace's lone curve, bit for bit."""

    def test_rows_are_the_lone_curves_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def trace(draw):
            kind = draw(st.sampled_from(["spread", "tied", "one", "override", "tiny"]))
            if kind == "tiny":
                # Subnormal: too short for most grids.
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
        @hypothesis.given(st.integers(1, 60), st.lists(trace(), min_size=1, max_size=8))
        def check(points, batch):
            grid, values, faults = curve_block(batch, points)
            assert grid.shape == values.shape == (len(batch), points)
            assert len(faults) == len(batch)
            for n, trace in enumerate(batch):
                try:
                    lone = empirical_curve(trace, points)
                except ValueError as err:
                    assert (type(faults[n]), str(faults[n])) == (type(err), str(err))
                    continue
                assert faults[n] is None
                # The formulas of the earlier per-trace builder.
                times = trace.horizon * (np.arange(1, points + 1) / points)
                fraction = np.searchsorted(trace.events, times, side="right") / trace.count
                assert grid[n].tobytes() == lone.grid.tobytes() == times.tobytes()
                assert values[n].tobytes() == lone.values.tobytes() == fraction.tobytes()

        check()

    def test_a_horizon_too_short_fails_its_row_alone(self):
        good = EventTrace("good", np.array([1.0, 2.0, 4.0]), 4.0)
        tiny = EventTrace("tiny", np.array([5e-324]), 5e-324)
        grid, values, faults = curve_block([good, tiny, good])
        assert faults[0] is None and faults[2] is None
        message = "horizon 5e-324 is too short to split into 200 uniform grid points"
        assert str(faults[1]) == message
        np.testing.assert_array_equal(values[0], empirical_curve(good).values)
        with pytest.raises(ValueError, match=re.escape(str(faults[1]))):
            empirical_curve(tiny)

    def test_no_traces_make_an_empty_block(self):
        grid, values, faults = curve_block([], 7)
        assert grid.shape == values.shape == (0, 7)
        assert faults == []

    def test_rejects_a_bad_point_count(self):
        trace = EventTrace("s", np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="grid_points must be at least 1"):
            curve_block([trace], 0)


class TestPopularityCurve:
    def test_horizon_is_last_grid_time(self):
        curve = PopularityCurve(
            grid=np.array([1.0, 2.0]), values=np.array([0.5, 1.0]), saturation_count=2
        )
        assert curve.horizon == 2.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="grid"):
            PopularityCurve(
                grid=np.array([1.0, 2.0]), values=np.array([1.0]), saturation_count=1
            )

    def test_rejects_irregular_grid(self):
        for grid in ([1.0, 2.0, 10.0], [1.0, math.nan, 3.0], [1.0, 2.0, math.nan]):
            with pytest.raises(ValueError, match="uniform"):
                PopularityCurve(
                    grid=np.array(grid),
                    values=np.array([0.1, 0.2, 0.3]),
                    saturation_count=1,
                )

    def test_rejects_non_finite_grid(self):
        for grid in ([math.inf], [1.0, math.inf], [1.0, math.inf, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                PopularityCurve(
                    grid=np.array(grid), values=np.ones(len(grid)), saturation_count=1
                )
        with pytest.raises(ValueError, match="increasing"):
            PopularityCurve(
                grid=np.array([1.0, math.inf, 3.0]), values=np.ones(3), saturation_count=1
            )

    @pytest.mark.parametrize("count", [2.9, 2.0, True])
    def test_rejects_non_integer_saturation_count(self, count):
        with pytest.raises(ValueError, match="saturation count must be an integer"):
            PopularityCurve(
                grid=np.array([1.0, 2.0]), values=np.array([0.5, 1.0]), saturation_count=count
            )

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            PopularityCurve(
                grid=np.array([1.0, 2.0]),
                values=np.array([0.8, 0.2]),
                saturation_count=1,
            )

    def test_rejects_values_above_one(self):
        for values in ([0.5, 1.5], [math.nan, 1.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                PopularityCurve(
                    grid=np.array([1.0, 2.0]),
                    values=np.array(values),
                    saturation_count=1,
                )


class TestAggregateMean:
    def test_averages_two_curves_pointwise(self):
        a = PopularityCurve(
            grid=np.array([1.0, 2.0]), values=np.array([0.0, 1.0]), saturation_count=1
        )
        b = PopularityCurve(
            grid=np.array([1.0, 2.0]), values=np.array([1.0, 1.0]), saturation_count=1
        )
        mean = aggregate_mean([a, b], grid_points=2)
        np.testing.assert_allclose(mean.values, [0.5, 1.0])
        assert mean.saturation_count == 2

    def test_result_does_not_depend_on_input_order(self):
        rng = np.random.default_rng(11)
        curves = []
        for k in range(6):
            horizon = float(rng.uniform(5.0, 20.0))
            events = np.sort(horizon * (1.0 - rng.random(30)))
            trace = EventTrace(story_id=f"s{k}", events=events, horizon=horizon)
            curves.append(empirical_curve(trace, grid_points=50))
        forward = aggregate_mean(curves, grid_points=50)
        backward = aggregate_mean(curves[::-1], grid_points=50)
        np.testing.assert_array_equal(forward.values, backward.values)

    def test_grid_spans_longest_member(self):
        short = PopularityCurve(
            grid=np.array([1.0, 2.0]), values=np.array([0.5, 1.0]), saturation_count=2
        )
        long = PopularityCurve(
            grid=np.array([2.0, 4.0]), values=np.array([0.25, 1.0]), saturation_count=4
        )
        mean = aggregate_mean([short, long], grid_points=4)
        assert mean.horizon == 4.0
        # The short curve holds its final value past its own horizon.
        assert mean.values[-1] == pytest.approx(1.0)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_mean([])

    def test_single_curve_is_returned_unchanged_on_its_own_grid(self):
        trace = EventTrace(
            story_id="s", events=np.array([1.0, 2.0, 3.0, 4.0]), horizon=4.0
        )
        curve = empirical_curve(trace, grid_points=4)
        mean = aggregate_mean([curve], grid_points=4)
        np.testing.assert_allclose(mean.values, curve.values)
