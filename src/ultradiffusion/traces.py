"""Event traces and popularity curves.

A trace records when one story (a post, a paper, a package) received each of
its rebroadcasts: votes, comments, downloads, measured in seconds since the
story's start. A popularity curve is the cumulative fraction of rebroadcasts
seen by time t, at the times T*k/n of its horizon T (k = 1..n, the axis the
fitter works on): a `PopularityCurve` is its horizon and values, nothing
more. `curve_block` builds the curves of many traces at once, as their
horizons and one (traces x 200) array of values, and refuses a horizon too
short for its grid or events that fill fewer than 4 grid cells;
`aggregate_mean` averages such a block into one curve on the grid of its
longest horizon.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventTrace",
    "PopularityCurve",
    "TraceFormatError",
    "aggregate_mean",
    "curve_block",
    "parse_trace_csv",
    "uniform_grid",
]


class TraceFormatError(ValueError):
    """A trace CSV that cannot be parsed into event traces."""


def _readonly(values, dtype=float) -> np.ndarray:
    # A read-only array that owns its data is taken as it is, so a builder
    # that hands over its own finished matrix pays for no second copy; any
    # other input, a caller's writable array included, is copied.
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields` set as given,
    for a builder whose values are valid by construction: `__post_init__`
    and its checks do not run. An array field is the builder's own fresh
    array, owning its data, so it is made read-only in place, not copied."""
    made = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(made, name, value)
    return made


def _integer(value, what: str) -> int:
    # A bool is an Integral but no count; 2.0 and 2.5 are never truncated.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EventTrace:
    """Rebroadcast times of one story, seconds since submission.

    Events are sorted ascending, strictly positive, and never exceed the
    observation horizon. Ties are legal: simultaneous events stay distinct
    here and are only collapsed when a state space is built from the trace.

    The constructor checks its events in O(n), in one pass for a valid
    trace: comparing neighbours and the two ends against 0 and the horizon.
    Only a trace that fails runs the checks one at a time, to name the first
    fault.
    """

    story_id: str
    events: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if not self.story_id:
            raise ValueError("story_id must be nonempty")
        events = _readonly(self.events)
        horizon = float(self.horizon)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "horizon", horizon)
        # A NaN fails every comparison and the ends bound every event in
        # (0, horizon], so these tests also imply finiteness.
        if not (
            events.ndim == 1
            and events.size
            and 0 < horizon < math.inf
            and events[0] > 0
            and events[-1] <= horizon
            and (events[1:] >= events[:-1]).all()
        ):
            raise ValueError(f"story {self.story_id}: {_trace_fault(events, horizon)}")

    @property
    def count(self) -> int:
        """Number of recorded events."""
        return int(self.events.size)


def _trace_fault(events: np.ndarray, horizon: float) -> str:
    """What refuses a trace's events and horizon, the checks tried in turn.

    Called on a trace that fails `EventTrace`'s one-pass test, so one of
    them fails.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        return "horizon must be positive and finite"
    if events.ndim != 1:
        return "events must be one-dimensional"
    if events.size == 0:
        return "trace needs at least one event"
    if not np.all(np.isfinite(events)):
        return "event times must be finite"
    if np.any(np.diff(events) < 0):
        return "events must be sorted ascending"
    if events[0] <= 0:
        return "event times must be positive"
    return f"event at t={events[-1].item()!r} exceeds horizon {horizon!r}"


@dataclass(frozen=True)
class PopularityCurve:
    """Cumulative response fraction at the times of `grid`: a curve is its
    horizon and its values, and its grid is `uniform_grid` of the two."""

    horizon: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _readonly(self.values)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("curve values must be a nonempty vector")
        uniform_grid(self.horizon, values.size)
        if not (values.min() >= 0 and values.max() <= 1 + 1e-12):
            raise ValueError("curve values must lie in [0, 1]")
        if (np.diff(values) < -1e-12).any():
            raise ValueError("curve values must be nondecreasing")

    @property
    def grid(self) -> np.ndarray:
        """The sampling times, `uniform_grid` of the horizon and point count."""
        return uniform_grid(self.horizon, self.values.size)


# Points of every curve the library builds from a trace.
_GRID_POINTS = 200
# Fewest grid cells a curve's events must fill; clock timestamps fill one.
_MIN_FILLED_CELLS = 4
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@functools.lru_cache(maxsize=8)
def _axis(grid_points: int) -> np.ndarray:
    """The normalized times k/n, k = 1..n, that every n-point curve is
    sampled at, scaled by its horizon, and fitted on; read-only, shared."""
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    axis = np.arange(1, grid_points + 1) / grid_points
    axis.setflags(write=False)
    return axis


def _scaled(horizon: float, axis: np.ndarray) -> np.ndarray:
    """The grid `horizon * axis`, refused as `uniform_grid` refuses it."""
    grid = horizon * axis
    # A grid of normal numbers has times within 2 ulp of horizon*k/n, and so
    # steps within 4n ulp of horizon/n: up to 10^6 points, only a grid that
    # reaches into the subnormal range can fail the spacing test, which
    # keeps downstream interpolation and fitting honest.
    if grid[0] < _SMALLEST_NORMAL or axis.size > 10**6:
        steps = np.diff(grid)
        if steps.size and (steps.min() <= 0 or np.ptp(steps) > 1e-6 * steps.max()):
            raise ValueError(
                f"horizon {horizon!r} is too short to split into {axis.size} uniform grid points"
            )
    return grid


def uniform_grid(horizon: float, grid_points: int = _GRID_POINTS) -> np.ndarray:
    """Uniform sampling times k*horizon/n for k = 1..n.

    The grid excludes zero and includes the horizon exactly. A horizon so
    small (subnormal) that the times round to repeated or unevenly spaced
    values is refused.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    return _scaled(float(horizon), _axis(_integer(grid_points, "grid_points")))


def parse_trace_csv(path) -> list[EventTrace]:
    """Read story traces from a CSV with header ``story_id,timestamp``.

    Timestamps are decimal seconds since each story's submission. The file
    may start with a UTF-8 byte-order mark; rows may end in LF, CRLF or CR;
    blank lines are skipped and whitespace around a field is ignored. Fields
    may be quoted as `csv` quotes them, so a story id can hold commas, quotes
    or line ends. A story's rows need not be contiguous; stories keep their
    order of first appearance. The observation horizon of each story is its
    largest timestamp.
    """
    parts: dict[str, list[np.ndarray]] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next(_records(path, 1, csv.reader(handle)), None)
            if header is None:
                raise TraceFormatError(f"{path}: empty file")
            if [h.strip() for h in header] != ["story_id", "timestamp"]:
                raise TraceFormatError(
                    f"{path}: line 1: expected header 'story_id,timestamp', "
                    f"got {','.join(header)!r}"
                )
            for stamps, runs in _chunks(path, handle):
                start = 0
                for story, count in runs:
                    parts.setdefault(story, []).append(stamps[start : start + count])
                    start += count
    except UnicodeDecodeError as err:
        raise TraceFormatError(f"{path}: not UTF-8 text: {err.reason}") from None
    if not parts:
        raise TraceFormatError(f"{path}: no data rows")
    traces = []
    for story, pieces in parts.items():
        events = np.concatenate(pieces)
        # A chunk's timestamps are freed once every story in it is copied out.
        pieces.clear()
        events.sort()
        # Read-only and owning its data, so EventTrace keeps it uncopied.
        events.setflags(write=False)
        try:
            traces.append(EventTrace(story_id=story, events=events, horizon=float(events[-1])))
        except ValueError as exc:
            # A zero timestamp violates trace invariants; surface it as a
            # format problem.
            raise TraceFormatError(f"{path}: {exc}") from None
    return traces


# Characters read at a time, then up to the end of the line: a chunk's cells
# are all the parser holds beyond the timestamps it keeps. A chunk's Python
# strings take several times its characters, so 32 Ki keeps the peak of a
# fresh process parsing a 2.2 MB, 100k-row file about 2.0 MB above where it
# started; 64 Ki read 2.3 MB, above the file's size. Both parse in the same
# time.
_CHUNK_CHARS = 1 << 15
# Every byte but the two separators of an unquoted record.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _chunks(path, handle):
    """Yield (timestamps, story runs) for each chunk of records left in `handle`.

    Unquoted lines split at their commas and line ends. From the first chunk
    holding a quote on, `csv.reader` tokenizes the rest of the file, as many
    records at a time as that chunk had lines, since a quoted field may hold
    a comma or a line end.
    """
    lineno = 2
    while text := handle.read(_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        if '"' in text:
            lines = io.StringIO(text, newline="").readlines()
            reader = _records(path, lineno, csv.reader(itertools.chain(lines, handle)))
            while rows := list(itertools.islice(reader, len(lines))):
                yield _checked_rows(path, lineno, rows)
                lineno += len(rows)
            return
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if not text.endswith("\n"):
            text += "\n"
        count = text.count("\n")
        checked = None
        # With one comma per line the cells alternate story id and timestamp.
        if text.encode().translate(None, _NOT_SEPARATORS) == b",\n" * count:
            checked = _checked(text[:-1].replace("\n", ",").split(","))
        # Otherwise blank lines, a wrong field count or a bad cell: check the
        # chunk again record by record.
        yield checked or _checked_rows(
            path, lineno, [row.split(",") for row in text.split("\n")[:-1]]
        )
        lineno += count


def _records(path, lineno: int, reader):
    """The records of `reader`, the first numbered `lineno`. A record `csv`
    refuses, such as one with a field over `csv.field_size_limit()`, is a
    format error naming its line."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise TraceFormatError(f"{path}: line {lineno}: {err}") from None
        yield row
        lineno += 1


def _checked(cells: list[str]):
    """(timestamps, story runs) of one chunk's cells, story id and timestamp
    in turn, or None if a cell fails a check.

    A story run is (stripped story id, number of consecutive rows).
    """
    try:
        stamps = np.array(cells[1::2], dtype=float)
    except ValueError:
        return None
    if not np.all(np.isfinite(stamps) & (stamps >= 0)):
        return None
    runs = [(key.strip(), len(list(group))) for key, group in itertools.groupby(cells[0::2])]
    if not all(story for story, _ in runs):
        return None
    return stamps, runs


def _checked_rows(path, lineno: int, rows: list[list[str]]):
    """`_checked` for records given as field lists, numbered from `lineno`.

    Blank records are dropped. If any record fails a check, the error of the
    first bad one is raised.
    """
    kept = [
        (number, row)
        for number, row in enumerate(rows, start=lineno)
        if len(row) > 1 or (row and row[0].strip())
    ]
    if all(len(row) == 2 for _, row in kept):
        checked = _checked([cell for _, row in kept for cell in row])
        if checked:
            return checked
    for lineno, row in kept:
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
    # Every record passes: the cells failed only for whitespace that
    # `str.strip` removes and `float` refuses, U+001C to U+001F.
    return _checked([cell.strip() for _, row in kept for cell in row])


def curve_block(traces: Sequence[EventTrace]):
    """Step curves of cumulative event fraction of many traces, as one block.

    Returns (horizons, values, faults): the traces' horizons, a (traces x
    200) array, and per trace None or the ValueError that refuses its curve.
    Row n at column k - 1 is the share of trace n's events at or before
    horizon*k/200, so the curve is right-continuous and ends at exactly 1.0
    at the horizon. Each trace takes one grid, refused as `uniform_grid`
    refuses it, and one `searchsorted`. A curve whose events fill fewer than
    4 grid cells, as clock timestamps do, is refused by name. A trace's
    events lie in (0, horizon], so any other row passes `PopularityCurve`'s
    checks by construction.
    """
    axis = _axis(_GRID_POINTS)
    horizons = np.array([trace.horizon for trace in traces], dtype=float)
    values = np.zeros((len(traces), _GRID_POINTS))
    faults: list = [None] * len(traces)
    for n, trace in enumerate(traces):
        try:
            counts = np.searchsorted(trace.events, _scaled(trace.horizon, axis), side="right")
        except ValueError as err:
            faults[n] = err
            continue
        values[n] = counts
        filled = np.count_nonzero(counts[1:] != counts[:-1]) + (counts[0] > 0)
        if filled < _MIN_FILLED_CELLS:
            faults[n] = ValueError(
                f"events fill {filled} of {_GRID_POINTS} grid cells: "
                "are timestamps measured from the story's start?"
            )
    values /= np.array([trace.count for trace in traces], dtype=float)[:, None]
    return horizons, values, faults


def aggregate_mean(horizons, values) -> PopularityCurve:
    """Pointwise mean of a block of curves on a shared uniform grid.

    Row n of the (curves x points) array `values` is a curve of horizon
    `horizons[n]`, a row of `curve_block` that it did not refuse: the rows
    are not checked again. The shared grid is `uniform_grid` of the longest
    horizon. Each member is linearly interpolated onto it, holding its
    first value to the left of its support and its last value beyond its
    own horizon. Means are computed with exactly rounded summation, so the
    result does not depend on the order of the rows; the mean is checked
    once, as a `PopularityCurve`.
    """
    horizons = np.asarray(horizons, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or horizons.shape != values.shape[:1]:
        raise ValueError("values must be a 2-D array with one horizon per row")
    if not values.size:
        raise ValueError("aggregate_mean needs at least one curve")
    axis = _axis(values.shape[1])
    longest = float(horizons.max())
    shared = longest * axis
    sampled = np.array([np.interp(shared, horizon * axis, row)
                        for horizon, row in zip(horizons.tolist(), values)])
    mean = [math.fsum(column.tolist()) / len(values) for column in sampled.T]
    return PopularityCurve(horizon=longest, values=mean)
