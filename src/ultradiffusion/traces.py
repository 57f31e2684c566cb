"""Event traces and popularity curves.

A trace records when one story (a post, a paper, a package) received each of
its rebroadcasts: votes, comments, downloads, measured in seconds since
submission. A popularity curve is the cumulative fraction of rebroadcasts seen
by time t, sampled on a uniform grid. Curves are what the model layer fits.
`curve_block` builds the curves of many traces at once, as one (traces x grid
points) array of grid times and one of values, checked row by row by the
validator every `PopularityCurve` passes; `empirical_curve` is its one-trace
call.
"""

from __future__ import annotations

import csv
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
    "empirical_curve",
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
    and its checks do not run."""
    made = object.__new__(cls)
    for name, value in fields.items():
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
    """

    story_id: str
    events: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if not self.story_id:
            raise ValueError("story_id must be nonempty")
        events = _readonly(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "horizon", float(self.horizon))
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError(f"story {self.story_id}: horizon must be positive and finite")
        if events.ndim != 1:
            raise ValueError(f"story {self.story_id}: events must be one-dimensional")
        if events.size == 0:
            raise ValueError(f"story {self.story_id}: trace needs at least one event")
        if not np.all(np.isfinite(events)):
            raise ValueError(f"story {self.story_id}: event times must be finite")
        if np.any(np.diff(events) < 0):
            raise ValueError(f"story {self.story_id}: events must be sorted ascending")
        if events[0] <= 0:
            raise ValueError(f"story {self.story_id}: event times must be positive")
        if events[-1] > self.horizon:
            raise ValueError(
                f"story {self.story_id}: event at t={events[-1]!r} exceeds "
                f"horizon {self.horizon!r}"
            )

    @property
    def count(self) -> int:
        """Number of recorded events."""
        return int(self.events.size)


@dataclass(frozen=True)
class PopularityCurve:
    """Cumulative response fraction sampled on a uniform time grid."""

    grid: np.ndarray
    values: np.ndarray
    saturation_count: int

    def __post_init__(self) -> None:
        grid = _readonly(self.grid)
        values = _readonly(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "saturation_count", _integer(self.saturation_count, "saturation count")
        )
        if grid.ndim != 1 or values.ndim != 1:
            raise ValueError("grid and values must be one-dimensional")
        if grid.size != values.size:
            raise ValueError(f"grid has {grid.size} points but values has {values.size}")
        if grid.size == 0:
            raise ValueError("curve needs at least one grid point")
        (fault,) = _row_faults(grid[None], values[None], np.array([self.saturation_count]))
        if fault:
            raise ValueError(fault)

    @property
    def horizon(self) -> float:
        """Last grid time, the curve's observation horizon."""
        return float(self.grid[-1])


_SPACING_FAULTS = ("grid must be strictly increasing", "grid must be uniformly spaced")
# What each check a curve must pass refuses, in the order they are tried.
_CURVE_FAULTS = (
    "grid must start at a nonnegative time",
    "grid times must be finite",
    *_SPACING_FAULTS,
    "saturation count must be a positive integer",
    "curve values must lie in [0, 1]",
    "curve values must be nondecreasing",
)


def _spacing_faults(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `grid` not strictly increasing, and rows not uniformly spaced."""
    if grid.shape[1] < 2:
        return (np.zeros(len(grid), dtype=bool),) * 2
    # NaN or infinite times make NaN steps, which fail the uniform-spacing
    # test; the warnings they raise on the way are silenced.
    with np.errstate(invalid="ignore"):
        steps = np.diff(grid, axis=1)
        top = steps.max(axis=1)
        # Uniform spacing keeps downstream interpolation and fitting honest.
        uneven = ~(top - steps.min(axis=1) <= 1e-6 * top)
    return (steps <= 0).any(axis=1), uneven


def _row_faults(grid: np.ndarray, values: np.ndarray, counts: np.ndarray) -> list:
    """What refuses each curve of a block, or None for a sound one.

    Row n of the 2-D arrays `grid` and `values`, at least one column wide,
    is a curve of `counts[n]` events. The checks, their order and their
    wording are those of `PopularityCurve`, which runs this on its one row.
    """
    failing = np.stack([
        ~(grid[:, 0] >= 0),
        np.isinf(grid[:, -1]),
        *_spacing_faults(grid),
        counts < 1,
        ~((values.min(axis=1) >= 0) & (values.max(axis=1) <= 1 + 1e-12)),
        (np.diff(values, axis=1) < -1e-12).any(axis=1),
    ])
    first = failing.argmax(axis=0).tolist()
    return [
        _CURVE_FAULTS[k] if bad else None
        for k, bad in zip(first, failing.any(axis=0).tolist())
    ]


def _block_curve(grid: np.ndarray, values: np.ndarray, count: int) -> PopularityCurve:
    """The curve of a `curve_block` row that passed its checks, of `count`
    events, built without checking it again."""
    return _unchecked(
        PopularityCurve, grid=_readonly(grid), values=_readonly(values), saturation_count=count
    )


def _uniform_grids(horizons: np.ndarray, grid_points) -> np.ndarray:
    """The times k*horizon/n for k = 1..n of each horizon, one row each."""
    if _integer(grid_points, "grid_points") < 1:
        raise ValueError("grid_points must be at least 1")
    return horizons[:, None] * (np.arange(1, grid_points + 1) / grid_points)


def _too_short(horizon: float, grid_points: int) -> ValueError:
    return ValueError(
        f"horizon {horizon!r} is too short to split into {grid_points} uniform grid points"
    )


def uniform_grid(horizon: float, grid_points: int = 200) -> np.ndarray:
    """Uniform sampling times k*horizon/n for k = 1..n.

    The grid excludes zero and includes the horizon exactly. A horizon so
    small (subnormal) that the times round to repeated or unevenly spaced
    values is refused.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    grid = _uniform_grids(np.array([horizon], dtype=float), grid_points)
    if any(bad[0] for bad in _spacing_faults(grid)):
        raise _too_short(float(horizon), grid_points)
    return grid[0]


def parse_trace_csv(path, horizon: float | None = None) -> list[EventTrace]:
    """Read story traces from a CSV with header ``story_id,timestamp``.

    Timestamps are decimal seconds since each story's submission. The file
    may start with a UTF-8 byte-order mark; rows may end in LF, CRLF or CR;
    blank lines are skipped and whitespace around a field is ignored. Fields
    may be quoted as `csv` quotes them, so a story id can hold commas, quotes
    or line ends. A story's rows need not be contiguous; stories keep their
    order of first appearance. The observation horizon of each story is its
    largest timestamp unless `horizon` overrides it for every story.
    """
    parts: dict[str, list[np.ndarray]] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next(csv.reader(handle), None)
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
        span = float(events[-1]) if horizon is None else float(horizon)
        try:
            traces.append(EventTrace(story_id=story, events=events, horizon=span))
        except ValueError as exc:
            # A zero timestamp or an override horizon below the last event
            # violates trace invariants; surface it as a format problem.
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
            reader = csv.reader(itertools.chain(lines, handle))
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


def curve_block(traces: Sequence[EventTrace], grid_points: int = 200):
    """Step curves of cumulative event fraction of many traces, as one block.

    Returns (grid, values, faults): (traces x grid_points) arrays whose row
    n holds the grid times and values of `empirical_curve(traces[n])`, bit
    for bit, and per trace None or the ValueError that `empirical_curve`
    raises for it, which leaves its row meaningless. The grids are one
    expression over the horizons, each trace takes one `searchsorted`, and
    the rows are checked as `PopularityCurve` checks one curve.
    """
    horizons = np.array([trace.horizon for trace in traces], dtype=float)
    grid = _uniform_grids(horizons, grid_points)
    values = np.empty(grid.shape)
    counts = np.array([trace.count for trace in traces], dtype=np.intp)
    for n, trace in enumerate(traces):
        values[n] = np.searchsorted(trace.events, grid[n], side="right")
    values /= counts[:, None]
    faults: list = []
    for span, fault in zip(horizons.tolist(), _row_faults(grid, values, counts)):
        if fault in _SPACING_FAULTS:
            # A trace's horizon is finite and positive, so its grid fails only
            # by spacing, where `uniform_grid` refuses the horizon.
            faults.append(_too_short(span, grid_points))
        else:
            faults.append(fault and ValueError(fault))
    return grid, values, faults


def empirical_curve(trace: EventTrace, grid_points: int = 200) -> PopularityCurve:
    """Step curve of cumulative event fraction on a uniform grid.

    The value at grid time t is (number of events <= t) / M with M the
    trace's total event count, so the curve is right-continuous and ends at
    exactly 1.0 at the horizon. The one-trace call of `curve_block`.
    """
    (grid,), (values,), (fault,) = curve_block([trace], grid_points)
    if fault:
        raise fault
    return _block_curve(grid, values, trace.count)


def aggregate_mean(curves: list[PopularityCurve], grid_points: int = 200) -> PopularityCurve:
    """Pointwise mean of several curves on a shared uniform grid.

    Each member is linearly interpolated onto a uniform grid over
    [0, max horizon], holding its first value to the left of its support and
    its last value beyond its own horizon. Means are computed with exactly
    rounded summation, so the result does not depend on input order. The
    aggregate saturation count is the sum of the member counts.
    """
    if not curves:
        raise ValueError("aggregate_mean needs at least one curve")
    span = max(curve.horizon for curve in curves)
    grid = uniform_grid(span, grid_points)
    sampled = [np.interp(grid, curve.grid, curve.values) for curve in curves]
    values = np.array(
        [math.fsum(column) / len(sampled) for column in zip(*sampled)], dtype=float
    )
    total = sum(curve.saturation_count for curve in curves)
    return PopularityCurve(grid=grid, values=values, saturation_count=total)
