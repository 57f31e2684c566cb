"""Table and JSON output.

Every writer writes UTF-8 whatever the locale (the encoding the trace parser
reads) to a temporary file in the destination directory, and renames it
into place, so a failure partway through never leaves a truncated file
behind. A table's body is rendered in memory with one `%` format over all
its cells; JSON is written a chunk at a time as the encoder makes it, so a
large payload is never held as one string. A file gets the mode `open`
gives a new file, 0o666 less the umask. Floats are formatted with 9
significant digits, which makes re-runs byte-identical.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable, Mapping

import numpy as np

from .generator import Generator
from .traces import EventTrace
from .ultrametric import UltrametricSpace

__all__ = [
    "write_curve_tsv",
    "write_distance_tsv",
    "write_generator_tsv",
    "write_json",
    "write_spectrum_tsv",
    "write_trace_csv",
]


# O_BINARY keeps Windows from writing "\n" as CRLF. `os.open` makes the
# descriptor non-inheritable itself (PEP 446), so O_CLOEXEC would add nothing.
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _atomic_write(path, parts: Iterable[str]) -> None:
    # Not `tempfile.mkstemp`, which makes every file 0o600 whatever the umask.
    while True:
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, _NEW_FILE, 0o666)
            break
        except FileExistsError:
            continue
    try:
        # newline="" writes "\n" as it is; the file object closes `fd`.
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_table(path, header: list[str], rows, labels=None) -> None:
    """Tab-separated table: the `header` line, then one line per row of the
    2-D array `rows`, led by its entry of `labels` when given. The body is
    one `%` format over every cell."""
    rows = np.asarray(rows, dtype=float)
    first = "%.9g" if labels is None else "%s"
    line = "\t".join([first] + ["%.9g"] * (len(header) - 1)) + "\n"
    if labels is None:
        cells = rows.ravel().tolist()
    else:
        cells = [cell for label, row in zip(labels, rows.tolist()) for cell in (label, *row)]
    body = (line * len(rows)) % tuple(cells)
    _atomic_write(path, ["\t".join(header) + "\n", body])


def write_curve_tsv(path, grid, values) -> None:
    """Two-column table `t`, `p`: a curve's grid and its values."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.shape(values) != grid.shape:
        raise ValueError("a curve table needs a grid vector and values of its length")
    _write_table(path, ["t", "p"], np.column_stack([grid, values]))


def write_trace_csv(path, traces: Iterable[EventTrace]) -> None:
    """Event table with header `story_id,timestamp`, one row per event.

    A story id holding a comma, a double quote, CR or LF is written in
    double quotes with its quotes doubled, so `parse_trace_csv` reads it
    back; any other id, which `EventTrace` keeps free of the whitespace the
    parser strips, as it is. A story's rows are one `%` format over its
    timestamps.
    """
    parts = ["story_id,timestamp\n"]
    for trace in traces:
        story = trace.story_id
        if not set(story).isdisjoint(',"\r\n'):
            story = '"' + story.replace('"', '""') + '"'
        events = trace.events.tolist()
        parts.append((story.replace("%", "%%") + ",%.9g\n") * len(events) % tuple(events))
    _atomic_write(path, parts)


def write_distance_tsv(path, space: UltrametricSpace) -> None:
    """Distance matrix with state labels on both axes.

    A state is named X_ and its label: whole as an integer, otherwise to 9
    digits, or, when two labels agree to 9 digits, every name of the table
    to the digits `repr` needs, so no two states share a name.
    """
    labels = np.asarray(space.labels, dtype=float).tolist()
    names = [("X_%d" if a.is_integer() else "X_%.9g") % a for a in labels]
    if len(set(names)) < len(names):
        names = [("X_%d" if a.is_integer() else "X_%r") % a for a in labels]
    _write_table(path, ["state", *names], space.dist, labels=names)


def write_generator_tsv(path, gen: Generator) -> None:
    """Rate matrix with 1-based state indices on both axes."""
    names = [f"state_{i}" for i in range(1, gen.size + 1)]
    _write_table(path, ["state", *names], gen.rates, labels=names)


def write_spectrum_tsv(path, eigenvalues) -> None:
    """Two-column table `j`, `lambda`, j counted from 1."""
    eigenvalues = np.asarray(eigenvalues, dtype=float).reshape(-1, 1)
    _write_table(path, ["j", "lambda"], eigenvalues, labels=range(1, len(eigenvalues) + 1))


def write_json(path, payload: Mapping | list) -> None:
    """JSON with sorted keys and a trailing newline, written as it is encoded."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    _atomic_write(path, itertools.chain(chunks, ["\n"]))
