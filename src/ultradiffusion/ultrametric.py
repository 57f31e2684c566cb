"""Ultrametric state spaces induced by event timelines.

Each event at time t, observed up to horizon T, becomes a state labeled by the
reverse-time subscript a = T - t; the state with label a = T is the one in
which no rebroadcast has happened. The distance between two distinct states is
T - min(a, b): the later of the two original event times. Distances built this
way satisfy the strong triangle inequality d(x, y) <= max(d(x, z), d(z, y)),
which is what makes a hierarchy of relaxation time scales possible.

`verify_ultrametric` proves that inequality for every triple, and
`generator.check_rate_ultrametricity` proves its dual on rates, taking min
where distances take max, by one kernel whose proof is this. In its own
order, a symmetric matrix passes when every entry above the first
off-diagonal is the larger of its left and its lower neighbour,
d(i, j) = max(d(i, j - 1), d(i + 1, j)), which by induction on j - i makes
it the largest adjacent gap d(k, k + 1), i <= k < j, between its indices.
The check reads whole rows as one flat buffer, in which those two
neighbours are 1 and n entries on, and compares entries only, so it is
exact and O(n^2); every space this module builds, and every tree space,
passes it. Any other matrix takes one single linkage, whose merge joining
i and j is at the height U[i, j] of the subdominant ultrametric, the
largest ultrametric below d. A symmetric matrix is an ultrametric exactly
when it equals U (Gower & Ross 1969; Rammal, Toulouse & Virasoro, Rev. Mod.
Phys. 58, 765, 1986), and the comparison also locates: a violating
(i, j, k) has d(i, j) > max(d(i, k), d(k, j)) >= U[i, j], and where
d(i, j) > U[i, j], the first state p on the minimax path from i to j with
d(i, p) > U[i, j] and the state before p violate the inequality. So the
first row with an entry above U is the first violating row, and testing
its entries above U in ascending column order, O(n) each, gives the first
violating (i, j, k) in lexicographic order.

`UltrametricSpace(...)` checks a matrix from outside the library in O(n^2).
The builders here and `spectral.space_from_tree` make a matrix that passes
those checks by construction, so they check only their O(n) inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .traces import EventTrace, _integer, _readonly, _unchecked

__all__ = [
    "TripleReport",
    "UltrametricSpace",
    "build_from_trace",
    "uniform_chain",
    "verify_ultrametric",
]


@dataclass(frozen=True)
class UltrametricSpace:
    """A finite state space with pairwise ultrametric distances.

    `labels` identifies the states (ascending; reverse-time subscripts for
    trace-built spaces, plain indices for model chains and trees), and
    `dist` holds the symmetric distance matrix.

    The constructor takes a matrix from outside the library and checks it in
    O(n^2): symmetric, zero on the diagonal, positive off it. The library's
    own builders (`build_from_trace`, `uniform_chain`,
    `spectral.space_from_tree`) make a matrix that is all three by
    construction, so they check only their O(n) inputs and skip it.
    """

    labels: np.ndarray
    dist: np.ndarray

    def __post_init__(self) -> None:
        labels = _readonly(self.labels)
        dist = _readonly(self.dist)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)
        n = labels.size
        if n == 0:
            raise ValueError("state space needs at least one state")
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        _check_ascending(labels)
        if dist.shape != (n, n):
            raise ValueError(f"distance matrix must be {n}x{n}, got {dist.shape}")
        if np.any(np.diagonal(dist) != 0):
            raise ValueError("distances must be zero on the diagonal")
        if not np.array_equal(dist, dist.T):
            raise ValueError("distance matrix must be symmetric")
        # The n diagonal zeros are the only entries allowed to be <= 0.
        if np.count_nonzero(dist <= 0) > n:
            raise ValueError("distances between distinct states must be positive")

    @property
    def size(self) -> int:
        return int(self.labels.size)


def _check_ascending(labels: np.ndarray) -> None:
    # A comparison, not a difference: inf - inf and NaN would pass `<= 0`.
    if not (labels[1:] > labels[:-1]).all():
        raise ValueError("labels must be strictly ascending")


@dataclass(frozen=True)
class TripleReport:
    """Outcome of a strong-triangle check over every ordered triple of a matrix.

    `triple` holds 0-based state indices (i, j, k) of the first violation in
    lexicographic order, or None when every triple passes; `ok` says which.
    """

    triple: tuple[int, int, int] | None
    message: str

    @property
    def ok(self) -> bool:
        return self.triple is None


def build_from_trace(trace: EventTrace) -> UltrametricSpace:
    """State space of a trace: one state per distinct event time, plus one
    no-rebroadcast state at subscript T.

    Simultaneous events collapse into a single state. An event at exactly
    t = T is allowed and yields subscript 0.
    """
    span, events = trace.horizon, trace.events
    # Events are sorted: each distinct time is one that differs from the
    # time before it.
    first = np.empty(events.size, dtype=bool)
    first[0] = True
    np.not_equal(events[1:], events[:-1], out=first[1:])
    distinct = events[first]
    # Ascending event times map to descending subscripts; reverse, then append
    # the no-rebroadcast state at subscript T.
    labels = np.empty(distinct.size + 1)
    np.subtract(span, distinct[::-1], out=labels[:-1])
    labels[-1] = span
    return _max_space(labels, span - labels)


def uniform_chain(n: int) -> UltrametricSpace:
    """Unit-spaced chain of n states with d(i, j) = max(i, j) - 1 for i != j.

    This is the state space whose closed-form spectrum the model layer uses:
    the rate between states i < j is e^(-mu*(j-1)).
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("a chain needs at least 2 states")
    idx = np.arange(1, n + 1, dtype=float)
    return _max_space(idx, idx - 1.0)


def _max_space(labels, heights) -> UltrametricSpace:
    """Space with d(i, j) = max(heights[i], heights[j]) for i != j.

    The outer maximum is symmetric and the diagonal is set to zero, so of
    the constructor's checks only two remain, both O(n) and in its order:
    the labels ascend, and, since the finite heights of a trace or a chain
    give max(h_i, h_j) > 0 at every i != j exactly when at most one of them
    is <= 0, the distances are positive.
    """
    _check_ascending(labels)
    if np.count_nonzero(heights <= 0) > 1:
        raise ValueError("distances between distinct states must be positive")
    dist = np.maximum.outer(heights, heights)
    dist.reshape(-1)[:: heights.size + 1] = 0.0  # the diagonal
    return _unchecked(UltrametricSpace, labels=labels, dist=dist)


# Entries per block of the order proof, so its temporaries stay near 2 MB
# at any n. A block has at most min(n, max(1, _BLOCK_ENTRIES // n)) <= _SIDE
# rows. `spectral._mode_sum` sums its blocks of times to the same size.
_SIDE = 512
_BLOCK_ENTRIES = _SIDE * _SIDE


@functools.cache
def _upper() -> np.ndarray:
    """The _SIDE x (_SIDE + 2) mask of the entries two or more right of the
    diagonal, 257 kB, made on first use: a process that proves nothing does
    not hold it."""
    return ~np.tri(_SIDE, _SIDE + 2, k=1, dtype=bool)


def _holds_in_order(m: np.ndarray, join) -> bool:
    """Whether m[i, j] == join(m[i, j - 1], m[i + 1, j]) for all i < j - 1:
    the own-order proof of the module docstring (with `np.minimum`, for -m).

    Rows are checked a fixed block at a time, on the flat buffer x of the
    block's rows and the row below them, as x[k] != join(x[k - 1], x[k + n]):
    the left and the lower neighbour of an entry are one and n places on, so
    each block takes two ufunc calls on contiguous memory.
    """
    n = m.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    for top in range(0, n - 2, step):
        height = min(step, n - 2 - top)
        x = m[top : top + height + 1].ravel()
        size = height * n
        # bad[k] compares x[k] = m[i, j] with i = top + k // n and j = k % n.
        bad = np.zeros(size, dtype=bool)
        np.not_equal(x[1:size], join(x[: size - 1], x[n + 1 : size + n]), out=bad[1:])
        # Only entries with j >= i + 2 count: columns left of `top` are
        # cleared, the next ones masked. Column 0, where x[k - 1] wraps to
        # the row above, is among them.
        bad = bad.reshape(height, n)
        bad[:, :top] = False
        corner = bad[:, top : top + height + 2]
        corner &= _upper()[:height, : corner.shape[1]]
        if bad.any():
            return False
    return True


def _first_violation(m: np.ndarray, negate: bool = False) -> tuple[int, int, int] | None:
    """First (i, j, k) in lexicographic order with m[i, j] > max(m[i, k], m[k, j]),
    by the proof of the module docstring.

    With `negate`, the same for -m, without negating the matrix: the
    own-order proof takes `min` where it takes `max`, and the located row is
    tested for m[i, j] < min(m[i, k], m[k, j]), which is the same inequality,
    since negation is exact. Only triples of distinct indices count, so the
    diagonal of `m` is ignored. `m` must be symmetric with no NaN, and its
    off-diagonal entries nonnegative and not +inf with `negate`.
    """
    n = m.shape[0]
    if n < 3:
        return None
    join = np.minimum if negate else np.maximum
    if _holds_in_order(m, join):
        return None
    # Imported here: scipy.cluster is only needed once the own order fails.
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    values = squareform(m, checks=False)
    if negate:
        np.negative(values, out=values)
    # linkage takes finite values only; ranks keep their order exactly.
    if values.max() == np.inf:
        values = np.unique(values, return_inverse=True)[1].astype(float)
    tree = linkage(values, "single")
    # The values share one sign, so |.| keeps them apart and gives cophenet
    # the nonnegative heights it takes.
    np.abs(tree[:, 2], out=tree[:, 2])
    np.abs(values, out=values)
    unequal = cophenet(tree) != values
    if not unequal.any():
        return None
    # The pairs (i, j), i < j, run row by row, row i from i(2n - i - 1)/2 on.
    # The first row with an unequal pair has none left of its diagonal, so
    # the first unequal pair lies in it.
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    i = int(np.searchsorted(starts, np.argmax(unequal), side="right")) - 1
    above = np.less if negate else np.greater
    row = m[i]
    for j in (i + 1 + np.flatnonzero(unequal[starts[i] : starts[i] + n - 1 - i])).tolist():
        # m[k, j] is m[j, k]: a row, not a strided column.
        bad = above(row[j], join(row, m[j]))
        bad[[i, j]] = False
        if bad.any():
            return i, j, int(np.argmax(bad))
    raise AssertionError("a row above the subdominant ultrametric has a violating column")


def verify_ultrametric(space: UltrametricSpace) -> TripleReport:
    """Check d(i, j) <= max(d(i, k), d(k, j)) for distinct states i, j, k.

    By the proof of the module docstring, which also names the first
    violating triple in lexicographic (i, j, k) order. Symmetry, zero
    diagonal, and positivity are enforced when the space is built, so only
    the triangle structure is checked here.
    """
    dist = space.dist
    n = space.size
    triple = _first_violation(dist)
    if triple is None:
        return TripleReport(triple=None, message=f"all {n} states ultrametric")
    i, j, k = triple
    return TripleReport(
        triple=triple,
        message=(
            f"d({space.labels[i]:g},{space.labels[j]:g})={dist[i, j]:g} exceeds "
            f"max(d(.,{space.labels[k]:g}))={max(dist[i, k], dist[k, j]):g}"
        ),
    )
