"""Ultrametric state spaces induced by event timelines.

Each event at time t, observed up to horizon T, becomes a state labeled by the
reverse-time subscript a = T - t; the state with label a = T is the one in
which no rebroadcast has happened. The distance between two distinct states is
T - min(a, b): the later of the two original event times. Distances built this
way satisfy the strong triangle inequality d(x, y) <= max(d(x, z), d(z, y)),
which is what makes a hierarchy of relaxation time scales possible.

`verify_ultrametric` proves that inequality for every triple in O(n^2), and
`generator.check_rate_ultrametricity` proves its dual on rates, taking min
where distances take max: the matrix passes when, in its own order, every
entry above the first off-diagonal is the larger of its left neighbour and
the adjacent gap that closes it, d(i, j) = max(d(i, j - 1), d(j - 1, j)).
Every space this module builds, and every tree space, is in such an order;
any other matrix is tried once more in the leaf order of its single-linkage
dendrogram, which an ultrametric always passes. The proof compares entries
only, so it is exact. When it fails, the ranks of the entries name the
first row that exceeds the subdominant ultrametric, which is the first
violating row, and a scan of that one row reports the lexicographically
first violating (i, j, k).

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
    trace-built spaces, plain indices for model chains and trees), `dist`
    holds the symmetric distance matrix, and `multiplicity` counts how many
    trace events collapsed into each state (zero for the no-rebroadcast
    state, one everywhere for model chains and trees).

    The constructor takes a matrix from outside the library and checks it in
    O(n^2): symmetric, zero on the diagonal, positive off it. The library's
    own builders (`build_from_trace`, `uniform_chain`,
    `spectral.space_from_tree`) make a matrix that is all three by
    construction, so they check only their O(n) inputs and skip it.
    """

    labels: np.ndarray
    dist: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self) -> None:
        labels = _readonly(self.labels)
        dist = _readonly(self.dist)
        multiplicity = _readonly(self.multiplicity, dtype=int)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "multiplicity", multiplicity)
        n = labels.size
        if n == 0:
            raise ValueError("state space needs at least one state")
        if labels.ndim != 1 or multiplicity.shape != (n,):
            raise ValueError("labels and multiplicity must be one-dimensional and aligned")
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
    if (labels[1:] - labels[:-1] <= 0).any():
        raise ValueError("labels must be strictly ascending")


def _built_space(labels, dist: np.ndarray, multiplicity) -> UltrametricSpace:
    """The space of a builder whose labels ascend and whose `dist`, its own,
    is symmetric, zero on the diagonal and positive off it: the fields are
    set without the constructor's O(n^2) checks."""
    dist.setflags(write=False)  # handed over as is, not copied
    return _unchecked(
        UltrametricSpace,
        labels=_readonly(labels),
        dist=dist,
        multiplicity=_readonly(multiplicity, dtype=int),
    )


@dataclass(frozen=True)
class TripleReport:
    """Outcome of a strong-triangle check over every ordered triple of a matrix.

    `triple` holds 0-based state indices (i, j, k) of the first violation in
    lexicographic order, or None when every triple passes.
    """

    ok: bool
    triple: tuple[int, int, int] | None
    message: str


def build_from_trace(trace: EventTrace) -> UltrametricSpace:
    """State space of a trace: one state per distinct event time, plus one
    no-rebroadcast state at subscript T.

    Simultaneous events collapse into a single state whose multiplicity
    records how many merged. An event at exactly t = T is allowed and yields
    subscript 0.
    """
    span, events = trace.horizon, trace.events
    # Events are sorted: each distinct time starts where one differs from the
    # time before it, and its ties run up to the next start.
    edges = np.flatnonzero(np.concatenate([[True], events[1:] != events[:-1], [True]]))
    counts = edges[1:] - edges[:-1]
    # Ascending event times map to descending subscripts; reverse, then append
    # the no-rebroadcast state at subscript T with multiplicity zero.
    labels = np.concatenate([(span - events[edges[:-1]])[::-1], [span]])
    multiplicity = np.concatenate([counts[::-1], [0]])
    return _max_space(labels, span - labels, multiplicity)


def uniform_chain(n: int) -> UltrametricSpace:
    """Unit-spaced chain of n states with d(i, j) = max(i, j) - 1 for i != j.

    This is the state space whose closed-form spectrum the model layer uses:
    the rate between states i < j is e^(-mu*(j-1)).
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("a chain needs at least 2 states")
    idx = np.arange(1, n + 1, dtype=float)
    return _max_space(idx, idx - 1.0, np.ones(n, dtype=int))


def _max_space(labels, heights, multiplicity) -> UltrametricSpace:
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
    np.fill_diagonal(dist, 0.0)
    return _built_space(labels, dist, multiplicity)


# Entries per block of the order proof, so its temporaries stay near 2 MB
# at any n. A block has at most min(n, max(1, _BLOCK_ENTRIES // n)) <= _SIDE
# rows.
_SIDE = 512
_BLOCK_ENTRIES = _SIDE * _SIDE


@functools.cache
def _upper() -> np.ndarray:
    """The _SIDE-square mask on and above the diagonal, 256 kB, made on
    first use: a process that proves nothing does not hold it."""
    return ~np.tri(_SIDE, k=-1, dtype=bool)


def _holds_in_order(m: np.ndarray, order: np.ndarray | None, join) -> bool:
    """Whether m[i, j] == join(m[i, j - 1], m[j - 1, j]) for all i < j - 1,
    with the states taken in `order` (None: their own order).

    When it holds, every entry is the `join` of the adjacent gaps
    m[k, k + 1], i <= k < j, between its two indices, so m is an ultrametric
    (with `np.minimum`, -m is). Rows are checked a fixed block at a time, and
    through `order` only the block's rows are gathered, then its columns.
    """
    n = m.shape[0]
    gaps = np.diagonal(m, 1) if order is None else m[order[:-1], order[1:]]
    step = max(1, _BLOCK_ENTRIES // n)
    for top in range(0, n - 2, step):
        rows = slice(top, min(top + step, n - 2))
        if order is None:
            block = m[rows, top + 1 :]
        else:
            block = m[order[rows]][:, order[top + 1 :]]
        # bad[a, b] compares m[i, j] with i = top + a and j = top + 2 + b, so
        # the entries with j >= i + 2 are those with b >= a.
        bad = block[:, 1:] != join(block[:, :-1], gaps[top + 1 :])
        height = bad.shape[0]
        if bad[:, height:].any() or (bad[:, :height] & _upper()[:height, :height]).any():
            return False
    return True


def _first_violation(m: np.ndarray, negate: bool = False) -> tuple[int, int, int] | None:
    """First (i, j, k) in lexicographic order with m[i, j] > max(m[i, k], m[k, j]).

    With `negate`, the same for -m, without negating anything: the proof
    takes `min` where it takes `max`, and the failing row is scanned for
    m[i, j] < min(m[i, k], m[k, j]), which is the same inequality, since
    negation is exact. Only triples of distinct indices count, so the
    diagonal of `m` is ignored; `m` must be symmetric with no NaN, and with
    no -inf (+inf with `negate`).
    A symmetric matrix is an ultrametric exactly when, in some order of its
    states, m[i, j] = max(m[i, j - 1], m[j - 1, j]) for every i < j - 1:
    each entry is then the largest adjacent gap between its indices, and an
    ultrametric satisfies the identity in the leaf order of its
    single-linkage dendrogram (Gower & Ross 1969; Rammal, Toulouse &
    Virasoro, Rev. Mod. Phys. 58, 765, 1986). The proof checks the identity
    in O(n^2) in the matrix's own order, where every space this library
    builds already is, and only if that fails in the leaf order of one
    linkage. It compares entries only, so it is exact. When both fail, the
    ranks of the values (`cophenet` takes no negative heights) name the
    first row that exceeds the subdominant ultrametric, which is the first
    violating row, and only that row is scanned for (j, k).
    """
    n = m.shape[0]
    if n < 3:
        return None
    join = np.minimum if negate else np.maximum
    if _holds_in_order(m, None, join):
        return None
    # Imported here: scipy.cluster is only needed once the own order fails.
    from scipy.cluster.hierarchy import cophenet, leaves_list, linkage
    from scipy.spatial.distance import squareform

    values = squareform(m, checks=False)
    if negate:
        np.negative(values, out=values)
    # linkage takes finite values only; ranks keep their order exactly.
    if values.max() == np.inf:
        values = np.unique(values, return_inverse=True)[1].astype(float)
    tree = linkage(values, "single")
    # leaves_list refuses negative heights; the leaf order needs the merges only.
    tree[:, 2] = np.arange(n - 1)
    if _holds_in_order(m, leaves_list(tree), join):
        return None
    # If m[i, j] > U[i, j], then the first p on the minimax path i -> j with
    # m[i, p] > U[i, j] and the node before p violate the inequality.
    ranks = np.unique(values, return_inverse=True)[1]
    exceeds = cophenet(linkage(ranks.astype(float), "single")) != ranks
    i = int(np.argmax(squareform(exceeds).any(axis=1)))
    row = m[i]
    if negate:
        bad = row[:, None] < np.minimum(row, m.T)
    else:
        bad = row[:, None] > np.maximum(row, m.T)
    bad[i, :] = bad[:, i] = False
    np.fill_diagonal(bad, False)
    j, k = np.argwhere(bad)[0]
    return i, int(j), int(k)


def verify_ultrametric(space: UltrametricSpace) -> TripleReport:
    """Check d(i, j) <= max(d(i, k), d(k, j)) for distinct states i, j, k.

    A space that is an ultrametric in its own order passes in O(n^2), any
    other ultrametric after one linkage; otherwise only the first row that
    exceeds the subdominant ultrametric is scanned, which gives the first
    violating triple in lexicographic (i, j, k) order. Symmetry, zero
    diagonal, and positivity are enforced when the space is built, so only
    the triangle structure is checked here.
    """
    dist = space.dist
    n = space.size
    triple = _first_violation(dist)
    if triple is None:
        return TripleReport(ok=True, triple=None, message=f"all {n} states ultrametric")
    i, j, k = triple
    return TripleReport(
        ok=False,
        triple=triple,
        message=(
            f"d({space.labels[i]:g},{space.labels[j]:g})={dist[i, j]:g} exceeds "
            f"max(d(.,{space.labels[k]:g}))={max(dist[i, k], dist[k, j]):g}"
        ),
    )
