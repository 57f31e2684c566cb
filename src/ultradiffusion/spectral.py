"""Closed-form relaxation of ultrametric diffusion.

On a rooted tree whose node heights set the hop rates e^(-h), every ancestor
on a leaf's path to the root contributes one exponential mode to the leaf's
return probability. With leaf counts N_0 = 1, N_1, ..., N_m along the path,
P(t) = sum_k (1/N_{k-1} - 1/N_k) e^(-rate_k t) + 1/N_m: a hierarchy of time
scales rather than a single rate. One formula gives the rates and one
evaluator, `_mode_sum`, sums the modes: for trees, chains and the
self-similar hierarchy of `baselines` alike. It takes a bounded block of
times at a time, about 2 MB of exponentials however deep the path, and
keeps the one-shot sum's bits whenever the times fit one block. A tree is
given as two arrays, each node's parent and height, in depth-first
pre-order, so no routine recurses.

The unit-spaced chain of t_N states is the caterpillar with N_k = k and
h_k = mu*(k-1). Its generator diagonalizes exactly: lambda(1) = 0 and, for
1 < j <= t_N, lambda(j) is minus the rate of level j,

    lambda(j) = -((j-1)*e^(-mu*(j-1)) + sum_{i=j..t_N} e^(-mu*(i-1))),

with orthonormal eigenvectors V(1) = (1, ..., 1)/sqrt(t_N) and, for j > 1,
V_i(j) = 1/sqrt((j-1)*j) when i < j, V_j(j) = -sqrt((j-1)/j), zero below.
The weights V_i(j)^2 are the path weights, so the dense matrix is only built
on request.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .traces import _integer, _readonly, _unchecked
from .ultrametric import _BLOCK_ENTRIES, UltrametricSpace

__all__ = [
    "ChainSpectrum",
    "TreeModel",
    "autocorrelation_chain",
    "caterpillar_tree",
    "chain_spectrum",
    "space_from_tree",
    "survival_probability",
    "tree_autocorrelation",
]

# Side of the square tiles in which `space_from_tree` mirrors its lower
# triangle: a tile and its transpose, 128 kB each, stay in cache.
_TILE = 128


def _check_times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    # At t = inf a rate that underflowed to 0 gives 0 * inf = NaN.
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and nonnegative")
    return times


def _check_index(index, n: int, what: str) -> int:
    index = _integer(index, f"{what} index")
    if not 1 <= index <= n:
        raise ValueError(f"{what} index {index} outside 1..{n}")
    return index


def _mode_sum(weights: np.ndarray, rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] e^(-rates[k] t) at every time t, in the shape of `times`.

    The one evaluator of a sum of relaxation modes. It takes the times a
    block at a time, so its (times x modes) exponential stays near
    `_BLOCK_ENTRIES` entries (2 MB), or one row of modes on a path deeper
    than that. Times that fit one block get the one-shot sum, bit for bit;
    across blocks BLAS may round a row differently, by up to about 2e-15
    relative.
    """
    step = max(1, _BLOCK_ENTRIES // max(1, rates.size))
    if times.size <= step:
        return np.exp(np.multiply.outer(times, -rates)) @ weights
    flat = times.ravel()
    out = np.empty(flat.size)
    for top in range(0, flat.size, step):
        out[top : top + step] = np.exp(np.multiply.outer(flat[top : top + step], -rates)) @ weights
    return out.reshape(times.shape)


def _path_modes(counts: np.ndarray, rates: np.ndarray, times: np.ndarray) -> np.ndarray | float:
    """sum_k (1/N_{k-1} - 1/N_k) e^(-rate_k t) + 1/N_m for path counts N_0 = 1, ..., N_m,
    the modes summed by `_mode_sum`."""
    weights = 1.0 / counts[:-1] - 1.0 / counts[1:]
    out = _mode_sum(weights, rates, times) + 1.0 / counts[-1]
    return out if times.ndim else float(out)


def _path_rates(counts: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """Rates N_k e^(-h_k) + sum_{i>k} (N_i - N_{i-1}) e^(-h_i) for k = 1..m, from
    path counts N_0 = 1, ..., N_m and hop[k - 1] = e^(-h_k)."""
    growth = (counts[1:] - counts[:-1]) * hop      # (N_i - N_{i-1}) e^(-h_i)
    above = np.concatenate([np.cumsum(growth[::-1])[::-1][1:], [0.0]])
    return counts[1:] * hop + above


@dataclass(frozen=True)
class ChainSpectrum:
    """Closed-form eigensystem of the unit-spaced chain of t_N states.

    The chain is its eigenvalues, one per state, so t_N is their count.
    Only the eigenvalues depend on the decay mu; the eigenvectors do not and
    are built on request.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        if self.eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be one-dimensional")

    @property
    def t_N(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors as columns, a dense t_N x t_N matrix built on each call."""
        n = self.t_N
        j = np.arange(2, n + 1)
        above = np.concatenate([[1.0 / np.sqrt(n)], 1.0 / np.sqrt((j - 1) * j)])
        vec = np.triu(np.broadcast_to(above, (n, n)), k=1)
        vec[:, 0] = above[0]
        vec[j - 1, j - 1] = -np.sqrt((j - 1) / j)
        return vec


def _check_chain(t_N: int, mu: float) -> int:
    t_N = _integer(t_N, "t_N")
    if t_N < 2:
        raise ValueError("t_N must be at least 2")
    # The spectra's arithmetic is in floats, which would overflow.
    if t_N > sys.float_info.max:
        raise ValueError(f"t_N must be at most {sys.float_info.max:g}")
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    return t_N


def chain_spectrum(t_N: int, mu: float) -> ChainSpectrum:
    """Exact spectrum of the generator over uniform_chain(t_N) at decay mu."""
    t_N = _check_chain(t_N, mu)
    # The path of leaf 1 climbs levels 2..t_N: N_0 = 1, N_k = k, h_k = mu*(k-1).
    lam = np.zeros(t_N)
    # Past the float range -mu*(k-1) is -inf and its rate the exact 0.
    with np.errstate(over="ignore"):
        decays = np.exp(-mu * np.arange(1, t_N))
    lam[1:] = -_path_rates(np.arange(1.0, t_N + 1), decays)
    return ChainSpectrum(eigenvalues=lam)


def autocorrelation_chain(spectrum: ChainSpectrum, i: int, t) -> np.ndarray | float:
    """Probability of finding state i again at time t, having started there.

    States are numbered 1..t_N. The value is 1 at t = 0 and decays to 1/t_N.
    State i climbs levels max(i, 2)..t_N of the caterpillar; level k has k leaves.
    """
    i = _check_index(i, spectrum.t_N, "state")
    times = _check_times(t)
    first = max(i, 2)
    counts = np.concatenate([[1.0], np.arange(first, spectrum.t_N + 1, dtype=float)])
    return _path_modes(counts, -spectrum.eigenvalues[first - 1:], times)


def survival_probability(t_N: int, mu: float, t) -> np.ndarray | float:
    """Probability that no rebroadcast has occurred by time t.

    Single-mode closed form for the chain's last state:
    ((t_N-1)/t_N) * e^(-t * t_N * e^(-mu*(t_N-1))) + 1/t_N. It is written
    out, not summed by `_mode_sum`: the survival-identity check compares it
    with the path kernel.
    """
    t_N = _check_chain(t_N, mu)
    times = _check_times(t)
    rate = t_N * np.exp(-mu * (t_N - 1))
    out = ((t_N - 1) / t_N) * np.exp(-times * rate) + 1.0 / t_N
    return out if times.ndim else float(out)


@dataclass(frozen=True, eq=False, init=False)
class TreeModel:
    """Rooted tree whose node heights set the hop rates e^(-height).

    `TreeModel(parent, height)` takes the nodes numbered in depth-first
    pre-order, so the root is node 0 and every subtree is a contiguous run
    of indices after its root: `parent[v]` (-1 at the root) and `height[v]`.
    It adds `leaf_counts[v]` (the leaves under v) and `leaves`: leaves are
    numbered 1..N in that order and `leaves[k - 1]` is the node of leaf k.
    Heights are nonnegative and fall strictly from parent to child, so hop
    rates fall with the size of the jump.
    """

    parent: np.ndarray
    height: np.ndarray
    leaf_counts: np.ndarray
    leaves: np.ndarray

    def __init__(self, parent, height) -> None:
        up = np.asarray(parent)
        height = np.asarray(height, dtype=float)
        if up.ndim != 1 or up.dtype.kind not in "iu":
            raise ValueError(
                f"parent must be a vector of integer indices, got {up.dtype} of shape {up.shape}"
            )
        if height.shape != up.shape:
            raise ValueError(f"parent has {up.size} nodes but height has {height.size}")
        node = np.arange(up.size)
        if up.size == 0 or up[0] != -1 or not np.all((up[1:] >= 0) & (up[1:] < node[1:])):
            raise ValueError("parent[0] must be -1 and 0 <= parent[v] < v for every other node")
        # Children follow their parent: one reverse pass sizes every subtree.
        size = [1] * up.size
        links = up.tolist()
        for v in range(up.size - 1, 0, -1):
            size[links[v]] += size[v]
        size = np.array(size)
        end = node + size
        # Pre-order holds when each subtree [v, end[v]) lies inside its parent's.
        if not np.all(end[1:] <= end[up[1:]]):
            raise ValueError("nodes must be numbered in depth-first pre-order")
        # Name the fault of the first bad node in pre-order, testing its
        # height against its parent's before its sign.
        below = np.append(True, height[1:] < height[up[1:]])
        bad = np.flatnonzero(~(below & (height >= 0)))
        if bad.size:
            v = bad[0]
            if below[v]:
                raise ValueError("node heights must be nonnegative")
            raise ValueError(
                f"child height {height[v].item()!r} must be below parent {height[up[v]].item()!r}"
            )
        is_leaf = size == 1
        before = np.concatenate([[0], np.cumsum(is_leaf)])   # leaves before index i
        object.__setattr__(self, "parent", _readonly(up, dtype=int))
        object.__setattr__(self, "height", _readonly(height))
        object.__setattr__(self, "leaf_counts", _readonly(before[end] - before[node], dtype=int))
        object.__setattr__(self, "leaves", _readonly(np.flatnonzero(is_leaf), dtype=int))

    @property
    def n_leaves(self) -> int:
        return int(self.leaves.size)


def tree_autocorrelation(tree: TreeModel, leaf: int, t) -> np.ndarray | float:
    """Return probability of leaf `leaf` (1-based) under tree diffusion.

    Every ancestor A_n on the leaf-to-root path contributes one relaxation
    mode with weight 1/N_{n-1} - 1/N_n (leaf counts along the path, N_0 = 1)
    and rate

        1/tau_n = N_n * e^(-h_n) + sum_{i>n} (N_i - N_{i-1}) * e^(-h_i),

    where the sum runs over the strictly higher ancestors on the same path.
    The value starts at 1 and decays to 1/N.
    """
    leaf = _check_index(leaf, tree.n_leaves, "leaf")
    times = _check_times(t)
    path = [int(tree.leaves[leaf - 1])]
    while path[-1]:                                # the root is node 0
        path.append(int(tree.parent[path[-1]]))
    counts = tree.leaf_counts[path].astype(float)
    return _path_modes(counts, _path_rates(counts, np.exp(-tree.height[path[1:]])), times)


def caterpillar_tree(n: int, mu: float) -> TreeModel:
    """Tree encoding of uniform_chain(n): leaves i < j join at height mu*(j-1).

    Pre-order puts the spine first, from the root (level n) down to level 2,
    then leaves 1 and 2 under level 2 and leaf j >= 3 under level j.
    Needs mu > 0 so heights increase strictly along every path.
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("a chain encoding needs at least 2 leaves")
    if not mu > 0:
        raise ValueError("mu must be positive for strictly increasing heights")
    levels = np.arange(n, 1, -1)                   # spine node s is level n - s
    parent = np.concatenate([np.arange(-1, n - 2), [n - 2], n - np.arange(2, n + 1)])
    # A root height past the float range is inf, whose rate is the exact 0;
    # any lower level there would tie with the root.
    with np.errstate(over="ignore"):
        height = np.concatenate([mu * (levels - 1.0), np.zeros(n)])
    if height[1] == np.inf:
        raise ValueError(f"mu={mu!r} overflows the heights mu*(k-1) of levels below the root")
    return TreeModel(parent, height)


def space_from_tree(tree: TreeModel) -> UltrametricSpace:
    """Leaf space of a tree with d(x, y) = height of the lowest common ancestor."""
    n = tree.n_leaves
    # Node v's leaves sit at positions start[v] .. start[v] + counts[v] - 1.
    start = np.searchsorted(tree.leaves, np.arange(tree.parent.size)).tolist()
    counts = tree.leaf_counts.tolist()
    height = tree.height.tolist()
    dist = np.zeros((n, n))
    # A pair meets at the parent of the child that holds its first leaf; its
    # entry below the diagonal lies in a block of row segments.
    for v, up in enumerate(tree.parent.tolist()[1:], start=1):
        lo, mid = start[v], start[v] + counts[v]
        hi = start[up] + counts[up]
        dist[mid:hi, lo:mid] = height[up]
    # Mirror the lower triangle a tile at a time: above the diagonal every
    # entry is 0, so a diagonal tile plus its transpose is the tile mirrored.
    for top in range(0, n, _TILE):
        rows = slice(top, top + _TILE)
        for left in range(0, top, _TILE):
            dist[left : left + _TILE, rows] = dist[rows, left : left + _TILE].T
        tile = dist[rows, rows]
        tile += tile.T
    # Every pair is filled on both sides, off the diagonal, with the height
    # of an internal node, which `TreeModel` holds above its child's, >= 0:
    # the matrix is symmetric, zero on the diagonal and positive off it.
    return _unchecked(UltrametricSpace, labels=np.arange(1, n + 1, dtype=float), dist=dist)
