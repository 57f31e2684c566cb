"""Closed-form relaxation of ultrametric diffusion.

For the unit-spaced chain of t_N states the generator diagonalizes exactly:
lambda(1) = 0 and, for 1 < j <= t_N,

    lambda(j) = -((j-1)*e^(-mu*(j-1)) + sum_{i=j..t_N} e^(-mu*(i-1))),

with orthonormal eigenvectors V(1) = (1, ..., 1)/sqrt(t_N) and, for j > 1,
V_i(j) = 1/sqrt((j-1)*j) when i < j, V_j(j) = -sqrt((j-1)/j), zero below.
The return probability of state i started in i is then a sum of decaying
exponentials weighted by V_i(j)^2, which is a hierarchy of time scales rather
than a single rate. The same structure holds on any rooted tree with
level-dependent hop rates e^(-h): each node on the leaf-to-root path
contributes one mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .traces import _readonly
from .ultrametric import UltrametricSpace

__all__ = [
    "ChainSpectrum",
    "TreeModel",
    "TreeNode",
    "autocorrelation_chain",
    "caterpillar_tree",
    "chain_spectrum",
    "expected_rebroadcasts",
    "space_from_tree",
    "survival_probability",
    "tree_autocorrelation",
]


def _check_times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    return times


@dataclass(frozen=True)
class ChainSpectrum:
    """Closed-form eigensystem of the unit-spaced chain."""

    t_N: int
    mu: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))
        n = self.t_N
        if self.eigenvalues.shape != (n,) or self.eigenvectors.shape != (n, n):
            raise ValueError("eigensystem shape does not match t_N")


def chain_spectrum(t_N: int, mu: float) -> ChainSpectrum:
    """Exact spectrum of the generator over uniform_chain(t_N) at decay mu."""
    if t_N < 2:
        raise ValueError("t_N must be at least 2")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    n = t_N
    hop = np.exp(-mu * np.arange(n))        # hop[k] = e^(-mu*k)
    tails = np.cumsum(hop[::-1])[::-1]      # tails[k] = sum_{i>=k} hop[i]
    lam = np.zeros(n)
    j = np.arange(2, n + 1)
    lam[1:] = -((j - 1) * hop[j - 1] + tails[j - 1])
    vec = np.zeros((n, n))
    vec[:, 0] = 1.0 / np.sqrt(n)
    for col in j:
        vec[: col - 1, col - 1] = 1.0 / np.sqrt((col - 1) * col)
        vec[col - 1, col - 1] = -np.sqrt((col - 1) / col)
    return ChainSpectrum(t_N=n, mu=float(mu), eigenvalues=lam, eigenvectors=vec)


def autocorrelation_chain(spectrum: ChainSpectrum, i: int, t) -> np.ndarray | float:
    """Probability of finding state i again at time t, having started there.

    States are numbered 1..t_N. The value is 1 at t = 0 and decays to 1/t_N.
    """
    if not 1 <= i <= spectrum.t_N:
        raise ValueError(f"state index {i} outside 1..{spectrum.t_N}")
    times = _check_times(t)
    weights = spectrum.eigenvectors[i - 1] ** 2
    out = np.exp(np.multiply.outer(times, spectrum.eigenvalues)) @ weights
    return out if times.ndim else float(out)


def survival_probability(t_N: int, mu: float, t) -> np.ndarray | float:
    """Probability that no rebroadcast has occurred by time t.

    Single-mode closed form for the chain's last state:
    ((t_N-1)/t_N) * e^(-t * t_N * e^(-mu*(t_N-1))) + 1/t_N.
    """
    if t_N < 2:
        raise ValueError("t_N must be at least 2")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    times = _check_times(t)
    rate = t_N * np.exp(-mu * (t_N - 1))
    out = ((t_N - 1) / t_N) * np.exp(-times * rate) + 1.0 / t_N
    return out if times.ndim else float(out)


def expected_rebroadcasts(params, t) -> np.ndarray | float:
    """Expected cumulative rebroadcast count M*(1 - survival) at time t."""
    times = _check_times(t)
    out = params.M * (1.0 - survival_probability(params.t_N, params.mu, times))
    return out if times.ndim else float(out)


@dataclass(frozen=True)
class TreeNode:
    """One node of a rooted hierarchy; leaves have no children."""

    height: float
    children: tuple["TreeNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class TreeModel:
    """Rooted tree whose node heights set the hop rates e^(-height).

    Heights must increase strictly from every child to its parent and be
    nonnegative, so hop rates fall with the size of the jump. Leaves are
    numbered 1..N in depth-first order.
    """

    root: TreeNode
    _leaves: tuple[TreeNode, ...] = field(init=False, repr=False)
    _parent: dict[int, TreeNode] = field(init=False, repr=False)
    _leaf_counts: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        leaves: list[TreeNode] = []
        parent: dict[int, TreeNode] = {}
        preorder: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            preorder.append(node)
            if node.height < 0:
                raise ValueError("node heights must be nonnegative")
            if node.is_leaf:
                leaves.append(node)
                continue
            for child in node.children:
                if child.height >= node.height:
                    raise ValueError(
                        f"child height {child.height!r} must be below parent {node.height!r}"
                    )
                if id(child) in parent:
                    raise ValueError("a node may appear only once in the tree")
                parent[id(child)] = node
            stack.extend(reversed(node.children))
        # Children follow their parent in pre-order, so a reverse pass counts
        # every subtree's leaves once.
        counts: dict[int, int] = {}
        for node in reversed(preorder):
            counts[id(node)] = sum(counts[id(c)] for c in node.children) if node.children else 1
        object.__setattr__(self, "_leaves", tuple(leaves))
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_leaf_counts", counts)

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def leaf(self, index: int) -> TreeNode:
        """Leaf by 1-based depth-first index."""
        if not 1 <= index <= self.n_leaves:
            raise ValueError(f"leaf index {index} outside 1..{self.n_leaves}")
        return self._leaves[index - 1]

    def path_to_root(self, node: TreeNode) -> list[TreeNode]:
        """Ancestors of `node`, nearest first, ending at the root."""
        path = []
        current = node
        while id(current) in self._parent:
            current = self._parent[id(current)]
            path.append(current)
        return path

    def leaf_count(self, node: TreeNode) -> int:
        """Leaves under `node`, stored for tree nodes and counted for others."""
        if id(node) in self._leaf_counts:
            return self._leaf_counts[id(node)]
        count = 0
        stack = [node]
        while stack:
            item = stack.pop()
            if item.is_leaf:
                count += 1
            else:
                stack.extend(item.children)
        return count


def tree_autocorrelation(tree: TreeModel, leaf: int, t) -> np.ndarray | float:
    """Return probability of leaf `leaf` (1-based) under tree diffusion.

    Every ancestor A_n on the leaf-to-root path contributes one relaxation
    mode with weight 1/N_{n-1} - 1/N_n (leaf counts along the path, N_0 = 1)
    and rate

        1/tau_n = N_n * e^(-h_n) + sum_{i>n} (N_i - N_{i-1}) * e^(-h_i),

    where the sum runs over the strictly higher ancestors on the same path.
    The value starts at 1 and decays to 1/N.
    """
    times = _check_times(t)
    node = tree.leaf(leaf)
    path = tree.path_to_root(node)
    total = tree.n_leaves
    counts = np.array([1] + [tree.leaf_count(anc) for anc in path], dtype=float)
    heights = np.array([anc.height for anc in path], dtype=float)
    hop = np.exp(-heights)
    growth = (counts[1:] - counts[:-1]) * hop      # (N_i - N_{i-1}) e^(-h_i)
    above = np.concatenate([np.cumsum(growth[::-1])[::-1][1:], [0.0]])
    rates = counts[1:] * hop + above
    weights = 1.0 / counts[:-1] - 1.0 / counts[1:]
    out = np.exp(np.multiply.outer(times, -rates)) @ weights + 1.0 / total
    return out if times.ndim else float(out)


def caterpillar_tree(n: int, mu: float) -> TreeModel:
    """Tree encoding of uniform_chain(n): leaves i < j join at height mu*(j-1).

    Needs mu > 0 so heights increase strictly along every path.
    """
    if n < 2:
        raise ValueError("a chain encoding needs at least 2 leaves")
    if mu <= 0:
        raise ValueError("mu must be positive for strictly increasing heights")
    node = TreeNode(height=0.0)
    for j in range(2, n + 1):
        node = TreeNode(height=mu * (j - 1), children=(node, TreeNode(height=0.0)))
    return TreeModel(root=node)


def space_from_tree(tree: TreeModel) -> UltrametricSpace:
    """Leaf space of a tree with d(x, y) = height of the lowest common ancestor."""
    n = tree.n_leaves
    dist = np.zeros((n, n))

    def fill(node: TreeNode, offset: int) -> int:
        if node.is_leaf:
            return offset + 1
        bounds = [offset]
        for child in node.children:
            bounds.append(fill(child, bounds[-1]))
        for a in range(len(node.children)):
            for b in range(a + 1, len(node.children)):
                dist[bounds[a]:bounds[a + 1], bounds[b]:bounds[b + 1]] = node.height
                dist[bounds[b]:bounds[b + 1], bounds[a]:bounds[a + 1]] = node.height
        return bounds[-1]

    fill(tree.root, 0)
    return UltrametricSpace(
        labels=np.arange(1, n + 1, dtype=float),
        horizon=float(tree.root.height),
        dist=dist,
        multiplicity=np.ones(n, dtype=int),
    )
