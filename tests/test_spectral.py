"""Closed-form spectra, relaxation curves, and tree solutions."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from ultradiffusion.generator import build_generator
from ultradiffusion.oracle import numeric_spectrum
from ultradiffusion.spectral import (
    _BLOCK_ENTRIES,
    _mode_sum,
    ChainSpectrum,
    TreeModel,
    autocorrelation_chain,
    caterpillar_tree,
    chain_spectrum,
    space_from_tree,
    survival_probability,
    tree_autocorrelation,
)
from ultradiffusion.ultrametric import uniform_chain


def star_tree(n, height):
    return TreeModel([-1] + [0] * n, [height] + [0.0] * n)


def binary_tree(depth):
    """Complete binary tree with unit level spacing, numbered in pre-order."""
    parent, height = [], []
    stack = [(-1, depth)]
    while stack:
        up, h = stack.pop()
        parent.append(up)
        height.append(float(h))
        if h:
            stack += [(len(parent) - 1, h - 1)] * 2
    return TreeModel(parent, height)


def is_pre_order(parent):
    """True when an iterative depth-first walk, children in index order,
    visits the nodes as 0, 1, ..., n-1."""
    children = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order == list(range(len(parent)))


def path_to_root(tree, leaf):
    """Node indices from leaf `leaf` (1-based) up to the root."""
    path = [int(tree.leaves[leaf - 1])]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    return path


def dense_chain_vectors(n):
    """The chain's eigenvectors filled column by column, as the closed form reads."""
    vec = np.zeros((n, n))
    vec[:, 0] = 1.0 / np.sqrt(n)
    for col in range(2, n + 1):
        vec[: col - 1, col - 1] = 1.0 / np.sqrt((col - 1) * col)
        vec[col - 1, col - 1] = -np.sqrt((col - 1) / col)
    return vec


def dense_autocorrelation(spectrum, i, t):
    """Return probability through the full eigenvector row of state i."""
    weights = dense_chain_vectors(spectrum.t_N)[i - 1] ** 2
    return np.exp(np.multiply.outer(np.asarray(t, dtype=float), spectrum.eigenvalues)) @ weights


def random_trees(st):
    """Pre-order trees of 1-12 nodes; heights rise strictly toward the root.

    Each node after the root hangs under some node on the path from the root
    to its predecessor, which is exactly the set of pre-order-valid parents.
    """

    @st.composite
    def trees(draw):
        n = draw(st.integers(1, 12))
        parent, spine = [-1], [0]
        for v in range(1, n):
            depth = draw(st.integers(0, len(spine) - 1))
            parent.append(spine[depth])
            spine = spine[: depth + 1] + [v]
        step = st.floats(0.05, 2.0)
        height = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
        for v in range(n - 1, 0, -1):
            up = parent[v]
            height[up] = max(height[up], height[v] + draw(step))
        return parent, height

    return trees()


class TestChainSpectrum:
    def test_three_states_without_decay(self):
        spectrum = chain_spectrum(3, mu=0.0)
        np.testing.assert_allclose(sorted(spectrum.eigenvalues), [-3.0, -3.0, 0.0])

    def test_two_states_at_mu_log2(self):
        spectrum = chain_spectrum(2, mu=math.log(2.0))
        assert spectrum.eigenvalues[1] == pytest.approx(-1.0)

    def test_a_decay_past_the_float_range_gives_the_zero_rates_quietly(self):
        # e^(-mu*(k-1)) is 0 once mu*(k-1) passes 745, and stays 0 past the
        # largest float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = chain_spectrum(5, mu=1e308)
            # Its -0.0 eigenvalues pass the checked constructor too.
            checked = ChainSpectrum(spectrum.eigenvalues)
        assert np.signbit(spectrum.eigenvalues[1:]).all()
        assert checked.eigenvalues.tobytes() == spectrum.eigenvalues.tobytes()
        assert spectrum.eigenvalues.tobytes() == chain_spectrum(5, mu=1000.0).eigenvalues.tobytes()

    def test_first_eigenvalue_is_always_zero(self):
        for t_N in (2, 7, 30):
            assert chain_spectrum(t_N, mu=0.5).eigenvalues[0] == 0.0

    def test_first_column_is_uniform(self):
        spectrum = chain_spectrum(9, mu=0.4)
        np.testing.assert_allclose(
            spectrum.eigenvectors[:, 0], np.full(9, 1.0 / 3.0)
        )

    def test_columns_are_orthonormal(self):
        vec = chain_spectrum(25, mu=0.7).eigenvectors
        np.testing.assert_allclose(vec.T @ vec, np.eye(25), atol=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("t_N", [2, 5, 17, 40])
    def test_eigenpairs_satisfy_the_generator(self, t_N, mu):
        spectrum = chain_spectrum(t_N, mu)
        rates = build_generator(uniform_chain(t_N), mu).rates
        residual = rates @ spectrum.eigenvectors - spectrum.eigenvectors * spectrum.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(rates))

    def test_matches_dense_symmetric_eigensolver(self):
        spectrum = chain_spectrum(20, mu=0.3)
        rates = build_generator(uniform_chain(20), mu=0.3).rates
        numeric = np.linalg.eigh(rates)[0]
        scale = np.max(np.abs(numeric))
        np.testing.assert_allclose(
            np.sort(spectrum.eigenvalues), numeric, atol=1e-9 * scale
        )

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="at least 2"):
            chain_spectrum(1, mu=0.0)

    @pytest.mark.parametrize("mu", [-0.1, math.nan])
    def test_rejects_negative_or_nan_mu(self, mu):
        with pytest.raises(ValueError, match="nonnegative"):
            chain_spectrum(4, mu)

    @pytest.mark.parametrize("t_N", [2, 3, 17, 40])
    def test_eigenvectors_match_the_column_by_column_fill(self, t_N):
        vec = chain_spectrum(t_N, mu=0.2).eigenvectors
        np.testing.assert_array_equal(vec, dense_chain_vectors(t_N))

    def test_stores_no_dense_matrix(self):
        spectrum = chain_spectrum(10**4, mu=0.1)
        assert [f.name for f in dataclasses.fields(spectrum)] == ["eigenvalues"]
        assert spectrum.eigenvalues.nbytes == 8 * 10**4
        assert spectrum.t_N == 10**4

    @pytest.mark.parametrize(
        "eigenvalues, message",
        [
            ([], "a chain needs at least 2 eigenvalues, got 0"),
            ([0.0], "a chain needs at least 2 eigenvalues, got 1"),
            ([1.0, -1.0], "the first eigenvalue must be 0, got 1.0"),
            ([math.nan, -1.0], "the first eigenvalue must be 0, got nan"),
            ([0.0, math.nan], "eigenvalues after the first must be finite and at most 0"),
            ([0.0, 1.0], "eigenvalues after the first must be finite and at most 0"),
            ([0.0, -1.0, -math.inf], "eigenvalues after the first must be finite and at most 0"),
        ],
        ids=["empty", "one-state", "first-positive", "first-nan", "nan", "positive", "minus-inf"],
    )
    def test_refuses_a_spectrum_no_chain_has(self, eigenvalues, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                ChainSpectrum(eigenvalues=eigenvalues)
        assert str(caught.value) == message

    def test_rejects_eigenvalues_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match="^eigenvalues must be one-dimensional$"):
            ChainSpectrum(eigenvalues=np.zeros((2, 2)))


class TestAutocorrelationChain:
    def test_equals_one_at_time_zero(self):
        spectrum = chain_spectrum(7, mu=0.2)
        for i in range(1, 8):
            assert autocorrelation_chain(spectrum, i, 0.0) == pytest.approx(1.0)

    def test_long_time_limit_is_uniform(self):
        spectrum = chain_spectrum(2, mu=0.0)
        assert autocorrelation_chain(spectrum, 2, 1e6) == pytest.approx(0.5)

    def test_rejects_out_of_range_state(self):
        spectrum = chain_spectrum(4, mu=0.1)
        with pytest.raises(ValueError, match="outside"):
            autocorrelation_chain(spectrum, 5, 1.0)

    def test_rejects_negative_time(self):
        spectrum = chain_spectrum(4, mu=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            autocorrelation_chain(spectrum, 1, -1.0)

    @pytest.mark.parametrize("t", [math.nan, [0.0, math.nan]])
    def test_rejects_nan_time(self, t):
        spectrum = chain_spectrum(4, mu=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            autocorrelation_chain(spectrum, 1, t)

    @pytest.mark.parametrize("state", [2.0, np.float64(2.0), True, np.True_, "2", None])
    def test_rejects_non_integer_state(self, state):
        spectrum = chain_spectrum(4, mu=0.1)
        with pytest.raises(ValueError, match="must be an integer"):
            autocorrelation_chain(spectrum, state, 1.0)

    def test_accepts_numpy_integer_state(self):
        spectrum = chain_spectrum(4, mu=0.1)
        assert autocorrelation_chain(spectrum, np.int64(3), 1.0) == autocorrelation_chain(
            spectrum, 3, 1.0
        )

    def test_matches_the_dense_eigenvector_route(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(
            st.integers(2, 40),
            st.floats(0.0, 5.0),
            st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
        )
        def check(t_N, mu, times):
            spectrum = chain_spectrum(t_N, mu)
            for i in range(1, t_N + 1):
                np.testing.assert_allclose(
                    autocorrelation_chain(spectrum, i, times),
                    dense_autocorrelation(spectrum, i, times),
                    rtol=0,
                    atol=1e-12,
                )

        check()

    def test_nonincreasing_and_convex_on_a_grid(self):
        spectrum = chain_spectrum(12, mu=0.4)
        grid = np.linspace(0.0, 5.0, 200)
        for i in (1, 6, 12):
            values = autocorrelation_chain(spectrum, i, grid)
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all(np.diff(values, 2) >= -1e-12)

    def test_vector_and_scalar_evaluation_agree(self):
        spectrum = chain_spectrum(6, mu=0.3)
        grid = np.array([0.0, 0.5, 2.0])
        values = autocorrelation_chain(spectrum, 3, grid)
        for k, t in enumerate(grid):
            scalar = autocorrelation_chain(spectrum, 3, float(t))
            assert scalar == pytest.approx(values[k], rel=1e-14)


class TestSurvivalProbability:
    def test_equals_one_at_time_zero(self):
        for t_N, mu in [(2, 0.0), (10, 1.0), (50, 0.2)]:
            assert survival_probability(t_N, mu, 0.0) == pytest.approx(1.0)

    def test_long_time_limit(self):
        assert survival_probability(2, 0.0, 1e9) == pytest.approx(0.5)

    def test_is_the_last_state_autocorrelation(self):
        value = survival_probability(10, 1.0, 100.0)
        reference = autocorrelation_chain(chain_spectrum(10, 1.0), 10, 100.0)
        assert value == pytest.approx(reference, abs=1e-12)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="at least 2"):
            survival_probability(1, 0.0, 1.0)

    def test_rejects_a_chain_longer_than_the_largest_float(self):
        # As `UltradiffusionParams` refuses it; `float()` cannot convert
        # 10**400 at all.
        biggest = int(sys.float_info.max)
        assert survival_probability(biggest, 0.1, 1.0) == pytest.approx(1.0)
        for t_N in (biggest + 1, 10**400):
            for call in (lambda: chain_spectrum(t_N, 0.1), lambda: survival_probability(t_N, 0.1, 1.0)):
                with pytest.raises(ValueError, match=r"^t_N must be at most 1\.79769e\+308$"):
                    call()

    @pytest.mark.parametrize("mu, t", [(math.nan, 1.0), (-1.0, 1.0), (0.1, math.nan)])
    def test_rejects_negative_or_nan_inputs(self, mu, t):
        with pytest.raises(ValueError, match="nonnegative"):
            survival_probability(4, mu, t)


class TestTreeAutocorrelation:
    def test_star_tree_matches_single_mode_closed_form(self):
        n, height = 12, 1.5
        tree = star_tree(n, height)
        grid = np.linspace(0.0, 10.0, 40)
        values = tree_autocorrelation(tree, 1, grid)
        expected = 1.0 / n + (1.0 - 1.0 / n) * np.exp(-grid * n * math.exp(-height))
        np.testing.assert_allclose(values, expected, atol=1e-14)

    def test_equals_one_at_time_zero(self):
        tree = binary_tree(3)
        for leaf in (1, 4, 8):
            assert tree_autocorrelation(tree, leaf, 0.0) == pytest.approx(1.0)

    def test_caterpillar_tree_reproduces_chain_for_every_leaf(self):
        n, mu = 8, 0.35
        tree = caterpillar_tree(n, mu)
        spectrum = chain_spectrum(n, mu)
        grid = np.linspace(0.0, 6.0, 25)
        # The spine is the left child at every level, so depth-first order
        # puts chain state i at leaf i.
        for state in range(1, n + 1):
            chain_values = autocorrelation_chain(spectrum, state, grid)
            leaf_values = tree_autocorrelation(tree, state, grid)
            np.testing.assert_allclose(leaf_values, chain_values, atol=1e-12)

    def test_late_decay_to_uniform_is_a_single_exponential(self):
        tree = binary_tree(3)
        n = tree.n_leaves
        grid = np.linspace(10.0, 40.0, 60)
        residual = tree_autocorrelation(tree, 1, grid) - 1.0 / n
        logs = np.log(residual)
        slope, intercept = np.polyfit(grid, logs, 1)
        predicted = slope * grid + intercept
        ss_res = np.sum((logs - predicted) ** 2)
        ss_tot = np.sum((logs - logs.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.999

    def test_rejects_out_of_range_leaf(self):
        with pytest.raises(ValueError, match="leaf index"):
            tree_autocorrelation(star_tree(3, 1.0), 4, 1.0)

    @pytest.mark.parametrize("leaf", [1.0, np.float64(1.0), True, np.True_])
    def test_rejects_non_integer_leaf(self, leaf):
        with pytest.raises(ValueError, match="leaf index must be an integer"):
            tree_autocorrelation(star_tree(3, 1.0), leaf, 1.0)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tree_autocorrelation(binary_tree(2), 1, [0.0, math.nan])

    def test_matches_the_dense_spectrum_on_random_trees(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(random_trees(st), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6))
        def check(arrays, times):
            parent, height = arrays
            tree = TreeModel(parent, height)
            np.testing.assert_array_equal(tree.parent, parent)
            np.testing.assert_array_equal(tree.height, height)
            hypothesis.assume(tree.n_leaves >= 2)
            w, v = numeric_spectrum(build_generator(space_from_tree(tree), 1.0))
            modes = np.exp(np.multiply.outer(np.asarray(times), w))
            for leaf in range(1, tree.n_leaves + 1):
                np.testing.assert_allclose(
                    tree_autocorrelation(tree, leaf, times),
                    modes @ v[leaf - 1] ** 2,
                    rtol=0,
                    atol=1e-9,
                )

        check()


class TestTreeModel:
    def test_rejects_child_at_or_above_parent_height(self):
        with pytest.raises(ValueError, match=r"child height 1\.0 must be below parent 1\.0"):
            TreeModel([-1, 0], [1.0, 1.0])

    def test_rejects_negative_heights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TreeModel([-1], [-1.0])

    def test_accepts_exactly_the_depth_first_pre_orders(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def parents(draw):
            n = draw(st.integers(1, 12))
            return [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(parents())
        def check(parent):
            # Valid heights, so only the numbering can be refused.
            height = [0.0] * len(parent)
            for v in range(len(parent) - 1, 0, -1):
                height[parent[v]] = max(height[parent[v]], height[v] + 1.0)
            try:
                tree = TreeModel(parent, height)
            except ValueError as err:
                assert "pre-order" in str(err)
                assert not is_pre_order(parent)
            else:
                assert is_pre_order(parent)
                assert tree.leaf_counts[0] == tree.n_leaves

        check()

    @pytest.mark.parametrize(
        "parent, height, message",
        [
            ([0, 0], [1.0, 0.0], r"parent\[0\] must be -1"),
            ([-1, 1], [1.0, 0.0], r"0 <= parent\[v\] < v"),
            ([-1, 0, 3, 0], [2.0, 1.0, 0.0, 0.0], r"0 <= parent\[v\] < v"),
            ([-1, -1], [1.0, 0.0], r"0 <= parent\[v\] < v"),
            (np.array([], dtype=int), [], r"parent\[0\] must be -1"),
            ([-1, 0], [1.0], "2 nodes but height has 1"),
            ([-1, 0, 0], [1.0, 0.0], "3 nodes but height has 2"),
            ([-1.0, 0.0], [1.0, 0.0], "integer indices"),
            ([-1, 0.5], [1.0, 0.0], "integer indices"),
            ([[-1, 0]], [[1.0, 0.0]], "integer indices"),
            ([-1, 0, 0, 1], [2.0, 1.0, 0.0, 0.0], "pre-order"),
        ],
    )
    def test_rejects_malformed_parent_arrays(self, parent, height, message):
        with pytest.raises(ValueError, match=message):
            TreeModel(parent, height)

    def test_counts_leaves(self):
        assert binary_tree(3).n_leaves == 8
        assert star_tree(5, 1.0).n_leaves == 5

    def test_leaf_count_of_every_subtree(self):
        tree = binary_tree(3)
        np.testing.assert_array_equal(
            tree.parent, [-1, 0, 1, 2, 2, 1, 5, 5, 0, 8, 9, 9, 8, 12, 12]
        )
        np.testing.assert_array_equal(
            tree.leaf_counts, [8, 4, 2, 1, 1, 2, 1, 1, 4, 2, 1, 1, 2, 1, 1]
        )
        np.testing.assert_array_equal(tree.leaves, [3, 4, 6, 7, 10, 11, 13, 14])
        assert [tree.leaf_counts[v] for v in path_to_root(tree, 1)] == [1, 2, 4, 8]
        tree = caterpillar_tree(50, 0.1)
        assert [tree.leaf_counts[v] for v in path_to_root(tree, 1)] == list(range(1, 51))

    def test_caterpillar_arrays_are_the_spine_first_pre_order(self):
        # Spine: levels 4, 3, 2 (nodes 0-2); leaves 1 and 2 under level 2,
        # then leaf 3 under level 3 and leaf 4 under the root.
        tree = caterpillar_tree(4, 0.5)
        np.testing.assert_array_equal(tree.parent, [-1, 0, 1, 2, 2, 1, 0])
        np.testing.assert_array_equal(tree.height, [1.5, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(tree.leaf_counts, [4, 3, 2, 1, 1, 1, 1])
        np.testing.assert_array_equal(tree.leaves, [3, 4, 5, 6])

    def test_arrays_are_read_only(self):
        parent, height = np.array([-1, 0, 0]), np.array([1.0, 0.0, 0.0])
        tree = TreeModel(parent, height)
        parent[1], height[0] = 5, 5.0
        np.testing.assert_array_equal(tree.parent, [-1, 0, 0])
        assert tree.height[0] == 1.0
        for values in (tree.parent, tree.height, tree.leaf_counts, tree.leaves):
            assert not values.flags.writeable

    def test_single_node_tree(self):
        tree = TreeModel([-1], [0.0])
        assert tree.n_leaves == 1
        assert tree_autocorrelation(tree, 1, 5.0) == 1.0

    def test_rejects_nan_heights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TreeModel([-1, 0], [math.nan, 0.0])
        with pytest.raises(ValueError, match="below parent"):
            TreeModel([-1, 0], [1.0, math.nan])


class TestSpaceFromTree:
    def test_star_space_has_constant_distances(self):
        space = space_from_tree(star_tree(4, 2.5))
        off = space.dist[~np.eye(4, dtype=bool)]
        np.testing.assert_array_equal(off, np.full(12, 2.5))

    def test_caterpillar_space_is_the_scaled_chain(self):
        n, mu = 6, 0.4
        space = space_from_tree(caterpillar_tree(n, mu))
        chain = uniform_chain(n)
        np.testing.assert_allclose(space.dist, mu * chain.dist)

    def test_caterpillar_requires_positive_mu(self):
        with pytest.raises(ValueError, match="positive"):
            caterpillar_tree(4, 0.0)

    def test_caterpillar_rejects_nan_mu(self):
        with pytest.raises(ValueError, match="positive"):
            caterpillar_tree(4, math.nan)

    def test_caterpillar_heights_past_the_float_range(self):
        # A root height past the largest float is inf, quietly; a lower
        # level there is refused by name, not as a tie with the root.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert caterpillar_tree(3, 1e308).height.tolist() == [math.inf, 1e308, 0, 0, 0]
            with pytest.raises(ValueError) as refusal:
                caterpillar_tree(5, 1e308)
        assert str(refusal.value) == (
            "mu=1e+308 overflows the heights mu*(k-1) of levels below the root"
        )

    def test_distances_of_a_deep_caterpillar_match_the_chain_row_by_row(self):
        n, mu = 2000, 0.1
        space = space_from_tree(caterpillar_tree(n, mu))
        chain = uniform_chain(n)
        assert space.size == n
        for row, expected in zip(space.dist, chain.dist):
            np.testing.assert_array_equal(row, mu * expected)


def random_tree_with_leaves(leaves, seed):
    """A random pre-order tree with `leaves` leaves: each node splits its
    leaves among 1-4 children, so unary nodes and chains occur too, and
    each child's height is a random fraction of its parent's."""
    rng = np.random.default_rng(seed)
    parent, height = [], []
    stack = [(-1, leaves, 1.0)]
    while stack:
        up, count, h = stack.pop()
        parent.append(up)
        height.append(h)
        if count == 1 and rng.random() < 0.7:
            continue
        parts = int(rng.integers(1, min(count, 4) + 1))
        cuts = np.sort(rng.choice(np.arange(1, count), parts - 1, replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [count]]))
        # Popped last-in first-out: pushing in reverse keeps pre-order.
        stack += [(len(parent) - 1, int(c), h * rng.uniform(0.2, 0.9)) for c in sizes[::-1]]
    return TreeModel(parent, height)


def lowest_common_ancestor_heights(tree):
    """d(x, y) for every pair of leaves: the height of the lowest node that
    is an ancestor of both, i.e. the lowest-height common ancestor."""
    above = np.zeros((tree.n_leaves, tree.parent.size), dtype=bool)
    for row, leaf in enumerate(tree.leaves.tolist()):
        v = leaf
        while v >= 0:
            above[row, v] = True
            v = int(tree.parent[v])
    dist = np.array(
        [np.where(mine & above, tree.height, np.inf).min(axis=1) for mine in above]
    )
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize("leaves", [1, 2, 127, 128, 129, 257])
def test_space_from_tree_is_the_lowest_common_ancestor_height(leaves):
    # Leaf counts on both sides of the tiles in which the lower triangle is
    # mirrored. A caterpillar needs two leaves; its one-leaf case is the
    # lone root.
    caterpillar = caterpillar_tree(leaves, 0.1) if leaves > 1 else TreeModel([-1], [0.0])
    for tree in (caterpillar, *(random_tree_with_leaves(leaves, seed) for seed in range(3))):
        assert tree.n_leaves == leaves
        space = space_from_tree(tree)
        assert np.array_equal(space.dist, lowest_common_ancestor_heights(tree))


class TestDeepCaterpillar:
    """A caterpillar 10^4 levels deep: nothing may recurse once per level."""

    n, mu = 10**4, 1e-3

    def test_builds_and_prints(self):
        tree = caterpillar_tree(self.n, self.mu)
        assert tree.n_leaves == self.n
        assert tree.parent.size == 2 * self.n - 1
        assert repr(tree).startswith("TreeModel(")
        hash(tree)

    def test_end_leaves_match_the_chain(self):
        tree = caterpillar_tree(self.n, self.mu)
        spectrum = chain_spectrum(self.n, self.mu)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 31)])
        for leaf in (1, self.n):
            np.testing.assert_allclose(
                tree_autocorrelation(tree, leaf, times),
                autocorrelation_chain(spectrum, leaf, times),
                rtol=0,
                atol=1e-12,
            )


def test_space_from_tree_peak_memory_stays_below_two_matrices(peak_rise):
    # The leaf space of a 2000-level caterpillar holds one 32 MB matrix; it
    # is filled in place and handed to UltrametricSpace without a copy. That
    # raises the peak by about 1.13 matrices (the rest is the space's boolean
    # checks); a second, read-only copy of the matrix reads 1.8-2.1.
    size, nbytes, rise = peak_rise(
        "from ultradiffusion.spectral import caterpillar_tree, space_from_tree\n"
        "tree = caterpillar_tree(2000, 0.1)",
        "space = space_from_tree(tree)",
        "space.size, space.dist.nbytes",
    )
    assert size == 2000
    assert rise < 1.5 * nbytes


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda n: chain_spectrum(n, 0.1), id="chain_spectrum"),
        pytest.param(lambda n: caterpillar_tree(n, 0.1), id="caterpillar_tree"),
        pytest.param(uniform_chain, id="uniform_chain"),
        pytest.param(lambda n: survival_probability(n, 0.1, 1.0), id="survival_probability"),
    ],
)
def test_level_count_must_be_an_integer(build):
    # 3.0 is not truncated and True is no count, as everywhere else.
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            build(bad)
    for good in (np.int64(5), np.int32(5)):
        build(good)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: caterpillar_tree(1, 0.5), "a chain encoding needs at least 2 leaves")],
    ids=["caterpillar-one-leaf"],
)
def test_refusals_read_as_pinned(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: tree_autocorrelation(caterpillar_tree(5, 400.0), 1, t), id="tree"),
        pytest.param(lambda t: autocorrelation_chain(chain_spectrum(5, 400.0), 1, t), id="chain"),
        pytest.param(lambda t: survival_probability(5, 1000.0, t), id="survival"),
    ],
)
def test_refuses_an_infinite_time_by_name(call):
    # At these mu a rate underflows to 0, and 0 * inf made the value at
    # t = inf NaN, with a RuntimeWarning only. Where no rate underflows it
    # read 1/N; an infinite time is refused everywhere now.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call([0.0, 1.0]).shape == (2,)
        for t in ([1.0, math.inf], math.inf):
            with pytest.raises(ValueError, match="^times must be finite and nonnegative$"):
                call(t)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: tree_autocorrelation(caterpillar_tree(5, 0.1), 1, t), id="tree"),
        pytest.param(lambda t: autocorrelation_chain(chain_spectrum(5, 0.1), 1, t), id="chain"),
        pytest.param(lambda t: survival_probability(5, 0.1, t), id="survival"),
    ],
)
def test_a_finite_time_whose_decay_passes_the_float_range_reads_the_limit(call):
    # t times a rate overflows to inf, e^(-inf) is the exact 0 and the value
    # is the limit 1/N, with no overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call([1e308]).tolist() == [0.2]
        assert call(1e308) == 0.2


def one_shot(weights, rates, times):
    """The (times x modes) exponential formed whole, as before blocking."""
    return np.exp(np.multiply.outer(times, -rates)) @ weights


def random_modes(n_modes, times_shape, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.random(n_modes)
    rates = np.geomspace(1e-4, 1e2, n_modes) * rng.uniform(0.5, 1.5, n_modes)
    times = rng.uniform(0.0, 50.0, times_shape)
    return weights, rates, times


class TestModeSum:
    """The one evaluator of sum_k w_k e^(-rate_k t), a block of times at a time."""

    step = _BLOCK_ENTRIES // 1000  # times per block at 1000 modes

    @pytest.mark.parametrize(
        "n_modes, times_shape",
        [(1, ()), (30, ()), (60, (200,)), (2000, (64,)), (1000, (step,)), (30, (4, 8)), (5, (0,))],
        ids=["scalar-1", "scalar-30", "power-law", "model-verify", "full-block", "2-d", "no-times"],
    )
    def test_within_one_block_is_the_one_shot_sum_bit_for_bit(self, n_modes, times_shape):
        weights, rates, times = random_modes(n_modes, times_shape)
        out = _mode_sum(weights, rates, times)
        expected = one_shot(weights, rates, times)
        assert np.shape(out) == times_shape
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize(
        "n_modes, times_shape",
        [
            (1000, (step + 1,)),
            (60, (3 * _BLOCK_ENTRIES // 60 + 7,)),
            (1000, (step, 3)),
            (_BLOCK_ENTRIES + 1, (3,)),
        ],
        ids=["one-past-a-block", "power-law-many-times", "2-d", "deeper-than-a-block"],
    )
    def test_across_blocks_agrees_with_the_one_shot_sum(self, n_modes, times_shape):
        # BLAS may round a row differently once the times are cut into
        # blocks: 2.3e-15 relative was the largest gap seen on these cases.
        weights, rates, times = random_modes(n_modes, times_shape)
        out = _mode_sum(weights, rates, times)
        assert out.shape == times_shape
        np.testing.assert_allclose(out, one_shot(weights, rates, times), rtol=1e-14, atol=0)


def test_tree_autocorrelation_peak_memory_stays_bounded_at_depth(peak_rise):
    # A leaf of a 10^5-level caterpillar has 10^5 modes. Formed whole at 200
    # times, their exponential is 160 MB and raised the peak by about 310 MB;
    # summed a block of times at a time it stays near 2 MB per temporary.
    size, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.spectral import caterpillar_tree, tree_autocorrelation\n"
        "tree = caterpillar_tree(10**5, 1e-3)\n"
        "times = np.geomspace(1e-3, 1e3, 200)",
        "values = tree_autocorrelation(tree, 1, times)",
        "values.size",
    )
    assert size == 200
    assert rise < 32 * 2**20
