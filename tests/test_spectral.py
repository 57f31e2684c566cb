"""Closed-form spectra, relaxation curves, and tree solutions."""

import math

import numpy as np
import pytest

from ultradiffusion.fitting import UltradiffusionParams
from ultradiffusion.generator import build_generator
from ultradiffusion.spectral import (
    TreeModel,
    TreeNode,
    autocorrelation_chain,
    caterpillar_tree,
    chain_spectrum,
    expected_rebroadcasts,
    space_from_tree,
    survival_probability,
    tree_autocorrelation,
)
from ultradiffusion.ultrametric import uniform_chain


def star_tree(n, height):
    leaves = tuple(TreeNode(height=0.0) for _ in range(n))
    return TreeModel(root=TreeNode(height=height, children=leaves))


def binary_tree(depth):
    def level(h):
        if h == 0:
            return TreeNode(height=0.0)
        return TreeNode(height=float(h), children=(level(h - 1), level(h - 1)))

    return TreeModel(root=level(depth))


class TestChainSpectrum:
    def test_three_states_without_decay(self):
        spectrum = chain_spectrum(3, mu=0.0)
        np.testing.assert_allclose(sorted(spectrum.eigenvalues), [-3.0, -3.0, 0.0])

    def test_two_states_at_mu_log2(self):
        spectrum = chain_spectrum(2, mu=math.log(2.0))
        assert spectrum.eigenvalues[1] == pytest.approx(-1.0)

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


class TestExpectedRebroadcasts:
    def test_zero_at_time_zero(self):
        params = UltradiffusionParams(t_N=5, mu=0.3, M=200)
        assert expected_rebroadcasts(params, 0.0) == 0.0

    def test_long_time_limit_is_half_for_two_states(self):
        params = UltradiffusionParams(t_N=2, mu=0.0, M=100)
        assert expected_rebroadcasts(params, 1e9) == pytest.approx(50.0)

    def test_monotone_nondecreasing(self):
        params = UltradiffusionParams(t_N=20, mu=0.5, M=1000)
        grid = np.linspace(0.0, 50.0, 300)
        counts = expected_rebroadcasts(params, grid)
        assert np.all(np.diff(counts) >= 0)


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


class TestTreeModel:
    def test_rejects_child_at_or_above_parent_height(self):
        with pytest.raises(ValueError, match="below parent"):
            TreeModel(
                root=TreeNode(height=1.0, children=(TreeNode(height=1.0),))
            )

    def test_rejects_negative_heights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TreeModel(root=TreeNode(height=-1.0))

    def test_counts_leaves(self):
        assert binary_tree(3).n_leaves == 8
        assert star_tree(5, 1.0).n_leaves == 5

    def test_leaf_count_of_every_subtree(self):
        tree = binary_tree(3)
        leaf = tree.leaf(1)
        assert tree.leaf_count(leaf) == 1
        assert [tree.leaf_count(node) for node in tree.path_to_root(leaf)] == [2, 4, 8]
        tree = caterpillar_tree(50, 0.1)
        assert [tree.leaf_count(node) for node in tree.path_to_root(tree.leaf(1))] == list(
            range(2, 51)
        )

    def test_leaf_count_of_a_node_outside_the_tree(self):
        outside = binary_tree(2).root
        assert binary_tree(3).leaf_count(outside) == 4


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
