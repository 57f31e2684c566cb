"""Numerical integration and diagonalization as ground truth."""

import math
import types

import numpy as np
import pytest

from ultradiffusion.generator import Generator, build_generator
from ultradiffusion.oracle import (
    ProbabilityVector,
    integrate_master_equation,
    integrate_propagator,
    numeric_spectrum,
)
from ultradiffusion.spectral import (
    TreeModel,
    autocorrelation_chain,
    chain_spectrum,
    space_from_tree,
    tree_autocorrelation,
)
from ultradiffusion.traces import EventTrace
from ultradiffusion.ultrametric import build_from_trace, uniform_chain


class TestProbabilityVector:
    def test_characteristic_start_is_a_unit_mass(self):
        vec = ProbabilityVector.characteristic(4, 2)
        np.testing.assert_array_equal(vec.entries, [0.0, 1.0, 0.0, 0.0])

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError, match="outside"):
            ProbabilityVector.characteristic(4, 5)

    @pytest.mark.parametrize("state", [True, 1.5, 2.0, "2"])
    def test_rejects_non_integer_state(self, state):
        with pytest.raises(ValueError, match="must be an integer"):
            ProbabilityVector.characteristic(4, state)

    def test_rejects_unnormalized_entries(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityVector(entries=np.array([0.5, 0.6]))

    def test_rejects_negative_entries(self):
        for entries in ([1.5, -0.5], [math.nan], [math.nan, 1.0]):
            with pytest.raises(ValueError, match="nonnegative"):
                ProbabilityVector(entries=np.array(entries))


class TestIntegrateMasterEquation:
    def test_uniform_start_is_stationary(self):
        gen = build_generator(uniform_chain(6), mu=0.3)
        p0 = ProbabilityVector(entries=np.full(6, 1.0 / 6.0))
        traj = integrate_master_equation(gen, p0, np.linspace(0.5, 8.0, 16))
        np.testing.assert_allclose(traj, 1.0 / 6.0, atol=1e-9)

    def test_two_state_chain_matches_analytic_solution(self):
        gen = build_generator(uniform_chain(2), mu=0.0)
        p0 = ProbabilityVector.characteristic(2, 2)
        grid = np.array([0.25, 0.5, 1.0, 2.0])
        traj = integrate_master_equation(gen, p0, grid)
        np.testing.assert_allclose(
            traj[:, 1], 0.5 + 0.5 * np.exp(-2.0 * grid), atol=1e-7
        )

    def test_time_zero_returns_the_start_exactly(self):
        gen = build_generator(uniform_chain(3), mu=0.2)
        p0 = ProbabilityVector.characteristic(3, 1)
        traj = integrate_master_equation(gen, p0, np.array([0.0]))
        np.testing.assert_array_equal(traj[0], p0.entries)

    def test_closed_form_autocorrelation_is_reproduced(self):
        spectrum = chain_spectrum(5, mu=0.3)
        gen = build_generator(uniform_chain(5), mu=0.3)
        p0 = ProbabilityVector.characteristic(5, 5)
        traj = integrate_master_equation(gen, p0, np.array([1.0]))
        closed = autocorrelation_chain(spectrum, 5, 1.0)
        assert traj[0, 4] == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("t_N", [5, 17, 40])
    def test_closed_form_sweep_stays_within_oracle_tolerance(self, t_N):
        mu = 0.2
        spectrum = chain_spectrum(t_N, mu)
        gen = build_generator(uniform_chain(t_N), mu)
        grid = np.linspace(0.1, 5.0 / abs(spectrum.eigenvalues[1]), 20)
        p0 = ProbabilityVector.characteristic(t_N, t_N)
        traj = integrate_master_equation(gen, p0, grid)
        closed = autocorrelation_chain(spectrum, t_N, grid)
        assert np.max(np.abs(traj[:, t_N - 1] - closed)) <= 1e-6

    def test_probability_is_conserved_along_the_trajectory(self):
        trace = EventTrace(
            story_id="worked",
            events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
            horizon=17.0,
        )
        gen = build_generator(build_from_trace(trace), mu=0.2)
        p0 = ProbabilityVector.characteristic(7, 7)
        traj = integrate_master_equation(gen, p0, np.linspace(0.1, 20.0, 50))
        drift = np.max(np.abs(traj.sum(axis=1) - 1.0))
        assert drift <= 1e-9

    def test_entries_stay_nonnegative(self):
        gen = build_generator(uniform_chain(10), mu=0.5)
        p0 = ProbabilityVector.characteristic(10, 1)
        traj = integrate_master_equation(gen, p0, np.linspace(0.05, 30.0, 80))
        assert np.min(traj) >= -1e-10

    def test_tree_solution_matches_the_oracle(self):
        # Depth-3 binary tree with unit level spacing, in pre-order.
        tree = TreeModel(
            [-1, 0, 1, 2, 2, 1, 5, 5, 0, 8, 9, 9, 8, 12, 12],
            [3.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        )
        gen = build_generator(space_from_tree(tree), mu=1.0)
        grid = np.linspace(0.2, 12.0, 30)
        p0 = ProbabilityVector.characteristic(8, 1)
        traj = integrate_master_equation(gen, p0, grid)
        closed = tree_autocorrelation(tree, 1, grid)
        assert np.max(np.abs(traj[:, 0] - closed)) <= 1e-6

    def test_short_trajectory_is_pinned(self):
        gen = build_generator(uniform_chain(3), mu=0.2)
        p0 = ProbabilityVector.characteristic(3, 1)
        traj = integrate_master_equation(gen, p0, np.array([0.25, 1.0, 4.0]))
        pinned = [
            [0.7149507959137358, 0.15333954368306832, 0.13170966040319593],
            [0.4053842000359176, 0.3059024965257338, 0.28871330343834856],
            [0.3334358178877364, 0.33333787380869145, 0.3332263083035718],
        ]
        np.testing.assert_allclose(traj, pinned, rtol=0, atol=1e-12)

    def test_rejects_mismatched_start_dimension(self):
        gen = build_generator(uniform_chain(3), mu=0.0)
        with pytest.raises(ValueError, match="shape"):
            integrate_master_equation(gen, ProbabilityVector.characteristic(2, 1), np.array([1.0]))

    @pytest.mark.parametrize("p0", [np.array([1.0, 0.0, 0.0]), [0.9, 0.0, 0.0], [1.5, -0.5, 0.0]])
    def test_rejects_a_raw_start_array(self, p0):
        gen = build_generator(uniform_chain(3), mu=0.0)
        with pytest.raises(TypeError, match="ProbabilityVector"):
            integrate_master_equation(gen, p0, np.array([1.0]))

    def test_rejects_descending_grid(self):
        gen = build_generator(uniform_chain(3), mu=0.0)
        p0 = ProbabilityVector.characteristic(3, 1)
        with pytest.raises(ValueError, match="nondecreasing"):
            integrate_master_equation(gen, p0, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("grid", [[math.nan], [1.0, math.inf], [-math.inf, 1.0]])
    def test_rejects_non_finite_grid_times(self, grid):
        gen = build_generator(uniform_chain(3), mu=0.0)
        p0 = ProbabilityVector.characteristic(3, 1)
        with pytest.raises(ValueError, match="finite"):
            integrate_master_equation(gen, p0, np.array(grid))


class TestIntegratePropagator:
    def test_columns_are_distributions_and_the_diagonal_is_closed_form(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.integers(2, 12), st.floats(0.0, 2.0))
        def check(n, mu):
            spectrum = chain_spectrum(n, mu)
            # Past t = 20 the stiff cells need too many explicit steps.
            grid = np.linspace(0.1, min(5.0 / abs(spectrum.eigenvalues[1]), 20.0), 12)
            prop = integrate_propagator(build_generator(uniform_chain(n), mu), grid)
            assert prop.shape == (grid.size, n, n)
            assert np.max(np.abs(prop.sum(axis=1) - 1.0)) <= 1e-9
            # Symmetric rates with zero row sums give a symmetric P(t).
            assert np.max(np.abs(prop - prop.transpose(0, 2, 1))) <= 1e-8
            for i in range(1, n + 1):
                closed = autocorrelation_chain(spectrum, i, grid)
                assert np.max(np.abs(prop[:, i - 1, i - 1] - closed)) <= 1e-6

        check()

    def test_columns_match_single_start_integration(self):
        gen = build_generator(uniform_chain(7), mu=0.3)
        grid = np.linspace(0.2, 15.0, 30)
        prop = integrate_propagator(gen, grid)
        for i in range(1, 8):
            single = integrate_master_equation(gen, ProbabilityVector.characteristic(7, i), grid)
            np.testing.assert_allclose(prop[:, :, i - 1], single, rtol=0, atol=1e-7)

    @pytest.mark.parametrize(
        "grid", [[], [[1.0]], [math.nan], [1.0, math.inf], [-1.0, 1.0], [2.0, 1.0]]
    )
    def test_bad_grids_raise_as_for_a_single_start(self, grid):
        gen = build_generator(uniform_chain(3), mu=0.1)
        p0 = ProbabilityVector.characteristic(3, 1)
        with pytest.raises(ValueError) as single:
            integrate_master_equation(gen, p0, np.array(grid))
        with pytest.raises(ValueError) as every:
            integrate_propagator(gen, np.array(grid))
        assert str(every.value) == str(single.value)

    def test_drift_names_the_start_state(self):
        # Row 3 loses 2e-6 per unit time, inside the generator's row-sum
        # tolerance at a largest rate of 1e6, so column 3 drifts by 1e-8.
        rates = np.array([[-1e6, 1e6, 0.0], [1e6, -1e6, 0.0], [0.0, 0.0, -2e-6]])
        with pytest.raises(RuntimeError, match="drifted by .* from start state 3$"):
            integrate_propagator(Generator(rates=rates), np.array([5e-3]))

    def test_grid_ending_at_zero_returns_the_identity(self):
        gen = build_generator(uniform_chain(4), mu=0.5)
        prop = integrate_propagator(gen, np.array([0.0, 0.0]))
        np.testing.assert_array_equal(prop, [np.eye(4), np.eye(4)])


class TestNumericSpectrum:
    def test_chain_of_three_without_decay(self):
        gen = build_generator(uniform_chain(3), mu=0.0)
        eigenvalues, _ = numeric_spectrum(gen)
        np.testing.assert_allclose(eigenvalues, [-3.0, -3.0, 0.0], atol=1e-12)

    def test_zero_generator_has_all_zero_eigenvalues(self):
        gen = Generator(rates=np.zeros((4, 4)))
        eigenvalues, vectors = numeric_spectrum(gen)
        np.testing.assert_array_equal(eigenvalues, np.zeros(4))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_exactly_one_zero_mode_rest_negative(self, n):
        gen = build_generator(uniform_chain(n), mu=0.1)
        eigenvalues, _ = numeric_spectrum(gen)
        scale = np.max(np.abs(gen.rates))
        near_zero = np.abs(eigenvalues) <= 1e-10 * scale
        assert near_zero.sum() == 1
        assert np.all(eigenvalues[~near_zero] < 0)

    def test_matches_closed_form_chain_spectrum(self):
        spectrum = chain_spectrum(30, mu=0.4)
        eigenvalues, _ = numeric_spectrum(build_generator(uniform_chain(30), mu=0.4))
        scale = np.max(np.abs(eigenvalues))
        np.testing.assert_allclose(
            eigenvalues, np.sort(spectrum.eigenvalues), atol=1e-9 * scale
        )

    def test_zero_mode_vector_is_uniform(self):
        gen = build_generator(uniform_chain(7), mu=0.2)
        eigenvalues, vectors = numeric_spectrum(gen)
        idx = int(np.argmax(eigenvalues))
        mode = vectors[:, idx]
        mode = mode / mode[0]
        np.testing.assert_allclose(mode, np.ones(7), atol=1e-9)


TWO_STATES = Generator(np.array([[-1.0, 1.0], [1.0, -1.0]]))


@pytest.mark.parametrize(
    "target, stub, call, error, message",
    [
        (None, None, lambda: ProbabilityVector([]),
         ValueError, "entries must be a nonempty vector"),
        # A solver that gives up, and a decomposition that does not rebuild
        # the rates.
        ("scipy.integrate.solve_ivp",
         lambda *args, **kwargs: types.SimpleNamespace(success=False, message="step too small"),
         lambda: integrate_master_equation(
             TWO_STATES, ProbabilityVector.characteristic(2, 1), [0.0, 1.0]
         ),
         RuntimeError, "integration failed: step too small"),
        ("numpy.linalg.eigh", lambda rates: (np.zeros(2), np.eye(2)),
         lambda: numeric_spectrum(TWO_STATES),
         RuntimeError, "eigendecomposition residual 1 exceeds 1e-9*1"),
    ],
    ids=["empty-vector", "integration-failed", "eigh-residual"],
)
def test_refusals_read_as_pinned(monkeypatch, target, stub, call, error, message):
    if target is not None:
        monkeypatch.setattr(target, stub)
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
