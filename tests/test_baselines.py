"""Poisson and power-law reference processes."""

import math

import numpy as np
import pytest

from ultradiffusion.baselines import (
    PoissonModel,
    PowerLawModel,
    fit_linear,
    loglog_slope,
    poisson_event_probability,
    poisson_expected,
    poisson_pmf,
    power_law_curve,
)
from ultradiffusion.fitting import fit_exponential
from ultradiffusion.traces import PopularityCurve, uniform_grid


class TestPoissonPmf:
    def test_zero_count_probability(self):
        model = PoissonModel(rho=0.7, T0=10.0)
        for t in (0.5, 2.0, 9.0):
            assert poisson_pmf(model, 0, t) == pytest.approx(math.exp(-0.7 * t))

    def test_unit_rate_unit_time_single_count(self):
        model = PoissonModel(rho=1.0, T0=1.0)
        assert poisson_pmf(model, 1, 1.0) == pytest.approx(0.367879, abs=1e-6)

    def test_distribution_is_normalized(self):
        model = PoissonModel(rho=2.0, T0=10.0)
        total = poisson_pmf(model, np.arange(201), 3.0).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_time_zero_concentrates_on_zero_counts(self):
        model = PoissonModel(rho=2.0, T0=10.0)
        np.testing.assert_array_equal(
            poisson_pmf(model, np.array([0, 1, 2]), 0.0), [1.0, 0.0, 0.0]
        )

    def test_broadcasts_counts_against_times(self):
        model = PoissonModel(rho=1.0, T0=10.0)
        out = poisson_pmf(model, np.array([[0], [1]]), np.array([1.0, 2.0]))
        assert out.shape == (2, 2)
        assert out[0, 1] == pytest.approx(math.exp(-2.0))

    def test_handles_large_counts_without_overflow(self):
        model = PoissonModel(rho=1.0, T0=10.0)
        value = poisson_pmf(model, 500, 1.0)
        assert 0.0 <= value < 1e-300

    def test_rejects_fractional_counts(self):
        model = PoissonModel(rho=1.0, T0=10.0)
        with pytest.raises(ValueError, match="integer"):
            poisson_pmf(model, 1.5, 1.0)

    def test_rejects_negative_counts(self):
        model = PoissonModel(rho=1.0, T0=10.0)
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_pmf(model, -1, 1.0)


class TestPoissonCurves:
    def test_expected_count_is_rate_times_time(self):
        model = PoissonModel(rho=2.0, T0=10.0)
        assert poisson_expected(model, 3.0) == 6.0
        assert poisson_expected(model, 0.0) == 0.0

    def test_expected_count_is_linear(self):
        model = PoissonModel(rho=0.4, T0=10.0)
        t = np.linspace(0.5, 9.0, 9)
        np.testing.assert_allclose(
            poisson_expected(model, 2.0 * t), 2.0 * poisson_expected(model, t)
        )

    def test_event_probability_is_time_over_window(self):
        model = PoissonModel(rho=5.0, T0=8.0)
        np.testing.assert_allclose(
            poisson_event_probability(model, np.array([2.0, 4.0, 8.0])),
            [0.25, 0.5, 1.0],
        )

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rho"):
            PoissonModel(rho=0.0, T0=1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="T0"):
            PoissonModel(rho=1.0, T0=0.0)


class TestFitLinear:
    def test_exact_line_is_recovered(self):
        t = np.linspace(0.0, 10.0, 50)
        slope, intercept, r2 = fit_linear(t, 0.3 * t + 0.2)
        assert slope == pytest.approx(0.3)
        assert intercept == pytest.approx(0.2)
        assert r2 == pytest.approx(1.0)

    def test_rejects_constant_values(self):
        with pytest.raises(ValueError, match="constant"):
            fit_linear([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_linear([1.0], [2.0])


class TestMemorylessDiscriminator:
    def test_linear_fit_beats_saturating_fit_on_poisson_data(self):
        # The memoryless event curve is an exact line; the saturating family
        # can approach it but never matches it on a finite window.
        model = PoissonModel(rho=1.0, T0=100.0)
        grid = uniform_grid(model.T0, 60)
        curve = PopularityCurve(
            grid=grid,
            values=poisson_event_probability(model, grid),
            saturation_count=60,
        )
        exponential = fit_exponential(curve)
        _, _, linear_r2 = fit_linear(grid, curve.values)
        assert exponential.r2 < linear_r2


class TestPowerLawModel:
    def test_published_exponents(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        assert model.s == pytest.approx(0.693147, abs=1e-6)
        assert model.v == pytest.approx(2.25889, abs=1e-5)

    def test_rejects_slow_weight_decay(self):
        model = PowerLawModel(b=3, delta_h=1.0)
        assert model.s > 1
        with pytest.raises(ValueError, match="not below 1"):
            _ = model.v

    def test_level_spacing_log_b_is_the_boundary(self):
        model = PowerLawModel(b=2, delta_h=math.log(2.0))
        assert model.s == pytest.approx(1.0)
        with pytest.raises(ValueError, match="not below 1"):
            power_law_curve(model, np.array([10.0]))

    def test_rejects_small_branching(self):
        with pytest.raises(ValueError, match="at least 2"):
            PowerLawModel(b=1, delta_h=1.0)

    def test_rejects_fractional_branching(self):
        with pytest.raises(ValueError, match="integer"):
            PowerLawModel(b=2.5, delta_h=1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="delta_h"):
            PowerLawModel(b=2, delta_h=0.0)


class TestPowerLawCurve:
    def test_series_tracks_asymptote_in_the_scaling_window(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1e2, 1e4, 40)
        curve = power_law_curve(model, t, terms=60)
        gap = np.max(np.abs(curve.series / curve.asymptote - 1.0))
        assert gap <= 0.05

    def test_loglog_slope_matches_the_exponent(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1e2, 1e4, 40)
        curve = power_law_curve(model, t, terms=60)
        slope = loglog_slope(t, curve.series)
        assert abs(slope + model.v) <= 0.03 * model.v

    def test_series_decreases_in_time(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1.0, 1e5, 200)
        curve = power_law_curve(model, t, terms=60)
        assert np.all(np.diff(curve.series) < 0)

    def test_truncation_bound_shrinks_with_more_terms(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.array([100.0])
        short = power_law_curve(model, t, terms=20)
        long = power_law_curve(model, t, terms=60)
        assert long.truncation_bound < short.truncation_bound
        assert long.truncation_bound == pytest.approx(2.0**-60)
        # The reported bound really does cover the dropped tail.
        assert abs(long.series[0] - short.series[0]) <= short.truncation_bound

    def test_rejects_nonpositive_times(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        for t in ([0.0, 1.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="positive times"):
                power_law_curve(model, np.array(t))

    @pytest.mark.parametrize("terms", [2.5, 3.0, True])
    def test_rejects_non_integer_terms(self, terms):
        model = PowerLawModel(b=2, delta_h=1.0)
        with pytest.raises(ValueError, match="terms must be an integer"):
            power_law_curve(model, np.array([1.0]), terms=terms)
