"""Memoryless and power-law reference processes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ultradiffusion.baselines import (
    PowerLawModel,
    fit_linear,
    loglog_slope,
    power_law_curve,
)
from ultradiffusion.fitting import fit_exponential
from ultradiffusion.spectral import _mode_sum, _path_rates
from ultradiffusion.traces import PopularityCurve, uniform_grid

NEXT_AFTER_8 = math.nextafter(8.0, 9.0)


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


class TestLineFits:
    @pytest.mark.parametrize(
        "fit, t, values, message",
        [
            (fit_linear, [1.0, 2.0], [math.nan, 1.0], "finite times and values"),
            (fit_linear, [1.0, math.nan], [0.0, 1.0], "finite times and values"),
            (fit_linear, [1.0, math.inf], [0.0, 1.0], "finite times and values"),
            (fit_linear, [0.0, 0.0], [0.0, 1.0], "two distinct times"),
            (loglog_slope, [1.0, 2.0, 3.0], [1.0, 0.0, 2.0], "positive times and values"),
            (loglog_slope, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], "positive times and values"),
            (loglog_slope, [-1.0, 1.0], [1.0, 2.0], "positive times and values"),
            (loglog_slope, [1.0, 2.0], [1.0, math.nan], "finite times and values"),
            # Distinct times one ulp apart: the line's slope is 1/ulp(8), and
            # polyfit returned 0.09375 (0.083 on the log scale) with a warning.
            (fit_linear, [8.0, NEXT_AFTER_8], [1.0, 2.0], "differ by more than rounding"),
            (loglog_slope, [8.0, NEXT_AFTER_8], [1.0, 2.0], "differ by more than rounding"),
            # Subnormal times: the slope 1e310 is past the largest float.
            (fit_linear, [1e-310, 2e-310], [0.0, 1.0], "slope overflows a float"),
        ],
        ids=[
            "nan-value", "nan-time", "inf-time", "one-time",
            "loglog-zero-value", "loglog-zero-time", "loglog-negative-time", "loglog-nan-value",
            "ulp-apart-times", "loglog-ulp-apart-times", "subnormal-times",
        ],
    )
    def test_refuses_points_no_line_fits(self, capfd, fit, t, values, message):
        # Refused before LAPACK sees them: no warning, and nothing on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                fit(t, values)
        assert capfd.readouterr().err == ""


class TestMemorylessDiscriminator:
    def test_linear_fit_beats_saturating_fit_on_poisson_data(self):
        # The memoryless event curve is an exact line; the saturating family
        # can approach it but never matches it on a finite window.
        window = 100.0
        grid = uniform_grid(window, 60)
        curve = PopularityCurve(horizon=window, values=grid / window)
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

    def test_fields_are_branching_and_level_spacing(self):
        names = [field.name for field in dataclasses.fields(PowerLawModel)]
        assert names == ["b", "delta_h"]

    def test_rejects_small_branching(self):
        with pytest.raises(ValueError, match="at least 2"):
            PowerLawModel(b=1, delta_h=1.0)

    def test_rejects_fractional_branching(self):
        with pytest.raises(ValueError, match="integer"):
            PowerLawModel(b=2.5, delta_h=1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="delta_h"):
            PowerLawModel(b=2, delta_h=0.0)

    @pytest.mark.parametrize("delta_h", [710.0, 1e3])
    def test_rejects_spacing_whose_exponential_overflows(self, delta_h):
        # e^710 is past the largest float: `power_law_curve` raised a bare
        # OverflowError from math.exp.
        with pytest.raises(ValueError, match=r"^level spacing delta_h=.* past the largest float$"):
            PowerLawModel(b=2, delta_h=delta_h)

    def test_spacing_just_inside_the_float_range_still_evaluates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = power_law_curve(PowerLawModel(b=2, delta_h=709.0), np.array([1.0, 1e6]))
        assert np.all(np.isfinite(curve.series)) and np.all(np.isfinite(curve.asymptote))


class TestPowerLawCurve:
    def test_series_tracks_asymptote_in_the_scaling_window(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1e2, 1e4, 40)
        curve = power_law_curve(model, t)
        gap = np.max(np.abs(curve.series / curve.asymptote - 1.0))
        assert gap <= 0.05

    def test_loglog_slope_matches_the_exponent(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1e2, 1e4, 40)
        curve = power_law_curve(model, t)
        slope = loglog_slope(t, curve.series)
        assert abs(slope + model.v) <= 0.03 * model.v

    def test_series_decreases_in_time(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1.0, 1e5, 200)
        curve = power_law_curve(model, t)
        assert np.all(np.diff(curve.series) < 0)

    def test_truncation_bound_shrinks_with_more_terms(self):
        # A 200-level sum computed here: the series is its first 60 levels,
        # the returned bound b^-60 covers the levels it drops, almost
        # exactly at short times, and b^-100 covers the levels past 100.
        model = PowerLawModel(b=2, delta_h=1.0)
        t = np.geomspace(1e-6, 1e4, 50)
        curve = power_law_curve(model, t)
        q = 2.0 * math.exp(-1.0)
        c = (math.e - 1.0) / (math.e - 2.0)
        m = np.arange(1, 201)
        levels = 2.0**-m * np.exp(-np.multiply.outer(t, c * q**m))
        np.testing.assert_allclose(curve.series, levels[:, :60].sum(axis=1), rtol=1e-12)
        tail = levels[:, 60:].sum(axis=1)
        assert curve.truncation_bound == 2.0**-60
        assert np.all(tail <= curve.truncation_bound)
        assert tail[0] > 0.99 * curve.truncation_bound
        assert np.all(levels[:, 100:].sum(axis=1) <= 2.0**-100)

    def test_rejects_nonpositive_times(self):
        model = PowerLawModel(b=2, delta_h=1.0)
        for t in ([0.0, 1.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="positive times"):
                power_law_curve(model, np.array(t))

    def test_refuses_an_infinite_time_by_name(self):
        # At delta_h = 30 the rates past the first levels underflow to 0, and
        # 0 * inf made the value at t = inf NaN, with a RuntimeWarning only.
        model = PowerLawModel(b=2, delta_h=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in ([1.0, math.inf], [math.inf]):
                with pytest.raises(ValueError, match="needs finite, strictly positive times$"):
                    power_law_curve(model, np.array(t))

    @pytest.mark.parametrize("b, delta_h", [(3, 1.0), (2, math.log(2.0))], ids=["s-above-1", "s-at-1"])
    def test_refuses_s_before_checking_the_times(self, b, delta_h):
        # At s = 1, c = (e^delta_h - 1)/(e^delta_h - b) divides by zero: the
        # refusal comes before any level is summed.
        model = PowerLawModel(b=b, delta_h=delta_h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not below 1"):
                power_law_curve(model, np.array([0.0, math.nan]))

    @pytest.mark.parametrize("b, delta_h", [(2, 1.0), (2, 2.5), (3, 1.5), (5, 2.0)])
    def test_asymptote_is_d_times_t_to_the_minus_v(self, b, delta_h):
        t = np.geomspace(1.0, 1e4, 30)
        s = math.log(b) / delta_h
        v = s / (1.0 - s)
        c = (math.exp(delta_h) - 1.0) / (math.exp(delta_h) - b)
        D = math.gamma(v) * c ** (-v) * ((b - 1) / math.log(b)) * v
        curve = power_law_curve(PowerLawModel(b=b, delta_h=delta_h), t)
        assert curve.asymptote.tobytes() == (D * np.power(t, -v)).tobytes()


@pytest.mark.parametrize("b, delta_h", [(2, 1.0), (2, 2.5), (3, 1.5), (5, 2.0)])
def test_series_is_the_path_kernel_on_a_regular_tree(b, delta_h):
    # A leaf's path in a 200-level b-ary tree with heights m*delta_h has
    # N_m = b^m. Over its first 60 levels the path kernel's weights and
    # rates are the hierarchy's (b-1)*b^(-m) and c*q^m; 4.7e-15 relative
    # was the largest gap seen.
    counts = float(b) ** np.arange(201)
    heights = delta_h * np.arange(1, 201)
    weights = (1.0 / counts[:-1] - 1.0 / counts[1:])[:60]
    rates = _path_rates(counts, np.exp(-heights))[:60]
    m = np.arange(1.0, 61.0)
    q = b * math.exp(-delta_h)
    c = (math.exp(delta_h) - 1.0) / (math.exp(delta_h) - b)
    np.testing.assert_allclose(weights, (b - 1.0) * float(b) ** -m, rtol=1e-14, atol=0)
    np.testing.assert_allclose(rates, c * q**m, rtol=1e-14, atol=0)
    # So the series is the path's modes summed by the path kernel's
    # evaluator: 1.1e-14 relative was the largest gap seen on this grid.
    t = np.geomspace(1e-3, 1e6, 200)
    np.testing.assert_allclose(
        power_law_curve(PowerLawModel(b=b, delta_h=delta_h), t).series,
        _mode_sum(weights, rates, t),
        rtol=1e-13,
        atol=0,
    )
