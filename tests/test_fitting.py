"""Saturation-curve fitting, parameter inference, and event sampling."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from ultradiffusion import fitting
from ultradiffusion.baselines import fit_linear
from ultradiffusion.fitting import (
    ExponentialFit,
    FitError,
    UltradiffusionParams,
    decay_rate,
    exponential_model,
    fit_block,
    fit_exponential,
    infer_params,
    r_squared,
    sample_events,
    simulate_curve,
    _columns,
    _profile,
)
from ultradiffusion.generator import build_generator
from ultradiffusion.oracle import ProbabilityVector, integrate_master_equation
from ultradiffusion.spectral import chain_spectrum, survival_probability
from ultradiffusion.traces import (
    EventTrace,
    PopularityCurve,
    curve_block,
    uniform_grid,
)
from ultradiffusion.ultrametric import uniform_chain


def curves_of(traces):
    """The traces' curves, the rows of their `curve_block`, checked."""
    horizons, values, faults = curve_block(traces)
    assert faults == [None] * len(traces)
    return [PopularityCurve(horizon, row) for horizon, row in zip(horizons, values)]


def reference_fit(curve, offset=False):
    """Six-start Levenberg-Marquardt least squares, the fitter's earlier form.

    Starts from a log-slope estimate of the early decay and five decay rates
    from 0.1 to 1000 on the normalized time axis; keeps the best start with
    h1 > 0, h2 > 0 (and 0 <= h3 < 1). Returns (h1, h2, h3), or None.
    """
    t, p = curve.grid, curve.values
    span = float(t[-1])
    x = t / span
    h3_0 = float(p[0]) if offset else 0.0
    h1_0 = max(float(p[-1]) - h3_0, 1e-12)

    def residual(theta):
        with np.errstate(over="ignore", under="ignore"):
            model = theta[0] * (1.0 - np.exp(np.minimum(-theta[1] * x, 700.0)))
        return model + (theta[2] if offset else 0.0) - p

    def jacobian(theta):
        with np.errstate(over="ignore", under="ignore"):
            decay = np.exp(np.minimum(-theta[1] * x, 700.0))
            cols = [1.0 - decay, theta[0] * x * decay] + ([np.ones_like(x)] if offset else [])
        return np.stack(cols, axis=1)

    rates = list(np.geomspace(0.1, 1000.0, 5))
    with np.errstate(divide="ignore", invalid="ignore"):
        remaining = 1.0 - (p - h3_0) / h1_0
    keep = (remaining > 0.02) & (remaining < 1.0) & np.isfinite(remaining)
    if keep.sum() >= 2:
        slope = np.polyfit(x[keep], np.log(remaining[keep]), 1)[0]
        if slope < 0:
            rates.insert(0, -float(slope))
    best = None
    for rate in rates:
        start = [h1_0, rate] + ([h3_0] if offset else [])
        result = least_squares(residual, np.array(start), jac=jacobian, method="lm")
        h1, h2 = result.x[:2]
        h3 = result.x[2] if offset else 0.0
        if not (np.isfinite(result.cost) and h1 > 0 and h2 > 0 and 0 <= h3 < 1):
            continue
        if best is None or result.cost < best[0]:
            best = (result.cost, (float(h1), float(h2) / span, float(h3)))
    return None if best is None else best[1]


def residual_sum(curve, h1, h2, h3):
    # In extended precision (80-bit on x86-64), so the evaluation's own
    # rounding stays below the 1e-12 the comparisons resolve.
    t = curve.grid.astype(np.longdouble)
    model = -np.longdouble(h1) * np.expm1(-np.longdouble(h2) * t) + np.longdouble(h3)
    resid = curve.values - model
    return resid @ resid


def model_curves(st, noise):
    """Curves h1*(1 - e^(-k*t/T)) + h3 on n-point grids, k from 0.3 to 20
    and h3 clear of its bound 0, with Gaussian noise of the given scales,
    kept in [0, 1] and nondecreasing."""

    @st.composite
    def curves(draw):
        n = draw(st.integers(8, 300))
        horizon = draw(st.floats(1e-3, 1e6))
        k = draw(st.floats(0.3, 20.0))
        h1 = draw(st.floats(0.2, 0.95))
        h3 = draw(st.floats(0.01, 1.0 - h1))
        sigma = draw(st.sampled_from(noise))
        seed = draw(st.integers(0, 2**32 - 1))
        grid = uniform_grid(horizon, n)
        values = exponential_model(grid, h1, k / horizon, h3)
        values = values + sigma * np.random.default_rng(seed).standard_normal(n)
        values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
        curve = PopularityCurve(horizon=horizon, values=values)
        return curve, (h1, k / horizon, h3)

    return curves()


def synthetic_curve(h1, h2, h3=0.0, horizon=50.0, points=200):
    grid = uniform_grid(horizon, points)
    return PopularityCurve(horizon=horizon, values=exponential_model(grid, h1, h2, h3))


class TestRSquared:
    def test_perfect_prediction_scores_one(self):
        obs = np.array([0.1, 0.4, 0.9])
        assert r_squared(obs, obs) == 1.0

    def test_mean_prediction_scores_zero(self):
        obs = np.array([0.0, 0.5, 1.0])
        pred = np.full(3, 0.5)
        assert r_squared(obs, pred) == 0.0

    def test_hand_worked_value(self):
        assert r_squared([0.0, 1.0], [0.1, 0.9]) == pytest.approx(0.96)

    def test_rejects_constant_observations(self):
        with pytest.raises(ValueError, match="constant"):
            r_squared([0.5, 0.5], [0.4, 0.6])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            r_squared([0.1, 0.2, 0.3], [0.1, 0.2])

    @pytest.mark.parametrize(
        "observed, predicted",
        [
            ([0.0, 1.0, 2.0], [0.0, math.inf, 2.0]),
            ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]),
            ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
            ([0.0, -math.inf, 2.0], [0.0, 1.0, 2.0]),
        ],
        ids=["inf-predicted", "nan-predicted", "nan-observed", "inf-observed"],
    )
    def test_rejects_non_finite_values(self, capfd, observed, predicted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite observed and predicted"):
                r_squared(observed, predicted)
        assert capfd.readouterr().err == ""


class TestFitExponential:
    def test_recovers_noiseless_constants(self):
        fit = fit_exponential(synthetic_curve(0.8, 0.1))
        assert fit.h1 == pytest.approx(0.8, abs=1e-6)
        assert fit.h2 == pytest.approx(0.1, abs=1e-6)
        assert fit.h3 == 0.0
        assert fit.r2 >= 1.0 - 1e-10

    def test_recovers_published_constants_with_offset(self):
        curve = synthetic_curve(0.999, 0.017, h3=0.155, horizon=100.0)
        fit = fit_exponential(curve, offset=True)
        assert fit.h1 == pytest.approx(0.999, abs=1e-6)
        assert fit.h2 == pytest.approx(0.017, abs=1e-6)
        assert fit.h3 == pytest.approx(0.155, abs=1e-6)
        assert fit.r2 >= 1.0 - 1e-10

    def test_offset_stays_zero_without_the_flag(self):
        fit = fit_exponential(synthetic_curve(0.7, 0.05))
        assert fit.h3 == 0.0

    def test_constant_curve_has_no_dynamics(self):
        flat = PopularityCurve(horizon=10.0, values=np.ones(20))
        with pytest.raises(FitError, match="no dynamics"):
            fit_exponential(flat)

    def test_needs_at_least_three_points(self):
        short = PopularityCurve(horizon=2.0, values=np.array([0.2, 0.9]))
        with pytest.raises(FitError, match="at least 3"):
            fit_exponential(short)

    def test_rescaling_time_rescales_only_the_rate(self):
        scale = 3600.0
        slow = synthetic_curve(0.8, 0.1, horizon=50.0)
        fast = PopularityCurve(horizon=slow.horizon / scale, values=slow.values)
        fit_slow = fit_exponential(slow)
        fit_fast = fit_exponential(fast)
        assert fit_fast.h2 == pytest.approx(fit_slow.h2 * scale, rel=1e-8)
        assert fit_fast.h1 == pytest.approx(fit_slow.h1, rel=1e-8)
        assert fit_fast.r2 == pytest.approx(fit_slow.r2, abs=1e-10)

    def test_fit_is_deterministic(self):
        curve = synthetic_curve(0.6, 0.02)
        first = fit_exponential(curve)
        second = fit_exponential(curve)
        assert (first.h1, first.h2, first.r2) == (second.h1, second.h2, second.r2)

    def test_straight_line_fits_at_the_slow_end(self):
        # A line is the family's k -> 0 limit: the fit is finite and close,
        # and still scores below the line itself.
        grid = uniform_grid(10.0, 200)
        line = PopularityCurve(horizon=10.0, values=grid / 10.0)
        fit = fit_exponential(line)
        assert fit.h2 * 10.0 == pytest.approx(1e-6)
        assert 1.0 - 1e-12 < fit.r2 < fit_linear(grid, grid / 10.0)[2]

    @pytest.mark.parametrize("offset", [False, True])
    def test_collinear_fast_decay_end_is_finite_and_silent(self, offset):
        # At the fast end of the rate scan the basis is 1 to rounding at
        # every grid point, so the offset fit's two columns are collinear.
        # A curve that jumps before its first point also draws the fit there.
        grid = uniform_grid(1.0, 50)
        values = np.full(50, 0.9)
        values[0] = 0.3
        curve = PopularityCurve(horizon=1.0, values=values)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            fit = fit_exponential(curve, offset=offset)
        assert math.isfinite(fit.h1) and math.isfinite(fit.h2)
        assert 0.0 <= fit.h3 < 1.0
        ref = reference_fit(curve, offset)
        assert residual_sum(curve, fit.h1, fit.h2, fit.h3) <= residual_sum(curve, *ref) * (
            1 + 1e-12
        )

    def test_zero_offset_fits_with_the_offset_flag(self):
        # The free offset of this noiseless curve is 0 up to rounding, which
        # here lands just below 0.
        fit = fit_exponential(synthetic_curve(0.9, 1.0, horizon=1.0, points=50), offset=True)
        assert 0.0 <= fit.h3 < 1e-12
        assert fit.h1 == pytest.approx(0.9, rel=1e-9)
        assert fit.h2 == pytest.approx(1.0, rel=1e-9)

    def test_offset_below_zero_is_held_at_zero(self):
        # The free offset of a curve rising from 0 through a kink is
        # negative; the fit holds it at 0 and still fits h1 and h2.
        grid = uniform_grid(50.0, 200)
        values = np.clip(exponential_model(grid, 0.9, 0.1) - 0.02, 0.0, 1.0)
        curve = PopularityCurve(horizon=50.0, values=values)
        fit = fit_exponential(curve, offset=True)
        assert fit.h3 == 0.0
        assert fit.r2 > 0.999

    def test_recovers_from_sampled_noise(self):
        params = UltradiffusionParams(t_N=50, mu=0.2, M=10_000)
        trace = sample_events(params, seed=3)
        (curve,) = curves_of([trace])
        fit = fit_exponential(curve)
        assert fit.h1 == pytest.approx(0.98, abs=0.02)
        assert fit.r2 > 0.99


class TestAgainstTheReferenceFitter:
    """Properties checked against `reference_fit`, the multi-start
    Levenberg-Marquardt fitter this module's variable projection replaced."""

    @pytest.mark.parametrize("offset", [False, True])
    def test_residual_sum_is_never_above_the_reference(self, offset):
        hypothesis = pytest.importorskip("hypothesis")
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended precision to compare residual sums in")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(model_curves(st, [1e-4, 1e-3, 1e-2]))
        def check(drawn):
            curve, _ = drawn
            ref = reference_fit(curve, offset)
            hypothesis.assume(ref is not None)
            fit = fit_exponential(curve, offset)
            ours = residual_sum(curve, fit.h1, fit.h2, fit.h3)
            assert ours <= residual_sum(curve, *ref) * (1 + 1e-12)

        check()

    @pytest.mark.parametrize("offset", [False, True])
    def test_noiseless_curves_agree_with_the_reference(self, offset):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(model_curves(st, [0.0]))
        def check(drawn):
            curve, (h1, h2, h3) = drawn
            # Offset fits take h3 from the curve; without it the truth has none.
            if not offset:
                curve = PopularityCurve(horizon=curve.horizon, values=curve.values - h3)
            ref = reference_fit(curve, offset)
            assert ref is not None
            fit = fit_exponential(curve, offset)
            assert fit.h1 == pytest.approx(ref[0], rel=1e-8)
            assert fit.h2 == pytest.approx(ref[1], rel=1e-8)
            assert fit.h3 == pytest.approx(ref[2], abs=1e-8)
            assert fit.h2 == pytest.approx(h2, rel=1e-8)

        check()

    def test_offset_fits_keep_the_offset_in_range(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def curves(draw):
            # Any nondecreasing curve in [0, 1]: steps, plateaus, late jumps.
            n = draw(st.integers(3, 60))
            values = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
            return PopularityCurve(horizon=draw(st.floats(1e-3, 1e6)), values=values)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(curves())
        def check(curve):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                try:
                    fit = fit_exponential(curve, offset=True)
                except FitError as err:
                    assert "no dynamics" in str(err)
                    return
            assert 0.0 <= fit.h3 < 1.0
            assert fit.h1 > 0 and fit.h2 > 0

        check()

    def test_exact_lines_score_below_the_line(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.integers(3, 2000), st.floats(1e-3, 1e6))
        def check(n, horizon):
            grid = uniform_grid(horizon, n)
            line = PopularityCurve(horizon=horizon, values=grid / horizon)
            fit = fit_exponential(line)
            assert math.isfinite(fit.h1) and math.isfinite(fit.h2)
            assert fit.r2 < fit_linear(grid, line.values)[2]

        check()


def bits(fit):
    """A fit's constants as exact bit patterns, or its error's type and message."""
    if isinstance(fit, Exception):
        return type(fit).__name__, str(fit)
    return tuple(float(v).hex() for v in (fit.h1, fit.h2, fit.h3, fit.r2))


def lone_fit(curve, offset=False):
    """`fit_exponential`'s fit of one curve, or the error it raises."""
    try:
        return fit_exponential(curve, offset)
    except (FitError, ValueError) as err:
        return err


class TestFitExponentials:
    """The block fitter: each curve's result, whatever fits beside it."""

    @pytest.mark.parametrize("offset", [False, True])
    def test_each_result_is_the_lone_fit_whatever_its_neighbours(self, offset):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def curve(draw, n):
            kind = draw(st.sampled_from(["model", "model", "steps", "constant"]))
            horizon = draw(st.floats(1e-3, 1e6))
            if kind == "constant":
                values = np.full(n, draw(st.floats(0.0, 1.0)))
            elif kind == "steps":
                values = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
            else:
                k, h1 = draw(st.floats(1e-3, 50.0)), draw(st.floats(0.2, 0.95))
                noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
                values = exponential_model(uniform_grid(horizon, n), h1, k / horizon) + 1e-2 * noise
                values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
            return PopularityCurve(horizon=horizon, values=values)

        # Blocks of one to nine curves, scanned and polished together, of
        # short, usual and long curves.
        blocks = st.sampled_from([2, 30, 30, 41]).flatmap(
            lambda n: st.lists(curve(n), min_size=1, max_size=9)
        )

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(blocks)
        def check(curves):
            batch = fit_block([c.horizon for c in curves], [c.values for c in curves], offset)
            assert len(batch) == len(curves)
            for curve, fit in zip(curves, batch):
                (alone,) = fit_block([curve.horizon], curve.values[None], offset)
                assert bits(fit) == bits(alone) == bits(lone_fit(curve, offset))
                if curve.values.size < 3:
                    assert bits(fit) == ("FitError", "need at least 3 points to fit")
                elif np.ptp(curve.values) == 0:
                    assert bits(fit) == ("FitError", "no dynamics to fit: curve is constant")

        check()

    def test_stacks_past_one_fit_block_match_the_lone_fits(self):
        # 300 sampled stories: three blocks of at most 128 curves, each
        # scanned in one call.
        traces = [
            sample_events(UltradiffusionParams(t_N=40 + s % 20, mu=0.1, M=300), seed=s)
            for s in range(300)
        ]
        horizons, values, _ = curve_block(traces)
        batch = fit_block(horizons, values)
        assert [bits(fit) for fit in batch] == [
            bits(fit_exponential(curve)) for curve in curves_of(traces)
        ]

    def test_empty_stack_fits_nothing(self):
        # Rows too short to fit take their own path, so both widths.
        for points, offset in itertools.product((2, 200), (False, True)):
            assert fit_block(np.empty(0), np.empty((0, points)), offset) == []


class TestFitBlock:
    """The block fitter: horizons and a values array, one curve a row, one call."""

    @pytest.mark.parametrize("offset", [False, True])
    def test_rows_get_their_lone_fits(self, offset):
        curves = curves_of(
            [sample_events(UltradiffusionParams(t_N=30 + 5 * s, mu=0.1, M=150), seed=s)
             for s in range(5)]
        )
        flat = PopularityCurve(horizon=curves[0].horizon, values=np.full(200, 0.5))
        curves.insert(2, flat)
        fits = fit_block([c.horizon for c in curves], [c.values for c in curves], offset)
        assert [bits(fit) for fit in fits] == [bits(lone_fit(c, offset)) for c in curves]
        assert bits(fits[2]) == ("FitError", "no dynamics to fit: curve is constant")

    def test_a_curve_that_is_not_finite_is_refused_by_name(self):
        curves = curves_of(
            [sample_events(UltradiffusionParams(t_N=30, mu=0.1, M=150), seed=s) for s in range(4)]
        )
        values = np.array([c.values for c in curves])
        # One NaN, one inf, and a row of inf, whose spread inf - inf is NaN.
        values[1, 50], values[2, -1], values[3] = np.nan, np.inf, np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = fit_block([c.horizon for c in curves], values)
        assert bits(fits[0]) == bits(lone_fit(curves[0], False))
        assert [bits(fit) for fit in fits[1:]] == [("FitError", "curve values must be finite")] * 3

    def test_rows_too_short_are_refused(self):
        fits = fit_block(np.ones(2), np.full((2, 2), 0.5))
        assert [bits(fit) for fit in fits] == [("FitError", "need at least 3 points to fit")] * 2

    def test_an_empty_block_fits_nothing(self):
        assert fit_block(np.empty(0), np.empty((0, 200))) == []

    def test_rejects_arrays_of_different_shapes(self):
        for horizons, values in ((np.ones(3), np.ones((2, 4))), (np.ones((2, 1)), np.ones((2, 4))),
                                 (np.ones(4), np.ones(4))):
            with pytest.raises(ValueError, match="2-D array with one horizon per row"):
                fit_block(horizons, values)

    def test_rejects_horizons_that_are_not_positive_and_finite(self, capfd):
        for horizon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizons must be positive and finite"):
                fit_block([1.0, horizon], np.ones((2, 4)))
        assert capfd.readouterr().err == ""

    def test_a_rate_past_the_largest_float_is_refused_by_name(self):
        # On a subnormal horizon a saturating curve's rate k/T overflows. That
        # curve alone is refused, naming the horizon, with no warning.
        (curve,) = curves_of([sample_events(UltradiffusionParams(t_N=50, mu=0.2, M=200), seed=1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = fit_block([curve.horizon, 1e-310], [curve.values] * 2)
        assert bits(fits[0]) == bits(lone_fit(curve))
        assert bits(fits[1]) == ("ValueError", "rate h2 overflows a float at horizon 1e-310")

    @pytest.mark.parametrize("offset", [False, True])
    def test_a_small_block_forms_no_residual_per_rate(self, offset):
        # The rate is picked from sums, so no (curves x rates x points)
        # residual is formed: four curves peak near 200 KB of traced memory
        # (270 KB with the offset), where scanning residuals took over 700 KB.
        traces = [
            sample_events(UltradiffusionParams(t_N=40 + 5 * s, mu=0.1, M=300), seed=s)
            for s in range(4)
        ]
        horizons, values, _ = curve_block(traces)
        fit_block(horizons, values, offset)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_block(horizons, values, offset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 400_000

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_rows_cut_at_the_polish_cap_get_their_lone_fits(self, monkeypatch, cap, offset):
        # Cut after `cap` profile evaluations, the polish leaves every row it
        # has not stopped through its cap's exit; each row still gets what
        # its lone call gives under the same cap.
        monkeypatch.setattr(fitting, "_MAX_POLISH", cap)
        traces = [
            sample_events(UltradiffusionParams(t_N=40 + s % 20, mu=0.1, M=300), seed=s)
            for s in range(40)
        ]
        horizons, values, _ = curve_block(traces)
        fits = fit_block(horizons, values, offset)
        assert [bits(fit) for fit in fits] == [
            bits(fit_block([horizon], row[None], offset)[0]) for horizon, row in zip(horizons, values)
        ]


# The grid the rate is scanned on: four rates a decade from 1e-6 to 1e4.
GRID = np.geomspace(1e-6, 1e4, 41)
# The largest offset below 1.
H3_TOP = float(np.nextafter(1.0, 0.0))


def reference_costs(p, offset):
    """Residual sum of squares of the best fit at each rate of `GRID`, formed
    explicitly: the least-squares h1*b (+ h3), b = 1 - e^(-k*x), under h1 >= 0
    (and 0 <= h3 < 1), taken as the free solution if it lies in those bounds,
    else as the best of the solutions along each edge they set."""
    x = np.arange(1, p.size + 1) / p.size
    costs = []
    for k in GRID:
        b = -np.expm1(-k * x)
        if not offset:
            costs.append(np.sum((p - max(b @ p / (b @ b), 0.0) * b) ** 2))
            continue
        c = b - b.mean()
        # The edges h1 = 0, h3 = 0 and h3 at its top, then the free solution.
        candidates = [(0.0, min(max(p.mean(), 0.0), H3_TOP))]
        candidates += [(max(b @ (p - h3) / (b @ b), 0.0), h3) for h3 in (0.0, H3_TOP)]
        if c @ c > 0:
            candidates.append((c @ p / (c @ c), p.mean() - c @ p / (c @ c) * b.mean()))
        costs.append(min(
            np.sum((p - h3 - h1 * b) ** 2)
            for h1, h3 in candidates if h1 >= 0 and 0 <= h3 <= H3_TOP
        ))
    return np.array(costs)


class TestRateScan:
    """The scan's pick of a grid rate, against an explicit residual scan."""

    # The scan writes each rate's residual sum in inner products, so it
    # resolves sums only to the rounding of <p, p>: where two rates' sums tie
    # within this share of <p, p>, it may pick either.
    TIE = 1e-14

    @pytest.mark.parametrize("offset", [False, True])
    def test_picks_the_rate_of_the_least_explicit_residual(self, offset):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def curve(draw, n):
            x = np.arange(1, n + 1) / n
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            k = 10 ** draw(st.floats(-3, 3.5))
            kind = draw(st.sampled_from(["model", "steps", "step", "late", "high", "convex"]))
            if kind == "model":
                h1 = draw(st.floats(0.05, 1.0))
                values = draw(st.floats(0.0, 1.0 - h1)) - h1 * np.expm1(-k * x)
            elif kind == "steps":
                values = np.sort(rng.uniform(draw(st.floats(0.0, 0.9)), 1.0, n))
            elif kind == "step":
                base = draw(st.floats(0.0, 0.5))
                values = np.where(x >= draw(st.floats(0.0, 1.0)), base + 0.5, base)
            elif kind == "late":
                # A rise that starts late: the offset is held at 0.
                late = np.maximum(x - draw(st.floats(0.05, 0.5)), 0.0)
                values = -draw(st.floats(0.1, 1.0)) * np.expm1(-k * late)
            elif kind == "high":
                # Near 1: the offset is held at its top, and h1 at 0 at some rates.
                rise = 10 ** draw(st.floats(-4.0, -0.5))
                values = draw(st.floats(0.99, 1.01)) + rise * x ** draw(st.floats(0.2, 5.0))
            else:
                values = draw(st.floats(0.05, 1.0)) * x ** draw(st.floats(1.0, 6.0))
            noise = draw(st.sampled_from([0.0, 1e-3, 1e-2])) * rng.standard_normal(n)
            return np.maximum.accumulate(np.maximum(values + noise, 0.0))

        blocks = st.sampled_from([30, 200]).flatmap(
            lambda n: st.lists(curve(n), min_size=1, max_size=6)
        )

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(blocks)
        def check(curves):
            # fit_block refuses a constant curve before it scans.
            block = np.array([p for p in curves if np.ptp(p) > 1e-14])
            hypothesis.assume(len(block))
            x = np.arange(1, block.shape[1] + 1) / block.shape[1]
            with np.errstate(under="ignore"):
                picked = _profile(_columns(GRID[None, :], x), x, block, offset)[0]
            for p, pick in zip(block, picked.tolist()):
                cost = reference_costs(p, offset)
                if pick != cost.argmin():
                    assert cost[pick] - cost.min() <= self.TIE * (p @ p)

        check()


class TestTimestampScale:
    """Rescaling every timestamp by 2^k changes the fit only through h2."""

    def test_power_of_two_scaling_leaves_every_unit_free_value_bit_identical(self, capfd):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        params = UltradiffusionParams(t_N=50, mu=0.1, M=300)
        rng = np.random.default_rng(5)
        stories = [sample_events(params, seed=s) for s in range(4)] + [
            # Memoryless arrivals, which the straight line explains better.
            EventTrace("flat", np.sort(1000.0 * (1.0 - rng.random(300))), 1000.0)
        ]
        # Every scaled time, grid step and 1e-6 of a step stays a normal
        # double, and so does h2 >= 1e-6 / horizon.
        smallest = min(min(t.events[0], 1e-9 * t.horizon) for t in stories)
        largest = max(t.horizon for t in stories)
        low = -1020 - math.floor(math.log2(smallest))
        high = 990 - math.ceil(math.log2(largest))

        def chain_length(fit, count, k):
            # infer_params on h2 in the unscaled unit: whether mu, and so the
            # mapping, is refused moves with the unit (ROADMAP item 10).
            try:
                return infer_params(dataclasses.replace(fit, h2=math.ldexp(fit.h2, k)), count).t_N
            except ValueError as err:
                return str(err)

        def outcomes(traces, k=0):
            horizons, values, faults = curve_block(traces)
            assert faults == [None] * len(traces)
            fits = fit_block(horizons, values)
            rows = []
            for trace, v, fit in zip(traces, values, fits):
                slope, intercept, r2_linear = fit_linear(uniform_grid(trace.horizon), v)
                rows.append({
                    "h1": fit.h1, "h2": fit.h2, "h3": fit.h3, "r2": fit.r2,
                    "t_N": chain_length(fit, trace.count, k),
                    "r2_linear": r2_linear, "slope": slope, "intercept": intercept,
                    "verdict": "saturating" if fit.r2 > r2_linear else "memoryless",
                })
            return rows

        before = outcomes(stories)
        assert [row["verdict"] for row in before] == ["saturating"] * 4 + ["memoryless"]

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.integers(low, high))
        def check(k):
            scaled = [
                EventTrace(t.story_id, np.ldexp(t.events, k), math.ldexp(t.horizon, k))
                for t in stories
            ]
            for old, new in zip(before, outcomes(scaled, k)):
                assert new["h2"] == math.ldexp(old["h2"], -k)
                assert new["slope"] == math.ldexp(old["slope"], -k)
                assert {**new, "h2": old["h2"], "slope": old["slope"]} == old

        check()
        # LAPACK prints its complaints, such as DLASCL's, to stderr.
        assert capfd.readouterr().err == ""


    @pytest.mark.parametrize("offset", [False, True])
    def test_any_positive_scale_changes_only_h2_and_exactly(self, offset):
        # Every curve is fitted on the axis k/n its horizon T is scaled by,
        # so scaling T by any c leaves h1, h3 and r2 bit-identical, and h2 is
        # the normalized rate k over c*T. At T = 1, h2 is k itself.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        params = UltradiffusionParams(t_N=50, mu=0.1, M=300)
        rng = np.random.default_rng(5)
        stories = [sample_events(params, seed=s) for s in range(4)] + [
            EventTrace("flat", np.sort(1000.0 * (1.0 - rng.random(300))), 1000.0)
        ]
        horizons, values, faults = curve_block(stories)
        assert faults == [None] * len(stories)
        unit = fit_block(np.ones(len(stories)), values, offset)

        # c*T within 2^-1000..2^1000: normal, and so is each k/(c*T).
        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.floats(2.0**-1000 / horizons.min(), 2.0**1000 / horizons.max()))
        def check(c):
            scaled = c * horizons
            for fit, base, span in zip(fit_block(scaled, values, offset), unit, scaled):
                assert (fit.h1, fit.h3, fit.r2) == (base.h1, base.h3, base.r2)
                assert fit.h2 == base.h2 / span

        check()


class TestExponentialFitInvariants:
    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError, match="h1"):
            ExponentialFit(h1=0.0, h2=0.1, h3=0.0, r2=0.5)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="h2"):
            ExponentialFit(h1=0.5, h2=-0.1, h3=0.0, r2=0.5)

    def test_rejects_offset_outside_unit_interval(self):
        with pytest.raises(ValueError, match="h3"):
            ExponentialFit(h1=0.5, h2=0.1, h3=1.0, r2=0.5)

    def test_rejects_r2_above_one(self):
        with pytest.raises(ValueError, match="r2"):
            ExponentialFit(h1=0.5, h2=0.1, h3=0.0, r2=1.5)


class TestInferParams:
    def test_roundtrip_mapping_on_published_constants(self):
        fit = ExponentialFit(h1=0.999, h2=0.017, h3=0.155, r2=0.98)
        params = infer_params(fit, M=1500)
        assert params.t_N == 1000
        assert params.mu == pytest.approx(0.010993, abs=1e-5)
        assert params.M == 1500

    def test_roundtrip_rejects_amplitude_at_or_above_one(self):
        fit = ExponentialFit(h1=1.0, h2=0.1, h3=0.0, r2=0.9)
        with pytest.raises(ValueError, match="below 1"):
            infer_params(fit, M=10)

    def test_roundtrip_rejects_tiny_amplitude(self):
        fit = ExponentialFit(h1=0.3, h2=0.1, h3=0.0, r2=0.9)
        with pytest.raises(ValueError, match="rounds below 2"):
            infer_params(fit, M=10)

    def test_roundtrip_rejects_rate_at_or_above_t_n(self):
        fit = ExponentialFit(h1=0.5, h2=3.0, h3=0.0, r2=0.9)
        with pytest.raises(ValueError, match="negative"):
            infer_params(fit, M=10)

    @pytest.mark.parametrize("t_N", [2, 10, 1000])
    def test_rate_just_below_t_n_maps_and_at_t_n_is_refused(self, t_N):
        # Below t_N the quotient t_N/h2 rounds to at least 1, so mu >= 0
        # with no clamp; at t_N the mapping, t_N included, is refused.
        h1 = 1.0 - 1.0 / t_N
        below = ExponentialFit(h1=h1, h2=math.nextafter(t_N, 0), h3=0.0, r2=0.9)
        params = infer_params(below, M=10)
        assert params.t_N == t_N
        assert math.isfinite(params.mu) and params.mu >= 0.0
        at = ExponentialFit(h1=h1, h2=float(t_N), h3=0.0, r2=0.9)
        with pytest.raises(ValueError, match=f"at least t_N={t_N}: mu would be negative"):
            infer_params(at, M=10)

    @pytest.mark.parametrize("mu", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("t_N", [5, 50, 500])
    def test_round_trip_recovers_parameters(self, t_N, mu):
        params = UltradiffusionParams(t_N=t_N, mu=mu, M=100)
        fit = fit_exponential(simulate_curve(params, 5.0 / decay_rate(params)))
        recovered = infer_params(fit, M=100)
        assert recovered.t_N == t_N
        assert recovered.mu == pytest.approx(mu, rel=0.01)


class TestUltradiffusionParams:
    def test_rejects_fractional_t_n(self):
        with pytest.raises(ValueError, match="integer"):
            UltradiffusionParams(t_N=2.5, mu=0.1, M=10)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="at least 2"):
            UltradiffusionParams(t_N=1, mu=0.1, M=10)

    def test_rejects_a_chain_longer_than_the_largest_float(self):
        # The largest float itself is a valid count; one more is refused by
        # name, as is a count that `float()` cannot convert at all.
        biggest = int(sys.float_info.max)
        assert UltradiffusionParams(t_N=biggest, mu=0.1, M=10).t_N == biggest
        for t_N in (biggest + 1, 10**400):
            with pytest.raises(ValueError, match=r"t_N must be at most 1\.79769e\+308"):
                UltradiffusionParams(t_N=t_N, mu=0.1, M=10)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError, match="mu"):
            UltradiffusionParams(t_N=5, mu=-0.1, M=10)

    def test_rejects_zero_saturation_count(self):
        with pytest.raises(ValueError, match="positive count"):
            UltradiffusionParams(t_N=5, mu=0.1, M=0)

    @pytest.mark.parametrize("M", [1000.7, 1000.0, True])
    def test_rejects_non_integer_saturation_count(self, M):
        with pytest.raises(ValueError, match="M must be an integer"):
            UltradiffusionParams(t_N=5, mu=0.1, M=M)

    def test_accepts_numpy_integers(self):
        params = UltradiffusionParams(t_N=np.int64(5), mu=0.1, M=np.int32(10))
        assert (type(params.t_N), type(params.M)) == (int, int)


class TestDecayRate:
    def test_matches_the_slowest_chain_mode(self):
        for t_N, mu in [(2, 0.0), (10, 0.3), (50, 0.2)]:
            params = UltradiffusionParams(t_N=t_N, mu=mu, M=10)
            spectrum = chain_spectrum(t_N, mu)
            assert decay_rate(params) == pytest.approx(
                -spectrum.eigenvalues[-1], rel=1e-12
            )


class TestSimulateCurve:
    def test_starts_at_zero(self):
        # The grid excludes t = 0, where the curve is 0; over a window too
        # short for any response to register, every value is 0.
        params = UltradiffusionParams(t_N=7, mu=0.2, M=10)
        curve = simulate_curve(params, 1e-20)
        assert curve.grid[0] > 0.0 and curve.values[0] == 0.0

    def test_two_state_curve_closed_form(self):
        params = UltradiffusionParams(t_N=2, mu=0.0, M=10)
        curve = simulate_curve(params, 3.0)
        assert curve.horizon == 3.0 and curve.values.size == 200
        np.testing.assert_allclose(curve.values, 0.5 * (1.0 - np.exp(-2.0 * uniform_grid(3.0))))

    def test_complements_survival_probability(self):
        params = UltradiffusionParams(t_N=20, mu=0.15, M=10)
        curve = simulate_curve(params, 30.0)
        np.testing.assert_allclose(
            curve.values, 1.0 - survival_probability(20, 0.15, curve.grid), atol=1e-14
        )

    def test_matches_master_equation_oracle(self):
        t_N, mu = 8, 0.3
        params = UltradiffusionParams(t_N=t_N, mu=mu, M=10)
        curve = simulate_curve(params, 5.0 / decay_rate(params))
        gen = build_generator(uniform_chain(t_N), mu)
        traj = integrate_master_equation(
            gen, ProbabilityVector.characteristic(t_N, t_N), curve.grid
        )
        assert np.max(np.abs(curve.values - (1.0 - traj[:, t_N - 1]))) <= 1e-6

    def test_values_do_not_depend_on_saturation_count(self):
        small = simulate_curve(UltradiffusionParams(t_N=10, mu=0.1, M=10), 10.0)
        large = simulate_curve(UltradiffusionParams(t_N=10, mu=0.1, M=10**6), 10.0)
        np.testing.assert_array_equal(small.values, large.values)


class TestSampleEvents:
    def test_same_seed_gives_identical_traces(self):
        params = UltradiffusionParams(t_N=20, mu=0.1, M=500)
        a = sample_events(params, seed=42)
        b = sample_events(params, seed=42)
        np.testing.assert_array_equal(a.events, b.events)
        assert a.horizon == b.horizon

    def test_different_seeds_differ(self):
        params = UltradiffusionParams(t_N=20, mu=0.1, M=500)
        a = sample_events(params, seed=1)
        b = sample_events(params, seed=2)
        assert not np.array_equal(a.events, b.events)

    def test_single_draw_lies_in_the_window(self):
        params = UltradiffusionParams(t_N=5, mu=0.3, M=1)
        for seed in range(30):
            trace = sample_events(params, seed=seed)
            assert trace.count == 1
            assert 0.0 < trace.events[0] <= trace.horizon

    def test_default_horizon_is_five_relaxation_times(self):
        params = UltradiffusionParams(t_N=12, mu=0.25, M=10)
        trace = sample_events(params, seed=0)
        assert trace.horizon == pytest.approx(5.0 / decay_rate(params))

    def test_horizon_override_bounds_every_event(self):
        params = UltradiffusionParams(t_N=12, mu=0.25, M=200)
        trace = sample_events(params, seed=5, horizon=3.0)
        assert trace.horizon == 3.0
        assert np.max(trace.events) <= 3.0

    @pytest.mark.parametrize("t_N, mu", [(10_000, 0.1), (3, 1e308), (2, 740.0)])
    def test_underflowing_decay_rate_has_no_default_horizon(self, t_N, mu):
        # The rate is 0 or so small that five relaxation times overflow.
        params = UltradiffusionParams(t_N=t_N, mu=mu, M=10)
        with pytest.raises(ValueError, match="underflows"):
            sample_events(params, seed=0)

    def test_underflowing_decay_rate_samples_within_a_given_horizon(self):
        # Nothing responds before the horizon, so every event sits on it.
        params = UltradiffusionParams(t_N=10_000, mu=0.1, M=10)
        trace = sample_events(params, seed=0, horizon=40.0)
        assert np.all(trace.events == 40.0)

    def test_large_sample_follows_the_response_law(self):
        # Kolmogorov-Smirnov distance against the sampling law: the response
        # CDF below the horizon, with the never-responding share sitting
        # exactly at the horizon.
        params = UltradiffusionParams(t_N=50, mu=0.2, M=10_000)
        trace = sample_events(params, seed=77)
        span = trace.horizon
        rate = decay_rate(params)
        amplitude = (params.t_N - 1) / params.t_N
        censored = trace.events == span
        inner = trace.events[~censored]
        law = amplitude * -np.expm1(-rate * inner)
        ranks = np.arange(1, inner.size + 1) / params.M
        distance = max(
            float(np.max(np.abs(ranks - law))),
            float(np.max(np.abs(law - (ranks - 1.0 / params.M)))),
        )
        assert distance < 0.02
        never = 1.0 - amplitude * -math.expm1(-rate * span)
        assert censored.mean() == pytest.approx(never, abs=0.01)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r_squared([0.5], [0.5]), "r_squared needs at least 2 points"),
        (lambda: sample_events(UltradiffusionParams(t_N=50, mu=0.1, M=10), seed=0, horizon=0.0),
         "horizon must be positive"),
        (lambda: sample_events(UltradiffusionParams(t_N=50, mu=0.1, M=10), seed=0, horizon=-1.0),
         "horizon must be positive"),
    ],
    ids=["r_squared-one-point", "sample_events-zero-horizon", "sample_events-negative-horizon"],
)
def test_refusals_read_as_pinned(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
