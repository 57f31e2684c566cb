"""Acceptance gate: one test per self check, tolerances pinned here.

Runs the full check suite once, then holds each check to the tolerance
and runtime budget written out in this file, re-asserting the clauses
that the scalar `measured` value alone does not cover.
"""

import math
import re

import numpy as np
import pytest

from ultradiffusion import checks
from ultradiffusion.baselines import PowerLawModel, loglog_slope, power_law_curve
from ultradiffusion.fitting import exponential_model
from ultradiffusion.generator import build_generator
from ultradiffusion.oracle import ProbabilityVector, integrate_master_equation
from ultradiffusion.spectral import chain_spectrum
from ultradiffusion.traces import uniform_grid
from ultradiffusion.ultrametric import uniform_chain

# name -> (tolerance, runtime budget in seconds). Checks without a budget
# of their own inherit the 60 s whole-suite limit.
PINNED = {
    "distance-matrix-reproduction": (0.0, 1e-3),
    "random-trace-ultrametricity": (0.0, 10.0),
    "chain-spectrum-residuals": (1e-10, 5.0),
    "master-equation-agreement": (1e-6, 5.0),
    "survival-identity": (1e-12, 60.0),
    "fit-round-trip": (1e-6, 2.0),
    "end-to-end-synthetic": (0.99, 5.0),
    "saturation-curve-constants": (1e-9, 60.0),
    "poisson-discriminator": (0.0, 60.0),
    "power-law-regime": (0.03, 1.0),
}


@pytest.fixture(scope="module")
def suite():
    results = checks.run_all()
    return {r.name: r for r in results}


def _gate(suite, name):
    result = suite[name]
    tolerance, budget = PINNED[name]
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"[{verdict}] {name}: measured={result.measured:.6g} "
        f"tolerance={tolerance:g} runtime={result.runtime_s:.4f}s "
        f"budget={budget:g}s"
    )
    assert result.tolerance == tolerance
    assert result.budget_s == budget
    assert result.runtime_s < budget
    assert result.passed
    return result


def _detail_float(result, pattern):
    match = re.search(pattern, result.detail)
    assert match, f"detail lacks {pattern!r}: {result.detail}"
    return float(match.group(1))


def test_registry_covers_the_pinned_checks():
    assert checks.CHECK_NAMES == tuple(PINNED)


def test_worked_distance_matrix_is_exact(suite):
    result = _gate(suite, "distance-matrix-reproduction")
    assert result.measured == 0.0
    assert "X_17" in result.detail


def test_random_traces_are_all_ultrametric(suite):
    result = _gate(suite, "random-trace-ultrametricity")
    assert result.measured == 0.0


def test_chain_spectra_match_the_dense_eigensolver(suite):
    result = _gate(suite, "chain-spectrum-residuals")
    assert result.measured <= 1e-10
    gap = _detail_float(result, r"eigenvalue gap ([0-9.e+-]+)")
    assert gap <= 1e-9


def test_closed_forms_match_the_integrated_master_equation(suite):
    result = _gate(suite, "master-equation-agreement")
    assert result.measured <= 1e-6
    # The conservation clause, asserted directly on one trajectory.
    gen = build_generator(uniform_chain(20), 0.1)
    spec = chain_spectrum(20, 0.1)
    grid = uniform_grid(5.0 / abs(spec.eigenvalues[1]), 100)
    traj = integrate_master_equation(gen, ProbabilityVector.characteristic(20, 1), grid)
    assert np.max(np.abs(traj.sum(axis=1) - 1.0)) <= 1e-9


def test_survival_equals_last_state_autocorrelation(suite):
    result = _gate(suite, "survival-identity")
    assert result.measured <= 1e-12


def test_noiseless_fit_round_trip(suite):
    result = _gate(suite, "fit-round-trip")
    assert result.measured <= 1e-6
    assert "t_N exact: True" in result.detail
    mu_err = _detail_float(result, r"mu error ([0-9.e+-]+)")
    assert mu_err <= 0.01


def test_end_to_end_synthetic_batch(suite):
    result = _gate(suite, "end-to-end-synthetic")
    assert result.measured >= 0.99
    assert "recovered t_N=50" in result.detail


def test_documented_curve_constants_evaluate_consistently(suite):
    result = _gate(suite, "saturation-curve-constants")
    assert result.measured <= 1e-9
    value = float(exponential_model(100.0, 0.999, 0.017, 0.155))
    reference = 0.999 * (1.0 - math.exp(-1.7)) + 0.155
    assert value == pytest.approx(reference, abs=1e-9)


def test_linear_fit_wins_on_memoryless_growth(suite):
    result = _gate(suite, "poisson-discriminator")
    assert result.measured < 0.0


def test_power_law_regime_slope_and_asymptote(suite):
    result = _gate(suite, "power-law-regime")
    # Slope and gap clauses re-derived here against the quoted exponent.
    model = PowerLawModel(b=2, delta_h=1.0)
    t = np.geomspace(1e2, 1e4, 200)
    curve = power_law_curve(model, t)
    slope = loglog_slope(t, curve.series)
    assert abs(slope + 2.2589) / 2.2589 <= 0.03
    gap = np.max(np.abs(curve.series / curve.asymptote - 1.0))
    assert gap <= 0.05


def test_whole_suite_fits_the_runtime_budget(suite):
    total = sum(result.runtime_s for result in suite.values())
    print(f"[INFO] whole-suite runtime {total:.2f}s (budget 60s)")
    assert len(suite) == 10
    assert total < 60.0
