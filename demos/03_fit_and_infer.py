"""Fit the saturating growth law to a bundled trace and invert the fit.

Loads the synthetic thousand-event trace shipped under data/, builds its
normalized cumulative response curve, fits p(t) = h1*(1 - exp(-h2*t)), and
maps the fitted constants back to the chain parameters that generated the
trace. Ends with the documented server-fit constants as a fixed point of
the same curve family.
"""

from pathlib import Path

import numpy as np

from ultradiffusion.fitting import (
    exponential_model,
    fit_exponential,
    infer_params,
    r_squared,
    simulate_curve,
)
from ultradiffusion.traces import PopularityCurve, curve_block, parse_trace_csv

DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic_t50_mu02.csv"


def banner(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    banner("Bundled trace")
    (trace,) = parse_trace_csv(DATA)
    print(f"story {trace.story_id!r}: {trace.count} events over "
          f"{trace.horizon:.0f} time units")
    print("(generated from a 50-state chain at mu = 0.2)")

    banner("Saturating-exponential fit")
    (horizon,), (values,), _ = curve_block([trace])
    curve = PopularityCurve(horizon, values)
    fit = fit_exponential(curve)
    print(f"h1 = {fit.h1:.5f}   (saturation level, model limit (t_N-1)/t_N)")
    print(f"h2 = {fit.h2:.3e} (initial decay rate)")
    print(f"r2 = {fit.r2:.5f}")

    banner("Inverting the fit")
    params = infer_params(fit, M=trace.count)
    print(f"recovered t_N = {params.t_N} (truth 50), mu = {params.mu:.4f} (truth 0.2)")
    simulated = simulate_curve(params, curve.horizon)
    r2_sim = r_squared(curve.values, simulated.values)
    print(f"curve regenerated from the recovered parameters: "
          f"r2 against the data = {r2_sim:.5f}")

    banner("Observed vs fitted vs regenerated, a few grid points")
    fitted = exponential_model(curve.grid, fit.h1, fit.h2, fit.h3)
    picks = np.linspace(0, curve.grid.size - 1, 6, dtype=int)
    print(f"{'t':>10}{'observed':>11}{'fitted':>11}{'regenerated':>13}")
    for k in picks:
        print(f"{curve.grid[k]:>10.1f}{curve.values[k]:>11.4f}"
              f"{fitted[k]:>11.4f}{simulated.values[k]:>13.4f}")

    banner("Documented server-fit constants")
    h1, h2, h3 = 0.999, 0.017, 0.155
    value = float(exponential_model(100.0, h1, h2, h3))
    print(f"p(t) = {h1}*(1 - exp(-{h2}*t)) + {h3}")
    print(f"at t = 100: {value:.9f}")
    print(f"algebraic form 0.999*(1 - e^-1.7) + 0.155 = "
          f"{0.999 * (1 - np.exp(-1.7)) + 0.155:.9f}")


if __name__ == "__main__":
    main()
