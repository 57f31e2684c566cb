"""Two reference regimes: memoryless growth and hierarchical power laws.

Memoryless (Poisson) arrivals land uniformly on the observation window, so
their event curve is the straight line t/T0 and a linear fit beats the
saturating exponential on it; that contrast is the discriminator. Deep
uniform trees relax as a power law t^(-v) whose exponent follows from the
branching factor and level spacing.
"""

import numpy as np

from ultradiffusion.baselines import PowerLawModel, fit_linear, loglog_slope, power_law_curve
from ultradiffusion.fitting import fit_exponential
from ultradiffusion.traces import PopularityCurve, uniform_grid


def banner(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    banner("Memoryless growth is linear, not saturating")
    window = 10.0
    grid = uniform_grid(window, 200)
    line = grid / window
    curve = PopularityCurve(horizon=window, values=line)
    slope, intercept, r2_lin = fit_linear(grid, line)
    r2_exp = fit_exponential(curve).r2
    print(f"memoryless event curve on (0, {window:g}]: value = t/{window:g}")
    print(f"linear fit:                r2 = {r2_lin:.12f}")
    print(f"saturating-exponential fit: r2 = {r2_exp:.12f}")
    verdict = "memoryless" if r2_lin > r2_exp else "saturating"
    print(f"the better fit calls this curve {verdict}")

    banner("Power-law relaxation on a deep binary hierarchy")
    plaw = PowerLawModel(b=2, delta_h=1.0)
    print(f"branching b = {plaw.b}, level spacing delta_h = {plaw.delta_h}")
    print(f"silhouette s = ln(b)/delta_h = {plaw.s:.6f} (< 1, power-law regime)")
    print(f"exponent v = s/(1 - s) = {plaw.v:.5f}")
    t = np.geomspace(1e2, 1e4, 200)
    curve60 = power_law_curve(plaw, t)
    slope = loglog_slope(t, curve60.series)
    gap = np.max(np.abs(curve60.series / curve60.asymptote - 1.0))
    print(f"\n60-term series over t in [1e2, 1e4]:")
    print(f"log-log slope = {slope:.5f} (asymptote -v = {-plaw.v:.5f})")
    print(f"worst series-vs-asymptote gap = {gap:.2e} (relative)")
    print(f"series truncation bound = {curve60.truncation_bound:.2e}")


if __name__ == "__main__":
    main()
