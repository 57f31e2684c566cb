"""Fixed reference computations that measure how fast the machine runs at
the moment, so that a rate can be reported per reference time.

On the shared 2-core Xeon VM this was built on, the host changes the speed
it gives each CPU of the VM, within a second and for seconds or minutes at
a time, and process CPU time does not remove it: the same 1M-row aggregate
pass takes 0.9 s of CPU at one moment and 1.4-1.9 s at another. Each run
therefore times, between its passes, a reference that never calls the
library and works on inputs fixed once and for all. A rate per reference
time cancels a change of host speed as far as the workload and the
reference slow down alike; a change in the library moves only the workload.

Work slows down by different factors in the slow spells, so there are two
references, and each workload uses the one whose factor (slow over fast CPU
time of the same work, measured on that VM) is closest to its own:

- `fit`: Levenberg-Marquardt fits through scipy, Python-heavy, about
  0.025 s per run; factor 1.55-1.6, as for batch-fit (1.55-1.6, on one
  CPU), batch-aggregate (1.58) and compare-export (1.55).
- `kernels`: a triple scan of a 180-state matrix, exponential sums and
  deep recursion, mostly numpy on small arrays, about 0.012 s per run;
  factor 1.2-1.3, as for model-verify (1.27) and the set-up imports
  (1.35-1.4).
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import least_squares

REF_SEED = 1310
PARTS = ("fit", "kernels")


def _fit(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt fit of h1*(1 - e^(-h2*x)) from a few starts."""

    def residual(theta):
        return theta[0] * (1.0 - np.exp(-theta[1] * x)) - p

    def jacobian(theta):
        decay = np.exp(-theta[1] * x)
        return np.column_stack([1.0 - decay, theta[0] * x * decay])

    best = None
    for h2 in (0.1, 1.0, 10.0, 100.0):
        result = least_squares(residual, [p[-1], h2], jac=jacobian, method="lm")
        if best is None or result.cost < best.cost:
            best = result
    return best.x


def _triple_scan(dist: np.ndarray) -> bool:
    ok = True
    for k in range(dist.shape[0]):
        ok &= not np.any(dist > np.maximum.outer(dist[:, k], dist[k, :]))
    return ok


def _relax(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.exp(-np.outer(rates, times)).sum(axis=0)


def _depth(n: int) -> int:
    return 0 if n == 0 else 1 + _depth(n - 1)


class Reference:
    """The fixed inputs, built once; `run(part)` runs one reference once."""

    def __init__(self):
        rng = np.random.default_rng(REF_SEED)
        self.x = np.linspace(0.005, 1.0, 200)
        self.curves = [
            h1 * (1.0 - np.exp(-h2 * self.x)) + rng.normal(0.0, 0.002, self.x.size)
            for h1, h2 in zip(rng.uniform(0.9, 0.99, 15), rng.uniform(2.0, 12.0, 15))
        ]
        times = np.sort(rng.random(180))
        self.matrix = np.maximum.outer(times, times)
        np.fill_diagonal(self.matrix, 0.0)
        self.rates = np.geomspace(1e-3, 1.0, 2000)
        self.times = np.geomspace(1e-3, 1e3, 64)

    def _part(self, part: str) -> None:
        if part == "fit":
            for p in self.curves:
                _fit(self.x, p)
        elif part == "kernels":
            _triple_scan(self.matrix)
            for _ in range(5):
                _relax(self.rates, self.times)
                _depth(800)
        else:
            raise KeyError(part)

    def run(self, part: str) -> float:
        """Process CPU seconds of one run of `part`. The garbage collector
        is off while it runs, so its time does not depend on how many
        objects the workload has left alive in this process."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            self._part(part)
            return time.process_time() - start
        finally:
            if enabled:
                gc.enable()
