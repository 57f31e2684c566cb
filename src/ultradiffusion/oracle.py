"""Independent numerical ground truth for the closed forms.

The probability flow dP/dt = rates @ P is integrated with adaptive
Dormand-Prince 4(5) stepping, from one start distribution
(`integrate_master_equation`) or from every start state at once as the
n x n propagator (`integrate_propagator`), and spectra are recomputed
with a dense symmetric eigensolver. Nothing here reuses the closed-form
results, so agreement between the two routes is evidence, not tautology.
scipy's integrator is loaded at the first integration, not on import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import Generator
from .spectral import _check_index
from .traces import _readonly

__all__ = [
    "ProbabilityVector",
    "integrate_master_equation",
    "integrate_propagator",
    "numeric_spectrum",
]


@dataclass(frozen=True)
class ProbabilityVector:
    """A distribution over states: nonnegative entries that sum to one."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 1 or entries.size == 0:
            raise ValueError("entries must be a nonempty vector")
        if not np.min(entries) >= -1e-12:
            raise ValueError("entries must be nonnegative")
        drift = abs(float(entries.sum()) - 1.0)
        if not drift <= 1e-9:
            raise ValueError(f"entries must sum to 1, off by {drift:g}")

    @classmethod
    def characteristic(cls, n: int, state: int) -> "ProbabilityVector":
        """Unit mass on one state, numbered 1..n."""
        entries = np.zeros(n)
        entries[_check_index(state, n, "state") - 1] = 1.0
        return cls(entries=entries)


def integrate_master_equation(gen: Generator, p0: ProbabilityVector, grid) -> np.ndarray:
    """Trajectory of dP/dt = rates @ P sampled at `grid`.

    `p0` is the distribution at t = 0, a `ProbabilityVector` (so it is
    nonnegative and sums to 1); anything else raises TypeError. Integration
    runs from 0 to the last grid time and is sampled at the grid points
    (which need not include 0). Returns an array of shape (len(grid), n)
    whose rows each sum to 1 within 1e-9; a larger drift or an integrator
    failure raises with diagnostics.
    """
    if not isinstance(p0, ProbabilityVector):
        raise TypeError(f"p0 must be a ProbabilityVector, got {type(p0).__name__}")
    start = p0.entries
    if start.shape != (gen.size,):
        raise ValueError(f"p0 has shape {start.shape}, generator needs ({gen.size},)")
    return _integrate(gen, start, grid)


def integrate_propagator(gen: Generator, grid) -> np.ndarray:
    """Transition probabilities P(t) = exp(rates * t) sampled at `grid`.

    One integration of dP/dt = rates @ P from P(0) = I covers every start
    state at once. Returns an array of shape (len(grid), n, n) whose entry
    [k, j, i] is the probability of being in state j at grid[k] after
    starting in state i, so column i is the trajectory from state i. The
    grid, tolerances and drift check are those of
    `integrate_master_equation`, with the drift checked column by column.
    """
    return _integrate(gen, np.eye(gen.size), grid)


def _integrate(gen: Generator, start: np.ndarray, grid) -> np.ndarray:
    """Integrate dP/dt = rates @ P from `start`, of shape (n,) or (n, k).

    The state is flattened for the solver and each evaluation reshapes it,
    so a vector start keeps the matrix-vector product.
    """
    # Imported here: scipy.integrate is only needed once an integration runs.
    from scipy.integrate import solve_ivp

    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("grid must be a nonempty vector of times")
    if not np.all(np.isfinite(times)):
        raise ValueError("grid times must be finite")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("grid times must be nonnegative and nondecreasing")
    if times[-1] == 0.0:
        return np.broadcast_to(start, (times.size, *start.shape)).copy()

    rates = gen.rates
    shape = start.shape
    # Gershgorin bound |lambda| <= 2*max|diag| sets the opening step size.
    scale = 2.0 * float(np.max(np.abs(np.diagonal(rates))))
    first = 1e-3 / scale if scale > 0 else None
    sol = solve_ivp(
        lambda _t, y: (rates @ y.reshape(shape)).ravel(),
        (0.0, float(times[-1])),
        start.ravel(),
        method="RK45",
        t_eval=times,
        rtol=1e-8,
        atol=1e-9,
        first_step=first,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    traj = sol.y.T.reshape(times.size, *shape)
    # One drift per time and start column: shape (len(grid),) or (len(grid), k).
    drifts = np.abs(traj.sum(axis=1) - 1.0)
    drift = float(np.max(drifts))
    if drift > 1e-9:
        where = np.unravel_index(int(np.argmax(drifts)), drifts.shape)
        origin = f" from start state {where[1] + 1}" if len(where) > 1 else ""
        raise RuntimeError(f"probability drifted by {drift:g} at t={times[where[0]]:g}{origin}")
    return traj


def numeric_spectrum(gen: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigendecomposition of the generator.

    Returns (eigenvalues ascending, eigenvectors as columns). The
    reconstruction V diag(w) V^T is checked against the input to within
    1e-9 of its largest entry.
    """
    rates = np.asarray(gen.rates, dtype=float)
    w, v = np.linalg.eigh(rates)
    top = max(1e-300, float(np.max(np.abs(rates))))
    residual = float(np.max(np.abs((v * w) @ v.T - rates)))
    if residual > 1e-9 * top:
        raise RuntimeError(f"eigendecomposition residual {residual:g} exceeds 1e-9*{top:g}")
    return w, v
