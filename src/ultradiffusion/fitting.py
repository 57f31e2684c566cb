"""Saturation-curve fitting and parameter inference.

Popularity curves saturate like p(t) = h1*(1 - e^(-h2*t)) + h3. The fit is
variable projection (Golub & Pereyra 1973): h1 and h3 enter linearly, so
for each decay rate they are solved in closed form and the least-squares
problem shrinks to one dimension, the rate. That profile is scanned on a
fixed grid and refined to machine precision, all on a normalized time axis,
so the result does not depend on whether t is in seconds or weeks. Fitted
constants map onto model parameters: the chain length t_N and the distance
decay mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traces import EventTrace, PopularityCurve, _integer

__all__ = [
    "ExponentialFit",
    "FitError",
    "UltradiffusionParams",
    "decay_rate",
    "exponential_model",
    "fit_exponential",
    "infer_params",
    "r_squared",
    "sample_events",
    "simulate_curve",
]


class FitError(RuntimeError):
    """A least-squares fit that could not be carried out."""


@dataclass(frozen=True)
class ExponentialFit:
    """Fitted constants of p(t) = h1*(1 - e^(-h2*t)) + h3."""

    h1: float
    h2: float
    h3: float
    r2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h1) and self.h1 > 0):
            raise ValueError(f"amplitude h1 must be positive, got {self.h1}")
        if not (math.isfinite(self.h2) and self.h2 > 0):
            raise ValueError(f"rate h2 must be positive, got {self.h2}")
        if not (0.0 <= self.h3 < 1.0):
            raise ValueError(f"offset h3 must lie in [0, 1), got {self.h3}")
        if not (math.isfinite(self.r2) and self.r2 <= 1.0):
            raise ValueError(f"r2 must be at most 1, got {self.r2}")


@dataclass(frozen=True)
class UltradiffusionParams:
    """Chain length t_N, distance decay mu, and saturation count M."""

    t_N: int
    mu: float
    M: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_N", _integer(self.t_N, "t_N"))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "M", _integer(self.M, "M"))
        if self.t_N < 2:
            raise ValueError(f"t_N must be at least 2, got {self.t_N}")
        if not math.isfinite(self.mu) or self.mu < 0:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if self.M < 1:
            raise ValueError("M must be a positive count")


def exponential_model(t, h1: float, h2: float, h3: float = 0.0):
    """Saturating exponential h1*(1 - e^(-h2*t)) + h3."""
    return -h1 * np.expm1(-h2 * np.asarray(t, dtype=float)) + h3


def r_squared(observed, predicted) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.shape != pred.shape or obs.ndim != 1:
        raise ValueError("observed and predicted must be vectors of equal length")
    if obs.size < 2:
        raise ValueError("r_squared needs at least 2 points")
    total = float(np.sum((obs - obs.mean()) ** 2))
    if total == 0.0:
        raise ValueError("observed values are constant, r_squared is undefined")
    return 1.0 - float(np.sum((obs - pred) ** 2)) / total


# Normalised decay rates k = h2*T (T the last grid time) that the coarse grid
# covers, four a decade: from a curve indistinguishable from a straight line
# (k = 1e-6) to one that saturates within the first 1/10^4 of the window.
_RATES = np.geomspace(1e-6, 1e4, 41)
# Largest offset below 1, where h3 is held when its free value reaches 1.
_H3_MAX = float(np.nextafter(1.0, 0.0))
# Refinement stops after a move of k by less than this fraction, or after
# _MAX_POLISH profile evaluations.
_K_RTOL = 1e-10
_MAX_POLISH = 60


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _profile(rates: np.ndarray, x: np.ndarray, p: np.ndarray, offset: bool):
    """Best linear constants at each normalized rate k, by variable projection.

    For fixed k the model h1*b + h3 with b = 1 - e^(-k*x) is linear in h1 and
    h3, which are solved in closed form under h1 >= 0 and 0 <= h3 < 1.
    Returns arrays (h1, h3, residual sum of squares, Gauss-Newton step in k),
    one entry per rate. h1 = 0 marks a rate where no positive amplitude
    fits, which only an offset held at 1 allows. The step is Kaufman's for
    variable projection (BIT 15, 49, 1975): the model's k-derivative
    h1*x*e^(-k*x), less its projection on the columns solved for, regressed
    against the residual.
    """
    kx = rates[:, None] * x
    basis = -np.expm1(-kx)  # keeps its digits as k -> 0
    bb = _rowdot(basis, basis)  # > 0: the last point has x = 1
    bp = basis @ p
    if offset:
        pm = float(p.mean())
        bm = basis.mean(axis=1)
        centered = basis - bm[:, None]
        cc = _rowdot(centered, centered)
        cp = centered @ p
        # The free solution is h1 = cp/cc, h3 = pm - h1*bm. Test its bounds
        # without dividing, so collinear columns (cc -> 0) give no inf or NaN.
        low = cp * bm > pm * cc
        high = cp * bm < (pm - _H3_MAX) * cc
        free = (cp > 0) & ~low & ~high
        h1 = np.divide(cp, cc, out=np.zeros_like(cp), where=free)
        # Outside [0, 1) the offset is held at the nearer bound and h1 solved
        # alone; inside, the clip only absorbs rounding.
        h3 = np.where(low, 0.0, np.where(high, _H3_MAX, np.clip(pm - h1 * bm, 0.0, _H3_MAX)))
        h1 = np.where(low | high, (bp - h3 * x.size * bm) / bb, h1)
        # A nonpositive amplitude means the best fit with h1 >= 0 has h1 = 0.
        none = h1 <= 0
        h1[none] = 0.0
        h3[none] = min(max(pm, 0.0), _H3_MAX)
        # p - h3 - h1*b, written so that it is exactly centered for free rows.
        shift = np.where(free, 0.0, pm - h3 - h1 * bm)
        resid = (p - pm) - h1[:, None] * centered + shift[:, None]
    else:
        # h1 > 0: a nondecreasing, nonconstant curve ends above 0.
        free = np.zeros(rates.size, dtype=bool)
        h1 = bp / bb
        h3 = np.zeros(rates.size)
        resid = p - h1[:, None] * basis
    slope = h1[:, None] * x * np.exp(-kx)
    # With h3 free, projecting off b and the constant is projecting the
    # centered slope off the centered b; otherwise h1 alone is solved.
    along = slope - basis * (_rowdot(basis, slope) / bb)[:, None]
    if free.any():
        centered_slope = slope[free] - slope[free].mean(axis=1, keepdims=True)
        scale = _rowdot(centered[free], centered_slope) / cc[free]
        along[free] = centered_slope - centered[free] * scale[:, None]
    jj = _rowdot(along, along)
    step = np.divide(_rowdot(along, resid), jj, out=np.zeros_like(jj), where=jj > 0)
    return h1, h3, _rowdot(resid, resid), step


def fit_exponential(curve: PopularityCurve, offset: bool = False) -> ExponentialFit:
    """Least-squares fit of h1*(1 - e^(-h2*t)) (+ h3 when `offset`) to a curve.

    Parameters
    ----------
    curve : PopularityCurve
        Observed curve; needs at least 3 points and some dynamics.
    offset : bool
        Fit the additive constant h3 as a third parameter. Off by default,
        in which case h3 is reported as exactly 0.

    Returns
    -------
    ExponentialFit
        The least-squares constants, with the fit's r_squared.

    Notes
    -----
    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): h1 and h3 enter linearly, so for each normalized rate k = h2*T
    (T the last grid time) they are solved in closed form, with h1 > 0 and
    0 <= h3 < 1 enforced by holding h3 at a bound when its free value leaves
    [0, 1). The residual sum is then a function of k alone. It is scanned on
    a geometric grid from 1e-6 to 1e4, and the best grid point is refined
    inside the bracket of its neighbours by Gauss-Newton steps on the
    reduced problem (Kaufman, BIT 15, 49, 1975), accelerated by a secant and
    halved on overshoot, until k moves by less than 1e-10 of itself; 3-7
    profile evaluations on sampled curves. Deterministic, and rescaling the
    time axis by c rescales h2 by 1/c and changes nothing else. A straight
    line, the family's k -> 0 limit, fits at k = 1e-6 with r2 a little
    below the line's.
    """
    t = curve.grid
    p = curve.values
    if t.size < 3:
        raise FitError("need at least 3 points to fit")
    if float(np.max(p) - np.min(p)) <= 1e-14 * max(1.0, float(np.max(np.abs(p)))):
        raise FitError("no dynamics to fit: curve is constant")
    span = float(t[-1])
    x = t / span

    with np.errstate(under="ignore"):
        h1s, h3s, costs, steps = _profile(_RATES, x, p, offset)
        i = int(np.argmin(costs))
        lo, hi = _RATES[max(i - 1, 0)], _RATES[min(i + 1, _RATES.size - 1)]
        k, h1, h3, cost, step = _RATES[i], h1s[i], h3s[i], costs[i], steps[i]
        k_prev = s_prev = None
        for _ in range(_MAX_POLISH):
            # Gauss-Newton converges only linearly on a curve the model misses;
            # a secant on the step, a function of k with its root at the
            # optimum, makes it superlinear.
            move = step
            if k_prev is not None and (slope := (step - s_prev) / (k - k_prev)) < 0:
                move = -step / slope
            trial = min(max(k + move, lo), hi)
            if trial == k:
                break
            t_h1, t_h3, t_cost, t_step = (v[0] for v in _profile(np.array([trial]), x, p, offset))
            # A move this small is at the rounding level of the profile: the
            # last one made or tried.
            small = abs(trial - k) <= _K_RTOL * k
            # Near the optimum the residual sum stops resolving k before the
            # step does, so a shorter step also counts as progress.
            if t_cost >= cost and abs(t_step) >= abs(step):
                if small:
                    break
                step, k_prev = (trial - k) / 2, None  # overshot: back off towards k
                continue
            k_prev, s_prev = k, step
            k, h1, h3, cost, step = trial, t_h1, t_h3, t_cost, t_step
            if small:
                break
    h2 = float(k) / span
    fitted = exponential_model(t, float(h1), h2, float(h3))
    return ExponentialFit(h1=float(h1), h2=h2, h3=float(h3), r2=r_squared(p, fitted))


def infer_params(fit: ExponentialFit, M: int) -> UltradiffusionParams:
    """Map fitted (h1, h2) onto model parameters (t_N, mu).

    Inverts the simulated curve, whose amplitude is (t_N-1)/t_N and whose
    rate is t_N*e^(-mu*(t_N-1)): so t_N = round(1/(1-h1)) and
    mu = ln(t_N/h2)/(t_N-1), clamped at mu >= 0. The published mapping
    t_N = round(1/(1-h2)), mu = ln(t_N/h1)/(t_N-1) and the printed amplitude
    1/t_N do not invert the curve this library simulates, so they are not
    offered.
    """
    if fit.h1 >= 1.0:
        raise ValueError(
            f"amplitude h1={fit.h1:.6g} must be below 1 to invert: "
            "the model saturates at (t_N-1)/t_N"
        )
    raw = 1.0 / (1.0 - fit.h1)
    t_N = round(raw)
    if t_N < 2:
        raise ValueError(f"mapped t_N={raw:.4g} rounds below 2: no chain this short")
    if fit.h2 <= 0:
        raise ValueError("decay rate h2 must be positive")
    if fit.h2 >= t_N:
        raise ValueError(
            f"decay rate h2={fit.h2:.6g} is at least t_N={t_N}: mu would be negative"
        )
    mu = max(math.log(t_N / fit.h2) / (t_N - 1), 0.0)
    return UltradiffusionParams(t_N=t_N, mu=mu, M=M)


def decay_rate(params: UltradiffusionParams) -> float:
    """Single relaxation rate t_N*e^(-mu*(t_N-1)) of the no-rebroadcast state."""
    return params.t_N * math.exp(-params.mu * (params.t_N - 1))


def simulate_curve(params: UltradiffusionParams, grid) -> PopularityCurve:
    """Model response curve p(t) = A*(1 - e^(-rate*t)) on `grid`.

    The amplitude is A = (t_N-1)/t_N, the never-responding share being 1/t_N.
    """
    times = np.asarray(grid, dtype=float)
    amplitude = (params.t_N - 1) / params.t_N
    values = amplitude * (1.0 - np.exp(-decay_rate(params) * times))
    return PopularityCurve(grid=times, values=values, saturation_count=params.M)


def sample_events(
    params: UltradiffusionParams,
    seed,
    horizon: float | None = None,
    story_id: str = "sim",
) -> EventTrace:
    """Draw M event times from the model response law, deterministically per seed.

    Each of the M potential rebroadcasts inverts a uniform draw through
    p(t) = A*(1 - e^(-rate*t)); draws beyond p(horizon), including the 1/t_N
    share that never responds, are recorded at exactly the horizon. The
    default horizon is five relaxation times.
    """
    rate = decay_rate(params)
    if horizon is None:
        span = 5.0 / rate if rate > 0 else math.inf
        if span == math.inf:
            raise ValueError(
                f"decay rate t_N*e^(-mu*(t_N-1)) = {rate:g} underflows, so five "
                "relaxation times is no finite horizon; give a horizon"
            )
    else:
        span = float(horizon)
    if span <= 0:
        raise ValueError("horizon must be positive")
    amplitude = (params.t_N - 1) / params.t_N
    reach = amplitude * -math.expm1(-rate * span)
    rng = np.random.default_rng(seed)
    # 1 - random() lies in (0, 1], so inverted times stay strictly positive.
    u = 1.0 - rng.random(params.M)
    responded = u < reach
    times = np.full(params.M, span)
    times[responded] = -np.log1p(-u[responded] / amplitude) / rate
    return EventTrace(story_id=story_id, events=np.sort(times), horizon=span)
