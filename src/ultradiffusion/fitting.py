"""Saturation-curve fitting and parameter inference.

Popularity curves saturate like p(t) = h1*(1 - e^(-h2*t)) + h3. The fit is
variable projection (Golub & Pereyra 1973): h1 and h3 enter linearly, so
for each decay rate they are solved in closed form and the least-squares
problem shrinks to one dimension, the rate. That profile is scanned on a
fixed grid and refined to machine precision on the normalized time axis
k/n that every n-point curve shares, so rescaling time changes h2 alone.
`fit_block` fits a block of curves, given as horizons and a values array,
in one call that returns only their fits; `fit_exponential` is its
one-curve call. Each curve's grid rate is picked from inner products and its
residual formed there alone; then the curves are polished together by masked
vector steps over the curves still moving, each by the rules a lone curve
follows, so every curve gets bit for bit its lone fit.
Fitted constants map onto model parameters: chain length t_N and decay mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import _check_chain
from .traces import EventTrace, PopularityCurve, _axis, _block, _integer, _unchecked, uniform_grid

__all__ = [
    "ExponentialFit",
    "FitError",
    "UltradiffusionParams",
    "decay_rate",
    "exponential_model",
    "fit_block",
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
    """Chain length t_N, distance decay mu, and saturation count M: (t_N, mu)
    make a chain by `spectral`'s rule, mu is finite for JSON, M is positive."""

    t_N: int
    mu: float
    M: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "t_N", _check_chain(self.t_N, self.mu))
        object.__setattr__(self, "M", _integer(self.M, "M"))
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
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
    if not (np.isfinite(obs).all() and np.isfinite(pred).all()):
        raise ValueError("r_squared needs finite observed and predicted values")
    return float(_r_squared_rows(obs[None], pred[None])[0])


def _r_squared_rows(observed: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """`r_squared` of each row of two (curves x points) arrays."""
    total = ((observed - observed.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    if not total.all():
        raise ValueError("observed values are constant, r_squared is undefined")
    return 1.0 - ((observed - predicted) ** 2).sum(axis=1) / total


# Normalised decay rates k = h2*T (T the curve's horizon) that the coarse grid
# covers, four a decade: from a curve indistinguishable from a straight line
# (k = 1e-6) to one that saturates within the first 1/10^4 of the window.
_RATES = np.geomspace(1e-6, 1e4, 41)
# Curves fitted together at most: the (curves x points) temporaries of 128
# 200-point curves stay in cache; those of 1000 curves do not.
_FIT_BLOCK = 128
# Largest offset below 1, where h3 is held when its free value reaches 1.
_H3_MAX = float(np.nextafter(1.0, 0.0))
# Refinement stops after a move of k by less than this fraction, or after
# _MAX_POLISH profile evaluations.
_K_RTOL = 1e-10
_MAX_POLISH = 60


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _columns(rates: np.ndarray, x: np.ndarray):
    """-k*x and the basis 1 - e^(-k*x) of each rate k of `rates` (rows x rates)."""
    decay_arg = rates[:, :, None] * -x
    return decay_arg, -np.expm1(decay_arg)  # keeps its digits as k -> 0


def _profile(columns, x: np.ndarray, p: np.ndarray, offset: bool):
    """Each curve's best rate among those of `columns`, by variable projection.

    `p` holds one curve per row on the axis `x`, and `columns` is `_columns` of
    the normalized rates k tried: one row for all curves, or one each. For
    fixed k the model h1*b + h3 with b = 1 - e^(-k*x) is linear in h1 and
    h3, which are solved in closed form under h1 >= 0 and 0 <= h3 < 1.
    The best rate is picked by its residual sum of squares written in inner
    products, exact to the rounding of <p, p>, and the residual is formed at
    that rate alone. Returns arrays (index of that rate, h1, h3, residual
    sum, Gauss-Newton step in k from that rate), one entry per curve. h1 = 0
    marks a rate where no positive amplitude fits, which only an offset held
    at 1 allows. The step is Kaufman's for variable projection (BIT 15, 49,
    1975): the model's k-derivative h1*x*e^(-k*x), less its projection on
    the columns solved for, regressed against the residual. Every entry is
    computed from its curve's row alone, in the same operations whatever the
    other rows hold.
    """
    decay_arg, basis = columns
    column = p[:, :, None]
    bb = _rowdot(basis, basis)  # > 0: the last point has x = 1
    bp = (basis @ column)[..., 0]
    if offset:
        pm = p.mean(axis=1, keepdims=True)
        bm = basis.mean(axis=2)
        centered = basis - bm[..., None]
        cc = _rowdot(centered, centered)
        cp = (centered @ column)[..., 0]
        # The free solution is h1 = cp/cc, h3 = pm - h1*bm. Test its bounds
        # without dividing, so collinear columns (cc -> 0) give no inf or NaN.
        low = cp * bm > pm * cc
        high = cp * bm < (pm - _H3_MAX) * cc
        free = (cp > 0) & ~low & ~high
        h1 = np.divide(cp, cc, out=np.zeros(cp.shape), where=free)
        # Outside [0, 1) the offset is held at the nearer bound and h1 solved
        # alone; inside, the clip only absorbs rounding.
        h3 = np.where(low, 0.0, np.where(high, _H3_MAX, np.clip(pm - h1 * bm, 0.0, _H3_MAX)))
        h1 = np.where(low | high, (bp - h3 * x.size * bm) / bb, h1)
        # A nonpositive amplitude means the best fit with h1 >= 0 has h1 = 0.
        none = h1 <= 0
        h1[none] = 0.0
        h3 = np.where(none, np.clip(pm, 0.0, _H3_MAX), h3)
        # p - h3 - h1*b, written so that it is exactly centered for free rows.
        shift = np.where(free, 0.0, pm - h3 - h1 * bm)
        p = p - pm
        # cp in exact arithmetic; taken on p - pm, it keeps its digits near collinearity.
        cp = (centered @ p[:, :, None])[..., 0]
        score = _rowdot(p, p)[:, None] - 2 * h1 * cp + h1**2 * cc + x.size * shift**2
    else:
        # h1 > 0: a nondecreasing, nonconstant curve ends above 0.
        h1 = bp / bb
        h3 = np.zeros(bp.shape)
        score = _rowdot(p, p)[:, None] - h1 * bp
        centered, shift = basis, h3  # p - h1*b in the offset's form
    best = score.argmin(axis=1)

    def at(a):
        # Each curve's entry at its best rate, of an array per curve or shared.
        return a[np.arange(best.size) if len(a) > 1 else 0, best]

    h1, basis, bb = at(h1), at(basis), at(bb)
    resid = p - h1[:, None] * (centered := at(centered)) + at(shift)[:, None]
    slope = h1[:, None] * x * np.exp(at(decay_arg))
    # With h3 free, projecting off b and the constant is projecting the
    # centered slope off the centered b; otherwise h1 alone is solved.
    along = slope - basis * (_rowdot(basis, slope) / bb)[:, None]
    if offset and (free := at(free)).any():
        centered, cc = centered[free], at(cc)[free]
        centered_slope = slope[free] - slope[free].mean(axis=1, keepdims=True)
        scale = _rowdot(centered, centered_slope) / cc
        along[free] = centered_slope - centered * scale[:, None]
    jj = _rowdot(along, along)
    step = np.divide(_rowdot(along, resid), jj, out=np.zeros(jj.shape), where=jj > 0)
    return best, h1, at(h3), _rowdot(resid, resid), step


def _fit_rows(x: np.ndarray, p: np.ndarray, offset: bool):
    """Normalized rates k and constants h1, h3 that fit each row of `p`
    sampled on the axis `x`, whose last entry is 1.

    Each row's rate on `_RATES` is picked from sums, and its residual formed
    at that rate alone. Then every row is polished at once, by masked vector
    steps over the rows still moving, each by the rules a lone row follows.
    """
    rows = len(p)
    best, h1, h3, cost, step = _profile(_columns(_RATES[None, :], x), x, p, offset)
    k = _RATES[best]
    lo = _RATES[np.maximum(best - 1, 0)]
    hi = _RATES[np.minimum(best + 1, _RATES.size - 1)]
    # The state of the rows still moving: their indices, k and its fitted
    # constants, residual sum, step and bracket. dk and ds are the changes
    # in k and in the step over a row's last move; dk is NaN before its
    # first move and after a back-off, where no secant is taken. A row is
    # done once its trial cannot move k, or after a move, made or tried, at
    # the rounding level of the profile.
    live = np.arange(rows)
    dk, ds = np.full(rows, np.nan), np.zeros(rows)
    done = np.zeros(rows, dtype=bool)
    out = np.empty((3, rows))
    for _ in range(_MAX_POLISH):
        # Gauss-Newton converges only linearly on a curve the model misses;
        # a secant on the step, a function of k with its root at the
        # optimum, makes it superlinear.
        slope = ds / dk
        move = np.divide(-step, slope, out=step.copy(), where=slope < 0)
        trial = np.minimum(np.maximum(k + move, lo), hi)
        done |= trial == k
        stopped = np.count_nonzero(done)
        if stopped:
            out[:, live] = k, h1, h3
            if stopped == live.size:
                return out
            keep = ~done
            live, k, h1, h3, cost, step, lo, hi, trial, p = (
                v[keep] for v in (live, k, h1, h3, cost, step, lo, hi, trial, p)
            )
        _, t_h1, t_h3, t_cost, t_step = _profile(_columns(trial[:, None], x), x, p, offset)
        dk = trial - k
        done = np.abs(dk) <= _K_RTOL * k
        ds = t_step - step
        # Near the optimum the residual sum stops resolving k before the
        # step does, so a shorter step also counts as progress. Otherwise
        # the trial overshot: back off towards k.
        back = (t_cost >= cost) & (np.abs(t_step) >= np.abs(step))
        if np.count_nonzero(back):
            for moved, kept in ((trial, k), (t_h1, h1), (t_h3, h3), (t_cost, cost),
                                (t_step, dk / 2), (dk, np.nan)):
                np.copyto(moved, kept, where=back)
        k, h1, h3, cost, step = trial, t_h1, t_h3, t_cost, t_step
    out[:, live] = k, h1, h3
    return out


def _fit_chunk(x: np.ndarray, horizons: np.ndarray, p: np.ndarray, offset: bool) -> list:
    """`fit_block` on at most `_FIT_BLOCK` curves of at least 3 points."""
    finite = np.isfinite(p).all(axis=1)
    fits: list = [
        FitError("no dynamics to fit: curve is constant" if ok else "curve values must be finite")
        for ok in finite.tolist()
    ]
    top = np.maximum(1.0, np.abs(p).max(axis=1))
    # inf - inf in a row already refused is the one invalid operation here.
    with np.errstate(invalid="ignore"):
        moves = np.flatnonzero(finite & (p.max(axis=1) - p.min(axis=1) > 1e-14 * top))
    if not moves.size:
        return fits
    if moves.size < len(p):
        horizons, p = horizons[moves], p[moves]
    k, h1, h3 = _fit_rows(x, p, offset)
    r2 = _r_squared_rows(p, exponential_model(x, h1[:, None], k[:, None], h3[:, None]))
    per_curve = (v.tolist() for v in (h1, k, horizons, h3, r2))  # floats: no overflow warning
    for n, a, rate, horizon, c, r in zip(moves.tolist(), *per_curve):
        try:
            if (h2 := rate / horizon) == math.inf:
                raise ValueError(f"rate h2 overflows a float at horizon {horizon:g}")
            fits[n] = ExponentialFit(a, h2, c, r)
        except ValueError as err:
            fits[n] = err
    return fits


def fit_block(horizons, values, offset: bool = False):
    """Fit every row of a curve block as `fit_exponential` fits one curve.

    Row n of the (curves x points) array `values` is the curve of horizon
    `horizons[n]`. Returns a list of each curve's `ExponentialFit`, or the
    error that refuses it (a `FitError` for fewer than 3 points, a value
    that is not finite or a constant curve, a `ValueError` when the fitted
    constants are no valid `ExponentialFit`), so one bad curve never fails
    the rest; a curve's model values are `exponential_model` at its fit. The
    curves are fitted up to 128 at a time, and each gets bit for bit its
    lone fit.
    """
    horizons, values = _block(horizons, values)
    if values.shape[1] < 3:
        return [FitError("need at least 3 points to fit") for _ in values]
    x = _axis(values.shape[1])
    fits: list = []
    with np.errstate(under="ignore"):
        for start in range(0, len(values), _FIT_BLOCK):
            block = slice(start, start + _FIT_BLOCK)
            fits += _fit_chunk(x, horizons[block], values[block], offset)
    return fits


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
    (T the curve's horizon) they are solved in closed form, with h1 > 0 and
    0 <= h3 < 1 enforced by holding h3 at a bound when its free value leaves
    [0, 1). The residual sum is then a function of k alone. It is scanned on
    a geometric grid from 1e-6 to 1e4, and the best grid point is refined
    inside the bracket of its neighbours by Gauss-Newton steps on the
    reduced problem (Kaufman, BIT 15, 49, 1975), accelerated by a secant and
    halved on overshoot, until k moves by less than 1e-10 of itself; 3-7
    profile evaluations on sampled curves. Deterministic, and on the axis
    k/n, so rescaling the horizon by c gives bit for bit the same h1, h3 and
    r2, and h2 = k/(c*T). A straight line, the family's k -> 0 limit, fits
    at k = 1e-6 with r2 a little below the line's. This is the one-curve
    call of `fit_block`, which picks each grid rate from sums, forms the
    residual there alone, and polishes up to 128 curves together by masked
    vector steps; each curve follows the same rules and gets the same bits.
    """
    (fit,) = fit_block([curve.horizon], curve.values[None], offset)
    if isinstance(fit, Exception):
        raise fit
    return fit


def infer_params(fit: ExponentialFit, M: int) -> UltradiffusionParams:
    """Map fitted (h1, h2) onto model parameters (t_N, mu).

    Inverts the simulated curve, whose amplitude is (t_N-1)/t_N and whose
    rate is t_N*e^(-mu*(t_N-1)): so t_N = round(1/(1-h1)) and
    mu = ln(t_N/h2)/(t_N-1). A rate h2 >= t_N, which would make mu negative,
    is refused, t_N with it; below t_N the quotient t_N/h2 rounds to at
    least 1, so mu >= 0. h2 is per unit of the timestamps, so this refusal
    moves with the unit. The published mapping
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
    if fit.h2 >= t_N:
        raise ValueError(
            f"decay rate h2={fit.h2:.6g} is at least t_N={t_N}: mu would be negative"
        )
    mu = math.log(t_N / fit.h2) / (t_N - 1)
    return UltradiffusionParams(t_N=t_N, mu=mu, M=M)


def decay_rate(params: UltradiffusionParams) -> float:
    """Single relaxation rate t_N*e^(-mu*(t_N-1)) of the no-rebroadcast state."""
    return params.t_N * math.exp(-params.mu * (params.t_N - 1))


def simulate_curve(params: UltradiffusionParams, horizon: float) -> PopularityCurve:
    """Model response curve p(t) = A*(1 - e^(-rate*t)) on `uniform_grid(horizon)`.

    The amplitude is A = (t_N-1)/t_N, the never-responding share being 1/t_N.
    The curve is a fraction, so it does not depend on `params.M`; it passes
    `PopularityCurve`'s checks by construction, so they are not run.
    """
    amplitude = (params.t_N - 1) / params.t_N
    values = amplitude * (1.0 - np.exp(-decay_rate(params) * uniform_grid(horizon)))
    return _unchecked(PopularityCurve, horizon=float(horizon), values=values)


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

    The trace is built by the checked `EventTrace` constructor, not handed
    over: its story id and horizon come from the caller, and the type is the
    one place that checks them in full, the id rule included. The copy that
    costs is M floats, once per story.
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
