"""Reference processes the saturation model is judged against.

Two foils. Memoryless (Poisson) arrivals land uniformly on the observation
window, so their event curve is the straight line t/T0, which `fit_linear`
explains strictly better than a saturating exponential. And a self-similar
hierarchy with branching b and level spacing delta_h, whose relaxation is a
geometric series of exponentials that sums to a power law t^(-v) over a wide
window instead of a single exponential. That series is the tree kernel's
sum of path modes on the infinite b-ary tree, and `spectral._mode_sum`
evaluates it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fitting import r_squared
from .spectral import _mode_sum
from .traces import _integer

__all__ = [
    "PowerLawCurve",
    "PowerLawModel",
    "fit_linear",
    "loglog_slope",
    "power_law_curve",
]


def _line_points(t, values) -> tuple[np.ndarray, np.ndarray]:
    """The points of a least-squares line, refused where no line is defined.

    Non-finite points and times of one value would reach LAPACK, which
    prints to stderr and returns NaN or fails.
    """
    x = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length vectors of at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("a line fit needs finite times and values")
    if x.min() == x.max():
        raise ValueError("a line fit needs at least two distinct times")
    return x, y


def _line(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept, refused at rank 1: times too close
    to resolve, for which `np.polyfit` returns an arbitrary slope."""
    (slope, intercept), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    if rank < 2:
        raise ValueError("a line fit needs times that differ by more than rounding")
    return slope, intercept


def fit_linear(t, values) -> tuple[float, float, float]:
    """Ordinary least squares line. Returns (slope, intercept, r_squared).

    Fitted on t / max|t|, as `fitting` normalizes its axis, with the slope
    scaled back: the unit of time changes the slope alone. A slope that
    overflows a float on that scale back, as on subnormal times, is refused.
    """
    x, y = _line_points(t, values)
    scale = np.abs(x).max()
    u = x / scale
    slope, intercept = _line(u, y)
    # Python's float division gives inf where numpy's would warn.
    rate = float(slope) / float(scale)
    if math.isinf(rate):
        raise ValueError(f"a line fit's slope overflows a float at times of scale {scale:g}")
    return rate, float(intercept), r_squared(y, slope * u + intercept)


@dataclass(frozen=True)
class PowerLawModel:
    """Self-similar hierarchy: branching b per level, level spacing delta_h."""

    b: int
    delta_h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _integer(self.b, "branching b"))
        object.__setattr__(self, "delta_h", float(self.delta_h))
        if self.b < 2:
            raise ValueError(f"branching b must be at least 2, got {self.b}")
        if not math.isfinite(self.delta_h) or self.delta_h <= 0:
            raise ValueError(f"level spacing delta_h must be positive, got {self.delta_h}")
        if self.delta_h > math.log(sys.float_info.max):
            raise ValueError(
                f"level spacing delta_h={self.delta_h} puts e^delta_h past the largest float"
            )

    @property
    def s(self) -> float:
        """ln(b)/delta_h; the series converges to a power law only for s < 1."""
        return math.log(self.b) / self.delta_h

    @property
    def v(self) -> float:
        """Decay exponent s/(1-s) of the intermediate-time power law."""
        s = self.s
        if s >= 1:
            raise ValueError(f"s = ln(b)/delta_h = {s:.4g} is not below 1: no power law")
        return s / (1.0 - s)


class PowerLawCurve(NamedTuple):
    series: np.ndarray
    asymptote: np.ndarray
    truncation_bound: float


# Levels summed by `power_law_curve`.
_LEVELS = 60


def power_law_curve(model: PowerLawModel, t) -> PowerLawCurve:
    """Level-sum relaxation and its power-law asymptote on times `t`.

    The series is sum over levels m >= 1 of (b-1)*b^(-m)*e^(-t*c*q^m) with
    q = b*e^(-delta_h) and c = (e^delta_h - 1)/(e^delta_h - b), truncated at
    60 levels; the neglected tail is below b^(-60) pointwise, which is
    returned as the truncation bound. These are the path modes of a leaf of
    the infinite b-ary tree with heights m*delta_h: N_m = b^m leaves at
    level m give the weights 1/N_{m-1} - 1/N_m, and `spectral._path_rates`
    gives the rates, in which the levels above m sum geometrically to the
    factor c. The path kernel's evaluator, `spectral._mode_sum`, sums them.
    The asymptote is D*t^(-v) with D = Gamma(v)*c^(-v)*((b-1)/ln b)*v.
    Reading `model.v` first refuses s >= 1 before the times are checked or
    any level is summed.
    """
    v = model.v
    times = np.asarray(t, dtype=float)
    # Written so that NaN fails too; at t = inf a rate that underflowed to 0
    # would give 0 * inf = NaN.
    if not np.all(np.isfinite(times) & (times > 0)):
        raise ValueError("power-law evaluation needs finite, strictly positive times")
    b, dh = model.b, model.delta_h
    q = b * math.exp(-dh)
    c = (math.exp(dh) - 1.0) / (math.exp(dh) - b)
    m = np.arange(1, _LEVELS + 1)
    weights = (b - 1.0) * np.power(float(b), -m.astype(float))
    rates = c * np.power(q, m.astype(float))
    series = _mode_sum(weights, rates, times)
    amplitude = math.gamma(v) * c ** (-v) * ((b - 1) / math.log(b)) * v
    asymptote = amplitude * np.power(times, -v)
    return PowerLawCurve(
        series=series,
        asymptote=asymptote,
        truncation_bound=float(b) ** (-_LEVELS),
    )


def loglog_slope(t, values) -> float:
    """Least-squares slope of ln(values) against ln(t)."""
    x, y = _line_points(t, values)
    if not (x.min() > 0 and y.min() > 0):
        raise ValueError("a log-log slope needs positive times and values")
    return float(_line(np.log(x), np.log(y))[0])
