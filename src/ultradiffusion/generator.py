"""Transition-rate generators over ultrametric state spaces.

The rate between distinct states is e^(-mu*d(i, j)); each diagonal entry is
minus its row's off-diagonal sum, so probability is conserved. Because rates
are a decreasing function of an ultrametric distance, they inherit the dual
inequality rate(i, j) >= min(rate(i, k), rate(k, j)), which
`check_rate_ultrametricity` checks with the same kernel and proof as
`ultrametric.verify_ultrametric` (stated in the `ultrametric` module
docstring), taking min where distances take max.

`Generator(rates=...)` checks a matrix from outside the library in O(n^2):
nonempty, square, symmetric, nonnegative and finite off the diagonal, zero
row sums. `build_generator` makes rates with all of these properties by
construction and hands them over unchecked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .traces import _readonly, _unchecked
from .ultrametric import TripleReport, UltrametricSpace, _first_violation

__all__ = ["Generator", "build_generator", "check_rate_ultrametricity"]


@dataclass(frozen=True)
class Generator:
    """Symmetric transition-rate matrix with zero row sums.

    It keeps no mu: `build_generator` checks the decay and bakes it into the
    rates. The constructor checks rates from outside the library in O(n^2);
    `build_generator` makes rates that pass by construction and skips it.
    """

    rates: np.ndarray

    def __post_init__(self) -> None:
        rates = _readonly(self.rates)
        object.__setattr__(self, "rates", rates)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ValueError(f"rates must be square, got {rates.shape}")
        n = rates.shape[0]
        if n == 0:
            raise ValueError("a generator needs at least one state")
        if not np.array_equal(rates, rates.T):
            raise ValueError("rates must be symmetric")
        if np.count_nonzero(rates < 0) > np.count_nonzero(np.diagonal(rates) < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        largest = max(float(rates.max()), -float(rates.min()))
        if largest == np.inf:
            raise ValueError("rates must be finite")
        drift = np.max(np.abs(rates.sum(axis=1)))
        if drift > 1e-12 * max(1.0, largest) * max(1, n):
            raise ValueError(f"row sums must vanish, worst drift {drift:g}")

    @property
    def size(self) -> int:
        return int(self.rates.shape[0])


def build_generator(space: UltrametricSpace, mu: float) -> Generator:
    """Generator over `space` with off-diagonal rates e^(-mu*d).

    mu = 0 is refused when a distance is infinite: e^(-0*inf) is undefined.
    The rates are valid by construction, so `Generator`'s checks are not
    run: e^(-mu*d) is elementwise on a symmetric `dist`, so the rates are
    symmetric; off the diagonal they lie in [0, 1]; and each diagonal entry
    is minus its row's off-diagonal sum, so row sums vanish to rounding.
    """
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    if mu == 0 and space.dist.max() == np.inf:
        raise ValueError("mu = 0 leaves the rate e^(-mu*d) undefined at an infinite distance")
    # Past the float range -mu*d is -inf and its rate the exact 0; at mu = inf
    # the diagonal's 0 * inf is NaN, and is overwritten.
    with np.errstate(over="ignore", invalid="ignore"):
        rates = space.dist * -mu
    np.exp(rates, out=rates)
    np.fill_diagonal(rates, 0.0)
    # Rates are never negative; zeros beyond the n on the diagonal underflowed.
    if np.count_nonzero(rates == 0) > space.size:
        warnings.warn(
            "some rates underflowed to zero: e^(-mu*d) is 0 in double precision "
            "once mu*d exceeds about 745",
            RuntimeWarning,
            stacklevel=2,
        )
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return _unchecked(Generator, rates=rates)


def check_rate_ultrametricity(gen: Generator) -> TripleReport:
    """Confirm rate(i, j) >= min(rate(i, k), rate(k, j)) for distinct i, j, k.

    This is the strong triangle inequality of -rate (negation is exact in
    floating point), so the kernel of `verify_ultrametric` proves it by the
    proof of the `ultrametric` module docstring, taking min where it takes
    max on distances, so no negated n-by-n matrix is made. It reports the
    first violation in lexicographic (i, j, k) order.
    """
    n = gen.size
    triple = _first_violation(gen.rates, negate=True)
    if triple is None:
        return TripleReport(triple=None, message=f"all {n} states rate-ultrametric")
    i, j, k = triple
    return TripleReport(
        triple=triple,
        message=(
            f"rate({i},{j})={gen.rates[i, j]:g} falls below "
            f"min via state {k}: {min(gen.rates[i, k], gen.rates[k, j]):g}"
        ),
    )
