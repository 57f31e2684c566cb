"""Shared test helpers."""

import subprocess
import sys

import numpy as np
import pytest

from ultradiffusion.spectral import caterpillar_tree, space_from_tree
from ultradiffusion.traces import EventTrace
from ultradiffusion.ultrametric import UltrametricSpace, build_from_trace, uniform_chain

# A child's ru_maxrss starts at its parent's peak, which hides a rise of tens
# of MB under pytest; VmHWM is the peak of this process image alone.
PEAK_PROBE = """
import sys
{setup}
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak()
{measured}
after = peak()
print({report}, (after - before) * 1024)
"""


@pytest.fixture
def peak_rise():
    """Run `setup`, then `measured`, in a fresh interpreter.

    Returns the integers `report` evaluates to, then the rise of the peak
    resident set over `measured`, in bytes. `args` reach the probe as
    `sys.argv[1:]`.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("reads VmHWM from /proc/self/status")

    def run(setup: str, measured: str, report: str, *args: str) -> list[int]:
        probe = PEAK_PROBE.format(setup=setup, measured=measured, report=report)
        result = subprocess.run(
            [sys.executable, "-c", probe, *args], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return [int(value) for value in result.stdout.split()]

    return run


@pytest.fixture
def built_space():
    """`build(kind, n)`: a space of n states as the library builds it, from a
    trace with tied events, as a uniform chain, or as the leaves of a
    caterpillar tree. 600 states take two row blocks of the order proof."""

    def build(kind: str, n: int) -> UltrametricSpace:
        if kind == "trace":
            # Each event time twice: n - 1 distinct times and the silent state.
            events = np.sort(np.repeat(n * np.random.default_rng(n).random(n - 1), 2))
            return build_from_trace(EventTrace(story_id="t", events=events, horizon=float(n)))
        if kind == "chain":
            return uniform_chain(n)
        return space_from_tree(caterpillar_tree(n, 0.1))

    return build


@pytest.fixture
def dendrogram_spaces():
    """A hypothesis strategy for spaces of 1-12 states cut from a random dendrogram.

    Merge heights are drawn from {1, 2, 3, inf, 5e-324, the largest double},
    so ties are common. Half the draws then overwrite one symmetric pair
    with a value from the same set, which may or may not break the strong
    triangle inequality. About half the draws keep the states in the
    dendrogram's leaf order, where an ultrametric proves in its own order;
    the others permute them, so the proof needs a linkage.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.sampled_from([1.0, 2.0, 3.0, np.inf, 5e-324, np.finfo(float).max])

    @st.composite
    def spaces(draw):
        n = draw(st.integers(1, 12))
        # Each cluster's states in leaf order: merging appends one to the other.
        leaves = {c: [c] for c in range(n)}
        dist = np.zeros((n, n))
        for height in sorted(draw(st.lists(values, min_size=n - 1, max_size=n - 1))):
            alive = st.sampled_from(sorted(leaves))
            a, b = draw(st.lists(alive, min_size=2, max_size=2, unique=True))
            dist[np.ix_(leaves[a], leaves[b])] = height
            dist[np.ix_(leaves[b], leaves[a])] = height
            leaves[a] += leaves.pop(b)
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            dist[i, j] = dist[j, i] = draw(values)
        if draw(st.booleans()):
            order = leaves.popitem()[1]
        else:
            order = draw(st.permutations(range(n)))
        return UltrametricSpace(
            labels=np.arange(1.0, n + 1),
            dist=dist[np.ix_(order, order)],
        )

    return spaces()
