"""Shared test helpers."""

import subprocess
import sys

import pytest

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
