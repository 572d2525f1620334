"""Op timings expressed at a fixed reference host speed.

On a shared host the CPU's own speed drifts, by up to a factor of two
within a minute on a 2-vCPU VM, with process CPU time moving with wall
time (no steal shows). A run cannot average that out. So a fixed
calibration kernel, which uses no runoff code, is timed after every op,
and each op's wall time is scaled by the kernel's reference time over
the mean of the kernel passes just before and just after it. A change
to the program moves the scaled time fully; a change in host speed
mostly does not.

Two kernels, because the host's load slows different work differently:
IN_PROCESS (Python and small-matrix numpy work) for ops that run in the
timing process, PROCESS_START (a bare interpreter start) for ops that
are fresh processes. On that VM, CLI ops scaled by IN_PROCESS spread
as widely as unscaled ones; scaled by PROCESS_START, a third as widely.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

_MATRIX = np.random.default_rng(0).uniform(size=(20, 20))


def kernel_s() -> float:
    """Wall seconds of one pass of the calibration kernel.

    The mix runoff's code runs, in-process and while a CLI process
    starts: a pure-Python float loop, list and dict building, and numpy
    calls on small matrices, where the Python-to-C dispatch outweighs
    the arithmetic.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 7.0
    table = {}
    for i in range(3000):
        table[i] = [i, i + 1.0]
    m = _MATRIX
    for _ in range(600):
        m = (m @ _MATRIX) * 0.05 + _MATRIX[::-1].sum(axis=0)
        np.cumsum(m, axis=1)
    return time.perf_counter() - t0


def start_s() -> float:
    """Wall seconds of a bare interpreter start, `python -S -c pass`, to its exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0


# (kernel, nominal seconds of one pass). Scaled timings read as wall time
# on a host where the kernel takes that long (about the median on that VM).
IN_PROCESS = (kernel_s, 0.0125)
PROCESS_START = (start_s, 0.016)


class Meter:
    """Scales wall times by the kernel passes around each of them."""

    def __init__(self, calibration=IN_PROCESS):
        self._kernel, self._reference_s = calibration
        self._last = self._kernel()
        self.factors = []

    def scale(self, wall_s: float) -> float:
        """wall_s, just measured, at the reference speed; runs one pass."""
        now = self._kernel()
        factor = self._reference_s / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(factor)
        return wall_s * factor

    def median_factor(self) -> float:
        """Median scale factor so far: above 1 when the host ran fast."""
        return statistics.median(self.factors) if self.factors else 1.0
