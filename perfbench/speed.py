"""How fast the machine runs right now, from a fixed reference kernel.

On a small shared machine the same code can run 30-80% slower for
seconds to minutes at a time, on every core at once.  The benchmark times
this kernel between the parts of a round (instances or CLI stages) and
rescales each part's seconds by ``REFERENCE_S`` over the kernel's time
around it.  That cancels most of the common slowdown.  The program never
runs this kernel, so a change to the program moves the rescaled time as
it would move the raw time on a quiet machine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: rescaled times are seconds on a machine where the kernel takes this long
#: (about what it takes on one quiet 2.1 GHz x86 core)
REFERENCE_S = 0.010

clock = time.perf_counter


class SpeedProbe:
    """A Python loop plus a dense 300x300 inverse, like the LP kernels."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((300, 300)) + 300.0 * np.eye(300)

    def seconds(self) -> float:
        t = clock()
        acc = 0.0
        for i in range(60000):
            acc += i * 0.5
        np.linalg.inv(self._matrix)
        return clock() - t


class PartTimer:
    """Times the parts of one round, with the probe between them."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.parts: list[tuple[float, float]] = []  # (seconds, probe seconds)
        self._before = probe.seconds()

    @contextmanager
    def part(self):
        t = clock()
        yield
        seconds = clock() - t
        after = self.probe.seconds()
        self.parts.append((seconds, 0.5 * (self._before + after)))
        self._before = after


def rescaled(parts: list[tuple[float, float]]) -> list[float]:
    """Each part's seconds at reference speed."""
    return [seconds * REFERENCE_S / probe for seconds, probe in parts]
