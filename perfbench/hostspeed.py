"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is shared: the same code runs up to ~50% slower while
a neighbour is busy, in stretches that last from seconds to hours, which is
wider than any bound a regression check can use. The reference loop does
the same kinds of work as dpsynth's commands, with no dpsynth code in it:
Python arithmetic around small numpy calls, as in a training step, and
passes over an array larger than the last-level cache, as in evaluate's
pairwise tensors. The benchmark runs it before every command and once after
the last, and brings each end-to-end sample to the baseline machine's speed
with the reference times measured just before and after it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference time on the baseline machine (perfbench/README.md).
NOMINAL_SECONDS = 0.025
LOOP = 1000
STREAM_DOUBLES = 1 << 22  # 32 MB
STREAM_PASSES = 2


class Reference:
    def __init__(self):
        self.small = np.random.default_rng(0).standard_normal((50, 10))
        self.times: list = []  # midpoint of each pass
        self.durations: list = []

    def run(self) -> None:
        """One timed pass of the reference loop."""
        began = time.perf_counter()
        acc = 0.0
        for i in range(LOOP):
            acc += float((self.small @ self.small.T).sum()) * 1e-9 + i * 0.5
        # Allocated per pass, as evaluate's tensors are, so it never adds to
        # the peak RSS of a command.
        stream = np.ones(STREAM_DOUBLES)
        for _ in range(STREAM_PASSES):
            np.add(stream, 1.0, out=stream)
        del stream
        took = time.perf_counter() - began
        self.times.append(began + took / 2)
        self.durations.append(took)

    def speed_at(self, at: float) -> float:
        """Host speed at time ``at`` relative to the baseline machine, above 1
        when faster: from the reference time interpolated linearly between
        the passes just before and after ``at``. A timing t taken there reads
        t * speed at nominal speed, a rate r reads r / speed."""
        return NOMINAL_SECONDS / float(np.interp(at, self.times, self.durations))

    def speed(self) -> float:
        """Median host speed over the run."""
        return NOMINAL_SECONDS / statistics.median(self.durations) if self.durations else 1.0
