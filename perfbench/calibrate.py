"""Machine-speed calibration for timings taken on a shared host.

The machine this benchmark was built on is a 2-vCPU virtual machine whose
CPU speed drifts by about a quarter over tens of seconds (another tenant's
load; steal time stays near 1%).  A fixed loop slows in step with halfflat's
code: over 93 corpus rounds the round time and the time of a loop run
before each operation each had an interquartile range of 24% of their
median, their ratio 3%.  So every run times a fixed loop after each
operation, for about 5% of the operation's time, outside the timed region.
Each operation's time is multiplied by ``REFERENCE_S / c``, where ``c`` is
the mean loop time within ``WINDOW_S`` of the operation: the figures read
as seconds on a machine where one loop takes ``REFERENCE_S``, and drift
that slows the loop and the program alike cancels.

Two loops are kept.  ``python`` does Fraction and dict arithmetic like the
exact layers; ``numpy`` does the small einsum and eigh calls of the float
search.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

#: nominal seconds of one loop; timings are reported at this machine speed
REFERENCE_S = 0.001
#: share of an operation's time spent timing the loop after it
SHARE = 0.05
MAX_LOOPS = 60
#: seconds on either side of an operation whose loop timings calibrate it
WINDOW_S = 1.0


def _python_loop():
    total, counts = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i, i + 1)
        counts[i & 63] = counts.get(i & 63, 0) + i
    return total


def _numpy_loop():
    import numpy as np

    rng = np.random.default_rng(0)
    kt, w22, v = rng.standard_normal((6, 6, 20, 20)), rng.standard_normal((15, 15, 15)), rng.standard_normal(20)

    def loop():
        for _ in range(24):
            k = np.einsum("uvij,i,j->uv", kt, v, v)
            np.einsum("ijm,i,j->m", w22, v[:15], v[:15])
            np.linalg.eigh(k + k.T)

    return loop


#: kind -> function returning the loop
LOOPS = {"python": lambda: _python_loop, "numpy": _numpy_loop}


class Calibrator:
    """Times the loop between operations and turns raw seconds into calibrated ones."""

    def __init__(self, kind: str = "python"):
        self.loop = LOOPS[kind]()
        self.loop()  # the first call pays for warming up
        #: (time at the middle of the sample, seconds per loop, loops)
        self.marks: list[tuple[float, float, int]] = []
        self.measure(0.0)

    def measure(self, after_s: float):
        """Time enough loops to cost SHARE of ``after_s`` (at least one)."""
        n = min(MAX_LOOPS, max(1, math.ceil(SHARE * after_s / REFERENCE_S)))
        # with the collector off, the loop's time does not depend on the heap the program keeps
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(n):
                self.loop()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.marks.append((0.5 * (t0 + t1), (t1 - t0) / n, n))

    def factor(self, start: float, end: float) -> float:
        """Raw to calibrated seconds for an operation that ran from start to end.

        Uses the loops timed within WINDOW_S of the operation, each weighted
        by its number of loops.
        """
        lo, hi = start - WINDOW_S, end + WINDOW_S
        picked = [(p, n) for t, p, n in self.marks if lo <= t <= hi]
        if not picked:
            picked = [min(self.marks, key=lambda m: min(abs(m[0] - start), abs(m[0] - end)))[1:]]
        per_loop = sum(p * n for p, n in picked) / sum(n for _, n in picked)
        return REFERENCE_S / per_loop

    def median_loop_s(self) -> float:
        return sorted(p for _, p, _ in self.marks)[len(self.marks) // 2]
