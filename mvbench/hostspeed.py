"""Host-speed calibration, so that timings hold still on a shared host.

The benchmark runs on a few cores of a shared host. Measured in-process
there, a fixed pure-Python loop takes anywhere from its fastest time to
twice that, in stretches that last from seconds to minutes, so a whole
run can fall inside a slow stretch and no statistic of its wall times
alone recovers the program's cost. Each timed call is therefore bracketed
by a fixed calibration loop that never touches mvteval, and its wall time
is scaled by ``REFERENCE_S`` over the mean of the two loops beside it:
the call's seconds on a host where the loop takes ``REFERENCE_S``, which
is about the loop's fastest time on the 2-vCPU Xeon VM the bounds were
set on. The wall times are kept beside the scaled ones.

The loop does what the evaluator's hot paths do (float arithmetic over
nested lists, tuples, dict stores, ``min`` with a key, sorting), so that
interference slows both alike.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

REFERENCE_S = 0.016
_ROUNDS = 48
_rng = random.Random(0)
_POINTS = [(_rng.random() * 100.0, _rng.random() * 100.0) for _ in range(40)]


def _loop() -> float:
    total = 0.0
    for _ in range(_ROUNDS):
        cost = [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in _POINTS] for a in _POINTS]
        best = {}
        for i, row in enumerate(cost):
            j = min(range(len(row)), key=row.__getitem__)
            best[i] = (j, row[j])
        total += sum(v for _, v in sorted(best.values()))
    return total


def loop_seconds() -> float:
    """Wall seconds of one calibration loop, now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


@dataclass
class Bracketed:
    """Wall times of consecutive calls, with a calibration loop before, between and after them."""

    wall: list[float]
    loops: list[float]  # one more than wall: loops[i] and loops[i + 1] bracket wall[i]

    def scaled(self) -> list[float]:
        return [w * REFERENCE_S / ((a + b) / 2) for w, a, b in zip(self.wall, self.loops, self.loops[1:])]
