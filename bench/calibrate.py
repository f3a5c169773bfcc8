"""A fixed calibration load that tracks the speed of the machine.

On a shared machine the speed of one core drifts by 20% and more over
minutes, while CPU time keeps pace with wall time: the core itself runs
slower, it is not taken away. The worker interleaves this load with the
timed operations, in proportion to their time, and scales every timing by
REFERENCE_UNIT_S / (mean time of one unit during the run), so a run on a
slow stretch and one on a fast stretch report the same figures.

The load is the benchmark's own code and calls nothing in regionmedian,
so a change to the program moves the figures but not the
scale. It mixes what the program spends its time on: interpreted float
arithmetic, numpy calls on a few elements and numpy sweeps over arrays of
thousands.
"""
from __future__ import annotations

import math
import time

import numpy as np

# about the mean time of one unit on the reference machine (2-core
# sandbox, Python 3.11, numpy 2.4); it only sets the scale
REFERENCE_UNIT_S = 0.0015
SHARE = 0.08  # calibration time as a share of the timed operations' time

_SMALL = np.linspace(0.5, 2.0, 8)
_LARGE = np.linspace(-3.0, 3.0, 4096)


def unit() -> float:
    """Run one unit of the load; return its wall time."""
    t = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.sqrt(i + 0.5 * s * 1e-9) * 1e-3
    for _ in range(40):
        a = np.hypot(_SMALL, np.roll(_SMALL, 1))
        s += float(np.sum(a * _SMALL))
    for _ in range(4):
        b = np.hypot(_LARGE, 0.25)
        s += float(np.sum(0.5 * (_LARGE * b + 0.0625 * np.arcsinh(_LARGE / 0.25))))
    if not math.isfinite(s):
        raise ArithmeticError("calibration load lost its value")
    return time.perf_counter() - t


class Meter:
    """Interleaves calibration units with timed work, in proportion."""

    def __init__(self):
        self.work_s = 0.0
        self.calibration_s = 0.0
        self.units = 0

    def _unit(self) -> None:
        self.calibration_s += unit()
        self.units += 1

    def after(self, work_s: float) -> None:
        """Account ``work_s`` seconds of timed work, then calibrate to keep the share."""
        self.work_s += work_s
        while self.calibration_s < SHARE * self.work_s:
            self._unit()

    def burst(self, seconds: float) -> None:
        """Calibrate for about ``seconds``, for a measurement with no work to interleave."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not self.units:
            self._unit()

    def scale(self) -> float:
        """Factor that turns a measured time into reference-machine time."""
        return REFERENCE_UNIT_S * self.units / self.calibration_s
