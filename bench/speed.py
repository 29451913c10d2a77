"""Machine-speed reference for normalizing wall times; calls no relscale code.

On a shared machine identical work runs at speeds up to twice apart, in
phases that last from seconds to minutes, and the process's CPU time slows
with it, so neither wall nor CPU time of a pass is steady from run to run.
The harness times this small fixed kernel (JSON parsing, small numpy
resampling, a tiny scipy least-squares fit: the kinds of work the workloads
do) right before every command and process launch, and rescales each
measured time by the kernel times taken alongside it.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from scipy.optimize import least_squares

#: The kernel's fastest wall time on the machine the benchmark was defined on
#: (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17) in a quiet
#: phase. Normalized times read as seconds on that machine at that speed.
NOMINAL_S = 0.003


class Reference:
    """Times a fixed kernel; its inputs are built once, deterministically."""

    def __init__(self):
        rng = np.random.default_rng(20251017)
        self._lines = [json.dumps({f"m{j}": float(v) for j, v in enumerate(rng.random(20))})
                       for _ in range(60)]
        self._x = rng.random(50)
        self._t = np.linspace(0.0, 1.0, 20)
        self._y = 0.3 + 0.7 * self._t + 0.01 * rng.standard_normal(20)

    def _kernel(self) -> None:
        for line in self._lines:
            json.loads(line)
        rng = np.random.default_rng(7)
        for _ in range(60):
            xs = self._x[rng.integers(0, 50, size=50)]
            xc = xs - xs.mean()
            float(xc @ xc)
        least_squares(lambda th: th[0] + th[1] * self._t - self._y, x0=[0.0, 0.0])

    def seconds(self, repeats: int = 3) -> float:
        """Fastest of ``repeats`` kernel runs; the first after an idle wait runs slow."""
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


def normalize(seconds: float, reference_s: float) -> float:
    """A wall time rescaled to the machine speed at which the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
