"""Machine-speed probe, so timings on a shared machine compare across runs.

On a shared host this process's processor changes speed by up to about 1.7x
within seconds (other tenants on a sibling hyperthread, clock boost), so the
same 30 s pass can run mostly fast in one run and mostly slow in the next.
While a pass (or a setup process) runs, a SIGALRM handler times a fixed
kernel every ``INTERVAL_S`` of wall time.  The kernel uses numpy but not
the package, so a change to the package cannot change it.  Its mean time
measures how fast the machine ran meanwhile, and ``scale`` converts the
measured time to seconds at the speed where the kernel takes
``NOMINAL_KERNEL_S``.  The caller subtracts the probe's own time
(``spent_s``, ``spent_cpu_s``) first.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
NOMINAL_KERNEL_S = 2e-4
KERNEL_STEPS = 12


def kernel() -> None:
    """Fixed RK4 steps of a 2x2 Hill system, in small numpy arrays."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a = 1.0 + 0.5 * math.cos(t)
        return np.array([y[1], -a * y[0], y[3], -a * y[2]])

    y, t, h = np.array([1.0, 0.0, 0.0, 1.0]), 0.0, 0.05
    for _ in range(KERNEL_STEPS):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h


class SpeedProbe:
    """Context manager that samples the kernel's time while its body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent_s += elapsed
        self.spent_cpu_s += time.process_time() - c0

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        """Factor from seconds measured under the probe to seconds at nominal speed."""
        return NOMINAL_KERNEL_S / statistics.fmean(self.samples)
