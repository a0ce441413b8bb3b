"""Microbenchmarks of the hot leaf calls and of three probe monodromies.

Leaf calls are replayed on the arguments the traced pass sampled, through
the original (unwrapped) function, so each time per call is measured on
the workload's own arguments without the tracer's wrapper.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Callable

from curved_sitnikov import floquet
from curved_sitnikov.kepler import ModelParams

from tracer import ArgSample

LEAF_REPEATS = 15
PROBE_RADII = (1.0, 1.9, 1.999)
PROBE_TOL = 1e-9
PROBE_REPEATS = 3


def leaf_us(fn: Callable, sample: ArgSample) -> float:
    """Median over repeats of the time per call, in microseconds (0 if never called)."""
    kept = sample.kept
    if not kept:
        return 0.0
    times = []
    for _ in range(LEAF_REPEATS):
        t0 = perf_counter()
        for args, kwargs in kept:
            fn(*args, **kwargs)
        times.append(perf_counter() - t0)
    return 1e6 * statistics.median(times) / len(kept)


def probes() -> dict[str, float]:
    """Wall time (median of repeats) and nfev of one monodromy at q*=pi, eps=0."""
    out = {}
    for r in PROBE_RADII:
        params = ModelParams(r=r)
        times, nfev = [], 0
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            m = floquet.monodromy(math.pi, params, tol=PROBE_TOL)
            times.append(perf_counter() - t0)
            nfev = m.matrix.n_rhs
        out[f"floquet.probe_r{r}_ms"] = 1e3 * statistics.median(times)
        out[f"floquet.probe_r{r}_nfev"] = nfev
    return out
