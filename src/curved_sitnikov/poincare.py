"""Stroboscopic Poincaré sections of the extended flow.

The section variable is the forcing phase itself, so orbits are sampled
once per period 2*pi with no crossing detection.  Initial conditions come
from declarative deterministic grids, never random draws.  ``section``
steps every orbit of a cloud as one lane of ``model._orbit_system`` on
``integrate._dop853_lanes``, in eccentric-anomaly time, into one strobe
array, from which a truncated orbit's NaN tail is dropped.  A given cloud
repeats its bytes on one machine; an orbit's bits may depend on the batch
it is stepped in (``_dop853_lanes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kepler import TWO_PI, ModelParams
from .integrate import (DEFAULT_ORBIT_TOL, MAX_GRID_POINTS, _check_count,
                        _dop853_lanes)
# bench/tracer.py times orbit spans by rebinding this name
from .integrate import integrate_orbit  # noqa: F401
from .model import _orbit_system


@dataclass
class SectionCloud:
    """Section hits ``(q, p)`` for a family of orbits.

    ``orbits[i]`` is an ``(n_i, 2)`` array of per-iterate hits with ``q``
    wrapped to ``(-pi, pi]``; ``truncated[i]`` marks collision-shortened
    orbits (their partial history is kept).
    """

    orbits: list[np.ndarray]
    truncated: list[bool]


def wrap_angle(q: float) -> float:
    """Wrap an angle to ``(-pi, pi]``."""
    w = math.remainder(q, TWO_PI)
    return math.pi if w == -math.pi else w


def section(params: ModelParams, initial_grid, n_iterates: int,
            tol: float = DEFAULT_ORBIT_TOL) -> SectionCloud:
    """Strobe each initial condition once per forcing period.

    Args:
        params: model parameters.
        initial_grid: iterable of finite ``(q0, p0)`` pairs (phase 0),
            else ``ValueError`` before any step.
        n_iterates: section returns to record per orbit, an integer >= 1
            and at most ``MAX_GRID_POINTS`` in all, else ``ValueError``.
        tol: integrator tolerance.

    All orbits step as lanes of ``model._orbit_system`` from ``u = 0``,
    whose only stops are the strobes ``u = t = 2 pi k``, into one NaN
    ``(n_iterates, 2, n_orbits)`` strobe array, which one loop turns into
    the cloud.  A collision truncates only its orbit, at its start or at
    the first accepted step within ``model.D_MIN`` of a primary; the orbit
    keeps its earlier hits, and its later strobes stay NaN and are dropped.
    """
    _check_count("n_iterates", n_iterates)
    grid = np.array([(float(q0), float(p0)) for q0, p0 in initial_grid])
    if not np.isfinite(grid).all():
        raise ValueError("initial_grid holds a non-finite (q0, p0)")
    if len(grid) * n_iterates > MAX_GRID_POINTS:
        raise ValueError(f"{len(grid)} orbits of {n_iterates} iterates hold "
                         f"more than {MAX_GRID_POINTS} points")
    clock, rhs, halt = _orbit_system(params, 0.0)
    strobes, _ = _dop853_lanes(
        clock, rhs, np.arange(1, n_iterates + 1) * TWO_PI,
        grid.reshape(-1, 2).T, len(grid), tol, halt=halt)
    reached = np.isfinite(strobes[:, 0])  # a truncated orbit's tail is NaN
    return SectionCloud(
        orbits=[np.array([(wrap_angle(float(q)), float(p))
                          for q, p in strobes[reached[:, i], :, i]]
                         ).reshape(-1, 2)  # (0, 2) for an orbit with no hit
                for i in range(len(grid))],
        truncated=[not row.all() for row in reached.T])
