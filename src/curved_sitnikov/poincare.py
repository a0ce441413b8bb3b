"""Stroboscopic Poincaré sections of the extended flow.

The section variable is the forcing phase itself, so orbits are sampled
once per period 2*pi with no crossing detection.  Initial conditions come
from declarative deterministic grids, never random draws.  The adaptive
route of ``section`` steps every orbit of a cloud as one lane of
``model._orbit_system`` on ``integrate._dop853_lanes``, in
eccentric-anomaly time; its hits match to the tolerance but are not
byte-identical across versions.  The fixed-step RK4 route is
reproducible byte for byte.  Both fill one strobe array, from which a
truncated orbit's NaN tail is dropped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kepler import TWO_PI, ModelParams
from .integrate import DEFAULT_ORBIT_TOL, _dop853_lanes, integrate_orbit
from .model import CollisionError, _orbit_system


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
            tol: float = DEFAULT_ORBIT_TOL,
            fixed_steps: int | None = None) -> SectionCloud:
    """Strobe each initial condition once per forcing period.

    Args:
        params: model parameters.
        initial_grid: iterable of finite ``(q0, p0)`` pairs (phase 0).
        n_iterates: number of section returns to record per orbit, an
            integer >= 1, else ``ValueError``.
        tol: integrator tolerance (adaptive engine).
        fixed_steps: RK4 steps per period (integer >= 1) for a reproducible
            cloud, one ``integrate_orbit`` call per period; ``None`` steps
            all orbits as lanes of ``model._orbit_system`` from ``u = 0``,
            whose only stops are the strobes ``u = t = 2 pi k``.

    Both engines fill one NaN ``(n_iterates, 2, n_orbits)`` strobe array,
    which one loop turns into the cloud.  A collision truncates only its
    orbit, which keeps its earlier hits; its later strobes stay NaN and
    are dropped.  An adaptive orbit is truncated at its start or at the
    first accepted step within ``model.D_MIN`` of a primary, a fixed-step
    one at the first period in which the force's guard trips.  Non-finite
    initial conditions raise ``ValueError`` before either engine runs.
    """
    if not (isinstance(n_iterates, numbers.Integral) and n_iterates >= 1):
        raise ValueError(f"n_iterates={n_iterates} must be an integer >= 1")
    grid = np.array([(float(q0), float(p0)) for q0, p0 in initial_grid])
    if not np.isfinite(grid).all():
        raise ValueError("initial_grid holds a non-finite (q0, p0)")
    if fixed_steps is None:
        clock, rhs, halt = _orbit_system(params, 0.0)
        strobes = _dop853_lanes(clock, rhs,
                                np.arange(1, n_iterates + 1) * TWO_PI,
                                grid.reshape(-1, 2).T, len(grid), tol,
                                halt=halt)
    else:
        strobes = np.full((n_iterates, 2, len(grid)), np.nan)
        for i, (q, p) in enumerate(grid):
            state = (q, p, 0.0)
            for k in range(n_iterates):
                try:
                    state = integrate_orbit(state, TWO_PI, params, tol=tol,
                                            fixed_steps=fixed_steps).states[-1]
                except CollisionError:
                    break
                strobes[k, :, i] = state[:2]
    reached = np.isfinite(strobes[:, 0])  # a truncated orbit's tail is NaN
    return SectionCloud(
        orbits=[np.array([(wrap_angle(float(q)), float(p))
                          for q, p in strobes[reached[:, i], :, i]])
                for i in range(len(grid))],
        truncated=[not row.all() for row in reached.T])
