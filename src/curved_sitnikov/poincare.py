"""Stroboscopic Poincaré sections of the extended flow.

The section variable is the forcing phase itself, so orbits are sampled
once per period 2*pi with no crossing detection.  Initial conditions come
from declarative deterministic grids, never random draws.  The adaptive
route steps every orbit of a cloud as one lane of a batched DOP853 solve
in eccentric-anomaly time, which strobes at its stops with no Kepler
solve; its hits match to the tolerance but are not byte-identical across
versions.  The fixed-step RK4 route is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kepler import TWO_PI, ModelParams
from .integrate import DEFAULT_ORBIT_TOL, _strobe_orbits, integrate_orbit
from .model import CollisionError


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
        initial_grid: iterable of ``(q0, p0)`` pairs (phase starts at 0).
        n_iterates: number of section returns to record per orbit (>= 1).
        tol: integrator tolerance (adaptive engine).
        fixed_steps: RK4 steps per period (at least 1) for a reproducible
            cloud, one ``integrate_orbit`` call per period; ``None`` steps
            all orbits as the lanes of one DOP853 solve
            (``integrate._strobe_orbits``).

    Collisions truncate the affected orbit only; the cloud keeps going,
    and a truncated orbit keeps its earlier hits.  An adaptive orbit is
    truncated at the first accepted step within ``D_MIN`` of a primary, a
    fixed-step one at the first period in which the force guard trips.
    """
    if n_iterates < 1:
        raise ValueError(f"n_iterates={n_iterates} must be at least 1")
    grid = np.array([(float(q0), float(p0)) for q0, p0 in initial_grid])
    cloud = SectionCloud(orbits=[], truncated=[])
    if fixed_steps is None:
        strobes = _strobe_orbits(grid.reshape(-1, 2).T, n_iterates, params,
                                 tol)
        for i in range(len(grid)):
            qs, ps = strobes[:, :, i].T
            reached = np.isfinite(qs)
            cloud.orbits.append(np.array(
                [(wrap_angle(float(q)), float(p))
                 for q, p in zip(qs[reached], ps[reached])]))
            cloud.truncated.append(not reached.all())
        return cloud
    for q, p in grid:
        hits: list[tuple[float, float]] = []
        truncated, s = False, 0.0
        for _ in range(n_iterates):
            try:
                traj = integrate_orbit((q, p, s), TWO_PI, params, tol=tol,
                                       fixed_steps=fixed_steps)
            except CollisionError:
                truncated = True
                break
            q, p, s = traj.states[-1]
            hits.append((wrap_angle(float(q)), float(p)))
        cloud.orbits.append(np.array(hits))
        cloud.truncated.append(truncated)
    return cloud
