"""Stroboscopic Poincaré sections of the extended flow.

The section variable is the forcing phase itself, so orbits are sampled
once per period 2*pi with no crossing detection.  Initial conditions come
from declarative deterministic grids, never random draws, so clouds are
reproducible byte for byte under the fixed-step integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kepler import TWO_PI, ModelParams
from .integrate import DEFAULT_ORBIT_TOL, integrate_orbit
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
            cloud, one period per call; ``None`` strobes one DOP853 run
            per orbit.

    Collisions truncate the affected orbit only; the cloud keeps going.
    """
    if n_iterates < 1:
        raise ValueError(f"n_iterates={n_iterates} must be at least 1")
    cloud = SectionCloud(orbits=[], truncated=[])
    for q0, p0 in initial_grid:
        hits: list[tuple[float, float]] = []
        truncated = False
        if fixed_steps is None:
            t_eval = TWO_PI * np.arange(1, n_iterates + 1)
            try:
                traj = integrate_orbit((q0, p0, 0.0), TWO_PI * n_iterates,
                                       params, tol=tol, t_eval=t_eval)
                truncated = traj.truncated
                for q, p, _ in traj.states:
                    hits.append((wrap_angle(float(q)), float(p)))
            except CollisionError:
                truncated = True
        else:
            q, p, s = q0, p0, 0.0
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
