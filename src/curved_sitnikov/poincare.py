"""Stroboscopic Poincaré sections of the extended flow.

The section variable is the forcing phase itself, so orbits are sampled
once per period 2*pi with no crossing detection.  Initial conditions come
from declarative deterministic grids, never random draws.  The adaptive
route of ``section`` steps every orbit of a cloud as one lane of its own
lane system on ``integrate._dop853_lanes``, in eccentric-anomaly time;
its hits match to the tolerance but are not byte-identical across
versions.  The fixed-step RK4 route is reproducible byte for byte.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kepler import TWO_PI, ModelParams, _anomaly_geometry
from .integrate import DEFAULT_ORBIT_TOL, _dop853_lanes, integrate_orbit
from .model import (D_MIN, CollisionError, _phase_terms, _pull,
                    _squared_distance)


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
        n_iterates: number of section returns to record per orbit, an
            integer >= 1, else ``ValueError``.
        tol: integrator tolerance (adaptive engine).
        fixed_steps: RK4 steps per period (at least 1) for a reproducible
            cloud, one ``integrate_orbit`` call per period; ``None`` steps
            all orbits as the lanes of one DOP853 solve in eccentric
            anomaly ``u``: ``dq/du = rho p``, ``dp/du = rho f(q, t(u))``.
            Its only stops are the strobes ``u = t = 2 pi k``, so no lane
            solves Kepler's equation and each step is at most pi/2.

    Collisions truncate the affected orbit only; the cloud keeps going,
    and a truncated orbit keeps its earlier hits.  An adaptive orbit is
    truncated at the first accepted step within ``D_MIN`` of a primary, a
    fixed-step one at the first period in which the force guard trips.
    """
    if not (isinstance(n_iterates, numbers.Integral) and n_iterates >= 1):
        raise ValueError(f"n_iterates={n_iterates} must be an integer >= 1")
    grid = np.array([(float(q0), float(p0)) for q0, p0 in initial_grid])
    cloud = SectionCloud(orbits=[], truncated=[])
    if fixed_steps is None:
        r, eps = params.r, params.epsilon

        def clock(u, lanes):  # rows (rho, a^2, 1 + c, 1 - c) per time
            rho, a, t = _anomaly_geometry(u, r, eps)
            return np.stack((rho, *_phase_terms(a, a * np.cos(t))), axis=1)

        def distances(g, q):  # d1 and d2 as the rows of one array
            return np.sqrt(_squared_distance(g[1], g[2:], np.cos(q)))

        def rhs(g, y, lanes):
            pull = _pull(g[2:], np.sin(y[0]), distances(g, y[0]))
            dy = np.empty_like(y)
            dy[0] = g[0] * y[1]
            dy[1] = g[0] * (-pull[0] - pull[1])
            return dy

        def collided(g, y, lanes):
            return distances(g, y[0]).min(axis=0) <= D_MIN

        strobes = _dop853_lanes(clock, rhs,
                                np.arange(1, n_iterates + 1) * TWO_PI,
                                grid.reshape(-1, 2).T, len(grid), tol,
                                halt=collided)
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
