"""Time stepping for the nonlinear flow and the 2x2 variational flow.

Every adaptive solve in the package, orbits, monodromies and both winding
routes, goes through one wiring of the embedded Runge-Kutta pair DOP853
(order 8(5,3)): the tolerance window is checked and a failed solve raises
:class:`StiffnessError`.  Orbits can instead take a fixed-step classical
RK4 for bit-reproducible regression baselines: a given step count
``fixed_steps`` selects RK4, ``None`` selects DOP853.  Both engines are
reentrant and hold no state between calls; the flow is smooth away from
collisions, so no symplectic or stiff machinery is needed at these horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .kepler import ModelParams
from .model import D_MIN, _distances, tangential_force

TOL_MIN, TOL_MAX = 1e-13, 1e-6
DEFAULT_ORBIT_TOL = 1e-8
DEFAULT_MONODROMY_TOL = 1e-10


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; the problem left the smooth regime."""


@dataclass
class Trajectory:
    """Solution samples of the extended flow.

    ``t`` is strictly increasing with the requested endpoints first/last
    (unless collision-truncated); ``states`` has columns ``(q, p, s)``.
    """

    t: np.ndarray
    states: np.ndarray
    n_rhs: int
    truncated: bool = False


@dataclass
class FundamentalMatrix:
    """Value after one period of the fundamental solution with ``X(0) = I``.

    Columns are the solutions with initial conditions ``(1,0)`` and
    ``(0,1)``; since the linear system is trace-free the determinant
    (Wronskian) stays 1 up to integration error.
    """

    x1: float
    x2: float
    y1: float
    y2: float
    n_rhs: int = 0

    def as_array(self) -> np.ndarray:
        return np.array([[self.x1, self.x2], [self.y1, self.y2]])

    @property
    def det(self) -> float:
        return self.x1 * self.y2 - self.x2 * self.y1

    @property
    def half_trace(self) -> float:
        return 0.5 * (self.x1 + self.y2)


def _validate_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol={tol} outside [{TOL_MIN}, {TOL_MAX}]")


def _dop853(rhs, t_span: tuple[float, float], y0, tol: float, **options):
    """One DOP853 solve at ``rtol = atol = tol``; the scipy solution object.

    ``options`` pass through to ``solve_ivp`` (``t_eval``, ``events``,
    ``dense_output``).  A solve that stops short, other than at a terminal
    event, raises :class:`StiffnessError`.
    """
    _validate_tol(tol)
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tol, atol=tol,
                    **options)
    if sol.status == -1:
        raise StiffnessError(sol.message)
    return sol


def rk4_fixed(rhs: Callable[[float, np.ndarray], np.ndarray], t0: float,
              y0: np.ndarray, t1: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4; returns the full (t, y) sample arrays.

    Deterministic to the bit for identical inputs, which the adaptive
    engine does not guarantee across library versions.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps} must be at least 1")
    ts = np.linspace(t0, t1, n_steps + 1)
    h = (t1 - t0) / n_steps
    ys = np.empty((n_steps + 1, len(y0)))
    y = np.asarray(y0, dtype=float).copy()
    ys[0] = y
    t = t0
    for i in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = ts[i + 1]
        ys[i + 1] = y
    return ts, ys


def integrate_orbit(initial: Sequence[float], t_final: float,
                    params: ModelParams, tol: float = DEFAULT_ORBIT_TOL,
                    t_eval: np.ndarray | None = None,
                    fixed_steps: int | None = None) -> Trajectory:
    """Integrate the extended flow from ``initial`` over ``[0, t_final]``.

    The phase variable is exact: ``s(t) = s0 + t``; only ``(q, p)`` are
    stepped.  A terminal collision event at distance ``D_MIN``
    truncates the trajectory (the partial result is returned with
    ``truncated=True``); step-size underflow raises :class:`StiffnessError`.

    Args:
        initial: ``(q0, p0, s0)``.
        t_final: integration horizon; ``ValueError`` unless finite and > 0.
        params: model parameters.
        tol: local error tolerance per step, within ``[1e-13, 1e-6]``.
        t_eval: optional sample times (dense output by interpolation;
            adaptive engine only).
        fixed_steps: RK4 step count (at least 1) for a reproducible run;
            ``None`` integrates with DOP853.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final={t_final} must be positive and finite")
    q0, p0, s0 = (float(v) for v in initial)

    # the terminal event stops cleanly at D_MIN; the in-flight force guard
    # sits well below it so RK stages near the crossing stay evaluable
    hard_floor = 1e-3 * D_MIN

    def rhs(t, y):
        return np.array([y[1],
                         tangential_force(y[0], s0 + t, params, hard_floor)])

    if fixed_steps is not None:
        _validate_tol(tol)
        ts, ys = rk4_fixed(rhs, 0.0, np.array([q0, p0]), t_final, fixed_steps)
        states = np.column_stack([ys[:, 0], ys[:, 1], s0 + ts])
        return Trajectory(t=ts, states=states, n_rhs=4 * fixed_steps)

    def collision_event(t, y):
        d1, d2, _ = _distances(y[0], s0 + t, params, hard_floor)
        return min(d1, d2) - D_MIN

    collision_event.terminal = True

    sol = _dop853(rhs, (0.0, t_final), [q0, p0], tol, t_eval=t_eval,
                  events=collision_event)
    ts = sol.t
    states = np.column_stack([sol.y[0], sol.y[1], s0 + ts])
    return Trajectory(t=ts, states=states, n_rhs=int(sol.nfev),
                      truncated=(sol.status == 1))


def integrate_variational(a: Callable[[float], float], period: float,
                          tol: float) -> FundamentalMatrix:
    """Fundamental matrix at ``t = period`` of ``v' = [[0,1],[-a(t),0]] v``.

    ``a`` is the coefficient, e.g. the Hill coefficient of a linearization
    (``model.hill_coefficient``).  Both columns are integrated together as
    a 4-dimensional linear system, with DOP853 at tolerance ``tol``.
    """
    def rhs(t, y):
        at = a(t)
        return np.array([y[1], -at * y[0], y[3], -at * y[2]])

    sol = _dop853(rhs, (0.0, period), np.array([1.0, 0.0, 0.0, 1.0]), tol)
    x1, y1v, x2, y2v = (float(v) for v in sol.y[:, -1])
    return FundamentalMatrix(x1=x1, x2=x2, y1=y1v, y2=y2v,
                             n_rhs=int(sol.nfev))
