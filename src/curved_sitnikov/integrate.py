"""Time stepping for the nonlinear flow and the 2x2 variational flow.

Adaptive solves use the embedded Runge-Kutta pair DOP853 (order 8(5,3)) in
one of two loops, both with the tolerance window checked and a failed
solve raising :class:`StiffnessError`, and both with the step rules of
scipy's DOP853 solver (Hairer, Norsett and Wanner, *Solving ODEs I*,
II.4-II.5): small systems step on Python floats in ``_dop853_floats``,
and orbits and many independent solves go through ``_dop853_lanes``,
which steps them side by side as the lanes of one array.  The float loop
takes its trial step from the caller: single monodromies
(``integrate_variational``) pass one unrolled for their 4-component
system, the winding routes the generic ``_float_trial``; both give the
same floats.  The lane systems are ``model``'s.  The DOP853 tables are
scipy's, loaded from their file without importing ``scipy.integrate``; no
solve imports a scipy solver.  Float solves, and each lane between two
stops, stop with :class:`StiffnessError` past ``MAX_VARIATIONAL_NFEV``
right-hand-side calls, and orbits at ``MAX_GRID_POINTS`` rows, so every
admissible input ends in bounded work.  A step count ``fixed_steps``
selects a fixed-step classical RK4 for bit-reproducible orbit baselines,
``None`` DOP853.  All engines are reentrant and hold no state between
calls (``model._orbit_system``'s ``halt`` reads its solve's own closure);
the flow is smooth away from collisions, so no symplectic or stiff
machinery is needed at these horizons.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kepler import ModelParams, _anomaly_geometry, solve_kepler
from .model import _orbit_system, tangential_force

TOL_MIN, TOL_MAX = 1e-13, 1e-6
DEFAULT_ORBIT_TOL = 1e-8
DEFAULT_MONODROMY_TOL = 1e-10

# Right-hand-side calls one float solve (or one lane between two stops)
# may make; the tests, ``verify`` and the benchmark make at most
# about 14,000.
MAX_VARIATIONAL_NFEV = 1_000_000
# Most points one grid or Poincaré cloud, or rows one orbit, may hold.
MAX_GRID_POINTS = 1_000_000
ORBIT_ROW_SPACING = math.pi  # most eccentric anomaly between orbit rows


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; the problem left the smooth regime."""


@dataclass
class Trajectory:
    """Solution samples of the extended flow.

    One row per adaptive stop or RK4 step: ``t`` rises strictly from 0 to
    ``t_final`` (unless collision-truncated), ``states`` holds ``(q, p, s)``.
    """

    t: np.ndarray
    states: np.ndarray
    n_rhs: int
    truncated: bool = False


@dataclass
class FundamentalMatrix:
    """Fundamental solution with ``X(0) = I`` at the end time of its solve.

    That is half a period for ``floquet.monodromy`` and a full one in the
    Wronskian check.  Columns are the solutions with initial conditions
    ``(1,0)`` and ``(0,1)``; since the linear system is trace-free the
    determinant (Wronskian) stays 1 up to integration error.
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


def rk4_fixed(rhs: Callable[[float, np.ndarray], np.ndarray], t0: float,
              y0: np.ndarray, t1: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4; returns the full (t, y) sample arrays.

    Deterministic to the bit for identical inputs, which the adaptive
    engine does not guarantee across library versions.
    """
    if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1):
        raise ValueError(f"n_steps={n_steps} must be an integer >= 1")
    ts = np.linspace(t0, t1, n_steps + 1)
    h = (t1 - t0) / n_steps
    ys = np.empty((n_steps + 1, len(y0)))
    y = np.asarray(y0, dtype=float).copy()
    ys[0] = y
    for i in range(n_steps):
        t = ts[i]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ts, ys


def integrate_orbit(initial: Sequence[float], t_final: float,
                    params: ModelParams, tol: float = DEFAULT_ORBIT_TOL,
                    fixed_steps: int | None = None) -> Trajectory:
    """Integrate the extended flow from ``initial`` over ``[0, t_final]``.

    The phase variable is exact: ``s(t) = s0 + t``; only ``(q, p)`` are
    stepped.  DOP853 runs one lane of ``model._orbit_system``, rows at stops
    evenly spaced at most ``ORBIT_ROW_SPACING`` apart in eccentric anomaly;
    more than ``MAX_GRID_POINTS`` rows, or an eccentric-anomaly span that
    rounds to zero, raise ``ValueError`` before any step.  A collision
    truncates the orbit at its last stop (``truncated=True``), a start
    within ``model.D_MIN`` of a primary at its first row; the RK4 route's
    force raises ``CollisionError`` there instead.

    Args:
        initial: ``(q0, p0, s0)``, finite, else ``ValueError``.
        t_final: integration horizon; ``ValueError`` unless finite and > 0.
        params: model parameters.
        tol: local error tolerance per step, within ``[1e-13, 1e-6]``.
        fixed_steps: RK4 step count (an integer >= 1) for a reproducible run;
            ``None`` integrates with DOP853.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final={t_final} must be positive and finite")
    q0, p0, s0 = (float(v) for v in initial)
    if not all(map(math.isfinite, (q0, p0, s0))):
        raise ValueError(f"initial=({q0}, {p0}, {s0}) must be finite")

    if fixed_steps is not None:
        _validate_tol(tol)

        def rhs(t, y):
            return np.array([y[1], tangential_force(y[0], s0 + t, params)])

        ts, ys = rk4_fixed(rhs, 0.0, np.array([q0, p0]), t_final, fixed_steps)
        states = np.column_stack([ys[:, 0], ys[:, 1], s0 + ts])
        return Trajectory(t=ts, states=states, n_rhs=4 * fixed_steps)

    u0 = solve_kepler(s0, params.epsilon)
    span = solve_kepler(s0 + t_final, params.epsilon) - u0
    n_stops = np.ceil(span / ORBIT_ROW_SPACING)
    if not n_stops < MAX_GRID_POINTS:  # NaN or inf if s0 + t_final overflows
        raise ValueError(f"t_final={t_final} takes more than "
                         f"{MAX_GRID_POINTS} rows")
    if not span > 0.0:  # s0 + t_final rounds to s0, or solve_kepler does
        raise ValueError(f"t_final={t_final} spans no eccentric anomaly "
                         f"from s0={s0}")
    clock, rhs, halt = _orbit_system(params, u0)
    n_rhs = 0

    def counted(g, y, lanes):
        nonlocal n_rhs
        n_rhs += 1
        return rhs(g, y, lanes)

    us = np.linspace(0.0, span, max(1, int(n_stops)) + 1)
    ys = _dop853_lanes(clock, counted, us[1:], [q0, p0], 1, tol, halt=halt)
    ys = np.concatenate(([[q0, p0]], ys[:, :, 0]))
    ts = _anomaly_geometry(u0 + us, params.r, params.epsilon)[2] - s0
    ts[0], ts[-1] = 0.0, t_final
    keep = np.isfinite(ys[:, 0])  # a truncated orbit's later stops are NaN
    return Trajectory(t=ts[keep], states=np.column_stack([ys, s0 + ts])[keep],
                      n_rhs=n_rhs, truncated=not keep.all())


def integrate_variational(a: Callable[[float], float], period: float,
                          tol: float) -> FundamentalMatrix:
    """Fundamental matrix at ``t = period`` of ``v' = [[0,1],[-a(t),0]] v``.

    ``a`` is the coefficient, e.g. the Hill coefficient of a linearization
    (``model.hill_coefficient``), called once per right-hand-side call.
    Both columns are integrated together as the 4-component system
    ``(x1, y1, x2, y2)`` of ``_variational_system`` by ``_dop853_floats``
    at ``rtol = atol = tol``, so that loop's step rules and errors hold.
    """
    rhs, trial = _variational_system(a)
    _, ys, _, nfev = _dop853_floats(rhs, 0.0, period, (1.0, 0.0, 0.0, 1.0),
                                    tol, trial)
    x1, y1, x2, y2 = ys[-1]
    return FundamentalMatrix(x1=x1, x2=x2, y1=y1, y2=y2, n_rhs=nfev)


def _variational_system(a):
    """``v' = [[0,1],[-a(t),0]] v`` for both columns as ``(rhs, trial)``.

    ``rhs`` and ``trial`` are the system and trial step ``_dop853_floats``
    takes, state ``(x1, y1, x2, y2)``.  The trial is ``_float_trial(rhs)``
    with its stage arithmetic unrolled for the 4 components: the same
    floats, 1.6 to 2 times as fast.
    """
    def rhs(t, y):
        at = a(t)
        return y[1], -at * y[0], y[3], -at * y[2]

    def trial(t, y, f, h):
        x1, y1, x2, y2 = y
        k = [f]
        for c, row in _STAGES:
            d1, d2, d3, d4 = _combine(row, k)
            at = a(t + c * h)
            k.append((y1 + d2 * h, -at * (x1 + d1 * h),
                      y2 + d4 * h, -at * (x2 + d3 * h)))
        d1, d2, d3, d4 = _combine(_WEIGHTS, k)
        y_new = x1 + h * d1, y1 + h * d2, x2 + h * d3, y2 + h * d4
        return (y_new, rhs(t + h, y_new), _combine(_E5_WEIGHTS, k),
                _combine(_E3_WEIGHTS, k))

    return rhs, trial


def _combine(row, k) -> tuple[float, float, float, float]:
    """``sum(coef * k[j] for j, coef in row)`` of 4-tuples, in row order."""
    d1 = d2 = d3 = d4 = 0.0
    for j, coef in row:
        k1, k2, k3, k4 = k[j]
        d1 += coef * k1
        d2 += coef * k2
        d3 += coef * k3
        d4 += coef * k4
    return d1, d2, d3, d4


def _error_norm(e5s, e3s, y, y_new, h_abs: float, tol: float) -> float:
    """Scipy's DOP853 error norm of a step of length ``h_abs``, in floats.

    ``e5s`` and ``e3s`` are the two embedded error estimates (the stage
    sums of ``_E5_WEIGHTS`` and ``_E3_WEIGHTS``) of a step from ``y`` to
    ``y_new``, scaled componentwise by ``tol + max(|y|, |y_new|) tol``.
    """
    err5 = err3 = 0.0
    for e5, e3, old, new in zip(e5s, e3s, y, y_new):
        scale = tol + max(abs(old), abs(new)) * tol
        e5, e3 = e5 / scale, e3 / scale
        err5 += e5 * e5
        err3 += e3 * e3
    denom = err5 + 0.01 * err3
    # a NaN norm stays NaN and so rejects the step
    return h_abs * err5 / math.sqrt(len(y) * denom) if denom else 0.0


def _step_factor(error: float, rejected: bool) -> float:
    """Scipy's step-size factor after a step attempt with norm ``error``.

    The step is accepted when ``error < 1``; it may then grow the step up
    to ``_MAX_FACTOR``, but not right after a rejection (``rejected``).
    """
    if error < 1.0:
        factor = (_MAX_FACTOR if error == 0.0 else
                  min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
        return min(1.0, factor) if rejected else factor
    # max(_MIN_FACTOR, nan) is _MIN_FACTOR: a NaN-error step shrinks
    return max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)


def _combine_floats(row, k) -> list[float]:
    """``sum(coef * k[j] for j, coef in row)`` of equal-length sequences."""
    d = [0.0] * len(k[0])
    for j, coef in row:
        for i, v in enumerate(k[j]):
            d[i] += coef * v
    return d


def _float_step(rhs, t: float, y, f, h: float):
    """One DOP853 step of length ``h`` from ``(t, y)``, slope ``f`` there.

    Returns the new state and the stage slopes ``k`` (``f`` and the 11
    stage calls); the slope at the step's end is left to the caller.
    """
    k = [f]
    for c, row in _STAGES:
        d = _combine_floats(row, k)
        k.append(rhs(t + c * h, [v + dv * h for v, dv in zip(y, d)]))
    d = _combine_floats(_WEIGHTS, k)
    return [v + h * dv for v, dv in zip(y, d)], k


def _float_trial(rhs):
    """The generic trial step of ``_dop853_floats``: ``_float_step``."""
    def trial(t, y, f, h):
        y_new, k = _float_step(rhs, t, y, f, h)
        return (y_new, rhs(t + h, y_new), _combine_floats(_E5_WEIGHTS, k),
                _combine_floats(_E3_WEIGHTS, k))

    return trial


def _dop853_floats(rhs, t0: float, t1: float, y0, tol: float, trial):
    """Solve a small system ``y' = rhs(t, y)`` from ``t0`` to ``t1``.

    ``rhs`` maps a time and a state (a sequence of floats) to the slope,
    a sequence of floats.  ``trial(t, y, f, h)`` is one DOP853 step of
    signed length ``h`` from ``(t, y)`` with slope ``f`` there, 12 calls
    of ``rhs``; it returns the new state, the slope there and the stage
    sums of ``_E5_WEIGHTS`` and ``_E3_WEIGHTS``.  ``_float_trial(rhs)``
    serves any system; ``_variational_system`` has an unrolled one.  The
    solve is a DOP853 over Python floats at ``rtol = atol = tol`` that
    takes scipy's DOP853 steps, forward or backward: the initial step of
    ``_initial_steps``, the E5/E3 error norm, step factors 0.9/0.2/10 and
    no growth right after a rejection.  Its stage sums run in another
    order than scipy's, so the two agree to roundoff.  Returns
    ``(ts, ys, fs, nfev)``: the times, states and slopes at ``t0`` and at
    every accepted step's end, ordered from ``t0`` to ``t1``, and the
    right-hand-side calls made; ``t1 == t0`` takes no step.  Each
    accepted step starts from the entry before its end, so
    ``_float_stops`` can sample the solve between them.  A step below ten
    ulps of ``t`` after a rejection, a NaN step (from a NaN slope at
    ``t0``), or more than ``MAX_VARIATIONAL_NFEV`` right-hand-side calls
    raises :class:`StiffnessError`.
    """
    _validate_tol(tol)
    direction = 1.0 if t1 > t0 else -1.0

    def lane_rhs(tau, y, lanes):  # one lane, forward in |t - t0|
        slope = rhs(float(tau[0]), y[:, 0].tolist())
        return direction * np.array(slope)[:, None]

    t, y = t0, list(y0)
    f = rhs(t, y)
    h_abs = float(_initial_steps(
        lambda tau, lanes: t0 + direction * tau, lane_rhs, abs(t1 - t0),
        np.array(y)[:, None], direction * np.array(f)[:, None],
        np.zeros(1, dtype=int), tol)[0])
    nfev = 2
    ts, ys, fs = [t], [y], [f]
    while t != t1:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step too, which never shrinks
                raise StiffnessError("step size underflow in a float solve")
            nfev = _spend(nfev, _dop.N_STAGES)
            t_new = t + direction * h_abs
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, e5s, e3s = trial(t, y, f, h)
            error = _error_norm(e5s, e3s, y, y_new, h_abs, tol)
            h_abs *= _step_factor(error, rejected)
            if error < 1.0:
                break
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        fs.append(f)
    return ts, ys, fs, nfev


def _spend(nfev: int, calls: int) -> int:
    """``nfev + calls``, raising before a float solve passes the cap."""
    if nfev + calls > MAX_VARIATIONAL_NFEV:
        raise StiffnessError(f"float solve exceeded {MAX_VARIATIONAL_NFEV} "
                             f"right-hand-side calls")
    return nfev + calls


def _float_stops(rhs, steps, stops, nfev: int):
    """States of a ``_dop853_floats`` solve at the times ``stops``.

    ``steps`` is that solve's ``(ts, ys, fs)`` and ``nfev`` the calls
    made so far; ``stops`` are ordered from its start to its end.  A stop
    strictly inside an accepted step takes one more DOP853 step (11 calls)
    from that step's start, so no stop moves a step; any other stop is
    left out.  Returns ``(ts, ys, nfev)`` of the stops kept, ``nfev``
    counting on; passing ``MAX_VARIATIONAL_NFEV`` raises
    :class:`StiffnessError`.
    """
    ts, ys, fs = steps
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    out_ts, out_ys = [], []
    step = 0  # the accepted step from ts[step] to ts[step + 1]
    for stop in stops:
        while (step + 1 < len(ts)
               and direction * (ts[step + 1] - stop) <= 0.0):
            step += 1
        if step + 1 < len(ts) and direction * (stop - ts[step]) > 0.0:
            nfev = _spend(nfev, _dop.N_STAGES - 1)
            out_ts.append(stop)
            out_ys.append(_float_step(rhs, ts[step], ys[step], fs[step],
                                      stop - ts[step])[0])
    return out_ts, out_ys, nfev


# scipy's DOP853 tableau module, loaded from its file: importing it by name
# would run scipy/integrate/__init__.py, which loads all of scipy.integrate
# and scipy.optimize (most of this package's import time); the module
# itself needs only numpy.
_spec = importlib.util.spec_from_file_location(
    "curved_sitnikov._dop853_coefficients", os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "integrate", "_ivp", "dop853_coefficients.py"))
_dop = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_dop)

# scipy's DOP853 step control: safety factor, step-change limits, and the
# order of the error estimator, whose step exponent is -1/(order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ORDER + 1)
_A_ROWS = tuple(_dop.A[s, :s] for s in range(_dop.N_STAGES + 1))  # 12 is B

# The tableau as Python floats for the float trial steps: stages 1-11
# as their node and nonzero ``(j, A[s, j])``, and the nonzero ``(j, w[j])``
# of the weights and of the two error estimators (neither weighs the slope
# at the step's end).
_STAGES = tuple((float(_dop.C[s]),
                 tuple((j, float(a)) for j, a in enumerate(_A_ROWS[s]) if a))
                for s in range(1, _dop.N_STAGES))
_WEIGHTS, _E5_WEIGHTS, _E3_WEIGHTS = (
    tuple((j, float(w)) for j, w in enumerate(weights) if w)
    for weights in (_dop.B, _dop.E5, _dop.E3))


def _initial_steps(clock, rhs, t_end: float, y: np.ndarray, f: np.ndarray,
                   lanes: np.ndarray, tol: float) -> np.ndarray:
    """Each lane's first step from ``t = 0``, in one more ``rhs`` call.

    Scipy's initial-step rule (Hairer, Norsett and Wanner, *Solving
    ODEs I*, II.4), lane-wise at ``rtol = atol = tol``, for the system
    ``clock``, ``rhs`` of ``_dop853_lanes`` with ``f`` its slope at 0.
    """
    def rms(x):  # scipy's error norm, per lane
        return np.linalg.norm(x, axis=0) / x.shape[0] ** 0.5

    scale = tol + np.abs(y) * tol
    d0, d1 = rms(y / scale), rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end)
        f1 = rhs(clock(h0[None], lanes)[0], y + h0 * f, lanes)
        d2 = rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / (_ERROR_ORDER + 1)))
    return np.minimum(np.minimum(100 * h0, h1), t_end)


def _dop853_lanes(clock, rhs, stops, y0: np.ndarray, n_lanes: int,
                  tol: float, halt=None) -> np.ndarray:
    """Solve ``n_lanes`` independent systems from ``t = 0`` to each stop.

    The system comes in two parts: ``clock(t, lanes)`` maps times ``t``,
    shape ``(k, m)``, of the lanes ``lanes`` (indices into the batch) to
    what the right-hand side needs of time alone, one row per time, and
    ``rhs(g, y, lanes)`` maps one row ``g`` and states ``y``, shape
    ``(n, m)``, to ``dy/dt``.  DOP853's stage nodes ``c_i`` are fixed, so
    each step attempt calls ``clock`` once, on the 12 times ``t + c_i h``
    (``i = 1..11``) and ``t + h``, one row per ``rhs`` call; the start and
    the initial step add one row each.  An identity ``clock`` hands ``rhs``
    the times.  ``y0`` holds the initial states, shape ``(n, n_lanes)``, or
    one state ``(n,)`` for all lanes; ``stops`` is one time or an array of
    them, finite, positive and strictly increasing, else ``ValueError``.
    Every lane is stepped by DOP853 at ``rtol = atol = tol`` with scipy's
    rules: the initial step of ``_initial_steps``, the E5/E3 error norm,
    step factors 0.9/0.2/10 and no growth right after a rejection.  Each
    lane keeps its own step size and accept mask.  No step, the first one
    included, is longer than a quarter of the shortest interval between
    consecutive stops (the first measured from ``t = 0``): on an
    equilibrium of a strobed orbit the slope is roundoff, the error
    estimate sees nothing, and one step would span a whole period, whose
    error a hyperbolic equilibrium then amplifies.  A step that would pass
    the lane's next stop is clipped there and the state recorded; the lane's
    step size carries over, shrunk but never grown by the clipped step.  A
    lane leaves the batch after its last stop, or where ``halt(g, y,
    lanes)`` is true on its start or an accepted step, and the stops it
    never reached stay NaN.  ``halt`` runs first on the start states with
    the first ``rhs`` call's row, whose division warnings are silenced (a
    lane that starts halted may divide by zero), then once per step
    attempt, right after the step's last ``rhs`` call, whose state equals
    ``y`` on every accepted lane.  Returns the states at the stops, shape
    ``(len(stops), n, n_lanes)``, or ``(n, n_lanes)`` for one stop time.  A
    step below ten ulps of ``t`` after a rejection, a NaN step (from a NaN
    slope at ``t = 0``, raised once its first attempt is rejected), or a
    lane past ``MAX_VARIATIONAL_NFEV`` right-hand-side calls since its last
    stop raises :class:`StiffnessError`.  BLAS forms the stage sums, so a
    lane's bits may depend on the batch: OpenBLAS rounds a sum of 1 to 3
    columns (one lane of a 2-component system) differently from the same
    columns among 4 or more, and on two threads splits a sum of more than
    about 42,000 columns.  Lanes of 4 or more components below that width
    keep their bits in any batch; a fixed-order stage sum would keep all.
    """
    _validate_tol(tol)
    stop_times = np.atleast_1d(np.asarray(stops, dtype=float))
    if not (np.isfinite(stop_times).all() and stop_times.size
            and (np.diff(stop_times, prepend=0.0) > 0.0).all()):
        raise ValueError(f"stops={stops} not finite, positive, increasing")
    y0 = np.asarray(y0, dtype=float)
    lanes = np.arange(n_lanes)
    y = np.array(np.broadcast_to(y0.reshape(len(y0), -1), (len(y0), n_lanes)))
    out = np.full((stop_times.size,) + y.shape, np.nan)
    h_max = 0.25 * np.diff(stop_times, prepend=0.0).min()
    g = clock(np.zeros((1, n_lanes)), lanes)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = rhs(g, y, lanes)
    if halt is not None:
        keep = ~halt(g, y, lanes)
        lanes, y, f = lanes[keep], y[:, keep], f[:, keep]
    t = np.zeros(lanes.size)
    h_abs = np.minimum(_initial_steps(clock, rhs, stop_times[-1], y, f, lanes,
                                      tol), h_max)
    # Lanes step in lockstep, so every lane in the batch has made nfev
    # right-hand-side calls; a lane made nfev - nfev_at_stop[lane] of them
    # since its last stop, at most nfev - oldest.
    nfev, oldest = 2, 0
    nfev_at_stop = np.zeros(lanes.size, dtype=int)
    next_stop = np.zeros(lanes.size, dtype=int)
    t_stop = np.full(lanes.size, stop_times[0])
    rejected = np.zeros(lanes.size, dtype=bool)
    k = np.empty((_dop.N_STAGES + 1,) + y.shape)  # new only as lanes move
    while lanes.size:
        stages = k.reshape(k.shape[0], -1)  # a view, one row per stage
        min_step = 10.0 * np.spacing(t)  # ten ulps, as t >= 0
        # a NaN step too: it never shrinks, and its attempt is rejected
        if (rejected & ~(h_abs >= min_step)).any():
            raise StiffnessError("step size underflow in a lane-batched solve")
        h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_stop)
        h = t_new - t
        g = clock(np.concatenate((t + _dop.C[1:_dop.N_STAGES, None] * h,
                                  t_new[None])), lanes)
        k[0] = f
        y_flat, h_flat = y.reshape(-1), np.concatenate((h,) * y.shape[0])
        for s in range(1, _dop.N_STAGES + 1):  # the last is the step's end
            dy = np.dot(_A_ROWS[s], stages[:s]) * h_flat
            y_new = (y_flat + dy).reshape(y.shape)
            k[s] = f_new = rhs(g[s - 1], y_new, lanes)
        nfev += _dop.N_STAGES
        if nfev - oldest > MAX_VARIATIONAL_NFEV:
            raise StiffnessError(f"lane-batched solve exceeded "
                                 f"{MAX_VARIATIONAL_NFEV} right-hand-side "
                                 f"calls per lane")

        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err5 = ((np.dot(_dop.E5, stages).reshape(y.shape) / scale) ** 2).sum(0)
        err3 = ((np.dot(_dop.E3, stages).reshape(y.shape) / scale) ** 2).sum(0)
        denom = np.sqrt((err5 + 0.01 * err3) * y.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            # a NaN norm stays NaN and so rejects the step
            error = np.where(denom == 0.0, 0.0, h * err5 / denom)
            growth = _SAFETY * error ** _ERROR_EXPONENT
        accept = error < 1.0
        factor = np.minimum(_MAX_FACTOR, growth)
        factor = np.where(rejected, np.minimum(1.0, factor), factor)
        # fmax, like Python's max, shrinks a NaN-error step by _MIN_FACTOR
        h_prev = h_abs
        h_abs = np.minimum(
            h_abs * np.where(accept, factor, np.fmax(_MIN_FACTOR, growth)),
            h_max)
        rejected = ~accept
        if rejected.any():
            t = np.where(accept, t_new, t)
            y = np.where(accept, y_new, y)
            f = np.where(accept, f_new, f)
        else:
            t, y, f = t_new, y_new, f_new

        reached = accept & (t_new == t_stop)
        moved = False
        if halt is not None:
            halted = accept & halt(g[-1], y, lanes)
            if halted.any():
                reached &= ~halted
                next_stop[halted] = stop_times.size  # later stops stay NaN
                moved = True
        if reached.any():
            out[next_stop[reached], :, lanes[reached]] = y[:, reached].T
            next_stop[reached] += 1
            nfev_at_stop[reached] = nfev
            # a step clipped at a stop may shrink the next one, not grow it
            h_abs[reached] = np.minimum(h_abs[reached], h_prev[reached])
            moved = True
        if moved:
            keep = next_stop < stop_times.size
            lanes, t, y, f = lanes[keep], t[keep], y[:, keep], f[:, keep]
            k = np.empty((k.shape[0],) + y.shape)
            h_abs, rejected = h_abs[keep], rejected[keep]
            next_stop, nfev_at_stop = next_stop[keep], nfev_at_stop[keep]
            t_stop = stop_times[next_stop]
            oldest = nfev_at_stop.min(initial=nfev)
    return out if np.ndim(stops) else out[0]

