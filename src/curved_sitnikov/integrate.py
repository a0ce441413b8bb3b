"""Time stepping for the nonlinear flow and the 2x2 variational flow.

Adaptive solves use the embedded Runge-Kutta pair DOP853 (order 8(5,3)) in
one of two loops, both with the tolerance window checked and a failed
solve raising :class:`StiffnessError`, and both with the step rules of
scipy's DOP853 solver (Hairer, Norsett and Wanner, *Solving ODEs I*,
II.4-II.5): small systems step on Python floats in ``_dop853_floats``,
and orbits and many independent solves go through ``_dop853_lanes``,
which steps them side by side as the lanes of one array.  Both take a
system in two parts, a clock of what the right-hand side needs of time
alone and the right-hand side given its value.  Every step of the float
loop, single monodromies (``integrate_variational``) and both winding
routes alike, is one call of a straight-line kernel that
``_dop853_kernel`` compiles once per component count from the tableau.
The lane systems, and the float clock on which both winding routes step
in eccentric-anomaly time, are ``model``'s.  The DOP853 tableau is
written out once in this module, both loops read it, and no scipy module
is imported.
Float solves, and each lane between two stops, stop with
:class:`StiffnessError` past ``MAX_VARIATIONAL_NFEV`` right-hand-side
calls, and orbits at ``MAX_GRID_POINTS`` rows, so every admissible input
ends in bounded work.  Every engine returns the right-hand-side calls it
made; all are reentrant and hold no state between calls but the compiled
kernels (``model._orbit_system``'s ``halt`` reads its solve's own
closure).  The flow is smooth away from collisions, so no symplectic or
stiff machinery is needed at these horizons.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kepler import ModelParams, _anomaly_geometry, solve_kepler
from .model import _orbit_system
# bench/tracer.py counts force calls by rebinding this name
from .model import tangential_force  # noqa: F401

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

    One row at the start and at each stop: ``t`` rises strictly from 0 to
    ``t_final`` (unless collision-truncated), ``states`` holds ``(q, p, s)``.
    """

    t: np.ndarray
    states: np.ndarray
    n_rhs: int
    truncated: bool


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
    n_rhs: int

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


def _check_count(name: str, n) -> None:
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"{name}={n} must be at least 1 and an integer")


def integrate_orbit(initial: Sequence[float], t_final: float,
                    params: ModelParams,
                    tol: float = DEFAULT_ORBIT_TOL) -> Trajectory:
    """Integrate the extended flow from ``initial`` over ``[0, t_final]``.

    The phase variable is exact: ``s(t) = s0 + t``; only ``(q, p)`` are
    stepped.  DOP853 runs one lane of ``model._orbit_system``, rows at stops
    evenly spaced at most ``ORBIT_ROW_SPACING`` apart in eccentric anomaly;
    more than ``MAX_GRID_POINTS`` rows, or an eccentric-anomaly span that
    rounds to zero, raise ``ValueError`` before any step.  A collision
    truncates the orbit at its last stop (``truncated=True``), a start
    within ``model.D_MIN`` of a primary at its first row, and never raises.
    ``n_rhs`` is the count of right-hand-side calls the engine returns.

    Args:
        initial: ``(q0, p0, s0)``, finite, else ``ValueError``.
        t_final: integration horizon; ``ValueError`` unless finite and > 0.
        params: model parameters.
        tol: local error tolerance per step, within ``[1e-13, 1e-6]``.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final={t_final} must be positive and finite")
    q0, p0, s0 = (float(v) for v in initial)
    if not all(map(math.isfinite, (q0, p0, s0))):
        raise ValueError(f"initial=({q0}, {p0}, {s0}) must be finite")

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
    us = np.linspace(0.0, span, max(1, int(n_stops)) + 1)
    ys, n_rhs = _dop853_lanes(clock, rhs, us[1:], [q0, p0], 1, tol, halt=halt)
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
    (``model.hill_coefficient``), called once per stage time: 11 times a
    step attempt, whose 12 right-hand-side calls ``n_rhs`` counts.  Both
    columns are integrated together as the 4-component system
    ``(x1, y1, x2, y2)`` of ``_variational_rhs``, with ``a`` its clock, by
    ``_dop853_floats`` at ``rtol = atol = tol``, so that loop's step rules
    and errors hold.  A non-finite ``period`` raises ``ValueError``.
    """
    if not math.isfinite(period):
        raise ValueError(f"period={period} must be finite")
    _, ys, nfev = _dop853_floats(a, _variational_rhs, 0.0, period,
                                 (1.0, 0.0, 0.0, 1.0), tol)
    x1, y1, x2, y2 = ys[-1]
    return FundamentalMatrix(x1=x1, x2=x2, y1=y1, y2=y2, n_rhs=nfev)


def _variational_rhs(at, y):
    """``v' = [[0,1],[-a(t),0]] v`` for both columns ``(x1, y1, x2, y2)``,
    given the coefficient ``at = a(t)``."""
    return y[1], -at * y[0], y[3], -at * y[2]


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


@functools.cache
def _dop853_kernel(n: int):
    """One DOP853 step attempt on ``n`` floats, written out line by line.

    ``kernel(clock, rhs, t, y, f, h, tol)`` steps the system ``clock``,
    ``rhs`` of ``_dop853_floats`` by signed ``h`` from ``(t, y)``, slope
    ``f`` there, and returns the new state (a tuple), the slope there and
    scipy's E5/E3 error norm of the step, scaled componentwise by ``tol +
    max(|y|, |y_new|) tol``; a NaN norm stays NaN and so rejects the
    step.  ``_dop853_floats`` is its one caller.  Every stage, weight and
    error sum is written from ``0.0`` in the row order of ``_STAGES``,
    ``_WEIGHTS``, ``_E5_WEIGHTS`` and ``_E3_WEIGHTS``, so it rounds as the
    loop ``d = 0.0; d += coef * k[j]`` would.  Stage 11's node is 1, so it
    and the step's end share one ``clock`` row: 11 ``clock`` and 12
    ``rhs`` calls an attempt.  Built once per ``n`` by ``compile``.
    """
    comps = range(n)

    def tup(form):  # "(form(0), ..., form(n - 1), )"
        return "(" + "".join(form.format(i=i) + ", " for i in comps) + ")"

    def total(row, i):  # sum(coef * k[j][i] for j, coef in row), from 0.0
        return "(0.0" + "".join(f" + {c!r} * k{j}_{i}" for j, c in row) + ")"

    lines = ["def kernel(clock, rhs, t, y, f, h, tol):",
             f"{tup('y{i}')} = y", f"{tup('k0_{i}')} = f"]
    for s, (c, row) in enumerate(_STAGES, 1):
        state = tup("y{i} + " + total(row, "{i}") + " * h")
        lines += [f"g = clock(t + {c!r} * h)",
                  f"{tup(f'k{s}_{{i}}')} = rhs(g, {state})"]
    lines += [f"n{i} = y{i} + h * {total(_WEIGHTS, i)}" for i in comps]
    lines += [f"y_new = {tup('n{i}')}"]
    for i in comps:  # (b if b > a else a) is max(a, b), NaNs included
        lines += [f"a, b = abs(y{i}), abs(n{i})",
                  "s = tol + (b if b > a else a) * tol",
                  f"e5_{i} = {total(_E5_WEIGHTS, i)} / s",
                  f"e3_{i} = {total(_E3_WEIGHTS, i)} / s"]
    lines += ["err5 = 0.0" + "".join(f" + e5_{i} * e5_{i}" for i in comps),
              "err3 = 0.0" + "".join(f" + e3_{i} * e3_{i}" for i in comps),
              "denom = err5 + 0.01 * err3",
              f"error = abs(h) * err5 / sqrt({n} * denom) if denom else 0.0",
              "return y_new, rhs(g, y_new), error"]
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n    ".join(lines), f"<DOP853 kernel, n={n}>", "exec"),
         namespace)
    return namespace["kernel"]


def _dop853_floats(clock, rhs, t0: float, t1: float, y0, tol: float):
    """Solve a small system ``y' = rhs(clock(t), y)`` from ``t0`` to ``t1``.

    The system comes in two parts, as for ``_dop853_lanes``: ``clock(t)``
    is what the right-hand side needs of time alone (for a Hill equation
    the coefficient ``a(t)``, or ``(rho, rho a)`` in eccentric-anomaly
    time), and ``rhs(g, y)`` maps its value ``g`` and a state (a sequence
    of floats) to the slope, a sequence of floats.
    Each step attempt is one call of the straight-line ``_dop853_kernel``
    for the state's length: 11 ``clock`` and 12 ``rhs`` calls.  The solve
    is a DOP853 over Python floats at ``rtol = atol = tol`` that takes
    scipy's DOP853 steps, forward or backward: the initial step of
    ``_initial_steps``, the E5/E3 error norm, step factors 0.9/0.2/10 and
    no growth right after a rejection.  Its stage sums run in another
    order than scipy's, so the two agree to roundoff.  Returns ``(ts, ys,
    nfev)``: the times and states at ``t0`` and at every accepted step's
    end, ordered from ``t0`` to ``t1``, and the right-hand-side calls
    made; ``t1 == t0`` takes no step.  A step below ten ulps of ``t``
    after a rejection, a NaN step (from a NaN slope at ``t0``), or more
    than ``MAX_VARIATIONAL_NFEV`` right-hand-side calls raises
    :class:`StiffnessError`.
    """
    _validate_tol(tol)
    direction = 1.0 if t1 > t0 else -1.0

    def slope(h, y):  # one lane, forward in |t - t0|
        return direction * np.array(rhs(clock(t0 + direction * float(h[0])),
                                        y[:, 0].tolist()))[:, None]

    kernel = _dop853_kernel(len(y0))
    t, y = t0, tuple(y0)
    f = rhs(clock(t), y)
    h_abs = float(_initial_steps(slope, abs(t1 - t0), np.array(y)[:, None],
                                 direction * np.array(f)[:, None], tol)[0])
    nfev = 2
    ts, ys = [t], [y]
    while t != t1:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step too, which never shrinks
                raise StiffnessError("step size underflow in a float solve")
            nfev = _spend(nfev, _N_STAGES)
            t_new = t + direction * h_abs
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            y_new, f_new, error = kernel(clock, rhs, t, y, f, h, tol)
            h_abs = abs(h) * _step_factor(error, rejected)
            if error < 1.0:
                break
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return ts, ys, nfev


def _spend(nfev: int, calls: int) -> int:
    """``nfev + calls``, raising before a float solve, or the solves of
    one ``arg`` winding together, pass the cap."""
    if nfev + calls > MAX_VARIATIONAL_NFEV:
        raise StiffnessError(f"float solve exceeded {MAX_VARIATIONAL_NFEV} "
                             f"right-hand-side calls")
    return nfev + calls


# scipy's DOP853 step control: safety factor, step-change limits, and the
# order of the error estimator, whose step exponent is -1/(order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ORDER + 1)

# The DOP853 tableau (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5),
# scipy's values to the bit: stages 1-11 as their node and nonzero ``(j,
# A[s, j])``, and the nonzero ``(j, w[j])`` of the weights and of the two
# error estimators (neither weighs the slope at the step's end).
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
     (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386),
     (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405),
     (4, 0.06021653898045596), (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
     (4, 0.10726203044637328), (5, -0.015319437748624402),
     (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
     (4, -0.868219346841726), (5, 27.59209969944671), (6, 20.154067550477894),
     (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677),
     (4, -0.590290826836843), (5, 21.230051448181193), (6, 15.279233632882423),
     (7, -33.28821096898486), (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
     (4, 1.0914373489967295), (5, -8.149787010746927), (6, -18.52006565999696),
     (7, 22.739487099350505), (8, 2.4936055526796523),
     (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725),
     (4, -2.0008720582248625), (5, -17.9589318631188), (6, 27.94888452941996),
     (7, -2.8589982771350235), (8, -8.87285693353063), (9, 12.360567175794303),
     (10, 0.6433927460157636))),
)
_WEIGHTS = ((0, 0.054293734116568765), (5, 4.450312892752409),
            (6, 1.8915178993145003), (7, -5.801203960010585),
            (8, 0.3111643669578199), (9, -0.1521609496625161),
            (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5_WEIGHTS = ((0, 0.01312004499419488), (5, -1.2251564463762044),
               (6, -0.4957589496572502), (7, 1.6643771824549864),
               (8, -0.35032884874997366), (9, 0.3341791187130175),
               (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3_WEIGHTS = ((0, -0.18980075407240762), (5, 4.450312892752409),
               (6, 1.8915178993145003), (7, -5.801203960010585),
               (8, -0.4226823213237919), (9, -0.1521609496625161),
               (10, 0.20136540080403034), (11, 0.02265179219836082))

# The lanes' dense forms of the tableau, 0.0 where it lists nothing: an
# attempt's _N_STAGES right-hand-side calls are stages 1-11, at _NODES,
# and the step's end; _A_ROWS[s] weighs the s slopes before stage s (row
# 12 is the weights), _E5 and _E3 all 13.
_N_STAGES = len(_STAGES) + 1
_NODES = np.array([c for c, _ in _STAGES])
_A_ROWS = tuple(np.array([dict(row).get(j, 0.0) for j in range(s)])
                for s, row in enumerate([()] + [r for _, r in _STAGES]
                                        + [_WEIGHTS]))
_E5, _E3 = (np.array([dict(w).get(j, 0.0) for j in range(_N_STAGES + 1)])
            for w in (_E5_WEIGHTS, _E3_WEIGHTS))


def _initial_steps(slope, t_end: float, y: np.ndarray, f: np.ndarray,
                   tol: float) -> np.ndarray:
    """Each lane's first step from ``t = 0``, in one more ``slope`` call.

    Scipy's initial-step rule (Hairer, Norsett and Wanner, *Solving
    ODEs I*, II.4), lane-wise at ``rtol = atol = tol``, for ``m`` lanes'
    states ``y`` and slopes ``f`` at 0, shape ``(n, m)`` (one solve is one
    lane: ``(n,)`` would sum the norm in another order), and ``slope(h,
    y)``, their slopes at times ``h``.
    """
    def rms(x):  # scipy's error norm, per lane
        return np.linalg.norm(x, axis=0) / x.shape[0] ** 0.5

    scale = tol + np.abs(y) * tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end)
        f1 = slope(h0, y + h0 * f)
        d2 = rms((f1 - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / (_ERROR_ORDER + 1)))
    return np.minimum(np.minimum(100 * h0, h1), t_end)


def _dop853_lanes(clock, rhs, stops, y0: np.ndarray, n_lanes: int,
                  tol: float, halt=None) -> tuple[np.ndarray, int]:
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
    one state ``(n,)`` for all lanes; ``stops`` is a 1-D array of times,
    finite, positive and strictly increasing, else ``ValueError``.
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
    lane that starts halted may divide by zero; when all do, the solve
    returns before the initial step), then once per step attempt, right
    after the step's last ``rhs`` call, whose state equals ``y`` on every
    accepted lane.  Returns the states at the stops, shape
    ``(len(stops), n, n_lanes)``, and ``nfev``, the lockstep ``rhs``
    calls: 1 if every lane starts halted, else 2 (the start and the
    initial step) plus 12 per attempt.  A step
    below ten ulps of ``t`` after a rejection, a NaN step (from a NaN slope
    at ``t = 0``, raised once its first attempt is rejected), or a lane
    past ``MAX_VARIATIONAL_NFEV`` right-hand-side calls since its last stop
    raises :class:`StiffnessError`.  BLAS forms the stage sums, so a lane's
    bits may depend on the batch: OpenBLAS rounds a sum of 1 to 3 columns
    (one lane of a 2-component system) differently from the same columns
    among 4 or more, and on two threads splits a sum of more than about
    42,000 columns.  Lanes of 4 or more components below that width keep
    their bits in any batch; a fixed-order stage sum would keep all.
    """
    _validate_tol(tol)
    stop_times = np.asarray(stops, dtype=float)
    if not (stop_times.ndim == 1 and stop_times.size
            and stop_times[-1] < math.inf  # and so is every earlier stop
            and (np.diff(stop_times, prepend=0.0) > 0.0).all()):
        raise ValueError(f"stops={stops} not 1-D, finite, positive, rising")
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
        if not lanes.size:  # every lane halted at its start
            return out, 1
    t = np.zeros(lanes.size)
    h_abs = np.minimum(_initial_steps(
        lambda h, y: rhs(clock(h[None], lanes)[0], y, lanes),
        stop_times[-1], y, f, tol), h_max)
    # Lanes step in lockstep, so every lane in the batch has made nfev
    # right-hand-side calls; a lane made nfev - nfev_at_stop[lane] of them
    # since its last stop, at most nfev - oldest.
    nfev, oldest = 2, 0
    nfev_at_stop = np.zeros(lanes.size, dtype=int)
    next_stop = np.zeros(lanes.size, dtype=int)
    t_stop = np.full(lanes.size, stop_times[0])
    rejected = np.zeros(lanes.size, dtype=bool)
    k = np.empty((_N_STAGES + 1,) + y.shape)  # new only as lanes move
    while lanes.size:
        stages = k.reshape(k.shape[0], -1)  # a view, one row per stage
        min_step = 10.0 * np.spacing(t)  # ten ulps, as t >= 0
        # a NaN step too: it never shrinks, and its attempt is rejected
        if (rejected & ~(h_abs >= min_step)).any():
            raise StiffnessError("step size underflow in a lane-batched solve")
        h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_stop)
        h = t_new - t
        g = clock(np.concatenate((t + _NODES[:, None] * h,
                                  t_new[None])), lanes)
        k[0] = f
        y_flat, h_flat = y.reshape(-1), np.concatenate((h,) * y.shape[0])
        for s in range(1, _N_STAGES + 1):  # the last is the step's end
            dy = np.dot(_A_ROWS[s], stages[:s]) * h_flat
            y_new = (y_flat + dy).reshape(y.shape)
            k[s] = f_new = rhs(g[s - 1], y_new, lanes)
        nfev += _N_STAGES
        if nfev - oldest > MAX_VARIATIONAL_NFEV:
            raise StiffnessError(f"lane-batched solve exceeded "
                                 f"{MAX_VARIATIONAL_NFEV} right-hand-side "
                                 f"calls per lane")

        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err5 = ((np.dot(_E5, stages).reshape(y.shape) / scale) ** 2).sum(0)
        err3 = ((np.dot(_E3, stages).reshape(y.shape) / scale) ** 2).sum(0)
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
    return out, nfev

