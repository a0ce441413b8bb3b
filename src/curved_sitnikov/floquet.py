"""Monodromy-based linear stability classification and winding diagnostics.

For the trace-free linearization ``S'' + a(t) S = 0`` the multipliers are
``lam = h ± sqrt(h^2 - 1)`` with ``h`` the half-trace of the monodromy
matrix; their product is 1.  Position of ``h`` relative to ±1 decides the
class: elliptic (``|h| < 1``, multipliers non-real on the unit circle,
strongly stable), parabolic (``|h| = 1``), hyperbolic (``|h| > 1``).
Because exact parabolicity is a measure-zero condition, a small band
``delta_par`` around ``|h| = 1`` is reported as parabolic.  The census's
half-traces step ``model._antipode_system``, one lane per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kepler import TWO_PI, ModelParams
from .model import (_antipode_system, coefficient_period, cubic_coefficient,
                    hill_coefficient)
from .integrate import (DEFAULT_MONODROMY_TOL, FundamentalMatrix,
                        _dop853_floats, _dop853_lanes, _float_stops,
                        _float_trial, integrate_variational)

DEFAULT_DELTA_PAR = 1e-9
DET_CORRUPT_TOL = 1e-6

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


class MonodromyError(ValueError):
    """The fundamental matrix is not a valid monodromy (Wronskian off 1)."""


def _check_det(det: float, where: str) -> None:
    """Raise ``MonodromyError`` unless ``|det - 1| <= DET_CORRUPT_TOL``.

    Written so that a NaN ``det`` fails too; ``where`` follows the value
    in the message.
    """
    if not abs(det - 1.0) <= DET_CORRUPT_TOL:
        raise MonodromyError(f"det={det!r}{where} deviates from 1 beyond "
                             f"{DET_CORRUPT_TOL}")


@dataclass(frozen=True)
class Monodromy:
    """Fundamental matrix after one forcing period at an equilibrium.

    ``monodromy`` leaves in a factor ``det X(T/2)``, 1 up to the solve's
    error.  Building one raises ``MonodromyError`` unless ``det``, the
    Wronskian of a trace-free system, is within ``DET_CORRUPT_TOL`` of 1.
    """

    matrix: FundamentalMatrix
    period: float

    def __post_init__(self) -> None:
        _check_det(self.det, "")

    @property
    def half_trace(self) -> float:
        return self.matrix.half_trace

    @property
    def det(self) -> float:
        return self.matrix.det


def monodromy(q_star: float, params: ModelParams, period: float | None = None,
              tol: float = DEFAULT_MONODROMY_TOL) -> Monodromy:
    """Monodromy matrix of the linearization at ``q_star``.

    ``period`` defaults to the coefficient's period: pi for circular
    primaries, 2*pi otherwise.  The half period pi is admitted only when
    ``epsilon = 0``.  One solve covers half of ``period``: the Hill
    coefficient is even, so with ``D = diag(1, -1)`` and ``X = X(T/2)``
    the monodromy is ``D X^-1 D X``.  The matrix returned is its
    adjugate form ``[[p, 2 x2 y2], [2 x1 y1, p]]``, ``p = x1 y2 + x2 y1``,
    which is the monodromy times ``det X``; its determinant is
    ``det X ** 2``, so the Wronskian check reads the solve's own error.
    ``n_rhs`` counts the half-period solve.
    """
    if period is None:
        period = coefficient_period(params.epsilon)
    if not (math.isclose(period, math.pi) or math.isclose(period, TWO_PI)):
        raise ValueError(f"period={period} must be pi or 2*pi")
    if math.isclose(period, math.pi) and params.epsilon != 0.0:
        raise ValueError("period pi requires epsilon = 0")
    half = integrate_variational(hill_coefficient(q_star, params),
                                 0.5 * period, tol=tol)
    p = half.x1 * half.y2 + half.x2 * half.y1
    mat = FundamentalMatrix(x1=p, x2=2.0 * half.x2 * half.y2,
                            y1=2.0 * half.x1 * half.y1, y2=p,
                            n_rhs=half.n_rhs)
    return Monodromy(matrix=mat, period=period)


def _antipode_half_traces(rs, epsilon: float, tol: float) -> np.ndarray:
    """Half-traces of the antipode's monodromy at each radius in ``rs``.

    One lane-batched solve of ``model._antipode_system`` to ``u = t =
    T/2``: by ``monodromy``'s even-coefficient identity the half-trace is
    ``(x1 y2 + x2 y1) / det X(T/2)``.  Raises ``MonodromyError`` unless
    every lane's ``det X(T/2)`` is within ``DET_CORRUPT_TOL`` of 1.
    """
    rs = np.asarray(rs, dtype=float)
    for r in (rs.min(), rs.max()):  # validates every radius and epsilon
        ModelParams(r=float(r), epsilon=epsilon)
    clock, rhs = _antipode_system(rs, epsilon)
    x1, y1, x2, y2 = _dop853_lanes(clock, rhs,
                                   0.5 * coefficient_period(epsilon),
                                   np.array([1.0, 0.0, 0.0, 1.0]), rs.size,
                                   tol)
    det = x1 * y2 - x2 * y1
    worst = int(np.argmax(np.abs(det - 1.0)))  # the first NaN, if any
    _check_det(float(det[worst]), f" at r={float(rs[worst])!r}")
    return (x1 * y2 + x2 * y1) / det


def classify(m: Monodromy, delta_par: float = DEFAULT_DELTA_PAR) -> str:
    """Stability class from the half-trace, parabolic band ``delta_par``."""
    if not 0.0 < delta_par <= 1e-3:
        raise ValueError(f"delta_par={delta_par} outside (0, 1e-3]")
    h = m.half_trace
    if abs(abs(h) - 1.0) <= delta_par:
        return PARABOLIC
    return ELLIPTIC if abs(h) < 1.0 else HYPERBOLIC


def winding_angle(a: Callable[[float], float], t0: float, t1: float,
                  z0: complex, tol: float = 1e-10,
                  method: str = "theta") -> float:
    """Signed increment of ``arg(x + i x')`` along ``x'' + a(t) x = 0``.

    ``z(t) = x + i x'`` with ``z(t0) = z0 != 0``; ``t0``, ``t1`` and ``z0``
    must be finite, else ``ValueError`` before any work.  ``t1 < t0``
    integrates backward, and ``t1 == t0`` gives 0.  ``tol`` must lie in
    the integrator window ``[1e-13, 1e-6]``.  Both routes solve with
    ``integrate._dop853_floats``, which takes scipy's DOP853 steps and
    raises :class:`StiffnessError` on a step-size underflow (where a NaN
    coefficient ends) or past ``MAX_VARIATIONAL_NFEV`` right-hand-side
    calls.  Two independent routes:

    * ``"theta"``: integrate ``theta' = -(a cos^2 theta + sin^2 theta)``,
      which tracks the continuous argument exactly (no unwrapping).
    * ``"arg"``: integrate ``(x, x')`` and unwrap the argument of the
      states at the accepted steps' ends.  Where one increment reaches
      pi/2, add the state at that interval's midpoint, one more DOP853
      step from the start of the accepted step that covers it
      (``integrate._float_stops``, counted against the same cap), until
      every increment stays below pi/2.

    Both must agree; they are kept separate so either can check the other.
    """
    if method not in ("theta", "arg"):
        raise ValueError(f"unknown method {method!r}")
    if not all(map(math.isfinite, (t0, t1, z0.real, z0.imag))):
        raise ValueError(f"t0={t0}, t1={t1} and z0={z0} must be finite")
    if z0 == 0:
        raise ValueError("z0 must be nonzero")

    if method == "theta":
        th0 = math.atan2(z0.imag, z0.real)

        def rhs(t, y):
            c, s = math.cos(y[0]), math.sin(y[0])
            return [-(a(t) * c * c + s * s)]

        ys = _dop853_floats(rhs, t0, t1, [th0], tol, _float_trial(rhs))[1]
        return ys[-1][0] - th0

    def rhs(t, y):
        return [y[1], -a(t) * y[0]]

    ts, ys, fs, nfev = _dop853_floats(rhs, t0, t1, [z0.real, z0.imag], tol,
                                      _float_trial(rhs))
    steps = ts, ys, fs
    for _ in range(40):
        xs = np.array(ys)
        if not np.hypot(xs[:, 0], xs[:, 1]).all():
            raise RuntimeError("phase vector hit zero: invalid solution")
        args = np.unwrap(np.arctan2(xs[:, 1], xs[:, 0]))
        jumps = np.abs(np.diff(args))
        if np.all(jumps < 0.5 * math.pi):
            return float(args[-1] - args[0])
        mids = [0.5 * (ta + tb) for ta, tb, jump in zip(ts, ts[1:], jumps)
                if jump >= 0.5 * math.pi]
        mid_ts, mid_ys, nfev = _float_stops(rhs, steps, mids, nfev)
        samples = sorted(zip(ts + mid_ts, ys + mid_ys),
                         key=lambda sample: sample[0], reverse=t1 < t0)
        ts, ys = [t for t, _ in samples], [y for _, y in samples]
    raise RuntimeError("argument unwrapping did not stabilize")


def winding_bound(a_min: float, t0: float, t1: float) -> float:
    """Upper bound ``-sqrt(a_min) (t1 - t0) + pi`` on the winding increment.

    Valid whenever the coefficient stays >= ``a_min`` > 0 on the interval;
    fast rotation of the phase vector forces the bound downward.
    """
    return -math.sqrt(a_min) * (t1 - t0) + math.pi


def ortega_hypotheses(params: ModelParams) -> dict:
    """Hypothesis check for nonlinear stability of the origin equilibrium.

    The origin is nonlinearly stable when the linear part is stable
    (elliptic, or parabolic with a diagonal monodromy: off-diagonal
    entries within ``DEFAULT_DELTA_PAR``) and the cubic coefficient of the
    force expansion is sign-definite.  Returns the individual findings
    plus the combined flag; circular primaries only.  The cubic
    coefficient is sampled at 64 phases.
    """
    m = monodromy(0.0, params)
    cls = classify(m)
    diagonal = max(abs(m.matrix.x2), abs(m.matrix.y1)) <= DEFAULT_DELTA_PAR
    linear_ok = cls == ELLIPTIC or (cls == PARABOLIC and diagonal)
    ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    cubic_min = min(cubic_coefficient(float(t), params) for t in ts)
    return {
        "r": params.r,
        "epsilon": params.epsilon,
        "classification": cls,
        "linear_ok": linear_ok,
        "cubic_min": cubic_min,
        "cubic_positive": cubic_min > 0.0,
        "passed": linear_ok and cubic_min > 0.0,
    }
