"""Force law, linearization, lane systems and symmetries of the particle.

The massless particle lives on the unit circle in the yz-plane through the
barycenter ``(0,1,0)`` of the binary; ``q`` is its polar angle on that
circle, so ``q = 0`` is the barycenter point and ``q = pi`` the antipode.
Only the tangential component of the binary's pull acts:

    q'' = f(q, t) = -(1+c) sin(q)/d1^3 - (1-c) sin(q)/d2^3,
    c = r*rho(t)*cos(t),
    d_i^2 = (r*rho)^2 + 2 (1-cos q)(1 ± c),

with ``d1, d2`` the distances to the two primaries.  ``q = 0`` and
``q = pi`` are equilibria for every parameter value.  The lane systems
(``_orbit_system``, ``_antipode_system``) sit beside the force parts they
evaluate, and one guard, ``D_MIN``, serves the force and every orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kepler import TWO_PI, ModelParams, _anomaly_geometry, radial_factor

# Distances below this are treated as collisions rather than evaluated.
D_MIN = 1e-9

Q_STARS = (0.0, math.pi)


class CollisionError(ValueError):
    """Evaluation requested too close to one of the primaries."""

    def __init__(self, primary: int, distance: float):
        self.primary = primary
        self.distance = distance
        super().__init__(
            f"distance {distance:.3e} to primary {primary} is below the "
            f"collision guard"
        )


def _phase_terms(a, c):
    """The force's time-only terms ``(a^2, 2(1 + c), 2(1 - c))``.

    ``a = r*rho``, ``c = a*cos(t)``; doubling is exact, so the bits are the
    textbook form's.  ``_squared_distance`` and ``_pull`` take ``2(1 ± c)``
    per primary, or both stacked; all three pass floats and arrays through.
    """
    return a * a, 2.0 + 2.0 * c, 2.0 - 2.0 * c


def _squared_distance(a2, ci, cos_q):
    """``d_i^2`` from ``a^2``, ``2(1 ± c)`` and ``cos(q)``."""
    return a2 + (1.0 - cos_q) * ci


def _pull(ci, sin_q, di):
    """Twice primary ``i``'s share ``(1 ± c) sin(q) / d_i^3`` of ``-f``."""
    return ci * sin_q / di**3


def tangential_force(q: float, t: float, params: ModelParams) -> float:
    """Tangential acceleration ``f(q, t)``, guarded at ``D_MIN``."""
    a = params.r * radial_factor(t, params.epsilon)
    a2, c1, c2 = _phase_terms(a, a * math.cos(t))
    cos_q = math.cos(q)
    d1 = math.sqrt(_squared_distance(a2, c1, cos_q))
    d2 = math.sqrt(_squared_distance(a2, c2, cos_q))
    if d1 <= D_MIN:
        raise CollisionError(1, d1)
    if d2 <= D_MIN:
        raise CollisionError(2, d2)
    sin_q = math.sin(q)
    return -0.5 * (_pull(c1, sin_q, d1) + _pull(c2, sin_q, d2))


def _orbit_system(params: ModelParams, u0: float):
    """The extended flow as a ``_dop853_lanes`` system ``(clock, rhs, halt)``.

    Time is the eccentric anomaly ``u0 + tau``: ``dq/du = rho p``, ``dp/du
    = rho f(q, t(u))``, so no lane solves Kepler's equation; its ``-rho/2``
    clock row makes ``rhs`` bit for bit ``rho f``.  ``halt`` (a state within
    ``D_MIN`` of a primary) reads the distances the last ``rhs`` call kept.
    """
    distances = None  # the last rhs call's d1 and d2, the rows of one array

    def clock(tau, lanes):  # rows (rho, -rho/2, a^2, 2(1 + c), 2(1 - c))
        rho, a, t = _anomaly_geometry(u0 + tau, params.r, params.epsilon)
        rows = rho, -0.5 * rho, *_phase_terms(a, a * np.cos(t))
        return np.array(rows).swapaxes(0, 1)  # one (5, m) block per time

    def rhs(g, y, lanes):
        nonlocal distances
        distances = np.sqrt(_squared_distance(g[2], g[3:], np.cos(y[0])))
        pull = _pull(g[3:], np.sin(y[0]), distances)
        dy = np.empty_like(y)
        dy[0], dy[1] = g[0] * y[1], g[1] * (pull[0] + pull[1])
        return dy

    def halt(g, y, lanes):
        return distances.min(axis=0) <= D_MIN

    return clock, rhs, halt


def dforce_dq(q_star: float, t: float, params: ModelParams) -> float:
    """Derivative ``df/dq`` at an equilibrium angle ``q_star in {0, pi}``.

    At ``q_star = 0`` the closed form is ``-2/(r*rho)^3``; at ``q_star = pi``

        F(t) = (1+c)/[(r*rho)^2+4+4c]^{3/2} + (1-c)/[(r*rho)^2+4-4c]^{3/2}

    with ``c = r*rho(t)*cos(t)``, evaluated as ``_antipode_dforce_dq``.
    """
    rho = radial_factor(t, params.epsilon)
    a = params.r * rho
    if q_star == 0.0:
        return -2.0 / a**3
    if q_star == math.pi:
        half = 0.5 * t
        return _antipode_dforce_dq(a, math.cos(half), math.sin(half))
    raise ValueError(f"q_star={q_star} is not an equilibrium (use 0 or pi)")


def _antipode_dforce_dq(a, cos_half, sin_half):
    """``df/dq`` at ``q = pi`` from ``a = r*rho``, ``cos(t/2)`` and ``sin(t/2)``.

    The squared distances ``a^2 + 4 ± 4c`` (``c = a cos t``) are formed as
    ``(a - 2)^2 + 8a cos^2(t/2)`` and ``(a - 2)^2 + 8a sin^2(t/2)``, and
    ``c`` as ``a (cos(t/2) - sin(t/2)) (cos(t/2) + sin(t/2))``.  At a close
    approach (``a`` near 2, ``t`` near 0 or pi) ``a^2 + 4 ± 4c`` cancels
    down to ``(2 - a)^2``, where the rounding error of ``cos t`` would
    dominate it; these forms leave only roundoff relative to the result.
    Plain operators only, so floats and numpy arrays both pass through.
    """
    gap, a8 = (a - 2.0) * (a - 2.0), 8.0 * a
    c = a * (cos_half - sin_half) * (cos_half + sin_half)
    return ((1.0 + c) / (gap + a8 * cos_half * cos_half) ** 1.5
            + (1.0 - c) / (gap + a8 * sin_half * sin_half) ** 1.5)


def _antipode_system(rs: np.ndarray, epsilon: float):
    """The antipode's linearization as a ``_dop853_lanes`` ``(clock, rhs)``.

    One lane per radius in ``rs``, state ``(x1, y1, x2, y2)``, in eccentric
    anomaly time (``kepler._anomaly_geometry``): ``dv/du = rho w``, ``dw/du
    = -rho a(t(u)) v`` with ``a`` the Hill coefficient (the clock holds
    ``rho`` and ``-rho a``), so no lane solves Kepler's equation.
    """
    def clock(u, lanes):  # rows (rho, rho df/dq) per time
        rho, a, t = _anomaly_geometry(u, rs[lanes], epsilon)
        half = 0.5 * t
        return np.stack((rho, rho * _antipode_dforce_dq(a, np.cos(half),
                                                        np.sin(half))),
                        axis=1)

    def rhs(g, y, lanes):
        dy = np.empty_like(y)
        dy[0::2] = g[0] * y[1::2]
        dy[1::2] = g[1] * y[0::2]
        return dy

    return clock, rhs


@dataclass(frozen=True)
class HillCoefficient:
    """Periodic coefficient ``a(t)`` of the linearization ``S'' + a(t) S = 0``.

    ``a(t) = -df/dq(q_star, t)``; period 2*pi in general, pi when the
    primaries are circular (epsilon = 0), see ``coefficient_period``.
    """

    q_star: float
    params: ModelParams

    def __call__(self, t: float) -> float:
        return -dforce_dq(self.q_star, t, self.params)


def coefficient_period(epsilon: float) -> float:
    """Period of the Hill coefficient: pi for circular primaries, else 2*pi."""
    return math.pi if epsilon == 0.0 else TWO_PI


def hill_coefficient(q_star: float, params: ModelParams) -> HillCoefficient:
    """Hill coefficient of the linearization at ``q_star in {0, pi}``."""
    if q_star not in Q_STARS:
        raise ValueError(f"q_star={q_star} is not an equilibrium (use 0 or pi)")
    return HillCoefficient(q_star=q_star, params=params)


def cubic_coefficient(t: float, params: ModelParams) -> float:
    """Cubic-term coefficient of the force expansion at ``q = 0``.

    Valid for circular primaries only; the expansion is
    ``f(q, t) = -(2/r^3) q + c(t) q^3 + O(q^5)`` with

        c(t) = (9 + r^2 + 9 r^2 cos^2(t)) / (3 r^5),

    which is positive for every ``r in (0, 2)``.
    """
    if params.epsilon != 0.0:
        raise ValueError("cubic coefficient is only defined for epsilon = 0")
    r = params.r
    return (9.0 + r * r + 9.0 * r * r * math.cos(t) ** 2) / (3.0 * r**5)


def symmetry_defect(q: float, p: float, s: float, params: ModelParams,
                    force: Callable[[float, float], float] | None = None,
                    ) -> tuple[float, float, float, float]:
    """Residuals of the four flow symmetries at the phase point ``(q, p, s)``.

    ``q`` is the unwrapped angle and ``s`` the forcing phase.  The
    identities, with ``X`` the autonomized field, are

        S1 (reflection):    S1 . X(q,p,s)  = X(-q, -p, s)
        S2 (t-periodicity): X(q, p, s+2pi) = X(q, p, s)
        S3 (q-periodicity): X(q+2pi, p, s) = X(q, p, s)
        S4 (reversibility): S4 . X(q,p,s)  = -X(q, -p, -s)

    Returns the sup-norm residual of each, all of which vanish identically
    for the model force.  ``force`` may substitute a test field.
    """
    if force is None:
        def force(q, t):
            return tangential_force(q, t, params)
    fqs = force(q, s)

    def field(q_, p_, s_):
        return np.array([p_, force(q_, s_), 1.0])

    x = np.array([p, fqs, 1.0])
    r1 = np.max(np.abs(x * np.array([-1.0, -1.0, 1.0]) - field(-q, -p, s)))
    r2 = np.max(np.abs(field(q, p, s + TWO_PI) - x))
    r3 = np.max(np.abs(field(q + TWO_PI, p, s) - x))
    r4 = np.max(np.abs(x * np.array([1.0, -1.0, -1.0]) + field(q, -p, -s)))
    return float(r1), float(r2), float(r3), float(r4)


def limit_force_circle(q: float, R: float) -> float:
    """Force after fusing the primaries into one mass at the barycenter.

    ``-sin(q) / (sqrt(2) R^2 (1 - cos q)^{3/2})`` for ``q in (0, 2*pi)``;
    the fused mass sits at ``q = 0``, which is a collision singularity.
    """
    gap = 1.0 - math.cos(q)
    if not 0.0 < q < TWO_PI or gap <= D_MIN:
        raise CollisionError(1, math.sqrt(2.0 * max(gap, 0.0)) * R)
    return -math.sin(q) / (math.sqrt(2.0) * R * R * gap**1.5)
