"""Kepler equation solver and ephemeris of the two primaries.

The primaries are two equal masses on coplanar Keplerian ellipses of
eccentricity ``epsilon`` about their common barycenter, which sits at
``(0, R, 0)`` with ``R = 1``.  Time ``t`` is the mean anomaly; the radius of
either primary is ``r * rho(t)`` with ``rho = 1 - epsilon*cos(u)`` and ``u``
the eccentric anomaly.  The angular position of the primaries is prescribed
to be ``t`` itself (no true-anomaly correction is applied).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Residual tolerance and iteration cap of the eccentric-anomaly solver.
KEPLER_TOL = 1e-13
KEPLER_MAX_ITER = 64


class KeplerConvergenceError(RuntimeError):
    """The eccentric-anomaly iteration failed to reach its tolerance."""


def _check_eccentricity(epsilon: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1)")


def collision_ceiling(epsilon: float) -> float:
    """Largest admissible ``r``: apocenter of the near primary at y=-1."""
    return 2.0 / (1.0 + epsilon)


@dataclass(frozen=True)
class ModelParams:
    """Problem parameters: binary semi-major axis ``r`` and eccentricity.

    The particle circle has radius ``R = 1`` by convention.  Validity
    requires ``0 < r < 2/(1+epsilon)``: at the upper end the near primary's
    apocenter touches the circle and collisions become possible.
    """

    r: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        _check_eccentricity(self.epsilon)
        ceiling = collision_ceiling(self.epsilon)
        if not 0.0 < self.r < ceiling:
            raise ValueError(
                f"r={self.r} outside (0, {ceiling}) for epsilon={self.epsilon}")


@dataclass(frozen=True)
class PrimaryEphemeris:
    """Positions of the two primaries at one epoch.

    Attributes:
        t: mean anomaly (radians).
        u: eccentric anomaly solving ``u - eps*sin(u) = t``.
        rho: normalized radius ``1 - eps*cos(u)``, in ``[1-eps, 1+eps]``.
        x1, x2: 3-vectors of the two primaries; ``x1 + x2 = (0, 2, 0)``.
    """

    t: float
    u: float
    rho: float
    x1: np.ndarray
    x2: np.ndarray


def solve_kepler(mean_anomaly: float, epsilon: float) -> float:
    """Solve ``u - epsilon*sin(u) = M`` for the eccentric anomaly ``u``.

    Safeguarded Newton iteration started from ``u0 = M + eps*sin(M)``; any
    Newton step that leaves the current bracket is replaced by a bisection
    step.  The input is reduced mod 2*pi and the branch restored afterward,
    so ``u`` is continuous and monotone in ``M`` on the whole real line.

    Args:
        mean_anomaly: mean anomaly ``M``, any real number.
        epsilon: eccentricity in ``[0, 1)``.

    Returns:
        Eccentric anomaly with ``|u - eps*sin(u) - M| < KEPLER_TOL``;
        raises ``KeplerConvergenceError`` after ``KEPLER_MAX_ITER`` steps.
    """
    _check_eccentricity(epsilon)
    if epsilon == 0.0:
        return mean_anomaly
    m = math.fmod(mean_anomaly, TWO_PI)
    if m < 0.0:
        m += TWO_PI
    offset = mean_anomaly - m
    # Fold onto [0, pi] using u(2pi - m) = 2pi - u(m); Newton then never
    # starts on the slow side of the sine inflection.
    folded = m > math.pi
    if folded:
        m = TWO_PI - m

    # g(u) = u - eps*sin(u) - m is strictly increasing, so [0, pi] brackets.
    lo, hi = 0.0, math.pi
    u = m + epsilon * math.sin(m)
    for _ in range(KEPLER_MAX_ITER):
        g = u - epsilon * math.sin(u) - m
        if abs(g) < KEPLER_TOL:
            break
        if g > 0.0:
            hi = u
        else:
            lo = u
        step = g / (1.0 - epsilon * math.cos(u))
        u_new = u - step
        if not lo < u_new < hi:
            u_new = 0.5 * (lo + hi)
        u = u_new
    else:
        g = u - epsilon * math.sin(u) - m
        if abs(g) >= KEPLER_TOL:
            raise KeplerConvergenceError(
                f"no convergence after {KEPLER_MAX_ITER} iterations "
                f"(M={m}, eps={epsilon}, residual={g:.3e})")
    return offset + TWO_PI - u if folded else offset + u


def radial_factor(t: float, epsilon: float) -> float:
    """Normalized orbital radius ``rho(t) = 1 - epsilon*cos(u(t))``."""
    u = solve_kepler(t, epsilon)
    return 1.0 - epsilon * math.cos(u)


def _solve_kepler_array(mean_anomaly, epsilon: float) -> np.ndarray:
    """``solve_kepler`` over an array of mean anomalies, element by element.

    The same start, fold, bracket, bisection guard and stop test in numpy
    operations, with each element frozen once its residual is below
    ``KEPLER_TOL``, so every element equals the scalar solve bit for bit
    wherever ``np.sin``/``np.cos`` round as ``math.sin``/``math.cos``
    (``tests/test_kepler.py`` checks that they do).  The result has the
    shape of ``mean_anomaly``; a 0-d input gives a 0-d array.  An
    infinite anomaly raises ``ValueError``, as ``math.fmod`` does in the
    scalar solve, and a NaN gives NaN.
    """
    _check_eccentricity(epsilon)
    mean = np.asarray(mean_anomaly, dtype=float)
    if epsilon == 0.0:
        return mean
    if np.isinf(mean).any():
        raise ValueError("math domain error")
    m = np.fmod(mean, TWO_PI)
    m = np.where(m < 0.0, m + TWO_PI, m)
    offset = mean - m
    folded = m > math.pi
    m = np.where(folded, TWO_PI - m, m).ravel()

    u = m + epsilon * np.sin(m)
    lo, hi = np.zeros_like(m), np.full_like(m, math.pi)
    out = np.empty_like(m)
    live = np.arange(m.size)  # elements not yet converged
    for _ in range(KEPLER_MAX_ITER):
        g = u - epsilon * np.sin(u) - m
        done = np.abs(g) < KEPLER_TOL
        out[live[done]] = u[done]
        if done.all():
            break
        if done.any():
            keep = ~done
            live, u, m, lo, hi, g = (
                live[keep], u[keep], m[keep], lo[keep], hi[keep], g[keep])
        above = g > 0.0
        hi = np.where(above, u, hi)
        lo = np.where(above, lo, u)
        u_new = u - g / (1.0 - epsilon * np.cos(u))
        u = np.where((lo < u_new) & (u_new < hi), u_new, 0.5 * (lo + hi))
    else:
        g = u - epsilon * np.sin(u) - m
        failed = np.flatnonzero(np.abs(g) >= KEPLER_TOL)
        if failed.size:
            k = failed[0]
            raise KeplerConvergenceError(
                f"no convergence after {KEPLER_MAX_ITER} iterations "
                f"(M={m[k]}, eps={epsilon}, residual={g[k]:.3e})")
        out[live] = u
    out = out.reshape(mean.shape)
    return np.where(folded, offset + TWO_PI - out, offset + out)


def radial_factor_derivatives(t, epsilon: float):
    """Return ``(rho, drho/dt, d2rho/dt2)`` at mean anomaly ``t``.

    ``t`` is a float or an array, solved in one ``_solve_kepler_array``
    call; each of the three has the shape of ``t`` (numpy scalars for a
    float).  Uses ``du/dt = 1/rho`` from differentiating the Kepler
    equation.  ``rho**3`` is spelt ``rho2 * rho``, which rounds alike on
    0-d and n-d arrays.
    """
    u = _solve_kepler_array(t, epsilon)
    s, c = np.sin(u), np.cos(u)
    rho = 1.0 - epsilon * c
    rho2 = rho * rho
    rho_d = epsilon * s / rho
    rho_dd = epsilon * c / rho2 - (epsilon * s) ** 2 / (rho2 * rho)
    return rho, rho_d, rho_dd


def _anomaly_geometry(u, r, epsilon: float):
    """Return ``(rho, a, t)`` at eccentric anomaly ``u``, with no Kepler solve.

    ``rho = 1 - eps cos u`` is ``dt/du``, ``a = r rho`` is the primaries'
    radius and ``t = u - eps sin u`` is the time.  ``u`` and ``r`` may be
    arrays; ``rho`` and ``t`` take the shape of ``u``, ``a`` that of
    ``u`` and ``r`` broadcast.  This is the time change of every lane
    solve in eccentric-anomaly time.  Circular primaries
    (``epsilon == 0``) take no trigonometry: ``rho = 1``, ``a = r`` and
    ``t = u``, equal to the general formula bit for bit at every finite
    ``u`` but ``-0.0`` (whose time the formula makes ``+0.0``), as
    ``solve_kepler`` returns ``M`` at once.
    """
    if epsilon == 0.0:
        rho = np.ones(np.shape(u))
        return rho, r * rho, u
    rho = 1.0 - epsilon * np.cos(u)
    return rho, r * rho, u - epsilon * np.sin(u)


def _positions(t: float, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Primaries at polar angle ``t`` on a common ellipse of radius ``a``.

    The barycenter is ``(0, 1, 0)`` and the primaries are antipodal:

        x1 = ( a sin t, 1 + a cos t, 0)
        x2 = (-a sin t, 1 - a cos t, 0)
    """
    sx, cx = a * math.sin(t), a * math.cos(t)
    return np.array([sx, 1.0 + cx, 0.0]), np.array([-sx, 1.0 - cx, 0.0])


def ephemeris(t: float, params: ModelParams) -> PrimaryEphemeris:
    """Full ephemeris record (anomalies, radius, positions) at time ``t``."""
    u = solve_kepler(t, params.epsilon)
    rho = 1.0 - params.epsilon * math.cos(u)
    x1, x2 = _positions(t, params.r * rho)
    return PrimaryEphemeris(t=t, u=u, rho=rho, x1=x1, x2=x2)
