"""Two-curve gravitational model: quantitative machinery of the interchange mechanism.

A massless particle rides an arc-length-parameterized curve ``x(s, lam)``
while a heavy mass follows a prescribed periodic curve ``y(t, lam)`` with
unit period.  With ``z = x - y`` the particle potential is
``U = -1/|z|`` and its equilibrium at ``s = 0`` (the closest approach)
linearizes to ``S'' + U''(0, t, lam) S = 0``.

As the minimum gap ``delta(lam)`` shrinks, ``U''`` grows like
``delta^-3`` on a time window ``tau = c*delta`` around closest approach,
so the winding of the phase vector, bounded above by
``-2 tau sqrt(min U'') + pi``, diverges to ``-infinity``: that divergence
is what forces the alternation of strongly stable and unstable parameter
intervals.  This module computes ``delta``, ``tau``, the curvature lower
bound and the winding estimate for concrete curve pairs.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kepler import TWO_PI, ModelParams, radial_factor_derivatives
from .model import _check_distance

# Curvature lower-bound constant: U'' >= C_LOWER / delta^3 on |t| <= tau.
C_LOWER = 2.0 ** -4.5

Curve = Callable[[float | np.ndarray, float], np.ndarray]


def _dot(a, b):
    """Dot product over the first (component) axis, broadcast over the rest."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass
class CurvePair:
    """An arc-length curve ``x(s, lam)`` and a unit-period curve ``y(t, lam)``.

    Each curve returns its jet: a ``(3, 3)`` array whose rows are the
    point and its analytic first and second derivatives (in ``s`` for
    ``x``, in ``t`` for ``y``), which the curvature formula and the sampled
    Taylor bounds read.  An array of parameters gives all their jets in
    one call, with the sample axes last: ``(3, 3, *shape)``.
    """

    name: str
    x: Curve
    y: Curve
    lam_range: tuple[float, float]
    default_lam: float
    s_range: tuple[float, float]

    def z(self, s: float, t: float, lam: float) -> np.ndarray:
        return self.x(s, lam)[0] - self.y(t, lam)[0]

    def _window_sup(self, lam: float) -> float:
        """Largest ``|component|`` of the curves and their derivatives.

        Samples the ``x`` jet at 61 ``s`` over the window and the ``y`` jet
        at 121 ``t`` over one period.
        """
        return float(max(
            np.max(np.abs(self.x(np.linspace(*self.s_range, 61), lam))),
            np.max(np.abs(self.y(np.linspace(-0.5, 0.5, 121), lam)))))

    @cached_property
    def _range_sup(self) -> float:
        """``_window_sup`` over both ends of ``lam_range``, sampled once."""
        return max(self._window_sup(lm) for lm in self.lam_range)


@dataclass
class BoundReport:
    """Quantities feeding the interchange criterion at one parameter value.

    ``bound_ok`` records whether the sampled curvature minimum satisfies
    ``a_min >= 2^-4.5 / delta^3`` on ``|t| <= tau``; ``smallness_ok``
    records whether ``delta`` is small enough for the chain of Taylor
    estimates behind that bound to be self-justifying (``delta`` below
    ``1/(4 sqrt(2) M)``).  Neither flag is an error: they are data.
    """

    lam: float
    delta: float
    tau: float
    c: float
    a_min: float
    bound_ok: bool
    winding_estimate: float
    smallness_ok: bool
    smallness_threshold: float
    m_bound: float
    k_bound: float

    def to_json_dict(self) -> dict:
        """The fields in order, three under their artifact names; bounds
        are always sampled, and ``used_supplied_bounds`` keeps the format."""
        names = {"lam": "lambda", "m_bound": "M", "k_bound": "k"}
        return {**{names.get(k, k): v for k, v in asdict(self).items()},
                "used_supplied_bounds": False}


def pair_potential(s: float, t: float, lam: float, pair: CurvePair) -> float:
    """Gravitational potential ``U = -1/|x(s) - y(t)|``.

    A separation within ``D_MIN`` raises ``CollisionError`` (primary 1).
    """
    dist = float(np.linalg.norm(pair.z(s, t, lam)))
    _check_distance(1, dist)
    return -1.0 / dist


def d2U_ds2(t, lam: float, pair: CurvePair) -> float | np.ndarray:
    """Second ``s``-derivative of ``U`` at ``s = 0`` via the dot-product form.

    ``U'' = [(z'.z' + z.z'') (z.z) - 3 (z.z')^2] / (z.z)^{5/2}`` where
    primes are ``s``-derivatives, so ``z'`` and ``z''`` are rows 1 and 2
    of the jet ``x(0, lam)``.  A float ``t`` gives a float and an array
    an array, from one ``y`` call on the same path, so bit for bit alike.
    A gap within ``D_MIN`` raises ``CollisionError`` (smallest distance).
    """
    x0, zp, zpp = pair.x(0.0, lam)
    z = x0[:, None] - pair.y(np.ravel(t), lam)[0]
    zz = _dot(z, z)
    _check_distance(1, math.sqrt(np.min(zz, initial=math.inf)))
    u2 = ((_dot(zp, zp) + _dot(z, zpp)) * zz - 3.0 * _dot(z, zp)**2) / zz**2.5
    return float(u2[0]) if np.ndim(t) == 0 else u2.reshape(np.shape(t))


def d2U_ds2_fd(t: float, lam: float, pair: CurvePair) -> float:
    """Finite-difference oracle for ``U''(0, t, lam)``.

    Fourth-order five-point stencil applied to ``U`` itself, independent of
    the analytic dot-product route; the step scales with the local curve
    separation to keep truncation below roundoff amplification.
    """
    dist = float(np.linalg.norm(pair.z(0.0, t, lam)))
    h = min(1e-3, dist / 50.0)
    u = [pair_potential(s, t, lam, pair)
         for s in (-2 * h, -h, 0.0, h, 2 * h)]
    return (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * h * h)


def min_distance(lam: float, pair: CurvePair) -> float:
    """Gap ``delta = |x(0) - y(0)|`` at the pair's closest approach.

    Every pair is normalized so that its closest approach sits at
    ``s = t = 0``; that point is checked, not searched for.  A gap within
    ``D_MIN`` raises ``CollisionError``.  ``ValueError`` is raised for a
    gap whose square overflows, for an origin that is not stationary
    (``|z.x'|`` or ``|z.y'|`` above ``1e-9 max(|x|, |y|)`` times that
    derivative's length) and for any point of a 121 x 121 grid over the
    ``s`` window and one ``t`` period whose squared gap is below
    ``delta^2`` by more than a relative ``1e-9`` (ties are rounding).
    """
    (x0, xp, _), (y0, yp, _) = pair.x(0.0, lam), pair.y(0.0, lam)
    delta = math.dist(x0, y0)
    _check_distance(1, delta)
    if not math.isfinite(delta * delta):
        raise ValueError(f"lam={lam} gives a gap delta={delta} whose square "
                         f"overflows")
    z = x0 - y0
    scale = 1e-9 * max(math.hypot(*x0), math.hypot(*y0))
    if any(abs(float(z @ d)) > scale * math.hypot(*d) for d in (xp, yp)):
        raise ValueError(f"closest approach at lam={lam} is not stationary "
                         f"at the origin")

    grid = (pair.x(np.linspace(*pair.s_range, 121), lam)[0][:, :, None]
            - pair.y(np.linspace(-0.5, 0.5, 121), lam)[0][:, None])
    if np.min(_dot(grid, grid)) < (1.0 - 1e-9) * delta * delta:
        raise ValueError(f"a point of the grid at lam={lam} is closer than "
                         f"the origin")
    return delta


def estimate_bounds(pair: CurvePair, lam: float) -> tuple[float, float]:
    """Return ``(M, k)`` for the Taylor estimates.

    ``M`` bounds ``z`` and its first and second partials over the window
    (``CurvePair._window_sup``), uniformly over the given ``lam`` and the
    range endpoints, whose sup the pair keeps across a sweep; ``k = 2 M^2``
    then dominates both Taylor remainders near closest approach: the
    growth of ``z.z - delta^2`` (in ``t^2``) and of ``z.z'`` (in ``t``).
    """
    # |z| <= |x| + |y| and same for derivatives (mixed partials vanish).
    m = 2.0 * max(pair._window_sup(lam), pair._range_sup)
    return m, 2.0 * m * m


def bound_report(lam: float, pair: CurvePair) -> BoundReport:
    """Evaluate the closest-approach window quantities at one ``lam``.

    Computes ``delta``, the window ``tau = c*delta`` with
    ``c = min(k^{-1/2}, (k sqrt(6))^{-1})``, the curvature minimum
    ``a_min = min_{|t|<=tau} U''(0,t)`` over 201 samples, the lower-bound
    flag ``a_min >= 2^-4.5/delta^3``, and the winding estimate
    ``-2 tau sqrt(a_min) + pi``.  A non-finite ``lam`` raises
    ``ValueError``; ``min_distance`` checks the gap.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam} must be finite")
    delta = min_distance(lam, pair)
    m, k = estimate_bounds(pair, lam)
    c = min(k ** -0.5, 1.0 / (k * math.sqrt(6.0)))
    tau = c * delta

    a_min = float(np.min(d2U_ds2(np.linspace(-tau, tau, 201), lam, pair)))

    bound_ok = a_min >= C_LOWER / delta**3
    winding_estimate = -2.0 * tau * math.sqrt(max(a_min, 0.0)) + math.pi
    threshold = 1.0 / (4.0 * math.sqrt(2.0) * m)
    return BoundReport(
        lam=lam, delta=delta, tau=tau, c=c, a_min=a_min,
        bound_ok=bound_ok, winding_estimate=winding_estimate,
        smallness_ok=delta < threshold, smallness_threshold=threshold,
        m_bound=m, k_bound=k)


# ---------------------------------------------------------------------------
# Built-in curve families
# ---------------------------------------------------------------------------

def line_pair() -> CurvePair:
    """Straight line ``x = (s, 0, 0)`` against a fixed point ``y = (0, lam, 0)``.

    Exactly solvable fixture: ``U''(0, t) = 1/lam^3`` for every ``t``.
    The gap ``lam`` must be positive.
    """
    def x(s, lam):
        zero = np.zeros(np.shape(s))
        return np.array([[s, zero, zero], [zero + 1, zero, zero], [zero] * 3])

    def y(t, lam):
        if not lam > 0.0:
            raise ValueError(f"lam={lam} must be > 0 (the line pair's gap)")
        zero = np.zeros(np.shape(t))
        return np.array([[zero, zero + lam, zero], [zero] * 3, [zero] * 3])

    return CurvePair(name="line", x=x, y=y, lam_range=(1e-3, 1.0),
                     default_lam=0.1, s_range=(-0.9, 0.9))


def sitnikov_pair(params: ModelParams) -> CurvePair:
    """Particle circle against the near primary's orbit, closest at t = 0.

    ``lam`` is the gap ``2 - r(1+eps)`` and selects the semi-major axis
    ``r(lam) = (2-lam)/(1+eps)`` at the fixed eccentricity of ``params``;
    ``default_lam`` matches ``params.r``.  The circle is
    ``x(s) = (0, -cos s, -sin s)`` with ``s = 0`` at the antipode
    ``(0,-1,0)``.  ``y(t)``, the orbit of the primary whose apsis points at
    the antipode, is time-shifted and rescaled to unit period so its
    closest approach happens at ``t = 0``; the other primary's is
    ``(0, 2, 0) - y(t)``.  Each ``y`` call solves Kepler's equation once,
    for all its times together, through ``radial_factor_derivatives``.
    """
    eps = params.epsilon
    default_lam = 2.0 - params.r * (1.0 + eps)

    def r_of(lam: float) -> float:
        # 0 < lam < 2 is 0 < r < 2/(1+eps), the range ModelParams admits
        if not 0.0 < lam < 2.0:
            raise ValueError(f"lam={lam} outside (0, 2)")
        return (2.0 - lam) / (1.0 + eps)

    # rows of the y jet: d/dt of the unit-period time is 2 pi d/dtau
    t_scale = np.array([1.0, TWO_PI, TWO_PI**2])

    def x(s, lam):
        cs, sn, zero = np.cos(s), np.sin(s), np.zeros(np.shape(s))
        return np.array([[zero, -cs, -sn], [zero, sn, -cs], [zero, cs, sn]])

    def y(t, lam):
        r = r_of(lam)
        tau = math.pi + TWO_PI * np.asarray(t, dtype=float)
        rho, rho_d, rho_dd = radial_factor_derivatives(tau, eps)
        sn, cs, zero = np.sin(tau), np.cos(tau), np.zeros(tau.shape)
        return t_scale.reshape((3,) + (1,) * (tau.ndim + 1)) * np.array([
            [r * rho * sn, 1.0 + r * rho * cs, zero],
            [r * (rho_d * sn + rho * cs), r * (rho_d * cs - rho * sn), zero],
            [r * (rho_dd * sn + 2.0 * rho_d * cs - rho * sn),
             r * (rho_dd * cs - 2.0 * rho_d * sn - rho * cs), zero]])

    lam_hi = max(default_lam, 0.5)
    return CurvePair(
        name="sitnikov_near", x=x, y=y,
        lam_range=(5e-3, lam_hi), default_lam=default_lam,
        s_range=(-math.pi, math.pi))


CURVE_FAMILIES: dict[str, Callable[..., CurvePair]] = {
    "line": line_pair,
    "sitnikov_near": lambda r, epsilon: sitnikov_pair(
        ModelParams(r=r, epsilon=epsilon)),
}


def load_curve_pair(source) -> CurvePair:
    """Build a registered curve family from a declarative JSON description.

    ``source`` is a path to, or dict of, ``{"family": name,
    "params": {...}}``; families are built in, no expressions are parsed,
    and an unknown or missing key is an error; no family has a default.
    The family must be a string and each param an ``int`` or ``float``
    (not a ``bool``), else ``ValueError``.
    """
    if isinstance(source, dict):
        desc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            desc = json.load(fh)
    if not isinstance(desc, dict) or not set(desc) <= {"family", "params"}:
        raise ValueError('a curve description is an object {"family": '
                         f'name, "params": {{...}}}}, got {desc!r}')
    family, params = desc.get("family"), desc.get("params", {})
    if not isinstance(family, str):
        raise ValueError(f'curve "family" must be a string, got {family!r}')
    if family not in CURVE_FAMILIES:
        raise ValueError(
            f"unknown curve family {family!r}; available: "
            f"{sorted(CURVE_FAMILIES)}")
    factory = CURVE_FAMILIES[family]
    known = inspect.signature(factory).parameters
    if not isinstance(params, dict) or not set(params) <= set(known):
        raise ValueError(f"curve family {family!r} takes params "
                         f"{sorted(known)}, got {params!r}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"curve param {key!r} must be a number, "
                             f"got {value!r}")
    if set(params) != set(known):
        raise ValueError(f"curve family {family!r} needs params "
                         f"{sorted(set(known) - set(params))}")
    return factory(**params)
