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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .kepler import TWO_PI, ModelParams, radial_factor_derivatives
from .model import D_MIN

# Curvature lower-bound constant: U'' >= C_LOWER / delta^3 on |t| <= tau.
C_LOWER = 2.0 ** -4.5

Curve = Callable[[float, float], np.ndarray]


@dataclass
class CurvePair:
    """An arc-length curve ``x(s, lam)`` and a unit-period curve ``y(t, lam)``.

    Analytic derivatives may be supplied (``x_s``, ``x_ss``, ``y_t``,
    ``y_tt``); otherwise fourth-order finite differences of the curves are
    used.  ``m_bound`` is a uniform bound on ``z = x - y`` and its first
    and second partials; ``k_bound`` controls the Taylor growth of
    ``z.z - delta^2`` (in ``t^2``) and ``z.z'`` (in ``t``) near closest
    approach.  Either may be supplied; both are estimated by sampling when
    absent, with ``k = 2 M^2`` derived from the bound ``M``.
    """

    name: str
    x: Curve
    y: Curve
    lam_range: tuple[float, float]
    default_lam: float
    s_range: tuple[float, float]
    s_periodic: bool = False
    t_period: float = 1.0
    x_s: Curve | None = None
    x_ss: Curve | None = None
    y_t: Curve | None = None
    y_tt: Curve | None = None
    m_bound: float | None = None
    k_bound: float | None = None

    def z(self, s: float, t: float, lam: float) -> np.ndarray:
        return self.x(s, lam) - self.y(t, lam)

    def dx_ds(self, s: float, lam: float) -> np.ndarray:
        if self.x_s is not None:
            return self.x_s(s, lam)
        return _fd1(lambda u: self.x(u, lam), s)

    def d2x_ds2(self, s: float, lam: float) -> np.ndarray:
        if self.x_ss is not None:
            return self.x_ss(s, lam)
        return _fd2(lambda u: self.x(u, lam), s)

    def dy_dt(self, t: float, lam: float) -> np.ndarray:
        if self.y_t is not None:
            return self.y_t(t, lam)
        return _fd1(lambda u: self.y(u, lam), t)

    def d2y_dt2(self, t: float, lam: float) -> np.ndarray:
        if self.y_tt is not None:
            return self.y_tt(t, lam)
        return _fd2(lambda u: self.y(u, lam), t)


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
    used_supplied_bounds: bool
    s_star: float
    t_star: float

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "delta": self.delta,
            "tau": self.tau,
            "c": self.c,
            "a_min": self.a_min,
            "bound_ok": self.bound_ok,
            "winding_estimate": self.winding_estimate,
            "smallness_ok": self.smallness_ok,
            "smallness_threshold": self.smallness_threshold,
            "M": self.m_bound,
            "k": self.k_bound,
            "used_supplied_bounds": self.used_supplied_bounds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# Step of the fourth-order finite differences used for absent derivatives.
FD_STEP = 1e-3


def _fd1(f: Callable[[float], np.ndarray], u: float) -> np.ndarray:
    h = FD_STEP
    return (f(u - 2 * h) - 8 * f(u - h) + 8 * f(u + h) - f(u + 2 * h)) / (12 * h)


def _fd2(f: Callable[[float], np.ndarray], u: float) -> np.ndarray:
    h = FD_STEP
    return (-f(u - 2 * h) + 16 * f(u - h) - 30 * f(u) + 16 * f(u + h)
            - f(u + 2 * h)) / (12 * h * h)


def pair_potential(s: float, t: float, lam: float, pair: CurvePair) -> float:
    """Gravitational potential ``U = -1/|x(s) - y(t)|``."""
    dist = float(np.linalg.norm(pair.z(s, t, lam)))
    if dist <= D_MIN:
        raise ValueError(f"curve separation {dist:.3e} below collision guard")
    return -1.0 / dist


def d2U_ds2(t: float, lam: float, pair: CurvePair) -> float:
    """Second ``s``-derivative of ``U`` at ``s = 0`` via the dot-product form.

    ``U'' = [(z'.z' + z.z'') (z.z) - 3 (z.z')^2] / (z.z)^{5/2}`` where
    primes are ``s``-derivatives, so ``z' = x_s`` and ``z'' = x_ss``.
    """
    z = pair.z(0.0, t, lam)
    zz = float(z @ z)
    if zz <= D_MIN * D_MIN:
        raise ValueError(f"curve separation {math.sqrt(zz):.3e} below collision guard")
    zp = pair.dx_ds(0.0, lam)
    zpp = pair.d2x_ds2(0.0, lam)
    return float(((zp @ zp + z @ zpp) * zz - 3.0 * (z @ zp) ** 2) / zz**2.5)


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


def min_distance(lam: float, pair: CurvePair) -> tuple[float, float, float]:
    """Minimum of ``|x(s) - y(t)|`` via grid search plus local refinement.

    A 121 x 121 grid over the ``s`` window and one ``t`` period seeds a
    Nelder-Mead refinement.  Returns ``(delta, s_star, t_star)``.  The
    minimizer must sit near ``(0, 0)`` (within a few grid cells) and, for
    non-periodic ``s`` windows, strictly inside the window; otherwise the
    pair violates its closest-approach normalization and a ``ValueError``
    is raised.  Ties (e.g. a ``t``-independent separation) resolve toward
    ``t = 0``.
    """
    s_lo, s_hi = pair.s_range
    svals = np.linspace(s_lo, s_hi, 121)
    tvals = np.linspace(-0.5 * pair.t_period, 0.5 * pair.t_period, 121)

    def gap2(s: float, t: float) -> float:
        z = pair.z(s, t, lam)
        return float(z @ z)

    best = None
    for s in svals:
        for t in tvals:
            key = (gap2(float(s), float(t)), abs(t), abs(s))
            if best is None or key < best[0]:
                best = (key, float(s), float(t))
    (_, s0, t0) = best
    ds = svals[1] - svals[0]
    dt = tvals[1] - tvals[0]

    if not pair.s_periodic and (abs(s0 - s_lo) < 0.5 * ds or
                                abs(s0 - s_hi) < 0.5 * ds):
        raise ValueError(
            f"closest approach sits on the s-window boundary (s={s0}); "
            f"the pair is not normalized to an interior minimum")

    res = minimize(lambda v: gap2(v[0], v[1]), x0=[s0, t0],
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 400})
    s_star, t_star = float(res.x[0]), float(res.x[1])

    if abs(s_star) > 3.0 * ds + 1e-9 or abs(t_star) > 3.0 * dt + 1e-9:
        raise ValueError(
            f"closest approach at (s={s_star:.4g}, t={t_star:.4g}) is not "
            f"at the origin within grid resolution")
    delta = float(np.linalg.norm(pair.z(s_star, t_star, lam)))
    return delta, s_star, t_star


def estimate_bounds(pair: CurvePair, lam: float) -> tuple[float, float, bool]:
    """Return ``(M, k, used_supplied)`` for the Taylor estimates.

    ``M`` bounds ``z`` and its first and second partials over the window
    (61 ``s`` and 121 ``t`` samples), uniformly over the given ``lam`` and
    the range endpoints; ``k = 2 M^2`` then dominates both Taylor
    remainders near closest approach.  Supplied values take precedence.
    """
    if pair.m_bound is not None and pair.k_bound is not None:
        return pair.m_bound, pair.k_bound, True
    if pair.m_bound is not None:
        return pair.m_bound, 2.0 * pair.m_bound**2, True

    lams = {lam, pair.lam_range[0], pair.lam_range[1]}
    svals = np.linspace(pair.s_range[0], pair.s_range[1], 61)
    tvals = np.linspace(-0.5 * pair.t_period, 0.5 * pair.t_period, 121)
    m = 0.0
    for lm in lams:
        for s in svals:
            sup = max(np.max(np.abs(pair.x(float(s), lm))),
                      np.max(np.abs(pair.dx_ds(float(s), lm))),
                      np.max(np.abs(pair.d2x_ds2(float(s), lm))))
            m = max(m, float(sup))
        for t in tvals:
            sup = max(np.max(np.abs(pair.y(float(t), lm))),
                      np.max(np.abs(pair.dy_dt(float(t), lm))),
                      np.max(np.abs(pair.d2y_dt2(float(t), lm))))
            m = max(m, float(sup))
    # |z| <= |x| + |y| and same for derivatives (mixed partials vanish).
    m = 2.0 * m
    k = pair.k_bound if pair.k_bound is not None else 2.0 * m * m
    return m, k, False


def bound_report(lam: float, pair: CurvePair) -> BoundReport:
    """Evaluate the closest-approach window quantities at one ``lam``.

    Computes ``delta`` and the argmin, the window ``tau = c*delta`` with
    ``c = min(k^{-1/2}, (k sqrt(6))^{-1})``, the curvature minimum
    ``a_min = min_{|t|<=tau} U''(0,t)`` over 201 samples, the lower-bound
    flag ``a_min >= 2^-4.5/delta^3``, and the winding estimate
    ``-2 tau sqrt(a_min) + pi``.
    """
    delta, s_star, t_star = min_distance(lam, pair)
    m, k, supplied = estimate_bounds(pair, lam)
    c = min(k ** -0.5, 1.0 / (k * math.sqrt(6.0)))
    tau = c * delta

    ts = np.linspace(-tau, tau, 201)
    a_min = min(d2U_ds2(float(t), lam, pair) for t in ts)

    bound_ok = a_min >= C_LOWER / delta**3
    winding_estimate = -2.0 * tau * math.sqrt(max(a_min, 0.0)) + math.pi
    threshold = 1.0 / (4.0 * math.sqrt(2.0) * m)
    return BoundReport(
        lam=lam, delta=delta, tau=tau, c=c, a_min=a_min,
        bound_ok=bound_ok, winding_estimate=winding_estimate,
        smallness_ok=delta < threshold, smallness_threshold=threshold,
        m_bound=m, k_bound=k, used_supplied_bounds=supplied,
        s_star=s_star, t_star=t_star)


def pair_diagnostics(pair: CurvePair, lam: float) -> dict:
    """Check the pair's normalization assumptions by sampling.

    Reports the worst deviation of ``|x'(s)|`` from 1 over 101 samples, the
    orthogonality defect ``x'(0).y'(0)``, and the second ``t``-difference of
    ``|z(0,t)|`` at the minimum (which must be positive: ``t``-non-degeneracy).
    """
    svals = np.linspace(pair.s_range[0], pair.s_range[1], 101)
    arc_defect = max(abs(float(np.linalg.norm(pair.dx_ds(float(s), lam))) - 1.0)
                     for s in svals)
    ortho = float(pair.dx_ds(0.0, lam) @ pair.dy_dt(0.0, lam))
    h = 1e-4 * pair.t_period
    dmin = [float(np.linalg.norm(pair.z(0.0, t, lam))) for t in (-h, 0.0, h)]
    t_curvature = (dmin[0] - 2 * dmin[1] + dmin[2]) / (h * h)
    return {
        "arc_length_defect": arc_defect,
        "orthogonality_defect": abs(ortho),
        "t_nondegeneracy": t_curvature,
    }


# ---------------------------------------------------------------------------
# Built-in curve families
# ---------------------------------------------------------------------------

def line_pair(lam_range: tuple[float, float] = (1e-3, 1.0),
              default_lam: float = 0.1) -> CurvePair:
    """Straight line ``x = (s, 0, 0)`` against a fixed point ``y = (0, lam, 0)``.

    Exactly solvable fixture: ``U''(0, t) = 1/lam^3`` for every ``t``.
    """
    zero = np.zeros(3)

    def x(s, lam):
        return np.array([s, 0.0, 0.0])

    def x_s(s, lam):
        return np.array([1.0, 0.0, 0.0])

    def x_ss(s, lam):
        return zero

    def y(t, lam):
        return np.array([0.0, lam, 0.0])

    def y_t(t, lam):
        return zero

    return CurvePair(
        name="line", x=x, y=y, x_s=x_s, x_ss=x_ss, y_t=y_t, y_tt=y_t,
        lam_range=lam_range, default_lam=default_lam,
        s_range=(-0.9, 0.9), s_periodic=False)


def sitnikov_pair(params: ModelParams, primary: str = "near") -> CurvePair:
    """Particle circle against one primary's orbit, closest approach at t=0.

    ``lam`` is the gap ``2 - r(1+eps)`` and selects the semi-major axis
    ``r(lam) = (2-lam)/(1+eps)`` at the fixed eccentricity of ``params``;
    ``default_lam`` matches ``params.r``.  The circle is
    ``x(s) = (0, -cos s, -sin s)`` with ``s = 0`` at the antipode
    ``(0,-1,0)``.  ``y(t)`` is the orbit of the primary whose apsis points
    at the antipode ("near"), time-shifted and rescaled to unit period so
    its closest approach to the antipode happens at ``t = 0``.  With
    ``primary="far"`` the opposite primary's orbit is returned (same time
    convention; its own closest approach is then at ``t = ±1/2``).
    """
    if primary not in ("near", "far"):
        raise ValueError(f"primary={primary!r} must be 'near' or 'far'")
    eps = params.epsilon
    sign = 1.0 if primary == "near" else -1.0
    default_lam = 2.0 - params.r * (1.0 + eps)

    def r_of(lam: float) -> float:
        r = (2.0 - lam) / (1.0 + eps)
        if r <= 0.0:
            raise ValueError(f"lam={lam} gives a non-positive semi-major axis")
        return r

    def x(s, lam):
        return np.array([0.0, -math.cos(s), -math.sin(s)])

    def x_s(s, lam):
        return np.array([0.0, math.sin(s), -math.cos(s)])

    def x_ss(s, lam):
        return np.array([0.0, math.cos(s), math.sin(s)])

    def y(t, lam):
        r = r_of(lam)
        tau = math.pi + TWO_PI * t
        rho, _, _ = radial_factor_derivatives(tau, eps)
        return np.array([sign * r * rho * math.sin(tau),
                         1.0 + sign * r * rho * math.cos(tau), 0.0])

    def y_t(t, lam):
        r = r_of(lam)
        tau = math.pi + TWO_PI * t
        rho, rho_d, _ = radial_factor_derivatives(tau, eps)
        return TWO_PI * np.array([
            sign * r * (rho_d * math.sin(tau) + rho * math.cos(tau)),
            sign * r * (rho_d * math.cos(tau) - rho * math.sin(tau)), 0.0])

    def y_tt(t, lam):
        r = r_of(lam)
        tau = math.pi + TWO_PI * t
        rho, rho_d, rho_dd = radial_factor_derivatives(tau, eps)
        return TWO_PI**2 * np.array([
            sign * r * (rho_dd * math.sin(tau) + 2.0 * rho_d * math.cos(tau)
                        - rho * math.sin(tau)),
            sign * r * (rho_dd * math.cos(tau) - 2.0 * rho_d * math.sin(tau)
                        - rho * math.cos(tau)), 0.0])

    lam_hi = max(default_lam, 0.5)
    return CurvePair(
        name=f"sitnikov_{primary}", x=x, y=y, x_s=x_s, x_ss=x_ss,
        y_t=y_t, y_tt=y_tt,
        lam_range=(5e-3, lam_hi), default_lam=default_lam,
        s_range=(-math.pi, math.pi), s_periodic=True)


def sitnikov_hill_coefficient(params: ModelParams) -> Callable[[float], float]:
    """Hill coefficient at the antipodal equilibrium built from curve pairs.

    Sums the closest-approach curvature ``U''`` of the two single-primary
    pairs at matching physical time (``t = (t_phys - pi)/2pi``); agrees
    with ``-dforce_dq(pi, t_phys)`` from the direct linearization.
    """
    near = sitnikov_pair(params, "near")
    far = sitnikov_pair(params, "far")
    lam = near.default_lam

    def a(t_phys: float) -> float:
        t = (t_phys - math.pi) / TWO_PI
        return d2U_ds2(t, lam, near) + d2U_ds2(t, lam, far)

    return a


CURVE_FAMILIES: dict[str, Callable[..., CurvePair]] = {
    "line": line_pair,
    "sitnikov_near": lambda r=1.8, epsilon=0.0: sitnikov_pair(
        ModelParams(r=r, epsilon=epsilon), "near"),
    "sitnikov_far": lambda r=1.8, epsilon=0.0: sitnikov_pair(
        ModelParams(r=r, epsilon=epsilon), "far"),
}


def load_curve_pair(source) -> CurvePair:
    """Build a registered curve family from a declarative JSON description.

    ``source`` is a path to, or dict of, ``{"family": name,
    "params": {...}}``; families are built in, no expressions are parsed,
    and an unknown key is an error rather than a silently used default.
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
    if family not in CURVE_FAMILIES:
        raise ValueError(
            f"unknown curve family {family!r}; available: "
            f"{sorted(CURVE_FAMILIES)}")
    factory = CURVE_FAMILIES[family]
    known = inspect.signature(factory).parameters
    if not isinstance(params, dict) or not set(params) <= set(known):
        raise ValueError(f"curve family {family!r} takes params "
                         f"{sorted(known)}, got {params!r}")
    return factory(**params)
