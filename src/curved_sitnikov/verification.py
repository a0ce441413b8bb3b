"""End-to-end verification suite: one check per quantitative guarantee.

Each check pins its own tolerances and returns a :class:`CheckResult`;
``run_all`` executes them in order (later checks audit the monodromy
cases of earlier ones).  The pytest acceptance module and the CLI
``verify`` command both drive this code, so there is a single source of
truth for what "working" means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .kepler import TWO_PI, ModelParams, solve_kepler
from . import model
from .integrate import integrate_orbit, integrate_variational
from .floquet import (classify, monodromy, ortega_hypotheses, winding_angle,
                      winding_bound, HYPERBOLIC)
from .general_model import (bound_report, d2U_ds2, d2U_ds2_fd, line_pair,
                            sitnikov_pair)
from .scan import find_transitions, interchange_census, trace_curve
from .poincare import section

# Published estimate for the first parabolic value of the antipodal
# equilibrium with circular primaries, and the acceptance band around it.
FIRST_TRANSITION_R = 1.2472
FIRST_TRANSITION_TOL = 5e-3


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.1f}s]"


def _worse(*defects) -> float:
    """The largest defect, NaN if any is NaN (``max`` drops a NaN)."""
    return float(np.max(defects))


def check_kepler_residuals(ctx: dict) -> tuple[bool, str]:
    """Solver residual < 1e-12 on a 100 x 20 (M, eps) grid, eps <= 0.9."""
    worst = 0.0
    for m in np.linspace(0.0, TWO_PI, 100, endpoint=False):
        for eps in np.linspace(0.0, 0.9, 20):
            u = solve_kepler(float(m), float(eps))
            worst = _worse(worst, abs(u - eps * math.sin(u) - m))
    return worst < 1e-12, f"max residual {worst:.2e} (< 1e-12)"


def check_analytic_monodromy(ctx: dict) -> tuple[bool, str]:
    """Monodromy at the origin, circular primaries, against the closed form."""
    worst = 0.0
    cases = ctx.setdefault("monodromy_cases", [])
    for r in (0.5, 1.0, 1.5, 1.9):
        params = ModelParams(r=r, epsilon=0.0)
        m = monodromy(0.0, params, period=math.pi, tol=1e-11)
        cases.append((0.0, r, 1e-11))
        w = math.sqrt(2.0 / r**3)
        expected = np.array([
            [math.cos(w * math.pi), math.sin(w * math.pi) / w],
            [-w * math.sin(w * math.pi), math.cos(w * math.pi)],
        ])
        worst = _worse(worst, abs(m.half_trace - math.cos(math.pi * w)),
                       *np.abs(m.matrix.as_array() - expected).flat)
    return worst < 1e-8, f"max half-trace/entry deviation {worst:.2e} (< 1e-8)"


def check_antipode_hyperbolic(ctx: dict) -> tuple[bool, str]:
    """Hyperbolic class at the antipode for all r on a 50-point grid."""
    bad = []
    cases = ctx.setdefault("monodromy_cases", [])
    for r in np.linspace(0.05, 1.059, 50):
        m = monodromy(math.pi, ModelParams(r=float(r)), period=math.pi,
                      tol=1e-10)
        cases.append((math.pi, float(r), 1e-10))
        cls = classify(m)
        if cls != HYPERBOLIC:
            bad.append((float(r), cls))
    return not bad, (f"all 50 grid points hyperbolic" if not bad
                     else f"non-hyperbolic at {bad[:3]}")


def check_first_transition(ctx: dict) -> tuple[bool, str]:
    """Unique interchange in (1.05, 1.4) at the published estimate +- 5e-3."""
    grid = np.arange(1.05, 1.4 + 1e-12, 0.002)
    curve = trace_curve(math.pi, 0.0, grid, tol=1e-9)
    intervals = find_transitions(curve, refine_tol=1e-7)
    ctx["transition_brackets"] = [t["r_bracket"] for t in intervals.transitions]
    ctx["transition_grid"] = list(curve.values)
    if len(intervals.transitions) != 1:
        return False, (f"expected exactly 1 transition, found "
                       f"{len(intervals.transitions)}")
    lo, hi = intervals.transitions[0]["r_bracket"]
    r_found = 0.5 * (lo + hi)
    ok = abs(r_found - FIRST_TRANSITION_R) <= FIRST_TRANSITION_TOL
    return ok, (f"transition at r = {r_found:.6f} "
                f"(target {FIRST_TRANSITION_R} +- {FIRST_TRANSITION_TOL})")


def check_interchange_census(ctx: dict) -> tuple[bool, str]:
    """At least 3 strongly-stable intervals on (1.9, 1.9995), budget 1e5."""
    result = interchange_census(epsilon=0.0, r_max_fraction=0.99975,
                                budget=100_000, r_start_fraction=0.95,
                                tol=1e-9)
    ctx["census_rs"] = list(result.sample_rs)
    ok = result.count >= 3
    return ok, (f"{result.count} strongly-stable intervals "
                f"({result.evaluations} monodromies, "
                f"levels to {result.levels_completed})")


def check_wronskian_evenness(ctx: dict) -> tuple[bool, str]:
    """det X(2pi) = 1 and x1(2pi) = y2(2pi) across audited monodromies.

    Each case ``(q_star, r, tol)`` of checks 2 and 3, and the antipode at
    the radii of checks 4 and 5, is solved here over the full period pi
    and squared to give ``X(2pi) = X(pi)^2``; ``monodromy``'s half-period
    form makes ``x1 = y2`` hold by construction, so it has nothing to
    audit.
    """
    extra = []
    for lo, hi in ctx.get("transition_brackets", []):
        extra.append(0.5 * (lo + hi))
    grid = ctx.get("transition_grid", [])
    extra.extend(grid[::max(1, len(grid) // 40)])
    census = ctx.get("census_rs", [])
    extra.extend(census[::max(1, len(census) // 60)])
    cases = list(ctx.get("monodromy_cases", []))
    cases += [(math.pi, float(r), 1e-9) for r in extra]
    worst_det = 0.0
    worst_even = 0.0
    for q_star, r, tol in cases:
        x = integrate_variational(model.hill_coefficient(
            q_star, ModelParams(r=r)), math.pi, tol).as_array()
        (x1, x2), (y1, y2) = x @ x
        worst_det = _worse(worst_det, abs(x1 * y2 - x2 * y1 - 1.0))
        worst_even = _worse(worst_even, abs(x1 - y2))
    ok = worst_det <= 1e-8 and worst_even <= 1e-8
    return bool(ok), (f"{len(cases)} monodromies: max |det-1| {worst_det:.2e}, "
                      f"max |x1-y2| {worst_even:.2e} (<= 1e-8)")


def check_force_limits(ctx: dict) -> tuple[bool, str]:
    """Large-circle and fused-primary limits of the force law.

    On a circle of radius ``R`` the arc-length force at ``w = R q`` is the
    unit-circle force at ``r / R`` scaled by ``1 / R^2``; as ``R`` grows it
    approaches ``-2 w / (r^2 + w^2)^{3/2}``, the flat (uncurved) problem.
    """
    R = 1e3
    large = ModelParams(r=1.0 / R, epsilon=0.0)
    worst_line = 0.0
    for w in (0.5, 1.0, 2.0):
        got = model.tangential_force(w / R, 0.0, large) / R**2
        want = -2.0 * w / (1.0 + w * w) ** 1.5
        worst_line = _worse(worst_line, abs(got - want))
    worst_circle = 0.0
    tiny = ModelParams(r=1e-6, epsilon=0.0)
    for q in (math.pi / 2.0, 2.0, math.pi):
        got = model.tangential_force(q, 0.0, tiny)
        want = model.limit_force_circle(q, 1.0)
        worst_circle = _worse(worst_circle, abs(got - want))
    ok = worst_line <= 1e-4 and worst_circle <= 1e-5
    return ok, (f"straight-line defect {worst_line:.2e} (<= 1e-4), "
                f"fused-mass defect {worst_circle:.2e} (<= 1e-5)")


def check_winding_bound(ctx: dict) -> tuple[bool, str]:
    """Phase winding obeys -sqrt(a_min) (t1-t0) + pi for positive coefficients."""
    hill = model.hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
    coefficients = [
        ("a=1", lambda t: 1.0),
        ("a=4", lambda t: 4.0),
        ("1+0.5cos", lambda t: 1.0 + 0.5 * math.cos(t)),
        ("hill(0)", hill),
    ]
    t0, t1 = 0.0, TWO_PI
    worst_margin = -math.inf
    for name, a in coefficients:
        a_min = min(a(t) for t in np.linspace(t0, t1, 4001))
        bound = winding_bound(a_min, t0, t1)
        for k in range(8):
            z0 = complex(math.cos(TWO_PI * k / 8.0),
                         math.sin(TWO_PI * k / 8.0))
            theta = winding_angle(a, t0, t1, z0, tol=1e-10)
            worst_margin = _worse(worst_margin, theta - bound)
            if not theta <= bound:
                return False, (f"{name}, phase {k}: winding {theta:.6f} "
                               f"not within bound {bound:.6f}")
    return True, f"32 cases below bound (worst margin {worst_margin:.3f})"


def check_curvature_formula(ctx: dict) -> tuple[bool, str]:
    """Dot-product U'' vs finite differences; interchange trend quantities."""
    pairs = [(line_pair(), [(t, lam) for lam in (0.1, 0.05)
                            for t in (-0.2, -0.1, 0.0, 0.1, 0.2)]),
             (sitnikov_pair(ModelParams(r=1.8, epsilon=0.0)),
              [(t, lam) for lam in (0.2, 0.1)
               for t in (-0.01, -0.005, 0.0, 0.005, 0.01)])]
    worst_rel = 0.0
    for pair, samples in pairs:
        for t, lam in samples:
            dot = d2U_ds2(t, lam, pair)
            fd = d2U_ds2_fd(t, lam, pair)
            worst_rel = _worse(worst_rel, abs(dot - fd) / abs(dot))
    if not worst_rel <= 1e-6:
        return False, f"U'' mismatch {worst_rel:.2e} (> 1e-6 relative)"

    pair = sitnikov_pair(ModelParams(r=1.8, epsilon=0.0))
    reports = [bound_report(lam, pair) for lam in (0.2, 0.1, 0.05, 0.025)]
    winds = [rep.winding_estimate for rep in reports]
    growth = [rep.tau * math.sqrt(rep.a_min) for rep in reports]
    monotone = (all(b < a for a, b in zip(winds, winds[1:]))
                and all(b > a for a, b in zip(growth, growth[1:])))
    if not monotone:
        return False, (f"trend violation: winding {winds}, "
                       f"tau*sqrt(a_min) {growth}")
    return True, (f"U'' max relative defect {worst_rel:.2e}; winding "
                  f"estimate strictly decreasing over delta sweep")


def check_symmetries(ctx: dict) -> tuple[bool, str]:
    """Field symmetry defects <= 1e-12; trajectory reversibility round trip."""
    rng = np.random.default_rng(20240813)
    param_pairs = [(1.0, 0.0), (1.5, 0.2), (0.5, 0.6), (1.9, 0.02),
                   (0.8, 0.45)]
    worst = 0.0
    for r, eps in param_pairs:
        params = ModelParams(r=r, epsilon=eps)
        for _ in range(200):
            q = float(rng.uniform(-3.0 * math.pi, 3.0 * math.pi))
            p = float(rng.uniform(-2.0, 2.0))
            s = float(rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI))
            worst = _worse(worst, *model.symmetry_defect(q, p, s, params))
    if not worst <= 1e-12:
        return False, f"symmetry defect {worst:.2e} (> 1e-12)"

    tol = 1e-9
    worst_rev = 0.0
    for (q0, p0) in [(0.4, 0.2), (2.5, -0.3), (1.0, 0.05)]:
        params = ModelParams(r=1.3, epsilon=0.25)
        fwd = integrate_orbit((q0, p0, 0.0), TWO_PI, params, tol=tol)
        qT, pT, _ = fwd.states[-1]
        back = integrate_orbit((qT, -pT, 0.0), TWO_PI, params, tol=tol)
        qB, pB, _ = back.states[-1]
        worst_rev = _worse(worst_rev, abs(qB - q0), abs(pB - (-p0)))
    ok = worst_rev <= 10.0 * tol
    return ok, (f"symmetry defects {worst:.2e} (<= 1e-12); reversibility "
                f"round trip {worst_rev:.2e} (<= {10 * tol:.0e})")


def check_origin_stability(ctx: dict) -> tuple[bool, str]:
    """Nonlinear-stability hypotheses on a grid; bounded section orbits."""
    for r in np.linspace(0.05, 1.95, 50):
        res = ortega_hypotheses(ModelParams(r=float(r)))
        if not res["passed"]:
            return False, f"hypothesis check failed at r={r:.4f}: {res}"

    grid = [(q0, p0) for q0 in np.linspace(-0.1, 0.1, 4)
            for p0 in np.linspace(-0.1, 0.1, 5)]
    cloud = section(ModelParams(r=1.0), grid, n_iterates=500, tol=1e-8)
    max_q = max(float(np.max(np.abs(orbit[:, 0])))
                for orbit in cloud.orbits if len(orbit))
    ok = max_q < 1.0 and not any(cloud.truncated)
    return ok, (f"hypotheses pass on 50-point grid; 20 orbits x 500 strobes "
                f"stay within |q| = {max_q:.3f} (< 1)")


CHECKS: list[tuple[str, Callable[[dict], tuple[bool, str]]]] = [
    ("kepler residuals", check_kepler_residuals),
    ("analytic monodromy oracle", check_analytic_monodromy),
    ("antipode hyperbolic range", check_antipode_hyperbolic),
    ("first parabolic transition", check_first_transition),
    ("interchange census", check_interchange_census),
    ("wronskian and evenness", check_wronskian_evenness),
    ("force-law limits", check_force_limits),
    ("winding bound", check_winding_bound),
    ("curvature formula and trend", check_curvature_formula),
    ("symmetry suite", check_symmetries),
    ("origin stability", check_origin_stability),
]

QUICK_SKIP = {"origin stability"}


def run_all(quick: bool = False) -> Iterator[CheckResult]:
    """Run the verification suite in order, yielding each result as it ends.

    ``quick=True`` skips the slowest check, section boundedness (3-4 s
    on a shared 2-core host).  Checks share a context so later checks can audit the
    monodromy cases of earlier ones.
    """
    ctx: dict = {}
    for name, fn in CHECKS:
        if not (quick and name in QUICK_SKIP):
            t0 = time.perf_counter()
            passed, detail = fn(ctx)
            yield CheckResult(name=name, passed=bool(passed), detail=detail,
                              seconds=time.perf_counter() - t0)
