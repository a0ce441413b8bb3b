"""Parameter sweeps, transition localization, and interchange counting.

Transitions are detected on ``|h| - 1`` with ``h`` the half-trace of the
monodromy, not on classification labels, so the parabolic reporting band
cannot create artificial intervals.  Near the collision ceiling
``r = 2/(1+eps)`` the interchange density grows without bound, so census
grids are geometric in the gap ``2/(1+eps) - r``; linear grids
under-resolve there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kepler import (TWO_PI, KEPLER_TOL, ModelParams, collision_ceiling,
                     solve_kepler)
from .model import coefficient_period
from .integrate import _write_text
from .floquet import ELLIPTIC, HYPERBOLIC, monodromy

# Scans never approach the collision ceiling closer than this.
CEILING_MARGIN = 1e-4

DEFAULT_SCAN_TOL = 1e-9
DEFAULT_REFINE_TOL = 1e-7

# The census starts from 2**CENSUS_START_LEVEL cells and stops once the
# count has held for CENSUS_PLATEAU_LEVELS consecutive levels.
CENSUS_START_LEVEL = 4
CENSUS_PLATEAU_LEVELS = 3

# Largest eccentricity the origin sweep evaluates.
EPS_SCAN_CAP = 0.95


@dataclass
class TraceCurve:
    """Half-trace of the monodromy along a 1-parameter grid.

    ``param`` is ``"r"`` (eccentricity fixed) or ``"epsilon"`` (semi-major
    axis fixed).  Grid points that violate the collision guard are skipped
    and recorded in ``skipped``.
    """

    q_star: float
    epsilon: float | None
    param: str
    values: np.ndarray
    half_traces: np.ndarray
    period: float
    tol: float
    r_fixed: float | None = None
    skipped: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_csv(self, path_or_file, header_comment: str | None = None) -> None:
        lines = [f"# {header_comment}"] if header_comment else []
        lines.append(f"{self.param},half_trace")
        lines += [f"{v:.17g},{h:.17g}"
                  for v, h in zip(self.values, self.half_traces)]
        _write_text(path_or_file, "\n".join(lines) + "\n")


@dataclass
class StabilityIntervals:
    """Tiling of a scanned range into maximal same-class intervals.

    Adjacent intervals have different classes; each interior boundary is a
    transition bracketed to ``refine_tol``.  ``suspect`` lists intervals
    whose midpoint class disagrees with the tiling (a sign that two
    crossings hide inside one grid cell; refine the grid to resolve).
    """

    q_star: float
    epsilon: float
    period: float
    intervals: list[tuple[float, float, str]]
    transitions: list[dict]
    refine_tol: float
    suspect: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "q_star": self.q_star,
            "epsilon": self.epsilon,
            "period": self.period,
            "refine_tol": self.refine_tol,
            "intervals": [
                {"r_lo": lo, "r_hi": hi, "class": cls}
                for lo, hi, cls in self.intervals
            ],
            "transitions": [{"r_bracket": list(t["r_bracket"])}
                            for t in self.transitions],
            "suspect": self.suspect,
        }


@dataclass
class CensusResult:
    """Interchange count from a budgeted adaptive scan toward the ceiling."""

    epsilon: float
    count: int
    intervals: StabilityIntervals
    evaluations: int
    budget: int
    budget_exhausted: bool
    levels_completed: int
    r_range: tuple[float, float]
    sample_rs: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "evaluations": self.evaluations,
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
            "levels_completed": self.levels_completed,
            "r_range": list(self.r_range),
            "intervals": self.intervals.to_json_dict(),
        }


def _half_trace(q_star: float, r: float, epsilon: float, period: float,
                tol: float) -> float:
    m = monodromy(q_star, ModelParams(r=r, epsilon=epsilon),
                  period=period, tol=tol)
    return m.half_trace


def trace_curve(q_star: float, epsilon: float, r_grid,
                tol: float = DEFAULT_SCAN_TOL) -> TraceCurve:
    """Half-trace of the monodromy at each admissible grid point.

    Deterministic for a fixed tolerance; grid points above
    ``2/(1+eps) - margin`` are skipped and recorded rather than evaluated.
    """
    period = coefficient_period(epsilon)
    ceiling = collision_ceiling(epsilon)
    values, traces, skipped = [], [], []
    for r in np.asarray(r_grid, dtype=float):
        if not 0.0 < r <= ceiling - CEILING_MARGIN:
            skipped.append((float(r), "collision guard"))
            continue
        values.append(float(r))
        traces.append(_half_trace(q_star, float(r), epsilon, period, tol))
    return TraceCurve(q_star=q_star, epsilon=epsilon, param="r",
                      values=np.array(values), half_traces=np.array(traces),
                      period=period, tol=tol, skipped=skipped)


def _bisect_transition(q_star: float, epsilon: float, period: float,
                       tol: float, r_lo: float, g_lo: float, r_hi: float,
                       g_hi: float, refine_tol: float) -> tuple[float, float]:
    """Shrink a sign-change bracket of ``|h|-1`` to width <= refine_tol."""
    while r_hi - r_lo > refine_tol:
        mid = 0.5 * (r_lo + r_hi)
        g_mid = abs(_half_trace(q_star, mid, epsilon, period, tol)) - 1.0
        if (g_mid > 0.0) == (g_lo > 0.0):
            r_lo, g_lo = mid, g_mid
        else:
            r_hi, g_hi = mid, g_mid
    return r_lo, r_hi


def find_transitions(curve: TraceCurve,
                     refine_tol: float = DEFAULT_REFINE_TOL) -> StabilityIntervals:
    """Bracket and refine every crossing of ``|half_trace| = 1`` on a curve.

    Each sign change of ``|h| - 1`` between adjacent grid points is refined
    by bisection on freshly computed monodromies; the scanned range is then
    tiled into alternating interval classes.  Interval midpoints are
    re-checked; mismatches are flagged in ``suspect`` (two crossings inside
    a single grid cell cannot be split without a finer grid).
    """
    if len(curve.values) < 2:
        raise ValueError("need at least 2 grid samples to bracket transitions")
    if curve.param != "r":
        raise ValueError("transition search expects an r-scan")
    rs = curve.values
    gs = np.abs(curve.half_traces) - 1.0

    transitions = []
    for i in range(len(rs) - 1):
        if gs[i] == 0.0:
            transitions.append({"r_bracket": (float(rs[i]), float(rs[i]))})
            continue
        if gs[i] * gs[i + 1] < 0.0:
            lo, hi = _bisect_transition(
                curve.q_star, curve.epsilon, curve.period, curve.tol,
                float(rs[i]), float(gs[i]), float(rs[i + 1]), float(gs[i + 1]),
                refine_tol)
            transitions.append({"r_bracket": (lo, hi)})

    # Each transition midpoint lies in its own grid cell, so every interval
    # between consecutive bounds contains at least one grid sample.
    intervals = []
    bounds = ([float(rs[0])]
              + [0.5 * (t["r_bracket"][0] + t["r_bracket"][1]) for t in transitions]
              + [float(rs[-1])])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g_rep = float(np.median(gs[(rs >= lo) & (rs <= hi)]))
        cls = ELLIPTIC if g_rep < 0.0 else HYPERBOLIC
        intervals.append((lo, hi, cls))

    suspect = []
    for lo, hi, cls in intervals:
        mid = 0.5 * (lo + hi)
        g_mid = abs(_half_trace(curve.q_star, mid, curve.epsilon,
                                curve.period, curve.tol)) - 1.0
        if (g_mid < 0.0) != (cls == ELLIPTIC):
            suspect.append({"r_lo": lo, "r_hi": hi,
                            "reason": "midpoint class mismatch; grid too coarse"})

    return StabilityIntervals(q_star=curve.q_star, epsilon=curve.epsilon,
                              period=curve.period, intervals=intervals,
                              transitions=transitions, refine_tol=refine_tol,
                              suspect=suspect)


def _tile(samples: list[tuple[float, float]]) -> tuple[list, list]:
    """Tile sorted ``(r, h)`` samples into maximal same-class intervals.

    Each boundary sits midway between the two adjacent samples of different
    class, and those two samples bracket its transition.
    """
    rs = [r for r, _ in samples]
    flags = [abs(h) < 1.0 for _, h in samples]
    intervals, transitions = [], []
    seg_start = rs[0]
    for i in range(1, len(rs)):
        if flags[i] != flags[i - 1]:
            transitions.append({"r_bracket": (rs[i - 1], rs[i])})
            boundary = 0.5 * (rs[i - 1] + rs[i])
            intervals.append((seg_start, boundary,
                              ELLIPTIC if flags[i - 1] else HYPERBOLIC))
            seg_start = boundary
    intervals.append((seg_start, rs[-1],
                      ELLIPTIC if flags[-1] else HYPERBOLIC))
    return intervals, transitions


def interchange_census(epsilon: float, r_max_fraction: float, budget: int,
                       r_start_fraction: float = 0.95,
                       tol: float = DEFAULT_SCAN_TOL) -> CensusResult:
    """Count strongly-stable intervals of the antipode toward the ceiling.

    Nested grids, geometric in the gap ``ceiling - r``, are refined level
    by level (each level doubles the cell count and reuses all previous
    evaluations, so the count is monotone in the budget).  Refinement stops
    when the remaining budget cannot pay for the next level or when the
    count has been stable for ``CENSUS_PLATEAU_LEVELS`` consecutive levels.
    Only elliptic intervals that are neither first nor last, i.e. flanked
    by non-elliptic samples on both sides, are counted, so a partial census
    under-counts rather than guesses.
    """
    if not 0.0 < r_max_fraction < 1.0:
        raise ValueError("r_max_fraction must be in (0, 1)")
    if not 0.0 < r_start_fraction < r_max_fraction:
        raise ValueError("r_start_fraction must be in (0, r_max_fraction)")
    ceiling = collision_ceiling(epsilon)
    r_hi = min(r_max_fraction * ceiling, ceiling - CEILING_MARGIN)
    r_lo = r_start_fraction * ceiling
    g_hi = ceiling - r_lo
    g_lo = ceiling - r_hi
    period = coefficient_period(epsilon)

    cache: dict[float, float] = {}
    evaluations = 0
    budget_exhausted = False

    def point(frac: float) -> tuple[float, float] | None:
        nonlocal evaluations, budget_exhausted
        g = g_hi * (g_lo / g_hi) ** frac
        r = ceiling - g
        if r not in cache:
            if evaluations >= budget:
                budget_exhausted = True
                return None
            cache[r] = _half_trace(math.pi, r, epsilon, period, tol)
            evaluations += 1
        return r, cache[r]

    counts: list[int] = []
    level = CENSUS_START_LEVEL
    samples: list[tuple[float, float]] = []
    intervals: list[tuple[float, float, str]] = []
    transitions: list[dict] = []
    levels_completed = 0
    while True:
        n = 2 ** level
        new_samples = []
        aborted = False
        for j in range(n + 1):
            p = point(j / n)
            if p is None:
                aborted = True
                break
            new_samples.append(p)
        if aborted:
            break
        samples = sorted(new_samples)
        intervals, transitions = _tile(samples)
        counts.append(sum(cls == ELLIPTIC for _, _, cls in intervals[1:-1]))
        levels_completed = level
        if (len(counts) >= CENSUS_PLATEAU_LEVELS
                and len(set(counts[-CENSUS_PLATEAU_LEVELS:])) == 1):
            break
        level += 1

    tiling = StabilityIntervals(
        q_star=math.pi, epsilon=epsilon, period=period, intervals=intervals,
        transitions=transitions,
        refine_tol=(samples[1][0] - samples[0][0]) if len(samples) > 1 else 0.0)

    return CensusResult(epsilon=epsilon, count=counts[-1] if counts else 0,
                        intervals=tiling, evaluations=evaluations,
                        budget=budget, budget_exhausted=budget_exhausted,
                        levels_completed=levels_completed,
                        r_range=(r_lo, r_hi),
                        sample_rs=[r for r, _ in samples])


def eps_scan_origin(r_fixed: float, eps_grid,
                    tol: float = DEFAULT_SCAN_TOL) -> TraceCurve:
    """Half-trace of the origin monodromy versus eccentricity (period 2*pi).

    Exploratory sweep at fixed ``r``; each point records a probe of the
    eccentric-anomaly solver's worst iteration count, since high
    eccentricities stress it.
    """
    values, traces, skipped, notes = [], [], [], []
    for eps in np.asarray(eps_grid, dtype=float):
        if not 0.0 <= eps <= EPS_SCAN_CAP:
            skipped.append((float(eps), f"outside [0, {EPS_SCAN_CAP}]"))
            continue
        ceiling = collision_ceiling(eps)
        if not 0.0 < r_fixed <= ceiling - CEILING_MARGIN:
            skipped.append((float(eps), "collision guard"))
            continue
        h = _half_trace(0.0, r_fixed, float(eps), TWO_PI, tol)
        values.append(float(eps))
        traces.append(h)
        worst = 0
        for m_probe in np.linspace(0.0, TWO_PI, 17):
            _, iters = _kepler_probe(float(m_probe), float(eps))
            worst = max(worst, iters)
        notes.append({"epsilon": float(eps), "kepler_max_iterations": worst})
    return TraceCurve(q_star=0.0, epsilon=None, param="epsilon",
                      values=np.array(values), half_traces=np.array(traces),
                      period=TWO_PI, tol=tol, r_fixed=r_fixed,
                      skipped=skipped, notes=notes)


def _kepler_probe(m: float, eps: float) -> tuple[float, int]:
    """Solve the Kepler equation counting iterations (solver stress probe)."""
    from .kepler import KeplerConvergenceError
    for iters in range(1, 65):
        try:
            u = solve_kepler(m, eps, tol=KEPLER_TOL, max_iter=iters)
            return u, iters
        except KeplerConvergenceError:
            continue
    return solve_kepler(m, eps), 64
