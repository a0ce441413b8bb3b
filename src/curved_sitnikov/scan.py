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

from .kepler import TWO_PI, ModelParams, _solve_core, collision_ceiling
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


def _elliptic(h: float) -> bool:
    """The one class rule: ``|h| < 1`` is elliptic, anything else is not."""
    return abs(h) < 1.0


def _tile(samples: list[tuple[float, float]], narrow) -> tuple[list, list]:
    """Tile sorted ``(r, h)`` samples into alternating-class intervals.

    Between two adjacent samples of different class,
    ``narrow(r_lo, r_hi, lo_elliptic)`` returns the bracket of that
    transition, and the interval boundary sits at the bracket's midpoint.
    """
    intervals, transitions = [], []
    seg_start = samples[0][0]
    for (r0, h0), (r1, h1) in zip(samples, samples[1:]):
        lo_elliptic = _elliptic(h0)
        if lo_elliptic != _elliptic(h1):
            lo, hi = narrow(r0, r1, lo_elliptic)
            transitions.append({"r_bracket": (lo, hi)})
            boundary = 0.5 * (lo + hi)
            intervals.append((seg_start, boundary,
                              ELLIPTIC if lo_elliptic else HYPERBOLIC))
            seg_start = boundary
    r_last, h_last = samples[-1]
    intervals.append((seg_start, r_last,
                      ELLIPTIC if _elliptic(h_last) else HYPERBOLIC))
    return intervals, transitions


def find_transitions(curve: TraceCurve,
                     refine_tol: float = DEFAULT_REFINE_TOL) -> StabilityIntervals:
    """Bracket and refine every crossing of ``|half_trace| = 1`` on a curve.

    The grid is tiled by ``_tile``; each class change between adjacent
    grid points is narrowed by bisection on freshly computed monodromies to
    width ``refine_tol`` before its midpoint becomes an interval boundary.
    Interval midpoints are re-checked; mismatches are flagged in
    ``suspect`` (two crossings inside a single grid cell cannot be split
    without a finer grid).
    """
    if len(curve.values) < 2:
        raise ValueError("need at least 2 grid samples to bracket transitions")
    if curve.param != "r":
        raise ValueError("transition search expects an r-scan")

    def elliptic_at(r: float) -> bool:
        return _elliptic(_half_trace(curve.q_star, r, curve.epsilon,
                                     curve.period, curve.tol))

    def bisect(r_lo: float, r_hi: float, lo_elliptic: bool):
        while r_hi - r_lo > refine_tol:
            mid = 0.5 * (r_lo + r_hi)
            if elliptic_at(mid) == lo_elliptic:
                r_lo = mid
            else:
                r_hi = mid
        return r_lo, r_hi

    samples = [(float(r), float(h))
               for r, h in zip(curve.values, curve.half_traces)]
    intervals, transitions = _tile(samples, bisect)
    suspect = [{"r_lo": lo, "r_hi": hi,
                "reason": "midpoint class mismatch; grid too coarse"}
               for lo, hi, cls in intervals
               if elliptic_at(0.5 * (lo + hi)) != (cls == ELLIPTIC)]
    return StabilityIntervals(q_star=curve.q_star, epsilon=curve.epsilon,
                              period=curve.period, intervals=intervals,
                              transitions=transitions, refine_tol=refine_tol,
                              suspect=suspect)


def interchange_census(epsilon: float, r_max_fraction: float, budget: int,
                       r_start_fraction: float = 0.95,
                       tol: float = DEFAULT_SCAN_TOL) -> CensusResult:
    """Count strongly-stable intervals of the antipode toward the ceiling.

    Nested grids, geometric in the gap ``ceiling - r``, are refined level
    by level (each level doubles the cell count and evaluates only the new
    midpoints, so the count is monotone in the budget).  Refinement stops
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

    counts: list[int] = []
    samples: list[tuple[float, float]] = []
    intervals: list[tuple[float, float, str]] = []
    transitions: list[dict] = []
    budget_exhausted = False
    levels_completed = 0
    level = CENSUS_START_LEVEL
    fracs = [j / 2 ** level for j in range(2 ** level + 1)]
    while True:
        if len(samples) + len(fracs) > budget:
            budget_exhausted = True
            break
        for frac in fracs:
            r = ceiling - g_hi * (g_lo / g_hi) ** frac
            samples.append((r, _half_trace(math.pi, r, epsilon, period, tol)))
        samples.sort()
        # Census brackets stay the grid cells that hold them.
        intervals, transitions = _tile(samples, lambda lo, hi, _: (lo, hi))
        counts.append(sum(cls == ELLIPTIC for _, _, cls in intervals[1:-1]))
        levels_completed = level
        if (len(counts) >= CENSUS_PLATEAU_LEVELS
                and len(set(counts[-CENSUS_PLATEAU_LEVELS:])) == 1):
            break
        level += 1
        fracs = [j / 2 ** level for j in range(1, 2 ** level, 2)]

    tiling = StabilityIntervals(
        q_star=math.pi, epsilon=epsilon, period=period, intervals=intervals,
        transitions=transitions,
        refine_tol=(samples[1][0] - samples[0][0]) if len(samples) > 1 else 0.0)

    return CensusResult(epsilon=epsilon, count=counts[-1] if counts else 0,
                        intervals=tiling, evaluations=len(samples),
                        budget=budget, budget_exhausted=budget_exhausted,
                        levels_completed=levels_completed,
                        r_range=(r_lo, r_hi),
                        sample_rs=[r for r, _ in samples])


def eps_scan_origin(r_fixed: float, eps_grid,
                    tol: float = DEFAULT_SCAN_TOL) -> TraceCurve:
    """Half-trace of the origin monodromy versus eccentricity (period 2*pi).

    Exploratory sweep at fixed ``r``; each point records the eccentric-
    anomaly solver's worst step count over 17 mean anomalies (at least 1),
    since high eccentricities stress it.
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
        worst = max(max(1, _solve_core(float(m), float(eps))[1])
                    for m in np.linspace(0.0, TWO_PI, 17))
        notes.append({"epsilon": float(eps), "kepler_max_iterations": worst})
    return TraceCurve(q_star=0.0, epsilon=None, param="epsilon",
                      values=np.array(values), half_traces=np.array(traces),
                      period=TWO_PI, tol=tol, r_fixed=r_fixed,
                      skipped=skipped, notes=notes)

