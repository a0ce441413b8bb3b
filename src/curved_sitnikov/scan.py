"""Parameter sweeps, transition localization, and interchange counting.

Transitions are detected on ``|h| - 1`` with ``h`` the half-trace of the
monodromy, not on classification labels, so the parabolic reporting band
cannot create artificial intervals.  Transition brackets come from a
secant search that evaluates only bisection's own floats
(``find_transitions``).  Near the collision ceiling
``r = 2/(1+eps)`` the interchange density grows without bound, so census
grids are geometric in the gap ``2/(1+eps) - r``; linear grids
under-resolve there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .integrate import MAX_GRID_POINTS, _check_count, _validate_tol
from .kepler import (TWO_PI, ModelParams, _check_eccentricity,
                     collision_ceiling)
from .model import _check_equilibrium, coefficient_period
from .floquet import (ELLIPTIC, HYPERBOLIC, _antipode_half_traces,
                      monodromy)

# Scans never approach the collision ceiling closer than this.
CEILING_MARGIN = 1e-4

DEFAULT_SCAN_TOL = 1e-9
DEFAULT_REFINE_TOL = 1e-7

# The census starts from 2**CENSUS_START_LEVEL cells and stops once a
# nonzero count has held for CENSUS_PLATEAU_LEVELS consecutive levels.
CENSUS_START_LEVEL = 4
CENSUS_PLATEAU_LEVELS = 3

# Fraction of the collision ceiling where the census starts by default.
CENSUS_START_FRACTION = 0.95

# Largest eccentricity the origin sweep evaluates.
EPS_SCAN_CAP = 0.95


@dataclass
class TraceCurve:
    """Half-trace of the monodromy along a 1-parameter grid.

    ``param`` is ``"r"`` (eccentricity fixed) or ``"epsilon"`` (semi-major
    axis fixed).  Grid points that are not finite, ``r <= 0`` or past the
    collision guard are skipped and recorded in ``skipped``.
    """

    q_star: float
    epsilon: float | None
    param: str
    values: np.ndarray
    half_traces: np.ndarray
    period: float
    tol: float
    skipped: list


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
    refine_tol: float
    intervals: list[tuple[float, float, str]]
    transitions: list[dict]
    suspect: list

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "intervals": [{"r_lo": lo, "r_hi": hi, "class": cls}
                          for lo, hi, cls in self.intervals],
            "transitions": [{"r_bracket": list(t["r_bracket"])}
                            for t in self.transitions]}


@dataclass
class CensusResult:
    """Interchange count from a budgeted adaptive scan toward the ceiling.

    ``level_counts`` holds the count after each completed level, from
    ``CENSUS_START_LEVEL`` to ``levels_completed``; ``count`` is its last.
    """

    epsilon: float
    count: int
    evaluations: int
    budget: int
    budget_exhausted: bool
    levels_completed: int
    level_counts: list[int]
    r_range: tuple[float, float]
    intervals: StabilityIntervals
    sample_rs: list

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "sample_rs"} | {
            "r_range": list(self.r_range),
            "intervals": self.intervals.to_json_dict()}


def _half_trace(q_star: float, r: float, epsilon: float, period: float,
                tol: float) -> float:
    m = monodromy(q_star, ModelParams(r=r, epsilon=epsilon),
                  period=period, tol=tol)
    return m.half_trace


def trace_curve(q_star: float, epsilon: float, r_grid,
                tol: float = DEFAULT_SCAN_TOL) -> TraceCurve:
    """Half-trace of the monodromy at each admissible grid point.

    Deterministic for a fixed tolerance; grid points that are not finite,
    ``r <= 0`` or above ``2/(1+eps) - margin`` are skipped and recorded,
    each with its reason, rather than evaluated.  A ``q_star`` other than
    0 or pi, an eccentricity outside ``[0, 1)`` or a tolerance outside its
    window raises ``ValueError`` before any point is skipped.
    """
    _check_equilibrium(q_star)
    _check_eccentricity(epsilon)
    _validate_tol(tol)
    period = coefficient_period(epsilon)
    ceiling = collision_ceiling(epsilon)
    values, traces, skipped = [], [], []
    for r in np.asarray(r_grid, dtype=float):
        if not 0.0 < r <= ceiling - CEILING_MARGIN:
            reason = ("not finite" if not math.isfinite(r)
                      else "r <= 0" if r <= 0.0 else "collision guard")
            skipped.append((float(r), reason))
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

    Between two adjacent samples ``lo``, ``hi`` of different class,
    ``narrow(lo, hi)`` returns the bracket of that transition, and the
    interval boundary sits at the bracket's midpoint.
    """
    intervals, transitions = [], []
    seg_start = samples[0][0]
    for (r0, h0), (r1, h1) in zip(samples, samples[1:]):
        lo_elliptic = _elliptic(h0)
        if lo_elliptic != _elliptic(h1):
            lo, hi = narrow((r0, h0), (r1, h1))
            transitions.append({"r_bracket": (lo, hi)})
            boundary = 0.5 * (lo + hi)
            intervals.append((seg_start, boundary,
                              ELLIPTIC if lo_elliptic else HYPERBOLIC))
            seg_start = boundary
    r_last, h_last = samples[-1]
    intervals.append((seg_start, r_last,
                      ELLIPTIC if _elliptic(h_last) else HYPERBOLIC))
    return intervals, transitions


def _check_refine_tol(refine_tol: float) -> None:
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"refine_tol={refine_tol} must be finite and positive")


def _bisect(lo: float, hi: float, lo_side, refine_tol: float):
    """Halve ``[lo, hi]`` to width ``refine_tol``.

    ``lo_side(mid)`` says whether the midpoint replaces ``lo``.  Halving
    also stops once the float midpoint is no longer strictly inside, so a
    tolerance below the float spacing ends with a one-ulp bracket.  The
    intervals where halving stops, whatever ``lo_side`` says, tile
    ``[lo, hi]``: these leaves are the lattice that ``_narrow`` searches.
    """
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if lo_side(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _narrow(h_at, lo_end, hi_end, refine_tol: float) -> tuple[float, float]:
    """The leaf of ``_bisect`` over the cell where the class changes.

    ``lo_end`` and ``hi_end`` are the cell's ``(r, h)`` samples.  With ``s``
    the sign of ``h`` at the cell's non-elliptic end, each step
    takes the secant estimate of ``h = s`` from the last two evaluations,
    finds the leaf holding it and evaluates that leaf's end nearest it,
    so only leaf ends are evaluated.  An estimate on the end just
    evaluated takes the leaf just inside that end.  Once three evaluations
    fail to halve the bracket the estimate is its midpoint.  The search
    ends on a leaf whose ends differ in class: bisection's bracket
    whenever the class changes once in the cell.
    """
    (r_lo, h_lo), (r_hi, h_hi) = lo_end, hi_end
    lo_elliptic = _elliptic(h_lo)
    s = math.copysign(1.0, h_hi if lo_elliptic else h_lo)
    lo, hi = r_lo, r_hi
    (x0, f0), (x1, f1) = (lo, h_lo - s), (hi, h_hi - s)
    widths = [hi - lo]  # the bracket's widths since the last midpoint
    while True:
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
        if not (lo < x < hi or x == x1) or (
                len(widths) > 3 and widths[-1] > 0.5 * widths[-4]):
            x, widths = 0.5 * (lo + hi), [hi - lo]
        # x == lo takes the leaf above lo, x == hi the one below hi
        a, b = _bisect(r_lo, r_hi, lambda m: m < x or m == lo, refine_tol)
        if (a, b) == (lo, hi):
            return lo, hi
        r = a if b == hi or (a != lo and x - a <= b - x) else b
        h = h_at(r)
        x0, f0, x1, f1 = x1, f1, r, h - s
        if _elliptic(h) == lo_elliptic:
            lo = r
        else:
            hi = r
        widths.append(hi - lo)


def find_transitions(curve: TraceCurve,
                     refine_tol: float = DEFAULT_REFINE_TOL) -> StabilityIntervals:
    """Bracket and refine every crossing of ``|half_trace| = 1`` on a curve.

    The grid is tiled by ``_tile``; each class change between adjacent
    grid points is narrowed to a leaf of bisection to width ``refine_tol``
    (``_narrow``, a secant search on bisection's own floats; a cell within
    ``refine_tol`` is its own leaf) before its midpoint becomes an
    interval boundary.  A cell's ends are its grid samples and
    ``_narrow`` evaluates no radius twice, and the bracket is the
    one bisection returns whenever the class changes once in the cell.
    Interval midpoints are re-checked; mismatches are flagged in
    ``suspect`` (two crossings inside a single grid cell cannot be split
    without a finer grid).  ``refine_tol`` must be finite and positive.
    """
    _check_refine_tol(refine_tol)
    if len(curve.values) < 2:
        raise ValueError("need at least 2 grid samples to bracket transitions")
    if curve.param != "r":
        raise ValueError("transition search expects an r-scan")
    if np.any(np.diff(curve.values) <= 0.0):
        raise ValueError("transition search needs a strictly increasing r grid")

    samples = [(float(r), float(h))
               for r, h in zip(curve.values, curve.half_traces)]

    def h_at(r: float) -> float:
        return _half_trace(curve.q_star, r, curve.epsilon, curve.period,
                           curve.tol)

    intervals, transitions = _tile(
        samples, lambda *cell: _narrow(h_at, *cell, refine_tol))
    suspect = [{"r_lo": lo, "r_hi": hi,
                "reason": "midpoint class mismatch; grid too coarse"}
               for lo, hi, cls in intervals
               if _elliptic(h_at(0.5 * (lo + hi))) != (cls == ELLIPTIC)]
    return StabilityIntervals(q_star=curve.q_star, epsilon=curve.epsilon,
                              period=curve.period, intervals=intervals,
                              transitions=transitions, refine_tol=refine_tol,
                              suspect=suspect)


def _plateau_run(counts: list[int]) -> int:
    """Length of the trailing run of equal nonzero counts; 0 after a zero."""
    run = 0
    while run < len(counts) and counts[-1 - run] == counts[-1] > 0:
        run += 1
    return run


def interchange_census(epsilon: float, r_max_fraction: float, budget: int,
                       r_start_fraction: float = CENSUS_START_FRACTION,
                       tol: float = DEFAULT_SCAN_TOL) -> CensusResult:
    """Count strongly-stable intervals of the antipode toward the ceiling.

    Nested grids, geometric in the gap ``ceiling - r``, are refined level
    by level: level ``l`` holds the ``2**l + 1`` radii ``ceiling - g_hi
    (g_lo/g_hi)**(j / 2**l)``, so each level evaluates only the midpoints
    of the one before and the count is monotone in the budget.  Refinement
    stops when a level would hold more radii than the budget, counted as
    at most ``MAX_GRID_POINTS``, or when a nonzero count has held for
    ``CENSUS_PLATEAU_LEVELS`` consecutive levels; a zero count may hide
    intervals narrower than a cell, so it never stops refinement.  After
    a trailing run of ``k`` equal nonzero counts (``k = 0`` after a zero)
    the next ``CENSUS_PLATEAU_LEVELS - k`` levels are counted whatever
    they read, so those the budget pays for form one batch: the radii of
    its last level that no earlier batch solved take one lane-batched,
    half-period solve in eccentric-anomaly time
    (``floquet._antipode_half_traces``), and each level is tiled and
    counted on its stride of that grid, its own radii bit for bit (the
    fractions are dyadic).  ``level_counts`` records the count after each
    level, and ``sample_rs`` the last level's radii.
    Only elliptic intervals that are neither first nor last, i.e. flanked
    by non-elliptic samples on both sides, are counted, so a partial census
    under-counts rather than guesses.  ``ValueError`` unless the eccentricity
    is in ``[0, 1)``, ``tol`` in its window, the budget an integer >= 1
    (not a ``bool``) and the range nonempty, its end clipped at
    ``CEILING_MARGIN`` below the ceiling.
    """
    _check_eccentricity(epsilon)
    _validate_tol(tol)
    _check_count("budget", budget)
    if not 0.0 < r_max_fraction < 1.0:
        raise ValueError("r_max_fraction must be in (0, 1)")
    if not 0.0 < r_start_fraction < r_max_fraction:
        raise ValueError("r_start_fraction must be in (0, r_max_fraction)")
    ceiling = collision_ceiling(epsilon)
    r_hi = min(r_max_fraction * ceiling, ceiling - CEILING_MARGIN)
    r_lo = r_start_fraction * ceiling
    if not r_lo < r_hi:
        raise ValueError(f"r range [{r_lo}, {r_hi}] is empty once its end "
                         f"is clipped to {CEILING_MARGIN} below the ceiling")
    g_hi = ceiling - r_lo
    g_lo = ceiling - r_hi
    period = coefficient_period(epsilon)

    cap = min(budget, MAX_GRID_POINTS)  # most radii one level may hold
    counts: list[int] = []  # one per level
    samples: list[tuple[float, float]] = []  # the last level's (r, h)
    intervals, transitions = [], []
    budget_exhausted = False
    while (not budget_exhausted
           and _plateau_run(counts) < CENSUS_PLATEAU_LEVELS):
        # No plateau can hold before the next CENSUS_PLATEAU_LEVELS - run
        # levels are counted, so those that fit the budget take one solve.
        first = CENSUS_START_LEVEL + len(counts)
        levels = range(first, first + CENSUS_PLATEAU_LEVELS
                       - _plateau_run(counts))
        fit = [level for level in levels if 2 ** level + 1 <= cap]
        budget_exhausted = len(fit) < len(levels)
        if not fit:
            break
        top = fit[-1]
        rs = [ceiling - g_hi * (g_lo / g_hi) ** (j / 2 ** top)
              for j in range(2 ** top + 1)]
        stride = 2 ** (top - first + 1)  # of the radii solved before
        hs = dict(zip(range(0, len(rs), stride), (h for _, h in samples)))
        new = [j for j in range(len(rs)) if j not in hs]
        hs.update(zip(new, _antipode_half_traces(
            [rs[j] for j in new], epsilon, tol).tolist()))
        samples = [(r, hs[j]) for j, r in enumerate(rs)]
        for level in fit:
            # Census brackets stay the grid cells that hold them.
            intervals, transitions = _tile(
                samples[::2 ** (top - level)], lambda lo, hi: (lo[0], hi[0]))
            counts.append(sum(cls == ELLIPTIC
                              for _, _, cls in intervals[1:-1]))

    tiling = StabilityIntervals(
        q_star=math.pi, epsilon=epsilon, period=period, intervals=intervals,
        transitions=transitions, suspect=[],
        refine_tol=(samples[1][0] - samples[0][0]) if samples else 0.0)

    return CensusResult(epsilon=epsilon, count=counts[-1] if counts else 0,
                        intervals=tiling, evaluations=len(samples),
                        budget=int(budget), budget_exhausted=budget_exhausted,
                        levels_completed=(CENSUS_START_LEVEL + len(counts) - 1
                                          if counts else 0),
                        level_counts=counts, r_range=(r_lo, r_hi),
                        sample_rs=[r for r, _ in samples])


def eps_scan_origin(r_fixed: float, eps_grid,
                    tol: float = DEFAULT_SCAN_TOL) -> TraceCurve:
    """Half-trace of the origin monodromy versus eccentricity (period 2*pi).

    Exploratory sweep at a fixed finite ``r > 0`` and ``tol`` in its
    window (``ValueError`` otherwise); eccentricities not finite, above
    ``EPS_SCAN_CAP`` or past the collision guard are skipped and recorded.
    """
    if not 0.0 < r_fixed < math.inf:
        raise ValueError(f"r_fixed={r_fixed} must be positive and finite")
    _validate_tol(tol)
    values, traces, skipped = [], [], []
    for eps in np.asarray(eps_grid, dtype=float):
        if not 0.0 <= eps <= EPS_SCAN_CAP:
            skipped.append((float(eps), f"outside [0, {EPS_SCAN_CAP}]"
                            if math.isfinite(eps) else "not finite"))
            continue
        if r_fixed > collision_ceiling(eps) - CEILING_MARGIN:
            skipped.append((float(eps), "collision guard"))
            continue
        values.append(float(eps))
        traces.append(_half_trace(0.0, r_fixed, float(eps), TWO_PI, tol))
    return TraceCurve(q_star=0.0, epsilon=None, param="epsilon",
                      values=np.array(values), half_traces=np.array(traces),
                      period=TWO_PI, tol=tol, skipped=skipped)

