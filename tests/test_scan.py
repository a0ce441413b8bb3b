"""Trace curves, transition refinement, interchange census."""

import argparse
import bisect
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from curved_sitnikov import scan
from curved_sitnikov.cli import _write_csv, main
from curved_sitnikov.floquet import ELLIPTIC, HYPERBOLIC, Monodromy, monodromy
from curved_sitnikov.integrate import FundamentalMatrix
from curved_sitnikov.model import coefficient_period, hill_coefficient
from curved_sitnikov.kepler import ModelParams, collision_ceiling
from curved_sitnikov.scan import (TraceCurve, _half_trace, eps_scan_origin,
                                  find_transitions, interchange_census,
                                  trace_curve)

TWO_PI = 2.0 * math.pi
CFG = argparse.Namespace(cmd="test")

# First interchange of the antipodal equilibrium with circular primaries.
# Regression anchor computed from this model three independent ways
# (adaptive order-8 pair at 1e-12, fixed-step RK4 at 1e5 steps, and a
# nonlinear stability flip between r=1.23 and r=1.24).
R_FIRST_INTERCHANGE = 1.2349418


class TestTraceCurve:
    def test_origin_matches_closed_form(self):
        grid = np.linspace(0.6, 1.6, 21)
        curve = trace_curve(0.0, 0.0, grid, tol=1e-10)
        expected = np.cos(math.pi * np.sqrt(2.0 / grid**3))
        np.testing.assert_allclose(curve.half_traces, expected, atol=1e-8)
        assert curve.period == math.pi

    def test_antipode_hyperbolic_below_threshold(self):
        grid = np.linspace(0.1, 1.059, 12)
        curve = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        assert np.all(np.abs(curve.half_traces) > 1.0)

    def test_collision_guard_skips_and_records(self):
        grid = np.array([1.5, 1.9, 1.99995, 2.05])
        curve = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        assert list(curve.values) == [1.5, 1.9]
        assert len(curve.skipped) == 2

    def test_nonpositive_r_skipped_as_such(self):
        curve = trace_curve(math.pi, 0.0, [-1.0, 0.0, 1.0, 1.99995])
        assert [reason for _, reason in curve.skipped] == [
            "r <= 0", "r <= 0", "collision guard"]

    def test_non_finite_r_skipped_as_such(self):
        # a NaN radius fails every comparison, so it once read as a
        # collision-guard skip
        curve = trace_curve(math.pi, 0.0, [math.nan, 1.0, math.inf, -math.inf])
        assert list(curve.values) == [1.0]
        assert [reason for _, reason in curve.skipped] == ["not finite"] * 3

    def test_non_finite_eps_skipped_as_such(self):
        # the origin sweep's cap test once read NaN and +-inf as "outside
        # [0, 0.95]"
        curve = eps_scan_origin(1.0, [math.nan, 0.0, math.inf, -math.inf])
        assert list(curve.values) == [0.0]
        assert curve.skipped[1:] == [(math.inf, "not finite"),
                                     (-math.inf, "not finite")]
        assert math.isnan(curve.skipped[0][0])
        assert curve.skipped[0][1] == "not finite"

    @pytest.mark.parametrize("sweep", [
        lambda tol: trace_curve(math.pi, 0.0, [5.0, 5.5, 6.0], tol=tol),
        lambda tol: eps_scan_origin(5.0, [0.0, 0.1], tol=tol),
        lambda tol: interchange_census(0.0, 0.999, budget=16, tol=tol),
    ], ids=["trace_curve", "eps_scan_origin", "interchange_census"])
    @pytest.mark.parametrize("tol", [1.0, 1e-14, math.nan])
    def test_tolerance_checked_before_any_point(self, monkeypatch, sweep,
                                                tol):
        # every point of these sweeps is skipped or over budget, so no
        # solve ever saw the tolerance
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated a point")

        monkeypatch.setattr(scan, "_half_trace", refuse)
        monkeypatch.setattr(scan, "_antipode_half_traces", refuse)
        with pytest.raises(ValueError, match=f"tol={tol} outside"):
            sweep(tol)

    @pytest.mark.parametrize("eps", [1.5, 1.0, -0.5, -1.0, math.nan])
    def test_eccentricity_outside_unit_interval_rejected(self, monkeypatch,
                                                         eps):
        # raised with ModelParams' message before any radius is skipped
        def refuse(*args):
            raise AssertionError("evaluated a radius")

        monkeypatch.setattr(scan, "_half_trace", refuse)
        with pytest.raises(ValueError) as err:
            trace_curve(math.pi, eps, [1.05, 1.1])
        with pytest.raises(ValueError) as want:
            ModelParams(r=0.5, epsilon=eps)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("q_star", [1.0, -math.pi, math.nan])
    def test_non_equilibrium_rejected_before_any_point(self, monkeypatch,
                                                       q_star):
        # r = 5 is past the guard: the point is skipped, so no coefficient
        # was ever built to check q_star
        def refuse(*args):
            raise AssertionError("evaluated a radius")

        monkeypatch.setattr(scan, "_half_trace", refuse)
        with pytest.raises(ValueError, match="is not an equilibrium"):
            trace_curve(q_star, 0.0, [5.0])

    def test_deterministic(self):
        grid = np.linspace(1.0, 1.3, 7)
        a = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        b = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        assert np.array_equal(a.half_traces, b.half_traces)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(["scan", "--qstar", "0", "--r", "0.8:1.2:0.1",
                     "--out-csv", str(path),
                     "--out-json", str(tmp_path / "intervals.json")]) == 0
        lines = path.read_text().splitlines()
        assert json.loads(lines[0][2:])["command"] == "scan"
        assert lines[1] == "r,half_trace"
        assert len(lines) == 7

    def test_csv_exact_text(self, tmp_path, capsys):
        rows = [(1.25, -1.0000001), (1.5, 2.0 / 3.0)]
        text = ('# {"cmd": "test"}\n'
                "r,half_trace\n"
                "1.25,-1.0000001000000001\n"
                "1.5,0.66666666666666663\n")
        path = tmp_path / "trace.csv"
        _write_csv(str(path), ("r", "half_trace"), rows, CFG)
        assert path.read_bytes() == text.encode()
        _write_csv(None, ("r", "half_trace"), rows, CFG)
        assert capsys.readouterr().out == text


@pytest.fixture(scope="module")
def intervals():
    grid = np.arange(1.2, 1.27 + 1e-12, 0.005)
    curve = trace_curve(math.pi, 0.0, grid, tol=1e-9)
    return find_transitions(curve, refine_tol=1e-7)


class TestFindTransitions:
    def test_unique_transition_near_anchor(self, intervals):
        assert len(intervals.transitions) == 1
        lo, hi = intervals.transitions[0]["r_bracket"]
        assert hi - lo <= 1e-7
        assert 0.5 * (lo + hi) == pytest.approx(R_FIRST_INTERCHANGE,
                                                abs=1e-6)

    def test_tiling_alternates_and_covers(self, intervals):
        ivs = intervals.intervals
        assert ivs[0][0] == pytest.approx(1.2)
        assert ivs[-1][1] == pytest.approx(1.27)
        for (_, hi_a, cls_a), (lo_b, _, cls_b) in zip(ivs, ivs[1:]):
            assert hi_a == lo_b
            assert cls_a != cls_b
        assert [cls for _, _, cls in ivs] == [HYPERBOLIC, ELLIPTIC]

    def test_midpoint_consistency(self, intervals):
        assert intervals.suspect == []

    def test_refinement_consistency(self):
        grid = np.arange(1.2, 1.27 + 1e-12, 0.01)
        curve = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        coarse = find_transitions(curve, refine_tol=1e-5)
        fine = find_transitions(curve, refine_tol=5e-6)
        assert len(coarse.transitions) == len(fine.transitions)
        for c, f in zip(coarse.transitions, fine.transitions):
            c_lo, c_hi = c["r_bracket"]
            f_lo, f_hi = f["r_bracket"]
            assert f_hi - f_lo <= c_hi - c_lo
            assert c_lo - 1e-5 <= f_lo and f_hi <= c_hi + 1e-5

    def test_unit_half_trace_sample_is_not_elliptic(self):
        # A sample with |h| = 1 exactly is not elliptic, so it gets an
        # interval of its own between the two elliptic ones.
        curve = TraceCurve(q_star=math.pi, epsilon=0.0, param="r",
                           values=np.array([1.30, 1.31, 1.32]),
                           half_traces=np.array([0.5, 1.0, 0.5]),
                           period=math.pi, tol=1e-9, skipped=[])
        ivs = find_transitions(curve, refine_tol=0.02).intervals
        assert [cls for _, _, cls in ivs] == [ELLIPTIC, HYPERBOLIC, ELLIPTIC]
        for (_, hi_a, cls_a), (lo_b, _, cls_b) in zip(ivs, ivs[1:]):
            assert hi_a == lo_b
            assert cls_a != cls_b

    def test_needs_an_r_scan(self):
        with pytest.raises(ValueError, match="expects an r-scan"):
            find_transitions(eps_scan_origin(1.0, [0.0, 0.1]))

    def test_needs_two_samples(self):
        curve = trace_curve(math.pi, 0.0, np.array([1.0]), tol=1e-9)
        with pytest.raises(ValueError):
            find_transitions(curve)

    def test_rejects_grid_not_strictly_increasing(self):
        descending = trace_curve(math.pi, 0.0, [1.27, 1.25, 1.23, 1.21],
                                 tol=1e-9)
        repeated = TraceCurve(q_star=math.pi, epsilon=0.0, param="r",
                              values=np.array([1.30, 1.30, 1.32]),
                              half_traces=np.array([0.5, 2.0, 0.5]),
                              period=math.pi, tol=1e-9, skipped=[])
        for curve in (descending, repeated):
            with pytest.raises(ValueError):
                find_transitions(curve, refine_tol=1e-7)

    def test_json_schema(self, intervals):
        record = intervals.to_json_dict()
        assert {"intervals", "transitions", "refine_tol"} <= set(record)
        assert all(set(iv) == {"r_lo", "r_hi", "class"}
                   for iv in record["intervals"])
        assert all(set(t) == {"r_bracket"} for t in record["transitions"])


def _plain_bisection(curve, refine_tol):
    """The transition brackets of bisection on fresh half-traces."""
    brackets = []
    pairs = list(zip(curve.values.tolist(), curve.half_traces.tolist()))
    for (lo, h_lo), (hi, h_hi) in zip(pairs, pairs[1:]):
        lo_elliptic = abs(h_lo) < 1.0
        if lo_elliptic == (abs(h_hi) < 1.0):
            continue
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # a one-ulp bracket
                break
            h = _half_trace(curve.q_star, mid, curve.epsilon, curve.period,
                            curve.tol)
            if (abs(h) < 1.0) == lo_elliptic:
                lo = mid
            else:
                hi = mid
        brackets.append((lo, hi))
    return brackets


def _brackets(tiling):
    return [tuple(t["r_bracket"]) for t in tiling.transitions]


@pytest.fixture(scope="module")
def eccentric_scans():
    """Per eps: the curve, its tiling, and the radii of the fresh
    monodromies it made."""
    grid = np.arange(1.05, 1.4 + 1e-12, 0.005)
    scans = {}
    for eps in (0.1, 0.2):
        curve = trace_curve(math.pi, eps, grid, tol=1e-9)
        radii = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan, "monodromy", lambda *a, **k:
                       radii.append(a[1].r) or monodromy(*a, **k))
            tiling = find_transitions(curve, refine_tol=1e-10)
        scans[eps] = curve, tiling, radii
    return scans


def _fake_monodromy(half_trace):
    """A ``monodromy`` stand-in with det 1 and half-trace ``half_trace(r)``."""
    def fake(q_star, params, period, tol):
        h = half_trace(params.r)
        return Monodromy(matrix=FundamentalMatrix(x1=h, x2=1.0,
                                                  y1=h * h - 1.0, y2=h,
                                                  n_rhs=0),
                         period=period)
    return fake


# Half-traces over the cell [1.0, 1.1] that a root search finds hard.
ADVERSARIAL_CELLS = {
    "step": lambda r: 0.5 if r < 1.0377 else 1.5,
    "flat-crossing": lambda r: 1.0 + 1e4 * (r - 1.0421) ** 3,
    "steep-tanh": lambda r: 1.0 + math.tanh(1e4 * (r - 1.0333)),
    "sqrt-edge": lambda r: 1.0 - math.sqrt(max(1.0529 - r, 0.0)),
    "many-crossings": lambda r: 1.0 + 0.5 * math.sin(2000.0 * (r - 1.0)),
}


class TestLatticeSearch:
    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_brackets_equal_plain_bisection(self, eccentric_scans, eps):
        curve, tiling, _ = eccentric_scans[eps]
        assert tiling.transitions
        assert _brackets(tiling) == _plain_bisection(curve, 1e-10)

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_fresh_evaluations_bounded(self, eccentric_scans, eps):
        # bisection to 1e-10 over a 0.005 cell takes 26 per bracket
        _, tiling, radii = eccentric_scans[eps]
        assert len(radii) <= (5 * len(tiling.transitions)
                              + len(tiling.intervals))

    @pytest.mark.parametrize("eps", [0.1, 0.2])
    def test_refinement_evaluates_only_bisections_midpoints(
            self, eccentric_scans, eps):
        # replaying bisection from the grid cell toward r visits r, unless
        # r is the midpoint check of an interval
        curve, tiling, radii = eccentric_scans[eps]
        grid = curve.values.tolist()
        off_lattice = set()
        for r in radii:
            k = bisect.bisect(grid, r)
            visited = []
            scan._bisect(grid[k - 1], grid[k],
                         lambda mid: visited.append(mid) or mid < r, 1e-10)
            if r not in visited:
                off_lattice.add(r)
        assert off_lattice <= {0.5 * (lo + hi) for lo, hi, _ in tiling.intervals}
        assert len(off_lattice) < len(radii)

    @pytest.mark.parametrize("refine_tol", [1e-7, 1e-10, 5e-324])
    @pytest.mark.parametrize("case", list(ADVERSARIAL_CELLS))
    def test_adversarial_cell_takes_bisections_bracket_in_bounded_work(
            self, monkeypatch, case, refine_tol):
        calls = []
        fake = _fake_monodromy(ADVERSARIAL_CELLS[case])
        monkeypatch.setattr(scan, "monodromy",
                            lambda *a, **k: calls.append(a) or fake(*a, **k))
        curve = trace_curve(math.pi, 0.0, [1.0, 1.1], tol=1e-9)
        calls.clear()
        got = _brackets(find_transitions(curve, refine_tol))
        fresh = len(calls)
        calls.clear()
        assert got == _plain_bisection(curve, refine_tol)
        # the 2 are the midpoint checks of the two intervals
        assert fresh <= 4 * len(calls) + 2

    def test_zero_width_notch_as_plain_bisection(self, monkeypatch):
        # h crosses 1 once, at r = 1 + 1/30; a notch of zero width at the
        # bracket's upper end makes that end elliptic, so the class
        # changes one leaf higher
        def smooth(r):
            return 30.0 * (r - 1.0)

        monkeypatch.setattr(scan, "monodromy", _fake_monodromy(smooth))
        curve = trace_curve(math.pi, 0.0, [1.0, 1.1], tol=1e-9)
        (lo, hi), = _brackets(find_transitions(curve, 1e-7))
        assert lo < 1.0 + 1.0 / 30.0 < hi

        monkeypatch.setattr(scan, "monodromy", _fake_monodromy(
            lambda r: 0.0 if r == hi else smooth(r)))
        got = _brackets(find_transitions(curve, 1e-7))
        assert got == _plain_bisection(curve, 1e-7)
        assert got != [(lo, hi)]

    def test_narrow_cell_is_its_own_bracket(self, monkeypatch):
        # the 1.23-1.235 cell is already within refine_tol, so the only
        # refinement monodromies are the midpoint checks of the two
        # intervals
        curve = trace_curve(math.pi, 0.0, [1.2 + 0.005 * k for k in range(15)])
        calls = []
        monkeypatch.setattr(scan, "monodromy",
                            lambda *a, **k: calls.append(a) or monodromy(*a, **k))
        tiling = find_transitions(curve, refine_tol=0.005)
        assert _brackets(tiling) == [(curve.values[6], curve.values[7])]
        assert len(calls) == len(tiling.intervals) == 2


# Half-traces h(r) over a cell (r_lo, r_hi) whose class changes once, at
# both signs of |h| = 1 and from either end.
NARROW_CELLS = {
    "cubic": (lambda r: 1.0 + 0.1 * (r ** 3 - 2.0 * r - 5.0), 2.0, 3.0),
    "cos": (lambda r: math.cos(r) - r - 1.0, 0.0, 1.0),
    "step": (lambda r: -1.5 if r < 0.3 else -0.5, 0.0, 1.0),
    "tanh": (lambda r: 1.0 - math.tanh(50.0 * (r - 0.123)), -1.0, 2.0),
    "triple-root": (lambda r: 1.0 + (r - 0.5) ** 3, 0.0, 1.7),
    # h - 1 moves by whole ulps of 1.0, so the secant often sees no slope
    "ulp-flat": (lambda r: 1.0 + 1e-13 * (r - 0.3), 0.0, 1.0),
}


def _narrowed(h, r_lo, r_hi, refine_tol):
    """``scan._narrow`` on ``h`` over the cell's ``(r, h)`` samples, as
    ``find_transitions`` hands it: its bracket and the radii it
    evaluated."""
    fresh = []

    def h_at(r):
        fresh.append(r)
        return h(r)

    return scan._narrow(h_at, (r_lo, h(r_lo)), (r_hi, h(r_hi)),
                        refine_tol), fresh


class TestNarrow:
    """``scan._narrow`` on its own, against ``scan._bisect``."""

    @pytest.mark.parametrize("refine_tol", [1e-12, 1e-3, 5e-324])
    @pytest.mark.parametrize("case", list(NARROW_CELLS))
    def test_leaf_as_bisections_from_lattice_radii(self, case, refine_tol):
        h, r_lo, r_hi = NARROW_CELLS[case]
        lo_elliptic = scan._elliptic(h(r_lo))
        assert lo_elliptic != scan._elliptic(h(r_hi))
        bisected = []
        want = scan._bisect(
            r_lo, r_hi, lambda mid: bisected.append(mid)
            or scan._elliptic(h(mid)) == lo_elliptic, refine_tol)
        got, fresh = _narrowed(h, r_lo, r_hi, refine_tol)
        assert got == want
        assert len(fresh) == len(set(fresh))
        for r in fresh:
            visited = []
            scan._bisect(r_lo, r_hi,
                         lambda mid: visited.append(mid) or mid < r,
                         refine_tol)
            assert r in visited
        assert len(fresh) <= 4 * len(bisected) + 1

    @pytest.mark.parametrize("end", [0.25, 0.75])
    def test_crossing_on_a_leaf_end_is_the_brackets_end(self, end):
        # h = 1 exactly at a midpoint of the recursion: that radius is
        # hyperbolic, so it is the bracket's upper end.  The secant of a
        # line hits it at once, and every later estimate is that end again;
        # the leaf just below it closes the bracket in one more evaluation
        def h(r):
            return 1.0 + (r - end)

        bisected = []
        want = scan._bisect(
            0.0, 1.0, lambda mid: bisected.append(mid)
            or scan._elliptic(h(mid)), 1e-12)
        (lo, hi), fresh = _narrowed(h, 0.0, 1.0, 1e-12)
        assert (lo, hi) == want
        assert hi == end
        assert fresh[0] == end
        assert len(fresh) <= 3 < len(bisected)  # bisection takes 40


def _census_level_by_level(epsilon, r_max_fraction, budget,
                           r_start_fraction, tol):
    """The census with one lane solve per level: the batched census must
    return exactly this."""
    ceiling = collision_ceiling(epsilon)
    r_hi = min(r_max_fraction * ceiling, ceiling - scan.CEILING_MARGIN)
    r_lo = r_start_fraction * ceiling
    g_hi, g_lo = ceiling - r_lo, ceiling - r_hi
    counts, samples, intervals, transitions = [], [], [], []
    exhausted, completed = False, 0
    level = scan.CENSUS_START_LEVEL
    fracs = [j / 2 ** level for j in range(2 ** level + 1)]
    while True:
        if len(samples) + len(fracs) > budget:
            exhausted = True
            break
        rs = [ceiling - g_hi * (g_lo / g_hi) ** frac for frac in fracs]
        hs = scan._antipode_half_traces(rs, epsilon, tol).tolist()
        samples = sorted(samples + list(zip(rs, hs)))
        intervals, transitions = scan._tile(
            samples, lambda lo, hi: (lo[0], hi[0]))
        counts.append(sum(cls == ELLIPTIC for _, _, cls in intervals[1:-1]))
        completed = level
        if counts[-1] > 0 and counts[-3:] == [counts[-1]] * 3:
            break
        level += 1
        fracs = [j / 2 ** level for j in range(1, 2 ** level, 2)]
    tiling = scan.StabilityIntervals(
        q_star=math.pi, epsilon=epsilon,
        period=coefficient_period(epsilon), intervals=intervals,
        transitions=transitions,
        refine_tol=samples[1][0] - samples[0][0] if len(samples) > 1 else 0.0,
        suspect=[])
    return scan.CensusResult(
        epsilon=epsilon, count=counts[-1] if counts else 0, intervals=tiling,
        evaluations=len(samples), budget=budget, budget_exhausted=exhausted,
        levels_completed=completed, level_counts=counts, r_range=(r_lo, r_hi),
        sample_rs=[r for r, _ in samples])


class TestCensus:
    def test_counts_alternations_near_ceiling(self):
        result = interchange_census(0.0, 0.99975, budget=300,
                                    r_start_fraction=0.95, tol=1e-9)
        assert result.count >= 3
        assert result.budget_exhausted
        assert result.evaluations <= 300
        assert result.evaluations == len(result.sample_rs)
        assert result.r_range == pytest.approx((1.9, 1.9995))
        flags = [cls == ELLIPTIC for _, _, cls in result.intervals.intervals]
        assert result.count == sum(flags[1:-1])

    def test_monotone_in_budget(self):
        small = interchange_census(0.0, 0.99975, budget=150,
                                   r_start_fraction=0.95, tol=1e-9)
        large = interchange_census(0.0, 0.99975, budget=300,
                                   r_start_fraction=0.95, tol=1e-9)
        assert large.count >= small.count

    def test_all_hyperbolic_below_half_ceiling(self):
        result = interchange_census(0.0, 0.5, budget=200,
                                    r_start_fraction=0.25, tol=1e-9)
        assert result.count == 0
        assert result.budget_exhausted
        assert all(cls == HYPERBOLIC
                   for _, _, cls in result.intervals.intervals)

    def test_eccentric_binary_still_interchanges(self):
        result = interchange_census(0.1, 0.99975, budget=150,
                                    r_start_fraction=0.985, tol=1e-8)
        assert result.count >= 1
        ceiling = 2.0 / 1.1
        assert result.r_range[1] <= ceiling

    def test_zero_count_never_ends_refinement(self):
        # levels 4-6 all read 0 here: the elliptic runs are narrower than
        # those cells, and only finer levels resolve them
        result = interchange_census(0.1, 0.999, budget=2000,
                                    r_start_fraction=0.95)
        assert result.count > 0

    def test_cli_json_equals_scalar_tiling(self, monkeypatch, capsys):
        argv = ["census", "--ceiling-fraction", "0.99", "--start-fraction",
                "0.9", "--budget", "80"]
        assert main(argv) == 0
        batched = capsys.readouterr().out

        def scalar(rs, epsilon, tol):
            period = coefficient_period(epsilon)
            return np.array([_half_trace(math.pi, r, epsilon, period, tol)
                             for r in rs])

        monkeypatch.setattr(scan, "_antipode_half_traces", scalar)
        assert main(argv) == 0
        assert capsys.readouterr().out == batched
        assert json.loads(batched)["evaluations"] == 65
        assert json.loads(batched)["level_counts"] == [2, 3, 4]

    def test_plateau_stops_refinement(self):
        # the count holds at 16 over levels 9-11, so the census stops there
        # with most of its budget left
        result = interchange_census(0.0, 0.999, budget=100_000,
                                    r_start_fraction=0.95)
        assert result.count == 16
        assert result.evaluations == 2 ** 11 + 1
        assert result.levels_completed == 11
        assert not result.budget_exhausted

    @pytest.mark.parametrize("r_max_fraction, sizes, counts", [
        (0.999, [65, 192, 768, 1024], [2, 4, 7, 12, 14, 16, 16, 16]),
        (0.99975, [65, 192, 768, 3072], [1, 2, 4, 9, 17, 28, 34, 34, 34]),
    ], ids=["bench-ceiling", "verify"])
    def test_levels_the_plateau_needs_take_one_solve(
            self, monkeypatch, r_max_fraction, sizes, counts):
        # the plateau needs 3 equal nonzero counts, so after a trailing run
        # of k of them the next 3 - k levels are counted whatever they read
        solve, seen = scan._antipode_half_traces, []

        def spy(rs, epsilon, tol):
            seen.append(len(rs))
            return solve(rs, epsilon, tol)

        monkeypatch.setattr(scan, "_antipode_half_traces", spy)
        result = interchange_census(0.0, r_max_fraction, budget=100_000,
                                    r_start_fraction=0.95)
        assert seen == sizes
        assert result.level_counts == counts
        assert result.to_json_dict()["level_counts"] == counts
        assert result.levels_completed == 3 + len(counts)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("budget", [1, 17, 40, 64, 65, 300, 100_000])
    def test_batches_equal_one_solve_per_level(self, budget, eps):
        # 40 and 64 run out inside the first batch (17 + 16 fit, 32 not);
        # at eps 0.1 the first five levels all count 0
        args = (eps, 0.999, budget, 0.95, 1e-9)
        assert interchange_census(*args) == _census_level_by_level(*args)

    def test_levels_stop_below_the_grid_cap(self, monkeypatch):
        # the budget counts as at most MAX_GRID_POINTS radii: level 6's
        # 65 fit under 100, level 7's 129 do not
        solve, seen = scan._antipode_half_traces, []

        def spy(rs, epsilon, tol):
            seen.append(len(rs))
            return solve(rs, epsilon, tol)

        monkeypatch.setattr(scan, "MAX_GRID_POINTS", 100)
        monkeypatch.setattr(scan, "_antipode_half_traces", spy)
        result = interchange_census(0.0, 0.999, budget=100_000,
                                    r_start_fraction=0.95)
        assert seen == [65]
        assert (result.evaluations, result.levels_completed) == (65, 6)
        assert result.budget_exhausted
        assert result.budget == 100_000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            interchange_census(0.0, 1.2, budget=10)
        with pytest.raises(ValueError):
            interchange_census(0.0, 0.9, budget=10, r_start_fraction=0.95)

    @pytest.mark.parametrize("kwargs, message", [
        # 0.99999 of the ceiling is clipped to 2 - 1e-4 = 1.9999, below the
        # start 1.99992; the range was scanned inverted, past the margin
        ({"r_max_fraction": 0.99999, "r_start_fraction": 0.99996},
         r"r range \[1.99992, 1.9999\] is empty"),
        ({"budget": 0}, "budget=0 must be at least 1"),
        ({"budget": -5}, "budget=-5 must be at least 1"),
        # a budget is a count: it came back as 40.7, and inf as the JSON
        # token Infinity, which no JSON parser reads
        ({"budget": 40.7}, "budget=40.7 must be at least 1 and an integer"),
        ({"budget": math.inf}, "budget=inf must be at least 1 and an integer"),
        ({"budget": True}, "budget=True must be at least 1 and an integer"),
        ({"epsilon": 1.0}, r"epsilon=1.0 outside \[0, 1\)"),
        ({"epsilon": -1.0}, r"epsilon=-1.0 outside \[0, 1\)"),
    ], ids=["range-past-margin", "zero-budget", "negative-budget",
            "fractional-budget", "infinite-budget", "bool-budget",
            "eps-one", "eps-minus-one"])
    def test_rejected_before_any_evaluation(self, monkeypatch, kwargs,
                                            message):
        def refuse(*args):
            raise AssertionError("evaluated a radius")

        monkeypatch.setattr(scan, "_antipode_half_traces", refuse)
        args = {"epsilon": 0.0, "r_max_fraction": 0.999, "budget": 40,
                "r_start_fraction": 0.95, **kwargs}
        with pytest.raises(ValueError, match=message):
            interchange_census(**args)

    def test_json_keys_are_the_fields_in_order(self):
        # the artifact's keys, pinned, are the record's fields in order,
        # sample_rs left out, so a new field reaches the JSON by itself
        result = interchange_census(0.0, 0.999, budget=40)
        record = result.to_json_dict()
        assert list(record) == [
            "epsilon", "count", "evaluations", "budget", "budget_exhausted",
            "levels_completed", "level_counts", "r_range", "intervals"]
        assert list(record) == [f.name for f in fields(scan.CensusResult)
                                if f.name != "sample_rs"]
        assert list(record["intervals"]) == [
            "q_star", "epsilon", "period", "refine_tol", "intervals",
            "transitions", "suspect"]
        assert list(record["intervals"]) == [
            f.name for f in fields(scan.StabilityIntervals)]

    def test_numpy_budget_writes_plain_json(self):
        # a numpy integer is a count too, but json.dumps refused it
        result = interchange_census(0.0, 0.999, budget=np.int64(16))
        assert json.loads(json.dumps(result.to_json_dict()))["budget"] == 16

    @pytest.mark.parametrize("budget", [1, 16])
    def test_budget_below_first_level_is_reported(self, budget):
        # the first level takes 17 radii, so nothing is evaluated
        result = interchange_census(0.0, 0.999, budget=budget)
        assert result.budget_exhausted
        assert (result.count, result.evaluations) == (0, 0)


class TestEpsScan:
    def test_circular_endpoint_closed_form(self):
        curve = eps_scan_origin(1.0, np.array([0.0]), tol=1e-10)
        expected = math.cos(TWO_PI * math.sqrt(2.0))
        assert curve.half_traces[0] == pytest.approx(expected, abs=1e-8)
        assert curve.period == TWO_PI

    def test_growth_stays_below_gronwall_envelope(self):
        curve = eps_scan_origin(1.0, np.array([0.1]), tol=1e-9)
        a = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.1))
        ts = np.linspace(0.0, TWO_PI, 2001)
        envelope = math.exp(np.trapezoid(np.maximum(1.0, [abs(a(float(t)))
                                                          for t in ts]), ts))
        assert abs(curve.half_traces[0]) <= envelope

    def test_cap_and_guard_release_notes(self):
        curve = eps_scan_origin(1.9, np.array([0.0, 0.2, 0.97]), tol=1e-9)
        # eps=0.2 violates the collision guard at r=1.9; 0.97 exceeds the cap
        assert list(curve.values) == [0.0]
        assert [eps for eps, _ in curve.skipped] == [0.2, 0.97]

    def test_nonpositive_r_rejected(self):
        # an infinite radius is a bad input too, not a sweep whose every
        # point is skipped by the collision guard
        for r in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r_fixed"):
                eps_scan_origin(r, [0.0, 0.1, 0.97])

    def test_deterministic_csv(self, tmp_path):
        path = tmp_path / "origin.csv"
        argv = ["eps-scan", "--r", "1.0", "--eps-grid", "0:0.2:0.1",
                "--out", str(path)]
        assert main(argv) == 0
        first = path.read_bytes()
        assert main(argv) == 0
        assert path.read_bytes() == first
        assert path.read_text().splitlines()[1] == "epsilon,half_trace"
