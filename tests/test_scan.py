"""Trace curves, transition refinement, interchange census."""

import io
import math

import numpy as np
import pytest

from curved_sitnikov.floquet import ELLIPTIC, HYPERBOLIC
from curved_sitnikov.model import hill_coefficient
from curved_sitnikov.kepler import ModelParams
from curved_sitnikov.scan import (TraceCurve, eps_scan_origin,
                                  find_transitions, interchange_census,
                                  trace_curve)

TWO_PI = 2.0 * math.pi

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

    def test_deterministic(self):
        grid = np.linspace(1.0, 1.3, 7)
        a = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        b = trace_curve(math.pi, 0.0, grid, tol=1e-9)
        assert np.array_equal(a.half_traces, b.half_traces)

    def test_csv_export(self, tmp_path):
        curve = trace_curve(0.0, 0.0, np.linspace(0.8, 1.2, 5), tol=1e-9)
        path = tmp_path / "trace.csv"
        curve.to_csv(path, header_comment="cfg")
        lines = path.read_text().splitlines()
        assert lines[0] == "# cfg"
        assert lines[1] == "r,half_trace"
        assert len(lines) == 7

    def test_csv_exact_text(self, tmp_path):
        curve = TraceCurve(q_star=math.pi, epsilon=0.0, param="r",
                           values=np.array([1.25, 1.5]),
                           half_traces=np.array([-1.0000001, 2.0 / 3.0]),
                           period=math.pi, tol=1e-9)
        body = ("r,half_trace\n"
                "1.25,-1.0000001000000001\n"
                "1.5,0.66666666666666663\n")
        path = tmp_path / "trace.csv"
        curve.to_csv(path, header_comment="cfg")
        assert path.read_bytes() == ("# cfg\n" + body).encode()
        buf = io.StringIO()
        curve.to_csv(buf)
        assert buf.getvalue() == body


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
                           period=math.pi, tol=1e-9)
        ivs = find_transitions(curve, refine_tol=0.02).intervals
        assert [cls for _, _, cls in ivs] == [ELLIPTIC, HYPERBOLIC, ELLIPTIC]
        for (_, hi_a, cls_a), (lo_b, _, cls_b) in zip(ivs, ivs[1:]):
            assert hi_a == lo_b
            assert cls_a != cls_b

    def test_needs_two_samples(self):
        curve = trace_curve(math.pi, 0.0, np.array([1.0]), tol=1e-9)
        with pytest.raises(ValueError):
            find_transitions(curve)

    def test_json_schema(self, intervals):
        record = intervals.to_json_dict()
        assert {"intervals", "transitions", "refine_tol"} <= set(record)
        assert all(set(iv) == {"r_lo", "r_hi", "class"}
                   for iv in record["intervals"])
        assert all(set(t) == {"r_bracket"} for t in record["transitions"])


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
        assert all(cls == HYPERBOLIC
                   for _, _, cls in result.intervals.intervals)

    def test_eccentric_binary_still_interchanges(self):
        result = interchange_census(0.1, 0.99975, budget=150,
                                    r_start_fraction=0.985, tol=1e-8)
        assert result.count >= 1
        ceiling = 2.0 / 1.1
        assert result.r_range[1] <= ceiling

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            interchange_census(0.0, 1.2, budget=10)
        with pytest.raises(ValueError):
            interchange_census(0.0, 0.9, budget=10, r_start_fraction=0.95)


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
        assert len(curve.skipped) == 2
        assert curve.notes and "kepler_max_iterations" in curve.notes[0]

    def test_deterministic_csv(self, tmp_path):
        grid = np.array([0.0, 0.1, 0.2])
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        eps_scan_origin(1.0, grid, tol=1e-9).to_csv(a_path)
        eps_scan_origin(1.0, grid, tol=1e-9).to_csv(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        assert a_path.read_text().splitlines()[0] == "epsilon,half_trace"
