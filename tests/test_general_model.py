"""Curve-pair potential machinery behind the interchange mechanism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from curved_sitnikov.kepler import ModelParams
from curved_sitnikov.model import CollisionError, hill_coefficient
from curved_sitnikov.general_model import (bound_report, d2U_ds2, d2U_ds2_fd,
                                           estimate_bounds, line_pair,
                                           load_curve_pair, min_distance,
                                           pair_potential,
                                           sitnikov_hill_coefficient,
                                           sitnikov_pair)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def near18():
    return sitnikov_pair(ModelParams(r=1.8, epsilon=0.0))


class TestPairPotential:
    def test_line_fixture(self):
        pair = line_pair()
        for d in (0.1, 0.5):
            assert pair_potential(0.0, 0.3, d, pair) == pytest.approx(-1.0 / d)

    def test_closest_approach_value(self, near18):
        assert pair_potential(0.0, 0.0, near18.default_lam,
                              near18) == pytest.approx(-5.0, abs=1e-12)

    def test_even_in_arc_length_for_symmetric_pair(self):
        pair = line_pair()
        for s in (0.1, 0.4, 0.8):
            assert pair_potential(s, 0.0, 0.2, pair) == pair_potential(
                -s, 0.0, 0.2, pair)

    def test_collision_guard(self):
        pair = line_pair()
        for guarded in (lambda: pair_potential(0.0, 0.0, 1e-12, pair),
                        lambda: d2U_ds2(0.0, 1e-12, pair),
                        lambda: min_distance(1e-12, pair)):
            with pytest.raises(CollisionError) as err:
                guarded()
            assert err.value.primary == 1
            assert err.value.distance == pytest.approx(1e-12)


class TestCurvature:
    def test_line_closed_form(self):
        pair = line_pair()
        for d in (0.1, 0.05, 0.01):
            assert d2U_ds2(0.7, d, pair) == pytest.approx(1.0 / d**3,
                                                          rel=1e-12)

    def test_matches_finite_differences(self, near18):
        pairs = [(line_pair(), [(t, lam) for lam in (0.1, 0.05)
                                for t in (-0.2, 0.0, 0.2)]),
                 (near18, [(t, lam) for lam in (0.2, 0.1)
                           for t in (-0.01, 0.0, 0.01)])]
        for pair, samples in pairs:
            for t, lam in samples:
                dot = d2U_ds2(t, lam, pair)
                fd = d2U_ds2_fd(t, lam, pair)
                assert dot == pytest.approx(fd, rel=1e-6)


class TestMinDistance:
    def test_line_fixture(self):
        # the gap does not depend on t, so every t ties with the origin
        assert min_distance(0.05, line_pair()) == pytest.approx(0.05,
                                                                 abs=1e-10)

    def test_gap_matches_apocenter_geometry(self):
        for r, expected in ((1.8, 0.2), (1.9, 0.1)):
            pair = sitnikov_pair(ModelParams(r=r, epsilon=0.0))
            assert min_distance(pair.default_lam, pair) == pytest.approx(
                expected, abs=1e-9)

    def test_eccentric_gap(self):
        params = ModelParams(r=1.5, epsilon=0.25)
        pair = sitnikov_pair(params)
        assert min_distance(pair.default_lam, pair) == pytest.approx(
            2.0 - 1.5 * 1.25, abs=1e-9)

    @staticmethod
    def _line_moved_to(s_offset):
        # the line fixture with its fixed point moved along the line
        return replace(line_pair(), y=lambda t, lam: np.array(
            [[s_offset, lam, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_boundary_minimum_rejected(self):
        # the closest approach at s = 2 lies past the s window
        with pytest.raises(ValueError, match="not stationary"):
            min_distance(0.1, self._line_moved_to(2.0))

    def test_offset_minimum_rejected(self):
        with pytest.raises(ValueError, match="not stationary"):
            min_distance(0.1, self._line_moved_to(0.5))

    def test_far_primary_pair_rejected(self):
        # stationary at t = 0, but its closest approach is at half period
        far = sitnikov_pair(ModelParams(r=1.8, epsilon=0.1), primary="far")
        with pytest.raises(ValueError, match="closer than the origin"):
            min_distance(far.default_lam, far)


class TestPairGeometry:
    def test_arc_length_and_orthogonality(self, near18):
        lam = near18.default_lam
        arc_defect = max(abs(float(np.linalg.norm(near18.x(float(s), lam)[1]))
                             - 1.0)
                         for s in np.linspace(-math.pi, math.pi, 101))
        ortho = abs(float(near18.x(0.0, lam)[1] @ near18.y(0.0, lam)[1]))
        # |z(0, t)| has a strict minimum at t = 0: positive second difference
        h = 1e-4
        d = [float(np.linalg.norm(near18.z(0.0, t, lam)))
             for t in (-h, 0.0, h)]
        assert arc_defect <= 1e-8
        assert ortho <= 1e-8
        assert (d[0] - 2 * d[1] + d[2]) / (h * h) > 0.0

    def test_unit_curvature_of_circle(self, near18):
        for s in np.linspace(-math.pi, math.pi, 17):
            assert float(np.linalg.norm(
                near18.x(float(s), 0.2)[2])) == pytest.approx(1.0, abs=1e-12)

    def test_taylor_bounds_near_closest_approach(self, near18):
        lam = near18.default_lam
        m, k = estimate_bounds(near18, lam)
        delta = min_distance(lam, near18)
        c = min(k**-0.5, 1.0 / (k * math.sqrt(6.0)))
        tau = c * delta
        for t in np.linspace(-tau, tau, 41):
            z = near18.z(0.0, float(t), lam)
            zp = near18.x(0.0, lam)[1]
            assert abs(float(z @ z) - delta**2) <= k * t * t + 1e-12
            assert abs(float(z @ zp)) <= k * abs(t) + 1e-12


JET_PAIRS = [line_pair()] + [
    sitnikov_pair(ModelParams(r=1.0, epsilon=eps), primary)
    for eps in (0.0, 0.25, 0.6) for primary in ("near", "far")]


class TestJets:
    @pytest.mark.parametrize("pair", JET_PAIRS, ids=[
        "line", *(f"{p}-eps{e}" for e in (0.0, 0.25, 0.6)
                  for p in ("near", "far"))])
    def test_derivative_rows_match_central_differences(self, pair):
        # rows 1 and 2 against central differences of rows 0 and 1
        h = 1e-5
        lo, hi = pair.s_range
        for lam in (0.2, 0.05):
            for curve, args in ((pair.x, np.linspace(lo + h, hi - h, 7)),
                                (pair.y, np.linspace(-0.5, 0.5, 11))):
                for v in args:
                    jet = curve(float(v), lam)
                    fd = (curve(float(v) + h, lam)
                          - curve(float(v) - h, lam))[:2] / (2.0 * h)
                    for row in (1, 2):
                        scale = max(1.0, float(np.max(np.abs(jet[row]))))
                        assert np.max(np.abs(fd[row - 1] - jet[row])) \
                            <= 1e-6 * scale


class TestBoundReport:
    def test_line_fixture_curvature_floor(self):
        rep = bound_report(0.01, line_pair())
        assert rep.a_min == pytest.approx(1e6, rel=1e-9)
        assert rep.bound_ok
        assert rep.tau == pytest.approx(rep.c * rep.delta, rel=1e-12)

    def test_sitnikov_sweep_trends(self, near18):
        reports = [bound_report(lam, near18)
                   for lam in (0.2, 0.1, 0.05, 0.025)]
        assert all(rep.bound_ok for rep in reports)
        winds = [rep.winding_estimate for rep in reports]
        growth = [rep.tau * math.sqrt(rep.a_min) for rep in reports]
        assert all(b < a for a, b in zip(winds, winds[1:]))
        assert all(b > a for a, b in zip(growth, growth[1:]))

    def test_json_round_trip(self, near18):
        rep = bound_report(0.1, near18)
        record = json.loads(json.dumps(rep.to_json_dict()))
        assert record["delta"] == pytest.approx(0.1, abs=1e-9)
        assert record["bound_ok"] is True
        assert "smallness_ok" in record
        assert record["used_supplied_bounds"] is False


class TestHillCrossCheck:
    def test_matches_direct_linearization(self):
        for params in (ModelParams(r=1.8, epsilon=0.0),
                       ModelParams(r=1.2, epsilon=0.25)):
            a_pair = sitnikov_hill_coefficient(params)
            a_direct = hill_coefficient(math.pi, params)
            for t in np.linspace(0.0, TWO_PI, 13):
                assert a_pair(float(t)) == pytest.approx(a_direct(float(t)),
                                                         abs=1e-6)


class TestLoader:
    def test_from_dict(self):
        pair = load_curve_pair({"family": "line"})
        assert pair.name == "line"
        assert pair.default_lam == 0.1

    def test_from_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"family": "sitnikov_near",
                                    "params": {"r": 1.8, "epsilon": 0.0}}))
        pair = load_curve_pair(str(path))
        assert pair.name == "sitnikov_near"
        assert pair.default_lam == pytest.approx(0.2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            load_curve_pair({"family": "lemniscate"})
