"""Curve-pair potential machinery behind the interchange mechanism."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from curved_sitnikov.kepler import ModelParams
from curved_sitnikov.model import CollisionError, hill_coefficient
from curved_sitnikov.general_model import (C_LOWER, bound_report, d2U_ds2,
                                           d2U_ds2_fd, estimate_bounds,
                                           line_pair,
                                           load_curve_pair, min_distance,
                                           pair_potential, sitnikov_pair)

TWO_PI = 2.0 * math.pi


def sitnikov_hill_coefficient(params: ModelParams):
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
        # the line fixture with its fixed point moved along the line; its
        # y takes floats only, so the stationarity check must come before
        # any array call
        def y(t, lam):
            assert np.ndim(t) == 0, "this fixture's y is scalar-only"
            return np.array([[s_offset, lam, 0.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0]])

        return replace(line_pair(), y=y)

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

JET_IDS = ["line", *(f"{p}-eps{e}" for e in (0.0, 0.25, 0.6)
                     for p in ("near", "far"))]


class TestJets:
    @pytest.mark.parametrize("pair", JET_PAIRS, ids=JET_IDS)
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


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestArrayJets:
    """Array calls against per-sample float calls, bit for bit.

    Both go through the same numpy arithmetic (``np.sin``/``np.cos`` and
    one array Kepler solve on a 0-d or n-d array), so no bound is needed
    here; the float-by-float route of the past, with ``math.cos``, BLAS
    dot products and scalar ``pow``, is compared in
    ``TestArrayBoundReport`` within a stated bound.
    """

    @pytest.mark.parametrize("pair", JET_PAIRS, ids=JET_IDS)
    def test_array_jets_equal_float_jets(self, pair):
        for lam in (0.2, 0.05):
            for curve, lo, hi in ((pair.x, *pair.s_range),
                                  (pair.y, -0.5, 0.5)):
                args = np.linspace(lo, hi, 24).reshape(4, 6)
                jets = curve(args, lam)
                floats = [curve(float(v), lam) for v in args.flat]
                assert jets.shape == (3, 3, 4, 6)
                assert all(jet.shape == (3, 3) for jet in floats)
                assert _bits(np.moveaxis(jets, (0, 1), (-2, -1))) == _bits(
                    np.reshape(floats, (4, 6, 3, 3)))

    @pytest.mark.parametrize("pair", JET_PAIRS, ids=JET_IDS)
    def test_curvature_array_equals_float_calls(self, pair):
        for lam in (0.2, 0.05):
            ts = np.linspace(-0.5, 0.5, 35).reshape(5, 7)
            curv = d2U_ds2(ts, lam, pair)
            floats = [d2U_ds2(float(t), lam, pair) for t in ts.flat]
            assert curv.shape == ts.shape
            assert all(type(u) is float for u in floats)
            assert _bits(curv) == _bits(np.reshape(floats, ts.shape))

    def test_one_kepler_solve_per_sampled_time(self, monkeypatch):
        # the 201 sampled times reach Kepler's equation in one array solve,
        # as the mean anomalies pi + 2 pi t, and never one at a time
        from curved_sitnikov import kepler
        arrays, scalars = [], []
        solve_array, solve = kepler._solve_kepler_array, kepler.solve_kepler
        monkeypatch.setattr(kepler, "_solve_kepler_array",
                            lambda m, e: arrays.append(np.copy(m))
                            or solve_array(m, e))
        monkeypatch.setattr(kepler, "solve_kepler",
                            lambda m, e: scalars.append(m) or solve(m, e))
        pair = sitnikov_pair(ModelParams(r=1.5, epsilon=0.25))
        ts = np.linspace(-0.01, 0.01, 201)
        d2U_ds2(ts, 0.1, pair)
        assert len(arrays) == 1 and scalars == []
        assert _bits(arrays[0]) == _bits(math.pi + TWO_PI * ts)

    def test_array_guard_reports_smallest_distance(self):
        # the Sitnikov gap is lam at t = 0 and grows away from it
        pair = sitnikov_pair(ModelParams(r=1.8, epsilon=0.0))
        lam = 5e-10
        with pytest.raises(CollisionError) as scalar:
            d2U_ds2(0.0, lam, pair)
        with pytest.raises(CollisionError) as array:
            d2U_ds2(np.array([0.3, 0.0, -0.2]), lam, pair)
        assert scalar.value.primary == array.value.primary == 1
        assert array.value.distance == scalar.value.distance
        assert array.value.distance == pytest.approx(lam, rel=1e-6)
        # one sample past the guard is enough, wherever it sits
        with pytest.raises(CollisionError):
            d2U_ds2(np.array([[0.4, 0.1], [0.2, 0.0]]), lam, pair)
        assert d2U_ds2(np.array([0.3, -0.2]), lam, pair).shape == (2,)
        assert d2U_ds2(np.array([]), lam, pair).shape == (0,)


def _reference_bound_report(lam, pair) -> dict:
    """``bound_report`` with one float jet call per sample, loop by loop.

    The sampling loops and the scalar ``U''`` (BLAS ``@`` and Python
    ``pow``) that ``general_model`` used before its jets took arrays.
    """
    def window_sup(lm):
        jets = [pair.x(float(s), lm)
                for s in np.linspace(pair.s_range[0], pair.s_range[1], 61)]
        jets += [pair.y(float(t), lm) for t in np.linspace(-0.5, 0.5, 121)]
        return float(np.max(np.abs(jets)))

    def curvature(t):
        x0, zp, zpp = pair.x(0.0, lam)
        z = x0 - pair.y(t, lam)[0]
        zz = float(z @ z)
        return float(((zp @ zp + z @ zpp) * zz - 3.0 * (z @ zp) ** 2)
                     / zz**2.5)

    x0, y0 = pair.x(0.0, lam)[0], pair.y(0.0, lam)[0]
    delta = math.dist(x0, y0)
    grid = (np.array([pair.x(float(s), lam)[0]
                      for s in np.linspace(*pair.s_range, 121)])[:, None]
            - np.array([pair.y(float(t), lam)[0]
                        for t in np.linspace(-0.5, 0.5, 121)]))
    assert np.min(np.sum(grid * grid, axis=-1)) >= (1 - 1e-9) * delta**2
    m = 2.0 * max(window_sup(lam), *(window_sup(lm)
                                      for lm in pair.lam_range))
    k = 2.0 * m * m
    c = min(k ** -0.5, 1.0 / (k * math.sqrt(6.0)))
    tau = c * delta
    a_min = min(curvature(float(t)) for t in np.linspace(-tau, tau, 201))
    threshold = 1.0 / (4.0 * math.sqrt(2.0) * m)
    return {"lambda": lam, "delta": delta, "tau": tau, "c": c,
            "a_min": a_min, "bound_ok": a_min >= C_LOWER / delta**3,
            "winding_estimate": -2.0 * tau * math.sqrt(max(a_min, 0.0))
            + math.pi,
            "smallness_ok": delta < threshold,
            "smallness_threshold": threshold, "M": m, "k": k,
            "used_supplied_bounds": False}


# gap-geometry's pairs on its halving sweeps (seed jitter at both ends and
# the middle), then the line and Sitnikov sweeps of `verify` and its tests
REPORT_CASES = [
    (desc, lam0 / 2**j)
    for desc in ({"family": "sitnikov_near",
                  "params": {"r": 1.8, "epsilon": 0.0}},
                 {"family": "sitnikov_near",
                  "params": {"r": 1.6, "epsilon": 0.2}},
                 {"family": "line"})
    for lam0 in (0.19, 0.2, 0.21) for j in range(4)
] + [({"family": "line"}, lam) for lam in (0.1, 0.05, 0.01)] + [
    ({"family": "sitnikov_near", "params": {"r": 1.8, "epsilon": 0.0}}, lam)
    for lam in (0.2, 0.1, 0.05, 0.025)]


class TestArrayBoundReport:
    def test_matches_float_sampling_reference(self):
        # 4e-16 relative: the routes differ only in how U'' rounds its dot
        # products (BLAS @ against a plain sum) and its pow (libm against
        # numpy's vector loop); the largest difference seen is 3.8e-16 on
        # a_min, and every other field agrees to the bit
        for desc, lam in REPORT_CASES:
            pair = load_curve_pair(desc)
            got = bound_report(lam, pair).to_json_dict()
            want = _reference_bound_report(lam, pair)
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, bool):
                    assert got[key] is value, (desc, lam, key)
                else:
                    assert abs(got[key] - value) <= 4e-16 * abs(value), (
                        desc, lam, key, got[key], value)


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

    def test_unknown_primary(self):
        with pytest.raises(ValueError, match="primary='middle'"):
            sitnikov_pair(ModelParams(r=1.8), "middle")
