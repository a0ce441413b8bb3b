"""Adaptive and fixed-step engines, trajectories, variational flow."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from curved_sitnikov import integrate, model, poincare
from curved_sitnikov.kepler import (ModelParams, _anomaly_geometry,
                                    collision_ceiling, solve_kepler)
from curved_sitnikov.cli import _write_csv, main
from curved_sitnikov.model import coefficient_period, hill_coefficient
from curved_sitnikov.floquet import (_antipode_half_traces, monodromy,
                                     winding_angle)
from curved_sitnikov.integrate import (FundamentalMatrix, StiffnessError,
                                       _dop853_lanes, integrate_orbit,
                                       integrate_variational, rk4_fixed)
from curved_sitnikov.poincare import section, wrap_angle

TWO_PI = 2.0 * math.pi
P10 = ModelParams(r=1.0, epsilon=0.0)
CFG = argparse.Namespace(cmd="test")


class TestOrbit:
    def test_origin_equilibrium_persists(self):
        traj = integrate_orbit((0.0, 0.0, 0.0), TWO_PI,
                               ModelParams(r=1.2, epsilon=0.3), tol=1e-10)
        q, p, _ = traj.states[-1]
        assert abs(q) < 1e-9
        assert abs(p) < 1e-9

    def test_antipode_equilibrium_persists(self):
        traj = integrate_orbit((math.pi, 0.0, 0.0), TWO_PI, P10, tol=1e-10)
        q, p, _ = traj.states[-1]
        assert q == pytest.approx(math.pi, abs=1e-9)
        assert abs(p) < 1e-9

    def test_reversibility_round_trip(self):
        tol = 1e-9
        params = ModelParams(r=1.3, epsilon=0.25)
        q0, p0 = 0.4, 0.2
        fwd = integrate_orbit((q0, p0, 0.0), TWO_PI, params, tol=tol)
        qT, pT, _ = fwd.states[-1]
        back = integrate_orbit((qT, -pT, 0.0), TWO_PI, params, tol=tol)
        qB, pB, _ = back.states[-1]
        assert qB == pytest.approx(q0, abs=10 * tol)
        assert pB == pytest.approx(-p0, abs=10 * tol)

    def test_reversibility_generic_horizon(self):
        # non-period horizon needs the mirrored phase clock s0 = -T
        tol = 1e-10
        params = ModelParams(r=1.1, epsilon=0.15)
        T = 2.7
        fwd = integrate_orbit((1.0, -0.3, 0.0), T, params, tol=tol)
        qT, pT, _ = fwd.states[-1]
        back = integrate_orbit((qT, -pT, -T), T, params, tol=tol)
        qB, pB, _ = back.states[-1]
        assert qB == pytest.approx(1.0, abs=10 * tol)
        assert pB == pytest.approx(0.3, abs=10 * tol)

    def test_samples_monotone_with_requested_endpoints(self):
        traj = integrate_orbit((0.5, 0.1, 0.0), 7.0, P10, tol=1e-8)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 7.0
        assert np.all(np.diff(traj.t) > 0.0)
        assert np.allclose(traj.states[:, 2], traj.t)

    def test_tolerance_window_enforced(self):
        for fixed_steps in (None, 10):
            for tol in (1e-5, 1e-14):
                with pytest.raises(ValueError):
                    integrate_orbit((0.1, 0.0, 0.0), 1.0, P10, tol=tol,
                                    fixed_steps=fixed_steps)

    @pytest.mark.parametrize("fixed_steps", [None, 10])
    @pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, t_final, fixed_steps):
        with pytest.raises(ValueError, match="t_final"):
            integrate_orbit((0.1, 0.0, 0.0), t_final, P10,
                            fixed_steps=fixed_steps)

    @pytest.mark.parametrize("fixed_steps", [None, 10])
    @pytest.mark.parametrize("initial", [(math.nan, 0.0, 0.0),
                                         (0.1, math.inf, 0.0),
                                         (0.1, 0.0, -math.inf)],
                             ids=["q0-nan", "p0-inf", "s0-inf"])
    def test_initial_state_must_be_finite(self, initial, fixed_steps):
        # a NaN phase is covered by the CLI test in a subprocess: code
        # without this check never returns from that adaptive solve
        with pytest.raises(ValueError, match=r"initial=\(.*\) must be finite"):
            integrate_orbit(initial, 1.0, P10, fixed_steps=fixed_steps)

    @pytest.mark.parametrize("t_final, rows", [(3 * math.pi, 4),
                                               (4 * math.pi, None)],
                             ids=["at-limit", "past-limit"])
    def test_row_limit_is_checked_before_any_step(self, monkeypatch,
                                                  t_final, rows):
        # a lower limit and a stub engine, so that code without the check
        # fails fast: stops pi apart make 4 rows from 3 pi, 5 from 4 pi
        monkeypatch.setattr(integrate, "MAX_GRID_POINTS", 4)
        monkeypatch.setattr(integrate, "_dop853_lanes",
                            lambda clock, rhs, stops, *a, **k:
                            np.zeros((len(stops), 2, 1)))
        if rows is None:
            with pytest.raises(ValueError, match="more than 4 rows"):
                integrate_orbit((0.1, 0.0, 0.0), t_final, P10)
        else:
            traj = integrate_orbit((0.1, 0.0, 0.0), t_final, P10)
            np.testing.assert_allclose(traj.t, [0.0, math.pi, TWO_PI,
                                                t_final], rtol=1e-15)

    def test_horizon_must_span_eccentric_anomaly(self, monkeypatch):
        # at s0 = 1e20, s0 + 1 rounds to s0; a stub engine that refuses
        # shows the check comes before any step
        def refuse(*args, **kwargs):
            raise AssertionError("no step may be taken")

        monkeypatch.setattr(integrate, "_dop853_lanes", refuse)
        with pytest.raises(ValueError, match=r"t_final=1\.0 spans no "
                           r"eccentric anomaly from s0=1e\+20"):
            integrate_orbit((0.1, 0.0, 1e20), 1.0,
                            ModelParams(r=1.0, epsilon=0.3))

    def test_rows_are_stops_at_most_pi_apart(self):
        # from s0 = 1 at eps 0.3, with the last row at t_final exactly
        params = ModelParams(r=1.0, epsilon=0.3)
        traj = integrate_orbit((0.3, 0.0, 1.0), 10.0, params)
        us = [solve_kepler(s, 0.3) for s in traj.states[:, 2]]
        assert len(us) == 1 + math.ceil((us[-1] - us[0]) / math.pi) == 4
        assert traj.t[-1] == 10.0
        np.testing.assert_allclose(np.diff(us), (us[-1] - us[0]) / 3,
                                   rtol=1e-12)

    def test_collision_event_truncates(self, monkeypatch):
        # inflated guard distance: the particle drifts through the
        # close-approach zone while a primary swings by
        monkeypatch.setattr(model, "D_MIN", 0.3)
        params = ModelParams(r=1.9)
        traj = integrate_orbit((math.pi - 0.05, 0.05, 2.0), TWO_PI,
                               params, tol=1e-8)
        assert traj.truncated
        assert traj.t[-1] < TWO_PI
        assert np.all(np.diff(traj.t) > 0.0)

    def test_start_inside_the_guard_truncates_at_once(self):
        # 4e-10 from primary 2, within D_MIN: the lane halts at its start,
        # where the distance cancels to 0, and takes no step
        traj = integrate_orbit((math.pi, 0.0, 0.0), 1.0,
                               ModelParams(r=2.0 - 4e-10))
        assert traj.t.tolist() == [0.0]
        assert traj.truncated

    def test_phase_offset(self):
        traj = integrate_orbit((0.3, 0.0, 1.0), 1.0, P10, tol=1e-9)
        assert traj.states[0, 2] == 1.0
        assert traj.states[-1, 2] == pytest.approx(2.0, abs=1e-12)

    def test_csv_export(self, tmp_path):
        traj = integrate_orbit((0.5, 0.1, 0.0), 1.0, P10, tol=1e-8)
        path = tmp_path / "traj.csv"
        assert main(["simulate", "--q0", "0.5", "--p0", "0.1", "--t-final",
                     "1.0", "--tol", "1e-8", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert json.loads(lines[0][2:])["command"] == "simulate"
        assert lines[1] == "t,q,p,s"
        assert len(lines) == 2 + len(traj.t)
        # 17 significant digits round-trip
        q_back = float(lines[2].split(",")[1])
        assert q_back == traj.states[0, 0]

    def test_csv_to_stream(self, capsys):
        assert main(["simulate", "--q0", "0.5", "--p0", "0.1", "--t-final",
                     "1.0"]) == 0
        assert capsys.readouterr().out.split("\n", 1)[1].startswith(
            "t,q,p,s\n")

    def test_csv_exact_text(self, tmp_path, capsys):
        rows = [(0.0, 0.1, -0.2, 0.0), (0.5, 1.25, 1.0 / 3.0, 0.5)]
        text = ('# {"cmd": "test"}\n'
                "t,q,p,s\n"
                "0,0.10000000000000001,-0.20000000000000001,0\n"
                "0.5,1.25,0.33333333333333331,0.5\n")
        path = tmp_path / "traj.csv"
        _write_csv(str(path), ("t", "q", "p", "s"), rows, CFG)
        assert path.read_bytes() == text.encode()
        _write_csv(None, ("t", "q", "p", "s"), rows, CFG)
        assert capsys.readouterr().out == text


class TestFixedStep:
    def test_bit_reproducible(self):
        a = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, fixed_steps=500)
        b = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, fixed_steps=500)
        assert np.array_equal(a.states, b.states)
        assert a.n_rhs == 4 * 500

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_step_count_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, fixed_steps=n)
        with pytest.raises(ValueError, match="n_steps"):
            rk4_fixed(lambda t, y: -y, 0.0, np.array([1.0]), 1.0, n)

    def test_step_halving_convergence(self):
        # fourth-order engine: doubling the step count cuts the endpoint
        # error by ~16; require at least 4 per the contract
        ref = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, tol=1e-13)
        end_ref = ref.states[-1, :2]

        def endpoint_error(n):
            traj = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10,
                                   fixed_steps=n)
            return float(np.max(np.abs(traj.states[-1, :2] - end_ref)))

        errs = [endpoint_error(n) for n in (100, 200, 400)]
        assert errs[0] / errs[1] >= 4.0
        assert errs[1] / errs[2] >= 4.0

    def test_adaptive_tolerance_scaling(self):
        ref = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, tol=1e-13)
        end_ref = ref.states[-1, :2]

        def endpoint_error(tol):
            traj = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, tol=tol)
            return float(np.max(np.abs(traj.states[-1, :2] - end_ref)))

        assert endpoint_error(1e-8) <= endpoint_error(1e-6) / 4.0

    def test_rk4_on_harmonic_oscillator(self):
        ts, ys = rk4_fixed(lambda t, y: np.array([y[1], -y[0]]), 0.0,
                           np.array([1.0, 0.0]), TWO_PI, 2000)
        assert ys[-1, 0] == pytest.approx(1.0, abs=1e-10)
        assert ys[-1, 1] == pytest.approx(0.0, abs=1e-10)


def _scipy_variational(a, period, tol):
    """Oracle: scipy's own DOP853 on ``v' = [[0,1],[-a(t),0]] v``; the
    fundamental matrix and the right-hand-side calls it took."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        at = a(t)
        return np.array([y[1], -at * y[0], y[3], -at * y[2]])

    sol = solve_ivp(rhs, (0.0, period), np.array([1.0, 0.0, 0.0, 1.0]),
                    method="DOP853", rtol=tol, atol=tol)
    assert sol.success
    x1, y1, x2, y2 = sol.y[:, -1]
    return np.array([[x1, x2], [y1, y2]]), sol.nfev


def _as_tuples(solve):
    """A ``_dop853_floats`` result with every state and slope a tuple."""
    ts, ys, fs, nfev = solve
    return ts, [tuple(y) for y in ys], [tuple(f) for f in fs], nfev


class TestVariational:
    def test_analytic_rotation_at_origin(self):
        w = math.sqrt(2.0)
        mat = integrate_variational(hill_coefficient(0.0, P10), math.pi,
                                     tol=1e-11)
        expected = np.array([
            [math.cos(w * math.pi), math.sin(w * math.pi) / w],
            [-w * math.sin(w * math.pi), math.cos(w * math.pi)],
        ])
        np.testing.assert_allclose(mat.as_array(), expected, atol=1e-9)

    def test_wronskian(self):
        for q_star in (0.0, math.pi):
            for params in (P10, ModelParams(r=1.5, epsilon=0.2)):
                period = math.pi if params.epsilon == 0.0 else TWO_PI
                mat = integrate_variational(hill_coefficient(q_star, params),
                                            period, tol=1e-10)
                assert mat.det == pytest.approx(1.0, abs=1e-9)

    def test_wronskian_drift_over_full_period(self):
        for params in (P10, ModelParams(r=1.9, epsilon=0.0),
                       ModelParams(r=1.2, epsilon=0.45)):
            mat = integrate_variational(hill_coefficient(math.pi, params),
                                        TWO_PI, tol=1e-10)
            assert abs(mat.det - 1.0) <= 1e-9

    def test_even_coefficient_gives_equal_diagonal(self):
        mat = integrate_variational(hill_coefficient(math.pi, P10), TWO_PI,
                                    tol=1e-10)
        assert mat.x1 == pytest.approx(mat.y2, abs=1e-9)

    def test_matches_flow_derivative(self):
        # columns of the variational solution = d(final)/d(initial);
        # the nonlinear flow runs at the tightest tolerance because the
        # difference quotient amplifies endpoint noise by 1/(2h)
        h = 1e-6
        for q_star in (0.0, math.pi):
            mat = integrate_variational(hill_coefficient(q_star, P10),
                                        TWO_PI, tol=1e-12)

            def flow(q0, p0):
                traj = integrate_orbit((q0, p0, 0.0), TWO_PI, P10, tol=1e-13)
                return traj.states[-1, :2]

            col1 = (flow(q_star + h, 0.0) - flow(q_star - h, 0.0)) / (2 * h)
            col2 = (flow(q_star, h) - flow(q_star, -h)) / (2 * h)
            np.testing.assert_allclose([mat.x1, mat.y1], col1, atol=1e-5)
            np.testing.assert_allclose([mat.x2, mat.y2], col2, atol=1e-5)

    def test_fixed_engine_agrees(self):
        hill = hill_coefficient(math.pi, P10)
        a = integrate_variational(hill, math.pi, tol=1e-10)

        def rhs(t, y):
            at = hill(t)
            return np.array([y[1], -at * y[0], y[3], -at * y[2]])

        _, ys = rk4_fixed(rhs, 0.0, np.array([1.0, 0.0, 0.0, 1.0]), math.pi,
                          4000)
        x1, y1, x2, y2 = ys[-1]
        np.testing.assert_allclose(a.as_array(), [[x1, x2], [y1, y2]],
                                   atol=1e-8)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("q_star", [0.0, math.pi])
    @pytest.mark.parametrize("r, eps", [(1.0, 0.0), (1.9, 0.0), (1.2, 0.2),
                                        (1.5, 0.2), (1.2, 0.45)])
    def test_takes_scipys_steps(self, r, eps, q_star, tol):
        # same initial step, error norm and step control as solve_ivp's
        # DOP853; the stage sums run in another order than np.dot's, so
        # the entries agree to roundoff, and near the collision ceiling
        # the step sequences may part (at r = 1.999, tol 1e-9: 3866 calls
        # against scipy's 3818)
        hill = hill_coefficient(q_star, ModelParams(r=r, epsilon=eps))
        period = coefficient_period(eps)
        want, want_nfev = _scipy_variational(hill, period, tol)
        got = integrate_variational(hill, period, tol)
        assert got.n_rhs == want_nfev
        np.testing.assert_allclose(got.as_array(), want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize("q_star", [0.0, math.pi])
    def test_unrolled_trial_takes_the_generic_steps(self, q_star, eps, tol):
        # the variational trial is _float_trial's arithmetic unrolled for
        # 4 components, so the two take the same steps to the bit
        for r in (0.5, 1.0, collision_ceiling(eps) - 2e-3):
            rhs, trial = integrate._variational_system(
                hill_coefficient(q_star, ModelParams(r=r, epsilon=eps)))
            args = rhs, 0.0, coefficient_period(eps), [1.0, 0.0, 0.0, 1.0], tol
            got, want = (_as_tuples(integrate._dop853_floats(*args, step))
                         for step in (trial, integrate._float_trial(rhs)))
            assert got == want

    def test_custom_coefficient(self):
        mat = integrate_variational(lambda t: 1.0, math.pi, tol=1e-11)
        np.testing.assert_allclose(mat.as_array(), [[-1.0, 0.0], [0.0, -1.0]],
                                   atol=1e-9)

    def test_nan_coefficient_raises_at_once(self, monkeypatch):
        # a NaN step size is an underflow: it used to pass the "h < min"
        # test and retry until the call cap
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 1000)
        calls = []

        def a(t):
            calls.append(t)
            return math.nan

        with pytest.raises(StiffnessError, match="underflow"):
            integrate_variational(a, math.pi, 1e-10)
        assert len(calls) <= 2 + 2 * 12  # within two step attempts

    def test_blow_up_raises_step_underflow(self):
        # x'' = x / (1 - t)^4 blows up at t = 1, as the lane core's twin
        with pytest.raises(StiffnessError,
                           match="step size underflow in a float solve"):
            integrate_variational(lambda t: -1.0 / (1.0 - t) ** 4, math.pi,
                                  1e-9)


def _theta_rhs(a):
    """Prüfer angle ``theta' = -(a cos^2 theta + sin^2 theta)`` of
    ``x'' + a(t) x = 0``, the system of the ``theta`` winding route."""
    def rhs(t, y):
        c, s = math.cos(y[0]), math.sin(y[0])
        return [-(a(t) * c * c + s * s)]
    return rhs


_HILL_03 = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
# the coefficients of floquet's TestWinding::test_routes_agree
_WINDING_COEFFICIENTS = [lambda t: 1.0, lambda t: 4.0,
                         lambda t: 1.0 + 0.5 * math.cos(t), _HILL_03]


class TestFloatEngine:
    @pytest.mark.parametrize("t0, t1", [(0.0, TWO_PI), (1.0, -2.0)],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("th0", [0.0, 0.5 * math.pi,
                                     math.atan2(0.5, -1.0)],
                             ids=["z0=1", "z0=i", "z0=-1+0.5i"])
    @pytest.mark.parametrize("a", _WINDING_COEFFICIENTS,
                             ids=["a=1", "a=4", "1+0.5cos", "hill(0)"])
    def test_takes_scipys_steps(self, a, th0, t0, t1):
        # forward and backward; the stage sums run in another order than
        # np.dot's, so the angles agree to roundoff
        from scipy.integrate import solve_ivp

        rhs = _theta_rhs(a)
        sol = solve_ivp(rhs, (t0, t1), [th0], method="DOP853", rtol=1e-10,
                        atol=1e-10)
        ts, ys, fs, nfev = integrate._dop853_floats(
            rhs, t0, t1, [th0], 1e-10, integrate._float_trial(rhs))
        assert nfev == sol.nfev
        assert len(ts) == len(sol.t)
        assert ts[-1] == t1
        assert ys[-1][0] == pytest.approx(sol.y[0, -1], abs=1e-12)

    def test_stops_do_not_move_steps(self):
        # x'' = -x from (1, 0) at t0 is (cos(t - t0), -sin(t - t0)), forward
        # and backward; each stop strictly inside a step costs the 11 stage
        # calls of one more step from that step's start, and the rest are
        # left out
        def rhs(t, y):
            return [y[1], -y[0]]

        for t0, t1 in [(0.0, 3.0), (3.0, 0.0)]:
            ts, ys, fs, nfev = integrate._dop853_floats(
                rhs, t0, t1, [1.0, 0.0], 1e-10, integrate._float_trial(rhs))
            mids = [0.5 * (ta + tb) for ta, tb in zip(ts, ts[1:])]
            stops = ([t0 - (t1 - t0), t0]
                     + sorted(mids + ts[1:3], reverse=t1 < t0) + [t1])
            got_ts, got_ys, got_nfev = integrate._float_stops(
                rhs, (ts, ys, fs), stops, nfev)
            assert got_nfev == nfev + 11 * len(mids)
            assert got_ts == mids
            assert got_ys == [
                integrate._float_step(rhs, ta, ya, fa, tm - ta)[0]
                for ta, ya, fa, tm in zip(ts, ys, fs, mids)]
            np.testing.assert_allclose(got_ys, [[math.cos(t - t0),
                                                 -math.sin(t - t0)]
                                                for t in got_ts], atol=1e-9)

    def test_stops_count_against_the_cap(self, monkeypatch):
        def rhs(t, y):
            return [y[1], -y[0]]

        ts, ys, fs, nfev = integrate._dop853_floats(
            rhs, 0.0, 3.0, [1.0, 0.0], 1e-10, integrate._float_trial(rhs))
        mids = [0.5 * (ta + tb) for ta, tb in zip(ts, ts[1:])]
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV",
                            nfev + 11 * len(mids))
        integrate._float_stops(rhs, (ts, ys, fs), mids, nfev)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV",
                            nfev + 11 * len(mids) - 1)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            integrate._float_stops(rhs, (ts, ys, fs), mids, nfev)

    def test_call_counter_is_exact(self, monkeypatch):
        rhs = _theta_rhs(_HILL_03)
        args = rhs, 0.0, TWO_PI, [0.0], 1e-10, integrate._float_trial(rhs)
        nfev = integrate._dop853_floats(*args)[3]
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", nfev)
        integrate._dop853_floats(*args)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", nfev - 1)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            integrate._dop853_floats(*args)

    def test_nan_slope_raises_at_once(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [math.nan]

        with pytest.raises(StiffnessError, match="step size underflow"):
            integrate._dop853_floats(rhs, 0.0, 1.0, [0.0], 1e-10,
                                     integrate._float_trial(rhs))
        assert len(calls) == 2  # the start and the initial-step probe


def _identity(t, lanes):
    """Lane clock that hands the right-hand side the times themselves."""
    return t


def _oscillators(w):
    """Lane right-hand side of ``x'' = -w[lane]^2 x`` for both columns."""
    def rhs(t, y, lanes):
        dy = np.empty_like(y)
        dy[0::2] = y[1::2]
        dy[1::2] = -(w[lanes] ** 2) * y[0::2]
        return dy
    return rhs


def _attempted_steps(rows):
    """Each lane's step from the clock rows of each step attempt.

    The first row is at ``t + c_1 h`` and the last at ``t + h``.
    """
    return np.concatenate([(times[-1] - times[0]) / (1.0 - integrate._dop.C[1])
                           for times in rows])


class TestLanes:
    def test_constant_coefficient_closed_form(self):
        # lanes of different stiffness finish at different step counts;
        # w = 1 is the constant coefficient a = 1, X(pi/2) = [[0, 1], [-1, 0]]
        w, t = np.array([0.5, 1.0, 2.0, 6.0]), 0.5 * math.pi
        x1, y1, x2, y2 = _dop853_lanes(_identity, _oscillators(w), t,
                                       np.array([1.0, 0.0, 0.0, 1.0]),
                                       len(w), tol=1e-10)
        np.testing.assert_allclose(x1, np.cos(w * t), atol=1e-9)
        np.testing.assert_allclose(x2, np.sin(w * t) / w, atol=1e-9)
        np.testing.assert_allclose(y1, -w * np.sin(w * t), atol=1e-9)
        np.testing.assert_allclose(y2, np.cos(w * t), atol=1e-9)

    @pytest.mark.parametrize("r", [1.0, 1.9, 1.99])
    def test_one_lane_takes_scipys_steps(self, r):
        # same initial step, error norm and step control as solve_ivp's
        # DOP853, so the same right-hand-side calls (230 and 818 at r = 1
        # and 1.9 are the benchmark's probe counts)
        hill = hill_coefficient(math.pi, ModelParams(r=r))
        want, want_nfev = _scipy_variational(hill, math.pi, 1e-9)
        calls = 0

        def rhs(t, y, lanes):
            nonlocal calls
            calls += 1
            at = hill(float(t[0]))
            return np.array([y[1], -at * y[0], y[3], -at * y[2]])

        x1, y1, x2, y2 = _dop853_lanes(_identity, rhs, math.pi,
                                       np.array([1.0, 0.0, 0.0, 1.0]), 1,
                                       tol=1e-9)[:, 0]
        assert calls == want_nfev
        np.testing.assert_allclose([[x1, x2], [y1, y2]], want, rtol=1e-9)

    def test_initial_steps_take_one_call_for_all_lanes(self):
        # three copies of one lane make the one-lane solve's calls
        hill = hill_coefficient(math.pi, P10)
        _, want_nfev = _scipy_variational(hill, math.pi, 1e-9)
        calls = 0

        def rhs(t, y, lanes):
            nonlocal calls
            calls += 1
            at = np.array([hill(float(ti)) for ti in t])
            return np.stack([y[1], -at * y[0], y[3], -at * y[2]])

        out = _dop853_lanes(_identity, rhs, math.pi,
                            np.array([1.0, 0.0, 0.0, 1.0]), 3, tol=1e-9)
        assert calls == want_nfev
        np.testing.assert_array_equal(out[:, 1:], out[:, :1].repeat(2, 1))

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 1e-6])
    def test_initial_steps_follow_scipys_rule(self, tol):
        # reference: scipy's own rule, lane by lane; the lane form sums
        # the error norm in another order, so the last bits may differ
        from scipy.integrate._ivp.common import select_initial_step

        w = np.array([0.0, 0.5, 1.0, 6.0, 50.0])
        rhs, lanes = _oscillators(w), np.arange(len(w))
        y = np.repeat(np.array([[1.0], [0.0], [0.0], [1.0]]), len(w), axis=1)
        f = rhs(np.zeros(len(w)), y, lanes)
        got = integrate._initial_steps(_identity, rhs, 1.0, y, f, lanes, tol)

        def lane(i):
            return lambda t, yi: rhs(np.array([t]), yi[:, None],
                                     lanes[i:i + 1])[:, 0]

        want = [select_initial_step(lane(i), 0.0, y[:, i], 1.0, np.inf,
                                    f[:, i], 1.0, 7, tol, tol)
                for i in lanes]
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps)

    def test_states_at_every_stop(self):
        # lanes start from their own states: x = cos(w t + phase)
        w, phase = np.array([0.5, 1.0, 3.0]), np.array([0.0, 0.3, -1.0])
        y0 = np.stack([np.cos(phase), -w * np.sin(phase)])
        stops = np.array([1.0, 2.5, 6.0])
        out = _dop853_lanes(_identity, _oscillators(w), stops, y0, len(w),
                            tol=1e-10)
        assert out.shape == (3, 2, 3)
        arg = w * stops[:, None] + phase
        np.testing.assert_allclose(out[:, 0], np.cos(arg), atol=1e-8)
        np.testing.assert_allclose(out[:, 1], -w * np.sin(arg), atol=1e-8)

    def test_step_size_carries_over_stops(self):
        # a stop clips one step and the next resumes at the carried size,
        # so 100 stops cost fewer than one extra step each
        calls = 0
        oscillators = _oscillators(np.array([1.0, 3.0]))

        def rhs(t, y, lanes):
            nonlocal calls
            calls += 1
            return oscillators(t, y, lanes)

        counts = []
        for n_stops in (1, 100):
            calls = 0
            _dop853_lanes(_identity, rhs,
                          np.linspace(200.0 / n_stops, 200.0, n_stops),
                          np.array([1.0, 0.0, 0.0, 1.0]), 2, tol=1e-9)
            counts.append(calls)
        assert counts[0] < counts[1] < counts[0] + 12 * 100

    def test_halt_drops_only_its_lane(self):
        # x = cos(w t) first turns negative at t = pi/(2w): lane 1 at 0.52
        def halt(t, y, lanes):
            return (lanes == 1) & (y[0] < 0.0)

        out = _dop853_lanes(_identity, _oscillators(np.array([1.0, 3.0])),
                            np.array([0.25, 0.5, 1.0, 2.0]),
                            np.array([1.0, 0.0]), 2, 1e-9, halt)
        assert np.isfinite(out[:, :, 0]).all()
        assert np.isfinite(out[:2, :, 1]).all()
        assert np.isnan(out[2:, :, 1]).all()

    def test_nan_error_norm_rejects_the_step(self):
        # a NaN stage may not be accepted as a zero error
        def rhs(t, y, lanes):
            return np.where(t > 0.5, np.nan, y)

        with pytest.raises(StiffnessError, match="underflow"):
            _dop853_lanes(_identity, rhs, 1.0, np.array([1.0]), 2, 1e-9)

    def test_nan_slope_raises_at_once(self, monkeypatch):
        # a NaN slope at t = 0 makes a NaN step size, an underflow; it used
        # to pass the "h < min" test and retry until the call cap
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 1000)
        calls = []

        def rhs(t, y, lanes):
            calls.append(t)
            return np.full_like(y, np.nan)

        with pytest.raises(StiffnessError, match="underflow"):
            _dop853_lanes(_identity, rhs, 1.0, np.array([1.0]), 2, 1e-9)
        assert len(calls) <= 2 + 2 * 12  # within two step attempts

    @pytest.mark.parametrize("tol", [1e-14, 1e-5])
    def test_tolerance_window_enforced(self, tol):
        with pytest.raises(ValueError, match="tol"):
            _dop853_lanes(_identity, _oscillators(np.ones(2)), 1.0,
                          np.array([1.0, 0.0, 0.0, 1.0]), 2, tol)

    def test_blow_up_raises_step_underflow(self):
        # y' = y^2 from y = 1 blows up at t = 1
        with pytest.raises(StiffnessError, match="underflow"):
            _dop853_lanes(_identity, lambda t, y, lanes: y * y, 2.0,
                          np.array([1.0]), 2, 1e-9)

    @pytest.mark.parametrize("stops", [[2.0, 1.0], [1.0, 1.0], [np.nan],
                                       [1.0, np.inf], [0.0, 1.0], [-1.0], []])
    def test_stops_must_be_finite_positive_and_increasing(self, stops):
        # a decreasing stop stepped backward with every step accepted (on
        # y' = -4y, stops [2, 1], y(1) came out 2.7e-3 off at tol 1e-9), and
        # a NaN stop ran to the work cap
        def refuse(*args):
            raise AssertionError("called before the stops were checked")

        with pytest.raises(ValueError, match="stops"):
            _dop853_lanes(refuse, refuse, stops, np.array([1.0]), 2, 1e-9)

    def test_clock_runs_once_per_step_attempt(self):
        # one one-row call at t = 0, whose row halt sees first, and one at
        # the initial step's probe, then one call per step attempt on its
        # 12 rhs times: t + c_i h for the 11 interior stages and the step's
        # end t + h, whose last row halt sees as well; rhs sees every clock
        # row exactly once
        oscillators = _oscillators(np.array([0.5, 3.0]))
        rows, seen, ends = [], [], []

        def clock(t, lanes):
            rows.append((t.copy(), lanes.copy()))
            return t

        def rhs(t, y, lanes):
            seen.append(t.copy())
            return oscillators(t, y, lanes)

        def halt(t, y, lanes):
            ends.append(t.copy())
            return np.zeros(t.shape, dtype=bool)

        _dop853_lanes(clock, rhs, np.array([1.0, 4.0]),
                      np.array([1.0, 0.0, 0.0, 1.0]), 2, 1e-9, halt)
        assert [times.shape for times, _ in rows[:2]] == [(1, 2), (1, 2)]
        np.testing.assert_array_equal(rows[0][0], 0.0)
        np.testing.assert_array_equal(ends[0], rows[0][0][0])
        steps = rows[2:]
        assert len(steps) > 10
        assert len(ends) == 1 + len(steps)
        # the lanes leave at different steps, so the rows are compared flat
        assert len(seen) == 2 + 12 * len(steps) == sum(len(g) for g, _ in rows)
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g, _ in rows]), np.concatenate(seen))
        t, last = np.zeros(2), np.zeros(2)
        for (times, lanes), end in zip(steps, ends[1:]):
            # an accepted step moves a lane's start to its end; a rejected
            # one retries from the same start with a smaller step
            t[lanes] = np.where(times[0] > last[lanes], last[lanes], t[lanes])
            last[lanes] = times[-1]
            assert times.shape == (12, lanes.size)
            h = times[-1] - t[lanes]
            assert np.all(h > 0.0)
            np.testing.assert_array_equal(
                times[:-1], t[lanes] + integrate._dop.C[1:12, None] * h)
            np.testing.assert_array_equal(end, times[-1])


class TestStepCap:
    """No lane step, the first included, spans more than a quarter of the
    shortest interval between stops."""

    def test_uneven_stops(self):
        # stop intervals 1.0, 0.2 and 4.8 cap every step at 0.05; these slow
        # oscillators would start at 0.109 and grow from there
        rows = []

        def clock(t, lanes):
            rows.append(t.copy())
            return t

        _dop853_lanes(clock, _oscillators(np.array([0.1, 0.5])),
                      np.array([1.0, 1.2, 6.0]),
                      np.array([1.0, 0.0, 0.0, 1.0]), 2, 1e-6)
        steps = _attempted_steps(rows[2:])
        assert steps.max() <= 0.05 * (1.0 + 1e-12)
        np.testing.assert_allclose(steps[:2], 0.05, rtol=1e-12)  # the first

    def test_section_steps_at_most_a_quarter_period(self, monkeypatch):
        # the strobes are the only stops, so the cap is pi/2 in u; the orbit
        # at rest on the equilibrium has an exactly zero error estimate and
        # would otherwise step a whole period
        solve, rows = poincare._dop853_lanes, []

        def recording(clock, *args, **kwargs):
            def recorded(u, lanes):
                rows.append(u.copy())
                return clock(u, lanes)
            return solve(recorded, *args, **kwargs)

        monkeypatch.setattr(poincare, "_dop853_lanes", recording)
        cloud = section(ModelParams(r=1.0, epsilon=0.3),
                        [(0.0, 0.0), (0.2, 0.0)], n_iterates=10, tol=1e-8)
        np.testing.assert_array_equal(cloud.orbits[0], 0.0)
        steps = _attempted_steps(rows[2:])
        assert steps.max() <= 0.5 * math.pi * (1.0 + 1e-12)
        assert steps.max() >= 0.5 * math.pi * (1.0 - 1e-12)


class TestClockSplit:
    """Lane solves match, bit for bit, the same system with the whole
    right-hand side evaluated per stage behind an identity clock."""

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_antipode_half_traces(self, eps):
        rs = collision_ceiling(eps) * np.array([0.5, 0.8, 0.95, 0.999])

        def rhs(u, y, lanes):
            rho, a, t = _anomaly_geometry(u, rs[lanes], eps)
            ch, sh = np.cos(0.5 * t), np.sin(0.5 * t)
            gap, c = (a - 2.0) * (a - 2.0), a * (ch - sh) * (ch + sh)
            stiffness = rho * ((1.0 + c) / (gap + 8.0 * a * ch * ch) ** 1.5
                               + (1.0 - c) / (gap + 8.0 * a * sh * sh) ** 1.5)
            dy = np.empty_like(y)
            dy[0::2] = rho * y[1::2]
            dy[1::2] = stiffness * y[0::2]
            return dy

        x1, y1, x2, y2 = _dop853_lanes(_identity, rhs,
                                       0.5 * coefficient_period(eps),
                                       np.array([1.0, 0.0, 0.0, 1.0]),
                                       rs.size, 1e-9)
        np.testing.assert_array_equal(_antipode_half_traces(rs, eps, 1e-9),
                                      (x1 * y2 + x2 * y1) / (x1 * y2 - x2 * y1))

    @pytest.mark.parametrize("r, eps", [(1.9, 0.0), (1.0, 0.3)])
    def test_strobed_orbits(self, monkeypatch, r, eps):
        # an inflated guard distance halts the first orbit at r = 1.9 (see
        # the lane route's collision test), so halting is compared as well
        d_min = 0.3
        monkeypatch.setattr(model, "D_MIN", d_min)
        initial = np.array([[math.pi - 0.5, 0.1, 0.3], [0.0, 0.0, 0.2]])

        def distances(u, q):
            _, a, t = _anomaly_geometry(u, r, eps)
            c, gap = a * np.cos(t), 2.0 * (1.0 - np.cos(q))
            return (np.sqrt(a * a + gap * (1.0 + c)),
                    np.sqrt(a * a + gap * (1.0 - c)))

        def rhs(u, y, lanes):
            rho, a, t = _anomaly_geometry(u, r, eps)
            c = a * np.cos(t)
            d1, d2 = distances(u, y[0])
            sin_q = np.sin(y[0])
            dy = np.empty_like(y)
            dy[0] = rho * y[1]
            dy[1] = rho * (-(1.0 + c) * sin_q / d1**3
                           - (1.0 - c) * sin_q / d2**3)
            return dy

        def collided(u, y, lanes):
            return np.minimum(*distances(u, y[0])) <= d_min

        want = _dop853_lanes(_identity, rhs, np.arange(1, 11) * TWO_PI,
                             initial, 3, 1e-8, halt=collided)
        cloud = section(ModelParams(r, eps), initial.T, n_iterates=10,
                        tol=1e-8)
        for i, (hits, truncated) in enumerate(zip(cloud.orbits,
                                                  cloud.truncated)):
            qs, ps = want[:, :, i].T
            reached = np.isfinite(qs)
            np.testing.assert_array_equal(
                hits, [(wrap_angle(q), p)
                       for q, p in zip(qs[reached], ps[reached])])
            assert truncated == (not reached.all())
        assert cloud.truncated[0] == (r == 1.9)


class TestOrbitHalt:
    def test_halt_reads_the_distances_of_the_last_rhs_call(self, monkeypatch):
        # states within 1e-6 of primary 2 (u near 0) and of primary 1 (u
        # near pi) on the antipode, with the guard inflated to straddle them
        d_min = 5e-7
        monkeypatch.setattr(model, "D_MIN", d_min)
        r = 2.0 - 2e-7
        clock, rhs, halt = model._orbit_system(ModelParams(r), 0.0)
        dq = np.linspace(-1e-6, 1e-6, 41)
        for u in (0.0, 1e-7, math.pi, math.pi - 1e-7):
            tau = np.full((1, dq.size), u)
            lanes = np.arange(dq.size)
            g = clock(tau, lanes)[0]
            y = np.array([math.pi + dq, np.full(dq.size, 0.3)])
            rhs(g, y, lanes)
            _, a, t = _anomaly_geometry(tau[0], r, 0.0)
            c, gap = a * np.cos(t), 2.0 * (1.0 - np.cos(y[0]))
            d1 = np.sqrt(a * a + gap * (1.0 + c))
            d2 = np.sqrt(a * a + gap * (1.0 - c))
            want = np.minimum(d1, d2) <= d_min
            assert want.any() and not want.all()
            np.testing.assert_array_equal(halt(g, y, lanes), want)


class TestWorkCap:
    def test_variational_counter_is_exact(self, monkeypatch):
        n_rhs = monodromy(math.pi, ModelParams(r=1.999), tol=1e-9).matrix.n_rhs
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", n_rhs)
        monodromy(math.pi, ModelParams(r=1.999), tol=1e-9)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", n_rhs - 1)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            monodromy(math.pi, ModelParams(r=1.999), tol=1e-9)

    def test_cap_stops_both_routes(self, monkeypatch, capsys):
        # r = 1.999 at tol 1e-9 takes 1634 calls over the half period
        # monodromy solves, and 3686 over the full period, as in scipy's
        # solve_ivp
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 1000)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            monodromy(math.pi, ModelParams(r=1.999), tol=1e-9)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            _antipode_half_traces([1.0, 1.999], 0.0, tol=1e-9)
        assert main(["floquet", "--qstar", "pi", "--r", "1.999",
                     "--tol", "1e-9"]) == 2
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["theta", "arg"])
    def test_cap_stops_both_winding_routes(self, monkeypatch, method):
        # the hill(0) winding over 2 pi from z0 = 1 takes 710 calls by
        # the theta route, 554 by the arg route
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 200)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            winding_angle(_HILL_03, 0.0, TWO_PI, 1 + 0j, method=method)

    def test_close_approach_ends_in_bounded_work(self, monkeypatch, capsys):
        # at r = 1.9999 the antipode passes 1e-4 from a primary; a Hill
        # coefficient that loses digits to cancellation there drives the
        # error control past 10^6 calls at the default tol
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 20_000)
        assert main(["floquet", "--qstar", "pi", "--r", "1.9999"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "hyperbolic"


class TestScipyImports:
    def test_cli_and_monodromies_load_no_scipy_solvers(self, tmp_path):
        # the DOP853 tables load by file path, and the transition search
        # needs no root finder; orbits, sections and the symmetry check's
        # round trip run on the lane core.  verify and the winding routes
        # have a test of their own below.
        out = str(tmp_path / "out.csv")
        out_json = str(tmp_path / "out.json")
        code = f"""
import math, sys
from curved_sitnikov import cli, floquet, scan, verification
from curved_sitnikov.kepler import ModelParams
floquet.monodromy(math.pi, ModelParams(r=1.0))
scan.interchange_census(0.0, 0.99, 40)
scan.find_transitions(scan.trace_curve(math.pi, 0.0, [1.23, 1.24]))
assert cli.main(["simulate", "--q0", "0.1", "--p0", "0", "--t-final", "10",
                 "--out", {out!r}]) == 0
assert cli.main(["poincare", "--eps", "0.3", "--iterates", "2", "--q-grid",
                 "0.1:0.1:1", "--p-grid", "0:0:1", "--out", {out!r}]) == 0
for argv in (["scan", "--qstar", "pi", "--eps", "0.1", "--r",
              "1.18:1.2:0.01", "--out-csv", {out!r},
              "--out-json", {out_json!r}],
             ["eps-scan", "--r", "1.0", "--eps-grid", "0:0.2:0.1",
              "--out", {out!r}],
             ["census", "--budget", "20", "--out", {out_json!r}],
             ["floquet", "--qstar", "pi", "--r", "1.2", "--eps", "0.3",
              "--out", {out_json!r}],
             ["kepler", "--eps", "0.3", "--t", "0:1:0.5", "--out", {out!r}],
             ["bounds", "--lam", "0.2,0.1", "--out", {out_json!r}]):
    assert cli.main(argv) == 0, argv
assert verification.check_symmetries({{}})[0]
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["scipy", "integrate"],
                                     ["scipy", "optimize"])))
"""
        src = pathlib.Path(integrate.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_verify_and_winding_load_no_scipy_solvers(self):
        # the winding routes step on _dop853_floats; verify runs them in
        # check 8
        code = """
import math, sys
from curved_sitnikov import cli, floquet
for method in ("theta", "arg"):
    floquet.winding_angle(lambda t: 4.0, 0.0, math.pi, 1j, method=method)
assert cli.main(["verify", "--json"]) in (cli.EXIT_OK, cli.EXIT_VERIFY)
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["scipy", "integrate"],
                                     ["scipy", "optimize"])))
"""
        src = pathlib.Path(integrate.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_tables_equal_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as scipys

        names = [n for n in vars(scipys) if n.isupper()]
        assert {"A", "B", "C", "E3", "E5", "N_STAGES"} <= set(names)
        for name in names:
            np.testing.assert_array_equal(getattr(integrate._dop, name),
                                          getattr(scipys, name))


def test_fundamental_matrix_helpers():
    m = FundamentalMatrix(x1=2.0, x2=1.0, y1=3.0, y2=2.0)
    assert m.det == pytest.approx(1.0)
    assert m.half_trace == 2.0
    np.testing.assert_array_equal(m.as_array(), [[2.0, 1.0], [3.0, 2.0]])
