"""The DOP853 engines, trajectories, variational flow."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tomllib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_sitnikov import floquet, integrate, model, poincare
from curved_sitnikov.kepler import (ModelParams, _anomaly_geometry,
                                    collision_ceiling, solve_kepler)
from curved_sitnikov.cli import _write_csv, main
from curved_sitnikov.model import coefficient_period, hill_coefficient
from curved_sitnikov.floquet import (_antipode_half_traces, monodromy,
                                     winding_angle)
from curved_sitnikov.integrate import (FundamentalMatrix, StiffnessError,
                                       _dop853_lanes, integrate_orbit,
                                       integrate_variational)
from curved_sitnikov.poincare import section, wrap_angle

TWO_PI = 2.0 * math.pi
P10 = ModelParams(r=1.0, epsilon=0.0)
# the Kepler-free and the Kepler-solving phase clock
PARAMS = pytest.mark.parametrize(
    "params", [P10, ModelParams(r=1.2, epsilon=0.3)],
    ids=["circular", "eccentric"])
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
        for tol in (1e-5, 1e-14):
            with pytest.raises(ValueError):
                integrate_orbit((0.1, 0.0, 0.0), 1.0, P10, tol=tol)

    def test_adaptive_tolerance_scaling(self):
        ref = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, tol=1e-13)
        end_ref = ref.states[-1, :2]

        def endpoint_error(tol):
            traj = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, P10, tol=tol)
            return float(np.max(np.abs(traj.states[-1, :2] - end_ref)))

        assert endpoint_error(1e-8) <= endpoint_error(1e-6) / 4.0

    @PARAMS
    def test_bit_reproducible(self, params):
        # one engine, no state between calls: the same orbit twice is the
        # same bits and the same count, 2 + 12 per step attempt
        a = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, params)
        b = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, params)
        assert a.t.tobytes() == b.t.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.n_rhs == b.n_rhs
        assert (a.n_rhs - 2) % 12 == 0

    # on an eccentric orbit solve_kepler meets the horizon and the phase
    # first, and raises a bare math domain error on an infinite one: the
    # checks must come before it
    @PARAMS
    @pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, t_final, params):
        with pytest.raises(ValueError, match="t_final"):
            integrate_orbit((0.1, 0.0, 0.0), t_final, params)

    @PARAMS
    @pytest.mark.parametrize("initial", [(math.nan, 0.0, 0.0),
                                         (0.1, math.inf, 0.0),
                                         (0.1, 0.0, -math.inf)],
                             ids=["q0-nan", "p0-inf", "s0-inf"])
    def test_initial_state_must_be_finite(self, initial, params):
        # a NaN phase is covered by the CLI test in a subprocess: code
        # without this check never returns from that adaptive solve
        with pytest.raises(ValueError, match=r"initial=\(.*\) must be finite"):
            integrate_orbit(initial, 1.0, params)

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
                            (np.zeros((len(stops), 2, 1)), 0))
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

    def test_truncated_orbit_keeps_only_reached_rows(self, monkeypatch):
        # the stops past the collision stay NaN in the engine; the orbit
        # drops them, and each kept row's phase is still s0 + t; this
        # orbit halts in its third period, as in TestLaneRoute
        monkeypatch.setattr(model, "D_MIN", 0.3)
        traj = integrate_orbit((math.pi - 0.5, 0.0, TWO_PI), 5 * TWO_PI,
                               ModelParams(r=1.9), tol=1e-8)
        assert traj.truncated
        assert len(traj.t) == len(traj.states) >= 4
        assert traj.t[-1] < 3 * TWO_PI
        assert np.isfinite(traj.states).all()
        assert traj.states[:, 2].tolist() == (TWO_PI + traj.t).tolist()

    def test_start_inside_the_guard_truncates_at_once(self):
        # 4e-10 from primary 2, within D_MIN: the lane halts at its start,
        # where the distance cancels to 0, and takes no step
        traj = integrate_orbit((math.pi, 0.0, 0.0), 1.0,
                               ModelParams(r=2.0 - 4e-10))
        assert traj.t.tolist() == [0.0]
        assert traj.truncated
        assert traj.n_rhs == 1  # the start's slope, and no initial step

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


class TestRk4Oracle:
    """The test-local RK4 that two tests take as an independent reference."""

    def test_harmonic_oscillator(self, rk4):
        ys = rk4(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], TWO_PI,
                 2000)
        assert ys.shape == (2001, 2)
        assert ys[-1, 0] == pytest.approx(1.0, abs=1e-10)
        assert ys[-1, 1] == pytest.approx(0.0, abs=1e-10)

    @PARAMS
    def test_fourth_order_on_the_orbit_force(self, rk4, params):
        # doubling the step count cuts the error against a tol-1e-13 orbit
        # by ~16; require at least 4
        end_ref = integrate_orbit((0.4, 0.2, 0.0), TWO_PI, params,
                                  tol=1e-13).states[-1, :2]

        def rhs(t, y):
            return np.array([y[1], model.tangential_force(y[0], t, params)])

        errs = [float(np.max(np.abs(rk4(rhs, [0.4, 0.2], TWO_PI, n)[-1]
                                    - end_ref)))
                for n in (100, 200, 400)]
        assert errs[0] / errs[1] >= 4.0
        assert errs[1] / errs[2] >= 4.0


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

    def test_rk4_oracle_agrees(self, rk4):
        hill = hill_coefficient(math.pi, P10)
        a = integrate_variational(hill, math.pi, tol=1e-10)

        def rhs(t, y):
            at = hill(t)
            return np.array([y[1], -at * y[0], y[3], -at * y[2]])

        x1, y1, x2, y2 = rk4(rhs, [1.0, 0.0, 0.0, 1.0], math.pi, 4000)[-1]
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

    def test_custom_coefficient(self):
        mat = integrate_variational(lambda t: 1.0, math.pi, tol=1e-11)
        np.testing.assert_allclose(mat.as_array(), [[-1.0, 0.0], [0.0, -1.0]],
                                   atol=1e-9)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
    def test_non_finite_period_refused_before_any_step(self, period):
        # NaN used to end in a step underflow and inf in a million calls
        calls = []
        with pytest.raises(ValueError,
                           match=f"period={period} must be finite"):
            integrate_variational(lambda t: calls.append(t) or 1.0, period,
                                  1e-10)
        assert calls == []

    def test_negative_period_integrates_backward(self):
        mat = integrate_variational(lambda t: 1.0, -math.pi, tol=1e-11)
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

    def test_overflowing_first_slope_raises_stiffness(self):
        # at r = 1e-100 the origin's coefficient 2/r^3 = 2e300 overflows
        # the first-step rule's scaled slope; that may not warn (an error
        # under this suite) before the step loop reports the underflow
        with pytest.raises(StiffnessError, match="underflow"):
            monodromy(0.0, ModelParams(r=1e-100))


def _theta_rhs(at, y):
    """Prüfer angle ``theta' = -(a cos^2 theta + sin^2 theta)`` of
    ``x'' + a(t) x = 0`` given ``at = a(t)``, the system of the ``theta``
    winding route."""
    c, s = math.cos(y[0]), math.sin(y[0])
    return [-(at * c * c + s * s)]


def _arg_rhs(at, y):
    """``(x, x')`` of ``x'' + a(t) x = 0`` given ``at = a(t)``, the system
    of the ``arg`` winding route."""
    return [y[1], -at * y[0]]


def _identity_clock(t):
    return t


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

        sol = solve_ivp(lambda t, y: _theta_rhs(a(t), y), (t0, t1), [th0],
                        method="DOP853", rtol=1e-10, atol=1e-10)
        ts, ys, nfev = integrate._dop853_floats(a, _theta_rhs, t0, t1,
                                                [th0], 1e-10)
        assert nfev == sol.nfev
        assert len(ts) == len(sol.t)
        assert ts[-1] == t1
        assert ys[-1][0] == pytest.approx(sol.y[0, -1], abs=1e-12)

    def test_arg_route_solves_count_against_the_cap(self, monkeypatch):
        # a = 100 over 2 pi: the arg route's solve and its 15 midpoint
        # solves share one cap, counted on through integrate._spend
        solve, spent = integrate._dop853_floats, []

        def counted(*args):
            result = solve(*args)
            spent.append(result[2])
            return result

        monkeypatch.setattr(floquet, "_dop853_floats", counted)
        args = lambda t: 100.0, 0.0, TWO_PI, 1 + 0j, 1e-10, "arg"
        winding_angle(*args)
        total = sum(spent)
        assert (len(spent), total) == (16, 2528)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", total)
        winding_angle(*args)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", total - 1)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            winding_angle(*args)

    def test_call_counter_is_exact(self, monkeypatch):
        args = _HILL_03, _theta_rhs, 0.0, TWO_PI, [0.0], 1e-10
        nfev = integrate._dop853_floats(*args)[2]
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", nfev)
        integrate._dop853_floats(*args)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", nfev - 1)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            integrate._dop853_floats(*args)

    def test_nan_slope_raises_at_once(self):
        calls = []

        def rhs(g, y):
            calls.append(g)
            return [math.nan]

        with pytest.raises(StiffnessError, match="step size underflow"):
            integrate._dop853_floats(_identity_clock, rhs, 0.0, 1.0, [0.0],
                                     1e-10)
        assert len(calls) == 2  # the start and the initial-step probe

    @pytest.mark.parametrize("t0, t1", [(0.0, TWO_PI), (1.0, -2.0)],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("a", _WINDING_COEFFICIENTS,
                             ids=["a=1", "a=4", "1+0.5cos", "hill(0)"])
    def test_calls_per_step_attempt(self, monkeypatch, a, t0, t1):
        # stage 11 and the step's end share the time t + h, so a step
        # attempt makes 11 clock calls and 12 rhs calls; the start and the
        # initial step's probe make one of each
        calls = {"clock": 0, "rhs": 0, "attempts": 0}
        build = integrate._dop853_kernel

        def counting_build(n):
            kernel = build(n)

            def counted(clock, rhs, t, y, f, h, tol):
                calls["attempts"] += 1
                return kernel(clock, rhs, t, y, f, h, tol)
            return counted

        def clock(t):
            calls["clock"] += 1
            return a(t)

        def rhs(at, y):
            calls["rhs"] += 1
            return _arg_rhs(at, y)

        monkeypatch.setattr(integrate, "_dop853_kernel", counting_build)
        ts, ys, nfev = integrate._dop853_floats(clock, rhs, t0, t1,
                                                [1.0, 0.0], 1e-10)
        attempts = calls["attempts"]
        assert attempts >= len(ts) - 1 > 3
        assert calls["clock"] == 2 + 11 * attempts
        assert calls["rhs"] == nfev == 2 + 12 * attempts


# The float DOP853 step as loops over the tableau: the reference that the
# straight-line kernel of ``integrate._dop853_kernel`` is held to, bit for
# bit.  It calls the clock 12 times a step: at the 11 stages and again
# at the step's end.

def _combine_floats(row, k) -> list[float]:
    """``sum(coef * k[j] for j, coef in row)`` of equal-length sequences,
    summed in row order from 0.0."""
    d = [0.0] * len(k[0])
    for j, coef in row:
        for i, v in enumerate(k[j]):
            d[i] += coef * v
    return d


def _float_step(clock, rhs, t, y, f, h):
    """One DOP853 step of length ``h`` from ``(t, y)``, slope ``f`` there:
    the new state and the stage slopes (``f`` and the 11 stage calls)."""
    k = [f]
    for c, row in integrate._STAGES:
        d = _combine_floats(row, k)
        k.append(rhs(clock(t + c * h), [v + dv * h for v, dv in zip(y, d)]))
    d = _combine_floats(integrate._WEIGHTS, k)
    return [v + h * dv for v, dv in zip(y, d)], k


def _error_norm(e5s, e3s, y, y_new, h_abs, tol):
    """Scipy's DOP853 error norm of a step of length ``h_abs`` from the
    stage sums of ``_E5_WEIGHTS`` and ``_E3_WEIGHTS``."""
    err5 = err3 = 0.0
    for e5, e3, old, new in zip(e5s, e3s, y, y_new):
        scale = tol + max(abs(old), abs(new)) * tol
        e5, e3 = e5 / scale, e3 / scale
        err5 += e5 * e5
        err3 += e3 * e3
    denom = err5 + 0.01 * err3
    return h_abs * err5 / math.sqrt(len(y) * denom) if denom else 0.0


def _reference_kernel(n):
    """``integrate._dop853_kernel(n)``'s contract, computed by the loops."""
    def kernel(clock, rhs, t, y, f, h, tol):
        y_new, k = _float_step(clock, rhs, t, y, f, h)
        e5s, e3s = (_combine_floats(w, k)
                    for w in (integrate._E5_WEIGHTS, integrate._E3_WEIGHTS))
        return (y_new, rhs(clock(t + h), y_new),
                _error_norm(e5s, e3s, y, y_new, abs(h), tol))
    return kernel


def _plain(x):
    """``x`` with every nested list and tuple a tuple, so that the repr of
    two results compares their floats bit for bit."""
    return tuple(map(_plain, x)) if isinstance(x, (list, tuple)) else x


def _kernel_and_reference(solve):
    """The repr of ``solve()`` with the kernel and with the reference."""
    got = repr(_plain(solve()))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(integrate, "_dop853_kernel", _reference_kernel)
        want = repr(_plain(solve()))
    return got, want


class TestKernel:
    """The straight-line kernel takes the reference loops' steps: equal
    ``ts``, ``ys`` and ``nfev`` by repr."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize("q_star", [0.0, math.pi])
    def test_variational_system(self, q_star, eps, tol):
        for r in (0.5, 1.0, collision_ceiling(eps) - 2e-3):
            hill = hill_coefficient(q_star, ModelParams(r=r, epsilon=eps))
            got, want = _kernel_and_reference(
                lambda: integrate._dop853_floats(
                    hill, integrate._variational_rhs, 0.0,
                    coefficient_period(eps), (1.0, 0.0, 0.0, 1.0), tol))
            assert got == want

    @pytest.mark.parametrize("t0, t1", [(0.0, TWO_PI), (1.0, -2.0)],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("rhs, y0", [
        (_theta_rhs, [math.atan2(0.5, -1.0)]), (_arg_rhs, [-1.0, 0.5])],
        ids=["theta", "arg"])
    @pytest.mark.parametrize("a", _WINDING_COEFFICIENTS,
                             ids=["a=1", "a=4", "1+0.5cos", "hill(0)"])
    def test_winding_systems(self, a, rhs, y0, t0, t1):
        got, want = _kernel_and_reference(
            lambda: integrate._dop853_floats(a, rhs, t0, t1, y0, 1e-10))
        assert got == want

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 4),
           t1=st.floats(-4.0, 4.0).filter(lambda t: abs(t) > 1e-3),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_random_linear_systems(self, data, n, t1, tol):
        # y' = (M + cos(w t) N) y from a random start, forward or backward
        entries = st.floats(-2.0, 2.0)
        m, nn = (data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)) for _ in "MN")
        y0 = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        w = data.draw(st.floats(0.0, 3.0))

        def rhs(g, y):
            return [sum((mij + g * nij) * yj
                        for mij, nij, yj in zip(mi, ni, y))
                    for mi, ni in zip(m, nn)]

        got, want = _kernel_and_reference(
            lambda: integrate._dop853_floats(lambda t: math.cos(w * t), rhs,
                                             0.0, t1, y0, tol))
        assert got == want


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
    return np.concatenate([(times[-1] - times[0]) / (1.0 - integrate._NODES[0])
                           for times in rows])


class TestLanes:
    def test_constant_coefficient_closed_form(self):
        # lanes of different stiffness finish at different step counts;
        # w = 1 is the constant coefficient a = 1, X(pi/2) = [[0, 1], [-1, 0]]
        w, t = np.array([0.5, 1.0, 2.0, 6.0]), 0.5 * math.pi
        ys, _ = _dop853_lanes(_identity, _oscillators(w), [t],
                              np.array([1.0, 0.0, 0.0, 1.0]), len(w),
                              tol=1e-10)
        x1, y1, x2, y2 = ys[0]
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

        ys, nfev = _dop853_lanes(_identity, rhs, [math.pi],
                                 np.array([1.0, 0.0, 0.0, 1.0]), 1, tol=1e-9)
        x1, y1, x2, y2 = ys[0, :, 0]
        assert nfev == calls == want_nfev
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

        out, nfev = _dop853_lanes(_identity, rhs, [math.pi],
                                  np.array([1.0, 0.0, 0.0, 1.0]), 3, tol=1e-9)
        assert nfev == calls == want_nfev
        np.testing.assert_array_equal(out[0][:, 1:],
                                      out[0][:, :1].repeat(2, 1))

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 1e-6])
    def test_initial_steps_follow_scipys_rule(self, tol):
        # reference: scipy's own rule, lane by lane; the lane form sums
        # the error norm in another order, so the last bits may differ
        from scipy.integrate._ivp.common import select_initial_step

        w = np.array([0.0, 0.5, 1.0, 6.0, 50.0])
        rhs, lanes = _oscillators(w), np.arange(len(w))
        y = np.repeat(np.array([[1.0], [0.0], [0.0], [1.0]]), len(w), axis=1)
        f = rhs(np.zeros(len(w)), y, lanes)
        got = integrate._initial_steps(lambda h, yh: rhs(h, yh, lanes), 1.0,
                                       y, f, tol)

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
        out, _ = _dop853_lanes(_identity, _oscillators(w), stops, y0, len(w),
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

        out, _ = _dop853_lanes(_identity, _oscillators(np.array([1.0, 3.0])),
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
            _dop853_lanes(_identity, rhs, [1.0], np.array([1.0]), 2, 1e-9)

    def test_nan_slope_raises_at_once(self, monkeypatch):
        # a NaN slope at t = 0 makes a NaN step size, an underflow; it used
        # to pass the "h < min" test and retry until the call cap
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 1000)
        calls = []

        def rhs(t, y, lanes):
            calls.append(t)
            return np.full_like(y, np.nan)

        with pytest.raises(StiffnessError, match="underflow"):
            _dop853_lanes(_identity, rhs, [1.0], np.array([1.0]), 2, 1e-9)
        assert len(calls) <= 2 + 2 * 12  # within two step attempts

    @pytest.mark.parametrize("tol", [1e-14, 1e-5])
    def test_tolerance_window_enforced(self, tol):
        with pytest.raises(ValueError, match="tol"):
            _dop853_lanes(_identity, _oscillators(np.ones(2)), [1.0],
                          np.array([1.0, 0.0, 0.0, 1.0]), 2, tol)

    def test_blow_up_raises_step_underflow(self):
        # y' = y^2 from y = 1 blows up at t = 1
        with pytest.raises(StiffnessError, match="underflow"):
            _dop853_lanes(_identity, lambda t, y, lanes: y * y, [2.0],
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

    @pytest.mark.parametrize("stops", [1.0, np.float64(1.0), [[1.0, 2.0]],
                                       np.array([[1.0], [2.0]])],
                             ids=["float", "0-d", "row", "column"])
    def test_stops_must_be_one_dimensional(self, stops):
        # one stop is the array [t]; the returned states always have a
        # stop axis first
        def refuse(*args):
            raise AssertionError("called before the stops were checked")

        with pytest.raises(ValueError, match="1-D"):
            _dop853_lanes(refuse, refuse, stops, np.array([1.0]), 2, 1e-9)

    @pytest.mark.parametrize("grid", [[(math.pi, 0.0)],
                                      [(math.pi, 0.0), (0.2, 0.1)]],
                             ids=["all-halted", "one-halted"])
    def test_no_call_sees_zero_lanes(self, grid):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN: a batch
        # whose every lane halts at its start makes no call after the start
        clock, rhs, halt = model._orbit_system(ModelParams(r=2.0 - 4e-10),
                                               0.0)
        widths = []

        def seen(fn):
            def wrapper(g, *args):
                widths.append((fn.__name__, args[-1].size))
                return fn(g, *args)
            return wrapper

        out, _ = _dop853_lanes(seen(clock), seen(rhs),
                               np.arange(1, 4) * TWO_PI, np.array(grid).T,
                               len(grid), 1e-8, halt=seen(halt))
        assert np.isnan(out[:, :, 0]).all()
        assert all(width > 0 for _, width in widths)
        if len(grid) == 1:
            assert [name for name, _ in widths] == ["clock", "rhs", "halt"]

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
                times[:-1], t[lanes] + integrate._NODES[:, None] * h)
            np.testing.assert_array_equal(end, times[-1])


def _spied(fn, calls, name):
    """``fn`` recording each of its calls under ``name`` in ``calls``."""
    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return spy


class TestReturnedCounts:
    """Every engine returns the right-hand-side calls it made."""

    def _lanes(self, clock, rhs, *args, **kwargs):
        calls = []
        out, nfev = _dop853_lanes(_spied(clock, calls, "clock"),
                                  _spied(rhs, calls, "rhs"), *args, **kwargs)
        return out, nfev, calls.count("clock"), calls.count("rhs")

    def test_batch_without_halt(self):
        w = np.array([0.5, 1.0, 2.0, 6.0])
        out, nfev, clocks, rhs_calls = self._lanes(
            _identity, _oscillators(w), np.array([1.0, 2.5]),
            np.array([1.0, 0.0, 0.0, 1.0]), len(w), 1e-10)
        assert np.isfinite(out).all()
        assert nfev == rhs_calls == 2 + 12 * (clocks - 2)

    def test_cloud_with_a_lane_halted_mid_run(self, monkeypatch):
        # an inflated guard halts the first orbit after two strobes, as in
        # TestClockSplit::test_strobed_orbits
        monkeypatch.setattr(model, "D_MIN", 0.3)
        clock, rhs, halt = model._orbit_system(ModelParams(1.9, 0.0), 0.0)
        initial = np.array([[math.pi - 0.5, 0.1, 0.3], [0.0, 0.0, 0.2]])
        out, nfev, clocks, rhs_calls = self._lanes(
            clock, rhs, np.arange(1, 11) * TWO_PI, initial, 3, 1e-8,
            halt=halt)
        reached = np.isfinite(out[:, 0])
        assert reached[:2, 0].all() and not reached[2:, 0].any()
        assert reached[:, 1:].all()
        assert nfev == rhs_calls == 2 + 12 * (clocks - 2)

    def test_batch_halted_at_its_start(self):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN
        clock, rhs, halt = model._orbit_system(ModelParams(r=2.0 - 4e-10),
                                               0.0)
        out, nfev, clocks, rhs_calls = self._lanes(
            clock, rhs, np.arange(1, 4) * TWO_PI,
            np.array([[math.pi, math.pi], [0.0, 0.1]]), 2, 1e-8, halt=halt)
        assert np.isnan(out).all()
        assert nfev == rhs_calls == clocks == 1

    @pytest.mark.parametrize("initial, r, eps, d_min, truncated", [
        ((0.4, 0.2, 0.0), 1.2, 0.0, model.D_MIN, False),
        ((math.pi - 0.05, 0.05, 2.0), 1.9, 0.0, 0.3, True),
        ((math.pi, 0.0, 0.0), 2.0 - 4e-10, 0.0, model.D_MIN, True),
        ((0.4, 0.2, 0.0), 1.2, 0.3, model.D_MIN, False),
    ], ids=["full", "halted-mid-run", "halted-at-start", "eccentric"])
    def test_orbit_takes_the_engines_count(self, monkeypatch, initial, r,
                                           eps, d_min, truncated):
        # the orbit's n_rhs is the count its engine returned, the lanes'
        # rhs calls on its one lane (the orbits of TestOrbit's two
        # truncation tests)
        monkeypatch.setattr(model, "D_MIN", d_min)
        counts, calls = [], []
        lanes = integrate._dop853_lanes

        def recorded(*args, **kwargs):
            out, nfev = lanes(*args, **kwargs)
            counts.append(nfev)
            return out, nfev

        def orbit_system(*args):
            clock, rhs, halt = model._orbit_system(*args)
            return clock, _spied(rhs, calls, "rhs"), halt

        monkeypatch.setattr(integrate, "_dop853_lanes", recorded)
        monkeypatch.setattr(integrate, "_orbit_system", orbit_system)
        monkeypatch.setattr(integrate, "tangential_force",
                            _spied(model.tangential_force, calls, "force"))
        traj = integrate_orbit(initial, TWO_PI, ModelParams(r, eps),
                               tol=1e-8)
        assert traj.truncated == truncated
        assert counts == [traj.n_rhs]
        assert calls == ["rhs"] * traj.n_rhs
        # only a start inside the guard ends at the start's slope
        assert (traj.n_rhs == 1) == (initial == (math.pi, 0.0, 0.0))


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

        ys, _ = _dop853_lanes(_identity, rhs,
                              [0.5 * coefficient_period(eps)],
                              np.array([1.0, 0.0, 0.0, 1.0]), rs.size, 1e-9)
        x1, y1, x2, y2 = ys[0]
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

        want, _ = _dop853_lanes(_identity, rhs, np.arange(1, 11) * TWO_PI,
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
        # the hill(0) winding over 2 pi from z0 = 1 takes 770 calls by
        # the theta route, 446 by the arg route
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


# Refuses every scipy module before the package is imported, so any
# import of one fails the run; the final look at ``sys.modules`` requires
# that none was loaded by other means either.
_REFUSE_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused")


sys.meta_path.insert(0, RefuseScipy())
"""


def _run_without_scipy(code: str, timeout: float) -> None:
    """Run ``code`` in a fresh interpreter that refuses scipy; require that
    it succeeds and leaves no ``scipy*`` module in ``sys.modules``."""
    code = (_REFUSE_SCIPY + code
            + "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = pathlib.Path(integrate.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestScipyImports:
    def test_cli_and_monodromies_load_no_scipy_solvers(self, tmp_path):
        # the DOP853 tableau is integrate's own, and the transition search
        # needs no root finder; orbits, sections and the symmetry check's
        # round trip run on the lane core.  The full verify and the winding
        # routes have a test of their own below.
        out = str(tmp_path / "out.csv")
        out_json = str(tmp_path / "out.json")
        _run_without_scipy(f"""
import math
from curved_sitnikov import cli, floquet, scan, verification
from curved_sitnikov.kepler import ModelParams
floquet.monodromy(math.pi, ModelParams(r=1.0))
scan.interchange_census(0.0, 0.99, 40)
assert scan.interchange_census(0.1, 0.99, 17).levels_completed == 4
scan.find_transitions(scan.trace_curve(math.pi, 0.0, [1.23, 1.24]))
assert scan.find_transitions(
    scan.trace_curve(math.pi, 0.1, [1.17, 1.19, 1.21])).transitions
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
assert cli.main(["verify", "--quick"]) in (cli.EXIT_OK, cli.EXIT_VERIFY)
assert verification.check_symmetries({{}})[0]
""", timeout=120)

    def test_verify_and_winding_load_no_scipy_solvers(self):
        # the winding routes step on _dop853_floats; verify runs them in
        # check 8
        _run_without_scipy("""
import math
from curved_sitnikov import cli, floquet
for method in ("theta", "arg"):
    floquet.winding_angle(lambda t: 4.0, 0.0, math.pi, 1j, method=method)
assert cli.main(["verify", "--json"]) in (cli.EXIT_OK, cli.EXIT_VERIFY)
""", timeout=300)

    def test_install_needs_numpy_only(self):
        # scipy is the tests' DOP853 oracle, not a runtime dependency
        with (pathlib.Path(integrate.__file__).parents[2]
              / "pyproject.toml").open("rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == ["numpy>=1.23"]
        assert "scipy>=1.10" in project["optional-dependencies"]["test"]

    def test_tables_equal_scipys(self):
        # every literal of the tableau is scipy's value by repr, and no
        # listed coefficient is zero; every dense form the lanes derive is
        # scipy's array to the bit (tobytes, so no -0.0 passes for 0.0)
        from scipy.integrate._ivp import dop853_coefficients as scipys

        def nonzero(weights):
            return [(j, repr(float(w))) for j, w in enumerate(weights) if w]

        def listed(pairs):
            return [(j, repr(w)) for j, w in pairs]

        assert ([repr(c) for c, _ in integrate._STAGES]
                == [repr(float(c)) for c in scipys.C[1:12]])
        for s, (_, row) in enumerate(integrate._STAGES, 1):
            assert listed(row) == nonzero(scipys.A[s, :s]), s
        for pairs, weights in ((integrate._WEIGHTS, scipys.B),
                               (integrate._E5_WEIGHTS, scipys.E5),
                               (integrate._E3_WEIGHTS, scipys.E3)):
            assert listed(pairs) == nonzero(weights)

        assert integrate._N_STAGES == scipys.N_STAGES
        derived = (*integrate._A_ROWS, integrate._NODES, integrate._E5,
                   integrate._E3)
        theirs = (*(scipys.A[s, :s] for s in range(scipys.N_STAGES)),
                  scipys.B, scipys.C[1:12], scipys.E5, scipys.E3)
        for ours, want in zip(derived, theirs, strict=True):
            assert ours.dtype == want.dtype
            assert ours.tobytes() == want.tobytes()


def test_fundamental_matrix_helpers():
    m = FundamentalMatrix(x1=2.0, x2=1.0, y1=3.0, y2=2.0, n_rhs=0)
    assert m.det == pytest.approx(1.0)
    assert m.half_trace == 2.0
    np.testing.assert_array_equal(m.as_array(), [[2.0, 1.0], [3.0, 2.0]])
