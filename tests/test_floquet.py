"""Monodromy classification, the batched antipode route, winding angles."""

import cmath
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from curved_sitnikov import floquet, kepler, scan, verification
from curved_sitnikov.kepler import ModelParams
from curved_sitnikov.model import HillCoefficient, hill_coefficient
from curved_sitnikov.integrate import (FundamentalMatrix, StiffnessError,
                                       integrate_variational)
from curved_sitnikov.cli import main
from curved_sitnikov.floquet import (DEFAULT_DELTA_PAR, ELLIPTIC, HYPERBOLIC,
                                     PARABOLIC, Monodromy, MonodromyError,
                                     _antipode_half_traces, classify,
                                     monodromy, ortega_hypotheses,
                                     winding_angle, winding_bound)
from curved_sitnikov.verification import check_wronskian_evenness

TWO_PI = 2.0 * math.pi
P10 = ModelParams(r=1.0, epsilon=0.0)


def synthetic(h, x2=1.0):
    """Unit-determinant matrix with half-trace h (x1 = y2 = h)."""
    y1 = (h * h - 1.0) / x2
    mat = FundamentalMatrix(x1=h, x2=x2, y1=y1, y2=h, n_rhs=0)
    return Monodromy(matrix=mat, period=TWO_PI)


class TestMonodromy:
    def test_negative_identity_at_resonant_radius(self):
        r = 2.0 ** (1.0 / 3.0)  # frequency sqrt(2/r^3) = 1
        m = monodromy(0.0, ModelParams(r=r), period=math.pi, tol=1e-11)
        np.testing.assert_allclose(m.matrix.as_array(),
                                   [[-1.0, 0.0], [0.0, -1.0]], atol=1e-9)

    def test_trace_at_unit_radius(self):
        m = monodromy(0.0, P10, period=math.pi, tol=1e-11)
        assert m.matrix.x1 + m.matrix.y2 == pytest.approx(
            2.0 * math.cos(math.sqrt(2.0) * math.pi), abs=1e-9)

    def test_even_coefficient_diagonal(self):
        m = monodromy(math.pi, P10, period=TWO_PI, tol=1e-10)
        assert m.matrix.x1 == pytest.approx(m.matrix.y2, abs=1e-9)

    def test_default_period_follows_eccentricity(self):
        assert monodromy(0.0, P10, tol=1e-10).period == math.pi
        assert monodromy(0.0, ModelParams(r=1.0, epsilon=0.1),
                         tol=1e-10).period == TWO_PI

    def test_half_period_needs_circular_primaries(self):
        with pytest.raises(ValueError):
            monodromy(0.0, ModelParams(r=1.0, epsilon=0.1), period=math.pi)
        with pytest.raises(ValueError):
            monodromy(0.0, P10, period=1.23)

    def test_analytic_half_trace_oracle(self):
        for r in (0.5, 1.0, 1.5, 1.9):
            m = monodromy(0.0, ModelParams(r=r), period=math.pi, tol=1e-11)
            expected = math.cos(math.pi * math.sqrt(2.0 / r**3))
            assert m.half_trace == pytest.approx(expected, abs=1e-8)

    def test_squared_matches_double_period(self):
        m_pi = monodromy(math.pi, P10, period=math.pi, tol=1e-11)
        m_2pi = monodromy(math.pi, P10, period=TWO_PI, tol=1e-11)
        x_pi = m_pi.matrix.as_array()
        np.testing.assert_allclose(x_pi @ x_pi, m_2pi.matrix.as_array(),
                                   atol=1e-8)

    @pytest.mark.parametrize("q_star", [0.0, math.pi], ids=["origin",
                                                            "antipode"])
    @pytest.mark.parametrize("eps, period, rs", [
        (0.0, math.pi, (0.5, 1.3, 1.9, 1.99)),
        (0.0, TWO_PI, (0.5, 1.3, 1.9, 1.99)),
        (0.3, TWO_PI, (0.5, 1.0, 1.5)),
    ], ids=["circular-pi", "circular-2pi", "eccentric-2pi"])
    def test_half_period_form_matches_full_period_solve(self, q_star, eps,
                                                        period, rs):
        # every entry, not only the half-trace; at tol 1e-12 the two
        # routes agree to about 4e-12 of the largest entry
        for r in rs:
            params = ModelParams(r=r, epsilon=eps)
            got = monodromy(q_star, params, period=period, tol=1e-12)
            want = integrate_variational(hill_coefficient(q_star, params),
                                         period, 1e-12).as_array()
            assert np.max(np.abs(got.matrix.as_array() - want)) <= \
                1e-10 * np.max(np.abs(want)), r

    @pytest.mark.parametrize("r", [1.0, 1.9, 1.999])
    def test_half_period_form_halves_the_work(self, r):
        # the full-period solve takes 230, 818 and 3686 calls here
        params = ModelParams(r=r)
        full = integrate_variational(hill_coefficient(math.pi, params),
                                     math.pi, 1e-9)
        m = monodromy(math.pi, params, tol=1e-9)
        assert m.matrix.n_rhs <= 0.6 * full.n_rhs

    def test_unit_determinant_for_computed_monodromies(self):
        for r in (0.3, 0.8, 1.3, 1.5):
            for eps in (0.0, 0.3):
                params = ModelParams(r=r, epsilon=eps)
                for q_star in (0.0, math.pi):
                    m = monodromy(q_star, params, tol=1e-10)
                    assert abs(m.det - 1.0) <= 1e-9


class TestAntipodeHalfTraces:
    """The census's batched half-period route against ``monodromy``."""

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_matches_full_period_monodromy(self, eps):
        rs = np.linspace(0.5, 0.999 * 2.0 / (1.0 + eps), 25)
        got = _antipode_half_traces(rs, eps, tol=1e-9)
        want = np.array([monodromy(math.pi, ModelParams(r=r, epsilon=eps),
                                   tol=1e-9).half_trace for r in rs])
        np.testing.assert_array_equal(np.abs(got) < 1.0, np.abs(want) < 1.0)
        assert np.all(np.abs(got - want)
                      <= 1e-7 * np.maximum(1.0, np.abs(want)))
        # both classes occur, so the class comparison decides something
        assert 0 < np.sum(np.abs(want) < 1.0) < len(rs)

    @pytest.mark.parametrize("width", [2, 5, 17])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_a_lane_keeps_its_bits_in_any_batch(self, eps, width):
        # 4-component lanes: BLAS rounds a stage sum of 4 or more columns
        # the same at every width (on one thread, and on two below about
        # 42,000 columns), so a radius gets the same bits alone and among
        # others; 2-component lanes do not (1-3 columns round apart)
        ceiling = 2.0 / (1.0 + eps)
        r = 0.8 * ceiling
        others = ceiling * np.linspace(0.4, 0.999, width - 1)
        at = (width - 1) // 2
        batch = np.insert(others, at, r)
        alone = _antipode_half_traces([r], eps, tol=1e-9)[0]
        assert _antipode_half_traces(batch, eps, tol=1e-9)[at] == alone

    def test_rejects_inadmissible_parameters(self):
        for rs, eps in (([1.0, 2.0], 0.0), ([0.0, 1.0], 0.0),
                        ([1.0], -0.1), ([1.0], 1.0)):
            with pytest.raises(ValueError):
                _antipode_half_traces(rs, eps, tol=1e-9)

    def test_corrupt_determinant_raises(self, monkeypatch):
        lanes = floquet._dop853_lanes

        def nan_in_lane_one(*args):
            y, nfev = lanes(*args)
            y[0, :, 1] = math.nan
            return y, nfev

        monkeypatch.setattr(floquet, "_dop853_lanes", nan_in_lane_one)
        with pytest.raises(MonodromyError, match="det=nan at r=1.1 "):
            _antipode_half_traces([1.0, 1.1, 1.2], 0.0, tol=1e-9)
        monkeypatch.undo()
        monkeypatch.setattr(floquet, "DET_CORRUPT_TOL", 0.0)
        with pytest.raises(MonodromyError, match="r=1.99"):
            _antipode_half_traces([1.0, 1.99], 0.0, tol=1e-9)

    def test_wronskian_audit_never_uses_lanes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit must use the scalar route")

        monkeypatch.setattr(floquet, "_antipode_half_traces", refuse)
        monkeypatch.setattr(scan, "_antipode_half_traces", refuse)
        _, detail = check_wronskian_evenness({"census_rs": [1.9, 1.95, 1.99]})
        assert detail.startswith("3 monodromies")

    def test_wronskian_audit_never_uses_monodromy(self, monkeypatch):
        # monodromy's half-period form makes x1 = y2 by construction
        def refuse(*args, **kwargs):
            raise AssertionError("the audit must solve the full period")

        monkeypatch.setattr(verification, "monodromy", refuse)
        monkeypatch.setattr(floquet, "monodromy", refuse)
        _, detail = check_wronskian_evenness({"census_rs": [1.9, 1.95, 1.99]})
        assert detail.startswith("3 monodromies")

    def test_wronskian_audit_measures_evenness(self):
        _, detail = check_wronskian_evenness({"census_rs": [1.9, 1.95, 1.99]})
        even = float(re.search(r"max \|x1-y2\| (\S+)", detail).group(1))
        assert even > 0.0, detail


class TestClassify:
    def test_origin_elliptic(self):
        m = monodromy(0.0, P10, period=math.pi, tol=1e-10)
        assert classify(m) == ELLIPTIC
        assert m.half_trace == pytest.approx(math.cos(math.sqrt(2) * math.pi),
                                             abs=1e-8)

    def test_antipode_hyperbolic(self):
        assert classify(monodromy(math.pi, P10, tol=1e-10)) == HYPERBOLIC

    def test_resonant_radius_parabolic_diagonal(self):
        for k in (1, 2):
            r = (2.0 / k**2) ** (1.0 / 3.0)
            m = monodromy(0.0, ModelParams(r=r), period=math.pi, tol=1e-10)
            assert classify(m) == PARABOLIC
            assert max(abs(m.matrix.x2), abs(m.matrix.y1)) <= \
                DEFAULT_DELTA_PAR

    def test_band_parameter_window(self):
        m = synthetic(0.5)
        with pytest.raises(ValueError):
            classify(m, delta_par=0.0)
        with pytest.raises(ValueError):
            classify(m, delta_par=1e-2)

    def test_corrupted_determinant_rejected(self):
        # half-trace 0.5 would read elliptic, but det = 0.25 is no
        # monodromy: building one raises, so classify never sees it
        mat = FundamentalMatrix(x1=0.5, x2=0.0, y1=0.0, y2=0.5, n_rhs=0)
        with pytest.raises(MonodromyError,
                           match="det=0.25 deviates from 1 beyond 1e-06"):
            Monodromy(matrix=mat, period=TWO_PI)
        # a NaN det fails the guard too, instead of reading hyperbolic
        mat = FundamentalMatrix(x1=math.nan, x2=0.0, y1=0.0, y2=1.0,
                                n_rhs=0)
        with pytest.raises(MonodromyError,
                           match="det=nan deviates from 1 beyond 1e-06"):
            Monodromy(matrix=mat, period=TWO_PI)

    def test_class_membership_stable_under_period_doubling(self):
        for r in (0.9, 1.3, 1.5, 1.95):
            c1 = classify(monodromy(math.pi, ModelParams(r=r),
                                    period=math.pi, tol=1e-10))
            c2 = classify(monodromy(math.pi, ModelParams(r=r),
                                    period=TWO_PI, tol=1e-10))
            if PARABOLIC not in (c1, c2):
                assert c1 == c2

    def test_json_record_schema(self, capsys):
        for qstar, cls, stable in (("pi", HYPERBOLIC, False),
                                   ("0", ELLIPTIC, True)):
            assert main(["floquet", "--qstar", qstar, "--r", "1.0"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert list(record) == ["config", "q_star", "r", "epsilon",
                                    "period", "half_trace", "class",
                                    "strongly_stable"]
            assert record["class"] == cls
            assert record["strongly_stable"] is stable
        # the elliptic origin: half-trace cos(sqrt(2) pi) at r = 1
        assert record["half_trace"] == pytest.approx(
            math.cos(math.sqrt(2) * math.pi), abs=1e-8)


class TestWinding:
    def test_unit_coefficient_half_turn(self):
        assert winding_angle(lambda t: 1.0, 0.0, math.pi,
                             1 + 0j) == pytest.approx(-math.pi, abs=1e-8)

    def test_unit_coefficient_full_turn_from_i(self):
        assert winding_angle(lambda t: 1.0, 0.0, TWO_PI,
                             1j) == pytest.approx(-TWO_PI, abs=1e-8)

    def test_fast_coefficient_bound(self):
        theta = winding_angle(lambda t: 4.0, 0.0, math.pi, 1 + 0j)
        assert -3.0 * math.pi <= theta <= -math.pi
        assert theta <= winding_bound(4.0, 0.0, math.pi)

    def test_routes_agree(self):
        hill = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
        coefficients = [lambda t: 1.0, lambda t: 4.0,
                        lambda t: 1.0 + 0.5 * math.cos(t), hill]
        for a in coefficients:
            for z0 in (1 + 0j, 1j, -1 + 0.5j):
                t1 = winding_angle(a, 0.0, TWO_PI, z0, method="theta")
                t2 = winding_angle(a, 0.0, TWO_PI, z0, method="arg")
                assert t1 == pytest.approx(t2, abs=1e-6)

    def test_bound_for_positive_coefficients(self):
        hill = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
        cases = [(lambda t: 1.0, 1.0),
                 (lambda t: 1.0 + 0.5 * math.cos(t), 0.5),
                 (hill, min(hill(t) for t in np.linspace(0, TWO_PI, 2001)))]
        for a, a_min in cases:
            for k in range(8):
                z0 = cmath.exp(1j * TWO_PI * k / 8.0)
                theta = winding_angle(a, 0.0, TWO_PI, z0)
                assert theta <= winding_bound(a_min, 0.0, TWO_PI)

    def test_arg_route_refines_coarse_samples(self, monkeypatch):
        # a = 100 turns the phase vector ten times in 2 pi, faster than the
        # solver's steps sample it, so the arg route refines once, forward
        # and backward
        unwrap, calls = np.unwrap, []

        def spy(phase):
            calls.append(len(phase))
            return unwrap(phase)

        monkeypatch.setattr(floquet.np, "unwrap", spy)
        for t0, t1 in [(0.0, TWO_PI), (TWO_PI, 0.0)]:
            calls.clear()
            for method in ("arg", "theta"):
                assert winding_angle(
                    lambda t: 100.0, t0, t1, 1 + 0j, tol=1e-10,
                    method=method) == pytest.approx(-10.0 * (t1 - t0),
                                                    abs=1e-6)
            assert len(calls) == 2 and calls[1] > calls[0]

    def test_arg_route_solves_each_midpoint_from_its_step(self, monkeypatch):
        # a = 100 over 2 pi: the solve's 187 step attempts make 2246
        # right-hand-side calls but 11 coefficient calls each, as stage 11
        # and the step's end share a time; each of its 15 midpoints is a
        # solve of its own from the start of the accepted step that covers
        # it, 2 coefficient calls for its start and initial step and 11 a
        # step attempt, 21 attempts in all
        solve, solves = floquet._dop853_floats, []

        def spy(clock, rhs, t0, t1, y0, tol):
            result = solve(clock, rhs, t0, t1, y0, tol)
            solves.append((t0, t1, list(result[0])))
            return result

        calls = []

        def a(t):
            calls.append(t)
            return 100.0

        monkeypatch.setattr(floquet, "_dop853_floats", spy)
        assert winding_angle(a, 0.0, TWO_PI, 1 + 0j, tol=1e-10,
                             method="arg") == pytest.approx(-20.0 * math.pi,
                                                            abs=1e-6)
        (_, _, ts), mids = solves[0], solves[1:]
        assert len(mids) == 15
        for t0, t1, _ in mids:
            k = ts.index(t0)
            assert ts[k] < t1 < ts[k + 1]
        # 21 accepted steps, so no attempt was rejected
        assert sum(len(steps) - 1 for _, _, steps in mids) == 21
        assert len(calls) == 2 + 11 * 187 + 2 * 15 + 11 * 21 == 2320

    def test_rejects_zero_phase(self):
        with pytest.raises(ValueError):
            winding_angle(lambda t: 1.0, 0.0, 1.0, 0j)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            winding_angle(lambda t: 1.0, 0.0, 1.0, 1 + 0j, method="bogus")

    def test_failed_solve_raises_stiffness(self):
        # a = 1 / (t - 1)^2 is singular at t = 1: scipy's solve stops short
        with pytest.raises(StiffnessError, match="step size"):
            winding_angle(lambda t: 1.0 / (t - 1.0) ** 2, 0.0, math.pi,
                          1 + 0j)

    @pytest.mark.parametrize("method", ["theta", "arg"])
    @pytest.mark.parametrize("t0, t1, z0", [
        (math.nan, 1.0, 1 + 0j), (0.0, math.inf, 1 + 0j),
        (-math.inf, 0.0, 1 + 0j), (0.0, 1.0, complex(math.inf, 0.0)),
        (0.0, 1.0, complex(1.0, math.nan))],
        ids=["t0-nan", "t1-inf", "t0-minus-inf", "z0-inf", "z0-nan"])
    def test_rejects_non_finite_inputs_before_any_work(self, t0, t1, z0,
                                                       method):
        def refuse(t):
            raise AssertionError("no coefficient call may be made")

        with pytest.raises(ValueError, match="must be finite"):
            winding_angle(refuse, t0, t1, z0, method=method)

    @pytest.mark.parametrize("method", ["theta", "arg"])
    def test_equal_endpoints_give_zero(self, method):
        assert winding_angle(lambda t: 1.0, 2.0, 2.0, 1j,
                             method=method) == 0.0

    @pytest.mark.parametrize("method", ["theta", "arg"])
    def test_backward_interval_closed_form(self, method):
        # a = 1 turns the phase vector at unit rate clockwise, so from
        # t0 = 1 back to t1 = 0 it winds +1
        assert winding_angle(lambda t: 1.0, 1.0, 0.0, 1 + 0j,
                             method=method) == pytest.approx(1.0, abs=1e-8)

    def test_inputs_that_never_returned_end_in_a_subprocess(self):
        # without the input checks, and with a NaN step size taken as a
        # step, the arg route never returns for t1 = inf or a NaN
        # coefficient
        code = """
import math
from curved_sitnikov.floquet import winding_angle
from curved_sitnikov.integrate import StiffnessError
for method in ("theta", "arg"):
    try:
        winding_angle(lambda t: 1.0, 0.0, math.inf, 1 + 0j, method=method)
    except ValueError as exc:
        print(method, "inf", type(exc).__name__)
    try:
        winding_angle(lambda t: math.nan, 0.0, 1.0, 1 + 0j, method=method)
    except StiffnessError as exc:
        print(method, "nan", type(exc).__name__)
"""
        src = pathlib.Path(floquet.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout.split("\n") == [
            "theta inf ValueError", "theta nan StiffnessError",
            "arg inf ValueError", "arg nan StiffnessError", ""]

    @pytest.mark.parametrize("method", ["theta", "arg"])
    @pytest.mark.parametrize("tol", [1e-2, 1e-20])
    def test_tolerance_window_enforced(self, tol, method):
        with pytest.raises(ValueError, match="tol"):
            winding_angle(lambda t: 1.0, 0.0, 1.0, 1 + 0j, tol=tol,
                          method=method)

    def test_regression_cosine_coefficient(self):
        # frozen from a cross-checked run of both routes
        theta = winding_angle(lambda t: 1.0 + 0.5 * math.cos(t), 0.0, TWO_PI,
                              1 + 0.5j)
        assert theta == pytest.approx(-6.000387666, abs=1e-6)

    @pytest.mark.parametrize("z0", [cmath.exp(1j * TWO_PI * 7 / 8),
                                    cmath.exp(-0.25j * math.pi)],
                             ids=["seven-eighths-turn", "minus-quarter-pi"])
    def test_theta_route_rejects_a_step_its_angle_estimate_misses(self, z0):
        # a = 100 from exp(2 pi i 7/8): an angle-only route accepts one
        # step at t = 5.9466 whose one-component E5/E3 norm is near a zero
        # (0.34 where a step 1% shorter reads 160) and ends 1.9e-3 off;
        # the amplitude's share of the norm rejects it
        assert winding_angle(lambda t: 100.0, 0.0, TWO_PI, z0,
                             tol=1e-10) == pytest.approx(-20.0 * math.pi,
                                                         abs=1e-7)

    @pytest.mark.parametrize("method", ["theta", "arg"])
    def test_hill_winding_matches_a_tight_solve(self, method):
        # the gap-geometry winding of bench seed 1470 whose theta route an
        # angle-only t-time solve left 7.35e-7 off
        hill = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
        z0 = cmath.exp(5.399578268904728j)
        want = winding_angle(hill, 0.0, TWO_PI, z0, tol=1e-13, method=method)
        assert winding_angle(hill, 0.0, TWO_PI, z0, tol=1e-10,
                             method=method) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("method", ["theta", "arg"])
    def test_hill_coefficient_winds_in_eccentric_anomaly(self, monkeypatch,
                                                         method):
        # two Kepler solves map the window's ends; no step calls the
        # coefficient, which would solve Kepler's equation each time
        kepler_calls, hill_calls = [], []
        solve, call = kepler.solve_kepler, HillCoefficient.__call__

        def counted_solve(*args):
            kepler_calls.append(args)
            return solve(*args)

        def counted_call(self, t):
            hill_calls.append(t)
            return call(self, t)

        monkeypatch.setattr(kepler, "solve_kepler", counted_solve)
        monkeypatch.setattr(HillCoefficient, "__call__", counted_call)
        hill = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
        winding_angle(hill, 0.0, TWO_PI, 1 + 0j, method=method)
        assert (len(kepler_calls), len(hill_calls)) == (2, 0)

    @pytest.mark.parametrize("method", ["theta", "arg"])
    @pytest.mark.parametrize("q_star, r", [(0.0, 1.0), (math.pi, 1.3)])
    def test_circular_hill_coefficient_keeps_the_plain_bits(self, q_star, r,
                                                            method):
        # at eps = 0 the eccentric anomaly is t and rho is 1.0, so the
        # clock (rho, rho a) is the plain coefficient's (1.0, a(t))
        hill = hill_coefficient(q_star, ModelParams(r=r))
        got, want = (repr(winding_angle(a, 0.0, TWO_PI, -1 + 0.5j,
                                        method=method))
                     for a in (hill, lambda t: hill(t)))
        assert got == want

    @pytest.mark.parametrize("a_min, t0, t1, named", [
        (1.0, TWO_PI, 0.0, "t1=0.0"), (1.0, 0.0, math.inf, "t1=inf"),
        (1.0, math.nan, 1.0, "t0=nan"), (math.nan, 0.0, 1.0, "a_min=nan"),
        (-1.0, 0.0, 1.0, "a_min=-1.0"), (math.inf, 0.0, 1.0, "a_min=inf")],
        ids=["backward", "t1-inf", "t0-nan", "a_min-nan", "a_min-negative",
             "a_min-inf"])
    def test_bound_refuses_what_it_does_not_bound(self, a_min, t0, t1,
                                                  named):
        # over [2 pi, 0], a = 1 + 99 sin^2 t winds +40.1, and the formula
        # would give 9.42
        with pytest.raises(ValueError, match=re.escape(named)):
            winding_bound(a_min, t0, t1)


def _hill_determinant_half_trace(r: float, n: int) -> float:
    """Half-trace of the antipode's eps-0 monodromy from Hill's determinant.

    ``a(t) = theta_0 + 2 sum theta_k cos 2kt`` with ``theta_k`` from an FFT
    of 512 samples over one period; ``h = 1 - 2 Delta(0)
    sin^2(pi sqrt(theta_0) / 2)``, ``Delta(0)`` the ``(2n+1)^2`` Hill
    determinant with entries ``theta_|j-k| / (theta_0 - 4 j^2)`` and a unit
    diagonal (Whittaker and Watson, *Modern Analysis*, 19.42).  No time
    stepping, so it shares no code with the integrators; ``theta_0 < 0``
    at small ``r`` takes the complex square root.
    """
    a = hill_coefficient(math.pi, ModelParams(r=r))
    samples = [a(t) for t in np.arange(512) * (math.pi / 512)]
    theta = np.fft.rfft(samples).real / 512
    ks = np.arange(-n, n + 1)
    hill = (theta[np.abs(ks[:, None] - ks[None, :])]
            / (theta[0] - 4.0 * ks[:, None] ** 2))
    np.fill_diagonal(hill, 1.0)
    sign, log_det = np.linalg.slogdet(hill)
    s = cmath.sin(0.5 * math.pi * cmath.sqrt(theta[0]))
    return (1.0 - 2.0 * sign * math.exp(log_det) * s * s).real


class TestHillDeterminant:
    """A code-disjoint oracle for the antipode's eps-0 half-trace.

    Against ``monodromy(..., tol=1e-12)`` at ``n = 64`` the relative gap is
    1.4e-12 at r = 0.5 and 4.5e-11 at r = 1.0, where it is gated.  It
    shrinks only about 8-fold per doubling of ``n`` and stops being an
    oracle farther out: 1.7e-7 at r = 1.5 and 1.2e-3 at r = 1.9.
    """

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_half_trace(self, r):
        want = monodromy(math.pi, ModelParams(r=r), tol=1e-12).half_trace
        got = _hill_determinant_half_trace(r, 64)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_first_transition(self):
        # bisection on |h| = 1; verification's check 4 pins the published
        # 1.2472 and fails, where three methods agree on 1.2349417829773
        def hyperbolic(r):
            return abs(_hill_determinant_half_trace(r, 32)) > 1.0

        lo, hi = 1.23, 1.24
        lo_side = hyperbolic(lo)
        assert hyperbolic(hi) != lo_side
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if hyperbolic(mid) == lo_side:
                lo = mid
            else:
                hi = mid
        curve = scan.trace_curve(math.pi, 0.0, [1.23, 1.24], tol=1e-12)
        (bracket,) = [t["r_bracket"]
                      for t in scan.find_transitions(
                          curve, refine_tol=1e-12).transitions]
        assert abs(hi - 0.5 * sum(bracket)) <= 1e-9


class TestOrtega:
    def test_unit_radius_passes(self):
        res = ortega_hypotheses(P10)
        assert res["passed"]
        assert res["classification"] == ELLIPTIC
        assert res["cubic_min"] > 0.0

    def test_parabolic_resonance_still_passes(self):
        r = (2.0) ** (1.0 / 3.0)
        res = ortega_hypotheses(ModelParams(r=r))
        assert res["classification"] == PARABOLIC
        assert res["passed"]  # diagonal monodromy keeps the linear part stable

    def test_rejects_eccentric(self):
        with pytest.raises(ValueError):
            ortega_hypotheses(ModelParams(r=1.0, epsilon=0.2))
