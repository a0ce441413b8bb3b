"""Eccentric-anomaly solver and primary ephemeris."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_sitnikov import kepler
from curved_sitnikov.kepler import (KeplerConvergenceError, ModelParams,
                                    _anomaly_geometry, _positions,
                                    _solve_kepler_array, ephemeris,
                                    radial_factor, radial_factor_derivatives,
                                    solve_kepler)

TWO_PI = 2.0 * math.pi

# Independent bisection oracle value for (M=1.0, eps=0.3), computed by
# halving [0, 2*pi] to a 1e-12 residual before this solver existed.
U_ORACLE_M1_E03 = 1.2880913132118375


def test_zero_mean_anomaly_is_fixed_point():
    assert solve_kepler(0.0, 0.3) == 0.0


def test_circular_case_is_identity():
    assert solve_kepler(1.0, 0.0) == 1.0


def test_pi_is_fixed_point():
    assert solve_kepler(math.pi, 0.5) == pytest.approx(math.pi, abs=1e-13)


def test_against_bisection_oracle():
    assert solve_kepler(1.0, 0.3) == pytest.approx(U_ORACLE_M1_E03, abs=1e-11)


def test_residual_grid():
    worst = 0.0
    for m in np.linspace(0.0, TWO_PI, 100, endpoint=False):
        for eps in np.linspace(0.0, 0.9, 20):
            u = solve_kepler(float(m), float(eps))
            worst = max(worst, abs(u - eps * math.sin(u) - m))
    assert worst < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.floats(-20.0, 20.0), eps=st.floats(0.0, 0.95))
def test_residual_property(m, eps):
    u = solve_kepler(m, eps)
    assert abs(u - eps * math.sin(u) - m) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.floats(1e-6, TWO_PI - 1e-6), eps=st.floats(0.0, 0.9))
def test_mirror_symmetry(m, eps):
    u1 = solve_kepler(m, eps)
    u2 = solve_kepler(TWO_PI - m, eps)
    assert u1 + u2 == pytest.approx(TWO_PI, abs=1e-11)


def test_monotone_and_continuous_in_mean_anomaly():
    eps = 0.7
    ms = np.linspace(-TWO_PI, 2.0 * TWO_PI, 400)
    us = [solve_kepler(float(m), eps) for m in ms]
    assert all(b > a for a, b in zip(us, us[1:]))
    # branch restoration: u - M stays bounded by eps
    assert max(abs(u - m) for u, m in zip(us, ms)) <= eps + 1e-12


def test_newton_step_outside_the_bracket_bisects(monkeypatch):
    # at eps 0.99 and M = 0.0423 the Newton step from u0 = M + eps sin M
    # overshoots pi, so the guard takes the midpoint of the bracket
    # [u0, pi] instead; the iterates are the arguments of math.sin
    iterates = []

    def sin(u):
        iterates.append(u)
        return math.sin(u)

    monkeypatch.setattr(kepler, "math", SimpleNamespace(
        sin=sin, cos=math.cos, fmod=math.fmod, pi=math.pi))
    m, eps = 0.0423, 0.99
    u = solve_kepler(m, eps)
    u0 = iterates[1]  # iterates[0] is M itself, for the start value
    assert u0 == m + eps * math.sin(m)
    assert u0 - eps * math.sin(u0) < m  # so the bracket is [u0, pi]
    assert u0 - (u0 - eps * math.sin(u0) - m) / (1 - eps * math.cos(u0)) \
        > math.pi
    assert iterates[2] == 0.5 * (u0 + math.pi)
    assert abs(u - eps * math.sin(u) - m) < kepler.KEPLER_TOL


def test_rejects_bad_eccentricity():
    with pytest.raises(ValueError):
        solve_kepler(1.0, 1.0)
    with pytest.raises(ValueError):
        solve_kepler(1.0, -0.1)


# 0.99 reaches the bisection guard (see the test above)
ECCENTRICITIES = [0.0, 0.05, 0.3, 0.6, 0.9, 0.95, 0.99]


class TestArraySolve:
    """``_solve_kepler_array`` against ``solve_kepler``, element by element."""

    # negative, past 2 pi, the exact multiples of pi and 2 pi, the fold's
    # edge and the smallest subnormals
    GRID = np.concatenate([
        np.linspace(-20.0, 20.0, 801), np.arange(-6, 7) * math.pi,
        np.arange(-3, 4) * TWO_PI,
        [0.0, -0.0, 5e-324, -5e-324, math.pi - 1e-15, math.pi + 1e-15,
         TWO_PI - 1e-15, 1e6, -1e6]])

    @pytest.mark.parametrize("eps", ECCENTRICITIES)
    def test_equals_scalar_solves_bit_for_bit(self, eps):
        ms = self.GRID.reshape(-1, 2)
        got = _solve_kepler_array(ms, eps)
        assert got.shape == ms.shape
        want = [solve_kepler(float(m), eps) for m in ms.flat]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("eps", ECCENTRICITIES)
    def test_zero_d_and_empty_inputs(self, eps):
        for m in (1.0, np.float64(-7.5), np.array(2.0 * math.pi)):
            got = _solve_kepler_array(m, eps)
            assert got.shape == ()
            assert got.tobytes() == np.float64(solve_kepler(float(m),
                                                            eps)).tobytes()
        for ms in (np.array([]), np.zeros((0, 3))):
            assert _solve_kepler_array(ms, eps).shape == ms.shape

    @pytest.mark.parametrize("eps", ECCENTRICITIES)
    def test_non_finite_anomalies_as_the_scalar_solve(self, eps):
        # NaN gives NaN and leaves its neighbours alone; an infinite M is
        # the identity at eps = 0 and math.fmod's ValueError otherwise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = np.array([1.0, math.nan, -4.0, math.nan])
            got = _solve_kepler_array(ms, eps)
            want = [solve_kepler(float(m), eps) for m in ms]
            assert np.isnan(want[1]) and np.isnan(want[3])
            assert np.array_equal(got, want, equal_nan=True)
            for m in (math.inf, -math.inf):
                ms = np.array([0.5, m])
                if eps == 0.0:
                    assert solve_kepler(m, eps) == m
                    assert _solve_kepler_array(ms, eps)[1] == m
                else:
                    with pytest.raises(ValueError):
                        solve_kepler(m, eps)
                    with pytest.raises(ValueError):
                        _solve_kepler_array(ms, eps)

    def test_both_solves_raise_when_out_of_iterations(self, monkeypatch):
        monkeypatch.setattr(kepler, "KEPLER_MAX_ITER", 1)
        with pytest.raises(KeplerConvergenceError):
            solve_kepler(1.0, 0.9)
        with pytest.raises(KeplerConvergenceError):
            _solve_kepler_array(np.array([0.0, 1.0, 2.0]), 0.9)
        # M = 0 converges at the start, so one iteration is enough
        assert _solve_kepler_array(np.array([0.0, math.pi]), 0.9)[0] == 0.0

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_a_lowered_cap_keeps_every_scalar_solve(self, monkeypatch, cap):
        # under a cap of a few iterations many anomalies converge only at
        # the check after the loop; the array solve keeps each of them
        monkeypatch.setattr(kepler, "KEPLER_MAX_ITER", cap)
        for eps in (0.3, 0.9, 0.99):
            solved = []
            for m in self.GRID:
                try:
                    solved.append((m, solve_kepler(float(m), eps)))
                except KeplerConvergenceError:
                    pass
            ms, us = np.array(solved).T
            assert ms.size > 0
            assert _solve_kepler_array(ms, eps).tobytes() == us.tobytes()

    def test_rejects_bad_eccentricity(self):
        for eps in (1.0, -0.1):
            with pytest.raises(ValueError):
                _solve_kepler_array(np.array([1.0]), eps)


class TestRadialFactor:
    def test_pericenter(self):
        assert radial_factor(0.0, 0.3) == pytest.approx(0.7, abs=1e-13)

    def test_circular(self):
        assert radial_factor(1.2345, 0.0) == 1.0

    def test_apocenter(self):
        assert radial_factor(math.pi, 0.3) == pytest.approx(1.3, abs=1e-13)

    def test_range(self):
        eps = 0.6
        for t in np.linspace(0.0, TWO_PI, 50):
            rho = radial_factor(float(t), eps)
            assert 1.0 - eps - 1e-12 <= rho <= 1.0 + eps + 1e-12

    def test_derivatives_of_an_array_equal_float_calls(self):
        ts = np.linspace(-4.0, 9.0, 40).reshape(5, 8)
        jets = radial_factor_derivatives(ts, 0.6)
        floats = [radial_factor_derivatives(float(t), 0.6) for t in ts.flat]
        for k, jet in enumerate(jets):
            assert jet.shape == ts.shape
            assert jet.tobytes() == np.array([f[k] for f in floats]).tobytes()

    def test_derivatives_match_finite_differences(self):
        eps, t, h = 0.3, 0.9, 1e-5
        rho, rho_d, rho_dd = radial_factor_derivatives(t, eps)
        rp = radial_factor(t + h, eps)
        rm = radial_factor(t - h, eps)
        assert rho_d == pytest.approx((rp - rm) / (2 * h), abs=1e-9)
        assert rho_dd == pytest.approx((rp - 2 * rho + rm) / h**2, abs=1e-5)


class TestAnomalyGeometry:
    @pytest.mark.parametrize("u", [
        1.25, np.array([-7.0, 0.0, 5e-324, 1e6]),
        np.linspace(-1.0, 40.0, 12).reshape(3, 4)],
        ids=["scalar-u", "1d-u", "2d-u"])
    @pytest.mark.parametrize("r", [1.9, np.array([0.5, 1.0, 1.5, 1.999])],
                             ids=["scalar-r", "array-r"])
    def test_circular_takes_no_trigonometry_and_the_same_bits(self, u, r):
        # the shortcut returns rho = 1, a = r, t = u; the general formula
        # at eps = 0 rounds to exactly these
        eps = 0.0
        rho = 1.0 - eps * np.cos(u)
        want = (rho, r * rho, u - eps * np.sin(u))
        for got, expected in zip(_anomaly_geometry(u, r, eps), want):
            assert np.shape(got) == np.shape(expected)
            assert (np.asarray(got, dtype=float).tobytes()
                    == np.asarray(expected).tobytes())


class TestPrimaryPositions:
    def test_circular_epoch_zero(self):
        e = ephemeris(0.0, ModelParams(r=1.0))
        np.testing.assert_allclose(e.x1, [0.0, 2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(e.x2, [0.0, 0.0, 0.0], atol=1e-15)

    def test_circular_quarter_period(self):
        e = ephemeris(math.pi / 2.0, ModelParams(r=1.0))
        np.testing.assert_allclose(e.x1, [1.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(e.x2, [-1.0, 1.0, 0.0], atol=1e-15)

    def test_pericenter_geometry(self):
        e = ephemeris(0.0, ModelParams(r=1.0, epsilon=0.3))
        np.testing.assert_allclose(e.x1, [0.0, 1.7, 0.0], atol=1e-13)
        np.testing.assert_allclose(e.x2, [0.0, 0.3, 0.0], atol=1e-13)

    def test_center_of_mass(self):
        params = ModelParams(r=1.3, epsilon=0.45)
        for t in np.linspace(0.0, TWO_PI, 40):
            e = ephemeris(float(t), params)
            np.testing.assert_allclose(e.x1 + e.x2, [0.0, 2.0, 0.0],
                                       atol=1e-14)


class TestModelParams:
    def test_collision_exclusion(self):
        with pytest.raises(ValueError):
            ModelParams(r=2.0, epsilon=0.0)
        with pytest.raises(ValueError):
            ModelParams(r=1.7, epsilon=0.2)  # ceiling 2/1.2
        with pytest.raises(ValueError):
            ModelParams(r=0.0)
        ModelParams(r=1.66, epsilon=0.2)

    def test_eccentricity_window(self):
        with pytest.raises(ValueError):
            ModelParams(r=0.5, epsilon=1.0)
        with pytest.raises(ValueError):
            ModelParams(r=0.5, epsilon=-0.01)


def test_ephemeris_record():
    params = ModelParams(r=1.2, epsilon=0.4)
    e = ephemeris(2.2, params)
    assert e.u - params.epsilon * math.sin(e.u) == pytest.approx(2.2, abs=1e-12)
    assert 1.0 - 0.4 <= e.rho <= 1.0 + 0.4
    np.testing.assert_allclose(e.x1 + e.x2, [0.0, 2.0, 0.0], atol=1e-14)


def test_ephemeris_solves_kepler_once(monkeypatch):
    calls = []

    def counting(m, eps):
        calls.append(m)
        return solve_kepler(m, eps)

    monkeypatch.setattr(kepler, "solve_kepler", counting)
    e = ephemeris(2.2, ModelParams(r=1.2, epsilon=0.4))
    assert len(calls) == 1
    x1, x2 = _positions(2.2, 1.2 * radial_factor(2.2, 0.4))
    assert np.array_equal(e.x1, x1) and np.array_equal(e.x2, x2)
