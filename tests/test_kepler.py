"""Eccentric-anomaly solver and primary ephemeris."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_sitnikov import kepler
from curved_sitnikov.kepler import (ModelParams, ephemeris, primary_positions,
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


def test_rejects_bad_eccentricity():
    with pytest.raises(ValueError):
        solve_kepler(1.0, 1.0)
    with pytest.raises(ValueError):
        solve_kepler(1.0, -0.1)


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

    def test_derivatives_match_finite_differences(self):
        eps, t, h = 0.3, 0.9, 1e-5
        rho, rho_d, rho_dd = radial_factor_derivatives(t, eps)
        rp = radial_factor(t + h, eps)
        rm = radial_factor(t - h, eps)
        assert rho_d == pytest.approx((rp - rm) / (2 * h), abs=1e-9)
        assert rho_dd == pytest.approx((rp - 2 * rho + rm) / h**2, abs=1e-5)


class TestPrimaryPositions:
    def test_circular_epoch_zero(self):
        x1, x2 = primary_positions(0.0, ModelParams(r=1.0))
        np.testing.assert_allclose(x1, [0.0, 2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(x2, [0.0, 0.0, 0.0], atol=1e-15)

    def test_circular_quarter_period(self):
        x1, x2 = primary_positions(math.pi / 2.0, ModelParams(r=1.0))
        np.testing.assert_allclose(x1, [1.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(x2, [-1.0, 1.0, 0.0], atol=1e-15)

    def test_pericenter_geometry(self):
        x1, x2 = primary_positions(0.0, ModelParams(r=1.0, epsilon=0.3))
        np.testing.assert_allclose(x1, [0.0, 1.7, 0.0], atol=1e-13)
        np.testing.assert_allclose(x2, [0.0, 0.3, 0.0], atol=1e-13)

    def test_center_of_mass(self):
        params = ModelParams(r=1.3, epsilon=0.45)
        for t in np.linspace(0.0, TWO_PI, 40):
            x1, x2 = primary_positions(float(t), params)
            np.testing.assert_allclose(x1 + x2, [0.0, 2.0, 0.0], atol=1e-14)


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

    def test_high_eccentricity_flag(self):
        assert not ModelParams(r=0.5, epsilon=0.6).high_eccentricity
        assert ModelParams(r=0.5, epsilon=0.67).high_eccentricity


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
    x1, x2 = primary_positions(2.2, ModelParams(r=1.2, epsilon=0.4))
    assert np.array_equal(e.x1, x1) and np.array_equal(e.x2, x2)
