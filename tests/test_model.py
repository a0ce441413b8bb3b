"""Force law, linearization coefficients, symmetries, limits; a potential
from the ephemeris as the force's oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curved_sitnikov.kepler import (ModelParams, collision_ceiling, ephemeris,
                                    radial_factor)
from curved_sitnikov.model import (D_MIN, CollisionError, HillCoefficient,
                                   _anomaly_hill_clock, _antipode_dforce_dq,
                                   coefficient_period, cubic_coefficient,
                                   hill_coefficient, limit_force_circle,
                                   symmetry_defect, tangential_force)

TWO_PI = 2.0 * math.pi
P10 = ModelParams(r=1.0, epsilon=0.0)

# Sign-criterion threshold for the antipode: largest r with a
# non-negative linearization coefficient for all t.
R_SIGN = math.sqrt(math.sqrt(17.0) - 3.0)


def potential(q: float, t: float, params: ModelParams) -> float:
    """Gravitational potential ``V = -(1/d1 + 1/d2)``, so ``f = -dV/dq``.

    The distances come from the primaries' ephemeris positions and the
    particle at ``(0, cos q, sin q)``, not from the force's own formula.
    """
    e = ephemeris(t, params)
    x = np.array([0.0, math.cos(q), math.sin(q)])
    return -(1.0 / np.linalg.norm(x - e.x1) + 1.0 / np.linalg.norm(x - e.x2))


def comparison_force_circle(q: float, R: float) -> float:
    """Arc-length variant of the fused-mass force, ``-1/(Rq^2) + 1/(R(2pi-q)^2)``."""
    if not 0.0 < q < TWO_PI:
        raise CollisionError(1, min(abs(q), abs(TWO_PI - q)) * R)
    return -1.0 / (R * q * q) + 1.0 / (R * (TWO_PI - q) ** 2)


def arc_length_force(w: float, t: float, R: float, r: float) -> float:
    """Force at arc length ``w`` on a circle of radius ``R``, binary ``r``.

    The unit-circle force at ``q = w/R`` and ``r/R``, scaled by ``1/R^2``;
    as ``R`` grows it approaches the flat ``-2 w / (r^2 + w^2)^{3/2}``.
    """
    return tangential_force(w / R, t, ModelParams(r=r / R)) / R**2


class TestTangentialForce:
    def test_equilibria(self):
        for params in (P10, ModelParams(r=0.7, epsilon=0.4)):
            for t in (0.0, 1.0, 4.0):
                assert tangential_force(0.0, t, params) == 0.0
                assert abs(tangential_force(math.pi, t, params)) < 1e-15

    def test_quarter_circle_value(self):
        # d1^2 = 5, d2^2 = 1 at (q=pi/2, t=0, r=1, eps=0)
        expected = -2.0 * 5.0**-1.5
        assert tangential_force(math.pi / 2.0, 0.0, P10) == pytest.approx(
            expected, abs=1e-15)

    def test_matches_potential_gradient(self):
        h = 1e-6
        cases = [ModelParams(1.0, 0.0), ModelParams(1.5, 0.2),
                 ModelParams(0.5, 0.6)]
        for params in cases:
            for q in np.linspace(0.15, TWO_PI - 0.15, 20):
                for t in np.linspace(0.0, TWO_PI, 20):
                    f = tangential_force(float(q), float(t), params)
                    grad = -(potential(float(q) + h, float(t), params)
                             - potential(float(q) - h, float(t), params)) / (2 * h)
                    assert f == pytest.approx(grad, rel=1e-6, abs=1e-9)

    def test_oddness_exact(self):
        params = ModelParams(r=1.5, epsilon=0.2)
        for q in (0.3, 1.1, 2.9, 4.0):
            for t in (0.0, 0.7, 3.2):
                assert tangential_force(-q, t, params) == -tangential_force(
                    q, t, params)

    def test_periodicity(self):
        params = ModelParams(r=1.5, epsilon=0.2)
        for q in (0.3, 2.0):
            for t in (0.1, 2.2, 5.0):
                assert tangential_force(q, t + TWO_PI, params) == pytest.approx(
                    tangential_force(q, t, params), abs=1e-12)
        # circular primaries: half-period symmetry
        for q in (0.3, 2.0):
            for t in (0.1, 2.2):
                assert tangential_force(q, t + math.pi, P10) == pytest.approx(
                    tangential_force(q, t, P10), abs=1e-14)

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_keeps_the_two_term_bits(self, eps):
        # the textbook spelling the doubled time terms must reproduce
        def two_term(q, t, params):
            a = params.r * radial_factor(t, params.epsilon)
            c, gap = a * math.cos(t), 2.0 * (1.0 - math.cos(q))
            d1 = math.sqrt(a * a + gap * (1.0 + c))
            d2 = math.sqrt(a * a + gap * (1.0 - c))
            sin_q = math.sin(q)
            return -(1.0 + c) * sin_q / d1**3 - (1.0 - c) * sin_q / d2**3

        qs = np.concatenate((np.linspace(-TWO_PI, TWO_PI, 37),
                             math.pi + np.linspace(-1e-3, 1e-3, 21)))
        for fraction in (0.1, 0.5, 0.9, 0.99, 0.9999):
            params = ModelParams(fraction * collision_ceiling(eps), eps)
            for q in qs.tolist():
                for t in np.linspace(-1.0, 7.0, 33).tolist():
                    assert tangential_force(q, t, params) == two_term(
                        q, t, params)

    def test_collision_guard_names_primary(self):
        # at t = pi primary 1 sits at the antipode once r reaches 2
        with pytest.raises(CollisionError) as err:
            tangential_force(math.pi, math.pi, ModelParams(r=2.0 - 1e-10))
        assert err.value.primary == 1
        assert "primary 1" in str(err.value)

    def test_collision_guard_names_far_primary(self):
        # at t = 0 primary 2 sits at the antipode once r reaches 2
        with pytest.raises(CollisionError) as err:
            tangential_force(math.pi, 0.0, ModelParams(r=2.0 - 1e-10))
        assert err.value.primary == 2
        assert "primary 2" in str(err.value)


class TestPotential:
    def test_antipode_value(self):
        # d1 = 2+r, d2 = 2-r at (q=pi, t=0, eps=0) ... here 3 and 1
        assert potential(math.pi, 0.0, P10) == pytest.approx(-4.0 / 3.0,
                                                             abs=1e-14)

    def test_origin_value(self):
        assert potential(0.0, 0.0, P10) == pytest.approx(-2.0, abs=1e-14)

    def test_quarter_value(self):
        expected = -(5.0**-0.5 + 1.0)
        assert potential(math.pi / 2.0, 0.0, P10) == pytest.approx(expected,
                                                                   abs=1e-14)


def dforce_dq(q_star: float, t: float, params: ModelParams) -> float:
    """``df/dq`` at an equilibrium, the Hill coefficient's negative."""
    return -hill_coefficient(q_star, params)(t)


class TestLinearization:
    def test_origin_closed_form(self):
        assert dforce_dq(0.0, 0.123, P10) == pytest.approx(-2.0, abs=1e-14)
        params = ModelParams(r=1.0, epsilon=0.3)
        assert dforce_dq(0.0, 0.0, params) == pytest.approx(-2.0 / 0.7**3,
                                                            abs=1e-12)

    def test_antipode_quarter_phase(self):
        for r in (0.5, 1.0, 1.5):
            params = ModelParams(r=r)
            expected = 2.0 / (r * r + 4.0) ** 1.5
            assert dforce_dq(math.pi, math.pi / 2.0, params) == pytest.approx(
                expected, abs=1e-14)

    def test_antipode_epoch_zero(self):
        assert dforce_dq(math.pi, 0.0, P10) == pytest.approx(2.0 / 27.0,
                                                             abs=1e-14)
        # closed form -2(r^4 + 6r^2 - 8)/(4 - r^2)^3
        for r in (0.4, 0.9, 1.3, 1.8):
            params = ModelParams(r=r)
            expected = -2.0 * (r**4 + 6.0 * r**2 - 8.0) / (4.0 - r**2) ** 3
            assert dforce_dq(math.pi, 0.0, params) == pytest.approx(
                expected, rel=1e-13)

    def test_matches_force_derivative(self):
        h = 1e-6
        for q_star in (0.0, math.pi):
            for params in (P10, ModelParams(r=1.4, epsilon=0.35)):
                for t in (0.0, 0.9, 2.5):
                    fd = (tangential_force(q_star + h, t, params)
                          - tangential_force(q_star - h, t, params)) / (2 * h)
                    assert dforce_dq(q_star, t, params) == pytest.approx(
                        fd, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
    def test_antipode_close_approach_to_roundoff(self, gap):
        # a = r = 2 - gap passes within gap of a primary at t = 0 and pi,
        # where a^2 + 4 +- 4c cancels to (2 - a)^2 and the rounding of
        # cos t alone costs up to 2.8e-6; the reference is that form in 40
        # digits from the same doubles r and t
        r = 2.0 - gap
        ts = np.concatenate([t0 + np.linspace(-10.0 * gap, 10.0 * gap, 41)
                             for t0 in (0.0, math.pi)])
        with mpmath.workdps(40):
            a, want = mpmath.mpf(r), []
            for t in ts:
                c = a * mpmath.cos(mpmath.mpf(t))
                want.append(float((1 + c) / (a * a + 4 + 4 * c) ** 1.5
                                  + (1 - c) / (a * a + 4 - 4 * c) ** 1.5))
        scalar = [dforce_dq(math.pi, float(t), ModelParams(r=r)) for t in ts]
        lanes = _antipode_dforce_dq(r, np.cos(0.5 * ts), np.sin(0.5 * ts))
        np.testing.assert_allclose(scalar, want, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(lanes, want, rtol=1e-14, atol=0.0)

    def test_rejects_non_equilibrium(self):
        # at construction, so no coefficient or clock exists off {0, pi}
        for q_star in (1.0, -math.pi, math.nan):
            for build in (HillCoefficient, hill_coefficient):
                with pytest.raises(ValueError, match="not an equilibrium"):
                    build(q_star, P10)

    def test_monotone_decreasing_in_r(self):
        # circular primaries: the antipodal coefficient decreases with r
        rs = np.linspace(0.2, 1.8, 9)
        for t in np.linspace(0.0, 3.0, 7):
            vals = [dforce_dq(math.pi, float(t), ModelParams(r=float(r)))
                    for r in rs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sign_criterion_threshold(self):
        ts = np.linspace(0.0, math.pi, 2001)

        def min_f(r):
            params = ModelParams(r=r)
            return min(dforce_dq(math.pi, float(t), params) for t in ts)

        assert min_f(R_SIGN - 0.01) > 0.0
        assert min_f(R_SIGN + 0.01) < 0.0


class TestHillCoefficient:
    def test_origin_circular_is_constant(self):
        a = hill_coefficient(0.0, P10)
        assert coefficient_period(P10.epsilon) == math.pi
        for t in (0.0, 1.0, 2.0):
            assert a(t) == pytest.approx(2.0, abs=1e-14)

    def test_antipode_circular_nonpositive(self):
        a = hill_coefficient(math.pi, P10)
        assert max(a(float(t)) for t in np.linspace(0, TWO_PI, 100)) <= 0.0

    def test_origin_eccentric(self):
        a = hill_coefficient(0.0, ModelParams(r=1.0, epsilon=0.3))
        assert coefficient_period(0.3) == TWO_PI
        assert a(0.0) == pytest.approx(2.0 / 0.343, abs=1e-12)

    @pytest.mark.parametrize("q_star, r", [(0.0, 1.0), (math.pi, 1.2)])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6])
    def test_anomaly_clock_is_rho_times_the_coefficient(self, q_star, r,
                                                        eps):
        # (rho, rho a(t(u))) against the coefficient at the time u maps
        # to, which solves Kepler's equation back to u
        params = ModelParams(r=r, epsilon=eps)
        a = hill_coefficient(q_star, params)
        clock = _anomaly_hill_clock(a)
        for u in np.linspace(-1.0, 7.0, 33):
            rho = 1.0 - eps * math.cos(u)
            got = clock(float(u))
            assert got[0] == rho
            assert got[1] == pytest.approx(
                rho * a(float(u - eps * math.sin(u))), rel=1e-12, abs=1e-12)


class TestCubicCoefficient:
    def test_epoch_zero(self):
        assert cubic_coefficient(0.0, P10) == pytest.approx(19.0 / 3.0,
                                                            rel=1e-14)

    def test_quarter_phase(self):
        assert cubic_coefficient(math.pi / 2.0, P10) == pytest.approx(
            10.0 / 3.0, rel=1e-14)

    def test_positive_everywhere(self):
        for r in np.linspace(0.05, 1.95, 30):
            params = ModelParams(r=float(r))
            assert min(cubic_coefficient(float(t), params)
                       for t in np.linspace(0, TWO_PI, 32)) > 0.0

    def test_rejects_eccentric(self):
        with pytest.raises(ValueError):
            cubic_coefficient(0.0, ModelParams(r=1.0, epsilon=0.1))


def field_symmetry_defect(q, p, s, params, force=None):
    """The four symmetry residuals as sup norms over the autonomized field
    ``X = (p, f, 1)``, the form ``symmetry_defect`` reduces to force
    identities: S1 = diag(-1, -1, 1), S4 = diag(1, -1, -1)."""
    if force is None:
        def force(q, t):
            return tangential_force(q, t, params)
    fqs = force(q, s)

    def field(q_, p_, s_):
        return np.array([p_, force(q_, s_), 1.0])

    x = np.array([p, fqs, 1.0])
    r1 = np.max(np.abs(x * np.array([-1.0, -1.0, 1.0]) - field(-q, -p, s)))
    r2 = np.max(np.abs(field(q, p, s + TWO_PI) - x))
    r3 = np.max(np.abs(field(q + TWO_PI, p, s) - x))
    r4 = np.max(np.abs(x * np.array([1.0, -1.0, -1.0]) + field(q, -p, -s)))
    return float(r1), float(r2), float(r3), float(r4)


class TestSymmetryDefect:
    def test_equals_the_field_residuals(self):
        # bit for bit on check 10's parameter pairs and ranges, and on a
        # perturbed force whose residuals do not vanish
        rng = np.random.default_rng(39)
        cases = [(ModelParams(r=r, epsilon=eps), None)
                 for r, eps in [(1.0, 0.0), (1.5, 0.2), (0.5, 0.6),
                                (1.9, 0.02), (0.8, 0.45)]]
        cases.append((P10, lambda q, t: tangential_force(q, t, P10) + 1e-3))
        for params, force in cases:
            for _ in range(200):
                q = float(rng.uniform(-3.0 * math.pi, 3.0 * math.pi))
                p = float(rng.uniform(-2.0, 2.0))
                s = float(rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI))
                assert symmetry_defect(q, s, params, force=force) == \
                    field_symmetry_defect(q, p, s, params, force=force)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(q=st.floats(-9.0, 9.0), s=st.floats(-12.0, 12.0))
    def test_exact_field(self, q, s):
        for params in (P10, ModelParams(r=1.5, epsilon=0.2)):
            assert max(symmetry_defect(q, s, params)) <= 1e-12

    def test_any_eccentricity(self):
        params = ModelParams(r=1.5, epsilon=0.2)
        assert max(symmetry_defect(1.3, 2.1, params)) <= 1e-12

    def test_perturbed_fixture_breaks_reflection(self):
        def bad_force(q, t):
            return tangential_force(q, t, P10) + 1e-3

        r1, r2, r3, r4 = symmetry_defect(0.8, 0.5, P10, force=bad_force)
        assert r1 == pytest.approx(2e-3, rel=1e-6)
        assert max(r2, r3, r4) <= 1e-12


class TestLimits:
    def test_classical_limit_at_origin(self):
        assert arc_length_force(0.0, 0.3, R=50.0, r=1.0) == 0.0

    def test_classical_limit_value(self):
        got = arc_length_force(1.0, 0.0, R=1e3, r=1.0)
        assert got == pytest.approx(-2.0 / 2.0**1.5, abs=1e-4)

    def test_classical_restoring_sign(self):
        R = 30.0
        for w in np.linspace(-0.9 * math.pi * R, 0.9 * math.pi * R, 21):
            if w == 0.0:
                continue
            f = arc_length_force(float(w), 0.0, R=R, r=1.0)
            assert math.copysign(1.0, f) == -math.copysign(1.0, w)

    def test_fused_mass_equilibrium(self):
        assert limit_force_circle(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert comparison_force_circle(math.pi, 1.0) == pytest.approx(
            0.0, abs=1e-15)

    def test_fused_mass_value(self):
        assert limit_force_circle(math.pi / 2.0) == pytest.approx(
            -1.0 / math.sqrt(2.0), abs=1e-14)

    def test_small_binary_approaches_fused_mass(self):
        tiny = ModelParams(r=1e-6)
        for q in (math.pi / 2.0, 2.0, math.pi):
            assert tangential_force(q, 0.7, tiny) == pytest.approx(
                limit_force_circle(q), abs=1e-5)

    def test_fused_mass_singularity(self):
        with pytest.raises(CollisionError):
            limit_force_circle(0.0)
        with pytest.raises(CollisionError):
            comparison_force_circle(TWO_PI, 1.0)

    @pytest.mark.parametrize("q", [1e-6, 3e-5, 1e-3, 0.5, 2.0, -1.0, 7.0,
                                   TWO_PI - 1e-3])
    def test_fused_mass_matches_high_precision(self, q):
        # -sin q / (sqrt 2 (1 - cos q)^{3/2}) in 40 digits; in floats
        # 1 - cos q cancels near the fused mass, the chord does not
        with mpmath.workdps(40):
            x = mpmath.mpf(q)
            want = -mpmath.sin(x) / (mpmath.sqrt(2) * (1 - mpmath.cos(x))
                                     ** mpmath.mpf(1.5))
            assert abs(limit_force_circle(q) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("q", [0.0, 1e-10, TWO_PI])
    def test_fused_mass_guard_names_the_chord(self, q):
        chord = 2.0 * abs(math.sin(0.5 * q))
        assert chord <= D_MIN
        with pytest.raises(CollisionError) as err:
            limit_force_circle(q)
        assert err.value.primary == 1
        assert err.value.distance == chord
        assert f"distance {chord:.3e} to primary 1" in str(err.value)
