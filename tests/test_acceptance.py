"""Acceptance suite: one test per end-to-end guarantee.

Runs the full verification suite once (the checks share context: the
Wronskian audit inspects monodromies produced by the earlier checks) and
asserts each check individually, printing its PASS/FAIL line.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import pytest

from curved_sitnikov import verification

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in verification.run_all(quick=False)}


def _report(results, name):
    result = results[name]
    print(result.line())
    assert result.passed, result.line()


def test_01_kepler_residuals(results):
    _report(results, "kepler residuals")


def test_02_analytic_monodromy_oracle(results):
    _report(results, "analytic monodromy oracle")


def test_03_antipode_hyperbolic_range(results):
    _report(results, "antipode hyperbolic range")


def test_04_first_parabolic_transition(results):
    _report(results, "first parabolic transition")


def test_05_interchange_census(results):
    _report(results, "interchange census")


def test_06_wronskian_and_evenness(results):
    _report(results, "wronskian and evenness")


def test_07_force_law_limits(results):
    _report(results, "force-law limits")


def test_08_winding_bound(results):
    _report(results, "winding bound")


def test_09_curvature_formula_and_trend(results):
    _report(results, "curvature formula and trend")


def test_10_symmetry_suite(results):
    _report(results, "symmetry suite")


def test_11_origin_stability(results):
    _report(results, "origin stability")
