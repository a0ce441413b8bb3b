"""The verification checks fail closed: a NaN defect reads FAIL, not PASS."""

import math
from types import SimpleNamespace

import pytest

from curved_sitnikov import model, verification
from curved_sitnikov.integrate import FundamentalMatrix

NAN = math.nan


def _nan_monodromy(*args, **kwargs):
    """A monodromy-shaped record with NaN entries (a real ``Monodromy``
    refuses a NaN determinant when it is built)."""
    return SimpleNamespace(matrix=FundamentalMatrix(NAN, NAN, NAN, NAN, 0),
                           half_trace=NAN, period=math.pi)


@pytest.mark.parametrize("check, target, name, value, ctx", [
    ("check_kepler_residuals", verification, "solve_kepler",
     lambda m, eps: NAN, {}),
    ("check_analytic_monodromy", verification, "monodromy",
     _nan_monodromy, {}),
    ("check_wronskian_evenness", verification, "integrate_variational",
     lambda a, period, tol: FundamentalMatrix(NAN, NAN, NAN, NAN, 0),
     {"census_rs": [1.5]}),
    ("check_force_limits", model, "tangential_force",
     lambda q, t, params: NAN, {}),
    ("check_winding_bound", verification, "winding_angle",
     lambda *args, **kwargs: NAN, {}),
    ("check_curvature_formula", verification, "d2U_ds2_fd",
     lambda t, lam, pair: NAN, {}),
    ("check_symmetries", model, "symmetry_defect",
     lambda *args: (NAN,) * 4, {}),
], ids=["1-kepler", "2-analytic", "6-wronskian", "7-force-limits",
        "8-winding", "9-curvature", "10-symmetries"])
def test_nan_defect_fails(monkeypatch, check, target, name, value, ctx):
    monkeypatch.setattr(target, name, value)
    passed, detail = getattr(verification, check)(ctx)
    assert passed is False, detail


def test_nan_round_trip_fails(monkeypatch):
    # check 10's second defect: the orbit's reversibility round trip
    def nan_orbit(initial, t_final, params, tol):
        return SimpleNamespace(states=[(NAN, NAN, t_final)])

    monkeypatch.setattr(verification, "integrate_orbit", nan_orbit)
    passed, detail = verification.check_symmetries({})
    assert passed is False, detail
