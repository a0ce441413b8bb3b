"""The suite's own pytest settings, run on a small probe project."""

import json
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_leaves_the_rest_reported(pytester):
    # A failing @given test makes hypothesis import libcst to explain the
    # failure, and libcst's import warns; under filterwarnings = ["error"]
    # alone that ended the run with INTERNALERROR before later tests ran.
    with PYPROJECT.open("rb") as fh:
        ini = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\n"
        f"filterwarnings = {json.dumps(ini['filterwarnings'])}\n")
    pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
