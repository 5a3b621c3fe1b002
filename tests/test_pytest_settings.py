"""The suite's own pytest settings keep a failing Hypothesis test reportable."""

from __future__ import annotations

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(pytester):
    # Reporting a Hypothesis failure imports modules that raise
    # DeprecationWarning on import; under filterwarnings = ["error"] an
    # unfiltered one ends the run with INTERNALERROR before the falsifying
    # example is printed and before later tests run.  A fresh interpreter
    # makes the import really happen.
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    tests = pytester.mkdir("tests")
    (tests / "test_sample.py").write_text(FAILING_AND_PASSING)
    result = pytester.runpytest_subprocess()
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)
