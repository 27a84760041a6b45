"""The pytest settings of pyproject.toml, run on a throwaway test file."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_GIVEN = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # with warnings as errors, a DeprecationWarning raised while hypothesis
    # writes its report used to end the session as an INTERNALERROR (exit 3)
    (tmp_path / "test_given.py").write_text(_FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "-p", "no:cacheprovider", "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
