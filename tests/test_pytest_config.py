"""The repository's pytest configuration, run on a throwaway test file."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_run(tmp_path):
    # a @given failure is reported as one failed test, and the run goes on
    (tmp_path / "test_one_fails.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-q",
         "-p", "no:cacheprovider", "test_one_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
