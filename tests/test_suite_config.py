"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_a_failing_property_test_is_reported_like_any_other(tmp_path):
    # hypothesis imports libcst to report a failing example, and that import
    # warns; under the suite's warning filters the run must still report
    # both failures and exit 1, not stop with INTERNALERROR (exit 3)
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "2 failed" in res.stdout
