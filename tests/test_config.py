"""The suite's own pytest configuration, run on planted failing tests."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
"""


def test_a_failing_hypothesis_test_hides_no_later_failure(tmp_path):
    # Hypothesis's failure report imports libcst, whose import-time
    # DeprecationWarning filterwarnings = error would raise inside the report
    # hook: pytest then stops with an INTERNALERROR (exit 3) and reports no
    # later failure
    (tmp_path / "test_planted.py").write_text(PLANTED)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "test_planted.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout and "2 failed" in proc.stdout, proc.stdout
