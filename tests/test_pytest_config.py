"""The repository's pytest configuration reports a failing property test
as a failure and goes on with the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_demo.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in run.stdout, out
