"""The repository's pytest settings, exercised on a throwaway test file."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_an_ordinary_failure(tmp_path):
    # on a failure hypothesis's pytest hook imports its patch writer,
    # which may raise a DeprecationWarning from a dependency; under
    # filterwarnings = error that must not abort the run
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
