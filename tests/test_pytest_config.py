"""The test suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_INNER = '''
import warnings

import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n


def test_other_deprecations_are_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other deprecation", DeprecationWarning)
'''


def test_failing_property_test_is_reported_not_crashed(tmp_path):
    # On a failure hypothesis's plugin imports libcst to write a patch, and
    # that import warns; under the repo's warning filters the run must still
    # report the failure instead of stopping with INTERNALERROR.
    (tmp_path / "test_inner.py").write_text(_INNER)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
