"""The test run itself: a failing hypothesis test is one failure."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).parent

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis reports a failing example without libcst")
def test_failing_given_test_is_one_failure(tmp_path):
    # the repository's ini and conftest, beside a failing @given test and a
    # passing one; hypothesis writes its patch file under tmp_path
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_one_fails.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_one_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
