"""The test settings in pyproject.toml let a failing property test report its
falsifying example without ending the session, and find the package in a
checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5
"""

PASSING = """
def test_passes():
    assert True
"""


def test_failing_property_test_reports_its_example_next_to_other_files(tmp_path):
    # with a plain filterwarnings = ["error"], the DeprecationWarning that a
    # third-party import raises while hypothesis reports the example ended
    # the session with INTERNALERROR before the other file ran
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_passes.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out


def test_plain_pytest_collects_in_a_checkout_without_pythonpath():
    # tests/conftest.py imports bcfrac, which without the pythonpath setting
    # stopped collection with ModuleNotFoundError
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "ModuleNotFoundError" not in out and " tests collected" in out
