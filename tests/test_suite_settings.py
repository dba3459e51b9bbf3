"""The suite's settings: pyproject.toml's pytest settings report every failing
test and go on, and conftest.py runs BLAS on one thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """Warnings are errors, but reporting a falsifying example must not be one:
    the session reports the failure, runs the next test and ends normally."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out and "1 failed, 1 passed" in out, out


def test_the_suite_runs_blas_on_one_thread():
    """conftest.py pins BLAS to one thread before numpy loads, so inference
    sizes its pool at one worker per usable CPU (where numpy's bundled
    OpenBLAS reports its thread count)."""
    from styleshift import micro_net as mn
    getter = mn._blas_thread_count()
    if getter is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    assert getter() == 1
    assert mn._inference_workers(1000) == len(os.sched_getaffinity(0))
    assert mn._inference_workers(1) == 1
