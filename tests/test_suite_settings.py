"""The suite's settings and the thread settings of inference:
pyproject.toml's pytest settings report every failing test and go on, and
the inference workers run BLAS on one thread."""

import json
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


# prints the thread count of numpy's bundled OpenBLAS (null where there is none) before
# and after importing the CLI, inside the tasks of a two-worker runner and after them, and
# the runner's size and the count inside a lone task
BLAS_PROBE = """
import ctypes, json
from pathlib import Path
import numpy as np

threads = None
for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
    try:
        threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        continue
    threads.argtypes, threads.restype = (), ctypes.c_int
    break
if threads is None:
    print("null")
    raise SystemExit
before = threads()
from styleshift import cli
ad, mn = cli.mn.ad, cli.mn
workers = [ad.RUNNER.size, *ad.RUNNER.map(lambda chunk: threads(), mn._chunks(1))]
imported = threads()
ad.RUNNER.size = 2
inside = sorted(set(ad.RUNNER.map(lambda chunk: threads(), mn._chunks(64))))
print(json.dumps({"before": before, "imported": imported, "inside": inside,
                  "after": threads(), "workers": workers}))
"""


def test_inference_workers_run_blas_on_one_thread():
    """In a process whose environment sets no BLAS thread count, the runner
    has one worker per usable CPU, and numpy's bundled OpenBLAS runs one
    thread while its tasks run. Importing the package, a lone task (which
    runs inline) and leaving the runner keep BLAS's own count, at which a
    lone training runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    probe = json.loads(out.stdout)
    if probe is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    assert probe["workers"] == [len(os.sched_getaffinity(0)), probe["before"]]
    assert probe["inside"] == [1]
    assert probe["before"] == probe["imported"] == probe["after"]
