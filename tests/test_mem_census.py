"""``tools/mem_census.py``: where a training step's traced memory peaks, and what is live there."""

import json
import subprocess
import sys
from pathlib import Path

from test_micro_net import _traced_step_peak

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_the_census_reads_the_peak_the_memory_bound_reads():
    """The census's batch-63 DSU step peaks within 1 MB of the bound test's
    reading, inside a conv vjp. The live bytes it lists at that vjp's entry
    lie below the peak, the patch matrices first; the batch-21 SB step is
    listed too."""
    run = subprocess.run([sys.executable, str(TOOLS / "mem_census.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    dsu, sb = json.loads(run.stdout.splitlines()[-1])
    assert (dsu["step"], sb["step"]) == ("dsu batch 63", "sb batch 21")
    assert abs(dsu["peak_mb"] - _traced_step_peak("dsu") / 1e6) < 1.0
    for step in (dsu, sb):
        assert step["vjp"] == "conv2d"
        assert next(iter(step["live_mb"])) == "autodiff._patches"
        assert sum(step["live_mb"].values()) < step["peak_mb"]
