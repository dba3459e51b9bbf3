"""The benchmark drives the package through its public entry points (the CLI,
``micro_net.evaluate`` and the stage functions). Running its workloads here,
with their own specs, turns a call the benchmark can no longer make into a
test failure instead of a failed benchmark run."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["sweep-aug", "ts-infer"])
def test_benchmark_workload_sets_up_and_repeats_its_units(tmp_path, monkeypatch, name):
    """One set-up and the minimum number of units of a workload, with its
    spec from ``workloads.json``: no operation fails (every check of the
    units' outputs included), and the units' artifacts repeat byte for byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS, Ledger
    loader = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run)

    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    log = io.StringIO()
    ledger = Ledger(log)
    workload = WORKLOADS[name](spec["workloads"][name], tmp_path, 0, ledger)
    runner = run.Runner(workload, ledger, spec["min_units"])
    _, named = runner.measure(0.0, 1)  # no time budget: the minimum units
    assert ledger.failed == 0, log.getvalue()
    assert ledger.attempted > 0 and named["units"] == spec["min_units"] == 2
    first = runner.first["unit"]
    assert first and all(first.values())
    assert workload.unit_artifacts(f"u{named['units'] - 1}") == first
