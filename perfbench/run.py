#!/usr/bin/env python3
"""Benchmark of the styleshift package: three workloads, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tsb-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times, then repeats its timed unit
for about ``--seconds`` and prints the medians of the end-to-end metrics named
in BENCHMARK.json. ``--trace 1`` sets up and runs one unit untraced, then one
traced, and prints the per-layer metrics with the tracing overhead (traced
minus untraced value of each end-to-end metric). Workload configs, the
metric -> workload predictions and the list of exact counts are in
perfbench/workloads.json. Outputs go to .perfbench_work/<workload>/ in the
checkout. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tsb-train", "sweep-aug", "ts-infer")
# A run stops repeating units after this long, so it ends well within 180 s.
MAX_MEASURE_S = 120.0


def pin_threads() -> None:
    """One BLAS thread and one sweep worker; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "STYLESHIFT_THREADS"):
        os.environ[var] = "1"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_stamp() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "styleshift_threads": os.environ["STYLESHIFT_THREADS"]}


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload, ledger, min_units: int):
        self.w = workload
        self.ledger = ledger
        self.min_units = min_units
        self.first: dict[str, dict] = {}

    def setup(self, tag: str) -> float:
        wall = timed(self.w.setup, tag)
        self._same("set-up", self.w.setup_op(tag), self.w.setup_artifacts())
        return wall

    def finish(self, tag: str) -> None:
        """Checks of one unit, outside the timed and traced regions."""
        try:
            self.w.check(tag)
        except Exception:  # a check that cannot read its inputs fails the unit
            self.ledger.fail(self.w.unit_op(tag), traceback.format_exc())
        self._same("unit", self.w.unit_op(tag), self.w.unit_artifacts(tag))

    def _same(self, kind: str, label: str, artifacts: dict) -> None:
        """Artifacts must equal, byte for byte, those of the first of their kind."""
        first = self.first.setdefault(kind, artifacts)
        if first is not artifacts:
            self.ledger.same(label, first, artifacts, f"from the first {kind}")

    def measure(self, seconds: float, setups: int) -> tuple[dict, dict]:
        setup_walls = [self.setup(f"s{i}") for i in range(setups)]
        records = []
        start = time.perf_counter()
        while True:
            tag = f"u{len(records)}"
            records.append(self.w.unit(tag))
            self.finish(tag)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall_s"] for r in records)
            if len(records) >= self.min_units and elapsed + typical > seconds:
                break
            if elapsed > MAX_MEASURE_S:
                break
        med = {key: statistics.median(r[key] for r in records) for key in records[0]}
        values = {"setup_s": statistics.median(setup_walls), "wall_s": med["wall_s"],
                  "samples_per_s": med["samples_per_s"], "peak_rss_mb": peak_rss_mb()}
        named = {"setup_s": values["setup_s"], "peak_rss_mb": values["peak_rss_mb"],
                 **{name: med[key] for name, key in self.w.named.items()},
                 "units": len(records), "setups": setups}
        return values, named

    def trace(self, work: Path) -> dict:
        from styleshift.micro_net import NetConfig
        from tracer import Tracer, layer_metrics

        untraced = {"setup_s": self.setup("su")}
        untraced.update(self.w.unit("uu"))
        self.finish("uu")
        untraced["peak_rss_mb"] = peak_rss_mb()

        tracer = Tracer(NetConfig())
        tracer.install()
        try:
            tracer.run_id = "setup"
            traced = {"setup_s": timed(self.w.setup, "st")}
            tracer.run_id = "unit"
            traced.update(self.w.unit("ut"))
        finally:
            lost = tracer.restore()
        traced["peak_rss_mb"] = peak_rss_mb()
        label = self.w.unit_op("ut")
        self.ledger.check(label, not lost, f"attributes not restored after tracing: {lost}")
        self._same("set-up", self.w.setup_op("st"), self.w.setup_artifacts())
        self.finish("ut")
        tracer.write(work / "trace_spans.jsonl")

        values = layer_metrics(tracer)
        for key in ("setup_s", "wall_s", "samples_per_s", "peak_rss_mb"):
            values[f"overhead.{key}"] = traced[key] - untraced[key]
        return values


def emit(listing: list[dict], values: dict, ledger) -> str:
    names = [m["name"] for m in listing]
    if set(names) != set(values):
        raise SystemExit(f"metrics disagree with BENCHMARK.json: missing "
                         f"{sorted(set(names) - set(values))}, extra "
                         f"{sorted(set(values) - set(names))}")
    return json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listing}})


def run_all(args) -> int:
    """Every workload in its own process, then one summary of the named metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        named = next((json.loads(line[len("named "):]) for line in lines
                      if line.startswith("named ")), {})
        for key, item in {**result["metrics"], **named}.items():
            summary["metrics"][f"{name}.{key}"] = item
    print(json.dumps(summary))
    return 0


def unit_of(name: str) -> str:
    if name in ("units", "setups"):
        return "count"
    if name.endswith("_per_s"):
        return "samples/s"
    return "MB" if name.endswith("_mb") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    if not (ROOT / "src" / "styleshift" / "__init__.py").is_file():
        print(f"no styleshift sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Ledger

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stamp = machine_stamp()
    print("stamp " + json.dumps(stamp, sort_keys=True))
    with open(work / "run.log", "w") as log:
        ledger = Ledger(log)
        workload = WORKLOADS[args.workload](spec["workloads"][args.workload], work,
                                            args.seed, ledger)
        runner = Runner(workload, ledger, spec["min_units"])
        if args.trace:
            values = runner.trace(work)
            listing = bench["per_layer"]
            named = {}
        else:
            values, named = runner.measure(args.seconds, workload.spec["setup_repeats"])
            listing = bench["end_to_end"]
    exact = set(spec["exact_counts"])
    for m in listing:
        tag = " (computed, exact)" if m["name"] in exact else ""
        print(f"  {m['name']} = {values.get(m['name'])} {m['unit']}{tag}")
    if named:
        print("named " + json.dumps({k: {"value": v, "unit": unit_of(k)}
                                     for k, v in named.items()}))
    line = emit(listing, values, ledger)
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "stamp": stamp, "named": named, "result": json.loads(line)}, indent=1))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
