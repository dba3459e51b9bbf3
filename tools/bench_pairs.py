"""Measure a change against its parent on one benchmark workload, in alternating pairs.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

PARENT and CHANGE are two checkouts of this repository; W is a workload named
in PARENT's BENCHMARK.json, or ``all``. Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each checkout,
the parent first in even pairs and the change first in odd ones. For every
end-to-end metric of BENCHMARK.json it prints the parent and change medians,
the parent's quartile distance, the pairs the change wins (ties count for
neither) and a verdict against the metric's bound:

- ``worse``: the change's median is worse than the parent's by more than the
  bound, as a fraction of the parent's median;
- ``unresolved``: otherwise, the parent's quartile distance exceeds the bound
  as a fraction of its median, and not every change run beats every parent
  run;
- ``ok``: neither.

Each row also says whether the change shows a gain on that metric: it wins at
least nine tenths of the pairs, and its median is better than the parent's by
more than the parent's quartile distance. The JSON summary lists the metrics
with a gain under ``gain``. Then one line per named metric (the workload's
``named`` line, such as each mode's samples per second; with ``--workload
all`` the summary's ``<workload>.<name>`` keys) that has no end-to-end row
gives the parent and change medians, with no verdict; the JSON summary holds
them under ``named``.

Then it runs ``--trace 1`` once per side and compares every exact count that
perfbench/workloads.json lists. Exits 1 on a ``worse`` verdict, on a larger
share of failed operations in the change's runs than in the parent's, or on
an exact count that differs; else 0. The last line of stdout is a JSON
summary. Besides the verdicts it holds every timed run under ``runs`` (its
side, pair, order in the pair, seed, named values and summary, in the
``runs`` schema of the ``BENCH_*.json`` records) and each side's first
``stamp`` line under ``stamp``, so a bench record can be written from that
line alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int,
              trace: int) -> tuple[dict, dict | None, dict]:
    """The JSON summary ``perfbench/run.py`` prints last, run in ``checkout``,
    the machine stamp of its first ``stamp`` line (None without one), and the
    values of its ``named`` line ({} without one), or with ``--workload all``
    those of its summary, which folds each workload's named line in under
    ``<workload>.<name>``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py --workload {workload} --trace {trace} "
                         f"exited {proc.returncode}")

    def tagged(tag: str):
        return next((json.loads(line[len(tag) + 1:]) for line in lines
                     if line.startswith(tag + " ")), None)

    summary = json.loads(lines[-1])
    named = summary["metrics"] if workload == "all" else tagged("named") or {}
    return summary, tagged("stamp"), {k: item["value"] for k, item in named.items()}


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]`` are pair i.
    ``gain`` is the claim rule: at least 9 wins in 10 pairs (ties count for
    neither) and a median gap, in the better direction, past the parent's
    quartile distance."""
    sign = 1.0 if better == "higher" else -1.0   # sign * value grows as the metric improves
    med_p, med_c = statistics.median(parent), statistics.median(change)
    spread = quartile_distance(parent)
    if sign * (med_p - med_c) > bound * abs(med_p):
        word = "worse"
    elif spread > bound * abs(med_p) and \
            min(sign * c for c in change) <= max(sign * p for p in parent):
        word = "unresolved"
    else:
        word = "ok"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"parent_median": med_p, "change_median": med_c, "parent_quartile_distance": spread,
            "wins": wins, "pairs": len(parent), "verdict": word,
            "gain": 10 * wins >= 9 * len(parent) and sign * (med_c - med_p) > spread}


def metric_base(key: str, workloads) -> str:
    """``key`` without the ``<workload>.`` prefix that ``--workload all`` adds."""
    for name in workloads:
        if key.startswith(name + "."):
            return key[len(name) + 1:]
    return key


def failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in (*workloads, "all"):
        parser.error(f"--workload must be one of {workloads} or all")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"parent": args.parent, "change": args.change}

    records, stamps = [], {}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            summary, stamp, named = run_bench(sides[side], args.workload, args.seed, 0)
            stamps.setdefault(side, stamp)
            records.append({"side": side, "pair": i, "order_in_pair": list(order),
                            "seed": args.seed, "returncode": 0,
                            "results": {args.workload: {"named": named, "result": summary}}})
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    runs = {side: [r["results"][args.workload]["result"] for r in records if r["side"] == side]
            for side in sides}

    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    rows = {}
    for key in runs["parent"][0]["metrics"]:
        m = end_to_end.get(metric_base(key, workloads))
        if m is None:
            continue
        values = {side: [r["metrics"][key]["value"] for r in runs[side]] for side in sides}
        rows[key] = verdict(values["parent"], values["change"], m["better"], m["bound"])
        r = rows[key]
        print(f"{key:<28} parent {r['parent_median']:.4g}  change {r['change_median']:.4g}  "
              f"quartile distance {r['parent_quartile_distance']:.3g} {m['unit']}  "
              f"wins {r['wins']}/{r['pairs']}  {r['verdict']}{'  gain' if r['gain'] else ''}")
    named = {side: [r["results"][args.workload]["named"] for r in records if r["side"] == side]
             for side in sides}
    medians = {}
    for key in named["parent"][0]:
        values = {side: [run.get(key) for run in named[side]] for side in sides}
        if key in rows or None in values["parent"] + values["change"]:
            continue
        medians[key] = {f"{side}_median": statistics.median(values[side]) for side in sides}
        print(f"{key:<28} parent {medians[key]['parent_median']:.4g}  "
              f"change {medians[key]['change_median']:.4g}  (named)")
    shares = {side: failed_share(runs[side]) for side in sides}

    exact = set(json.loads((args.parent / "perfbench" / "workloads.json").read_text())
                ["exact_counts"])
    traces = {side: run_bench(sides[side], args.workload, args.seed, 1)[0] for side in sides}
    counts = {key: (traces["parent"]["metrics"][key]["value"],
                    traces["change"]["metrics"].get(key, {}).get("value"))
              for key in traces["parent"]["metrics"] if metric_base(key, workloads) in exact}
    differ = {key: pair for key, pair in counts.items() if pair[0] != pair[1]}
    for key, (was, now) in differ.items():
        print(f"exact count {key}: parent {was}, change {now}")
    trace_failed = {side: [traces[side]["failed"], traces[side]["attempted"]] for side in sides}
    print(f"exact counts: {len(counts) - len(differ)} of {len(counts)} equal; traced runs "
          f"failed {trace_failed['parent']} (parent) and {trace_failed['change']} (change), "
          f"as [failed, attempted]")

    bad = (any(r["verdict"] == "worse" for r in rows.values())
           or shares["change"] > shares["parent"]
           or failed_share([traces["change"]]) > failed_share([traces["parent"]])
           or bool(differ))
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
                      "metrics": rows, "gain": sorted(k for k, r in rows.items() if r["gain"]),
                      "named": medians,
                      "failed_share": shares, "trace_failed": trace_failed,
                      "exact_counts": len(counts), "exact_counts_differ": sorted(differ),
                      "ok": not bad, "stamp": stamps, "runs": records}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
