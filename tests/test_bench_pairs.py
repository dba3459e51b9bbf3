"""``tools/bench_pairs.py``'s verdicts and summary on canned run values: no benchmark runs."""

import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs
    return bench_pairs


def test_tight_runs_within_the_bound_are_ok(bench_pairs):
    r = bench_pairs.verdict([1.00, 1.01, 0.99, 1.00, 1.02], [1.10, 1.09, 1.11, 1.08, 1.10],
                            "lower", 0.25)
    assert r["verdict"] == "ok"
    assert (r["parent_median"], r["change_median"]) == (1.00, 1.10)
    assert r["parent_quartile_distance"] == pytest.approx(0.01)
    assert (r["wins"], r["pairs"]) == (0, 5)


@pytest.mark.parametrize("better,parent,change", [
    ("lower", [1.0, 1.0, 1.0], [1.3, 1.2, 1.4]),
    ("higher", [100.0, 101.0, 99.0], [70.0, 74.0, 80.0]),
], ids=["lower", "higher"])
def test_a_median_past_the_bound_is_worse(bench_pairs, better, parent, change):
    assert bench_pairs.verdict(parent, change, better, 0.25)["verdict"] == "worse"


def test_a_parent_spread_past_the_bound_is_unresolved(bench_pairs):
    """The parent's quartile distance, 0.4 of its median 1.0, exceeds the
    bound 0.25, and one change run (1.05) is no better than the best parent
    run (0.7), so a median within the bound cannot be told from noise."""
    parent = [0.7, 0.8, 1.0, 1.2, 1.4]
    r = bench_pairs.verdict(parent, [0.9, 1.0, 1.05, 0.95, 1.0], "lower", 0.25)
    assert r["parent_quartile_distance"] == pytest.approx(0.4)
    assert r["verdict"] == "unresolved"
    # every change run below every parent run resolves it
    assert bench_pairs.verdict(parent, [0.5, 0.6, 0.65, 0.55, 0.6], "lower",
                               0.25)["verdict"] == "ok"
    # higher is better: every change run above every parent run
    assert bench_pairs.verdict(parent, [1.5, 1.6, 1.5, 1.7, 1.5], "higher",
                               0.25)["verdict"] == "ok"
    assert bench_pairs.verdict(parent, [1.5, 1.6, 1.4, 1.7, 1.5], "higher",
                               0.25)["verdict"] == "unresolved"



def test_gain_needs_nine_wins_in_ten_and_a_gap_past_the_spread(bench_pairs):
    """The claim rule on ten pairs of a lower-is-better metric whose parent
    runs have a quartile distance of 0.875."""
    parent = [84.0, 85.0, 84.5, 85.5, 84.0, 85.0, 86.0, 84.5, 85.0, 85.5]
    assert bench_pairs.quartile_distance(parent) == pytest.approx(0.875)
    met = bench_pairs.verdict(parent, [65.0, 64.5, 65.5, 65.0, 64.0, 65.0, 65.5, 64.5,
                                       65.0, 86.5], "lower", 0.1)
    assert (met["wins"], met["gain"], met["verdict"]) == (9, True, "ok")
    # eight wins in ten, with the same median gap: short on wins
    short = bench_pairs.verdict(parent, [65.0, 64.5, 65.5, 65.0, 64.0, 65.0, 65.5, 64.5,
                                         86.5, 86.5], "lower", 0.1)
    assert (short["wins"], short["gain"]) == (8, False)
    # ten wins, but the median gap (0.5) is inside the parent's spread (0.875)
    inside = bench_pairs.verdict(parent, [p - 0.5 for p in parent], "lower", 0.1)
    assert (inside["wins"], inside["gain"]) == (10, False)
    # higher is better: the gap counts in that direction
    assert bench_pairs.verdict(parent, [p + 20.0 for p in parent], "higher", 0.1)["gain"]
    assert not bench_pairs.verdict(parent, [p + 20.0 for p in parent], "lower", 0.1)["gain"]


def test_ties_count_for_neither_side(bench_pairs):
    r = bench_pairs.verdict([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 2.0], "lower", 0.25)
    assert r["wins"] == 1
    r = bench_pairs.verdict([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 2.0], "higher", 0.25)
    assert r["wins"] == 1


def test_workload_prefixes_and_failed_shares(bench_pairs):
    names = ["tsb-train", "ts-infer"]
    assert bench_pairs.metric_base("ts-infer.wall_s", names) == "wall_s"
    assert bench_pairs.metric_base("tensor_core.style_vector.calls", names) == \
        "tensor_core.style_vector.calls"
    runs = [{"failed": 1, "attempted": 10}, {"failed": 0, "attempted": 30}]
    assert bench_pairs.failed_share(runs) == 0.025
    assert bench_pairs.failed_share([]) == 0.0


# stands in for perfbench/run.py: run n prints a stamp, a named line (timed runs only) and
# a summary, each holding n; with --workload all the summary folds the named values in under
# w.<name>, as perfbench/run.py folds in each workload's
FAKE_RUN = """
import json, sys
from pathlib import Path
count = Path("count")
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
print("stamp " + json.dumps({"cpu_count": 2, "side": Path.cwd().name, "run": n}))
print("  wall_s = 1.0 s")
metrics = {"wall_s": {"unit": "s", "value": float(n)}, "units": {"unit": "count", "value": 3}}
named = {}
if sys.argv[sys.argv.index("--trace") + 1] == "0":
    named = {"units": {"value": 3, "unit": "count"}, "setups": {"value": 10 * n, "unit": "count"}}
    print("named " + json.dumps(named))
if sys.argv[sys.argv.index("--workload") + 1] == "all":
    metrics = {"w." + k: item for k, item in {**metrics, **named}.items()}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""


def test_summary_keeps_every_run_and_each_sides_first_stamp(bench_pairs, tmp_path, capsys):
    """The last stdout line holds each timed run, in run order, with its side,
    pair, order in the pair, seed, named metrics and summary, each side's
    first machine stamp, and the medians of the named metrics that have no
    end-to-end row: what a ``BENCH_*.json`` record needs. A fake
    ``perfbench/run.py`` stands in for the benchmark in two tmp checkouts,
    run on its one workload ``w`` and on ``all``."""
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    for workload, prefix in (("w", ""), ("all", "w.")):
        root = tmp_path / workload
        for side in ("parent", "change"):
            (root / side / "perfbench").mkdir(parents=True)
            (root / side / "BENCHMARK.json").write_text(json.dumps(bench))
            (root / side / "perfbench" / "workloads.json").write_text(
                json.dumps({"exact_counts": ["units"]}))
            (root / side / "perfbench" / "run.py").write_text(FAKE_RUN)

        assert bench_pairs.main([str(root / "parent"), str(root / "change"),
                                 "--workload", workload, "--pairs", "3", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["stamp"] == {side: {"cpu_count": 2, "side": side, "run": 1}
                                for side in ("parent", "change")}
        forward, backward = ["parent", "change"], ["change", "parent"]
        assert [(r["side"], r["pair"], r["order_in_pair"]) for r in out["runs"]] == [
            ("parent", 0, forward), ("change", 0, forward), ("change", 1, backward),
            ("parent", 1, backward), ("parent", 2, forward), ("change", 2, forward)]
        assert {(r["seed"], r["returncode"]) for r in out["runs"]} == {(5, 0)}
        for side in ("parent", "change"):
            results = [r["results"][workload] for r in out["runs"] if r["side"] == side]
            assert [res["result"]["metrics"][prefix + "wall_s"]["value"] for res in results] == \
                [1.0, 2.0, 3.0]
            assert results[0]["result"]["attempted"] == 2
            assert [res["named"][prefix + "setups"] for res in results] == [10, 20, 30]
        assert out["named"] == {prefix + "units": {"parent_median": 3, "change_median": 3},
                                prefix + "setups": {"parent_median": 20, "change_median": 20}}
        assert list(out["metrics"]) == [prefix + "wall_s"]
