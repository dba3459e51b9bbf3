import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import operator
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleshift import cli
from styleshift import domain_data as dd
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.experiment import DataConfig, ExperimentConfig
from styleshift.tensor_core import from_json

DATA_CFG = {
    "n_classes": 3,
    "n_sources": 2,
    "per_cell_train": 5,
    "per_cell_test": 3,
    "image_size": 16,
    "target_preset": "far",
    "imbalance": {"kind": "balanced"},
}

NET_CFG = {
    "in_channels": 1,
    "image_size": 16,
    "blocks": [{"out_channels": 4, "stride": 1, "pool": True},
               {"out_channels": 6, "stride": 1, "pool": True}],
    "n_classes": 3,
}

TRAIN_CFG = {
    "dataset": "data",
    "net": NET_CFG,
    "train": {"epochs": 4, "batch_size": 10, "lr": 0.05, "seed": 3, "sb": True,
              "sb_hooks": ["block1"]},
}


def run(tmp_path, *argv):
    return cli.main([*argv, "--workdir", str(tmp_path)])


def write_cfg(tmp_path, name, doc):
    (tmp_path / name).write_text(json.dumps(doc))
    return name


def make_dataset(tmp_path, seed=5):
    cfg = write_cfg(tmp_path, "data.json", DATA_CFG)
    assert run(tmp_path, "gen-data", "--config", cfg, "--out", "data",
               "--seed", str(seed)) == 0


def make_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, "train.json", TRAIN_CFG)
    assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "ckpt.json",
               "--audit-log", "audit.jsonl") == 0


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- gen-data -------------------------------------------------------------------

def test_gen_data_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "data.json", DATA_CFG)
    assert run(tmp_path, "gen-data", "--config", cfg, "--out", "a", "--seed", "5") == 0
    assert run(tmp_path, "gen-data", "--config", cfg, "--out", "b", "--seed", "5") == 0
    assert (tmp_path / "a/manifest.json").read_bytes() == \
           (tmp_path / "b/manifest.json").read_bytes()
    assert (tmp_path / "a/images.pgm").read_bytes() == (tmp_path / "b/images.pgm").read_bytes()


def test_gen_data_counts_and_imbalance(tmp_path):
    doc = dict(DATA_CFG)
    doc["imbalance"] = {"kind": "class", "class_subsets": [[0, 1], [2]]}
    cfg = write_cfg(tmp_path, "data.json", doc)
    assert run(tmp_path, "gen-data", "--config", cfg, "--out", "data", "--seed", "5") == 0
    from styleshift.domain_data import load_manifest
    m = load_manifest(tmp_path / "data/manifest.json")
    counts = m.cell_counts("train")
    np.testing.assert_array_equal(counts[0], [5, 5, 0])
    np.testing.assert_array_equal(counts[1], [0, 0, 5])


def test_gen_data_bad_config_exits_2(tmp_path):
    assert run(tmp_path, "gen-data", "--config", "missing.json", "--out", "x") == 2
    cfg = write_cfg(tmp_path, "bad.json", {"n_classes": 99})
    assert run(tmp_path, "gen-data", "--config", cfg, "--out", "x") == 2


# -- train -----------------------------------------------------------------------

def test_train_writes_artifacts_and_is_deterministic(tmp_path):
    make_dataset(tmp_path)
    cfg = write_cfg(tmp_path, "train.json", TRAIN_CFG)
    for tag in ("a", "b"):
        assert run(tmp_path, "train", "--config", cfg,
                   "--out-checkpoint", f"{tag}.json",
                   "--audit-log", f"{tag}.jsonl") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    epochs = read_rows(tmp_path / "a.json.epochs.csv")
    assert len(epochs) == TRAIN_CFG["train"]["epochs"]
    for line in (tmp_path / "a.jsonl").read_text().splitlines():
        rec = json.loads(line)
        assert {"epoch", "batch", "hook", "class", "moves"} <= set(rec)
        for mv in rec["moves"]:
            assert {"sample", "from", "to", "lambda", "degenerate"} <= set(mv)


def test_train_missing_dataset_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "train.json", TRAIN_CFG)
    assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "c.json",
               "--audit-log", "a.jsonl") == 2


# -- stats -----------------------------------------------------------------------

def test_stats_registry_valid_and_deterministic(tmp_path):
    make_dataset(tmp_path)
    make_checkpoint(tmp_path)
    for tag in ("r1", "r2"):
        assert run(tmp_path, "stats", "--checkpoint", "ckpt.json", "--dataset", "data",
                   "--layer", "block2", "--alpha", "3.0",
                   "--out-registry", f"{tag}.json") == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    reg = ts.load_registry(tmp_path / "r1.json")  # validates invariants on load
    assert reg.layer == "block2" and reg.n_domains == 2
    assert reg.alpha_default == 3.0


def test_stats_pseudo_labels_default_alpha(tmp_path):
    make_dataset(tmp_path)
    make_checkpoint(tmp_path)
    assert run(tmp_path, "stats", "--checkpoint", "ckpt.json", "--dataset", "data",
               "--layer", "block2", "--out-registry", "pseudo.json",
               "--pseudo-labels", "2") == 0
    reg = ts.load_registry(tmp_path / "pseudo.json")
    assert reg.alpha_default == ts.PSEUDO_LABEL_ALPHA
    assert reg.names == ("cluster0", "cluster1")


def test_stats_pseudo_labels_cluster_with_train_seed(tmp_path):
    from styleshift import micro_net as mn
    from styleshift.domain_data import load_manifest
    from styleshift.experiment import assign_pseudo_domains, load_split
    make_dataset(tmp_path)
    train_seed, k = 1, 2
    doc = {**TRAIN_CFG, "pseudo_labels": k, "train": {**TRAIN_CFG["train"], "seed": train_seed}}
    cfg = write_cfg(tmp_path, "pseudo_train.json", doc)
    assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "pseudo.ckpt",
               "--audit-log", "pseudo.jsonl") == 0
    assert run(tmp_path, "stats", "--checkpoint", "pseudo.ckpt", "--dataset", "data",
               "--layer", "block2", "--out-registry", "got.json",
               "--pseudo-labels", str(k)) == 0

    manifest = load_manifest(tmp_path / "data/manifest.json")
    x, _, _ = load_split(manifest, tmp_path / "data", "train", manifest.source_domains)
    doms = assign_pseudo_domains(x, k, train_seed)
    # precondition: seed 0 numbers the clusters differently, so the check below
    # tells the train seed from seed 0
    assert not np.array_equal(doms, assign_pseudo_domains(x, k, 0))
    want = ts.build_registry(mn.MicroNet.load(tmp_path / "pseudo.ckpt"), x, doms, "block2",
                             alpha=ts.PSEUDO_LABEL_ALPHA,
                             names=tuple(f"cluster{j}" for j in range(k)))
    ts.save_registry(want, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# -- eval ------------------------------------------------------------------------

def _eval_setup(tmp_path):
    make_dataset(tmp_path)
    make_checkpoint(tmp_path)
    assert run(tmp_path, "stats", "--checkpoint", "ckpt.json", "--dataset", "data",
               "--layer", "block2", "--alpha", "3.0", "--out-registry", "reg.json") == 0


def test_eval_off_twice_identical(tmp_path):
    _eval_setup(tmp_path)
    for tag in ("e1", "e2"):
        assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry",
                   "reg.json", "--mode", "off", "--dataset", "data",
                   "--out-csv", f"{tag}.csv") == 0
    assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()
    rows = read_rows(tmp_path / "e1.csv")
    assert len(rows) == 3  # two sources + target
    assert all(row["shift_rate"] == "0.0" for row in rows)


def test_eval_huge_alpha_no_shift(tmp_path):
    _eval_setup(tmp_path)
    assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
               "--mode", "proposed", "--alpha", "1e9", "--dataset", "data",
               "--out-csv", "e.csv") == 0
    assert all(float(r["shift_rate"]) == 0.0 for r in read_rows(tmp_path / "e.csv"))


def test_eval_alpha_zero_matches_shift_all(tmp_path):
    _eval_setup(tmp_path)
    assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
               "--mode", "proposed", "--alpha", "0.0", "--dataset", "data",
               "--out-csv", "z.csv", "--method-label", "m") == 0
    za = [(r["target"], r["accuracy"]) for r in read_rows(tmp_path / "z.csv")]
    for mode in ("shift-all", "shift_all"):
        assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
                   "--mode", mode, "--dataset", "data",
                   "--out-csv", f"{mode}.csv", "--method-label", "m") == 0
        sa = [(r["target"], r["accuracy"]) for r in read_rows(tmp_path / f"{mode}.csv")]
        assert za == sa


def test_eval_nearest_sample_mode_runs(tmp_path):
    _eval_setup(tmp_path)
    for mode in ("nearest-sample", "nearest_sample"):
        assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
                   "--mode", mode, "--alpha", "0.0", "--dataset", "data",
                   "--out-csv", f"{mode}.csv", "--pool-size", "5", "--seed", "1") == 0
        rows = read_rows(tmp_path / f"{mode}.csv")
        assert all(float(r["shift_rate"]) >= 0.99 for r in rows)


def test_eval_bad_mode_exits_2(tmp_path):
    _eval_setup(tmp_path)
    assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
               "--mode", "sideways", "--dataset", "data", "--out-csv", "x.csv") == 2


@pytest.mark.parametrize("corruption", ["missing_param", "wrong_shape", "nan", "string_data",
                                        "numeric_string_data", "bool_data", "extra_param",
                                        "unknown_key", "param_order_reversed"])
def test_eval_corrupt_checkpoint_exits_2(tmp_path, corruption):
    _eval_setup(tmp_path)
    doc = json.loads((tmp_path / "ckpt.json").read_text())
    params = doc["params"]
    if corruption == "missing_param":
        del params["head_b"]
    elif corruption == "wrong_shape":  # same number of values, transposed shape
        params["head_w"]["shape"].reverse()
    elif corruption == "string_data":
        params["head_w"]["data"][0] = "x"
    elif corruption == "numeric_string_data":
        params["head_w"]["data"][0] = "0.5"
    elif corruption == "bool_data":
        params["head_b"]["data"][0] = True
    elif corruption == "extra_param":
        params["head_c"] = params["head_b"]
    elif corruption == "unknown_key":
        doc["optimizer"] = "sgd"
    elif corruption == "param_order_reversed":
        doc["param_order"].reverse()
    else:
        params["head_w"]["data"][0] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run(tmp_path, "eval", "--checkpoint", "bad.json", "--registry", "reg.json",
               "--mode", "off", "--dataset", "data", "--out-csv", "x.csv") == 2
    assert not (tmp_path / "x.csv").exists()


def test_eval_overflowing_logits_exit_3(tmp_path):
    """A finite checkpoint whose head overflows to ±inf logits is a runtime
    error, not a set of predictions (argmax would pick the first inf)."""
    _eval_setup(tmp_path)
    doc = json.loads((tmp_path / "ckpt.json").read_text())
    params = doc["params"]
    params["conv1_b"]["data"] = [1e3] * len(params["conv1_b"]["data"])
    n_classes = params["head_w"]["shape"][1]
    params["head_w"]["data"] = [1e308 if i % n_classes == 0 else -1e308
                                for i in range(len(params["head_w"]["data"]))]
    (tmp_path / "big.json").write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(tmp_path, "eval", "--checkpoint", "big.json", "--registry", "reg.json",
                   "--mode", "off", "--dataset", "data", "--out-csv", "x.csv")
    assert code == 3
    assert not (tmp_path / "x.csv").exists()


def _set_first_everywhere(doc, key, value):
    """Put ``value`` first in every domain's and the global ``key`` list and
    recompute the spread, so the registry stays consistent if ``value`` is
    read as the number it spells."""
    entries = [*doc["domains"], doc["global"]]
    for entry in entries:
        entry[key][0] = value
    rows = np.array([[float(v) for v in e["mu"] + e["sigma"]] for e in entries])
    doc["spread"] = float(np.linalg.norm(rows[-1][None, :] - rows[:-1], axis=1).mean())


@pytest.mark.parametrize("corruption", ["missing_key", "ragged_mu", "string_mu", "negative_sigma",
                                        "spread_doubled", "nan_mu", "no_domains",
                                        "string_alpha", "negative_alpha", "numeric_string_mu",
                                        "numeric_string_alpha", "bool_sigma",
                                        "numeric_string_spread", "global_shifted",
                                        "channels_wrong", "unknown_key"])
def test_eval_malformed_registry_exits_2(tmp_path, corruption):
    _eval_setup(tmp_path)
    doc = json.loads((tmp_path / "reg.json").read_text())
    if corruption == "numeric_string_mu":
        _set_first_everywhere(doc, "mu", "0.5")
    elif corruption == "numeric_string_alpha":
        doc["alpha"] = "3"
    elif corruption == "bool_sigma":
        _set_first_everywhere(doc, "sigma", True)
    elif corruption == "numeric_string_spread":
        doc["spread"] = repr(doc["spread"])
    elif corruption == "missing_key":
        del doc["spread"]
    elif corruption == "ragged_mu":
        doc["domains"][0]["mu"].pop()
    elif corruption == "string_mu":
        doc["domains"][0]["mu"][0] = "x"
    elif corruption == "negative_sigma":  # global and spread stay consistent
        for entry in [*doc["domains"], doc["global"]]:
            entry["sigma"] = [-s for s in entry["sigma"]]
    elif corruption == "spread_doubled":
        doc["spread"] *= 2
    elif corruption == "global_shifted":  # the spread is left as it was
        doc["global"]["mu"][0] += 1.0
    elif corruption == "nan_mu":
        doc["domains"][0]["mu"][0] = float("nan")
    elif corruption == "no_domains":
        doc["domains"] = []
    elif corruption == "channels_wrong":
        doc["channels"] += 1
    elif corruption == "unknown_key":
        doc["domains"][0]["weight"] = 1.0
    elif corruption == "string_alpha":
        doc["alpha"] = "three"
    else:
        doc["alpha"] = -1.0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run(tmp_path, "eval", "--checkpoint", "ckpt.json", "--registry", "bad.json",
               "--mode", "proposed", "--dataset", "data", "--out-csv", "x.csv") == 2
    assert not (tmp_path / "x.csv").exists()


# -- sweep / report ----------------------------------------------------------------

SWEEP_CFG = {
    "data": DATA_CFG,
    "net": NET_CFG,
    "train": {"epochs": 3, "batch_size": 10, "lr": 0.05, "sb": True,
              "sb_hooks": ["block1"]},
    "eval": {"mode": "proposed", "layer": "block2"},
    "seeds": [0, 1],
}


def test_sweep_row_count_and_report(tmp_path):
    cfg = write_cfg(tmp_path, "exp.json", SWEEP_CFG)
    assert run(tmp_path, "sweep", "--config", cfg, "--param", "alpha",
               "--values", "0,3", "--out-csv", "sweep.csv") == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2 * 2 * 3  # values x seeds x domains
    # shift rate is non-increasing in alpha for every (seed, domain)
    by_key = {}
    for r in rows:
        by_key.setdefault((r["seed"], r["target"]), {})[float(r["value"])] = \
            float(r["shift_rate"])
    for rates in by_key.values():
        assert rates[3.0] <= rates[0.0]
    assert run(tmp_path, "report", "--in-csv", "sweep.csv", "--out-svg", "chart.svg",
               "--y-col", "shift_rate") == 0
    svg = (tmp_path / "chart.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    means = read_rows(tmp_path / "sweep.csv.means.csv")
    assert all(r["n"] == "6" for r in means)  # 2 seeds x 3 domains per value


@pytest.mark.parametrize("content", [None, "{not json", "null", "[{}]"],
                         ids=["missing", "not_json", "null", "list"])
def test_sweep_and_train_bad_config_exit_2(tmp_path, content):
    if content is not None:
        (tmp_path / "cfg.json").write_text(content)
    assert run(tmp_path, "sweep", "--config", "cfg.json", "--param", "alpha",
               "--values", "0", "--out-csv", "sweep.csv") == 2
    assert run(tmp_path, "train", "--config", "cfg.json", "--out-checkpoint", "c.json",
               "--audit-log", "a.jsonl") == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_report_hand_crafted_means(tmp_path):
    (tmp_path / "in.csv").write_text(
        "method,value,accuracy\nA,1,0.25\nA,1,0.75\nA,2,1.0\n")
    assert run(tmp_path, "report", "--in-csv", "in.csv", "--out-svg", "c.svg",
               "--x-col", "value", "--y-col", "accuracy") == 0
    means = {(r["series"], float(r["value"])): float(r["mean_accuracy"])
             for r in read_rows(tmp_path / "in.csv.means.csv")}
    assert means[("A", 1.0)] == pytest.approx(0.5)
    assert means[("A", 2.0)] == pytest.approx(1.0)


def test_report_empty_csv_exits_3(tmp_path):
    (tmp_path / "empty.csv").write_text("method,value,accuracy\n")
    assert run(tmp_path, "report", "--in-csv", "empty.csv", "--out-svg", "c.svg") == 3


def test_report_tolerates_column_reordering(tmp_path):
    (tmp_path / "in.csv").write_text(
        "accuracy,method,value\n0.5,A,1\n0.7,A,1\n")
    assert run(tmp_path, "report", "--in-csv", "in.csv", "--out-svg", "c.svg") == 0
    means = read_rows(tmp_path / "in.csv.means.csv")
    assert float(means[0]["mean_accuracy"]) == pytest.approx(0.6)


def test_unknown_config_keys_exit_2(tmp_path):
    make_dataset(tmp_path)
    bad_field = dict(TRAIN_CFG)
    bad_field["train"] = {"epochs": 2, "learning_rate": 0.1}  # wrong field name
    bad_key = {**TRAIN_CFG, "init_seed": 7}  # not a train-document key
    for i, bad in enumerate((bad_field, bad_key)):
        cfg = write_cfg(tmp_path, f"bad_train{i}.json", bad)
        assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "c.json",
                   "--audit-log", "a.jsonl") == 2


def test_sweep_alpha_trains_once_per_seed(tmp_path, monkeypatch):
    from styleshift import micro_net as mn
    from styleshift.experiment import run_seed
    calls = []
    train = mn.train

    def counted_train(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(mn, "train", counted_train)
    doc = {**SWEEP_CFG, "eval": {"mode": "nearest-sample", "layer": "block2", "pool_size": 5}}
    cfg = write_cfg(tmp_path, "exp.json", doc)
    alphas = (0.0, 1.5, 3.0)
    assert run(tmp_path, "sweep", "--config", cfg, "--param", "alpha",
               "--values", ",".join(map(str, alphas)), "--out-csv", "sweep.csv") == 0
    assert len(calls) == len(doc["seeds"])

    # each alpha alone through run_seed: one training per (alpha, seed) point
    base = from_json(ExperimentConfig, doc)
    want = [{"param": "alpha", "value": alpha, **row}
            for alpha in alphas for seed in base.seeds
            for row in run_seed(cli.apply_sweep_param(base, "alpha", alpha), seed,
                                tmp_path / f"alone_{alpha:g}").rows]
    want.sort(key=lambda r: (r["value"], r["seed"], r["target"]))
    cli.write_csv(tmp_path / "want.csv", ("param", "value") + cli.EVAL_COLUMNS, want)
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_train_plain_baseline_path_matches_library(tmp_path):
    # sb off + aug none through the CLI equals a direct training call
    make_dataset(tmp_path)
    doc = {"dataset": "data", "net": NET_CFG,
           "train": {"epochs": 3, "batch_size": 10, "lr": 0.05, "seed": 2}}
    cfg = write_cfg(tmp_path, "plain.json", doc)
    assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "plain.json.ckpt",
               "--audit-log", "plain.jsonl") == 0
    assert (tmp_path / "plain.jsonl").read_text() == ""  # no balancing records

    from styleshift import micro_net as mn
    from styleshift.domain_data import load_manifest
    from styleshift.experiment import load_split
    manifest = load_manifest(tmp_path / "data/manifest.json")
    x, y, d = load_split(manifest, tmp_path / "data", "train", manifest.source_domains)
    d = np.searchsorted(np.unique(d), d)
    net = mn.MicroNet.init(from_json(mn.NetConfig, NET_CFG), seed=2)
    mn.train(net, x, y, d, mn.TrainConfig(epochs=3, batch_size=10, lr=0.05, seed=2),
             n_domains=2)
    loaded = mn.MicroNet.load(tmp_path / "plain.json.ckpt")
    for k in net.params:
        np.testing.assert_array_equal(loaded.params[k], net.params[k])


def test_single_domain_mode_through_cli(tmp_path):
    make_dataset(tmp_path)
    doc = {"dataset": "data", "net": NET_CFG, "protocol": "single_domain",
           "train": {"epochs": 3, "batch_size": 10, "lr": 0.05, "seed": 4}}
    cfg = write_cfg(tmp_path, "sd.json", doc)
    assert run(tmp_path, "train", "--config", cfg, "--out-checkpoint", "sd.ckpt",
               "--audit-log", "sd.jsonl") == 0
    assert run(tmp_path, "stats", "--checkpoint", "sd.ckpt", "--dataset", "data",
               "--layer", "block1", "--single-domain",
               "--out-registry", "sd_reg.json") == 0
    reg = ts.load_registry(tmp_path / "sd_reg.json")
    assert reg.n_domains == 1
    assert run(tmp_path, "eval", "--checkpoint", "sd.ckpt", "--registry", "sd_reg.json",
               "--mode", "single-domain", "--dataset", "data",
               "--out-csv", "sd.csv") == 0
    rows = read_rows(tmp_path / "sd.csv")
    assert all(float(r["shift_rate"]) == 1.0 for r in rows)


def test_nearest_sample_pool_agrees_between_cli_and_run_seed(tmp_path):
    """Under the single-domain protocol ``eval`` pools the training images of
    the domains its registry names, as ``run_seed`` does, so both give the
    same nearest-sample rows. The pool size covers the whole pool, so every
    draw is the whole pool in some order and the two paths' different pool
    seeds pick the same nearest member."""
    from styleshift.experiment import run_seed
    doc = {**SWEEP_CFG, "protocol": "single_domain", "seeds": [0],
           "train": {"epochs": 3, "batch_size": 10, "lr": 0.05},
           "eval": {"mode": "nearest-sample", "layer": "block1", "alpha": 0.0,
                    "pool_size": 1000}}
    outcome = run_seed(from_json(ExperimentConfig, doc), 0, tmp_path)
    outcome.net.tags = mn.CheckpointTags(seed=0)
    outcome.net.save(tmp_path / "sd.ckpt")
    assert run(tmp_path, "stats", "--checkpoint", "sd.ckpt", "--dataset", "data_seed0",
               "--layer", "block1", "--alpha", "0", "--single-domain",
               "--out-registry", "sd_reg.json") == 0
    assert run(tmp_path, "eval", "--checkpoint", "sd.ckpt", "--registry", "sd_reg.json",
               "--mode", "nearest-sample", "--pool-size", "1000", "--dataset", "data_seed0",
               "--out-csv", "cli.csv") == 0
    cli.write_csv(tmp_path / "lib.csv", cli.EVAL_COLUMNS, outcome.rows)
    assert all(float(r["shift_rate"]) == 1.0 for r in read_rows(tmp_path / "lib.csv"))
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_sweep_keep_fraction_regenerates_data(tmp_path):
    doc = dict(SWEEP_CFG)
    doc["seeds"] = [0]
    cfg = write_cfg(tmp_path, "exp_kf.json", doc)
    assert run(tmp_path, "sweep", "--config", cfg, "--param", "keep_fraction",
               "--values", "0.5,1.0", "--out-csv", "kf.csv",
               "--out-dir", "kf_points") == 0
    rows = read_rows(tmp_path / "kf.csv")
    assert len(rows) == 2 * 1 * 3  # values x seeds x domains
    from styleshift.domain_data import load_manifest
    m = load_manifest(tmp_path / "kf_points/keep_fraction_0.5/data_seed0/manifest.json")
    assert m.imbalance == {"kind": "data", "keep_fraction": 0.5}
    counts = m.cell_counts("train")
    assert counts[0].sum() == 15 and counts[1].sum() == 9  # largest kept, other halved



# -- the config boundary ------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench/workloads.json")
                       .read_text())["workloads"]


def readme_examples():
    """The README's data.json and train.json examples, in that order."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    return [json.loads(b) for b in blocks]


def test_readme_examples_read_through_from_json():
    data, train = readme_examples()
    assert from_json(DataConfig, data).imbalance.class_subsets == ((0, 1, 2), (3, 4), (5, 6))
    train = dict(train)
    assert train.pop("dataset") == "data"
    cfg = from_json(ExperimentConfig, train)
    assert cfg.train.sb_hooks == ("block1", "block2") and cfg.pseudo_labels is None


def run_quiet(workdir, *argv):
    """Exit code and stderr of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--workdir", str(workdir)])
    return code, err.getvalue()


def _small_data(doc):
    return {**doc, "per_cell_train": 2, "per_cell_test": 1}


def _small_train(doc):
    return {**doc, "train": {**doc["train"], "epochs": 1}}


def _base_documents():
    """(command, document) for the README's examples and perfbench's three
    configs, cut to two training images per cell and one epoch so that a
    mutation that stays valid runs in well under a second."""
    data, train = readme_examples()
    tsb, sweep, infer = (WORKLOADS[k] for k in ("tsb-train", "sweep-aug", "ts-infer"))
    experiment = _small_train({**sweep["experiment"], "seeds": [0]})
    return [("gen-data", _small_data(data)), ("train", _small_train(train)),
            ("gen-data", _small_data(tsb["data"])),
            ("train", _small_train({"dataset": "data", "train": tsb["train"]})),
            ("sweep", {**experiment, "data": _small_data(experiment["data"])}),
            ("gen-data", _small_data(infer["data"])),
            ("train", _small_train({"dataset": "data", "train": infer["train"]}))]


def _paths(doc, prefix=()):
    """The path to every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


DROP = object()


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced, or removed
    if ``value`` is DROP."""
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


OTHER_TYPES = ("x", "1", 1, 1.5, True, None, [], {})
OUT_OF_RANGE = (-1, 0, -0.5, 1.5)


@st.composite
def mutated_documents(draw):
    """A base document with one value dropped, given another JSON type,
    nested one level deeper or, for a number, put out of range."""
    command, doc = draw(st.sampled_from(_base_documents()))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = functools.reduce(operator.getitem, path, doc)
    mutations = [[DROP], [v for v in OTHER_TYPES if type(v) is not type(value)],
                 [[value], {"value": value}]]
    if type(value) in (int, float):
        mutations.append(OUT_OF_RANGE)
    return command, _replaced(doc, path, draw(st.sampled_from(draw(st.sampled_from(mutations)))))


def document_run(command, tag):
    """The primary output and the flags of ``command`` on a config document,
    with every output under the directory ``tag``."""
    return {
        "gen-data": (f"{tag}/data/manifest.json", ("--out", f"{tag}/data")),
        "train": (f"{tag}/ckpt.json", ("--out-checkpoint", f"{tag}/ckpt.json",
                                       "--audit-log", f"{tag}/audit.jsonl")),
        "sweep": (f"{tag}/sweep.csv", ("--param", "alpha", "--values", "3",
                                       "--out-csv", f"{tag}/sweep.csv",
                                       "--out-dir", f"{tag}/sweep")),
    }[command]


@pytest.fixture(scope="module")
def readme_workdir(tmp_path_factory):
    """A work directory holding the README's dataset at desk scale as ``data``."""
    workdir = tmp_path_factory.mktemp("readme")
    write_cfg(workdir, "data.json", _small_data(readme_examples()[0]))
    assert run_quiet(workdir, "gen-data", "--config", "data.json", "--out", "data")[0] == 0
    return workdir


@settings(max_examples=100, deadline=None)
@given(mutated=mutated_documents())
def test_mutated_documents_exit_0_or_2(readme_workdir, mutated):
    """A mutation of a valid document either runs or is a configuration error
    that writes no primary output: never a traceback, never exit 3."""
    command, doc = mutated
    tag = Path(tempfile.mkdtemp(dir=readme_workdir)).name
    cfg = write_cfg(readme_workdir, f"{tag}.json", doc)
    out, argv = document_run(command, tag)
    code, err = run_quiet(readme_workdir, command, "--config", cfg, *argv)
    assert code in (0, 2), err
    assert (readme_workdir / out).exists() == (code == 0)
    assert code == 0 or err.startswith("config error:")


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    """DATA_CFG's dataset, TRAIN_CFG's checkpoint and its block2 registry."""
    workdir = tmp_path_factory.mktemp("cli")
    make_dataset(workdir)
    make_checkpoint(workdir)
    assert run(workdir, "stats", "--checkpoint", "ckpt.json", "--dataset", "data",
               "--layer", "block2", "--out-registry", "reg.json") == 0
    return workdir


MALFORMED = {
    "data_n_classes_string": ("gen-data", DATA_CFG, ("n_classes",), "3"),
    "data_n_classes_float": ("gen-data", DATA_CFG, ("n_classes",), 2.5),
    "data_image_size_bool": ("gen-data", DATA_CFG, ("image_size",), True),
    "data_image_size_negative": ("gen-data", DATA_CFG, ("image_size",), -4),
    "data_imbalance_string": ("gen-data", DATA_CFG, ("imbalance",), "class"),
    "data_no_train_images": ("gen-data", DATA_CFG, ("per_cell_train",), 0),
    "train_epochs_string": ("train", TRAIN_CFG, ("train", "epochs"), "1"),
    "train_epochs_negative": ("train", TRAIN_CFG, ("train", "epochs"), -1),
    "train_lr_string": ("train", TRAIN_CFG, ("train", "lr"), "x"),
    "train_batch_size_zero": ("train", TRAIN_CFG, ("train", "batch_size"), 0),
    "net_blocks_string": ("train", TRAIN_CFG, ("net", "blocks"), "x"),
    "net_without_image_size": ("train", TRAIN_CFG, ("net", "image_size"), DROP),
    "net_image_size_32_on_16px": ("train", TRAIN_CFG, ("net", "image_size"), 32),
    "net_two_classes_on_three": ("train", TRAIN_CFG, ("net", "n_classes"), 2),
    "block_out_channels_string": ("train", TRAIN_CFG, ("net", "blocks", 0, "out_channels"), "a"),
    "pseudo_labels_string": ("train", TRAIN_CFG, ("pseudo_labels",), "2"),
    "pseudo_labels_zero": ("train", TRAIN_CFG, ("pseudo_labels",), 0),
    "pseudo_labels_above_split": ("train", TRAIN_CFG, ("pseudo_labels",), 99),
    "sweep_seeds_string": ("sweep", SWEEP_CFG, ("seeds",), "01"),
    "sweep_eval_mode_unknown": ("sweep", SWEEP_CFG, ("eval", "mode"), "sideways"),
    "sweep_net_image_size_32_on_16px": ("sweep", SWEEP_CFG, ("net", "image_size"), 32),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(cli_workdir, case):
    command, base, path, value = MALFORMED[case]
    cfg = write_cfg(cli_workdir, f"{case}.json", _replaced(base, path, value))
    code, err = run_quiet(cli_workdir, command, "--config", cfg, *document_run(command, case)[1])
    assert (code, err[:13]) == (2, "config error:"), err
    assert not (cli_workdir / case).exists()  # no output, no data, no training


@pytest.mark.parametrize("argv", [
    ("stats", "--alpha", "-1"), ("stats", "--alpha", "nan"),
    ("eval", "--alpha", "-1"), ("eval", "--alpha", "nan"),
    ("sweep", "--param", "alpha", "--values", "1,-1"),
    ("sweep", "--param", "alpha", "--values", "nan"),
    ("sweep", "--param", "keep_fraction", "--values", "0.5,2"),
], ids=lambda argv: "_".join(argv[:1] + argv[-2:]).replace("--", ""))
def test_bad_numeric_flag_exits_2_before_work(cli_workdir, argv):
    """alpha is a finite number >= 0 and a keep fraction lies in (0, 1]; a
    sweep checks every point before its first training."""
    command, tag = argv[0], "flag_" + "_".join(argv[1:]).replace(",", "_")
    args = {"stats": ("--checkpoint", "ckpt.json", "--dataset", "data",
                      "--out-registry", f"{tag}.out"),
            "eval": ("--checkpoint", "ckpt.json", "--registry", "reg.json",
                     "--dataset", "data", "--out-csv", f"{tag}.out"),
            "sweep": ("--config", write_cfg(cli_workdir, f"{tag}.json", SWEEP_CFG),
                      "--out-csv", f"{tag}.out", "--out-dir", tag)}[command]
    code, err = run_quiet(cli_workdir, *argv, *args)
    assert (code, err[:13]) == (2, "config error:"), err
    assert not (cli_workdir / f"{tag}.out").exists() and not (cli_workdir / tag).exists()


def _spy_on_reads(monkeypatch) -> list[str]:
    """The names of the ``MicroNet.load`` and ``style_vectors_at`` calls made
    from now on, in call order."""
    calls = []

    def counted(name):
        original = getattr(mn.MicroNet, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("load", "style_vectors_at"):
        monkeypatch.setattr(mn.MicroNet, name, counted(name))
    return calls


@pytest.mark.parametrize("flags", [("--alpha", "nan"), ("--pool-size", "0")],
                         ids=["alpha_nan", "pool_size_0"])
def test_eval_checks_its_flags_before_reading_any_file(cli_workdir, monkeypatch, flags):
    """A bad ``eval`` flag exits 2 before the checkpoint is read or the
    nearest-sample pool is embedded."""
    calls = _spy_on_reads(monkeypatch)
    out = "eval_" + "_".join(flags).replace("--", "") + ".csv"
    code, err = run_quiet(cli_workdir, "eval", "--checkpoint", "ckpt.json", "--registry",
                          "reg.json", "--dataset", "data", "--mode", "nearest-sample",
                          *flags, "--out-csv", out)
    assert (code, err[:13], calls) == (2, "config error:", []), err
    assert not (cli_workdir / out).exists()


@pytest.mark.parametrize("alpha", ["nan", "-1", "inf"])
def test_stats_checks_alpha_before_reading_any_file(cli_workdir, monkeypatch, alpha):
    """A bad ``stats --alpha`` exits 2 before the checkpoint is read or the
    training split is embedded."""
    calls = _spy_on_reads(monkeypatch)
    out = f"stats_alpha_{alpha}.json"
    code, err = run_quiet(cli_workdir, "stats", "--checkpoint", "ckpt.json", "--dataset", "data",
                          "--alpha", alpha, "--out-registry", out)
    assert (code, err[:13], calls) == (2, "config error:", []), err
    assert not (cli_workdir / out).exists()


def test_sweep_sizes_an_omitted_net_to_its_data(tmp_path):
    """Without ``net`` a sweep trains the default network sized to its data,
    the same network ``train`` sizes, and ``null`` means the same."""
    sized = {"in_channels": 1, "image_size": DATA_CFG["image_size"],
             "n_classes": DATA_CFG["n_classes"]}
    base = {k: v for k, v in SWEEP_CFG.items() if k != "net"}
    docs = {"omitted": {**base, "seeds": [0]}, "null": {**base, "seeds": [0], "net": None},
            "sized": {**base, "seeds": [0], "net": sized}}
    for tag, doc in docs.items():
        cfg = write_cfg(tmp_path, f"{tag}.json", doc)
        assert run(tmp_path, "sweep", "--config", cfg, "--param", "alpha", "--values", "0,3",
                   "--out-csv", f"{tag}.csv", "--out-dir", tag) == 0
    want = (tmp_path / "sized.csv").read_bytes()
    assert (tmp_path / "omitted.csv").read_bytes() == want
    assert (tmp_path / "null.csv").read_bytes() == want


@pytest.mark.parametrize("content", ["missing_samples", "image_size_string", "image_size_float",
                                     "null", "not_json"])
def test_malformed_manifest_exits_2(cli_workdir, content):
    manifest = json.loads((cli_workdir / "data/manifest.json").read_text())
    text = {"missing_samples": json.dumps(_replaced(manifest, ("samples",), DROP)),
            "image_size_string": json.dumps(_replaced(manifest, ("image_size",), "16")),
            "image_size_float": json.dumps(_replaced(manifest, ("image_size",), 16.0)),
            "null": "null", "not_json": "{not json"}[content]
    (cli_workdir / f"bad_{content}").mkdir()
    (cli_workdir / f"bad_{content}/manifest.json").write_text(text)
    code, err = run_quiet(cli_workdir, "stats", "--checkpoint", "ckpt.json",
                          "--dataset", f"bad_{content}", "--out-registry", f"{content}.out")
    assert (code, err[:13]) == (2, "config error:"), err
    assert not (cli_workdir / f"{content}.out").exists()


def _dataset_copy(workdir, name, manifest=None, strip=None):
    """``data`` copied to ``name``, with the manifest document and the image strip
    array replaced where given."""
    shutil.copytree(workdir / "data", workdir / name)
    if manifest is not None:
        (workdir / name / "manifest.json").write_text(json.dumps(manifest))
    if strip is not None:
        dd.write_pnm(workdir / name / "images.pgm", strip)
    return name


def _train_and_eval(workdir, dataset, tag):
    """Exit code and stderr of ``train`` and of ``eval`` on ``dataset``."""
    cfg = write_cfg(workdir, f"{tag}.json", {**TRAIN_CFG, "dataset": dataset})
    return {
        "train": run_quiet(workdir, "train", "--config", cfg, "--out-checkpoint", f"{tag}.ckpt",
                           "--audit-log", f"{tag}.audit"),
        "eval": run_quiet(workdir, "eval", "--checkpoint", "ckpt.json", "--registry", "reg.json",
                          "--dataset", dataset, "--out-csv", f"{tag}.csv")}


@pytest.mark.parametrize("rows", [-16, 16], ids=["short", "long"])
def test_strip_of_another_height_exits_3(cli_workdir, rows):
    """images.pgm holds 16 rows per manifest record; one record more or less is
    malformed image data, as a truncated PGM is."""
    strip = dd.read_pnm(cli_workdir / "data/images.pgm")
    dataset = _dataset_copy(cli_workdir, f"strip{rows}", strip=np.resize(
        strip, (strip.shape[0] + rows, strip.shape[1])))
    for command, (code, err) in _train_and_eval(cli_workdir, dataset, f"strip{rows}").items():
        assert (code, err[:6]) == (3, "error:"), (command, err)
        assert "records of 16x16 need" in err
    assert not (cli_workdir / f"strip{rows}.ckpt").exists()
    assert not (cli_workdir / f"strip{rows}.csv").exists()


def test_old_format_manifest_with_paths_exits_2(cli_workdir):
    """A manifest written with per-record ``path`` keys, before the strip, is a
    configuration error: ``path`` is not a record key."""
    doc = json.loads((cli_workdir / "data/manifest.json").read_text())
    for sample in doc["samples"]:
        sample["path"] = f"images/{sample['id']:06d}.pgm"
    dataset = _dataset_copy(cli_workdir, "old_format", manifest=doc)
    for command, (code, err) in _train_and_eval(cli_workdir, dataset, "old_format").items():
        assert (code, err[:13]) == (2, "config error:"), (command, err)
        assert "unknown keys ['path']" in err


BAD_TAGS = {"list": [], "null": None, "seed_string": {"seed": "x"}, "seed_negative": {"seed": -1},
            "aug_int": {"aug": 3}, "aug_unknown": {"aug": "cutout"}, "sb_string": {"sb": "no"},
            "unknown_key": {"lr": 0.1}}
BAD_RECORDS = {"path_int": ("path", 5), "path_string": ("path", "images/000000.pgm"),
               "id_duplicate": ("id", 1),
               "domain_string": ("domain", "x"), "domain_99": ("domain", 99),
               "domain_negative": ("domain", -1), "class_99": ("class", 99),
               "class_float": ("class", 0.0), "split_int": ("split", 3),
               "split_val": ("split", "val"), "id_bool": ("id", True),
               "unknown_key": ("cls", 0)}
BAD_INPUTS = {
    **{f"tags_{name}_{command}": ("tags", command, tags)
       for name, tags in BAD_TAGS.items() for command in ("stats", "eval")},
    **{f"record_{name}": ("record", "train", change) for name, change in BAD_RECORDS.items()},
    "alpha_nan_mode_off": ("alpha", "eval", "nan"), "alpha_-1_mode_off": ("alpha", "eval", "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_tags_records_or_alpha_exit_2(cli_workdir, case):
    """Checkpoint tags and manifest sample records are typed and range-checked
    when they load, and alpha is checked in every eval mode."""
    kind, command, bad = BAD_INPUTS[case]
    ckpt, dataset, alpha = "ckpt.json", "data", ()
    if kind == "tags":
        doc = json.loads((cli_workdir / "ckpt.json").read_text())
        ckpt = write_cfg(cli_workdir, f"{case}.ckpt.json", {**doc, "tags": bad})
    elif kind == "record":
        manifest = json.loads((cli_workdir / "data/manifest.json").read_text())
        dataset = f"{case}_data"
        (cli_workdir / dataset).mkdir()
        write_cfg(cli_workdir, f"{dataset}/manifest.json",
                  _replaced(manifest, ("samples", 0, bad[0]), bad[1]))
    else:
        alpha = ("--mode", "off", "--alpha", bad)
    argv = {"stats": ("--checkpoint", ckpt, "--dataset", dataset, "--out-registry", f"{case}.out"),
            "eval": ("--checkpoint", ckpt, "--registry", "reg.json", "--dataset", dataset,
                     "--out-csv", f"{case}.out", *alpha),
            "train": ("--config", write_cfg(cli_workdir, f"{case}.json",
                                            {**TRAIN_CFG, "dataset": dataset}),
                      "--out-checkpoint", f"{case}.out", "--audit-log", f"{case}.audit")}
    code, err = run_quiet(cli_workdir, command, *argv[command])
    assert (code, err[:13]) == (2, "config error:"), err
    assert not (cli_workdir / f"{case}.out").exists()


def test_train_checkpoint_resaves_byte_identical(cli_workdir):
    """A ``train`` checkpoint, tags included, survives a library load and save."""
    mn.MicroNet.load(cli_workdir / "ckpt.json").save(cli_workdir / "resaved.json")
    assert (cli_workdir / "resaved.json").read_bytes() == (cli_workdir / "ckpt.json").read_bytes()


def test_checkpoint_without_tags_reads_the_defaults(cli_workdir):
    doc = json.loads((cli_workdir / "ckpt.json").read_text())
    assert doc["tags"] == {"sb": True, "aug": "none", "seed": 3}
    del doc["tags"]
    ckpt = write_cfg(cli_workdir, "untagged.json", doc)
    assert run(cli_workdir, "eval", "--checkpoint", ckpt, "--registry", "reg.json",
               "--dataset", "data", "--out-csv", "untagged.csv") == 0
    rows = read_rows(cli_workdir / "untagged.csv")
    assert {(r["method"], r["seed"]) for r in rows} == {("TS", "0")}


IMBALANCES = {"balanced": {"kind": "balanced"},
              "data": {"kind": "data", "keep_fraction": 0.4},
              "class": {"kind": "class", "class_subsets": [[0, 1], [2]]},
              "long_tailed": {"kind": "long_tailed", "ratio": 4.0}}
# sha256 of manifest.json then images.pgm, for DATA_CFG at seed 5 with each
# imbalance; each record's rows of images.pgm equal the pixels of the file that
# the per-record format wrote for it, rendered from every balanced cell before
# filtering, so neither the keep rule's rng order nor the pixels can drift
KIND_DIGESTS = {
    "balanced": "9d70103d81970bfb108ec504de17f4b9447efdbfdbd569ffd96337d570df045d",
    "data": "36604341ad63dab26d2d13381c2af4def9bbbfcb2e4b00d4cd004d37a313eeef",
    "class": "c80b8073306b3f9b8b7a7b1a8462c0412bcbdbe929f20ba8919f8d20521428df",
    "long_tailed": "0319f025557d92ca72d8429f3fd7fff427bde4ce1da17dfd4b6e2023a11c814a",
}


@pytest.fixture(scope="module")
def kind_datasets(tmp_path_factory):
    """DATA_CFG's dataset at seed 5 under each imbalance kind, by ``gen-data``."""
    workdir = tmp_path_factory.mktemp("kinds")
    for kind, imbalance in IMBALANCES.items():
        cfg = write_cfg(workdir, f"{kind}.json", {**DATA_CFG, "imbalance": imbalance})
        assert run(workdir, "gen-data", "--config", cfg, "--out", kind, "--seed", "5") == 0
    return workdir


@pytest.mark.parametrize("kind", sorted(IMBALANCES))
def test_gen_data_writes_only_the_listed_images(kind_datasets, kind):
    """A dataset is its manifest, the manifest's log and one image strip."""
    root = kind_datasets / kind
    assert sorted(p.name for p in root.iterdir()) == \
        ["images.pgm", "manifest.json", "manifest.json.log"]


@pytest.mark.parametrize("kind", sorted(IMBALANCES))
def test_gen_data_bytes_are_pinned(kind_datasets, kind):
    root = kind_datasets / kind
    digest = hashlib.sha256((root / "manifest.json").read_bytes())
    digest.update((root / "images.pgm").read_bytes())
    assert digest.hexdigest() == KIND_DIGESTS[kind]
