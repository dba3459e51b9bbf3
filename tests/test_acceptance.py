"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criteria 6-8 share one trained pipeline (5 seeds).
"""

import functools
import json
import time

import numpy as np
import pytest

from helpers import fd_grad, rel_err, weighted_sum
from styleshift import cli
from styleshift import domain_data as dd
from styleshift import micro_net as mn
from styleshift import style_balance as sb
from styleshift import style_ops as so
from styleshift import tensor_core as tc
from styleshift import test_time_shift as ts
from styleshift.autodiff import Var
from styleshift.experiment import (
    DataConfig,
    EvalConfig,
    ExperimentConfig,
    load_split,
    run_seed,
)
from test_style_balance import brute_force_selection

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: stats-transplant exactness -----------------------------------

def test_criterion_1_stat_transplant():
    start = time.perf_counter()
    rng = RNG(1)
    worst_mu = worst_sig = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        content = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), (c, h, w))
        target = tc.ChannelStats(mu=rng.normal(0, 2, c), sigma=rng.uniform(0.2, 3.0, c))
        out = so.adain(content, target, eps_std=1e-9)
        worst_mu = max(worst_mu, float(np.max(np.abs(tc.channel_mean(out) - target.mu))))
        worst_sig = max(worst_sig, float(np.max(np.abs(
            tc.channel_std(out, 1e-9) - target.sigma))))
        x, y = rng.normal(size=(2, h * w))
        # efdm is the training hook at lambda 0: row 0 takes its partner y's values
        mixed, _ = so.efdmix_hook(Var(np.stack([x, y]).reshape(2, 1, 1, h * w)), [1, 0],
                                  [0.0, 0.0])
        assert np.array_equal(np.sort(mixed.value[0].ravel()), np.sort(y))
    wall = time.perf_counter() - start
    ok = worst_mu < 1e-6 and worst_sig < 1e-6 and wall < 5.0
    report(1, ok, f"adain stat error mu {worst_mu:.2e} / sigma {worst_sig:.2e} "
                  f"(tol 1e-6), efdm multisets exact, {wall:.2f}s < 5s")


# -- criterion 2: selection oracle ----------------------------------------------

def test_criterion_2_selection_oracle():
    start = time.perf_counter()
    rng = RNG(2)
    checked = 0
    for batch in range(500):
        n_domains = int(rng.integers(2, 5))
        n_classes = int(rng.integers(1, 4))
        for _ in range(n_classes):
            sizes = rng.integers(0, 13, size=n_domains)
            if sizes.sum() == 0:
                continue
            targets = sb.compute_targets(sizes)
            for dom in range(n_domains):
                m = int(sizes[dom] - targets.targets[dom])
                if m <= 0 or sizes[dom] < 2:
                    continue
                dim = int(rng.integers(1, 5))
                if rng.random() < 0.3:  # tie-rich pools hit the documented breaks
                    styles = rng.integers(0, 3, size=(sizes[dom], dim)).astype(float)
                else:
                    styles = rng.normal(size=(sizes[dom], dim))
                got = sb.select_samples(styles, m).selected
                want = brute_force_selection(styles, m)
                assert got == want, f"batch {batch}: {got} != {want}"
                checked += 1
    wall = time.perf_counter() - start
    ok = checked > 500 and wall < 30.0
    report(2, ok, f"{checked} surplus cells matched the per-round brute force, "
                  f"{wall:.2f}s < 30s")


# -- criterion 3: decision oracle -------------------------------------------------

def test_criterion_3_decision_oracle():
    start = time.perf_counter()
    rng = RNG(3)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        styles = rng.normal(size=(n * 3, 2 * c))
        styles[:, c:] = np.abs(styles[:, c:]) + 0.05
        reg = ts.registry_from_styles(styles, np.repeat(np.arange(n), 3), "hook")
        phi = rng.normal(size=2 * c)
        for alpha in (0.0, 2.0, 3.0, 5.0):
            avg = float(np.mean([np.linalg.norm(phi - ct) for ct in reg.centroids]))
            spread = float(np.mean([np.linalg.norm(reg.global_phi - ct)
                                    for ct in reg.centroids]))
            if avg > alpha * spread:
                want = (True, int(np.argmin(
                    [np.linalg.norm(phi - ct) for ct in reg.centroids])))
            else:
                want = (False, None)
            got = ts.decide(phi, reg, alpha)
            assert (got.shifted, got.target) == want
            checked += 1
    wall = time.perf_counter() - start
    ok = checked == 4000 and wall < 5.0
    report(3, ok, f"{checked} decisions matched the reference rule exactly, "
                  f"{wall:.2f}s < 5s")


# -- criterion 4: gradient integrity ------------------------------------------------

def test_criterion_4_gradient_integrity():
    start = time.perf_counter()
    net_cfg = mn.NetConfig(in_channels=1, image_size=8,
                           blocks=(mn.BlockSpec(3), mn.BlockSpec(4)), n_classes=3)
    rng = RNG(4)
    x = rng.normal(size=(8, 1, 8, 8))
    y = rng.integers(0, 3, size=8)
    errors = {}

    net = mn.MicroNet.init(net_cfg, seed=0)
    errors["bare"] = mn.finite_difference_check(net, x, y, n_coords=200, seed=0)

    meta = sb.BatchMeta(np.array([0, 0, 0, 0, 1, 1, 2, 2]), y, 3, 3)
    net = mn.MicroNet.init(net_cfg, seed=1)
    op = mn.SbHookOp(meta, RNG(5))
    errors["sb"] = mn.finite_difference_check(net, x, y, hook_ops=[("block1", op)],
                                              n_coords=200, seed=1)
    assert op.plan is not None and op.plan.moves

    # the stop-gradient contract itself: unit / lam / 1-lam coefficients
    batch = rng.normal(size=(3, 2, 2, 3))
    move = sb.Move(sample=0, src=0, dst=1, cls=0, lam=0.35, carrier1=1, carrier2=2)
    w = rng.normal(size=batch.shape)
    leaf = Var(batch.copy())
    out, state = sb.sb_apply_var(leaf, [move])
    weighted_sum(out, w).backward()

    def frozen(xx):
        v, _ = sb.sb_apply_var(Var(xx), [move], frozen=state)
        return float(np.sum(w * v.value))

    errors["sb_partials"] = rel_err(fd_grad(frozen, batch.copy()), leaf.grad)
    assert np.allclose(leaf.grad[0], w[0])  # unit coefficient to the moved sample

    net = mn.MicroNet.init(net_cfg, seed=2)
    eop = mn.EfdmixHookOp.draw(8, RNG(6), 0.1)
    errors["efdmix"] = mn.finite_difference_check(net, x, y, hook_ops=[("block2", eop)],
                                                  n_coords=200, seed=2)
    wall = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 1e-4 and wall < 60.0
    report(4, ok, "finite differences (step 1e-5) vs backprop: " +
           ", ".join(f"{k} {v:.2e}" for k, v in errors.items()) +
           f" (tol 1e-4), {wall:.2f}s < 60s")


# -- criterion 5: balancing conservation and complexity -----------------------------

def test_criterion_5_balancing_conservation():
    start = time.perf_counter()
    rng = RNG(7)
    for trial in range(200):
        n_domains = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 5))
        b = int(rng.integers(4 * n_domains, 49))
        domains = rng.integers(0, n_domains, size=b)
        domains[:n_domains] = np.arange(n_domains)
        classes = rng.integers(0, n_classes, size=b)
        meta = sb.BatchMeta(domains, classes, n_domains, n_classes)
        x = rng.normal(size=(b, 1, 2, 2))
        _, plan = sb.style_balance_batch(x, meta, RNG(1000 + trial))
        assert not plan.skipped and not plan.warnings
        counts = sb.effective_counts(meta, plan)
        for k in range(n_classes):
            orig = np.bincount(domains[classes == k], minlength=n_domains)
            np.testing.assert_array_equal(counts[:, k],
                                          sb.compute_targets(orig).targets)
            assert counts[:, k].sum() == orig.sum()

    work = {}
    for b in (32, 64, 128):
        u = b // 8  # N*K = 4 with cell sizes proportional to B
        domains = np.concatenate([np.repeat([0, 1], [3 * u, u]),
                                  np.repeat([0, 1], [u, 3 * u])])
        classes = np.repeat([0, 1], 4 * u)
        meta = sb.BatchMeta(domains, classes, 2, 2)
        x = RNG(8).normal(size=(b, 1, 2, 2))
        _, plan = sb.style_balance_batch(x, meta, RNG(9))
        work[b] = plan.distance_evals
    q64 = work[64] / (4 * work[32])
    q128 = work[128] / (16 * work[32])
    wall = time.perf_counter() - start
    ok = abs(q64 - 1) <= 0.10 and abs(q128 - 1) <= 0.10 and wall < 30.0
    report(5, ok, f"200 batches conserve counts and hit targets; distance work "
                  f"quadratic fit ratios {q64:.3f}, {q128:.3f} (tol 0.10), "
                  f"{wall:.2f}s < 30s")


# -- criteria 6-8: trained pipeline ---------------------------------------------------

BASE_DATA = DataConfig(
    n_classes=7, n_sources=3, per_cell_train=18, per_cell_test=16, image_size=32,
    target_preset="far",
    imbalance=dd.ImbalanceSpec(kind="class", class_subsets=((0, 1, 2), (3, 4), (5, 6))))
BASE_TRAIN = dict(epochs=90, batch_size=21, lr=0.03, momentum=0.9,
                  sb_hooks=("block1", "block2"))
EVAL_B1 = EvalConfig(mode="proposed", alpha=3.0, layer="block1")


@functools.lru_cache(maxsize=1)
def pipeline(tmp_root: str):
    """Five-seed leave-one-domain-out pipeline shared by criteria 6-8."""
    from pathlib import Path
    t0 = time.perf_counter()
    out = {"bl": [], "sb": [], "tsb": [], "pseudo": [], "sd_off": [], "sd_on": [],
           "shift_far": [], "shift_src": [], "shift_near": [],
           "pseudo_wall": 0.0, "sd_wall": 0.0}
    root = Path(tmp_root)
    for seed in SEEDS:
        base_cfg = ExperimentConfig(
            data=BASE_DATA, train=mn.TrainConfig(sb=False, **BASE_TRAIN),
            eval=EvalConfig(mode="off", layer="block1"), seeds=(seed,))
        bl = run_seed(base_cfg, seed, root / "bl")
        target = bl.manifest.target_domain
        out["bl"].append(next(r["accuracy"] for r in bl.rows
                              if r["target"] == "far"))

        tsb_cfg = ExperimentConfig(
            data=BASE_DATA, train=mn.TrainConfig(sb=True, **BASE_TRAIN),
            eval=EVAL_B1, seeds=(seed,))
        tsb = run_seed(tsb_cfg, seed, root / "tsb")
        out["tsb"].append(next(r["accuracy"] for r in tsb.rows if r["target"] == "far"))
        out["shift_far"].append(next(r["shift_rate"] for r in tsb.rows
                                     if r["target"] == "far"))
        src_names = {tsb.manifest.styles[d].name for d in tsb.manifest.source_domains}
        out["shift_src"].append(float(np.mean(
            [r["shift_rate"] for r in tsb.rows if r["target"] in src_names])))

        # SB row: same trained network, shifting disabled
        data_dir = root / "tsb" / f"data_seed{seed}"
        xte, yte, dte = load_split(tsb.manifest, data_dir, "test")
        sb_eval = mn.evaluate(tsb.net, xte, yte, dte)
        out["sb"].append(sb_eval.accuracy(target))

        # near-target abstention with the same network and registry
        near = dd.gen_dataset(root / f"near{seed}", n_classes=7,
                              sources=dd.source_styles(3),
                              target=dd.target_style("near"), per_cell_train=2,
                              per_cell_test=16, image_size=32, seed=seed)
        xne, yne, dne = load_split(near, root / f"near{seed}", "test",
                                   [near.target_domain])
        near_eval = mn.evaluate(tsb.net, xne, yne, dne, registry=tsb.registry,
                                mode=ts.PROPOSED, alpha=3.0)
        out["shift_near"].append(near_eval.shift_rate(near.target_domain))

        pseudo_cfg = ExperimentConfig(
            data=BASE_DATA, train=mn.TrainConfig(sb=True, **BASE_TRAIN),
            eval=EvalConfig(mode="proposed", layer="block1"),  # alpha defaults to 2
            seeds=(seed,), pseudo_labels=3)
        ps = run_seed(pseudo_cfg, seed, root / "pseudo")
        out["pseudo_wall"] += ps.wall_time
        out["pseudo"].append(next(r["accuracy"] for r in ps.rows
                                  if r["target"] == "far"))

        sd_cfg = ExperimentConfig(
            data=DataConfig(n_classes=7, n_sources=3, per_cell_train=18,
                            per_cell_test=16, image_size=32, target_preset="far"),
            train=mn.TrainConfig(sb=False, **BASE_TRAIN),
            eval=EvalConfig(mode="single-domain", layer="block1"),
            protocol="single_domain", seeds=(seed,))
        sd = run_seed(sd_cfg, seed, root / "sd")
        out["sd_wall"] += sd.wall_time
        out["sd_on"].append(next(r["accuracy"] for r in sd.rows
                                 if r["target"] == "far"))
        xf, yf, df = load_split(sd.manifest, root / "sd" / f"data_seed{seed}", "test",
                                [sd.manifest.target_domain])
        sd_off = mn.evaluate(sd.net, xf, yf, df)
        out["sd_off"].append(sd_off.accuracy(sd.manifest.target_domain))
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    return pipeline(str(tmp_path_factory.mktemp("acceptance")))


def test_criterion_6_directional_end_to_end(trained):
    bl, sbm, tsb = (float(np.mean(trained[k])) for k in ("bl", "sb", "tsb"))
    shift_far = float(np.mean(trained["shift_far"]))
    shift_src = float(np.mean(trained["shift_src"]))
    shift_near = float(np.mean(trained["shift_near"]))
    ok = (tsb >= sbm >= bl and tsb - bl >= 0.03 and shift_far >= 0.8
          and shift_src <= 0.2 and shift_near <= 0.2 and trained["wall"] < 600)
    report(6, ok, f"mean far-target accuracy TSB {tsb:.3f} >= SB {sbm:.3f} >= "
                  f"Baseline {bl:.3f}; TSB-Baseline {100 * (tsb - bl):.1f} pts "
                  f"(>= 3); shift rate far {shift_far:.2f} (>= 0.8), sources "
                  f"{shift_src:.2f} (<= 0.2), near {shift_near:.2f} (<= 0.2); "
                  f"pipeline {trained['wall']:.0f}s < 600s")


def test_criterion_7_single_domain(trained):
    off = float(np.mean(trained["sd_off"]))
    on = float(np.mean(trained["sd_on"]))
    ok = on - off >= 0.03 and trained["sd_wall"] < 300
    report(7, ok, f"single-source training: shifting all test styles to the source "
                  f"lifts mean far-target accuracy {off:.3f} -> {on:.3f} "
                  f"({100 * (on - off):.1f} pts >= 3) across {len(SEEDS)} seeds, "
                  f"{trained['sd_wall']:.0f}s < 300s")


def test_criterion_8_pseudo_domains(trained):
    true_acc = float(np.mean(trained["tsb"]))
    pseudo_acc = float(np.mean(trained["pseudo"]))
    gap = abs(true_acc - pseudo_acc)
    ok = gap <= 0.02 and trained["pseudo_wall"] < 600
    report(8, ok, f"pseudo-labeled balancing+shifting (k=3, alpha=2) {pseudo_acc:.3f} "
                  f"within {100 * gap:.1f} pts (<= 2) of true-label run {true_acc:.3f}, "
                  f"{trained['pseudo_wall']:.0f}s < 600s")


# -- criterion 9: command determinism --------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    data_cfg = {"n_classes": 3, "n_sources": 2, "per_cell_train": 5,
                "per_cell_test": 3, "image_size": 16, "target_preset": "far",
                "imbalance": {"kind": "class", "class_subsets": [[0, 1], [2]]}}
    net_cfg = {"in_channels": 1, "image_size": 16, "n_classes": 3,
               "blocks": [{"out_channels": 4, "stride": 1, "pool": True},
                          {"out_channels": 6, "stride": 1, "pool": True}]}
    (tmp_path / "data.json").write_text(json.dumps(data_cfg))
    (tmp_path / "train.json").write_text(json.dumps({
        "dataset": "data", "net": net_cfg,
        "train": {"epochs": 4, "batch_size": 10, "lr": 0.05, "seed": 1, "sb": True,
                  "sb_hooks": ["block1"]}}))
    (tmp_path / "exp.json").write_text(json.dumps({
        "data": data_cfg, "net": net_cfg,
        "train": {"epochs": 2, "batch_size": 10, "lr": 0.05, "sb": True,
                  "sb_hooks": ["block1"]},
        "eval": {"mode": "proposed", "layer": "block2"}, "seeds": [0]}))

    def cli_run(*argv):
        assert cli.main([*argv, "--workdir", str(tmp_path)]) == 0

    pairs = []
    for tag in ("x", "y"):
        cli_run("gen-data", "--config", "data.json", "--out", f"data_{tag}",
                "--seed", "9")
        cli_run("gen-data", "--config", "data.json", "--out", "data", "--seed", "9")
        cli_run("train", "--config", "train.json",
                "--out-checkpoint", f"ckpt_{tag}.json", "--audit-log", f"a_{tag}.jsonl")
        cli_run("stats", "--checkpoint", f"ckpt_{tag}.json", "--dataset", "data",
                "--layer", "block2", "--alpha", "3.0",
                "--out-registry", f"reg_{tag}.json")
        cli_run("eval", "--checkpoint", f"ckpt_{tag}.json",
                "--registry", f"reg_{tag}.json", "--mode", "proposed",
                "--dataset", "data", "--out-csv", f"e_{tag}.csv")
        cli_run("sweep", "--config", "exp.json", "--param", "alpha",
                "--values", "0,4", "--out-csv", f"s_{tag}.csv",
                "--out-dir", f"sweep_{tag}")
        pairs.append([
            (tmp_path / f"data_{tag}/manifest.json").read_bytes(),
            (tmp_path / f"ckpt_{tag}.json").read_bytes(),
            (tmp_path / f"a_{tag}.jsonl").read_bytes(),
            (tmp_path / f"reg_{tag}.json").read_bytes(),
            (tmp_path / f"e_{tag}.csv").read_bytes(),
            (tmp_path / f"s_{tag}.csv").read_bytes(),
        ])
    ok = pairs[0] == pairs[1]
    report(9, ok, "gen-data, train, stats, eval and sweep reruns are byte-identical "
                  "(manifest, checkpoint, audit, registry, both CSVs)")
