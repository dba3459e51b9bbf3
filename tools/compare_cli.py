"""Run one list of ``styleshift`` commands in two checkouts and compare what they write.

Usage: python tools/compare_cli.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository. The list runs in a
fresh work directory for each checkout, with that checkout's ``src`` on
PYTHONPATH, and runs twice: once with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS at 1, and once with them unset. Inference sets BLAS to
one thread while its workers run, so the runs differ in the BLAS threads of
the rest, training above all; the unset run checks that they change no byte.
Its 60 commands write 191 files. They cover gen-data at 16 and 32 px, a
40-epoch style-balancing train, a 4-epoch train with each augmentation
(mixstyle, dsu, efdmix), stats at block1 and block2, with pseudo labels and
with --single-domain, eval in every mode (nearest-sample at two pool sizes
and two seeds) and on the dsu network, a 3-epoch batch-63 train at 32 px with
balancing and dsu, the training shape of the benchmark's sweep-aug workload,
with stats and eval of it, alpha sweeps in every mode
(one alpha, pseudo labels, the single-domain protocol), a keep_fraction sweep
and two reports, one with --series-col.

Every file the commands write, and a transcript of each command's exit
status and output, is compared byte for byte; in the ``.log`` sidecars the
timestamps and ``wall=`` times are masked first. Exits 0 when every file
matches and every command succeeded, else 1 with the differing files and the
failed commands listed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DATA = {"n_classes": 4, "n_sources": 3, "per_cell_train": 6, "per_cell_test": 8,
        "image_size": 16, "target_preset": "far",
        "imbalance": {"kind": "class", "class_subsets": [[0, 1, 2], [1, 2, 3], [0, 3]]}}
# 32 px and batch 63: the largest ops that training runs, as in the
# benchmark's sweep-aug workload, and full-size inference chunks.
DATA_32 = {"n_classes": 4, "n_sources": 3, "per_cell_train": 16, "per_cell_test": 8,
           "image_size": 32, "target_preset": "far"}
SWEEP = {"data": DATA, "train": {"epochs": 6, "batch_size": 12, "lr": 0.05, "sb": True},
         "eval": {"mode": "proposed", "layer": "block1"}, "seeds": [0, 1]}


AUGS = ("mixstyle", "dsu", "efdmix")


def _sweep(**changes) -> dict:
    return {**SWEEP, **changes, "eval": {**SWEEP["eval"], **changes.get("eval", {})}}


CONFIGS = {
    "data.json": DATA,
    "data_32.json": DATA_32,
    "train.json": {"dataset": "data",
                   "train": {"epochs": 40, "batch_size": 12, "lr": 0.05, "sb": True,
                             "sb_hooks": ["block1", "block2"]}},
    **{f"train_{aug}.json": {"dataset": "data",
                             "train": {"epochs": 4, "batch_size": 12, "lr": 0.05, "aug": aug,
                                       "aug_prob": 1.0}}
       for aug in AUGS},
    "train_32.json": {"dataset": "data_32",
                      "train": {"epochs": 3, "batch_size": 63, "lr": 0.05, "sb": True,
                                "aug": "dsu", "aug_prob": 1.0}},
    "sweep_block1.json": _sweep(),
    "sweep_block2.json": _sweep(eval={"layer": "block2"}),
    "sweep_pseudo.json": _sweep(pseudo_labels=3),
    "sweep_nearest.json": _sweep(eval={"mode": "nearest-sample", "pool_size": 5}),
    "sweep_nearest_pseudo.json": _sweep(eval={"mode": "nearest-sample", "pool_size": 5},
                                        pseudo_labels=3),
    "sweep_nearest_single.json": _sweep(eval={"mode": "nearest-sample", "pool_size": 5},
                                        protocol="single_domain", pseudo_labels=2),
    "sweep_shift_all.json": _sweep(eval={"mode": "shift_all"}),
    "sweep_off.json": _sweep(eval={"mode": "off"}),
    "sweep_single.json": _sweep(eval={"mode": "single_domain"}, protocol="single_domain",
                                train={"epochs": 6, "batch_size": 12, "lr": 0.05}),
}

REGISTRIES = {"b1": ["--layer", "block1", "--alpha", "3"], "b2": ["--layer", "block2"],
              "pl": ["--layer", "block1", "--pseudo-labels", "3"],
              "sd": ["--layer", "block1", "--single-domain"]}
# Both nearest-sample pool sizes stay below the 48 training images of the source
# domains that the pool draws from, so every nearest-sample file shows the draws.
EVALS = {"off": ["--mode", "off"], "proposed": ["--mode", "proposed"],
         "alpha0": ["--mode", "proposed", "--alpha", "0"],
         "alpha1.5": ["--mode", "proposed", "--alpha", "1.5"],
         "alpha6": ["--mode", "proposed", "--alpha", "6"],
         "shift_all": ["--mode", "shift-all"],
         **{f"nearest{size}_seed{seed}": ["--mode", "nearest-sample", "--pool-size", str(size),
                                          "--seed", str(seed)]
            for size in (5, 20) for seed in (0, 1)}}
# (output name, config, parameter, values)
SWEEPS = [(Path(name).stem, name, "alpha", "0,1.5,3,6") for name in CONFIGS
          if name.startswith("sweep_")]
SWEEPS += [("sweep_one_alpha", "sweep_block1.json", "alpha", "3"),
           ("sweep_keep_fraction", "sweep_block1.json", "keep_fraction", "0.5,1")]


def commands() -> list[list[str]]:
    evals = [(reg, name, flags) for reg in ("b1", "b2", "pl") for name, flags in EVALS.items()]
    evals += [("sd", "single", ["--mode", "single-domain"]),
              ("sd", "nearest5_seed0", EVALS["nearest5_seed0"])]
    return [["gen-data", "--config", "data.json", "--out", "data", "--seed", "0"],
            ["gen-data", "--config", "data_32.json", "--out", "data_32", "--seed", "0"],
            ["train", "--config", "train.json", "--out-checkpoint", "ckpt.json",
             "--audit-log", "audit.jsonl"],
            *(["train", "--config", f"train_{aug}.json", "--out-checkpoint", f"ckpt_{aug}.json",
               "--audit-log", f"audit_{aug}.jsonl"] for aug in AUGS),
            *(["stats", "--checkpoint", "ckpt.json", "--dataset", "data", *flags,
               "--out-registry", f"reg_{name}.json"] for name, flags in REGISTRIES.items()),
            ["stats", "--checkpoint", "ckpt_dsu.json", "--dataset", "data", "--layer", "block1",
             "--out-registry", "reg_dsu.json"],
            ["eval", "--checkpoint", "ckpt_dsu.json", "--registry", "reg_dsu.json",
             "--dataset", "data", "--out-csv", "eval_dsu.csv"],
            ["train", "--config", "train_32.json", "--out-checkpoint", "ckpt_32.json",
             "--audit-log", "audit_32.jsonl"],
            ["stats", "--checkpoint", "ckpt_32.json", "--dataset", "data_32", "--layer", "block1",
             "--out-registry", "reg_32.json"],
            ["eval", "--checkpoint", "ckpt_32.json", "--registry", "reg_32.json",
             "--dataset", "data_32", "--out-csv", "eval_32.csv"],
            *(["eval", "--checkpoint", "ckpt.json", "--registry", f"reg_{reg}.json", *flags,
               "--dataset", "data", "--out-csv", f"eval_{reg}_{name}.csv"]
              for reg, name, flags in evals),
            *(["sweep", "--config", config, "--param", param, "--values", values,
               "--out-csv", f"{out}.csv", "--out-dir", out]
              for out, config, param, values in SWEEPS),
            ["report", "--in-csv", "sweep_block1.csv", "--out-svg", "sweep_block1.svg"],
            ["report", "--in-csv", "sweep_keep_fraction.csv", "--y-col", "shift_rate",
             "--series-col", "method", "--out-svg", "sweep_keep_fraction.svg"]]


def run_list(checkout: Path, work: Path, one_blas_thread: bool) -> list[str]:
    """Run every command in ``work`` on ``checkout``'s sources; return the failed ones."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    if one_blas_thread:
        env.update(dict.fromkeys(BLAS_VARS, "1"))
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    work.mkdir(parents=True)
    for name, doc in CONFIGS.items():
        (work / name).write_text(json.dumps(doc))
    transcript, failed = [], []
    for argv in commands():
        done = subprocess.run([sys.executable, "-m", "styleshift.cli", *argv, "--workdir", "."],
                              cwd=work, env=env, capture_output=True, text=True)
        line = " ".join(argv)
        transcript.append(f"$ {line}\nexit {done.returncode}\n{done.stdout}{done.stderr}")
        if done.returncode:
            failed.append(f"{checkout}: {line}: exit {done.returncode}: {done.stderr.strip()}")
    (work / "transcript.txt").write_text("".join(transcript))
    return failed


def masked(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".log":  # each line: a timestamp, then the message
        data = re.sub(rb"(?m)^\S+ ", b"<time> ", data)
        data = re.sub(rb"wall=[0-9.]+s", b"wall=<s>", data)
    return data


def differing(a: Path, b: Path) -> tuple[int, list[str]]:
    """The number of files under either directory and those that differ."""
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()})
    return len(files), [str(f) for f in files if not ((a / f).is_file() and (b / f).is_file()
                                                     and masked(a / f) == masked(b / f))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bad = False
    with tempfile.TemporaryDirectory() as tmp:
        for blas, one in (("BLAS at 1 thread", True), ("BLAS variables unset", False)):
            works = [Path(tmp) / f"{side}_{int(one)}" for side in ("parent", "change")]
            failed = [cmd for checkout, work in zip((args.parent, args.change), works)
                      for cmd in run_list(checkout, work, one)]
            count, diff = differing(*works)
            print(f"{blas}: {len(commands())} commands, {count} files, {len(diff)} differ, "
                  f"{len(failed)} commands failed")
            for line in [*diff, *failed]:
                print(f"  {line}")
            bad = bad or bool(diff or failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
