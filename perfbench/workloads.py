"""The three benchmark workloads, driven through the package's public entry
points: ``styleshift.cli.main``, ``micro_net.evaluate`` and the stage
functions.

Each workload has a ``setup`` (timed as set-up), a ``unit`` (one timed
operation) and a ``check`` of the unit's outputs, which runs outside the timed
and traced regions. ``setup_artifacts`` and ``unit_artifacts`` return the
bytes that must repeat exactly between set-ups, between units and between
traced and untraced runs. Every CLI command and every evaluate call is one
operation in the ledger; a failed check marks the operation it checked as
failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

from styleshift import cli
from styleshift import micro_net as mn
from styleshift import test_time_shift as tts
from styleshift.domain_data import load_manifest
from styleshift.experiment import load_split, shift_mode_from_name


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, log):
        self.ops: dict[str, bool] = {}
        self.log = log

    def start(self, label: str) -> None:
        self.ops[label] = True

    def fail(self, label: str, reason: str) -> None:
        self.ops[label] = False
        self.log.write(f"FAILED {label}: {reason}\n")

    def check(self, label: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(label, reason)

    def same(self, label: str, want: dict[str, bytes], got: dict[str, bytes],
             what: str) -> None:
        for name in sorted(set(want) | set(got)):
            self.check(label, want.get(name) == got.get(name), f"{name} differs {what}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ops.values() if not ok)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Shared plumbing: a work directory, CLI calls and an operation ledger."""

    def __init__(self, spec: dict, work: Path, seed: int, ledger: Ledger):
        self.spec = spec
        self.work = work
        self.seed = seed
        self.ledger = ledger

    def write_json(self, name: str, doc: dict) -> None:
        (self.work / name).write_text(json.dumps(doc, indent=1, sort_keys=True))

    def cli(self, label: str, *argv: str) -> bool:
        """One CLI command as one operation; its stdout goes to the log."""
        self.ledger.start(label)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([*argv, "--workdir", str(self.work)])
        except Exception:  # an operation that raises is recorded, not fatal
            self.ledger.fail(label, traceback.format_exc())
            return False
        finally:
            self.ledger.log.write(out.getvalue())
        if rc != 0:
            self.ledger.fail(label, f"exit code {rc}")
        return rc == 0

    def gen_data(self, tag: str, data: dict) -> None:
        self.write_json("data.json", data)
        self.dataset = f"data_{tag}"
        self.cli(self.setup_op(tag), "gen-data", "--config", "data.json",
                 "--out", self.dataset, "--seed", str(self.seed))
        self.manifest = load_manifest(self.work / self.dataset / "manifest.json")
        self.n_train = len(self.manifest.records("train", self.manifest.source_domains))

    def read(self, **files: str) -> dict[str, bytes]:
        return {key: (self.work / name).read_bytes() for key, name in files.items()
                if (self.work / name).exists()}

    def setup_op(self, tag: str) -> str:
        return f"gen-data/{tag}"

    def setup_artifacts(self) -> dict[str, bytes]:
        return self.read(manifest=f"{self.dataset}/manifest.json")


class TsbTrain(Workload):
    """gen-data (set-up) -> train -> stats -> eval through the CLI."""

    named = {"seed_wall_s": "wall_s", "train_samples_per_s": "samples_per_s"}

    def setup(self, tag: str) -> None:
        self.gen_data(tag, self.spec["data"])

    def unit_op(self, tag: str) -> str:
        return f"train/{tag}"

    def unit(self, tag: str) -> dict:
        train = dict(self.spec["train"], seed=self.seed)
        self.write_json(f"train_{tag}.json", {"dataset": self.dataset, "train": train})
        ev = self.spec["eval"]
        ckpt, reg = f"ckpt_{tag}.json", f"reg_{tag}.json"
        t0 = time.perf_counter()
        self.cli(self.unit_op(tag), "train", "--config", f"train_{tag}.json",
                 "--out-checkpoint", ckpt, "--audit-log", f"audit_{tag}.jsonl")
        t1 = time.perf_counter()
        self.cli(f"stats/{tag}", "stats", "--checkpoint", ckpt, "--dataset", self.dataset,
                 "--layer", ev["layer"], "--alpha", str(ev["alpha"]), "--out-registry", reg)
        self.cli(f"eval/{tag}", "eval", "--checkpoint", ckpt, "--registry", reg,
                 "--mode", ev["mode"], "--alpha", str(ev["alpha"]),
                 "--dataset", self.dataset, "--out-csv", f"eval_{tag}.csv")
        t2 = time.perf_counter()
        return {"wall_s": t2 - t0,
                "samples_per_s": train["epochs"] * self.n_train / (t1 - t0)}

    def check(self, tag: str) -> None:
        epochs = _rows(self.work / f"ckpt_{tag}.json.epochs.csv")
        self.ledger.check(self.unit_op(tag), math.isfinite(float(epochs[-1]["loss"])),
                          "final epoch loss is not finite")
        m = self.manifest
        on = {r["target"]: r for r in _rows(self.work / f"eval_{tag}.csv")}
        far = m.styles[m.target_domain].name
        far_rate = float(on[far]["shift_rate"])
        src_rate = float(np.mean([float(on[m.styles[d].name]["shift_rate"])
                                  for d in m.source_domains]))
        self.ledger.check(f"eval/{tag}", far_rate >= 0.8,
                          f"far-target shift rate {far_rate} < 0.8")
        self.ledger.check(f"eval/{tag}", src_rate <= 0.2,
                          f"mean source shift rate {src_rate} > 0.2")
        if self.cli(f"eval-off/{tag}", "eval", "--checkpoint", f"ckpt_{tag}.json",
                    "--registry", f"reg_{tag}.json", "--mode", "off",
                    "--dataset", self.dataset, "--out-csv", f"eval_off_{tag}.csv"):
            off = {r["target"]: r for r in _rows(self.work / f"eval_off_{tag}.csv")}
            acc_ts, acc_off = float(on[far]["accuracy"]), float(off[far]["accuracy"])
            self.ledger.check(f"eval/{tag}", acc_ts >= acc_off,
                              f"far accuracy with TS {acc_ts} < with TS off {acc_off}")

    def unit_artifacts(self, tag: str) -> dict[str, bytes]:
        return self.read(checkpoint=f"ckpt_{tag}.json", audit=f"audit_{tag}.jsonl",
                         registry=f"reg_{tag}.json", eval_csv=f"eval_{tag}.csv")


class SweepAug(Workload):
    """`styleshift sweep --param alpha` with DSU augmentation and SB off.

    Set-up writes the experiment config and generates the dataset every sweep
    point regenerates; the checks read the test domains from it.
    """

    named = {"sweep_wall_s": "wall_s"}

    def setup(self, tag: str) -> None:
        exp = dict(self.spec["experiment"], seeds=[self.seed])
        self.write_json("exp.json", exp)
        self.gen_data(tag, exp["data"])

    def unit_op(self, tag: str) -> str:
        return f"sweep/{tag}"

    def unit(self, tag: str) -> dict:
        alphas = self.spec["alphas"]
        t0 = time.perf_counter()
        self.cli(self.unit_op(tag), "sweep", "--config", "exp.json", "--param", "alpha",
                 "--values", ",".join(repr(float(a)) for a in alphas),
                 "--out-csv", f"sweep_{tag}.csv", "--out-dir", f"sweep_{tag}")
        wall = time.perf_counter() - t0
        epochs = self.spec["experiment"]["train"]["epochs"]
        return {"wall_s": wall, "samples_per_s": len(alphas) * epochs * self.n_train / wall}

    def check(self, tag: str) -> None:
        label = self.unit_op(tag)
        rows = _rows(self.work / f"sweep_{tag}.csv")
        alphas = self.spec["alphas"]
        test_domains = {r.domain for r in self.manifest.records("test")}
        self.ledger.check(label, len(rows) == len(alphas) * len(test_domains),
                          f"{len(rows)} rows, expected {len(alphas)} x {len(test_domains)}")
        by_target: dict[str, dict[float, float]] = {}
        for r in rows:
            by_target.setdefault(r["target"], {})[float(r["value"])] = float(r["shift_rate"])
        for target, rate_at in by_target.items():
            rates = [rate_at[a] for a in sorted(rate_at)]
            self.ledger.check(label, rate_at.get(0.0) == 1.0,
                              f"{target}: alpha 0 shift rate is not 1.0")
            self.ledger.check(label, all(a >= b for a, b in zip(rates, rates[1:])),
                              f"{target}: shift rate rises with alpha: {rates}")

    def unit_artifacts(self, tag: str) -> dict[str, bytes]:
        return self.read(sweep_csv=f"sweep_{tag}.csv")


class TsInfer(Workload):
    """evaluate() on an in-memory test set in off, proposed and nearest modes.

    Set-up generates the data, trains a checkpoint and builds the registry
    through the CLI, then loads the test set and the nearest-sample pool.
    """

    MODES = (("off", "eval_off_samples_per_s"),
             ("proposed", "eval_proposed_samples_per_s"),
             ("nearest-sample", "eval_nearest_samples_per_s"))
    named = {key: key for _, key in MODES}

    def setup(self, tag: str) -> None:
        ev = self.spec["eval"]
        self.gen_data(tag, self.spec["data"])
        self.write_json(f"train_{tag}.json", {
            "dataset": self.dataset, "train": dict(self.spec["train"], seed=self.seed)})
        self.ckpt, self.reg = f"ckpt_{tag}.json", f"reg_{tag}.json"
        self.cli(f"train/{tag}", "train", "--config", f"train_{tag}.json",
                 "--out-checkpoint", self.ckpt, "--audit-log", f"audit_{tag}.jsonl")
        self.cli(f"stats/{tag}", "stats", "--checkpoint", self.ckpt, "--dataset", self.dataset,
                 "--layer", ev["layer"], "--alpha", str(ev["alpha"]),
                 "--out-registry", self.reg)
        root = self.work / self.dataset
        self.net = mn.MicroNet.load(self.work / self.ckpt)
        self.registry = tts.load_registry(self.work / self.reg)
        self.x, self.y, self.doms = load_split(self.manifest, root, "test")
        x_train, _, _ = load_split(self.manifest, root, "train", self.manifest.source_domains)
        self.pool = self.net.style_vectors_at(x_train, ev["layer"])
        self.expected = None

    def setup_artifacts(self) -> dict[str, bytes]:
        return {**super().setup_artifacts(),
                **self.read(checkpoint=self.ckpt, registry=self.reg)}

    def unit_op(self, tag: str) -> str:
        return f"evaluate-proposed/{tag}"

    def unit(self, tag: str) -> dict:
        ev = self.spec["eval"]
        self.results, walls = {}, {}
        for mode_name, _ in self.MODES:
            mode = shift_mode_from_name(mode_name, ev["pool_size"])
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 0x9001])))
            label = f"evaluate-{mode_name}/{tag}"
            self.ledger.start(label)
            t0 = time.perf_counter()
            try:
                self.results[mode_name] = mn.evaluate(
                    self.net, self.x, self.y, self.doms, registry=self.registry, mode=mode,
                    alpha=ev["alpha"], sample_pool=self.pool, rng=rng)
            except Exception:  # an operation that raises is recorded, not fatal
                self.ledger.fail(label, traceback.format_exc())
            walls[mode_name] = time.perf_counter() - t0
        n = self.x.shape[0]
        wall = sum(walls.values())
        out = {"wall_s": wall, "samples_per_s": len(walls) * n / wall}
        out.update({key: n / walls[mode_name] for mode_name, key in self.MODES})
        return out

    def check(self, tag: str) -> None:
        if self.expected is None:
            phi = self.net.style_vectors_at(self.x, self.registry.layer)
            alpha = self.spec["eval"]["alpha"]
            shifted = np.array([tts.decide(p, self.registry, alpha).shifted for p in phi])
            self.expected = {int(d): int(shifted[self.doms == d].sum())
                             for d in np.unique(self.doms)}
        for mode_name, res in self.results.items():
            got = {d: rec["shifted"] for d, rec in res.domains.items()}
            want = {d: 0 for d in self.expected} if mode_name == "off" else self.expected
            self.ledger.check(f"evaluate-{mode_name}/{tag}", got == want,
                              f"shifted per domain {got}, expected {want}")

    def unit_artifacts(self, tag: str) -> dict[str, bytes]:
        table = "".join(f"{mode},{d},{rec['n']},{rec['correct']},{rec['shifted']}\n"
                        for mode, res in self.results.items()
                        for d, rec in sorted(res.domains.items()))
        return {"results_csv": table.encode()}


WORKLOADS = {"tsb-train": TsbTrain, "sweep-aug": SweepAug, "ts-infer": TsInfer}
