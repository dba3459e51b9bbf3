"""Experiment pipeline stages shared by the command line, the sweep and the tests.

One experiment seed runs the full pipeline: generate the synthetic dataset,
optionally replace domain labels with pseudo labels, train the classifier
(``train_stage``), summarize source styles into a registry, then evaluate every
test domain under the configured shift mode (``eval_stage``). Everything is
deterministic given the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import domain_data as dd
from . import micro_net as mn
from . import test_time_shift as tts
from .errors import ConfigError


def shift_mode_from_name(name: str, pool_size: int = tts.DEFAULT_NEAREST_POOL) -> tts.ShiftMode:
    """The shift mode spelled ``name``; ``_`` and ``-`` are interchangeable."""
    return tts.ShiftMode(name, pool_size)


@dataclass(frozen=True)
class DataConfig:
    n_classes: int = 7
    n_sources: int = 3
    per_cell_train: int = 18
    per_cell_test: int = 16
    image_size: int = 32
    target_preset: str = "far"
    imbalance: dd.ImbalanceSpec = field(default_factory=dd.ImbalanceSpec)

    def __post_init__(self):  # generate_data checks n_classes, n_sources and the preset
        if min(self.per_cell_train, self.per_cell_test, self.image_size) < 1:
            raise ConfigError("per_cell_train, per_cell_test and image_size must be >= 1")
        self.imbalance.check_layout(self.n_sources, self.n_classes)


@dataclass(frozen=True)
class EvalConfig:
    mode: str = "proposed"
    alpha: float | None = None
    layer: str = "block2"
    pool_size: int = tts.DEFAULT_NEAREST_POOL

    def __post_init__(self):
        tts.ShiftMode(self.mode, self.pool_size)
        if self.alpha is not None:
            tts.checked_alpha(self.alpha)


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    net: mn.NetConfig = field(default_factory=mn.NetConfig)
    train: mn.TrainConfig = field(default_factory=mn.TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    protocol: str = "leave_one_out"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    pseudo_labels: int | None = None

    def __post_init__(self):
        if self.protocol not in ("leave_one_out", "single_domain"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be a non-empty list of integers >= 0")
        if self.pseudo_labels is not None and self.pseudo_labels < 1:
            raise ConfigError("pseudo_labels must be >= 1")
        hooks = set(self.net.hook_names)
        named = {self.eval.layer, *(self.train.sb_hooks or ()), *(self.train.aug_hooks or ())}
        if not named <= hooks:
            raise ConfigError(f"hooks {sorted(named - hooks)} are not blocks of the net")


def method_label(sb: bool, mode: str, aug: str) -> str:
    base = {(False, False): "Baseline", (True, False): "SB",
            (False, True): "TS", (True, True): "TSB"}[(sb, mode != "off")]
    return base if aug == "none" else f"{base} (+{aug})"


def generate_data(cfg: DataConfig, out_dir, seed: int) -> dd.DatasetManifest:
    """Materialize the dataset for one experiment seed, imbalance applied."""
    return dd.gen_dataset(
        out_dir, n_classes=cfg.n_classes, sources=dd.source_styles(cfg.n_sources),
        target=dd.target_style(cfg.target_preset), per_cell_train=cfg.per_cell_train,
        per_cell_test=cfg.per_cell_test, image_size=cfg.image_size, seed=seed,
        imbalance=cfg.imbalance)


def load_split(manifest: dd.DatasetManifest, root, split: str, domains=None):
    records = manifest.records(split, domains)
    images = dd.load_images(manifest, root, records)
    classes = np.array([r.cls for r in records], dtype=np.intp)
    doms = np.array([r.domain for r in records], dtype=np.intp)
    return images, classes, doms


def assign_pseudo_domains(images: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Pseudo domain ids from raw-pixel style clustering (no labels needed)."""
    styles = dd.raw_pixel_styles(images)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC1_05])))
    return tts.pseudo_domains(styles, k, rng)


def source_split(manifest: dd.DatasetManifest, root, protocol: str,
                 pseudo_labels: int | None, seed: int):
    """A protocol's training images, class labels, 0-based domain ids and domain
    names. Pseudo labels cluster with ``seed``, which must be the train seed."""
    domains = manifest.source_domains
    if protocol == "single_domain":
        domains = domains[:1]
    images, classes, doms = load_split(manifest, root, "train", domains)
    if pseudo_labels is not None and not 1 <= pseudo_labels <= len(images):
        raise ConfigError(f"pseudo_labels must lie in 1..{len(images)}, the training "
                          f"split's size; got {pseudo_labels}")
    if pseudo_labels is not None:
        doms = assign_pseudo_domains(images, pseudo_labels, seed)
        names = tuple(f"cluster{j}" for j in range(pseudo_labels))
    else:
        doms = np.searchsorted(np.unique(doms), doms)  # compact 0-based ids
        names = tuple(manifest.styles[d].name for d in domains)
    return images, classes, doms, names


def default_alpha(alpha: float | None, pseudo_labels: int | None) -> float:
    if alpha is not None:
        return alpha
    return tts.PSEUDO_LABEL_ALPHA if pseudo_labels is not None else tts.DEFAULT_ALPHA


def train_stage(cfg: ExperimentConfig, manifest: dd.DatasetManifest, root, seed: int):
    """Initialize and train cfg's network on the source split, with ``seed``
    as the train seed. Returns (net, metrics, source split). A net that does
    not fit the dataset, or balancing of fewer than 2 domains, is a ConfigError."""
    data = (1, manifest.image_size, manifest.n_classes)
    if (cfg.net.in_channels, cfg.net.image_size, cfg.net.n_classes) != data:
        raise ConfigError(f"the net's in_channels, image_size and n_classes must be {data}")
    split = source_split(manifest, root, cfg.protocol, cfg.pseudo_labels, seed)
    images, classes, doms, names = split
    if cfg.train.sb and len(names) < 2:
        raise ConfigError("style balancing needs at least 2 training domains")
    net = mn.MicroNet.init(cfg.net, seed=seed)
    metrics = mn.train(net, images, classes, doms, replace(cfg.train, seed=seed),
                       n_domains=len(names))
    return net, metrics, split


def eval_stage(net: mn.MicroNet, registry: tts.DomainRegistry,
               manifest: dd.DatasetManifest, test, mode: tts.ShiftMode,
               alpha: float | None, pool, rng: np.random.Generator,
               label: str, seed: int) -> list[dict]:
    """One result row per test domain of ``test`` (images, classes, domain
    ids). Nearest-sample mode draws from ``pool``, style vectors at the
    registry's layer; other modes ignore it."""
    xte, yte, dte = test
    result = mn.evaluate(net, xte, yte, dte, registry=registry, mode=mode,
                         alpha=alpha, sample_pool=pool, rng=rng)
    return [{"method": label, "target": manifest.styles[dom].name, "seed": seed,
             "accuracy": result.accuracy(dom), "shift_rate": result.shift_rate(dom)}
            for dom in sorted(result.domains)]


@dataclass
class SeedOutcome:
    seed: int
    manifest: dd.DatasetManifest
    train_images: np.ndarray
    test: tuple[np.ndarray, np.ndarray, np.ndarray]   # images, classes, domain ids
    net: mn.MicroNet
    registry: tts.DomainRegistry
    rows: list[dict]
    wall_time: float
    pool: np.ndarray | None = None   # training style vectors, on first nearest-sample eval


def evaluate_seed(cfg: ExperimentConfig, outcome: SeedOutcome) -> list[dict]:
    """Rows of cfg's evaluation of a trained seed; only ``cfg.eval`` may differ
    from the training config. An alpha of None is the registry's."""
    mode = shift_mode_from_name(cfg.eval.mode, cfg.eval.pool_size)
    if mode.kind == "nearest_sample" and outcome.pool is None:
        outcome.pool = outcome.net.style_vectors_at(outcome.train_images,
                                                    outcome.registry.layer)
    seed = outcome.seed
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x9001])))
    return eval_stage(outcome.net, outcome.registry, outcome.manifest, outcome.test,
                      mode, cfg.eval.alpha, outcome.pool, rng,
                      method_label(cfg.train.sb, mode.kind, cfg.train.aug), seed)


def run_seed(cfg: ExperimentConfig, seed: int, workdir) -> SeedOutcome:
    """One seed end to end: generate the data, train, summarize, evaluate."""
    start = time.perf_counter()
    data_dir = Path(workdir) / f"data_seed{seed}"
    manifest = generate_data(cfg.data, data_dir, seed)
    net, _, (xtr, _, dtr, names) = train_stage(cfg, manifest, data_dir, seed)
    registry = tts.build_registry(net, xtr, dtr, cfg.eval.layer, names=names,
                                  alpha=default_alpha(cfg.eval.alpha, cfg.pseudo_labels))
    test = load_split(manifest, data_dir, "test")  # after training: not in its peak
    outcome = SeedOutcome(seed=seed, manifest=manifest, train_images=xtr, test=test,
                          net=net, registry=registry, rows=[], wall_time=0.0)
    outcome.rows = evaluate_seed(cfg, outcome)
    outcome.wall_time = time.perf_counter() - start
    return outcome
