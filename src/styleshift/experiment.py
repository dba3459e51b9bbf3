"""Experiment pipeline stages shared by the command line, the sweep and the tests.

One experiment seed runs the full pipeline: generate the synthetic dataset,
optionally replace domain labels with pseudo labels, train the classifier
(``train_stage``), summarize source styles into a registry, then evaluate every
test domain under the configured shift mode (``evaluate_rows``). Everything is
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
    net: mn.NetConfig | None = None   # None: the default network sized to the data
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
        hooks = set((self.net or mn.NetConfig()).hook_names)
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


def split_domains(manifest: dd.DatasetManifest, protocol: str) -> list[int]:
    """The source domains a protocol trains on: every one, or the first under
    single_domain."""
    domains = manifest.source_domains
    return domains[:1] if protocol == "single_domain" else domains


def pool_domains(manifest: dd.DatasetManifest, registry: tts.DomainRegistry) -> list[int]:
    """The source domains whose training images form the nearest-sample pool:
    those the registry names, or every source domain for a registry of
    pseudo-label clusters, which names none. ``evaluate_rows`` pools by this
    rule for ``eval`` and ``run_seed`` alike, under either protocol."""
    named = [d for d in manifest.source_domains if manifest.styles[d].name in registry.names]
    return named or manifest.source_domains


def source_split(manifest: dd.DatasetManifest, root, protocol: str,
                 pseudo_labels: int | None, seed: int):
    """A protocol's training images, class labels, 0-based domain ids and domain
    names. Pseudo labels cluster with ``seed``, which must be the train seed."""
    domains = split_domains(manifest, protocol)
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


def fitted_net(net: mn.NetConfig | None, image_size: int, n_classes: int) -> mn.NetConfig:
    """``net``, or if None the default network, sized to grayscale data of
    ``image_size`` px and ``n_classes`` classes; a net that does not fit is a ConfigError."""
    if net is None:
        return mn.NetConfig(in_channels=1, image_size=image_size, n_classes=n_classes)
    data = (1, image_size, n_classes)
    if (net.in_channels, net.image_size, net.n_classes) != data:
        raise ConfigError(f"the net's in_channels, image_size and n_classes must be {data}")
    return net


def train_stage(cfg: ExperimentConfig, manifest: dd.DatasetManifest, root, seed: int):
    """Initialize, tag and train cfg's network (``fitted_net`` to the dataset)
    on the source split, with ``seed`` as the train seed. Returns (net,
    metrics, source split). A net that does not fit the dataset, or balancing
    of fewer than 2 domains, is a ConfigError."""
    net_cfg = fitted_net(cfg.net, manifest.image_size, manifest.n_classes)
    split = source_split(manifest, root, cfg.protocol, cfg.pseudo_labels, seed)
    images, classes, doms, names = split
    if cfg.train.sb and len(names) < 2:
        raise ConfigError("style balancing needs at least 2 training domains")
    net = mn.MicroNet.init(net_cfg, seed=seed)
    net.tags = mn.CheckpointTags(cfg.train.sb, cfg.train.aug, seed)
    metrics = mn.train(net, images, classes, doms, replace(cfg.train, seed=seed),
                       n_domains=len(names))
    return net, metrics, split


def registry_stage(net: mn.MicroNet, split, layer: str, alpha: float | None,
                   pseudo_labels: int | None) -> tuple[tts.DomainRegistry, np.ndarray]:
    """The registry of a ``source_split`` at ``layer`` (alpha None is the
    default) and the split's style vectors it summarizes."""
    images, _, doms, names = split
    if alpha is None:
        alpha = tts.PSEUDO_LABEL_ALPHA if pseudo_labels is not None else tts.DEFAULT_ALPHA
    styles = net.style_vectors_at(images, layer)
    return tts.registry_from_styles(styles, doms, layer, alpha, names), styles


def evaluate_rows(net: mn.MicroNet, registry: tts.DomainRegistry,
                  manifest: dd.DatasetManifest, root, test, mode: tts.ShiftMode,
                  alphas: list[float | None], pool_seed: int, label: str, seed: int,
                  pool=None) -> list[list[dict]]:
    """One result row per test domain of ``test`` (images, classes, domain
    ids) for each of ``alphas`` (None is the registry's), by one
    ``evaluate_alphas`` call for every alpha, in every mode. Only
    nearest_sample mode uses a pool: ``pool``, style vectors at the registry's
    layer, or if None those of the ``pool_domains`` training images under
    ``root``; it draws each sample's pool-draw seed from ``_pool_rng(pool_seed)``."""
    if mode.kind == "nearest_sample" and pool is None:
        images = load_split(manifest, root, "train", pool_domains(manifest, registry))[0]
        pool = net.style_vectors_at(images, registry.layer)
    results = mn.evaluate_alphas(net, *test, registry, mode, alphas, pool, _pool_rng(pool_seed))
    return [[{"method": label, "target": manifest.styles[dom].name, "seed": seed,
              "accuracy": result.accuracy(dom), "shift_rate": result.shift_rate(dom)}
             for dom in sorted(result.domains)] for result in results]


@dataclass
class SeedOutcome:
    seed: int
    manifest: dd.DatasetManifest
    net: mn.MicroNet
    registry: tts.DomainRegistry
    rows_per_alpha: list[list[dict]]   # one row per test domain, for each alpha evaluated
    wall_time: float

    @property
    def rows(self) -> list[dict]:
        """The rows of the first alpha evaluated, cfg's own for a ``run_seed``
        given no ``alphas``."""
        return self.rows_per_alpha[0]


def _pool_rng(seed: int) -> np.random.Generator:  # an evaluation's pool-seed stream
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x9001])))


def run_seed(cfg: ExperimentConfig, seed: int, workdir,
             alphas: list[float | None] | None = None) -> SeedOutcome:
    """One seed end to end: generate the data, train, summarize, evaluate at
    cfg's alpha, or at each of ``alphas``: an alpha sweep trains a seed once
    and evaluates it once (``evaluate_rows``)."""
    start = time.perf_counter()
    data_dir = Path(workdir) / f"data_seed{seed}"
    manifest = generate_data(cfg.data, data_dir, seed)
    net, _, split = train_stage(cfg, manifest, data_dir, seed)
    registry, styles = registry_stage(net, split, cfg.eval.layer, cfg.eval.alpha,
                                      cfg.pseudo_labels)
    # the split's style vectors are the pool unless the split is one domain's
    # images clustered into pseudo labels, whose pool is every source domain's
    split_is_pool = pool_domains(manifest, registry) == split_domains(manifest, cfg.protocol)
    test = load_split(manifest, data_dir, "test")  # after training: not in its peak
    mode = tts.ShiftMode(cfg.eval.mode, cfg.eval.pool_size)
    rows = evaluate_rows(net, registry, manifest, data_dir, test, mode,
                         [cfg.eval.alpha] if alphas is None else alphas, seed,
                         method_label(cfg.train.sb, mode.kind, cfg.train.aug), seed,
                         styles if split_is_pool else None)
    return SeedOutcome(seed=seed, manifest=manifest, net=net, registry=registry,
                       rows_per_alpha=rows, wall_time=time.perf_counter() - start)
