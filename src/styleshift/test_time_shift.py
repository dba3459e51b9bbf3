"""Inference-time style shifting against a registry of source-domain styles.

After training, each source domain is summarized by the mean style vector of
its samples at one layer. A test sample whose average distance to those
centroids exceeds ``alpha`` times the registry spread is renormalized (adain)
to the nearest centroid before the forward pass continues; otherwise it keeps
its own style. No parameters are updated at test time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RegistryBuildError
from .style_ops import adain, renormalize
from .tensor_core import (batch_style_vectors, from_json, read_json, style_vector,
                          style_vector_to_stats, write_json)

DEFAULT_ALPHA = 3.0
PSEUDO_LABEL_ALPHA = 2.0
DEFAULT_NEAREST_POOL = 100


def checked_alpha(alpha: float) -> float:
    """``alpha`` if it is a finite number >= 0; otherwise a ConfigError."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be a finite number >= 0, got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class DomainRegistry:
    """Per-domain style centroids at one layer and the default alpha. The
    global vector (the mean of the centroids) and the spread (the mean
    distance of the centroids from it) are derived from the centroids."""

    layer: str
    names: tuple[str, ...]
    centroids: np.ndarray        # (N, 2C)
    alpha_default: float = DEFAULT_ALPHA
    global_phi: np.ndarray = field(init=False)   # (2C,)
    spread: float = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] % 2 != 0:
            raise DimensionError(f"centroids must be (N, 2C), got {c.shape}")
        if len(self.names) != c.shape[0]:
            raise DimensionError("one name per domain required")
        checked_alpha(self.alpha_default)
        g = c.mean(axis=0)
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "global_phi", g)
        object.__setattr__(self, "spread", float(np.linalg.norm(g[None, :] - c, axis=1).mean()))
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_domains(self) -> int:
        return self.centroids.shape[0]

    @property
    def channels(self) -> int:
        return self.centroids.shape[1] // 2


@dataclass(frozen=True)
class ShiftDecision:
    shifted: bool
    target: int | None
    avg_distance: float
    threshold: float


MODE_NAMES = ("off", "proposed", "shift_all", "nearest_sample", "single_domain")


@dataclass(frozen=True)
class ShiftMode:
    """One of ``MODE_NAMES``; ``-`` may stand for ``_``. ``pool_size`` is the
    number of pool draws per shifted sample in nearest_sample mode."""

    kind: str
    pool_size: int = DEFAULT_NEAREST_POOL

    def __post_init__(self):
        kind = str(self.kind).replace("-", "_")
        if kind not in MODE_NAMES:
            raise ConfigError(f"unknown shift mode {self.kind!r}; expected one of "
                              f"{list(MODE_NAMES)} (- may stand for _)")
        if kind == "nearest_sample" and self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        object.__setattr__(self, "kind", kind)


OFF = ShiftMode("off")
PROPOSED = ShiftMode("proposed")
SHIFT_ALL = ShiftMode("shift_all")
SINGLE_DOMAIN = ShiftMode("single_domain")


def nearest_sample(pool_size: int = DEFAULT_NEAREST_POOL) -> ShiftMode:
    return ShiftMode("nearest_sample", pool_size=pool_size)


def registry_from_styles(styles, domains, layer: str, alpha: float = DEFAULT_ALPHA,
                         names=None) -> DomainRegistry:
    """Build a registry from per-sample style vectors and 0-based domain ids.

    The global vector is the mean of the per-domain centroids (not of all
    samples), so unequal domain sizes do not bias it.
    """
    styles = np.asarray(styles, dtype=np.float64)
    domains = np.asarray(domains, dtype=np.intp)
    if styles.ndim != 2 or styles.shape[0] != domains.shape[0]:
        raise DimensionError("styles must be (M, 2C) aligned with domain labels")
    n = int(domains.max()) + 1 if domains.size else 0
    if names is None:
        names = tuple(f"domain{i}" for i in range(n))
    if len(names) != n:
        raise DimensionError("one name per domain required")
    centroids = np.empty((n, styles.shape[1]))
    for d in range(n):
        members = styles[domains == d]
        if members.shape[0] == 0:
            raise RegistryBuildError(f"domain {names[d]!r} has no samples")
        centroids[d] = members.mean(axis=0)
    return DomainRegistry(layer=layer, names=tuple(names), centroids=centroids,
                          alpha_default=alpha)


def build_registry(model, inputs, domains, layer: str,
                   alpha: float = DEFAULT_ALPHA, names=None) -> DomainRegistry:
    """Registry from clean (hook-free) forward passes of a trained model."""
    styles = model.style_vectors_at(inputs, layer)
    return registry_from_styles(styles, domains, layer, alpha, names)


def decide(phi_t, reg: DomainRegistry, alpha: float | None = None) -> ShiftDecision:
    """Shift iff the mean distance to the centroids exceeds alpha * spread.

    The shift target is the nearest centroid, ties resolved toward the lower
    domain id.
    """
    phi = np.asarray(phi_t, dtype=np.float64).reshape(-1)
    if phi.shape[0] != reg.centroids.shape[1]:
        raise DimensionError("style vector length does not match registry")
    alpha = reg.alpha_default if alpha is None else checked_alpha(alpha)
    dists = np.linalg.norm(phi[None, :] - reg.centroids, axis=1)
    avg = float(dists.mean())
    threshold = float(alpha * reg.spread)
    if avg > threshold:
        return ShiftDecision(shifted=True, target=int(np.argmin(dists)),
                             avg_distance=avg, threshold=threshold)
    return ShiftDecision(shifted=False, target=None, avg_distance=avg,
                         threshold=threshold)


def ts_apply(f_t, reg: DomainRegistry, alpha: float | None = None,
             mode: ShiftMode = PROPOSED, sample_pool=None,
             rng: np.random.Generator | None = None):
    """Apply one shift mode to a single feature map: the per-sample reference
    that ``shift_batch``, the shifter ``evaluate`` runs, is checked against.

    Returns (features, ShiftDecision). Off, proposed and nearest_sample decide
    with ``alpha``; shift_all and single_domain decide with 0, so they shift
    every sample. Off reports its decision but keeps the sample. A shifted
    sample is renormalized (adain) to the nearest centroid, or in
    nearest_sample mode to the closest of ``pool_size`` styles drawn from
    ``sample_pool`` with ``rng``.
    """
    f_t = np.asarray(f_t, dtype=np.float64)
    if mode.kind == "single_domain" and reg.n_domains != 1:
        raise ConfigError("single_domain mode requires a one-domain registry")
    always = mode.kind in ("shift_all", "single_domain")
    phi = style_vector(f_t)
    d = decide(phi, reg, 0.0 if always else alpha)
    if mode.kind == "off" or not (d.shifted or always):
        return f_t, ShiftDecision(False, None, d.avg_distance, d.threshold)
    # decide keeps a sample only at distance 0 from every centroid, so for an
    # always-shift mode centroid 0 is as near as any
    target = 0 if d.target is None else d.target
    phi_target = reg.centroids[target]
    if mode.kind == "nearest_sample":
        if sample_pool is None:
            raise ConfigError("nearest_sample mode requires a sample_pool of style vectors")
        pool = np.asarray(sample_pool, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[1] != reg.centroids.shape[1]:
            raise DimensionError("sample_pool must be (M, 2C) matching the registry")
        if rng is None:
            raise ConfigError("nearest_sample mode requires an rng for pool draws")
        cand = pool[rng.choice(pool.shape[0], size=min(mode.pool_size, pool.shape[0]),
                               replace=False)]
        phi_target = cand[int(np.argmin(np.linalg.norm(phi[None, :] - cand, axis=1)))]
    return (adain(f_t, style_vector_to_stats(phi_target)),
            ShiftDecision(True, target, d.avg_distance, d.threshold))


@dataclass(frozen=True)
class BatchShift:
    """The decisions ``shift_batch`` took for a batch, one entry per sample:
    whether it shifted, the nearest centroid (-1 where it kept its style) and
    its mean distance to the centroids, all against one threshold."""

    shifted: np.ndarray        # (B,) bool
    target: np.ndarray         # (B,) int
    avg_distance: np.ndarray   # (B,)
    threshold: float


def shift_batch(feats, reg: DomainRegistry, alpha: float | None = None,
                mode: ShiftMode = PROPOSED, sample_pool=None,
                rng: np.random.Generator | None = None) -> tuple[np.ndarray, BatchShift]:
    """``ts_apply`` over a (B, C, H, W) batch in one step: one moment
    computation, one (B, N) distance matrix with its row means and argmins,
    and one adain over the shifted rows, which reuses those moments.

    For a C-contiguous batch, row b of the output and of the decisions equals
    ``ts_apply(feats[b], ...)`` bit for bit (numpy may sum a strided map in
    another order). nearest_sample draws ``pool_size`` pool members per shifted
    sample, in sample order, with the same ``rng.choice`` calls. A batch in
    which no sample shifts is returned as given.
    """
    phi = batch_style_vectors(feats)
    if phi.shape[1] != reg.centroids.shape[1]:
        raise DimensionError("style vector length does not match registry")
    if mode.kind == "single_domain" and reg.n_domains != 1:
        raise ConfigError("single_domain mode requires a one-domain registry")
    always = mode.kind in ("shift_all", "single_domain")
    if always:
        alpha = 0.0
    elif alpha is None:
        alpha = reg.alpha_default
    threshold = float(checked_alpha(alpha) * reg.spread)
    dists = np.linalg.norm(phi[:, None, :] - reg.centroids[None, :, :], axis=2)
    avg = dists.mean(axis=1)
    # an always-shift mode shifts a sample even at distance 0 from every
    # centroid, where argmin's centroid 0 is as near as any
    shifted = np.full(avg.shape, always) if always or mode.kind == "off" else avg > threshold
    target = np.where(shifted, dists.argmin(axis=1), -1)
    decisions = BatchShift(shifted, target, avg, threshold)
    rows = np.flatnonzero(shifted)
    if rows.size == 0:
        return np.asarray(feats, dtype=np.float64), decisions
    goal = reg.centroids[target[rows]]
    if mode.kind == "nearest_sample":
        if sample_pool is None:
            raise ConfigError("nearest_sample mode requires a sample_pool of style vectors")
        pool = np.asarray(sample_pool, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[1] != reg.centroids.shape[1]:
            raise DimensionError("sample_pool must be (M, 2C) matching the registry")
        if rng is None:
            raise ConfigError("nearest_sample mode requires an rng for pool draws")
        size = min(mode.pool_size, pool.shape[0])
        cand = pool[np.stack([rng.choice(pool.shape[0], size=size, replace=False)
                              for _ in rows])]                   # (S, size, 2C)
        near = np.linalg.norm(phi[rows, None, :] - cand, axis=2).argmin(axis=1)
        goal = cand[np.arange(rows.size), near]
    c = reg.channels
    out = np.array(feats, dtype=np.float64)
    out[rows] = renormalize(out[rows], phi[rows, :c], phi[rows, c:], goal[:, :c], goal[:, c:])
    return out, decisions


# -- pseudo-domain labels ----------------------------------------------------

KMEANS_TOL = 1e-6      # Lloyd stops once no center coordinate moves this far
KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 8


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(m))]
    for j in range(1, k):
        d2 = np.min(((points[:, None, :] - centers[None, :j, :]) ** 2).sum(axis=-1), axis=1)
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(m))]
            continue
        cut = rng.random() * total
        centers[j] = points[int(np.searchsorted(np.cumsum(d2), cut))]

    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                new_centers[j] = members.mean(axis=0)
        if np.max(np.abs(new_centers - centers)) < KMEANS_TOL:
            centers = new_centers
            break
        centers = new_centers
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(m), labels].sum())
    return labels, inertia


def pseudo_domains(styles, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster style vectors into k pseudo domains (0-based labels).

    Standard k-means: k-means++ seeding from the supplied generator, Lloyd
    iterations until the centers move less than ``KMEANS_TOL``, and
    ``KMEANS_RESTARTS`` restarts keeping the labeling with the lowest
    within-cluster sum of squares. Deterministic given the seed.
    """
    points = np.asarray(styles, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionError("styles must be a (M, dim) array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if points.shape[0] < k:
        raise ValueError(
            f"need at least {k} samples to form {k} clusters, got {points.shape[0]}")
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


# -- registry persistence ----------------------------------------------------

@dataclass(frozen=True)
class StyleDoc:  # a style vector in JSON: its mean and std halves
    mu: tuple[float, ...]
    sigma: tuple[float, ...]


@dataclass(frozen=True)
class DomainStyleDoc(StyleDoc):  # one domain's centroid, under the domain's name
    name: str


@dataclass(frozen=True)
class RegistryDoc:
    """A registry file; its global vector and spread are checked on load."""

    layer: str
    alpha: float
    channels: int
    domains: tuple[DomainStyleDoc, ...]
    global_: StyleDoc
    spread: float
    _JSON_KEY = {"global_": "global"}

    @classmethod
    def of(cls, reg: DomainRegistry) -> "RegistryDoc":
        c = reg.channels
        halves = [(tuple(phi[:c].tolist()), tuple(phi[c:].tolist()))
                  for phi in (*reg.centroids, reg.global_phi)]
        return cls(reg.layer, reg.alpha_default, c,
                   tuple(DomainStyleDoc(*h, name) for h, name in zip(halves, reg.names)),
                   StyleDoc(*halves[-1]), reg.spread)

    def registry(self) -> DomainRegistry:
        """The registry held; no domain, a list of other than ``channels`` values,
        a sigma <= 0, or a global vector or spread off the centroids is a ConfigError."""
        entries = (*self.domains, self.global_)
        if not self.domains or {len(h) for e in entries for h in (e.mu, e.sigma)} \
                != {self.channels} or any(v <= 0 for e in entries for v in e.sigma):
            raise ConfigError(f"a registry needs a domain, {self.channels} (its channels) values "
                              f"in every mu and sigma list, and positive sigmas")
        rows = np.array([e.mu + e.sigma for e in entries], dtype=np.float64)
        reg = DomainRegistry(layer=self.layer, names=tuple(d.name for d in self.domains),
                             centroids=rows[:-1], alpha_default=float(self.alpha))
        if not np.allclose(rows[-1], reg.global_phi, atol=1e-9) \
                or abs(reg.spread - self.spread) > 1e-9:
            raise ConfigError("registry global style or spread is inconsistent with its centroids")
        return reg


def save_registry(reg: DomainRegistry, path) -> None:
    write_json(path, RegistryDoc.of(reg))


def load_registry(path) -> DomainRegistry:
    return from_json(RegistryDoc, read_json(path)).registry()
