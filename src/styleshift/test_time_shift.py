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
from .style_ops import renormalize
from .tensor_core import as_feature_map, batch_style_vectors, from_json, read_json, write_json
# perfbench/tracer.py wraps ``adain`` and ``style_vector`` here by name, so they stay bound
from .style_ops import adain  # noqa: F401
from .tensor_core import style_vector  # noqa: F401

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
    domain id. ``_decisions`` owns the rule; this is its one-row, one-alpha
    call in proposed mode.
    """
    phi = np.asarray(phi_t, dtype=np.float64).reshape(1, -1)
    return _first_decision(_decisions(phi, reg, [alpha], PROPOSED))


def ts_apply(f_t, reg: DomainRegistry, alpha: float | None = None,
             mode: ShiftMode = PROPOSED, sample_pool=None, seed: int | None = None):
    """``shift_batch`` on one (C, H, W) feature map at one alpha, with ``seed``
    its nearest_sample pool-draw seed: returns the map, shifted or kept, and
    its ``ShiftDecision``, whose ``target`` is None where the sample kept its
    style."""
    out, d = shift_batch(as_feature_map(f_t)[None], reg, [alpha], mode, sample_pool,
                         None if seed is None else [seed])
    return out[0], _first_decision(d)


@dataclass(frozen=True)
class BatchShift:
    """The decisions ``_decisions`` takes for a batch at A alphas: whether each
    shifted each sample, against its threshold, and per sample the nearest
    centroid (-1 where no alpha shifted it) and mean distance to the centroids."""

    shifted: np.ndarray        # (A, B) bool
    target: np.ndarray         # (B,) int
    avg_distance: np.ndarray   # (B,)
    thresholds: np.ndarray     # (A,)


def _first_decision(d: BatchShift) -> ShiftDecision:
    """Sample 0's decision at the first alpha; ``target`` is None where it kept its style."""
    target = int(d.target[0])
    return ShiftDecision(bool(d.shifted[0, 0]), None if target < 0 else target,
                         float(d.avg_distance[0]), float(d.thresholds[0]))


def _decisions(phi: np.ndarray, reg: DomainRegistry, alphas: list[float | None],
               mode: ShiftMode) -> BatchShift:
    """The shift rule over (B, 2C) style vectors at each of ``alphas`` (None is
    the registry's): shift a sample whose mean distance to the centroids
    exceeds alpha * spread (off: inf; shift_all and single_domain: -inf) to
    its nearest centroid, ties going to the lower domain id."""
    if phi.shape[1] != reg.centroids.shape[1]:
        raise DimensionError("style vector length does not match registry")
    if mode.kind == "single_domain" and reg.n_domains != 1:
        raise ConfigError("single_domain mode requires a one-domain registry")
    alphas = np.array([reg.alpha_default if a is None else checked_alpha(a) for a in alphas])
    # off never shifts; an always-shift mode shifts a sample even at distance 0
    # from every centroid, where argmin's centroid 0 is as near as any
    bound = {"off": np.inf, "shift_all": -np.inf, "single_domain": -np.inf}.get(mode.kind)
    thresholds = alphas * reg.spread if bound is None else np.full(alphas.shape, bound)
    dists = np.linalg.norm(phi[:, None, :] - reg.centroids[None, :, :], axis=2)
    avg = dists.mean(axis=1)
    shifted = avg > thresholds[:, None]
    # any alpha's shift is the smallest alpha's, whose row holds every larger one's
    target = np.where(shifted.any(axis=0), dists.argmin(axis=1), -1)
    return BatchShift(shifted, target, avg, thresholds)


def shift_batch(feats, reg: DomainRegistry, alphas: list[float | None],
                mode: ShiftMode = PROPOSED, sample_pool=None,
                seeds=None) -> tuple[np.ndarray, BatchShift]:
    """Apply one shift mode to a (B, C, H, W) batch: the one test-time shifter.

    Returns (features, BatchShift); ``_decisions`` owns the shift rule. The
    features are the smallest alpha's, whose shifted samples hold every larger
    one's. A shifted sample is renormalized (adain) to its nearest centroid,
    or in nearest_sample mode to the closest of ``pool_size`` styles drawn
    from ``sample_pool``: shifted row b draws them with a generator of its
    own, seeded ``seeds[b]``, so its draw depends on no other sample, alpha
    or batch. That mode needs the pool and B seeds whatever shifts. The work
    is one moment pass, the decisions, and one adain over the shifted rows,
    which reuses those moments; a batch in which no sample shifts is returned
    as given. Bit for bit, row b and its decisions are those of sample b
    shifted alone with ``seeds[b]`` (``ts_apply``), and ``shifted[a]`` that
    of a call at alpha a alone.
    """
    phi = batch_style_vectors(feats)
    decisions = _decisions(phi, reg, alphas, mode)
    if mode.kind == "nearest_sample":
        if sample_pool is None:
            raise ConfigError("nearest_sample mode requires a sample_pool of style vectors")
        pool = np.asarray(sample_pool, dtype=np.float64)
        if pool.ndim != 2 or pool.shape[1] != reg.centroids.shape[1]:
            raise DimensionError("sample_pool must be (M, 2C) matching the registry")
        if seeds is None or len(seeds) != phi.shape[0]:
            raise ConfigError("nearest_sample mode requires one pool-draw seed per sample")
    rows = np.flatnonzero(decisions.target >= 0)
    if rows.size == 0:
        return np.asarray(feats, dtype=np.float64), decisions
    goal = reg.centroids[decisions.target[rows]]
    if mode.kind == "nearest_sample":
        size = min(mode.pool_size, pool.shape[0])
        cand = pool[np.stack([np.random.Generator(np.random.PCG64(int(seeds[b]))).choice(
            pool.shape[0], size=size, replace=False) for b in rows])]   # (S, size, 2C)
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
        cum = np.cumsum(d2)
        if cum[-1] <= 0:
            centers[j] = points[int(rng.integers(m))]
            continue
        # the cut comes from the cumsum that is searched, so it never passes its
        # end; side="right" skips the points at distance 0, the chosen centers
        cut = rng.random() * cum[-1]
        centers[j] = points[int(np.searchsorted(cum, cut, side="right"))]

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
