"""Inference-time style shifting against a registry of source-domain styles.

After training, each source domain is summarized by the mean style vector of
its samples at one layer. A test sample whose average distance to those
centroids exceeds ``alpha`` times the registry spread is renormalized (adain)
to the nearest centroid before the forward pass continues; otherwise it keeps
its own style. No parameters are updated at test time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, RegistryBuildError
from .style_ops import adain
from .tensor_core import json_floats, read_json, style_vector, style_vector_to_stats

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
    """Apply one shift mode to a single feature map.

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

def registry_to_dict(reg: DomainRegistry) -> dict:
    c = reg.channels
    return {
        "layer": reg.layer,
        "alpha": reg.alpha_default,
        "channels": c,
        "domains": [
            {"name": reg.names[i],
             "mu": reg.centroids[i, :c].tolist(),
             "sigma": reg.centroids[i, c:].tolist()}
            for i in range(reg.n_domains)
        ],
        "global": {"mu": reg.global_phi[:c].tolist(),
                   "sigma": reg.global_phi[c:].tolist()},
        "spread": reg.spread,
    }


def registry_from_dict(doc: dict) -> DomainRegistry:
    """Rebuild a registry from ``registry_to_dict`` output. Every value must
    be a finite JSON number, every sigma positive and alpha non-negative, and
    the stored global vector and spread must match the ones the centroids
    give; anything malformed is a ConfigError."""
    try:
        entries = [*doc["domains"], doc["global"]]
        halves = [json_floats(e[key], f"registry {key}")
                  for e in entries for key in ("mu", "sigma")]
        if len({h.size for h in halves}) != 1:
            raise ConfigError("registry mu/sigma lists differ in length")
        rows = np.stack(halves).reshape(len(entries), -1)  # row i: mu_i then sigma_i
        spread, alpha = map(float, json_floats([doc["spread"], doc["alpha"]],
                                               "registry spread and alpha"))
        if np.any(rows[:, rows.shape[1] // 2:] <= 0):
            raise ConfigError("registry sigma entries must be positive")
        reg = DomainRegistry(layer=doc["layer"], names=tuple(d["name"] for d in doc["domains"]),
                             centroids=rows[:-1], alpha_default=alpha)
        if not np.allclose(rows[-1], reg.global_phi, atol=1e-9):
            raise ConfigError("registry global style is not the mean of its centroids")
        if abs(reg.spread - spread) > 1e-9:
            raise ConfigError("registry spread is inconsistent with its centroids")
        return reg
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed registry ({type(exc).__name__}: {exc})") from exc


def save_registry(reg: DomainRegistry, path) -> None:
    Path(path).write_text(json.dumps(registry_to_dict(reg), indent=1, sort_keys=True))


def load_registry(path) -> DomainRegistry:
    return registry_from_dict(read_json(path))
