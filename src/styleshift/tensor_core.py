"""Style-statistics primitives over dense feature tensors.

Feature maps are float64 numpy arrays of shape (C, H, W); feature batches are
(B, C, H, W). Channel statistics use the population variance (divide by H*W)
and are stabilized as sigma = sqrt(var + eps_std**2) so downstream
normalizations never divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

EPS_STD = 1e-6


def as_feature_map(f) -> np.ndarray:
    """Validate and return a (C, H, W) float64 feature map."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionError(f"feature map must be rank 3 (C,H,W), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise DimensionError(f"feature map dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature map contains non-finite values")
    return arr


def as_feature_batch(x) -> np.ndarray:
    """Validate and return a (B, C, H, W) float64 feature batch."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 4:
        raise DimensionError(f"feature batch must be rank 4 (B,C,H,W), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise DimensionError(f"feature batch dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature batch contains non-finite values")
    return arr


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and (stabilized, strictly positive) std of one sample."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=np.float64).reshape(-1)
        if mu.shape != sigma.shape:
            raise DimensionError(f"mu/sigma length mismatch: {mu.shape} vs {sigma.shape}")
        if np.any(sigma <= 0):
            raise ValueError("sigma entries must be strictly positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def channels(self) -> int:
        return self.mu.shape[0]


def channel_mean(f) -> np.ndarray:
    """Per-channel mean over the spatial dimensions of a (C, H, W) map."""
    f = as_feature_map(f)
    return f.mean(axis=(1, 2))


def channel_std(f, eps_std: float = EPS_STD) -> np.ndarray:
    """Per-channel stabilized std: sqrt(population variance + eps_std**2)."""
    if eps_std <= 0:
        raise ValueError("eps_std must be > 0")
    f = as_feature_map(f)
    var = f.var(axis=(1, 2))
    return np.sqrt(var + eps_std * eps_std)


def channel_stats(f, eps_std: float = EPS_STD) -> ChannelStats:
    f = as_feature_map(f)
    return ChannelStats(mu=channel_mean(f), sigma=channel_std(f, eps_std))


def style_vector(f, eps_std: float = EPS_STD) -> np.ndarray:
    """Concatenated [mu, sigma] style vector (length 2C) of a feature map."""
    f = as_feature_map(f)
    return np.concatenate([channel_mean(f), channel_std(f, eps_std)])


def style_vector_to_stats(phi) -> ChannelStats:
    phi = np.asarray(phi, dtype=np.float64).reshape(-1)
    if phi.shape[0] % 2 != 0:
        raise DimensionError(f"style vector length must be even, got {phi.shape[0]}")
    c = phi.shape[0] // 2
    return ChannelStats(mu=phi[:c], sigma=phi[c:])


def batch_channel_mean(x) -> np.ndarray:
    """(B, C) per-sample channel means of a feature batch."""
    x = as_feature_batch(x)
    return x.mean(axis=(2, 3))


def batch_channel_std(x, eps_std: float = EPS_STD) -> np.ndarray:
    """(B, C) per-sample stabilized channel stds of a feature batch."""
    if eps_std <= 0:
        raise ValueError("eps_std must be > 0")
    x = as_feature_batch(x)
    return np.sqrt(x.var(axis=(2, 3)) + eps_std * eps_std)


def batch_style_vectors(x, eps_std: float = EPS_STD) -> np.ndarray:
    """(B, 2C) per-sample style vectors of a feature batch."""
    x = as_feature_batch(x)
    return np.concatenate([batch_channel_mean(x), batch_channel_std(x, eps_std)], axis=1)
