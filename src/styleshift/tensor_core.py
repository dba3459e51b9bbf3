"""Style-statistics primitives over dense feature tensors.

Feature maps are float64 numpy arrays of shape (C, H, W); feature batches are
(B, C, H, W). Channel statistics use the population variance (divide by H*W)
and are stabilized as sigma = sqrt(var + eps_std**2) so downstream
normalizations never divide by zero.
"""

from __future__ import annotations

import functools
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError, DimensionError

EPS_STD = 1e-6


def json_floats(values, what: str) -> np.ndarray:
    """float64 array of a list of JSON numbers. Strings (even numeric ones),
    booleans, nulls, nested lists and ints beyond float64's range are a
    ConfigError."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ConfigError(f"{what} must be a list of JSON numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ConfigError(f"{what} holds a number beyond float64's range") from None


def _json_field(tp, value, where: str):
    """``value`` read as the annotation ``tp`` of the field ``where``."""
    if tp is float:  # kept as written; not NaN, infinite or an int beyond float64
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return value
    elif type(value) is tp:  # int, bool, str: only their own JSON type
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # the configs use only ``X | None``
        return None if value is None else _json_field(args[0], value, where)
    if origin is tuple and type(value) is list:  # tuple[T, ...]
        return tuple(_json_field(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if is_dataclass(tp) and type(value) is dict:
        return from_json(tp, value)
    want = {tuple: "list", float: "finite number"}.get(
        origin or tp, "object" if is_dataclass(tp) else tp.__name__)
    raise ConfigError(f"{where} must be a JSON {want}, got {value!r}")


def from_json(cls, doc):
    """The config dataclass ``cls`` built from the JSON object ``doc`` by its
    field annotations (README, Conventions); a key, type or value out of place
    is a ConfigError. Range checks are each class's ``__post_init__``."""
    if type(doc) is not dict:
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    hints, required = _schema(cls)
    if doc.keys() - hints.keys() or required - doc.keys():
        raise ConfigError(f"{cls.__name__} has unknown keys {sorted(doc.keys() - hints.keys())} "
                          f"or lacks keys {sorted(required - doc.keys())}")
    return cls(**{k: _json_field(hints[k], v, f"{cls.__name__}.{k}") for k, v in doc.items()})


@functools.cache  # resolving string annotations costs far more than one record's read
def _schema(cls) -> tuple[dict, frozenset]:
    """Each field's resolved annotation, and the fields that have no default."""
    return typing.get_type_hints(cls), frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)


def _as_features(x, rank: int, what: str) -> np.ndarray:
    """The one validator: float64 array of the given rank, positive
    dimensions, finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != rank:
        raise DimensionError(f"{what} must be rank {rank}, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise DimensionError(f"{what} dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def as_feature_map(f) -> np.ndarray:
    """Validate and return a (C, H, W) float64 feature map."""
    return _as_features(f, 3, "feature map (C,H,W)")


def as_feature_batch(x) -> np.ndarray:
    """Validate and return a (B, C, H, W) float64 feature batch."""
    return _as_features(x, 4, "feature batch (B,C,H,W)")


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


def _moments(arr: np.ndarray, eps_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and stabilized std over the trailing (H, W) axes of an
    already validated map or batch. The mean is taken once and reused for the
    population variance, which gives ``arr.var``'s value bit for bit."""
    if eps_std <= 0:
        raise ValueError("eps_std must be > 0")
    mu = arr.mean(axis=(-2, -1), keepdims=True)
    dev = arr - mu
    var = np.multiply(dev, dev, out=dev).sum(axis=(-2, -1)) / (arr.shape[-2] * arr.shape[-1])
    return mu[..., 0, 0], np.sqrt(var + eps_std * eps_std)


def channel_mean(f) -> np.ndarray:
    """Per-channel mean over the spatial dimensions of a (C, H, W) map."""
    return _moments(as_feature_map(f), EPS_STD)[0]


def channel_std(f, eps_std: float = EPS_STD) -> np.ndarray:
    """Per-channel stabilized std: sqrt(population variance + eps_std**2)."""
    return _moments(as_feature_map(f), eps_std)[1]


def channel_stats(f, eps_std: float = EPS_STD) -> ChannelStats:
    return ChannelStats(*_moments(as_feature_map(f), eps_std))


def style_vector(f, eps_std: float = EPS_STD) -> np.ndarray:
    """Concatenated [mu, sigma] style vector (length 2C) of a feature map."""
    return np.concatenate(_moments(as_feature_map(f), eps_std), axis=-1)


def batch_style_vectors(x, eps_std: float = EPS_STD) -> np.ndarray:
    """(B, 2C) per-sample style vectors of a feature batch; row b equals
    ``style_vector(x[b])`` bit for bit."""
    return np.concatenate(_moments(as_feature_batch(x), eps_std), axis=-1)


def style_vector_to_stats(phi) -> ChannelStats:
    phi = np.asarray(phi, dtype=np.float64).reshape(-1)
    if phi.shape[0] % 2 != 0:
        raise DimensionError(f"style vector length must be even, got {phi.shape[0]}")
    c = phi.shape[0] // 2
    return ChannelStats(mu=phi[:c], sigma=phi[c:])
