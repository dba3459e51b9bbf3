"""Style-statistics primitives over dense feature tensors.

Feature maps are float64 numpy arrays of shape (C, H, W); feature batches are
(B, C, H, W). Channel statistics use the population variance (divide by H*W)
and are stabilized as sigma = sqrt(var + eps_std**2) so downstream
normalizations never divide by zero.
"""

from __future__ import annotations

import functools
import json
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError

EPS_STD = 1e-6


def read_json(path) -> dict:
    """The JSON object in the file ``path``, the one reader of every document;
    an unreadable file, invalid JSON or a value that is not an object is a ConfigError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # invalid or too deeply nested JSON, not UTF-8
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ConfigError(f"{path} does not hold a JSON object")
    return doc


def _finite(value) -> bool:  # the one number rule: no bool, NaN, infinity or int beyond float64
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _json_field(tp, value, where: str | None):
    """``value`` read as the annotation ``tp`` of the field ``where``. ``from_json``
    reads first with ``where`` None, which formats no names, and reads again with
    names only to raise its error."""
    if tp is float:  # kept as written, an int included
        if _finite(value):
            return value
    elif type(value) is tp:  # int, bool, str, dict: only their own JSON type
        return value
    origin, args, nested = _annotation(tp)
    if origin is types.UnionType:  # the configs use only ``X | None``
        return None if value is None else _json_field(args[0], value, where)
    if origin in (tuple, list) and type(value) is list:  # tuple[T, ...] or list[T]
        if args[0] is float and all(map(_finite, value)):  # the whole list in one pass
            return origin(value)
        return origin(_json_field(args[0], v, where and f"{where}[{i}]")
                      for i, v in enumerate(value))
    if origin is dict and type(value) is dict:  # dict[str, T]: JSON keys are strings
        return {k: _json_field(args[1], v, where and f"{where}.{k}") for k, v in value.items()}
    if nested and type(value) is dict:
        return from_json(tp, value)
    want = {tuple: "list", list: "list", dict: "object", float: "finite number"}.get(
        origin or tp, "object" if nested else tp.__name__)
    raise ConfigError(f"{where} must be a JSON {want}, got {value!r}")


def from_json(cls, doc):
    """The dataclass ``cls`` built from the JSON object ``doc`` by its field
    annotations (README, Conventions); a key, type or value out of place is a
    ConfigError. A class may rename fields in JSON with a ``_JSON_KEY`` map
    from field name to JSON key. Range checks are each class's
    ``__post_init__``."""
    if type(doc) is not dict:
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    schema, required = _schema(cls)
    if not required <= doc.keys() <= schema.keys():
        raise ConfigError(f"{cls.__name__} has unknown keys {sorted(doc.keys() - schema.keys())} "
                          f"or lacks keys {sorted(required - doc.keys())}")
    try:
        kwargs = {name: _json_field(tp, doc[key], None)
                  for key, (name, tp) in schema.items() if key in doc}
    except ConfigError:  # the same walk again, naming each field, raises the error
        kwargs = {name: _json_field(tp, doc[key], f"{cls.__name__}.{key}")
                  for key, (name, tp) in schema.items() if key in doc}
    return cls(**kwargs)


def to_json(obj):
    """The JSON value of ``obj``, the inverse of ``from_json``: a dataclass becomes an
    object under its ``_JSON_KEY`` names, tuples and lists lists, and dicts map through."""
    if obj is None or isinstance(obj, (int, float, str)):  # bool is an int
        return obj
    if type(obj) in (tuple, list):
        return [to_json(v) for v in obj]
    if type(obj) is dict:
        return {k: to_json(v) for k, v in obj.items()}
    renames = getattr(obj, "_JSON_KEY", {})  # what is left must be a dataclass
    return {renames.get(f.name, f.name): to_json(getattr(obj, f.name)) for f in fields(obj)}


def write_json(path, obj) -> None:
    """Write ``to_json(obj)`` to the file ``path``, the one writer of every
    JSON artifact; sorted keys make equal values equal bytes."""
    Path(path).write_text(json.dumps(to_json(obj), indent=1, sort_keys=True))


@functools.cache  # typing's introspection costs more than reading most values
def _annotation(tp) -> tuple:
    """The origin and arguments of the annotation ``tp``, and whether it is a dataclass."""
    return typing.get_origin(tp), typing.get_args(tp), is_dataclass(tp)


@functools.cache  # resolving string annotations costs far more than one record's read
def _schema(cls) -> tuple[dict, frozenset]:
    """Each JSON key's field name and resolved annotation, and the JSON keys
    of the fields that have no default."""
    hints, renames = typing.get_type_hints(cls), getattr(cls, "_JSON_KEY", {})
    return ({renames.get(name, name): (name, tp) for name, tp in hints.items()},
            frozenset(renames.get(f.name, f.name) for f in fields(cls)
                      if f.default is MISSING and f.default_factory is MISSING))


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
