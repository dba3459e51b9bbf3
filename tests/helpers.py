"""Shared numerical oracles for the test suite."""

import hashlib

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from styleshift.autodiff import Var, mul, softmax_cross_entropy, sum_axes
from styleshift.errors import ConfigError
from styleshift.micro_net import AUG_KINDS, BlockSpec, CheckpointTags, MicroNet, NetConfig
from styleshift.tensor_core import from_json


def peak_kib() -> int:
    """This process's peak RSS in KiB, read from ``VmHWM`` in /proc/self/status.
    Unlike ``ru_maxrss``, it is not raised to the RSS of the process that
    started this one, so a child of a large test process measures itself."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def fd_grad(fn, x, step=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn(x)
        flat[i] = orig - step
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * step)
    return grad


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def weighted_sum(out_var: Var, weights) -> Var:
    """Scalar probe sum(w * out) used to seed backward passes."""
    s = sum_axes(mul(out_var, np.asarray(weights, dtype=np.float64)),
                 tuple(range(out_var.value.ndim)), keepdims=False)
    return s


def step_grad_digests(net_cfg: dict, net_seed: int, data_seed: int) -> dict:
    """sha256 of every parameter gradient of one recorded training step on
    random images; None for a parameter that got no gradient."""
    cfg = from_json(NetConfig, net_cfg)
    net = MicroNet.init(cfg, seed=net_seed)
    rng = np.random.Generator(np.random.PCG64(data_seed))
    x = rng.normal(size=(6, cfg.in_channels, cfg.image_size, cfg.image_size))
    res = net.forward(x)
    softmax_cross_entropy(res.logits, np.arange(6) % cfg.n_classes).backward()
    return {name: None if v.grad is None else hashlib.sha256(v.grad.tobytes()).hexdigest()
            for name, v in res.param_vars.items()}


@st.composite
def net_configs(draw):
    blocks = draw(st.lists(st.builds(BlockSpec, st.integers(1, 5), st.integers(1, 2),
                                     st.booleans()), min_size=2, max_size=3))
    try:
        return NetConfig(in_channels=draw(st.integers(1, 3)),
                         image_size=draw(st.sampled_from([4, 6, 8, 12, 16])),
                         blocks=tuple(blocks), n_classes=draw(st.integers(1, 5)))
    except ConfigError:  # pooling met an odd size, or nothing is left
        assume(False)


def checkpoint_tags():
    return st.builds(CheckpointTags, st.booleans(), st.sampled_from(AUG_KINDS),
                     st.integers(0, 2**32 - 1))
