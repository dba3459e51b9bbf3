"""A small convolutional classifier with named hook points.

Each block is conv3x3 -> ReLU -> optional 2x2 average pool, followed by a
global-average-pool linear head. There are no normalization layers, so the
channel statistics observed at the hooks are unconfounded. Style transforms
attach at hooks during training (balancing first, then augmentation); the
test-time shifter attaches at one hook during evaluation.

Gradients come from the package's reverse-mode engine. A hook operation fixes
its randomness when it is drawn and records its plan and sorting permutations
on its first call; every later call replays that state. Finite-difference
checks difference those later calls, which are the function the
stop-gradient contracts differentiate. Evaluation and style extraction run
``MicroNet.infer``, a tape-free pass in plain numpy that creates no Var and
gives the values ``forward`` records bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, DivergenceError
from .style_balance import BatchMeta, MovePlan, build_balance_plan, sb_apply_var
from .style_ops import DEFAULT_LAMBDA_SHAPE, dsu_var, efdmix_hook, mixstyle_var
from .tensor_core import batch_style_vectors, from_json, read_json, write_json
from .test_time_shift import OFF, DomainRegistry, ShiftMode, checked_alpha, shift_batch
# perfbench/tracer.py wraps ``micro_net.ts_apply`` by name, so the name stays bound here
from .test_time_shift import ts_apply  # noqa: F401

AUG_KINDS = ("none", "mixstyle", "dsu", "efdmix")

# Samples per inference pass (evaluate and style_vectors_at). At 32 px block1's
# im2col matrix of a chunk is 2.36 MB; chunks of 8 or 16 ran no faster.
INFERENCE_CHUNK = 32


@dataclass(frozen=True)
class BlockSpec:
    out_channels: int
    stride: int = 1
    pool: bool = True


@dataclass(frozen=True)
class NetConfig:
    in_channels: int = 1
    image_size: int = 32
    blocks: tuple[BlockSpec, ...] = (BlockSpec(8), BlockSpec(16), BlockSpec(32))
    n_classes: int = 7

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise ConfigError("need at least 2 blocks so a shifter can attach mid-network")
        if min(self.in_channels, self.image_size, self.n_classes) < 1:
            raise ConfigError("in_channels, image_size and n_classes must be >= 1")
        size = self.image_size
        for i, blk in enumerate(self.blocks):
            if blk.out_channels < 1 or blk.stride < 1:
                raise ConfigError("block channels and stride must be positive")
            size = (size + 2 - 3) // blk.stride + 1
            if blk.pool:
                if size % 2:
                    raise ConfigError(f"block {i + 1} pooling needs even input, got {size}")
                size //= 2
        if size < 1:
            raise ConfigError("network reduces the image to nothing")

    @property
    def hook_names(self) -> tuple[str, ...]:
        return tuple(f"block{i + 1}" for i in range(len(self.blocks)))

    def channels_at(self, hook: str) -> int:
        return self.blocks[self.hook_names.index(hook)].out_channels

    @property
    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter, in checkpoint order."""
        shapes, cin = {}, self.in_channels
        for i, blk in enumerate(self.blocks):
            shapes[f"conv{i}_w"] = (blk.out_channels, cin, 3, 3)
            shapes[f"conv{i}_b"] = (blk.out_channels,)
            cin = blk.out_channels
        shapes["head_w"] = (cin, self.n_classes)
        shapes["head_b"] = (self.n_classes,)
        return shapes


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    sb: bool = False
    sb_prob: float = 0.5
    sb_hooks: tuple[str, ...] | None = None     # None = every hook
    aug: str = "none"
    aug_prob: float = 0.5
    aug_hooks: tuple[str, ...] | None = None
    lambda_shape: float = DEFAULT_LAMBDA_SHAPE

    def __post_init__(self):
        if self.aug not in AUG_KINDS:
            raise ConfigError(f"unknown augmentation {self.aug!r}")
        if min(self.epochs, self.batch_size) < 1 or min(self.seed, self.lr) < 0 \
                or self.lambda_shape <= 0:
            raise ConfigError("epochs and batch_size must be >= 1, seed and lr >= 0, "
                              "lambda_shape > 0")
        if not all(0.0 <= p <= 1.0 for p in (self.sb_prob, self.aug_prob, self.momentum)):
            raise ConfigError("sb_prob, aug_prob and momentum must lie in [0, 1]")


# -- checkpoints ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointTags:
    """The train settings a checkpoint carries for ``stats`` and ``eval``."""

    sb: bool = False
    aug: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.aug not in AUG_KINDS or self.seed < 0:
            raise ConfigError(f"checkpoint tags need aug in {AUG_KINDS} and seed >= 0, "
                              f"got {self}")


@dataclass(frozen=True)
class ParamDoc:
    shape: tuple[int, ...]
    data: tuple[float, ...]   # row-major


@dataclass(frozen=True)
class CheckpointDoc:
    """A checkpoint file: the parameters its config implies, each of its
    shape, named in checkpoint order by ``param_order``."""

    config: NetConfig
    param_order: tuple[str, ...]
    params: dict[str, ParamDoc]
    tags: CheckpointTags = CheckpointTags()

    def __post_init__(self):
        shapes = self.config.param_shapes
        got = {name: (p.shape, len(p.data)) for name, p in self.params.items()}
        if self.param_order != tuple(shapes) or got != {n: (s, math.prod(s))
                                                        for n, s in shapes.items()}:
            raise ConfigError(f"checkpoint param_order {list(self.param_order)} and (shape, "
                              f"size) of its params {got} do not fit the config's {shapes}")


# -- hook operations ---------------------------------------------------------

class SbHookOp:
    """Style balancing at one hook; keeps the executed plan for audit. The
    first call plans and records its permutations; later calls replay them."""

    kind = "sb"

    def __init__(self, meta: BatchMeta, rng: np.random.Generator,
                 lambda_shape: float = DEFAULT_LAMBDA_SHAPE):
        self.meta = meta
        self.rng = rng
        self.lambda_shape = lambda_shape
        self.plan: MovePlan | None = None
        self._state = None

    def __call__(self, v: Var) -> Var:
        if self.plan is None:
            styles = batch_style_vectors(v.value)
            self.plan = build_balance_plan(styles, self.meta, self.rng, self.lambda_shape)
        out, state = sb_apply_var(v, self.plan.moves, frozen=self._state)
        if self._state is None:
            self._state = state
        return out


class MixstyleHookOp:
    kind = "mixstyle"

    def __init__(self, perm, lambdas):
        self.perm = perm
        self.lambdas = lambdas

    @classmethod
    def draw(cls, batch_size: int, rng: np.random.Generator,
             lambda_shape: float) -> "MixstyleHookOp":
        return cls(rng.permutation(batch_size), rng.beta(lambda_shape, lambda_shape, batch_size))

    def __call__(self, v: Var) -> Var:
        return mixstyle_var(v, self.lambdas, self.perm)


class DsuHookOp:
    kind = "dsu"

    def __init__(self, eps_mu, eps_sig):
        self.eps_mu = eps_mu
        self.eps_sig = eps_sig

    @classmethod
    def draw(cls, batch_size: int, channels: int, rng: np.random.Generator) -> "DsuHookOp":
        return cls(rng.standard_normal((batch_size, channels)),
                   rng.standard_normal((batch_size, channels)))

    def __call__(self, v: Var) -> Var:
        return dsu_var(v, self.eps_mu, self.eps_sig)


class EfdmixHookOp:
    kind = "efdmix"

    def __init__(self, perm, lambdas):
        self.perm = perm
        self.lambdas = lambdas
        self._state = None

    @classmethod
    def draw(cls, batch_size: int, rng: np.random.Generator,
             lambda_shape: float) -> "EfdmixHookOp":
        return cls(rng.permutation(batch_size), rng.beta(lambda_shape, lambda_shape, batch_size))

    def __call__(self, v: Var) -> Var:
        out, state = efdmix_hook(v, self.perm, self.lambdas, frozen=self._state)
        if self._state is None:
            self._state = state
        return out


# -- the network -------------------------------------------------------------

@dataclass
class ForwardResult:
    logits: Var
    hook_inputs: dict[str, Var]
    param_vars: dict[str, Var]


class MicroNet:
    def __init__(self, config: NetConfig, params: dict[str, np.ndarray],
                 tags: CheckpointTags = CheckpointTags()):
        self.config = config
        self.params = params
        self.tags = tags   # saved with the parameters and kept by a load

    @classmethod
    def init(cls, config: NetConfig, seed: int = 0) -> "MicroNet":
        rng = np.random.Generator(np.random.PCG64(seed))
        params: dict[str, np.ndarray] = {}
        for name, shape in config.param_shapes.items():
            if name.endswith("_b"):
                params[name] = np.zeros(shape)
            else:  # He init over the 3x3 fan-in for convs, 1/fan-in for the head
                var = 1.0 / shape[0] if name == "head_w" else 2.0 / (shape[1] * 9)
                params[name] = rng.normal(0.0, np.sqrt(var), shape)
        return cls(config, params)

    @property
    def hook_names(self) -> tuple[str, ...]:
        return self.config.hook_names

    @property
    def param_order(self) -> tuple[str, ...]:
        return tuple(self.config.param_shapes)

    def forward(self, x, hook_ops=None, from_hook: str | None = None) -> ForwardResult:
        """Run the network, recording its graph, applying hook operations in
        their listed order: the training and finite-difference pass.

        Images enter as a constant, so no gradient is formed for them unless
        x is a Var. ``from_hook`` treats x as the raw hook input at that point
        and runs only the remainder of the network (used by gradient checks).
        """
        by_hook: dict[str, list] = {}
        for name, op in hook_ops or []:
            if name not in self.hook_names:
                raise ConfigError(f"unknown hook {name!r}")
            by_hook.setdefault(name, []).append(op)
        pv = {name: Var(val) for name, val in self.params.items()}
        h = x if from_hook is None else ad.as_var(x)
        hook_inputs: dict[str, Var] = {}
        started = from_hook is None
        for i, blk in enumerate(self.config.blocks):
            name = f"block{i + 1}"
            if started:
                h = ad.conv2d(h, pv[f"conv{i}_w"], pv[f"conv{i}_b"], stride=blk.stride, pad=1)
                h = ad.relu(h)
                if blk.pool:
                    h = ad.avg_pool2(h)
            elif name == from_hook:
                started = True
            else:
                continue
            hook_inputs[name] = h
            for op in by_hook.get(name, []):
                h = op(h)
        feats = ad.global_avg_pool(h)
        logits = ad.linear(feats, pv["head_w"], pv["head_b"])
        return ForwardResult(logits=logits, hook_inputs=hook_inputs, param_vars=pv)

    def infer(self, x, hook: str | None = None, shift=None) -> np.ndarray:
        """The tape-free pass over one batch: plain numpy, no Var, and bit for
        bit the values ``forward`` records.

        Activations stay channel-major, (C, B, H, W), the layout the conv GEMM
        produces, so no block transposes its output, and ReLU runs in place;
        ``autodiff.conv_cm`` gets the very patch matrices it gets in ``conv2d``.
        Returns the (B, n_classes) logits. With ``hook`` the (B, C, H, W)
        output of that block is taken: without ``shift`` the pass stops there
        and returns it, with ``shift`` the rest of the network sees
        ``shift(output)`` in its place.
        """
        if hook is not None and hook not in self.hook_names:
            raise ConfigError(f"unknown hook {hook!r}")
        h = np.asarray(x, dtype=np.float64).transpose(1, 0, 2, 3)
        for i, (name, blk) in enumerate(zip(self.hook_names, self.config.blocks)):
            h, _ = ad.conv_cm(ad.pad_cm(h, 1), self.params[f"conv{i}_w"],
                              self.params[f"conv{i}_b"], blk.stride)
            np.maximum(h, 0.0, out=h)
            if blk.pool:
                h = ad.pool2(h)
            if name == hook:
                feats = np.ascontiguousarray(h.transpose(1, 0, 2, 3))
                if shift is None:
                    return feats
                h = shift(feats).transpose(1, 0, 2, 3)
        pooled = np.ascontiguousarray(h.mean(axis=(2, 3)).T)
        return pooled @ self.params["head_w"] + self.params["head_b"]

    def style_vectors_at(self, x, layer: str,
                         batch_size: int = INFERENCE_CHUNK) -> np.ndarray:
        """Per-sample style vectors at one hook from tape-free passes that stop
        at that hook."""
        if layer not in self.hook_names:
            raise ConfigError(f"unknown hook {layer!r}")
        x = np.asarray(x, dtype=np.float64)
        return np.concatenate([batch_style_vectors(self.infer(x[start:start + batch_size], layer))
                               for start in range(0, x.shape[0], batch_size)], axis=0)

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        write_json(path, CheckpointDoc(
            self.config, self.param_order,
            {name: ParamDoc(self.params[name].shape, tuple(self.params[name].ravel().tolist()))
             for name in self.param_order}, self.tags))

    @classmethod
    def load(cls, path) -> "MicroNet":
        doc = from_json(CheckpointDoc, read_json(path))
        return cls(doc.config, {name: np.array(p.data, dtype=np.float64).reshape(p.shape)
                                for name, p in doc.params.items()}, doc.tags)


# -- training ------------------------------------------------------------------

@dataclass
class TrainMetrics:
    epochs: list[dict] = field(default_factory=list)   # {"epoch", "loss", "accuracy"}
    audit: list[dict] = field(default_factory=list)    # per-batch balancing records


def _draw_hook_ops(cfg: TrainConfig, net: MicroNet, meta: BatchMeta,
                   batch_size: int, rng: np.random.Generator):
    # style modules default to the non-final blocks: restyling the features
    # that feed the pooled head directly destroys the class signal
    ops: list[tuple[str, object]] = []
    if cfg.sb:
        hooks = cfg.sb_hooks or net.hook_names[:-1]
        hook = hooks[int(rng.integers(len(hooks)))]
        if rng.random() < cfg.sb_prob:
            ops.append((hook, SbHookOp(meta, rng, cfg.lambda_shape)))
    if cfg.aug != "none":
        for hook in cfg.aug_hooks or net.hook_names[:-1]:
            if rng.random() < cfg.aug_prob:
                if cfg.aug == "mixstyle":
                    op = MixstyleHookOp.draw(batch_size, rng, cfg.lambda_shape)
                elif cfg.aug == "dsu":
                    op = DsuHookOp.draw(batch_size, net.config.channels_at(hook), rng)
                else:
                    op = EfdmixHookOp.draw(batch_size, rng, cfg.lambda_shape)
                ops.append((hook, op))
    return ops


def train(net: MicroNet, images, class_labels, domain_labels, cfg: TrainConfig,
          n_domains: int | None = None) -> TrainMetrics:
    """SGD-with-momentum training with per-batch stochastic hook placement.

    Balancing (when enabled) runs at one uniformly chosen hook with its
    activation probability; any configured augmentation runs after it.
    Deterministic given (net, data, cfg.seed).
    """
    x = np.asarray(images, dtype=np.float64)
    y = np.asarray(class_labels, dtype=np.intp)
    doms = np.asarray(domain_labels, dtype=np.intp)
    if n_domains is None:
        n_domains = int(doms.max()) + 1 if doms.size else 1
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    velocity = {name: np.zeros_like(val) for name, val in net.params.items()}
    metrics = TrainMetrics()
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        correct = 0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            meta = BatchMeta(doms[idx], yb, n_domains, net.config.n_classes)
            ops = _draw_hook_ops(cfg, net, meta, len(idx), rng) if len(idx) >= 2 else []
            res = net.forward(xb, ops)
            loss = ad.softmax_cross_entropy(res.logits, yb)
            loss_val = float(loss.value)
            if not np.isfinite(loss_val):
                raise DivergenceError(
                    f"non-finite loss {loss_val} at epoch {epoch} batch {bi}; "
                    f"lr={cfg.lr} may be too high")
            loss.backward()
            for name in net.params:
                grad = res.param_vars[name].grad
                if grad is None:
                    continue
                velocity[name] = cfg.momentum * velocity[name] + grad
                net.params[name] -= cfg.lr * velocity[name]
            losses.append(loss_val)
            correct += int((res.logits.value.argmax(axis=1) == yb).sum())
            for hook, op in ops:
                if isinstance(op, SbHookOp) and op.plan is not None:
                    for rec in op.plan.to_audit_dicts():
                        metrics.audit.append({"epoch": epoch, "batch": bi, "hook": hook, **rec})
        metrics.epochs.append({"epoch": epoch, "loss": float(np.mean(losses)),
                               "accuracy": correct / n})
    return metrics


# -- evaluation ------------------------------------------------------------------

@dataclass
class EvalResult:
    domains: dict[int, dict]   # id -> {"n", "correct", "shifted"}

    def accuracy(self, domain: int) -> float:
        d = self.domains[domain]
        return d["correct"] / d["n"]

    def shift_rate(self, domain: int) -> float:
        d = self.domains[domain]
        return d["shifted"] / d["n"]

    @property
    def overall_accuracy(self) -> float:
        n = sum(d["n"] for d in self.domains.values())
        return sum(d["correct"] for d in self.domains.values()) / n


def evaluate(net: MicroNet, images, class_labels, domain_labels,
             registry: DomainRegistry | None = None, mode: ShiftMode = OFF,
             alpha: float | None = None, sample_pool=None,
             rng: np.random.Generator | None = None) -> EvalResult:
    """Top-1 accuracy and shift rate per domain, with the shifter at the
    registry's layer when a mode other than off is requested. Runs
    ``MicroNet.infer`` in chunks of ``INFERENCE_CHUNK`` samples, each chunk's
    features shifted by one ``shift_batch`` call. Non-finite logits raise
    ``DivergenceError`` instead of being scored."""
    x = np.asarray(images, dtype=np.float64)
    y = np.asarray(class_labels, dtype=np.intp)
    doms = np.asarray(domain_labels, dtype=np.intp)
    if alpha is not None:  # in every mode, off included
        checked_alpha(alpha)
    use_ts = mode.kind != "off"
    if use_ts:
        if registry is None:
            raise ConfigError("evaluation with shifting requires a registry")
        if registry.layer not in net.hook_names:
            raise ConfigError(
                f"registry layer {registry.layer!r} is not a hook of this network")
        if registry.channels != net.config.channels_at(registry.layer):
            raise ConfigError("registry channel count does not match the hook")
    flags = []

    def shift(feats: np.ndarray) -> np.ndarray:  # one batched shifter per chunk
        out, decisions = shift_batch(feats, registry, alpha, mode, sample_pool, rng)
        flags.append(decisions.shifted)
        return out

    hook, op = (registry.layer, shift) if use_ts else (None, None)
    correct = np.empty(x.shape[0], dtype=bool)
    for start in range(0, x.shape[0], INFERENCE_CHUNK):
        sl = slice(start, start + INFERENCE_CHUNK)
        logits = net.infer(x[sl], hook, op)
        if not np.all(np.isfinite(logits)):
            raise DivergenceError(f"non-finite logits in the evaluation batch "
                                  f"starting at sample {start}")
        correct[sl] = logits.argmax(axis=1) == y[sl]
    shifted = np.concatenate(flags) if flags else np.zeros(x.shape[0], dtype=bool)
    ids, dom_index = np.unique(doms, return_inverse=True)
    tallies = [np.bincount(dom_index[keep], minlength=ids.size).tolist()
               for keep in (slice(None), correct, shifted)]
    return EvalResult(domains={int(d): {"n": n, "correct": c, "shifted": k}
                               for d, n, c, k in zip(ids, *tallies)})


# -- finite-difference harness ----------------------------------------------

def finite_difference_check(net: MicroNet, x, y, hook_ops=None, n_coords: int = 200,
                            step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between backprop gradients and central differences.

    The hook operations record their state on the first forward pass, so
    every perturbed pass replays their randomness, sorting permutations and
    detached copies: the differenced function is exactly the one the
    gradients are defined against.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    hook_ops = hook_ops or []
    res = net.forward(x, hook_ops)
    loss = ad.softmax_cross_entropy(res.logits, y)
    loss.backward()
    grads = {name: res.param_vars[name].grad for name in net.params}

    def loss_at() -> float:  # reads only the value, so records no graph
        with ad.no_grad():
            r = net.forward(x, hook_ops)
            return float(ad.softmax_cross_entropy(r.logits, y).value)

    rng = np.random.Generator(np.random.PCG64(seed))
    names = sorted(net.params)
    sizes = np.array([net.params[n].size for n in names])
    total = int(sizes.sum())
    coords = rng.choice(total, size=min(n_coords, total), replace=False)
    worst = 0.0
    for coord in coords:
        ni = int(np.searchsorted(np.cumsum(sizes), coord, side="right"))
        offset = coord - int(np.cumsum(sizes)[ni - 1]) if ni else int(coord)
        name = names[ni]
        flat = net.params[name].ravel()
        orig = flat[offset]
        flat[offset] = orig + step
        up = loss_at()
        flat[offset] = orig - step
        down = loss_at()
        flat[offset] = orig
        fd = (up - down) / (2 * step)
        an = 0.0 if grads[name] is None else grads[name].ravel()[offset]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        worst = max(worst, err)
    return worst
