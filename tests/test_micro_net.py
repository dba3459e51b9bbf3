import contextlib
import ctypes
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from styleshift import autodiff as ad
from styleshift import domain_data as dd
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.autodiff import Var
from styleshift.errors import ConfigError, DivergenceError
from styleshift.style_balance import BatchMeta
from styleshift.tensor_core import batch_style_vectors, from_json

from helpers import checkpoint_tags, net_configs, step_grad_digests

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))

TINY = mn.NetConfig(in_channels=1, image_size=8,
                    blocks=(mn.BlockSpec(3), mn.BlockSpec(4)), n_classes=3)


def toy_blobs(n_per_class=20, seed=0):
    """Linearly separable two-class images: dark vs bright noise."""
    rng = RNG(seed)
    lo = rng.uniform(0.0, 0.35, size=(n_per_class, 1, 8, 8))
    hi = rng.uniform(0.55, 1.0, size=(n_per_class, 1, 8, 8))
    x = np.concatenate([lo, hi])
    y = np.repeat([0, 1], n_per_class)
    d = np.zeros(2 * n_per_class, dtype=int)
    return x, y, d


# -- config ---------------------------------------------------------------------

def test_net_config_requires_two_blocks():
    with pytest.raises(ConfigError):
        mn.NetConfig(blocks=(mn.BlockSpec(4),))


def test_net_config_checks_pooling_parity():
    with pytest.raises(ConfigError):
        mn.NetConfig(image_size=6, blocks=(mn.BlockSpec(2), mn.BlockSpec(2), mn.BlockSpec(2)))


def test_hook_names():
    assert TINY.hook_names == ("block1", "block2")
    assert TINY.channels_at("block2") == 4


# -- forward ---------------------------------------------------------------------

def test_zero_weight_network_outputs_bias():
    net = mn.MicroNet.init(TINY, seed=0)
    for name in net.params:
        net.params[name][:] = 0.0
    net.params["head_b"][:] = np.array([0.5, -0.25, 1.0])
    res = net.forward(RNG(1).normal(size=(4, 1, 8, 8)))
    np.testing.assert_allclose(res.logits.value,
                               np.tile([0.5, -0.25, 1.0], (4, 1)), atol=1e-12)


def test_identity_hooks_do_not_change_forward():
    net = mn.MicroNet.init(TINY, seed=1)
    x = RNG(2).normal(size=(3, 1, 8, 8))
    plain = net.forward(x)
    hooked = net.forward(x, hook_ops=[("block1", lambda v: v)])
    np.testing.assert_array_equal(plain.logits.value, hooked.logits.value)


def test_forward_hand_computed_conv():
    # 1x1 input through two same-padded 3x3 convs: only the center taps act
    cfg = mn.NetConfig(in_channels=1, image_size=1,
                       blocks=(mn.BlockSpec(1, pool=False), mn.BlockSpec(1, pool=False)),
                       n_classes=2)
    net = mn.MicroNet.init(cfg, seed=0)
    net.params["conv0_w"][:] = 0.0
    net.params["conv0_w"][0, 0, 1, 1] = 2.0
    net.params["conv0_b"][:] = 0.5
    net.params["conv1_w"][:] = 0.0
    net.params["conv1_w"][0, 0, 1, 1] = -3.0
    net.params["conv1_b"][:] = 10.0
    net.params["head_w"][:] = np.array([[1.0, -1.0]])
    net.params["head_b"][:] = np.array([0.25, 0.0])
    x = np.full((1, 1, 1, 1), 1.5)
    # conv1: 2*1.5 + 0.5 = 3.5 -> relu 3.5; conv2: -3*3.5 + 10 = -0.5 -> relu 0
    res = net.forward(x)
    np.testing.assert_allclose(res.logits.value, [[0.25, 0.0]], atol=1e-12)
    np.testing.assert_allclose(res.hook_inputs["block1"].value.ravel(), [3.5])


def test_hook_inputs_are_pre_transform():
    net = mn.MicroNet.init(TINY, seed=3)
    x = RNG(4).normal(size=(4, 1, 8, 8))
    plain = net.forward(x)
    shift = lambda v: v + 5.0
    hooked = net.forward(x, hook_ops=[("block1", shift)])
    np.testing.assert_array_equal(hooked.hook_inputs["block1"].value,
                                  plain.hook_inputs["block1"].value)


def test_hook_ops_get_c_contiguous_sample_major_values_and_gradients():
    """At every hook, the last one included, a hook op gets its block's
    output as a C-contiguous float64 (B, C, H, W) array, and its vjp a
    C-contiguous gradient of that shape: the ops reduce over samples, and on
    a view of channel-major memory those reductions round differently."""
    cfg = mn.NetConfig(in_channels=2, image_size=12,
                       blocks=(mn.BlockSpec(3), mn.BlockSpec(4), mn.BlockSpec(6, stride=2)),
                       n_classes=3)
    net = mn.MicroNet.init(cfg, seed=56)
    seen = []

    def record(v):
        def vjp(g):
            seen.append(("grad", g.dtype, g.shape, g.flags.c_contiguous))
            return (g,)

        seen.append(("value", v.value.dtype, v.shape, v.value.flags.c_contiguous))
        return Var(v.value, (v,), vjp)

    res = net.forward(RNG(57).normal(size=(5, 2, 12, 12)),
                      hook_ops=[(hook, record) for hook in cfg.hook_names])
    ad.softmax_cross_entropy(res.logits, RNG(58).integers(0, 3, size=5)).backward()
    shapes = [(5, 3, 6, 6), (5, 4, 3, 3), (5, 6, 1, 1)]
    assert seen == [("value", np.float64, s, True) for s in shapes] + \
                   [("grad", np.float64, s, True) for s in reversed(shapes)]


def test_forward_rejects_unknown_hook():
    net = mn.MicroNet.init(TINY, seed=5)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 1, 8, 8)), hook_ops=[("block9", lambda v: v)])


# -- backward ---------------------------------------------------------------------

def test_zero_upstream_gradient_gives_zero_param_grads():
    net = mn.MicroNet.init(TINY, seed=8)
    res = net.forward(RNG(9).normal(size=(2, 1, 8, 8)))
    res.logits.backward(seed=np.zeros_like(res.logits.value))
    for name, pv in res.param_vars.items():
        assert pv.grad is not None
        np.testing.assert_array_equal(pv.grad, np.zeros_like(pv.grad))


def test_images_as_constant_or_leaf_give_identical_param_grads():
    net = mn.MicroNet.init(TINY, seed=50)
    x = RNG(51).normal(size=(4, 1, 8, 8))
    y = RNG(52).integers(0, 3, size=4)
    grads, leaf = [], Var(x.copy())
    for images in (x, leaf):
        res = net.forward(images)
        ad.softmax_cross_entropy(res.logits, y).backward()
        grads.append({name: pv.grad for name, pv in res.param_vars.items()})
    for name in net.param_order:
        np.testing.assert_array_equal(grads[0][name], grads[1][name])
    assert leaf.grad is not None and leaf.grad.shape == x.shape


def test_backward_keeps_grads_on_leaves_only():
    net = mn.MicroNet.init(TINY, seed=53)
    x = RNG(54).normal(size=(5, 1, 8, 8))
    y = RNG(55).integers(0, 3, size=5)
    res = net.forward(x, hook_ops=[("block1", lambda v: v * 2.0)])
    loss = ad.softmax_cross_entropy(res.logits, y)
    loss.backward()
    assert res.hook_inputs["block1"].grad is None
    assert res.logits.grad is None and loss.grad is None
    # the head's leaf grads in closed form: d loss / d logits = (softmax - onehot) / B
    z = res.logits.value - res.logits.value.max(axis=1, keepdims=True)
    d = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    d[np.arange(5), y] -= 1.0
    d /= 5
    feats = res.hook_inputs["block2"].value.mean(axis=(2, 3))
    np.testing.assert_allclose(res.param_vars["head_b"].grad, d.sum(axis=0), atol=1e-15)
    np.testing.assert_allclose(res.param_vars["head_w"].grad, feats.T @ d, atol=1e-15)
    assert all(pv.grad is not None for pv in res.param_vars.values())


def test_finite_difference_bare_network():
    net = mn.MicroNet.init(TINY, seed=10)
    x = RNG(11).normal(size=(6, 1, 8, 8))
    y = RNG(12).integers(0, 3, size=6)
    assert mn.finite_difference_check(net, x, y, n_coords=120, seed=0) < 1e-4


def test_strided_block_forward_and_finite_difference():
    # 13 -> 7 (stride 2, no pool) -> 4 (stride 2) -> 2 (pool)
    cfg = mn.NetConfig(in_channels=2, image_size=13,
                       blocks=(mn.BlockSpec(3, stride=2, pool=False),
                               mn.BlockSpec(4, stride=2)), n_classes=3)
    net = mn.MicroNet.init(cfg, seed=40)
    x = RNG(41).normal(size=(5, 2, 13, 13))
    y = RNG(42).integers(0, 3, size=5)
    res = net.forward(x)
    assert res.hook_inputs["block1"].shape == (5, 3, 7, 7)
    assert res.hook_inputs["block2"].shape == (5, 4, 2, 2)
    assert res.logits.shape == (5, 3)
    assert np.all(np.isfinite(res.logits.value))
    assert mn.finite_difference_check(net, x, y, n_coords=120, seed=4) < 1e-4


def test_finite_difference_with_sb_hook():
    net = mn.MicroNet.init(TINY, seed=13)
    rng = RNG(14)
    x = rng.normal(size=(8, 1, 8, 8))
    y = rng.integers(0, 3, size=8)
    domains = np.array([0, 0, 0, 0, 1, 1, 2, 2])
    meta = BatchMeta(domains, y, 3, 3)
    op = mn.SbHookOp(meta, RNG(15))
    err = mn.finite_difference_check(net, x, y, hook_ops=[("block1", op)],
                                     n_coords=120, seed=1)
    assert op.plan is not None and op.plan.moves  # the hook actually fired
    assert err < 1e-4


def test_finite_difference_with_efdmix_hook():
    net = mn.MicroNet.init(TINY, seed=16)
    rng = RNG(17)
    x = rng.normal(size=(6, 1, 8, 8))
    y = rng.integers(0, 3, size=6)
    op = mn.EfdmixHookOp.draw(6, RNG(18), 0.1)
    err = mn.finite_difference_check(net, x, y, hook_ops=[("block2", op)],
                                     n_coords=120, seed=2)
    assert err < 1e-4


def test_finite_difference_with_mixstyle_and_dsu_hooks():
    net = mn.MicroNet.init(TINY, seed=19)
    rng = RNG(20)
    x = rng.normal(size=(6, 1, 8, 8))
    y = rng.integers(0, 3, size=6)
    for op in (mn.MixstyleHookOp.draw(6, RNG(21), 0.1),
               mn.DsuHookOp.draw(6, TINY.channels_at("block1"), RNG(22))):
        err = mn.finite_difference_check(net, x, y, hook_ops=[("block1", op)],
                                         n_coords=80, seed=3)
        assert err < 1e-4


def test_sb_hook_gradient_to_moved_sample_is_identity_path():
    # gradient w.r.t. the hook input of a moved sample equals the gradient of
    # the identity path (coefficient 1): compare against a pass whose block1
    # output is the replayed transform of a second leaf
    net = mn.MicroNet.init(TINY, seed=23)
    rng = RNG(24)
    x = rng.normal(size=(6, 1, 8, 8))
    y = rng.integers(0, 3, size=6)
    domains = np.array([0, 0, 0, 1, 1, 2])
    meta = BatchMeta(domains, np.zeros(6, dtype=int), 3, 1)
    full = net.forward(x)
    feats = full.hook_inputs["block1"].value

    # the first block1 op swaps the hook input for a leaf Var of its values, and
    # hook ops run in their listed order, so the SB op transforms the leaf
    op = mn.SbHookOp(meta, RNG(25))
    leaf = Var(feats.copy())
    res = net.forward(x, hook_ops=[("block1", lambda _: leaf), ("block1", op)])
    ad.softmax_cross_entropy(res.logits, y).backward()
    assert op.plan.moves
    moved = op.plan.moves[0].sample

    # a second call replays the transform with the moved row's carriers frozen,
    # treating the mixed value as a constant: the identity-path gradient is
    # what the rest of the network gives on the transformed features
    leaf2 = Var(feats.copy())
    res2 = net.forward(x, hook_ops=[("block1", lambda _: op(leaf2))])
    ad.softmax_cross_entropy(res2.logits, y).backward()
    carriers = {op.plan.moves[0].carrier1, op.plan.moves[0].carrier2}
    assert moved not in carriers
    np.testing.assert_allclose(leaf.grad[moved], leaf2.grad[moved], atol=1e-12)


def test_sb_hook_second_call_replays_first_output():
    rng = RNG(56)
    x = Var(rng.normal(size=(8, 3, 4, 4)))
    meta = BatchMeta(np.array([0, 0, 0, 0, 1, 1, 2, 2]), rng.integers(0, 2, size=8), 3, 2)
    op = mn.SbHookOp(meta, RNG(57))
    first = op(x).value
    plan = op.plan
    assert plan.moves
    np.testing.assert_array_equal(op(x).value, first)
    assert op.plan is plan


# -- tape release -------------------------------------------------------------------

def _reference_sweep(root):
    """The engine's sweep (same visit and accumulation order) with nothing
    freed: every Var reachable from root, and id(leaf) -> grad."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
    grads, leaves = {id(root): np.ones_like(root.value)}, {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaves[id(node)] = g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is not None:
                grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg
    return order, leaves


def test_backward_frees_the_recorded_graph():
    """After backward no inner node of the step keeps parents or a live vjp,
    every vjp closure is collected, and the leaves hold the grads of a sweep
    that frees nothing, bit for bit."""
    net = mn.MicroNet.init(TINY, seed=80)
    rng = RNG(81)
    x = rng.normal(size=(6, 1, 8, 8))
    y = rng.integers(0, 3, size=6)
    meta = BatchMeta(np.array([0, 0, 0, 1, 1, 2]), y, 3, 3)
    ops = [("block1", mn.SbHookOp(meta, RNG(82))), ("block1", mn.DsuHookOp.draw(6, 3, RNG(83)))]
    res = net.forward(x, ops)
    loss = ad.softmax_cross_entropy(res.logits, y)
    nodes, want = _reference_sweep(loss)
    inner = [v for v in nodes if v._vjp is not None]
    closures = [weakref.ref(v._vjp) for v in inner]
    loss.backward()
    assert len(inner) > 30 and all(v._parents == () for v in inner)
    for v in inner:
        with pytest.raises(RuntimeError):
            v._vjp(np.zeros_like(v.value))
    assert all(ref() is None for ref in closures)
    leaves = [v for v in nodes if v._vjp is None]
    assert {id(v) for v in leaves if v.grad is not None} == set(want)
    assert all(res.param_vars[name].grad is not None for name in net.params)
    for v in leaves:
        if v.grad is not None:
            assert v.grad.tobytes() == want[id(v)].tobytes()


def _dsu_batch(n):
    rng = RNG(90)
    return rng.uniform(size=(n, 1, 32, 32)), np.arange(n) % 7, np.arange(n) % 3


DSU_TRAIN = dict(batch_size=63, lr=0.01, seed=0, aug="dsu", aug_prob=1.0,
                 aug_hooks=("block1", "block2"))


def test_training_peak_memory_is_one_step_graph():
    """backward frees step k's graph before step k+1 records its own, so the
    traced peak of three batch-63 DSU steps stays near that of one step
    (holding two graphs at once made it about twice)."""
    x, y, d = _dsu_batch(63)

    def peak(epochs):
        net = mn.MicroNet.init(mn.NetConfig(), seed=91)
        tracemalloc.start()
        try:
            mn.train(net, x, y, d, mn.TrainConfig(epochs=epochs, **DSU_TRAIN))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.2 * one, (one, three)


def test_a_training_step_tapes_only_what_backward_reads():
    """One 32 px, batch-63 step with DSU at block1 and block2 peaks near 35 MB
    of numpy's allocations: each block's one tape node keeps its patch matrix
    (block1 its constant images instead), its ReLU mask and its output, and
    frees the conv and ReLU outputs. Keeping them peaked at 53 MB."""
    x, y, _ = _dsu_batch(63)
    net = mn.MicroNet.init(mn.NetConfig(), seed=91)
    ops = [(hook, mn.DsuHookOp.draw(63, net.config.channels_at(hook), RNG(93)))
           for hook in ("block1", "block2")]
    tracemalloc.start()
    try:
        res = net.forward(x, ops)
        ad.softmax_cross_entropy(res.logits, y).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42e6, peak


PAGE_FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from test_micro_net import DSU_TRAIN, _dsu_batch
from styleshift import micro_net as mn
x, y, d = _dsu_batch(189)
net = mn.MicroNet.init(mn.NetConfig(), seed=92)
mn.train(net, x, y, d, mn.TrainConfig(epochs=1, **DSU_TRAIN))  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
mn.train(net, x, y, d, mn.TrainConfig(epochs=5, **DSU_TRAIN))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * 3))
"""


def test_allocator_pin_keeps_training_steps_free_of_page_faults():
    """Importing the package pins glibc's mmap and trim thresholds, so the
    pages each step's freed graph leaves behind are reused by the next step
    instead of being returned to the OS and faulted in again (thousands of
    minor faults per step without the pin)."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("this C library has no mallopt")
    tests_dir = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests_dir.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", PAGE_FAULT_PROBE, str(tests_dir)],
                         env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 100


# -- training ---------------------------------------------------------------------

def test_train_separable_toy_task():
    x, y, d = toy_blobs(24, seed=30)
    cfg = mn.TrainConfig(epochs=50, batch_size=16, lr=0.1, momentum=0.9, seed=0)
    net = mn.MicroNet.init(mn.NetConfig(in_channels=1, image_size=8,
                                        blocks=(mn.BlockSpec(4), mn.BlockSpec(8)),
                                        n_classes=2), seed=0)
    metrics = mn.train(net, x, y, d, cfg)
    assert metrics.epochs[-1]["accuracy"] > 0.99


def test_train_zero_lr_keeps_parameters():
    x, y, d = toy_blobs(8, seed=31)
    net = mn.MicroNet.init(TINY, seed=1)
    before = {k: v.copy() for k, v in net.params.items()}
    mn.train(net, x, y % 3, d, mn.TrainConfig(epochs=2, batch_size=8, lr=0.0, seed=0))
    for k in before:
        np.testing.assert_array_equal(net.params[k], before[k])


def test_train_same_seed_bit_identical():
    x, y, d = toy_blobs(10, seed=32)
    cfg = mn.TrainConfig(epochs=3, batch_size=8, lr=0.05, seed=7, sb=True, aug="efdmix")
    d = np.tile([0, 1], 10)
    nets = []
    for _ in range(2):
        net = mn.MicroNet.init(TINY, seed=2)
        mn.train(net, x, y % 3, d, cfg, n_domains=2)
        nets.append({k: v.copy() for k, v in net.params.items()})
    for k in nets[0]:
        np.testing.assert_array_equal(nets[0][k], nets[1][k])


def test_train_loss_nonincreasing_early_on_toy_task():
    # averaged over 5 seeds, the first epochs of the separable task descend
    deltas = []
    for seed in range(5):
        x, y, d = toy_blobs(16, seed=40 + seed)
        net = mn.MicroNet.init(mn.NetConfig(in_channels=1, image_size=8,
                                            blocks=(mn.BlockSpec(4), mn.BlockSpec(8)),
                                            n_classes=2), seed=seed)
        metrics = mn.train(net, x, y, d,
                           mn.TrainConfig(epochs=5, batch_size=16, lr=0.05, seed=seed))
        losses = [row["loss"] for row in metrics.epochs]
        deltas.append(np.diff(losses))
    assert np.mean(deltas, axis=0).max() <= 0.0


def test_train_divergence_aborts():
    x, y, d = toy_blobs(8, seed=33)
    net = mn.MicroNet.init(TINY, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            mn.train(net, x * 1e200, y % 3, d,
                     mn.TrainConfig(epochs=10, batch_size=8, lr=0.1, seed=0))


def test_train_audit_records_match_schema():
    x, y, d = toy_blobs(12, seed=34)
    d = np.tile([0, 0, 1], 8)
    net = mn.MicroNet.init(TINY, seed=4)
    metrics = mn.train(net, x, y % 3, d,
                       mn.TrainConfig(epochs=4, batch_size=12, lr=0.01, seed=1, sb=True),
                       n_domains=2)
    assert metrics.audit
    for row in metrics.audit:
        assert {"epoch", "batch", "hook", "class", "moves"} <= set(row)


# -- evaluation -------------------------------------------------------------------

def _trained_toy():
    x, y, d = toy_blobs(16, seed=50)
    net = mn.MicroNet.init(mn.NetConfig(in_channels=1, image_size=8,
                                        blocks=(mn.BlockSpec(4), mn.BlockSpec(8)),
                                        n_classes=2), seed=0)
    mn.train(net, x, y, d, mn.TrainConfig(epochs=30, batch_size=16, lr=0.1, seed=0))
    return net, x, y, d


def test_evaluate_off_equals_plain_accuracy():
    net, x, y, d = _trained_toy()
    res = net.forward(x)
    plain = float((res.logits.value.argmax(axis=1) == y).mean())
    ev = mn.evaluate(net, x, y, d)
    assert ev.overall_accuracy == pytest.approx(plain)
    assert ev.shift_rate(0) == 0.0


def test_evaluate_huge_alpha_matches_off():
    net, x, y, d = _trained_toy()
    two = np.tile([0, 1], len(d) // 2)  # spread must be positive to ever keep
    styles = net.style_vectors_at(x, "block1")
    reg = ts.registry_from_styles(styles, two, "block1")
    off = mn.evaluate(net, x, y, two)
    kept = mn.evaluate(net, x, y, two, registry=reg, mode=ts.PROPOSED, alpha=1e9)
    assert kept.overall_accuracy == off.overall_accuracy
    assert kept.shift_rate(0) == 0.0 and kept.shift_rate(1) == 0.0
    near = ts.nearest_sample(5)
    assert mn.evaluate(net, x, y, two, reg, near, 1e9, styles, RNG(0)).domains == kept.domains
    # nearest_sample needs its pool and rng though no sample shifts
    for pool, rng in ((None, RNG(0)), (styles, None)):
        with pytest.raises(ConfigError):
            mn.evaluate(net, x, y, two, reg, near, 1e9, pool, rng)


def test_evaluate_shift_all_equals_alpha_zero():
    net, x, y, d = _trained_toy()
    styles = net.style_vectors_at(x, "block1")
    reg = ts.registry_from_styles(styles, d, "block1")
    a = mn.evaluate(net, x + 0.3, y, d, registry=reg, mode=ts.PROPOSED, alpha=0.0)
    b = mn.evaluate(net, x + 0.3, y, d, registry=reg, mode=ts.SHIFT_ALL)
    assert a.domains == b.domains


def test_evaluate_checks_registry_layer():
    net, x, y, d = _trained_toy()
    styles = net.style_vectors_at(x, "block1")
    reg = ts.registry_from_styles(styles, d, "block7")
    with pytest.raises(ConfigError):
        mn.evaluate(net, x, y, d, registry=reg, mode=ts.PROPOSED, alpha=1.0)


THREE = mn.NetConfig(in_channels=1, image_size=8,
                     blocks=(mn.BlockSpec(2), mn.BlockSpec(3), mn.BlockSpec(4)), n_classes=3)


@pytest.mark.parametrize("config,layer,chunk", [
    pytest.param(mn.NetConfig(), "block1", 256, id="block1"),
    pytest.param(mn.NetConfig(), "block2", 256, id="block2"),
    pytest.param(THREE, "block3", None, id="three-block3-default-chunk")])
def test_evaluate_shifts_match_decide_over_style_vectors_at(config, layer, chunk):
    """The registry path and the eval path see one style vector per sample.
    At the CLI's 32 px shapes, evaluate (chunks of mn.INFERENCE_CHUNK) and
    style_vectors_at (chunks of 256 here) split 300 samples differently. On
    the 8 px three-block net, where block3's 1x1 GEMM rounds differently when
    its column count changes, both run at the shared default chunk. Each
    sample's shift in evaluate (one domain id per sample) equals decide over
    style_vectors_at."""
    net = mn.MicroNet.init(config, seed=5)
    rng = RNG(6)
    size = config.image_size
    x_src = rng.uniform(size=(60, 1, size, size)) * np.repeat([0.4, 1.0, 2.0], 20)[:, None, None, None]
    reg = ts.build_registry(net, x_src, np.repeat([0, 1, 2], 20), layer)
    n = 300
    x = rng.uniform(size=(n, 1, size, size)) * rng.uniform(0.1, 3.0, size=(n, 1, 1, 1)) \
        + rng.uniform(-0.5, 0.5, size=(n, 1, 1, 1))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(mn, "INFERENCE_CHUNK", chunk)
        phi = net.style_vectors_at(x, layer)
    alpha = float(np.median([ts.decide(p, reg, 0.0).avg_distance for p in phi]) / reg.spread)
    want = [ts.decide(p, reg, alpha).shifted for p in phi]
    assert 0 < sum(want) < n
    res = mn.evaluate(net, x, np.zeros(n, dtype=int), np.arange(n), registry=reg,
                      mode=ts.PROPOSED, alpha=alpha)
    assert [bool(res.domains[i]["shifted"]) for i in range(n)] == want


# -- tape-free inference ------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 7), layer=st.sampled_from(THREE.hook_names))
def test_style_vectors_at_equals_recorded_forward(seed, n, layer):
    """The tape-free pass that stops at its hook gives the recorded full
    forward's style vectors bit for bit, for a chunk size
    (``mn.INFERENCE_CHUNK``) below, at and above the sample count. Below it,
    the reference is the recorded forward of each chunk: BLAS may round a
    tiny GEMM differently when its column count changes (block3 here is 1x1),
    so a whole-batch forward is no reference for a chunked one."""
    net = mn.MicroNet.init(THREE, seed=seed)
    x = RNG(seed).normal(size=(n, 1, 8, 8))
    for k in {max(n - 1, 1), n, n + 1}:
        expected = np.concatenate([
            batch_style_vectors(net.forward(x[s:s + k]).hook_inputs[layer].value)
            for s in range(0, n, k)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mn, "INFERENCE_CHUNK", k)
            got = net.style_vectors_at(x, layer)
        assert got.tobytes() == expected.tobytes(), k


def test_forward_to_hook_stops_there():
    """The inference pass that stops at a hook runs no block past it: with
    the parameters of block2, block3 and the head removed, a pass that went on
    would raise KeyError, yet block1's style vectors come out, and the pass
    that stops at block1 equals the recorded forward's block1 output. An
    unknown hook is a ConfigError."""
    net = mn.MicroNet.init(THREE, seed=0)
    x = RNG(0).normal(size=(5, 1, 8, 8))
    want = net.forward(x).hook_inputs["block1"].value
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "head_w", "head_b"):
        del net.params[name]
    assert net.style_vectors_at(x, "block1").tobytes() == batch_style_vectors(want).tobytes()
    assert net.infer(x, "block1").tobytes() == want.tobytes()
    with pytest.raises(ConfigError):
        net.style_vectors_at(x, "block9")
    with pytest.raises(ConfigError):
        net.infer(x, "block9")


def inference_nets():
    """Random nets (strides 1 and 2, pooling on and off), and the 8 px
    three-block net whose block3 is 1x1."""
    return st.one_of(net_configs(), st.just(THREE))


@settings(max_examples=40, deadline=None)
@given(config=inference_nets(), seed=st.integers(0, 2**16), n=st.integers(1, 40),
       chunk=st.sampled_from([1, 3, 5, 32]))
def test_inference_pass_equals_recorded_forward(config, seed, n, chunk):
    """``infer`` gives the recorded forward's logits and its output at every
    hook bit for bit, chunk by chunk; ``style_vectors_at`` in those chunks
    gives their style vectors. Each chunk is compared with the recorded
    forward of the same chunk: BLAS may round a small GEMM differently when
    its column count changes."""
    net = mn.MicroNet.init(config, seed=seed)
    size = config.image_size
    x = RNG(seed).normal(size=(n, config.in_channels, size, size))
    styles = {hook: [] for hook in config.hook_names}
    for s in range(0, n, chunk):
        res = net.forward(x[s:s + chunk])
        assert net.infer(x[s:s + chunk]).tobytes() == res.logits.value.tobytes()
        for hook in config.hook_names:
            want = res.hook_inputs[hook].value
            assert net.infer(x[s:s + chunk], hook).tobytes() == want.tobytes(), hook
            styles[hook].append(batch_style_vectors(want))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mn, "INFERENCE_CHUNK", chunk)
        for hook, parts in styles.items():
            got = net.style_vectors_at(x, hook)
            assert got.tobytes() == np.concatenate(parts).tobytes(), hook


@settings(max_examples=30, deadline=None)
@given(config=inference_nets(), seed=st.integers(0, 2**16), n=st.integers(1, 40))
def test_inference_from_a_hook_equals_the_full_pass(config, seed, n):
    """The pass that starts at a hook, fed the pass that stops there, gives
    the full pass's logits byte for byte, at every hook; a start that is no
    hook, or a hook at or before the start, is a ConfigError."""
    net = mn.MicroNet.init(config, seed=seed)
    size = config.image_size
    x = RNG(seed).normal(size=(n, config.in_channels, size, size))
    want = net.infer(x).tobytes()
    for hook in config.hook_names:
        assert net.infer(net.infer(x, hook), start=hook).tobytes() == want, hook
    first = config.hook_names[0]
    with pytest.raises(ConfigError):
        net.infer(x, start="block9")
    with pytest.raises(ConfigError):
        net.infer(net.infer(x, first), first, start=first)


def evaluate_at(net, x, y, d, registry, mode, alpha, pool=None, rng=None) -> mn.EvalResult:
    """Evaluation at one alpha restated chunk by chunk, the reference for
    ``evaluate_alphas``: in nearest_sample mode one pool-draw seed per sample
    from ``rng``, then per chunk ``infer`` to the registry's hook,
    ``shift_batch`` at alpha with the chunk's seeds, ``infer`` from the hook,
    then a count per domain."""
    hook = None if mode.kind == "off" else registry.layer
    seeds = rng.integers(2**63, size=len(x)) if mode.kind == "nearest_sample" else None
    correct, shifted = [], []
    for s in range(0, len(x), mn.INFERENCE_CHUNK):
        feats = x[s:s + mn.INFERENCE_CHUNK]
        flags = np.zeros(len(feats), dtype=bool)
        if hook is not None:
            feats, decisions = ts.shift_batch(net.infer(feats, hook), registry, [alpha], mode,
                                              pool, None if seeds is None else
                                              seeds[s:s + mn.INFERENCE_CHUNK])
            flags = decisions.shifted[0]
        correct.append(net.infer(feats, start=hook).argmax(axis=1) == y[s:s + mn.INFERENCE_CHUNK])
        shifted.append(flags)
    correct, shifted = np.concatenate(correct), np.concatenate(shifted)
    return mn.EvalResult({int(dom): {"n": int((d == dom).sum()),
                                     "correct": int(correct[d == dom].sum()),
                                     "shifted": int(shifted[d == dom].sum())}
                          for dom in np.unique(d)})


@settings(max_examples=30, deadline=None)
@given(config=inference_nets(), seed=st.integers(0, 2**16), n=st.integers(1, 70),
       n_domains=st.integers(1, 3), data=st.data())
def test_evaluate_alphas_equals_evaluate_at_each_alpha(config, seed, n, n_domains, data):
    """One multi-alpha evaluation gives, for every alpha of a list with 0,
    repeats, None (the registry's) and a value above every sample's distance,
    the very tallies of an evaluation at that alpha alone (``evaluate_at``),
    in off, proposed and shift_all mode, in single_domain mode with a
    one-domain registry, and in nearest_sample mode with equally seeded rngs.
    Batches of up to 70 samples cross the edges of the inference chunks."""
    net = mn.MicroNet.init(config, seed=seed)
    layer = data.draw(st.sampled_from(config.hook_names), label="layer")
    rng = RNG(seed)
    size = config.image_size
    shape = (config.in_channels, size, size)
    src_doms = np.repeat(np.arange(n_domains), 4)
    x_src = rng.uniform(size=(src_doms.size, *shape)) * (1.0 + src_doms)[:, None, None, None]
    reg = ts.build_registry(net, x_src, src_doms, layer)
    one = ts.build_registry(net, x_src, np.zeros(src_doms.size, dtype=int), layer)
    x = rng.uniform(size=(n, *shape)) * rng.uniform(0.1, 3.0, size=(n, 1, 1, 1))
    y = rng.integers(0, config.n_classes, n)
    d = rng.integers(0, 3, n)
    ratio = np.array([ts.decide(p, reg, 0.0).avg_distance
                      for p in net.style_vectors_at(x, layer)]) / max(reg.spread, 1e-300)
    inner = data.draw(st.lists(st.sampled_from(np.quantile(ratio, [0.2, 0.5, 0.8]).tolist()
                                               + [None]), min_size=1, max_size=4),
                      label="inner alphas")
    alphas = data.draw(st.permutations([0.0, *inner, inner[0], float(ratio.max()) * 2 + 1]),
                       label="alphas")
    pool = net.style_vectors_at(x_src, layer)
    for mode, registry in ((ts.OFF, reg), (ts.PROPOSED, reg), (ts.SHIFT_ALL, reg),
                           (ts.SINGLE_DOMAIN, one), (ts.nearest_sample(3), reg)):
        got = mn.evaluate_alphas(net, x, y, d, registry, mode, alphas, pool, RNG(seed + 1))
        want = [evaluate_at(net, x, y, d, registry, mode, alpha, pool, RNG(seed + 1))
                for alpha in alphas]
        assert [r.domains for r in got] == [r.domains for r in want], mode.kind


# -- inference workers -----------------------------------------------------------

@contextlib.contextmanager
def forced_workers(k):
    """A runner of ``k`` workers (at most one per task), whatever the usable
    CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.RUNNER, "size", k)
        yield mp


@settings(max_examples=20, deadline=None)
@given(config=inference_nets(), seed=st.integers(0, 2**16), n=st.integers(1, 70),
       codes=st.booleans(), data=st.data())
def test_more_workers_give_the_same_bits(config, seed, n, codes, data):
    """With 1, 2 or 3 inference workers, ``evaluate_alphas`` gives the tallies
    of the chunk-by-chunk ``evaluate_at`` in every mode, and
    ``style_vectors_at`` the bytes of a sequential loop, even though the
    first chunk's shift is held back, so later chunks shift first. The
    caller's rng advances by exactly one ``integers(2**63, size=n)`` in
    nearest_sample mode and not at all in the others. Given uint8 codes,
    both give what the sequential reference gives on ``codes / 255.0``, the
    shifted features included."""
    net = mn.MicroNet.init(config, seed=seed)
    layer = data.draw(st.sampled_from(config.hook_names), label="layer")
    rng = RNG(seed)
    size = config.image_size
    shape = (config.in_channels, size, size)
    src_doms = np.repeat(np.arange(3), 4)
    x_src = rng.uniform(size=(src_doms.size, *shape)) * (1.0 + src_doms)[:, None, None, None]
    reg = ts.build_registry(net, x_src, src_doms, layer)
    one = ts.build_registry(net, x_src, np.zeros(src_doms.size, dtype=int), layer)
    if codes:
        x = rng.integers(0, 256, size=(n, *shape), dtype=np.uint8)
        ref = x / 255.0
    else:
        x = ref = rng.uniform(size=(n, *shape)) * rng.uniform(0.1, 3.0, size=(n, 1, 1, 1))
    y = rng.integers(0, config.n_classes, n)
    d = rng.integers(0, 3, n)
    parts = [net.infer(ref[s:s + mn.INFERENCE_CHUNK], layer)
             for s in range(0, n, mn.INFERENCE_CHUNK)]
    styles = np.concatenate([batch_style_vectors(p) for p in parts])
    hooked = [p.tobytes() for p in parts]
    ratio = np.array([ts.decide(p, reg, 0.0).avg_distance for p in styles]) \
        / max(reg.spread, 1e-300)
    alphas = [0.0, float(np.median(ratio)), None]

    def held_shift(feats, *args):
        if feats.tobytes() == hooked[0]:
            time.sleep(0.01)
        return ts.shift_batch(feats, *args)

    pool = net.style_vectors_at(x_src, layer)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the workers swap often, so a lost update would show
    try:
        for k in (1, 2, 3):
            with forced_workers(k) as mp:
                mp.setattr(mn, "shift_batch", held_shift)
                assert net.style_vectors_at(x, layer).tobytes() == styles.tobytes(), k
                for mode, registry in ((ts.OFF, reg), (ts.PROPOSED, reg), (ts.SHIFT_ALL, reg),
                                       (ts.SINGLE_DOMAIN, one), (ts.nearest_sample(3), reg)):
                    got_rng, want_rng = RNG(seed + 1), RNG(seed + 1)
                    got = mn.evaluate_alphas(net, x, y, d, registry, mode, alphas, pool, got_rng)
                    want = [evaluate_at(net, ref, y, d, registry, mode, alpha, pool,
                                        RNG(seed + 1)) for alpha in alphas]
                    assert [r.domains for r in got] == [r.domains for r in want], (k, mode.kind)
                    if mode.kind == "nearest_sample":
                        want_rng.integers(2**63, size=n)
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state, \
                        (k, mode.kind)
    finally:
        sys.setswitchinterval(switch)


def training_nets():
    """Random nets, and the same nets four times as wide, with 8 to 20
    channels."""
    return net_configs().flatmap(lambda config: st.sampled_from([config, replace(
        config, blocks=tuple(replace(blk, out_channels=4 * blk.out_channels)
                             for blk in config.blocks))]))


@settings(max_examples=20, deadline=None)
@given(config=training_nets(), seed=st.integers(0, 2**16), n=st.integers(2, 30),
       style=st.sampled_from(["sb", *mn.AUG_KINDS[1:]]))
def test_training_gives_the_same_bits_on_any_number_of_workers(config, seed, n, style):
    """A runner of 1, 2 or 3 workers gives the same
    gradient bytes for one recorded step (``step_grad_digests``) and the same
    parameter bytes after a 2-epoch ``train`` with style balancing or an
    augmentation, each hook firing on every batch."""
    doc = json.loads(json.dumps(asdict(config)))
    rng = RNG(seed)
    size = config.image_size
    x = rng.integers(0, 256, size=(n, config.in_channels, size, size), dtype=np.uint8)
    y = rng.integers(0, config.n_classes, n)
    doms = np.arange(n) % 3
    cfg = mn.TrainConfig(epochs=2, batch_size=7, lr=0.01, seed=seed, sb=style == "sb",
                         sb_prob=1.0, aug="none" if style == "sb" else style, aug_prob=1.0)
    got = []
    for k in (1, 2, 3):
        with forced_workers(k):
            net = mn.MicroNet.init(config, seed=seed)
            mn.train(net, x, y, doms, cfg, n_domains=3)
            got.append((step_grad_digests(doc, seed, seed + 1),
                        {name: v.tobytes() for name, v in net.params.items()}))
    assert got[0] == got[1] == got[2]


def test_training_leaves_blas_at_its_own_count():
    """A 32 px, batch-63 training with style balancing and DSU, at a runner
    of 2 workers, never calls the runner, and reads numpy's OpenBLAS thread
    count (where it can be read) before and after as the same number."""
    get = ad.OPENBLAS_THREADS[0] if ad.OPENBLAS_THREADS else lambda: None
    rng = RNG(5)
    x = rng.integers(0, 256, size=(63, 1, 32, 32), dtype=np.uint8)
    before = get()

    def refuse(*args):
        raise AssertionError("training called the runner")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.RUNNER, "size", 2)
        mp.setattr(ad.RUNNER, "map", refuse)
        mn.train(mn.MicroNet.init(mn.NetConfig(), seed=5), x, rng.integers(0, 7, 63),
                 np.arange(63) % 3, mn.TrainConfig(epochs=2, batch_size=63, sb=True, sb_prob=1.0,
                                                   aug="dsu", aug_prob=1.0), n_domains=3)
    assert get() == before


@settings(max_examples=25, deadline=None)
@given(config=inference_nets(), seed=st.integers(0, 2**16), n=st.integers(1, 40),
       aug=st.sampled_from(mn.AUG_KINDS), sb=st.booleans())
def test_codes_give_the_bits_of_their_scaled_floats(config, seed, n, aug, sb):
    """uint8 codes give what ``codes / 255.0`` gives, byte for byte: ``infer``
    at every hook and to the logits, ``style_vectors_at`` at every hook, the
    parameters after a few ``train`` steps with balancing and augmentation
    drawn, and ``raw_pixel_styles``."""
    rng = RNG(seed)
    size = config.image_size
    codes = rng.integers(0, 256, size=(n, config.in_channels, size, size), dtype=np.uint8)
    floats = codes / 255.0
    net = mn.MicroNet.init(config, seed=seed)
    assert net.infer(codes).tobytes() == net.infer(floats).tobytes()
    for hook in config.hook_names:
        assert net.infer(codes, hook).tobytes() == net.infer(floats, hook).tobytes(), hook
        assert net.style_vectors_at(codes, hook).tobytes() == \
            net.style_vectors_at(floats, hook).tobytes(), hook
    assert dd.raw_pixel_styles(codes).tobytes() == dd.raw_pixel_styles(floats).tobytes()
    y = rng.integers(0, config.n_classes, n)
    doms = np.arange(n) % 2
    cfg = mn.TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=seed, sb=sb, aug=aug)
    params = []
    for x in (codes, floats):
        trained = mn.MicroNet.init(config, seed=seed)
        mn.train(trained, x, y, doms, cfg, n_domains=2)
        params.append({name: v.tobytes() for name, v in trained.params.items()})
    assert params[0] == params[1]


RAISING_CHUNKS = """
import json, sys, warnings
import numpy as np
from styleshift import autodiff as ad
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.tensor_core import batch_style_vectors

warnings.simplefilter("error")  # a warning that escapes a worker is raised in its place
net = mn.MicroNet.init(mn.NetConfig(image_size=8), seed=70)
net.params["head_w"][:] = 1e308
c = mn.INFERENCE_CHUNK
x = np.zeros((4 * c, 1, 8, 8))  # zero images: zero features, and the head gives its bias
x[c:3 * c] = 1.0                # chunks 1 and 2 overflow in the head
labels = np.zeros(4 * c, dtype=int)
doms = np.repeat([0, 1, 2], 4)
src = np.random.Generator(np.random.PCG64(71)).uniform(size=(12, 1, 8, 8))
src *= (1.0 + doms)[:, None, None, None]
reg = ts.registry_from_styles(batch_style_vectors(net.infer(src, "block1")), doms, "block1")
poisoned = x.copy()
poisoned[c:2 * c] = np.inf      # chunk 1's features are not finite: its shift raises
got = {}
for k in (1, 2, 3):
    ad.RUNNER.size = k
    for case, run in (("logits", lambda: mn.evaluate(net, x, labels, labels)),
                      ("shift", lambda: mn.evaluate(net, poisoned, labels, labels, reg,
                                                    ts.PROPOSED, alpha=1e6))):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                run()
            got[f"{case} {k}"] = None
        except Exception as exc:
            got[f"{case} {k}"] = [type(exc).__name__, str(exc)]
print(json.dumps(got))
"""


def test_raising_chunks_raise_the_earliest_error_and_release_the_rest():
    """With 1, 2 or 3 workers, and under the caller's ``np.errstate``:
    - chunks 1 and 2 with non-finite logits raise the DivergenceError that
      names chunk 1's start, and no overflow warning escapes a worker;
    - chunk 1 failing in its shift, and chunk 2 in its logits, raise chunk
      1's error, and the chunks behind it are cancelled or finish: the
      process ends within its timeout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", RAISING_CHUNKS], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    diverged = ["DivergenceError", "non-finite logits in the evaluation batch starting at "
                f"sample {mn.INFERENCE_CHUNK}"]
    not_finite = ["ValueError", "feature batch (B,C,H,W) contains non-finite values"]
    assert json.loads(out.stdout) == {f"{case} {k}": want for k in (1, 2, 3) for case, want
                                      in (("logits", diverged), ("shift", not_finite))}


CHUNK_SIZES = """
import json, time
import numpy as np
from styleshift import autodiff as ad
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.tensor_core import batch_style_vectors

rng = np.random.Generator(np.random.PCG64(72))
net = mn.MicroNet.init(mn.NetConfig(image_size=8), seed=72)
doms = np.repeat([0, 1, 2], 4)
src = rng.uniform(size=(12, 1, 8, 8)) * (1.0 + doms)[:, None, None, None]
pool = batch_style_vectors(net.infer(src, "block1"))
reg = ts.registry_from_styles(pool, doms, "block1")
x = rng.uniform(size=(80, 1, 8, 8)) * rng.uniform(0.1, 3.0, size=(80, 1, 1, 1))
labels = np.zeros(80, dtype=int)
shift_batch, got = mn.shift_batch, {}
for chunk in (8, 32):
    mn.INFERENCE_CHUNK = chunk
    starts = {net.infer(x[s:s + chunk], "block1").tobytes(): s for s in range(0, 80, chunk)}
    order = []

    def held_shift(feats, *args):
        order.append(starts.get(feats.tobytes(), -1))
        if order[-1] == 0:
            time.sleep(0.05)  # the later chunks shift first
        return shift_batch(feats, *args)

    mn.shift_batch = held_shift
    results = []
    for k in (1, 2):
        ad.RUNNER.size = k
        draws = np.random.Generator(np.random.PCG64(73))
        res = mn.evaluate(net, x, labels, labels, reg, ts.nearest_sample(3), 0.0, pool, draws)
        results.append([res.domains, draws.bit_generator.state["state"]["state"]])
    got[chunk] = {"starts": sorted(order), "same": results[0] == results[1]}
print(json.dumps(got))
"""


def test_inference_chunk_is_read_once_per_call():
    """With ``mn.INFERENCE_CHUNK`` set to 8 or 32 after import, nearest_sample
    evaluation on 1 and then 2 workers shifts each chunk of that size once,
    gives the same tallies and rng end state on both, even with the first
    chunk's shift held back, and finishes within the timeout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", CHUNK_SIZES], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == {
        str(chunk): {"starts": sorted(2 * list(range(0, 80, chunk))), "same": True}
        for chunk in (8, 32)}


INFERENCE_PEAK = """
import sys
import numpy as np
from helpers import peak_kib
from styleshift import autodiff as ad
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts

workers = int(sys.argv[1])
ad.RUNNER.size = workers
net = mn.MicroNet.init(mn.NetConfig(), seed=0)
rng = np.random.Generator(np.random.PCG64(0))
reg = ts.registry_from_styles(rng.uniform(0.05, 1.0, (30, 16)), np.repeat([0, 1, 2], 10), "block1")
room = np.ones(1 << 20)  # 8 MiB, freed below the images: the room a freed test split leaves
x = rng.uniform(size=(448, 1, 32, 32))
x *= rng.uniform(0.5, 3.5, (448, 1, 1, 1))
y, d = rng.integers(0, 7, 448), rng.integers(0, 3, 448)
del room
before = peak_kib()
mn.evaluate(net, x, y, d, reg, ts.PROPOSED, 1.0)
print(peak_kib() - before)
"""


def test_two_inference_workers_keep_the_peak_near_one():
    """In a fresh process that has freed 8 MiB below its 448 test images of
    32 px, an evaluation in proposed mode raises the peak RSS by under 5 MiB
    more with two workers than with one (0.5-2.8 MB more, measured): the
    two workers' chunks of 16 share the one malloc arena and mostly fit in
    the freed room, as one chunk of 32 does. With an arena per thread, or two
    workers on chunks of 32, the second worker added 7.6 MB or more."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("this C library has no mallopt")
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    tests_dir = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")])}
    one, two = (int(subprocess.run([sys.executable, "-c", INFERENCE_PEAK, str(k)], env=env,
                                   capture_output=True, text=True, check=True).stdout)
                for k in (1, 2))
    assert two - one < 5 * 1024, (one, two)


@pytest.mark.parametrize("mode", [ts.OFF, ts.PROPOSED])
def test_evaluate_creates_only_leaf_vars(monkeypatch, mode):
    """Evaluation runs the tape-free pass: it creates no Var at all, while
    ``forward`` still records its graph."""
    net, x, y, d = _trained_toy()
    reg = ts.registry_from_styles(net.style_vectors_at(x, "block1"), d, "block1")
    created = []
    init = Var.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Var, "__init__", spy)
    res = mn.evaluate(net, x, y, d, reg, mode, alpha=0.0)
    assert created == []
    assert (res.shift_rate(0) > 0) == (mode == ts.PROPOSED)  # the shifter ran
    net.forward(x)  # forward still records its graph
    assert any(v._vjp is not None for v in created)


def test_evaluate_divergence_leaves_training_unchanged():
    """An evaluate, or a multi-alpha evaluate, that raises DivergenceError
    leaves no state behind: the next training step still records its graph
    and gives a fresh process's grads."""
    net = mn.MicroNet.init(TINY, seed=70)
    net.params["conv1_b"][:] = 1e3
    net.params["head_w"][:] = 1e308
    x = RNG(71).normal(size=(6, 1, 8, 8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        mn.evaluate(net, x, np.zeros(6, dtype=int), np.zeros(6, dtype=int))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        mn.evaluate_alphas(net, x, np.zeros(6, dtype=int), np.zeros(6, dtype=int), None,
                           ts.OFF, [0.0, 1.0])
    tiny_doc = json.loads(json.dumps(asdict(TINY)))  # asdict holds tuples, JSON lists
    here = step_grad_digests(tiny_doc, net_seed=72, data_seed=73)
    tests_dir = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys; from helpers import step_grad_digests; "
            "print(json.dumps(step_grad_digests(json.loads(sys.argv[1]), 72, 73)))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(tiny_doc)],
                         env=env, capture_output=True, text=True, check=True)
    assert here == json.loads(out.stdout)
    assert all(here.values())


# -- checkpoints -------------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=net_configs(), seed=st.integers(0, 2**32 - 1), tags=checkpoint_tags())
def test_checkpoint_roundtrip_byte_identical(tmp_path, config, seed, tags):
    net = mn.MicroNet.init(config, seed=seed)
    net.tags = tags
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    net.save(p1)
    loaded = mn.MicroNet.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.tags == tags
    for k in net.params:
        np.testing.assert_array_equal(loaded.params[k], net.params[k])


def test_hook_audit_consistent_with_recorded_features():
    # recompute the plan from the stored pre-transform features: same moves
    rng = RNG(61)
    x = rng.normal(size=(9, 1, 8, 8))
    domains = np.array([0, 0, 0, 0, 0, 1, 1, 2, 2])
    classes = np.zeros(9, dtype=int)
    meta = BatchMeta(domains, classes, 3, 1)
    net = mn.MicroNet.init(TINY, seed=62)
    op = mn.SbHookOp(meta, RNG(63))
    res = net.forward(x, hook_ops=[("block1", op)])
    from styleshift.style_balance import build_balance_plan
    from styleshift.tensor_core import batch_style_vectors
    replan = build_balance_plan(batch_style_vectors(res.hook_inputs["block1"].value),
                                meta, RNG(63))
    assert [(m.sample, m.src, m.dst) for m in replan.moves] == \
           [(m.sample, m.src, m.dst) for m in op.plan.moves]


def test_hook_draw_frequencies():
    # balancing runs at one uniformly chosen hook with probability ~1/2;
    # each augmentation hook flips its own coin
    cfg = mn.TrainConfig(sb=True, aug="efdmix", sb_hooks=("block1", "block2"),
                         aug_hooks=("block1", "block2"), lambda_shape=0.1)
    net = mn.MicroNet.init(TINY, seed=0)
    meta = BatchMeta(np.zeros(4, dtype=int), np.zeros(4, dtype=int), 1, 1)
    rng = RNG(70)
    sb_hits = {"block1": 0, "block2": 0}
    aug_count = 0
    draws = 4000
    for _ in range(draws):
        ops = mn._draw_hook_ops(cfg, net, meta, 4, rng)
        sb_ops = [(h, op) for h, op in ops if isinstance(op, mn.SbHookOp)]
        assert len(sb_ops) <= 1
        for h, _ in sb_ops:
            sb_hits[h] += 1
        aug_count += sum(isinstance(op, mn.EfdmixHookOp) for _, op in ops)
    total_sb = sum(sb_hits.values())
    assert abs(total_sb / draws - 0.5) < 0.03
    assert abs(sb_hits["block1"] / total_sb - 0.5) < 0.05
    assert abs(aug_count / (2 * draws) - 0.5) < 0.03


def test_finite_difference_with_sb_and_augmentation_together():
    net = mn.MicroNet.init(TINY, seed=77)
    rng = RNG(78)
    x = rng.normal(size=(8, 1, 8, 8))
    y = np.zeros(8, dtype=int)  # one surplus class guarantees moves
    meta = BatchMeta(np.array([0, 0, 0, 0, 0, 1, 1, 2]), y, 3, 3)
    sb_op = mn.SbHookOp(meta, RNG(79))
    aug_op = mn.EfdmixHookOp.draw(8, RNG(80), 0.1)
    err = mn.finite_difference_check(
        net, x, y, hook_ops=[("block1", sb_op), ("block2", aug_op)],
        n_coords=120, seed=4)
    assert sb_op.plan.moves
    assert err < 1e-4


def test_sb_ordering_before_augmentation_at_same_hook():
    cfg = mn.TrainConfig(sb=True, aug="mixstyle", sb_hooks=("block1",),
                         aug_hooks=("block1",), sb_prob=1.0, aug_prob=1.0)
    net = mn.MicroNet.init(TINY, seed=81)
    meta = BatchMeta(np.zeros(4, dtype=int), np.zeros(4, dtype=int), 1, 1)
    ops = mn._draw_hook_ops(cfg, net, meta, 4, RNG(82))
    kinds = [op.kind for _, op in ops]
    assert kinds == ["sb", "mixstyle"]


def test_default_style_hooks_exclude_final_block():
    cfg = mn.TrainConfig(sb=True, aug="dsu", sb_prob=1.0, aug_prob=1.0)
    net = mn.MicroNet.init(TINY, seed=90)
    meta = BatchMeta(np.zeros(4, dtype=int), np.zeros(4, dtype=int), 1, 1)
    rng = RNG(91)
    for _ in range(50):
        for hook, _op in mn._draw_hook_ops(cfg, net, meta, 4, rng):
            assert hook != net.hook_names[-1]


@pytest.mark.parametrize("field", ["sb_hooks", "aug_hooks"])
def test_an_empty_hook_list_is_a_config_error(field):
    """An explicit empty ``sb_hooks`` or ``aug_hooks`` names no hook; it is
    refused rather than read as the default, which an omitted field keeps."""
    doc = {"sb": True, "aug": "dsu"}
    with pytest.raises(ConfigError, match=field):
        from_json(mn.TrainConfig, {**doc, field: []})
    assert from_json(mn.TrainConfig, doc) == mn.TrainConfig(sb=True, aug="dsu")
