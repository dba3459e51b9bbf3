"""The benchmark tracer wraps package functions by attribute name, so every
name it wraps has to exist, has to still be called where the tracer expects,
and has to be put back afterwards."""

from pathlib import Path

import numpy as np
import pytest

from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.micro_net import NetConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_tracer_installs_and_restores_every_wrapped_name(tracer_module):
    tracer = tracer_module.Tracer(NetConfig())
    try:
        tracer.install()
    finally:
        lost = tracer.restore()
    assert lost == []


def test_traced_sb_training_and_shifted_eval_reach_the_wrapped_names(tracer_module):
    cfg = NetConfig(in_channels=1, image_size=8, n_classes=2,
                    blocks=(mn.BlockSpec(2), mn.BlockSpec(3), mn.BlockSpec(4)))
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.normal(size=(12, 1, 8, 8))
    y = np.tile([0, 1], 6)
    d = np.repeat([0, 0, 0, 1, 1, 2], 2)
    tracer = tracer_module.Tracer(cfg)
    try:
        tracer.install()
        net = mn.MicroNet.init(cfg, seed=0)
        mn.train(net, x, y, d, mn.TrainConfig(epochs=1, batch_size=6, lr=0.01, sb=True,
                                              sb_prob=1.0))
        reg = ts.build_registry(net, x, d, "block1")
        mn.evaluate(net, x, y, d, reg, ts.PROPOSED, alpha=0.0)
    finally:
        lost = tracer.restore()
    assert lost == []
    m = tracer_module.layer_metrics(tracer)
    for key in ("tensor_core.style_vector.calls", "test_time_shift.ts_apply.calls",
                "style_ops.adain_s", "tensor_core.batch_style_vectors_s",
                "autodiff.conv2d.block1.bwd_s"):
        assert m[key] > 0, key


def _tiny_net_and_images():
    cfg = NetConfig(in_channels=1, image_size=8, n_classes=2,
                    blocks=(mn.BlockSpec(2), mn.BlockSpec(3), mn.BlockSpec(4)))
    x = np.random.Generator(np.random.PCG64(1)).normal(size=(6, 1, 8, 8))
    return cfg, mn.MicroNet.init(cfg, seed=0), x


def test_traced_style_vectors_at_stops_at_its_hook(tracer_module):
    """The tape-free path still calls the wrapped conv, relu and pool, and
    runs no block past the requested hook."""
    cfg, net, x = _tiny_net_and_images()
    tracer = tracer_module.Tracer(cfg)
    try:
        tracer.install()
        net.style_vectors_at(x, "block1")
    finally:
        lost = tracer.restore()
    assert lost == []
    m = tracer_module.layer_metrics(tracer)
    for key in ("autodiff.conv2d.block1.fwd_s", "autodiff.relu.fwd_s",
                "autodiff.avg_pool2.fwd_s"):
        assert m[key] > 0, key
    assert m["autodiff.conv2d.block2.fwd_s"] == 0


def test_traced_evaluate_records_no_backward_nodes(tracer_module):
    cfg, net, x = _tiny_net_and_images()
    d = np.repeat([0, 1], 3)
    tracer = tracer_module.Tracer(cfg)
    try:
        tracer.install()
        reg = ts.build_registry(net, x, d, "block2")
        mn.evaluate(net, x, d, d, reg, ts.PROPOSED, alpha=0.0)
    finally:
        lost = tracer.restore()
    assert lost == []
    m = tracer_module.layer_metrics(tracer)
    assert m["autodiff.conv2d.block3.fwd_s"] > 0 and m["test_time_shift.ts_apply.calls"] == 6
    assert m["autodiff.backward.nodes"] == 0
