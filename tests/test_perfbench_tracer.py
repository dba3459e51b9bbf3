"""The benchmark tracer wraps package functions by attribute name, so every
name it wraps has to exist, has to still be called where the tracer expects,
and has to be put back afterwards."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from styleshift import domain_data as dd
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts
from styleshift.micro_net import NetConfig
from styleshift.tensor_core import batch_style_vectors

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
    # the vjps a block's fold node runs, the SB hook's among them, are timed under their names
    for key in ("tensor_core.batch_style_vectors_s", "autodiff.conv2d.block1.bwd_s",
                "autodiff.relu.bwd_s", "autodiff.avg_pool2.bwd_s", "style_balance.apply.bwd_s",
                "micro_net.evaluate.self_s"):
        assert m[key] > 0, key
    _assert_evaluate_reaches_no_per_sample_probe(m)


def test_a_traced_dsu_step_times_every_vjp_its_fold_nodes_run(tracer_module):
    """A one-step DSU training at block1 and block2: each timed op's vjp runs
    once, inside the fold nodes, and the twins of ``x - mu`` run theirs too,
    two per firing, so the backward counts one node per elementwise call and
    per twin, and one per conv, ReLU, pool, head op and loss."""
    cfg = NetConfig(in_channels=1, image_size=8, n_classes=2,
                    blocks=(mn.BlockSpec(2), mn.BlockSpec(3), mn.BlockSpec(4)))
    rng = np.random.Generator(np.random.PCG64(0))
    x, y = rng.normal(size=(6, 1, 8, 8)), np.tile([0, 1], 3)
    tracer = tracer_module.Tracer(cfg)
    try:
        tracer.install()
        mn.train(mn.MicroNet.init(cfg, seed=0), x, y, np.zeros(6, dtype=int),
                 mn.TrainConfig(epochs=1, batch_size=6, aug="dsu", aug_prob=1.0,
                                aug_hooks=("block1", "block2")))
    finally:
        lost = tracer.restore()
    assert lost == []
    m = tracer_module.layer_metrics(tracer)
    assert m["style_ops.dsu.fired"] == 2 and m["autodiff.elementwise.bwd_s"] > 0
    assert m["autodiff.backward.nodes"] == m["autodiff.elementwise.calls"] + 2 * 2 + 3 * 3 + 3


def _assert_evaluate_reaches_no_per_sample_probe(m):
    # evaluate runs MicroNet.infer and the batched test_time_shift.shift_batch,
    # which call none of the per-sample names the tracer wraps; the benchmark
    # revision (ROADMAP item 1) moves these probes to the batched names
    for key in ("test_time_shift.ts_apply.calls", "tensor_core.style_vector.calls",
                "style_ops.adain_s"):
        assert m[key] == 0, key


def test_traced_ts_apply_feeds_the_shift_probe(tracer_module):
    """``micro_net.ts_apply``, the binding kept for the tracer, still reports
    each call and each shifted sample: a far sample shifts, a kept one not."""
    rng = np.random.Generator(np.random.PCG64(2))
    feats = rng.normal(size=(6, 2, 4, 4)) + rng.normal(size=(6, 1, 1, 1))
    reg = ts.registry_from_styles(batch_style_vectors(feats), np.repeat([0, 1], 3),
                                  "block1")
    tracer = tracer_module.Tracer(NetConfig())
    try:
        tracer.install()
        far = mn.ts_apply(feats[0] * 5.0 + 40.0, reg, alpha=1.0)
        kept = mn.ts_apply(feats[0], reg, alpha=1e9)
    finally:
        lost = tracer.restore()
    assert lost == []
    assert (far[1].shifted, kept[1].shifted) == (True, False)
    m = tracer_module.layer_metrics(tracer)
    assert m["test_time_shift.ts_apply.calls"] == 2
    assert m["test_time_shift.shifted"] == 1


def _tiny_net_and_images():
    cfg = NetConfig(in_channels=1, image_size=8, n_classes=2,
                    blocks=(mn.BlockSpec(2), mn.BlockSpec(3), mn.BlockSpec(4)))
    x = np.random.Generator(np.random.PCG64(1)).normal(size=(6, 1, 8, 8))
    return cfg, mn.MicroNet.init(cfg, seed=0), x


def test_traced_style_vectors_at_stops_at_its_hook(tracer_module):
    """Under the tracer the tape-free pass reaches the wrapped
    ``style_vectors_at`` and ``batch_style_vectors``, gives the untraced
    style vectors, and runs no block past the requested hook: with the
    parameters of block2, block3 and the head removed, a pass that went on
    would raise KeyError."""
    cfg, net, x = _tiny_net_and_images()
    want = net.style_vectors_at(x, "block1")
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "head_w", "head_b"):
        del net.params[name]
    tracer = tracer_module.Tracer(cfg)
    try:
        tracer.install()
        got = net.style_vectors_at(x, "block1")
    finally:
        lost = tracer.restore()
    assert lost == []
    assert got.tobytes() == want.tobytes()
    m = tracer_module.layer_metrics(tracer)
    for key in ("micro_net.style_vectors_at_s", "tensor_core.batch_style_vectors_s"):
        assert m[key] > 0, key


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
    assert m["micro_net.evaluate.self_s"] > 0
    _assert_evaluate_reaches_no_per_sample_probe(m)
    assert m["autodiff.backward.nodes"] == 0


def test_traced_dataset_writes_one_strip_and_reads_it_once_per_load(tracer_module, tmp_path):
    """``domain_data.images`` counts one render per kept sample; the strip is
    one ``write_pnm`` call, and each ``load_images`` one ``read_pnm`` call."""
    spec = dd.ImbalanceSpec(kind="data", keep_fraction=0.5)
    tracer = tracer_module.Tracer(NetConfig())
    try:
        tracer.install()
        m = dd.gen_dataset(tmp_path, n_classes=3, per_cell_train=4, per_cell_test=2,
                           image_size=8, seed=1, imbalance=spec)
        dd.load_images(m, tmp_path)
        dd.load_images(m, tmp_path, m.records("test"))
    finally:
        lost = tracer.restore()
    assert lost == []
    calls = Counter(span[0] for span in tracer.spans)
    assert len(m.samples) < 4 * 3 * 6  # the imbalance dropped samples, which are not rendered
    assert tracer_module.layer_metrics(tracer)["domain_data.images"] == len(m.samples)
    assert calls["domain_data.write_pnm"] == 1 and calls["domain_data.read_pnm"] == 2
