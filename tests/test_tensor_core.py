import ast
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from styleshift import domain_data as dd
from styleshift import micro_net as mn
from styleshift import tensor_core as tc
from styleshift import test_time_shift as tts
from styleshift.errors import ConfigError, DimensionError
from styleshift.experiment import DataConfig, EvalConfig, ExperimentConfig

from helpers import checkpoint_tags, net_configs

SQRT_1_25 = np.sqrt(1.25)  # population std of [1,2,3,4]


def test_channel_mean_hand_case():
    f = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    assert tc.channel_mean(f) == pytest.approx([2.5])


def test_channel_mean_constant_map():
    f = np.full((3, 4, 5), 7.25)
    np.testing.assert_allclose(tc.channel_mean(f), [7.25] * 3)


def test_channel_mean_symmetric_values():
    f = np.array([[[-3.0, -1.0], [1.0, 3.0]]])
    assert tc.channel_mean(f) == pytest.approx([0.0])


def test_channel_std_hand_case():
    f = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    assert tc.channel_std(f, eps_std=1e-12) == pytest.approx([SQRT_1_25], abs=1e-9)


def test_channel_std_constant_map_equals_eps():
    f = np.full((2, 3, 3), 4.0)
    np.testing.assert_allclose(tc.channel_std(f, eps_std=1e-6), [1e-6, 1e-6])


def test_channel_std_scaling_homogeneity():
    rng = np.random.Generator(np.random.PCG64(0))
    f = rng.normal(size=(2, 4, 4))
    a = 3.7
    np.testing.assert_allclose(tc.channel_std(a * f, 1e-12),
                               a * tc.channel_std(f, 1e-12), rtol=1e-9)


def test_channel_std_requires_positive_eps():
    with pytest.raises(ValueError):
        tc.channel_std(np.ones((1, 2, 2)), eps_std=0.0)


def test_style_vector_hand_case():
    f = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    phi = tc.style_vector(f)
    assert phi == pytest.approx([2.5, SQRT_1_25], abs=1e-6)


def test_style_vector_constant_two_channels():
    f = np.full((2, 2, 2), 3.0)
    np.testing.assert_allclose(tc.style_vector(f, eps_std=1e-6),
                               [3.0, 3.0, 1e-6, 1e-6])


def test_style_vector_length_is_2c():
    rng = np.random.Generator(np.random.PCG64(1))
    for c in (1, 3, 8):
        assert tc.style_vector(rng.normal(size=(c, 4, 4))).shape == (2 * c,)


def test_channel_mean_affine_equivariance():
    rng = np.random.Generator(np.random.PCG64(6))
    f = rng.normal(size=(3, 5, 5))
    a, b = 2.5, -1.25
    np.testing.assert_allclose(tc.channel_mean(a * f + b),
                               a * tc.channel_mean(f) + b, atol=1e-12)


def test_channel_std_affine_absolute_scale():
    rng = np.random.Generator(np.random.PCG64(7))
    f = rng.normal(size=(3, 5, 5))
    a, b = -2.0, 0.7
    np.testing.assert_allclose(tc.channel_std(a * f + b, 1e-12),
                               abs(a) * tc.channel_std(f, 1e-12), rtol=1e-9)


def test_feature_validation_rejects_nan_and_bad_rank():
    with pytest.raises(ValueError):
        tc.channel_mean(np.array([[[np.nan, 1.0], [1.0, 1.0]]]))
    with pytest.raises(DimensionError):
        tc.channel_mean(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        tc.as_feature_batch(np.ones((2, 2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 5)] * 4).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))))
def test_batch_helpers_match_per_sample_ops(x):
    phis = tc.batch_style_vectors(x)
    # the single-pass moments equal numpy's mean and var bit for bit
    np.testing.assert_array_equal(phis, np.concatenate(
        [x.mean(axis=(2, 3)), np.sqrt(x.var(axis=(2, 3)) + tc.EPS_STD ** 2)], axis=1))
    for b in range(x.shape[0]):
        np.testing.assert_array_equal(phis[b], tc.style_vector(x[b]))


# -- from_json ------------------------------------------------------------------

@dataclass(frozen=True)
class _Inner:
    name: str
    flag: bool = False


@dataclass(frozen=True)
class _Outer:
    count: int = 1
    rate: float = 0.5
    hooks: tuple[str, ...] | None = None
    inner: _Inner = _Inner("a")
    nested: tuple[tuple[int, ...], ...] = ()


def test_from_json_builds_nested_values_and_keeps_ints_in_float_fields():
    got = tc.from_json(_Outer, {"count": 3, "rate": 1, "hooks": ["b1", "b2"],
                                "inner": {"name": "z", "flag": True},
                                "nested": [[0, 1], [2]]})
    assert got == _Outer(3, 1, ("b1", "b2"), _Inner("z", True), ((0, 1), (2,)))
    assert type(got.rate) is int  # a JSON integer is written back as one
    assert tc.from_json(_Outer, {"hooks": None}) == _Outer()


@pytest.mark.parametrize("doc", [
    {"count": True}, {"count": 1.0}, {"count": "1"}, {"count": None},
    {"rate": "0.5"}, {"rate": False}, {"rate": float("nan")}, {"rate": float("inf")},
    {"rate": 10 ** 400}, {"hooks": "b1"}, {"hooks": [1]}, {"inner": {"name": 1}},
    {"inner": {"name": "z", "flag": 1}}, {"inner": {}}, {"inner": ["z"]},
    {"nested": [[0.0]]}, {"extra": 1}, [], None,
], ids=repr)
def test_from_json_rejects_wrong_types_and_keys(doc):
    with pytest.raises(ConfigError):
        tc.from_json(_Outer, doc)


def _checkpoint_doc(change):
    """A default-net checkpoint document of zeros, with ``change`` applied to its params."""
    cfg = mn.NetConfig()
    params = {name: mn.ParamDoc(shape, (0.0,) * math.prod(shape))
              for name, shape in cfg.param_shapes.items()}
    doc = tc.to_json(mn.CheckpointDoc(cfg, tuple(params), params))
    change(doc["params"])
    return doc


ERROR_MESSAGES = {
    "scalar": (_Outer, {"rate": "0.5"}, "_Outer.rate must be a JSON finite number, got '0.5'"),
    "list_item": (_Outer, {"hooks": ["b1", 1]}, "_Outer.hooks[1] must be a JSON str, got 1"),
    "nested_list_item": (_Outer, {"nested": [[0], [1, 2.0]]},
                         "_Outer.nested[1][1] must be a JSON int, got 2.0"),
    "nested_dataclass": (_Outer, {"inner": {"name": 1}}, "_Inner.name must be a JSON str, got 1"),
    "keys": (_Outer, {"extra": 1}, "_Outer has unknown keys ['extra'] or lacks keys []"),
    "dict_value": (mn.CheckpointDoc, _checkpoint_doc(lambda p: p.update(conv2_w=[])),
                   "CheckpointDoc.params.conv2_w must be a JSON object, got []"),
    "float_list_item": (mn.CheckpointDoc,
                        _checkpoint_doc(lambda p: p["conv2_w"]["data"].__setitem__(4607, "x")),
                        "ParamDoc.data[4607] must be a JSON finite number, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(ERROR_MESSAGES))
def test_from_json_error_messages_name_the_field(case):
    """The read that builds no names on success names the failing field, list
    index and dict key included, word for word."""
    cls, doc, message = ERROR_MESSAGES[case]
    with pytest.raises(ConfigError) as exc:
        tc.from_json(cls, doc)
    assert str(exc.value) == message


@dataclass(frozen=True)
class _Number:
    x: float


def _outcome(read):
    try:
        return read()
    except ConfigError:
        return "rejected"


JSON_SCALARS = st.one_of(
    st.integers(-2 ** 1100, 2 ** 1100), st.floats(),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]).map(json.loads),
    st.booleans(), st.text(max_size=4), st.none())


@dataclass(frozen=True)
class _Numbers:
    xs: tuple[float, ...]


@settings(max_examples=300, deadline=None)
@given(JSON_SCALARS)
@example(int(sys.float_info.max) + 1)  # float() rounds it down to the largest float64
@example(-int(sys.float_info.max))
@example(float("nan"))
def test_tuple_and_scalar_float_fields_share_one_number_rule(value):
    """A ``tuple[float, ...]`` field (checkpoint data, registry styles)
    accepts exactly the JSON scalars a ``float`` field accepts, and reads
    them to the same float64."""
    listed = _outcome(lambda: tc.from_json(_Numbers, {"xs": [value]}))
    field = _outcome(lambda: tc.from_json(_Number, {"x": value}))
    assert (listed == "rejected") == (field == "rejected")
    if field != "rejected":
        array = np.array(listed.xs, dtype=np.float64)
        assert array.shape == (1,) and array[0] == float(field.x)


LOADERS = {"manifest": dd.load_manifest, "registry": tts.load_registry,
           "checkpoint": mn.MicroNet.load}


@pytest.mark.parametrize("content", [None, b"{not json", b"null", b"[" * 100_000, b"\xff{}"],
                         ids=["missing", "not_json", "null", "nested_too_deep", "not_utf8"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_raise_config_error_at_the_file_boundary(tmp_path, kind, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError):
        LOADERS[kind](path)


def _callers(name: str) -> list[tuple[str, str | None]]:
    """(module file, enclosing function) of every call of ``name`` in the package."""
    calls = []
    for path in sorted(Path(tc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) \
                    == name:
                calls.append((path.name, owner.get(id(node))))
    return calls


def test_json_loads_is_called_only_by_read_json():
    """Every JSON document enters the package through ``tensor_core.read_json``."""
    assert _callers("loads") == [("tensor_core.py", "read_json")]


def test_json_dumps_is_called_only_by_write_json_and_the_audit_log():
    """Every JSON artifact leaves the package through ``tensor_core.write_json``,
    except the audit log, which ``train`` writes one JSON line per record."""
    assert sorted(_callers("dumps")) == [("cli.py", "cmd_train"),
                                         ("tensor_core.py", "write_json")]


# -- to_json ---------------------------------------------------------------------

NUMBERS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.floats(allow_nan=False, allow_infinity=False))
UNIT = st.one_of(st.integers(0, 1), st.floats(0, 1))
NAMES = st.text(max_size=4)


@st.composite
def experiment_configs(draw):
    n_sources, n_classes = draw(st.integers(1, 4)), draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["balanced", "data", "class", "long_tailed"]))
    subsets = None
    if kind == "class":  # the first subset holds every class, so together they cover them
        subsets = (tuple(range(n_classes)), *draw(st.lists(
            st.lists(st.integers(0, n_classes - 1)).map(tuple),
            min_size=n_sources - 1, max_size=n_sources - 1)))
    imbalance = dd.ImbalanceSpec(kind, draw(st.floats(0, 1, exclude_min=True)), subsets,
                                 draw(st.one_of(st.integers(1, 9), st.floats(1, 100))))
    data = DataConfig(n_classes, n_sources, draw(st.integers(1, 50)), draw(st.integers(1, 50)),
                      draw(st.integers(1, 64)), draw(NAMES), imbalance)
    net = draw(st.none() | net_configs())
    hook = st.sampled_from((net or mn.NetConfig()).hook_names)
    hooks = st.none() | st.lists(hook, min_size=1, max_size=3).map(tuple)
    train = mn.TrainConfig(draw(st.integers(1, 99)), draw(st.integers(1, 99)),
                           draw(st.floats(0, 1)), draw(UNIT), draw(st.integers(0, 2 ** 32)),
                           draw(st.booleans()), draw(UNIT), draw(hooks),
                           draw(st.sampled_from(mn.AUG_KINDS)), draw(UNIT), draw(hooks),
                           draw(st.floats(0.01, 10)))
    evaluation = EvalConfig(draw(st.sampled_from(tts.MODE_NAMES)),
                            draw(st.none() | st.floats(0, 10)), draw(hook),
                            draw(st.integers(1, 500)))
    return ExperimentConfig(data, net, train, evaluation,
                            draw(st.sampled_from(["leave_one_out", "single_domain"])),
                            tuple(draw(st.lists(st.integers(0, 99), min_size=1, max_size=5))),
                            draw(st.none() | st.integers(1, 9)))


@st.composite
def manifests(draw):
    styles = draw(st.lists(st.builds(dd.DomainStyle, NAMES, NUMBERS, NUMBERS, NUMBERS,
                                     st.booleans(), NUMBERS, NUMBERS), min_size=1, max_size=4))
    n_classes = draw(st.integers(1, 7))
    samples = st.builds(dd.SampleRecord, st.integers(0, 10 ** 6),
                        st.integers(0, len(styles) - 1), st.integers(0, n_classes - 1),
                        st.sampled_from(["train", "test"]))
    imbalance = draw(st.sampled_from([{"kind": "balanced"}, {"kind": "data", "keep_fraction": 1},
                                      {"kind": "class", "class_subsets": [[0], [1, 2]]}]))
    return dd.DatasetManifest(draw(st.integers(0, 2 ** 32)), draw(st.integers(1, 64)), n_classes,
                              styles, draw(st.integers(0, len(styles) - 1)), imbalance,
                              draw(st.lists(samples, max_size=6, unique_by=lambda s: s.id)))


@st.composite
def registry_docs(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    mu = draw(arrays(np.float64, (n, c), elements=st.floats(-1e3, 1e3)))
    sigma = draw(arrays(np.float64, (n, c), elements=st.floats(1e-3, 1e3)))
    reg = tts.DomainRegistry(draw(NAMES), tuple(draw(st.lists(NAMES, min_size=n, max_size=n))),
                             np.concatenate([mu, sigma], axis=1), draw(st.floats(0, 10)))
    return tts.RegistryDoc.of(reg)


@st.composite
def checkpoint_docs(draw):
    config = draw(net_configs())
    params = {name: mn.ParamDoc(shape, tuple(draw(arrays(
        np.float64, shape, elements=st.floats(-10, 10))).ravel().tolist()))
        for name, shape in config.param_shapes.items()}
    return mn.CheckpointDoc(config, tuple(params), params, draw(checkpoint_tags()))


DOCUMENTS = {"config": (ExperimentConfig, experiment_configs()),
             "manifest": (dd.DatasetManifest, manifests()),
             "registry": (tts.RegistryDoc, registry_docs()),
             "checkpoint": (mn.CheckpointDoc, checkpoint_docs())}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_json_inverts_to_json(kind, data):
    """Every document class reads back, through JSON text, what ``to_json`` wrote."""
    cls, documents = DOCUMENTS[kind]
    doc = data.draw(documents)
    assert tc.from_json(cls, json.loads(json.dumps(tc.to_json(doc)))) == doc
