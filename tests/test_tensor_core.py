import ast
import json
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


@settings(max_examples=300, deadline=None)
@given(JSON_SCALARS)
@example(int(sys.float_info.max) + 1)  # float() rounds it down to the largest float64
@example(-int(sys.float_info.max))
@example(float("nan"))
def test_json_floats_and_from_json_share_one_number_rule(value):
    """``json_floats`` accepts exactly the JSON scalars a ``from_json`` float
    field accepts, and reads them to the same float64."""
    listed = _outcome(lambda: tc.json_floats([value], "v"))
    field = _outcome(lambda: tc.from_json(_Number, {"x": value}))
    assert (listed == "rejected") == (field == "rejected")
    if field != "rejected":
        assert listed.dtype == np.float64 and listed[0] == float(field.x)


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


def test_json_loads_is_called_only_by_read_json():
    """Every JSON document enters the package through ``tensor_core.read_json``."""
    calls = []
    for path in sorted(Path(tc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "attr", getattr(func, "id", None)) \
                    == "loads":
                calls.append((path.name, owner.get(id(node))))
    assert calls == [("tensor_core.py", "read_json")]
