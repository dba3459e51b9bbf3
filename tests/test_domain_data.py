import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from styleshift import domain_data as dd
from styleshift import tensor_core as tc
from styleshift import test_time_shift as ts
from styleshift.errors import ConfigError, DimensionError, PnmParseError
from styleshift.experiment import DataConfig, generate_data

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))


def small_dataset(tmp_path, name="d0", **kw):
    args = dict(n_classes=4, per_cell_train=5, per_cell_test=3, image_size=16, seed=11)
    args.update(kw)
    return dd.gen_dataset(tmp_path / name, **args), tmp_path / name


# -- generation -------------------------------------------------------------------

def test_same_seed_byte_identical(tmp_path):
    m1, d1 = small_dataset(tmp_path, "a")
    m2, d2 = small_dataset(tmp_path, "b")
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
    assert (d1 / dd.IMAGES_FILE).read_bytes() == (d2 / dd.IMAGES_FILE).read_bytes()


def test_balanced_cell_counts(tmp_path):
    m, _ = small_dataset(tmp_path)
    np.testing.assert_array_equal(m.cell_counts("train"), np.full((4, 4), 5))
    np.testing.assert_array_equal(m.cell_counts("test"), np.full((4, 4), 3))


def test_too_many_classes_rejected(tmp_path):
    with pytest.raises(ConfigError):
        dd.gen_dataset(tmp_path / "x", n_classes=12)


def test_render_sample_order_independent():
    a = dd.render_sample(5, 42, 2, dd.source_styles(1)[0], 16)
    b = dd.render_sample(5, 42, 2, dd.source_styles(1)[0], 16)
    np.testing.assert_array_equal(a, b)


def test_domain_styles_separable_by_raw_pixel_kmeans(tmp_path):
    m, root = small_dataset(tmp_path, "sep", n_classes=7, per_cell_train=8, seed=3)
    train = m.records("train", m.source_domains)
    images = dd.load_images(m, root, train)
    styles = dd.raw_pixel_styles(images)
    labels = ts.pseudo_domains(styles, 3, RNG(0))
    truth = np.array([r.domain for r in train])
    purity = 0
    for j in range(3):
        members = truth[labels == j]
        if members.size:
            purity += np.bincount(members, minlength=3).max()
    assert purity / len(truth) > 0.9


# -- imbalance -------------------------------------------------------------------

def test_keep_fraction_one_is_unchanged(tmp_path):
    m, _ = small_dataset(tmp_path)
    out = dd.apply_imbalance(m, dd.ImbalanceSpec(kind="data", keep_fraction=1.0), RNG(1))
    assert [s.id for s in out.samples] == [s.id for s in m.samples]


def test_data_imbalance_counts(tmp_path):
    m, _ = small_dataset(tmp_path, per_cell_train=10)
    out = dd.apply_imbalance(m, dd.ImbalanceSpec(kind="data", keep_fraction=0.2), RNG(2))
    counts = out.cell_counts("train")
    np.testing.assert_array_equal(counts[0], [10, 10, 10, 10])  # largest kept
    np.testing.assert_array_equal(counts[1], [2, 2, 2, 2])
    np.testing.assert_array_equal(counts[2], [2, 2, 2, 2])
    # test split untouched
    np.testing.assert_array_equal(out.cell_counts("test"), m.cell_counts("test"))


def test_class_imbalance_disjoint_subsets(tmp_path):
    m, _ = small_dataset(tmp_path, n_classes=7)
    spec = dd.ImbalanceSpec(kind="class", class_subsets=((0, 1, 2), (3, 4), (5, 6)))
    out = dd.apply_imbalance(m, spec, RNG(3))
    counts = out.cell_counts("train")[m.source_domains]
    for k in range(7):
        assert (counts[:, k] > 0).sum() == 1  # each class in exactly one source


def test_class_imbalance_must_cover_classes(tmp_path):
    m, _ = small_dataset(tmp_path, n_classes=7)
    with pytest.raises(ConfigError):
        dd.apply_imbalance(m, dd.ImbalanceSpec(kind="class",
                                               class_subsets=((0, 1), (2, 3), (4, 5))),
                           RNG(4))


def test_long_tailed_ratio(tmp_path):
    m, _ = small_dataset(tmp_path, n_classes=7, per_cell_train=64)
    out = dd.apply_imbalance(m, dd.ImbalanceSpec(kind="long_tailed", ratio=64.0), RNG(5))
    counts = out.cell_counts("train")
    for d in m.source_domains:
        assert counts[d, 0] / counts[d, 6] == pytest.approx(64.0, rel=0.05)


def test_imbalance_deterministic_given_seed(tmp_path):
    m, _ = small_dataset(tmp_path, per_cell_train=10)
    spec = dd.ImbalanceSpec(kind="data", keep_fraction=0.4)
    a = dd.apply_imbalance(m, spec, RNG(6))
    b = dd.apply_imbalance(m, spec, RNG(6))
    assert [s.id for s in a.samples] == [s.id for s in b.samples]


SPECS = {"balanced": dd.ImbalanceSpec(),
         "data": dd.ImbalanceSpec(kind="data", keep_fraction=0.3),
         "class": dd.ImbalanceSpec(kind="class", class_subsets=((0, 1), (2,), (3,))),
         "long_tailed": dd.ImbalanceSpec(kind="long_tailed", ratio=20.0)}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_gen_dataset_imbalance_equals_filtering_a_balanced_dataset(tmp_path, kind):
    """Filtering before rendering lists and renders exactly what filtering a
    rendered balanced dataset with the (seed, 0xBA1A) rng keeps."""
    m, root = small_dataset(tmp_path, "direct", imbalance=SPECS[kind])
    balanced, balanced_root = small_dataset(tmp_path, "balanced")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11, 0xBA1A])))
    expected = dd.apply_imbalance(balanced, SPECS[kind], rng)
    dd.save_manifest(expected, tmp_path / "expected.json")
    assert (root / "manifest.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    assert tc.to_json(m) == tc.to_json(expected)
    np.testing.assert_array_equal(dd.load_images(m, root),
                                  dd.load_images(balanced, balanced_root, expected.samples))


def test_imbalanced_manifest_is_written_once(tmp_path, monkeypatch):
    saved = []
    monkeypatch.setattr(dd, "save_manifest", lambda m, path: saved.append(path))
    cfg = DataConfig(n_classes=4, per_cell_train=5, per_cell_test=3, image_size=16,
                     imbalance=SPECS["data"])
    generate_data(cfg, tmp_path / "d", seed=11)
    assert saved == [tmp_path / "d" / "manifest.json"]


def test_imbalance_spec_validation():
    with pytest.raises(ConfigError):
        dd.ImbalanceSpec(kind="data", keep_fraction=0.0)
    with pytest.raises(ConfigError):
        dd.ImbalanceSpec(kind="long_tailed", ratio=0.5)
    with pytest.raises(ConfigError):
        dd.ImbalanceSpec(kind="bogus")


# -- the image strip --------------------------------------------------------------

def test_strip_rows_are_the_records_renders_in_manifest_order(tmp_path):
    m, root = small_dataset(tmp_path, imbalance=SPECS["data"])
    strip = dd.read_pnm(root / dd.IMAGES_FILE)
    assert strip.shape == (len(m.samples) * 16, 16)
    for i, rec in enumerate(m.samples):
        np.testing.assert_array_equal(strip[i * 16:(i + 1) * 16],
                                      dd.render_sample(11, rec.id, rec.cls, m.styles[rec.domain], 16))
    assert sorted(p.name for p in root.iterdir()) == [dd.IMAGES_FILE, "manifest.json"]


@pytest.fixture(scope="module")
def strip_dataset(tmp_path_factory):
    m, root = small_dataset(tmp_path_factory.mktemp("strip"), imbalance=SPECS["long_tailed"])
    return m, root, dd.load_images(m, root)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_load_images_of_any_records_equals_their_rows_of_the_full_load(strip_dataset, data):
    m, root, full = strip_dataset
    picks = data.draw(st.lists(st.sampled_from(range(len(m.samples))), unique=True))
    got = dd.load_images(m, root, [m.samples[i] for i in picks])
    assert got.shape == (len(picks), 1, 16, 16)
    np.testing.assert_array_equal(got, full[picks])


@pytest.mark.parametrize("rows", [-16, -1, 1, 16])
def test_strip_of_another_height_is_a_pnm_parse_error(tmp_path, rows):
    m, root = small_dataset(tmp_path)
    strip = dd.read_pnm(root / dd.IMAGES_FILE)
    dd.write_pnm(root / dd.IMAGES_FILE, np.resize(strip, (strip.shape[0] + rows, 16)))
    with pytest.raises(PnmParseError, match="records of 16x16 need"):
        dd.load_images(m, root, m.samples[:1])


def test_duplicate_sample_ids_are_rejected(tmp_path):
    m, _ = small_dataset(tmp_path)
    doc = tc.to_json(m)
    doc["samples"][1]["id"] = doc["samples"][0]["id"]
    with pytest.raises(ConfigError, match="unique"):
        tc.from_json(dd.DatasetManifest, doc)


def test_cached_coordinate_grids_are_read_only():
    yy, xx = dd._grid(4, 4)
    grating = dd._grating(5.0, 4, 4)
    for arr in (yy, xx, grating):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# -- pnm io -----------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    rng = RNG(7)
    img = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
    p = tmp_path / "x.pgm"
    dd.write_pnm(p, img)
    np.testing.assert_array_equal(dd.read_pnm(p), img)


def test_truncated_pnm_reports_offset(tmp_path):
    img = np.zeros((4, 4), dtype=np.uint8)
    p = tmp_path / "t.pgm"
    dd.write_pnm(p, img)
    data = p.read_bytes()
    p.write_bytes(data[:-3])
    with pytest.raises(PnmParseError) as exc:
        dd.read_pnm(p)
    assert exc.value.offset == len(data) - 3


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P3\n2 2\n255\n....")
    with pytest.raises(PnmParseError):
        dd.read_pnm(p)
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))  # a well-formed RGB PPM: not a PGM
    with pytest.raises(PnmParseError, match="unsupported magic") as exc:
        dd.read_pnm(p)
    assert exc.value.offset == 0


PNM_HEADERS = st.sampled_from([b"", b"P5", b"P6", b"P5\n", b"P6 #c\n", b"P5\n2 2\n255\n"])


@settings(max_examples=300, deadline=None)
@given(st.tuples(PNM_HEADERS, st.binary(max_size=40)).map(b"".join))
@example(b"P5\n2 -2\n255\n")
@example(b"P5\n0 4\n255\n")
@example(b"P5\n-1 -1\n255\nx")
@example(b"P6\n1 1\n255\n" + b"#\n" * 3000)
@example(b"P5\n" + b"#\n" * 3000 + b"1 1\n255\nx")
@example(b"P5\n+2 1_0\n255\n" + b"x" * 20)
@example(b"P5\n2 2\n+255\n" + b"x" * 4)
def test_read_pnm_parses_or_raises_pnm_parse_error(tmp_path_factory, data):
    """Every byte string is either a grayscale image of positive size or a
    PnmParseError."""
    p = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    p.write_bytes(data)
    try:
        img = dd.read_pnm(p)
    except PnmParseError as exc:
        assert 0 <= exc.offset <= len(data)
        return
    assert img.dtype == np.uint8
    assert img.ndim == 2 and min(img.shape) >= 1


@pytest.mark.parametrize("header", [b"P5\n+2 1_0\n255\n", b"P5\n2 2\n+255\n",
                                    b"P5\n2 \xd9\xa2\n255\n"])
def test_read_pnm_header_fields_are_ascii_digits(tmp_path, header):
    """Width, height and maxval are digit strings in the PNM grammar; a sign,
    an underscore or a non-ASCII digit is a parse error even when enough
    pixel bytes follow."""
    p = tmp_path / "h.pnm"
    p.write_bytes(header + b"x" * 60)
    with pytest.raises(PnmParseError, match="non-numeric header field"):
        dd.read_pnm(p)


def test_write_pnm_validates_dtype_and_shape(tmp_path):
    with pytest.raises(DimensionError):
        dd.write_pnm(tmp_path / "a.pgm", np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        dd.write_pnm(tmp_path / "a.pgm", np.zeros((2, 2, 4), dtype=np.uint8))
    with pytest.raises(DimensionError):  # RGB too: images are grayscale PGM only
        dd.write_pnm(tmp_path / "a.pgm", np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(DimensionError):  # read_pnm takes positive sizes only
        dd.write_pnm(tmp_path / "a.pgm", np.zeros((0, 2), dtype=np.uint8))


def test_manifest_roundtrip(tmp_path):
    m, root = small_dataset(tmp_path)
    loaded = dd.load_manifest(root / "manifest.json")
    assert tc.to_json(loaded) == tc.to_json(m)


def test_load_images_range_and_shape(tmp_path):
    m, root = small_dataset(tmp_path)
    recs = m.records("test")[:6]
    imgs = dd.load_images(m, root, recs)
    assert imgs.shape == (6, 1, 16, 16)
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_target_presets():
    far = dd.target_style("far")
    assert not far.invert and far.contrast <= 0.5 and far.brightness > 0.2
    near = dd.target_style("near")
    assert not near.invert
    sketch = dd.target_style("sketch")
    assert sketch.invert and sketch.contrast > 2.0
    with pytest.raises(ConfigError):
        dd.target_style("elsewhere")
