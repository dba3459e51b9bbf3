import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styleshift import tensor_core as tc
from styleshift.style_ops import adain
from styleshift import test_time_shift as ts
from styleshift.errors import ConfigError, DimensionError, RegistryBuildError

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))


def reference_decision(phi, centroids, global_phi, alpha):
    """Independent restatement of the threshold-and-nearest-centroid rule."""
    n = len(centroids)
    avg = sum(float(np.linalg.norm(np.asarray(phi) - c)) for c in centroids) / n
    spread = sum(float(np.linalg.norm(np.asarray(global_phi) - c)) for c in centroids) / n
    if avg > alpha * spread:
        dists = [float(np.linalg.norm(np.asarray(phi) - c)) for c in centroids]
        return True, int(np.argmin(dists))
    return False, None


def two_domain_registry():
    return ts.registry_from_styles(
        styles=np.array([[0.0, 1.0], [4.0, 1.0]]), domains=np.array([0, 1]),
        layer="block2")


def random_registry(rng, n_domains, channels):
    styles = rng.normal(size=(n_domains * 4, 2 * channels))
    styles[:, channels:] = np.abs(styles[:, channels:]) + 0.1
    domains = np.repeat(np.arange(n_domains), 4)
    return ts.registry_from_styles(styles, domains, "block2")


# -- registry ------------------------------------------------------------------

def test_registry_single_sample_per_domain():
    styles = np.array([[1.0, 2.0, 0.5, 0.5], [3.0, 0.0, 1.0, 1.0]])
    reg = ts.registry_from_styles(styles, np.array([0, 1]), "block1")
    np.testing.assert_array_equal(reg.centroids, styles)


def test_registry_two_domain_hand_case():
    reg = two_domain_registry()
    np.testing.assert_allclose(reg.global_phi, [2.0, 1.0])
    assert reg.spread == pytest.approx(2.0)


def test_registry_duplication_invariance():
    rng = RNG(0)
    styles = rng.normal(size=(6, 4))
    domains = np.array([0, 0, 1, 1, 2, 2])
    reg1 = ts.registry_from_styles(styles, domains, "block2")
    reg2 = ts.registry_from_styles(np.vstack([styles, styles]),
                                   np.concatenate([domains, domains]), "block2")
    np.testing.assert_allclose(reg1.centroids, reg2.centroids)


def test_registry_empty_domain_errors():
    with pytest.raises(RegistryBuildError, match="domain1"):
        ts.registry_from_styles(np.ones((2, 4)), np.array([0, 2]), "block2",
                                names=("domain0", "domain1", "domain2"))


# -- decide ---------------------------------------------------------------------

def test_decide_hand_case_shift():
    reg = two_domain_registry()
    d = ts.decide(np.array([10.0, 1.0]), reg, alpha=3.0)
    assert d.shifted and d.target == 1
    assert d.avg_distance == pytest.approx(8.0)
    assert d.threshold == pytest.approx(6.0)


def test_decide_hand_case_keep():
    reg = two_domain_registry()
    d = ts.decide(np.array([1.0, 1.0]), reg, alpha=3.0)
    assert not d.shifted and d.target is None
    assert d.avg_distance == pytest.approx(2.0)


def test_decide_alpha_zero_shifts_everything_off_axis():
    reg = two_domain_registry()
    d = ts.decide(np.array([1.0, 1.0]), reg, alpha=0.0)
    assert d.shifted


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_domains=st.integers(1, 4), channels=st.integers(1, 4),
       alphas=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=2), scale=st.floats(0.1, 5.0))
def test_decide_monotone_in_alpha(seed, n_domains, channels, alphas, scale):
    """Raising alpha never shifts a sample that a lower alpha kept; the
    distance and the target do not depend on alpha."""
    lo, hi = sorted(alphas)
    rng = RNG(seed)
    reg = random_registry(rng, n_domains, channels)
    for phi in rng.normal(scale=scale, size=(20, 2 * channels)):
        a, b = ts.decide(phi, reg, lo), ts.decide(phi, reg, hi)
        assert a.shifted or not b.shifted
        assert a.avg_distance == b.avg_distance
        if b.shifted:
            assert a.target == b.target


def test_decide_matches_reference_implementation():
    rng = RNG(2)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        reg = random_registry(rng, n, int(rng.integers(1, 4)))
        phi = rng.normal(size=reg.centroids.shape[1])
        for alpha in (0.0, 2.0, 3.0, 5.0):
            want = reference_decision(phi, reg.centroids, reg.global_phi, alpha)
            got = ts.decide(phi, reg, alpha)
            assert (got.shifted, got.target) == want


def test_decide_nearest_tie_goes_to_lower_id():
    reg = two_domain_registry()
    d = ts.decide(np.array([2.0, 50.0]), reg, alpha=0.0)  # equidistant
    assert d.shifted and d.target == 0


# -- ts_apply ---------------------------------------------------------------------

def _feature_registry(rng, n_domains=3, channels=2, hw=5):
    feats = rng.normal(size=(n_domains * 5, channels, hw, hw)) \
        + rng.normal(size=(n_domains * 5, 1, 1, 1)) * 2.0
    styles = tc.batch_style_vectors(feats)
    domains = np.repeat(np.arange(n_domains), 5)
    return ts.registry_from_styles(styles, domains, "block2"), feats, styles


def test_ts_apply_keep_is_bit_identical():
    rng = RNG(3)
    reg, feats, _ = _feature_registry(rng)
    f = feats[0]
    out, decision = ts.ts_apply(f, reg, alpha=1e9, mode=ts.PROPOSED)
    assert not decision.shifted
    np.testing.assert_array_equal(out, f)


def test_ts_apply_shift_matches_centroid_stats():
    rng = RNG(4)
    reg, feats, _ = _feature_registry(rng)
    far = feats[0] + 40.0
    out, decision = ts.ts_apply(far, reg, alpha=1.0, mode=ts.PROPOSED)
    assert decision.shifted
    want = reg.centroids[decision.target]
    np.testing.assert_allclose(tc.style_vector(out), want, atol=1e-6)


def test_ts_apply_off_is_identity():
    rng = RNG(5)
    reg, feats, _ = _feature_registry(rng)
    out, decision = ts.ts_apply(feats[1] + 100.0, reg, alpha=0.0, mode=ts.OFF)
    assert not decision.shifted
    np.testing.assert_array_equal(out, feats[1] + 100.0)


def test_ts_apply_shift_all_equals_alpha_zero():
    rng = RNG(6)
    reg, feats, _ = _feature_registry(rng)
    for f in feats[:5]:
        a, da = ts.ts_apply(f, reg, alpha=0.0, mode=ts.PROPOSED)
        b, db = ts.ts_apply(f, reg, mode=ts.SHIFT_ALL)
        assert da.avg_distance > 0
        np.testing.assert_array_equal(a, b)
        assert da.target == db.target


def test_ts_apply_nearest_sample_needs_pool_and_rng():
    """A missing pool, a pool of the wrong width, or a missing seed raises
    whether or not the sample shifts: alpha 1e9 keeps it."""
    rng = RNG(7)
    reg, feats, styles = _feature_registry(rng)
    for alpha in (0.0, 1e9):
        with pytest.raises(ConfigError):
            ts.ts_apply(feats[0] + 40.0, reg, alpha=alpha, mode=ts.nearest_sample(10), seed=0)
        with pytest.raises(DimensionError):
            ts.ts_apply(feats[0] + 40.0, reg, alpha=alpha, mode=ts.nearest_sample(10),
                        sample_pool=styles[:, 1:], seed=0)
        with pytest.raises(ConfigError):
            ts.ts_apply(feats[0] + 40.0, reg, alpha=alpha, mode=ts.nearest_sample(10),
                        sample_pool=styles)


def test_ts_apply_nearest_sample_shifts_to_pool_member():
    rng = RNG(8)
    reg, feats, styles = _feature_registry(rng)
    far = feats[0] + 40.0
    out, decision = ts.ts_apply(far, reg, alpha=1.0, mode=ts.nearest_sample(8),
                                sample_pool=styles, seed=9)
    assert decision.shifted
    phi_out = tc.style_vector(out)
    dists = np.linalg.norm(styles - phi_out[None, :], axis=1)
    assert dists.min() < 1e-5  # landed on some pool member's style


def test_ts_apply_single_domain():
    rng = RNG(10)
    feats = rng.normal(size=(4, 2, 5, 5))
    styles = tc.batch_style_vectors(feats)
    reg = ts.registry_from_styles(styles, np.zeros(4, dtype=int), "block2")
    out, decision = ts.ts_apply(feats[0] - 30.0, reg, mode=ts.SINGLE_DOMAIN)
    assert decision.shifted and decision.target == 0
    np.testing.assert_allclose(tc.style_vector(out), reg.centroids[0], atol=1e-6)
    multi, _, _ = _feature_registry(RNG(11))
    with pytest.raises(ConfigError):
        ts.ts_apply(feats[0], multi, mode=ts.SINGLE_DOMAIN)


def test_ts_apply_preserves_rank_order():
    rng = RNG(12)
    reg, feats, _ = _feature_registry(rng)
    far = feats[0] * 3.0 + 25.0
    out, decision = ts.ts_apply(far, reg, alpha=0.5, mode=ts.PROPOSED)
    assert decision.shifted
    for c in range(far.shape[0]):
        order = np.argsort(far[c].ravel(), kind="stable")
        assert np.all(np.diff(out[c].ravel()[order]) >= 0)


def test_ts_apply_idempotent_for_alpha_ge_one():
    rng = RNG(13)
    reg, feats, _ = _feature_registry(rng)
    for alpha in (1.0, 3.0):
        far = feats[2] + 50.0
        once, d1 = ts.ts_apply(far, reg, alpha=alpha, mode=ts.PROPOSED)
        twice, d2 = ts.ts_apply(once, reg, alpha=alpha, mode=ts.PROPOSED)
        np.testing.assert_allclose(twice, once, rtol=1e-9, atol=1e-9)


MODES = ("off", "proposed", "shift_all", "nearest_sample", "single_domain")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(MODES), n_domains=st.integers(1, 4),
       channels=st.integers(1, 3), hw=st.integers(1, 4), offset=st.floats(-30.0, 30.0),
       alpha=st.one_of(st.none(), st.floats(0.0, 4.0)), pool_size=st.integers(1, 12),
       degenerate=st.booleans(), batch=st.integers(1, 6),
       other_alpha=st.one_of(st.none(), st.floats(0.0, 4.0)))
def test_ts_apply_every_mode_matches_restatement(seed, kind, n_domains, channels, hw,
                                                 offset, alpha, pool_size, degenerate, batch,
                                                 other_alpha):
    """Each mode against a restatement of its rule: off keeps the input bit for
    bit; proposed follows decide; shift_all and single_domain shift to the
    nearest centroid (the lowest id when every centroid is as near);
    nearest_sample shifts to the closest of the pool members a hand re-draw
    with a generator seeded by the sample's seed picks. A shifted output is
    adain to the target's stats, bit for bit. ``degenerate`` makes every
    source sample and the test sample one map, so every distance is 0.

    Row b of ``shift_batch`` over a batch led by that sample equals sample b
    shifted alone with ``seeds[b]`` (``ts_apply``, a batch of one): outputs
    and decisions. Over the alphas (alpha, other_alpha), row a of ``shifted``
    and of ``thresholds`` equals a call at alpha a alone, and the features
    and ``target`` equal those of the call at the smaller alpha."""
    rng = RNG(seed)
    if kind == "single_domain":
        n_domains = 1
    feats = rng.normal(size=(n_domains * 3, channels, hw, hw)) \
        + rng.normal(scale=2.0, size=(n_domains * 3, 1, 1, 1))
    f = rng.normal(size=(channels, hw, hw)) * rng.uniform(0.5, 3.0) + offset
    if degenerate:
        feats[:] = feats[0]
        f = feats[0].copy()
    reg = ts.registry_from_styles(tc.batch_style_vectors(feats),
                                  np.repeat(np.arange(n_domains), 3), "block2")
    pool = tc.batch_style_vectors(rng.normal(size=(10, channels, hw, hw)) * 2.0)
    mode = ts.nearest_sample(pool_size) if kind == "nearest_sample" else ts.ShiftMode(kind)
    draw_seed = int(rng.integers(2**63))

    out, got = ts.ts_apply(f, reg, alpha, mode, sample_pool=pool, seed=draw_seed)

    phi = tc.style_vector(f)
    dists = [float(np.linalg.norm(phi - c)) for c in reg.centroids]
    nearest = int(np.argmin(dists))
    want = ts.decide(phi, reg, alpha)
    assert got.avg_distance == want.avg_distance
    redraw = RNG(draw_seed)
    if kind == "off":
        assert (got.shifted, got.target) == (False, None)
        target = None
    elif kind in ("proposed", "nearest_sample"):
        assert got == want
        target = reg.centroids[want.target] if want.shifted else None
        if kind == "nearest_sample" and want.shifted:
            chosen = redraw.choice(pool.shape[0], size=min(pool_size, pool.shape[0]),
                                   replace=False)
            cand = pool[chosen]
            target = cand[int(np.argmin(np.linalg.norm(phi[None, :] - cand, axis=1)))]
    else:
        assert (got.shifted, got.target) == (True, nearest)
        target = reg.centroids[nearest]
    if target is None:
        assert out.tobytes() == f.tobytes()
    else:
        assert out.tobytes() == adain(f, tc.style_vector_to_stats(target)).tobytes()

    scale = rng.uniform(0.5, 3.0, size=(batch - 1, 1, 1, 1))
    others = rng.normal(size=(batch - 1, channels, hw, hw)) * scale \
        + rng.uniform(-30.0, 30.0, size=(batch - 1, 1, 1, 1))
    feats_t = np.stack([f, *(np.broadcast_to(f, others.shape) if degenerate else others)])
    seeds = rng.integers(2**63, size=batch)
    singles = [ts.ts_apply(g, reg, alpha, mode, sample_pool=pool, seed=int(seed))
               for g, seed in zip(feats_t, seeds)]
    out_b, got_b = ts.shift_batch(feats_t, reg, [alpha], mode, sample_pool=pool, seeds=seeds)
    assert out_b.tobytes() == np.stack([o for o, _ in singles]).tobytes()
    assert got_b.shifted[0].tolist() == [d.shifted for _, d in singles]
    assert got_b.target.tolist() == [-1 if d.target is None else d.target for _, d in singles]
    assert got_b.avg_distance.tolist() == [d.avg_distance for _, d in singles]
    assert {*got_b.thresholds.tolist()} == {d.threshold for _, d in singles}

    pair = [alpha, other_alpha]
    alone = [ts.shift_batch(feats_t, reg, [a], mode, sample_pool=pool, seeds=seeds) for a in pair]
    out_2, got_2 = ts.shift_batch(feats_t, reg, pair, mode, sample_pool=pool, seeds=seeds)
    assert got_2.shifted.tolist() == [d.shifted[0].tolist() for _, d in alone]
    assert got_2.thresholds.tolist() == [d.thresholds[0] for _, d in alone]
    out_s, got_s = alone[int(np.argmin([reg.alpha_default if a is None else a for a in pair]))]
    assert out_2.tobytes() == out_s.tobytes()
    assert got_2.target.tolist() == got_s.target.tolist()


def test_shift_decision_vector_length_checked():
    reg = two_domain_registry()
    with pytest.raises(DimensionError):
        ts.decide(np.ones(6), reg, 1.0)


# -- persistence -------------------------------------------------------------------

def test_registry_roundtrip_bit_identical_decisions(tmp_path):
    rng = RNG(14)
    reg, _, _ = _feature_registry(rng)
    path = tmp_path / "registry.json"
    ts.save_registry(reg, path)
    loaded = ts.load_registry(path)
    np.testing.assert_array_equal(loaded.centroids, reg.centroids)
    assert loaded.spread == reg.spread
    phis = rng.normal(size=(100, reg.centroids.shape[1]))
    for phi in phis:
        a = ts.decide(phi, reg, 2.0)
        b = ts.decide(phi, loaded, 2.0)
        assert (a.shifted, a.target, a.avg_distance, a.threshold) == \
               (b.shifted, b.target, b.avg_distance, b.threshold)


def test_registry_roundtrip_file_stable(tmp_path):
    reg = two_domain_registry()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ts.save_registry(reg, p1)
    ts.save_registry(ts.load_registry(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_domains=st.integers(1, 5), channels=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3), alpha=st.floats(0.0, 10.0))
def test_registry_save_load_save_byte_stable(tmp_path_factory, seed, n_domains, channels,
                                             scale, alpha):
    """save -> load -> save writes the same bytes, and the loaded registry's
    global vector and spread equal the saved one's bit for bit."""
    rng = RNG(seed)
    styles = rng.normal(scale=scale, size=(n_domains * 3, 2 * channels))
    styles[:, channels:] = np.abs(styles[:, channels:]) + 1e-3
    reg = ts.registry_from_styles(styles, np.repeat(np.arange(n_domains), 3), "block1",
                                  alpha=alpha)
    path = tmp_path_factory.mktemp("reg") / "r.json"
    ts.save_registry(reg, path)
    first = path.read_bytes()
    loaded = ts.load_registry(path)
    ts.save_registry(loaded, path)
    assert path.read_bytes() == first
    assert loaded.global_phi.tobytes() == reg.global_phi.tobytes()
    assert np.float64(loaded.spread).tobytes() == np.float64(reg.spread).tobytes()
    assert loaded.alpha_default == reg.alpha_default


# -- pseudo domains ------------------------------------------------------------------

def test_pseudo_domains_k1():
    labels = ts.pseudo_domains(RNG(15).normal(size=(10, 3)), 1, RNG(16))
    assert set(labels) == {0}


def test_pseudo_domains_recovers_separated_clusters():
    rng = RNG(17)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    truth = rng.integers(0, 3, size=120)
    points = centers[truth] + rng.normal(scale=1.0, size=(120, 2))
    labels = ts.pseudo_domains(points, 3, RNG(18))
    # purity: every found cluster maps to one true cluster
    purity = 0
    for j in range(3):
        members = truth[labels == j]
        purity += np.bincount(members, minlength=3).max()
    assert purity / len(truth) == 1.0


def test_pseudo_domains_duplicates_get_same_label():
    rng = RNG(19)
    pts = rng.normal(size=(20, 4))
    labels = ts.pseudo_domains(np.vstack([pts, pts]), 3, RNG(20))
    np.testing.assert_array_equal(labels[:20], labels[20:])


def test_pseudo_domains_needs_enough_samples():
    with pytest.raises(ValueError):
        ts.pseudo_domains(np.ones((2, 3)), 3, RNG(21))


def test_pseudo_domains_deterministic():
    rng = RNG(22)
    pts = rng.normal(size=(50, 3))
    a = ts.pseudo_domains(pts, 3, RNG(23))
    b = ts.pseudo_domains(pts, 3, RNG(23))
    np.testing.assert_array_equal(a, b)


class _StubRng:
    """``integers`` picks point 0 as the first center; ``random`` returns ``draw``."""

    def __init__(self, draw):
        self.draw = draw

    def integers(self, m):
        return 0

    def random(self):
        return self.draw


@pytest.mark.parametrize("draw", [0.0, 1.0 - 2.0 ** -53], ids=["zero", "largest"])
def test_kmeans_seeding_picks_a_point_off_the_chosen_centers(draw, monkeypatch):
    """With 0, 1 and 100 points at 1e-8, ``d2.sum()`` (pairwise) gives
    1.0000000000000084 while ``np.cumsum(d2)`` ends at 1.0: a cut from the
    largest draw against the sum passes the cumsum's end. A cut of 0 searched
    from the left lands on point 0, the center already chosen. Either way
    the second center must be point 1. With no Lloyd iteration the labels
    are the seeding's, so point 1 alone takes the second label."""
    monkeypatch.setattr(ts, "KMEANS_MAX_ITER", 0)
    points = np.array([[0.0], [1.0]] + [[1e-8]] * 100)
    labels, _ = ts._kmeans_once(points, 2, _StubRng(draw))
    assert labels[1] != labels[0]
    assert (labels[2:] == labels[0]).all()
