import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_grad, rel_err, weighted_sum
from styleshift import style_ops as so
from styleshift import tensor_core as tc
from styleshift.autodiff import Var
from styleshift.errors import DimensionError, InsufficientBatchError

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))


def dsu_draw(x, rng):
    """dsu_var's forward value with both (B, C) noise draws taken from rng."""
    b, c = x.shape[:2]
    return so.dsu_var(Var(x), rng.standard_normal((b, c)), rng.standard_normal((b, c))).value


def batch_stats(x, eps_std=tc.EPS_STD):
    """(B, C) channel means and stds: the two halves of batch_style_vectors."""
    phi = tc.batch_style_vectors(x, eps_std)
    return phi[:, :x.shape[1]], phi[:, x.shape[1]:]


# -- adain --------------------------------------------------------------------

def test_adain_identity_style():
    rng = RNG(0)
    content = rng.normal(size=(3, 4, 4))
    out = so.adain(content, tc.channel_stats(content))
    np.testing.assert_allclose(out, content, atol=1e-9)


def test_adain_forces_target_stats():
    rng = RNG(1)
    content = rng.normal(size=(2, 5, 5))
    target = tc.ChannelStats(mu=np.array([1.5, -0.5]), sigma=np.array([0.3, 2.0]))
    out = so.adain(content, target, eps_std=1e-9)
    np.testing.assert_allclose(tc.channel_mean(out), target.mu, atol=1e-6)
    np.testing.assert_allclose(tc.channel_std(out, 1e-9), target.sigma, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_adain_output_has_the_target_stats(c, h, w, seed):
    rng = RNG(seed)
    content = (rng.normal(size=(c, h, w)) * rng.uniform(0.1, 10.0, size=(c, 1, 1))
               + rng.uniform(-5.0, 5.0, size=(c, 1, 1)))
    target = tc.ChannelStats(mu=rng.uniform(-5.0, 5.0, c), sigma=rng.uniform(0.05, 5.0, c))
    out = so.adain(content, target, eps_std=1e-12)
    # float64 rounding only: the eps term is ~1e-24 against variances >~1e-12
    np.testing.assert_allclose(tc.channel_mean(out), target.mu, rtol=0, atol=1e-9)
    np.testing.assert_allclose(tc.channel_std(out, 1e-12), target.sigma, rtol=1e-9)


def test_adain_hand_case():
    content = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    target = tc.ChannelStats(mu=np.array([0.0]), sigma=np.array([1.0]))
    out = so.adain(content, target)
    expected = np.array([-1.3416, -0.4472, 0.4472, 1.3416])
    np.testing.assert_allclose(out.ravel(), expected, atol=1e-4)
    np.testing.assert_allclose(out.ravel(), (content.ravel() - 2.5) / np.sqrt(1.25 + 1e-12),
                               atol=1e-9)


def test_adain_idempotent_in_stats():
    rng = RNG(2)
    content = rng.normal(size=(2, 6, 6))
    target = tc.ChannelStats(mu=np.array([0.4, 1.0]), sigma=np.array([1.2, 0.5]))
    once = so.adain(content, target)
    twice = so.adain(once, target)
    np.testing.assert_allclose(tc.style_vector(twice), tc.style_vector(once), atol=1e-6)


def test_adain_channel_mismatch():
    with pytest.raises(DimensionError):
        so.adain(np.ones((2, 3, 3)), tc.ChannelStats(mu=np.zeros(3), sigma=np.ones(3)))


# -- mixstyle -----------------------------------------------------------------

def test_mixstyle_lambda_one_is_identity():
    rng = RNG(3)
    x = rng.normal(size=(4, 2, 3, 3))
    out = so.mixstyle_var(Var(x), np.ones(4), rng.permutation(4)).value
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_mixstyle_identity_partner_is_identity():
    rng = RNG(4)
    x = rng.normal(size=(4, 2, 3, 3))
    out = so.mixstyle_var(Var(x), rng.uniform(size=4), np.arange(4)).value
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_mixstyle_output_stats_are_interpolated():
    rng = RNG(5)
    x = rng.normal(size=(5, 3, 4, 4)) * 2.0 + 1.0
    lam = rng.uniform(size=5)
    partner = rng.permutation(5)
    out = so.mixstyle_var(Var(x), lam, partner, eps_std=1e-9).value
    mu, sig = batch_stats(x, 1e-9)
    want_mu = lam[:, None] * mu + (1 - lam[:, None]) * mu[partner]
    want_sig = lam[:, None] * sig + (1 - lam[:, None]) * sig[partner]
    out_mu, out_sig = batch_stats(out, 1e-9)
    np.testing.assert_allclose(out_mu, want_mu, atol=1e-6)
    np.testing.assert_allclose(out_sig, want_sig, atol=1e-6)


def test_mixstyle_rejects_bad_partner():
    with pytest.raises(ValueError):
        so.mixstyle_var(Var(np.ones((3, 1, 2, 2))), np.ones(3), np.array([0, 0, 2]))


# -- dsu ----------------------------------------------------------------------

def test_dsu_identical_batch_is_identity():
    one = RNG(6).normal(size=(1, 2, 4, 4))
    x = np.repeat(one, 5, axis=0)
    out = dsu_draw(x, RNG(7))
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_dsu_zero_noise_is_identity():
    rng = RNG(8)
    x = rng.normal(size=(4, 3, 4, 4))
    zero = np.zeros((4, 3))
    out = so.dsu_var(Var(x), zero, zero).value
    np.testing.assert_allclose(out, x, atol=1e-9)


def test_dsu_needs_two_samples():
    with pytest.raises(InsufficientBatchError):
        dsu_draw(np.ones((1, 2, 3, 3)), RNG(9))


def test_dsu_monte_carlo_spread():
    # over many draws, the std of the output means equals the batch spread
    rng = RNG(10)
    x = rng.normal(size=(6, 2, 3, 3)) * rng.uniform(0.5, 2.0, size=(6, 1, 1, 1))
    spread_mu = batch_stats(x)[0].std(axis=0)
    draws = 10_000
    mus = np.empty((draws, 6, 2))
    gen = RNG(11)
    for t in range(draws):
        mus[t] = batch_stats(dsu_draw(x, gen))[0]
    observed = mus.std(axis=0)  # (B, C); every sample shares the same spread
    np.testing.assert_allclose(observed, np.broadcast_to(spread_mu, (6, 2)), rtol=0.05)


# -- efdm / efdmix -------------------------------------------------------------

def test_efdm_identity():
    rng = RNG(12)
    x = rng.normal(size=10)
    np.testing.assert_array_equal(so.efdmix(x, x, 0.0), x)


TIE_PRONE = st.one_of(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                     st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.lists(TIE_PRONE, min_size=n, max_size=n),
                        st.lists(TIE_PRONE, min_size=n, max_size=n))))
def test_efdm_output_multiset_is_style_multiset(xy):
    # values drawn mostly from a small set, so both inputs carry ties
    x, y = (np.array(v) for v in xy)
    out = so.efdmix(x, y, 0.0)
    np.testing.assert_array_equal(np.sort(out), np.sort(y))


def test_efdm_hand_case():
    out = so.efdmix([3.0, 1.0, 2.0], [10.0, 30.0, 20.0], 0.0)
    np.testing.assert_array_equal(out, [30.0, 10.0, 20.0])


def test_efdm_rank_preservation():
    rng = RNG(14)
    x = rng.permutation(20).astype(float)
    out = so.efdmix(x, rng.normal(size=20), 0.0)
    order = np.argsort(x)
    assert np.all(np.diff(out[order]) >= 0)


def test_efdm_length_mismatch():
    with pytest.raises(DimensionError):
        so.efdmix([1.0, 2.0], [1.0, 2.0, 3.0], 0.0)


def test_efdmix_lambda_bounds():
    rng = RNG(15)
    x, y = rng.normal(size=(2, 12))
    np.testing.assert_array_equal(so.efdmix(x, y, 1.0), x)


def test_efdmix_hand_case():
    out = so.efdmix([3.0, 1.0, 2.0], [10.0, 30.0, 20.0], 0.5)
    np.testing.assert_allclose(out, [16.5, 5.5, 11.0])


def test_efdmix_zero_lambda_multiset():
    rng = RNG(16)
    x, y = rng.normal(size=(2, 30))
    np.testing.assert_array_equal(np.sort(so.efdmix(x, y, 0.0)), np.sort(y))


def test_transforms_preserve_shape():
    rng = RNG(17)
    x = rng.normal(size=(4, 2, 3, 5))
    assert so.mixstyle_var(Var(x), rng.uniform(size=4), rng.permutation(4)).shape == x.shape
    assert dsu_draw(x, rng).shape == x.shape
    v = rng.normal(size=15)
    assert so.efdmix(v, rng.normal(size=15), 0.0).shape == v.shape


# -- sample_lambda --------------------------------------------------------------

def test_sample_lambda_support_and_moments():
    rng = RNG(18)
    draws = np.array([so.sample_lambda(rng, 0.1) for _ in range(100_000)])
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert abs(draws.mean() - 0.5) < 0.01
    # Var Beta(a,a) = a^2 / ((2a)^2 (2a+1)) = 1/(4(2a+1))
    assert abs(draws.var() - 1.0 / 4.8) < 0.01


def test_sample_lambda_rejects_bad_shape():
    with pytest.raises(ValueError):
        so.sample_lambda(RNG(19), 0.0)


# -- gradient contracts -----------------------------------------------------------

def test_mixstyle_var_gradient_matches_finite_differences():
    rng = RNG(22)
    xv = rng.normal(size=(3, 2, 3, 3))
    lam = rng.uniform(size=3)
    partner = rng.permutation(3)
    w = rng.normal(size=xv.shape)
    x = Var(xv.copy())
    weighted_sum(so.mixstyle_var(x, lam, partner), w).backward()

    def f(xx):
        return float(np.sum(w * so.mixstyle_var(Var(xx), lam, partner).value))

    assert rel_err(fd_grad(f, xv.copy()), x.grad) < 1e-4


def test_dsu_var_gradient_matches_finite_differences():
    rng = RNG(23)
    xv = rng.normal(size=(3, 2, 3, 3)) * 1.5
    eps_mu = rng.normal(size=(3, 2))
    eps_sig = rng.normal(size=(3, 2))
    w = rng.normal(size=xv.shape)
    x = Var(xv.copy())
    weighted_sum(so.dsu_var(x, eps_mu, eps_sig), w).backward()

    def f(xx):
        return float(np.sum(w * so.dsu_var(Var(xx), eps_mu, eps_sig).value))

    assert rel_err(fd_grad(f, xv.copy()), x.grad) < 1e-4


def test_efdmix_hook_gradient_matches_finite_differences():
    rng = RNG(24)
    xv = rng.normal(size=(3, 2, 2, 3))
    partner = np.array([2, 0, 1])
    lam = rng.uniform(size=3)
    w = rng.normal(size=xv.shape)
    x = Var(xv.copy())
    out, _ = so.efdmix_hook(x, partner, lam)
    weighted_sum(out, w).backward()

    def f(xx):
        v, _ = so.efdmix_hook(Var(xx), partner, lam)
        return float(np.sum(w * v.value))

    assert rel_err(fd_grad(f, xv.copy()), x.grad) < 1e-4


@settings(max_examples=150, deadline=None)
@given(data=st.data(), b=st.integers(2, 6), c=st.integers(1, 3), h=st.integers(1, 4),
       w=st.integers(1, 4))
def test_efdmix_hook_matches_vector_op(data, b, c, h, w):
    """Each (sample, channel) row of the hook equals plain efdmix of that row
    against its partner's, bit for bit: on tie-prone values, at any partner
    permutation, and at lambda 0 (efdm), 1 and in between."""
    xv = np.array(data.draw(st.lists(TIE_PRONE, min_size=b * c * h * w,
                                     max_size=b * c * h * w))).reshape(b, c, h, w)
    partner = np.array(data.draw(st.permutations(range(b))))
    lam = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                             min_size=b, max_size=b))
    out, _ = so.efdmix_hook(Var(xv), partner, lam)
    for i in range(b):
        for k in range(c):
            expected = so.efdmix(xv[i, k].ravel(), xv[partner[i], k].ravel(), lam[i])
            assert out.value[i, k].ravel().tobytes() == expected.tobytes()


def test_dsu_clamps_negative_gamma():
    rng = RNG(26)
    x = rng.normal(size=(4, 2, 3, 3))
    huge_negative = np.full((4, 2), -100.0)
    out = so.dsu_var(Var(x), np.zeros((4, 2)), huge_negative).value
    # every channel's std collapses to the floor instead of going negative
    assert np.all(batch_stats(out, 1e-9)[1] < 1e-4)
    assert np.all(np.isfinite(out))


def test_lambda_bounds_validated():
    rng = RNG(27)
    x = rng.normal(size=(3, 1, 2, 2))
    with pytest.raises(ValueError):
        so.mixstyle_var(Var(x), np.array([0.5, 1.2, 0.1]), np.arange(3))
    with pytest.raises(ValueError):
        so.efdmix(np.arange(4.0), np.arange(4.0), -0.1)


def test_efdmix_hook_partner_with_fixed_point():
    rng = RNG(28)
    xv = rng.normal(size=(3, 2, 2, 2))
    partner = np.array([0, 2, 1])  # sample 0 mixes with itself
    lam = np.array([0.3, 0.6, 0.9])
    w = rng.normal(size=xv.shape)
    x = Var(xv.copy())
    out, _ = so.efdmix_hook(x, partner, lam)
    np.testing.assert_allclose(out.value[0], xv[0], atol=1e-12)  # self-mix
    weighted_sum(out, w).backward()

    def f(xx):
        v, _ = so.efdmix_hook(Var(xx), partner, lam)
        return float(np.sum(w * v.value))

    assert rel_err(fd_grad(f, xv.copy()), x.grad) < 1e-4
