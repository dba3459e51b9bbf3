"""Style transforms over feature statistics.

Four transforms are provided: stat renormalization (adain), stat mixing with
a shuffled partner (mixstyle), Gaussian stat perturbation (dsu), and exact
sorted-value mixing (efdmix; at lambda 0 it is EFDM, which places the
partner's sorted values exactly).

adain and efdmix act on plain arrays: adain renormalizes test-time features
(``renormalize`` is its map, which the batched shifter applies to the
moments it already holds), and the 1-D efdmix is the reference definition
that the batched hook is checked against. The training hooks
``mixstyle_var``, ``dsu_var`` and ``efdmix_hook`` are the only
implementations of their transforms; they return Vars, and ``.value`` is the
forward result. Sorting permutations are constants of the forward pass.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .errors import DimensionError, InsufficientBatchError
from .tensor_core import EPS_STD, ChannelStats, _moments, as_feature_map

DEFAULT_LAMBDA_SHAPE = 0.1  # Beta(0.1, 0.1), heavily bimodal mixing weights


def sample_lambda(rng: np.random.Generator, shape: float = DEFAULT_LAMBDA_SHAPE) -> float:
    """Draw a mixing coefficient from Beta(shape, shape)."""
    if shape <= 0:
        raise ValueError("beta shape must be > 0")
    return float(rng.beta(shape, shape))


def sort_permutation(v) -> np.ndarray:
    """Indices sorting v ascending, ties broken by original position."""
    return np.argsort(np.asarray(v), axis=-1, kind="stable")


def _check_permutation(perm, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"expected a permutation of 0..{n - 1}")
    return perm


def _check_lambda(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("mixing coefficients must lie in [0, 1]")
    return lam


# -- adain -----------------------------------------------------------------

def adain(content, style_stats: ChannelStats, eps_std: float = EPS_STD) -> np.ndarray:
    """Renormalize each channel of content to the target mean/std."""
    content = as_feature_map(content)
    c = content.shape[0]
    if style_stats.channels != c:
        raise DimensionError(
            f"style has {style_stats.channels} channels, content has {c}")
    return renormalize(content, *_moments(content, eps_std), style_stats.mu, style_stats.sigma)


def renormalize(content: np.ndarray, mu, sigma, target_mu, target_sigma) -> np.ndarray:
    """The adain map: each channel of a (C, H, W) map or (B, C, H, W) batch
    from its own mean and std (``mu``, ``sigma``: (C,) or (B, C)) to the
    target's, elementwise in one order whatever the batch size."""
    return (target_sigma[..., None, None] * (content - mu[..., None, None])
            / sigma[..., None, None] + target_mu[..., None, None])


def _var_moments(x: Var, eps_std: float) -> tuple[Var, Var, Var]:
    """Differentiable per-channel mean, centred activation ``x - mu`` and
    stabilized std of a (B, C, H, W) Var.

    ``x - mu`` is formed once. The square's second factor and the returned
    centred activation, which the callers normalise, are its twins
    (``autodiff.twin``): three nodes of the graph that forms it three times,
    so the gradient bits are that graph's, over one array."""
    mu = ad.mean(x, (2, 3))
    centred = ad.sub(x, mu)
    sig = ad.sqrt(ad.mean(centred * ad.twin(centred), (2, 3)) + eps_std * eps_std)
    return mu, sig, ad.twin(centred)


# -- mixstyle ----------------------------------------------------------------

def mixstyle_var(x: Var, lambdas, partner, eps_std: float = EPS_STD) -> Var:
    """Renormalize each sample to stats interpolated with its partner's.

    lambdas is one coefficient per sample; partner is a permutation of the
    batch indices pairing each sample with a style donor. Gradients flow
    through the channel stats. The normalised ``x - mu`` shares its array
    with the one the std squares (``_var_moments``).
    """
    b = x.value.shape[0]
    lam = _check_lambda(lambdas).reshape(b, 1, 1, 1)
    partner = _check_permutation(partner, b)
    mu, sig, centred = _var_moments(x, eps_std)
    beta = lam * mu + (1.0 - lam) * ad.take_batch(mu, partner)
    gamma = lam * sig + (1.0 - lam) * ad.take_batch(sig, partner)
    return gamma * (centred / sig) + beta


# -- dsu ---------------------------------------------------------------------

def dsu_var(x: Var, eps_mu, eps_sig, eps_std: float = EPS_STD) -> Var:
    """Perturb each sample's channel stats with the Gaussian draws eps_mu /
    eps_sig (each (B, C)) scaled by the batch spread of those stats; the
    perturbed std is floored at eps_std. The normalised ``x - mu`` shares
    its array with the one the std squares (``_var_moments``)."""
    b, c = x.value.shape[0], x.value.shape[1]
    if b < 2:
        raise InsufficientBatchError("dsu needs a batch of at least 2 samples")
    eps_mu = np.asarray(eps_mu, dtype=np.float64).reshape(b, c, 1, 1)
    eps_sig = np.asarray(eps_sig, dtype=np.float64).reshape(b, c, 1, 1)
    mu, sig, centred = _var_moments(x, eps_std)
    mu_c = ad.mean(mu, (0,))
    sig_c = ad.mean(sig, (0,))
    # clamp keeps sqrt differentiable when the batch stats are degenerate
    spread_mu = ad.sqrt(ad.clamp_min(ad.mean((mu - mu_c) * (mu - mu_c), (0,)), 1e-24))
    spread_sig = ad.sqrt(ad.clamp_min(ad.mean((sig - sig_c) * (sig - sig_c), (0,)), 1e-24))
    beta = mu + eps_mu * spread_mu
    gamma = ad.clamp_min(sig + eps_sig * spread_sig, eps_std)
    return gamma * (centred / sig) + beta


# -- efdmix ------------------------------------------------------------------

def efdmix(x, y, lam: float) -> np.ndarray:
    """Sorted-value interpolation: out[tau_i] = lam*x[tau_i] + (1-lam)*y[kappa_i]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"efdmix needs equal-length vectors, got {x.shape} and {y.shape}")
    _check_lambda(lam)
    tau = sort_permutation(x)
    kappa = sort_permutation(y)
    out = np.empty_like(x)
    out[tau] = lam * x[tau] + (1.0 - lam) * y[kappa]
    return out


def efdmix_hook(x: Var, partner, lambdas, frozen=None):
    """Batch efdmix between each sample and its partner, channel-wise.

    Returns (output, tau), tau being each channel's sorting permutation;
    passing tau back as ``frozen`` replays the transform with the original
    sorting permutations held fixed, which is what finite-difference checks
    difference against. The ranks, ``argsort(tau)``, are formed again on a
    replay, the same bits, so the state is tau alone.
    """
    b, c, h, w = x.value.shape
    partner = _check_permutation(partner, b)
    lam = _check_lambda(lambdas).reshape(b, 1, 1)
    v = x.value.reshape(b, c, h * w)
    tau = np.argsort(v, axis=-1, kind="stable") if frozen is None else frozen
    ranks = np.argsort(tau, axis=-1, kind="stable")
    sorted_vals = np.take_along_axis(v, tau, axis=-1)
    matched = np.take_along_axis(sorted_vals[partner], ranks, axis=-1)
    out = lam * v + (1.0 - lam) * matched
    inv_partner = np.argsort(partner)

    def vjp(g):
        g = g.reshape(b, c, h * w)
        donated = (1.0 - lam) * np.take_along_axis(g, tau, axis=-1)
        routed = np.empty_like(g)
        np.put_along_axis(routed, tau, donated[inv_partner], axis=-1)
        return ((lam * g + routed).reshape(b, c, h, w),)

    return Var(out.reshape(b, c, h, w), (x,), vjp), tau
