"""Feature-statistics mixing: restyle a feature map with a convex blend of
two samples' per-channel statistics, re-instantiated through normalization.

Used only while fine-tuning on the support set, where ``mixer`` plugs the
plans into ``Backbone.forward`` between blocks; evaluation and the online
stage never call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, as_tensor, channel_stats, div, mul, reshape, sub, take_rows


@dataclass
class FdaConfig:
    """Mixing knobs; alpha_beta is the Beta(a, a) concentration for lambda."""

    enabled: bool = True
    alpha_beta: float = 0.1
    p_apply: float = 0.5
    sites: tuple = (1, 2)
    eps: float = 1e-6
    detach_mixed: bool = False

    def __post_init__(self):
        self.sites = tuple(self.sites)
        if not set(self.sites) <= {1, 2}:
            raise ConfigError(f"sites must be drawn from the Backbone's (1, 2), got {self.sites}")
        if self.alpha_beta <= 0:
            raise ConfigError(f"alpha_beta must be > 0, got {self.alpha_beta}")
        if not 0.0 <= self.p_apply <= 1.0:
            raise ConfigError(f"p_apply must be in [0, 1], got {self.p_apply}")
        if self.eps < 0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")


@dataclass
class FdaPlan:
    """One batch's mixing decisions at one hook site.

    pairing is a bijection on [0, N): sample i borrows statistics from
    pairing[i]. lambdas holds each sample's own-statistics weight.
    """

    pairing: np.ndarray
    lambdas: np.ndarray
    apply: bool = True

    def __post_init__(self):
        self.pairing = np.asarray(self.pairing, dtype=np.intp)
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        n = self.pairing.shape[0]
        if sorted(self.pairing.tolist()) != list(range(n)):
            raise ConfigError("pairing must be a permutation of the batch indices")
        if self.lambdas.shape != (n,):
            raise ConfigError(f"lambdas shape {self.lambdas.shape} != pairing length {n}")
        if n and (self.lambdas.min() < 0.0 or self.lambdas.max() > 1.0):
            raise ConfigError("lambda values must lie in [0, 1]")


def mix_stats(mu_i, sigma_i, mu_j, sigma_j, lam):
    """Convex blend of two channel-statistics pairs.

    Returns (beta_mix, gamma_mix) = (lam*mu_i + (1-lam)*mu_j,
    lam*sigma_i + (1-lam)*sigma_j). lam may be a scalar or a per-sample
    column that broadcasts against N x C stats.
    """
    lam_arr = lam.data if isinstance(lam, Tensor) else np.asarray(lam, dtype=np.float64)
    if lam_arr.size and (lam_arr.min() < 0.0 or lam_arr.max() > 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got range [{lam_arr.min()}, {lam_arr.max()}]")
    mu_i, sigma_i = as_tensor(mu_i), as_tensor(sigma_i)
    mu_j, sigma_j = as_tensor(mu_j), as_tensor(sigma_j)
    lam = as_tensor(lam)
    one_minus = 1.0 - lam
    beta_mix = lam * mu_i + one_minus * mu_j
    gamma_mix = lam * sigma_i + one_minus * sigma_j
    return beta_mix, gamma_mix


def apply_fda(f, stats, mixed) -> Tensor:
    """Re-instantiate a feature map under mixed statistics.

    f is N x C x H x W; stats = (mu, sigma) are f's own channel statistics
    (sigma already smoothed by the caller's eps, so it is the exact
    normalization denominator); mixed = (beta_mix, gamma_mix). Returns
    gamma_mix * (f - mu) / sigma + beta_mix per channel.
    """
    f = as_tensor(f)
    mu, sigma = (as_tensor(s) for s in stats)
    beta_mix, gamma_mix = (as_tensor(s) for s in mixed)
    n, c = f.shape[0], f.shape[1]
    col = (n, c, 1, 1)
    normed = div(sub(f, reshape(mu, *col)), reshape(sigma, *col))
    return mul(reshape(gamma_mix, *col), normed) + reshape(beta_mix, *col)


def make_plan(batch_size: int, rng: np.random.Generator, cfg: FdaConfig) -> FdaPlan:
    """Draw one site's plan: uniform pairing permutation, Beta(a, a) lambdas,
    and an apply flag with probability p_apply. Deterministic given rng state.
    """
    if batch_size < 2:
        return FdaPlan(pairing=np.arange(max(batch_size, 0)),
                       lambdas=np.ones(max(batch_size, 0)), apply=False)
    apply = bool(rng.random() < cfg.p_apply)
    pairing = rng.permutation(batch_size)
    lambdas = rng.beta(cfg.alpha_beta, cfg.alpha_beta, size=batch_size)
    return FdaPlan(pairing=pairing, lambdas=lambdas, apply=apply)


def make_plans(batch_size: int, rng: np.random.Generator, cfg: FdaConfig) -> dict[int, FdaPlan]:
    """Independent plans for every configured hook site (empty when disabled)."""
    if not cfg.enabled:
        return {}
    return {site: make_plan(batch_size, rng, cfg) for site in cfg.sites}


def fda_transform(features, plan: FdaPlan, eps: float = 1e-6,
                  detach_mixed: bool = False) -> Tensor:
    """Apply one plan to a feature map batch.

    Statistics are computed with sigma = sqrt(var + eps); the same sigma is
    both mixed and used as the normalization denominator, so lambda = 1
    reproduces the input exactly. Gradients flow into the paired sample's
    statistics unless detach_mixed is set.
    """
    features = as_tensor(features)
    if not plan.apply:
        return features
    mu, sigma = channel_stats(features, eps=eps)
    mu_j = take_rows(mu, plan.pairing)
    sig_j = take_rows(sigma, plan.pairing)
    if detach_mixed:
        mu_j, sig_j = mu_j.detach(), sig_j.detach()
    lam = Tensor(plan.lambdas[:, None])
    beta_mix, gamma_mix = mix_stats(mu, sigma, mu_j, sig_j, lam)
    return apply_fda(features, (mu, sigma), (beta_mix, gamma_mix))


def mixer(plans: dict[int, FdaPlan], cfg: FdaConfig):
    """The ``mix(site, h)`` hook of ``Backbone.forward`` for one batch's plans.

    A site without a plan passes its features through. ``fda_transform`` is
    looked up per call, so a wrapper installed on it later still sees it.
    """
    def mix(site: int, h: Tensor) -> Tensor:
        plan = plans.get(site)
        if plan is None:
            return h
        return fda_transform(h, plan, eps=cfg.eps, detach_mixed=cfg.detach_mixed)
    return mix
