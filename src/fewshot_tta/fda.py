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
from .tensor import Tensor, add, as_tensor, channel_stats, div, mul, reshape, sub, take_rows


# the Beta(a, a) concentration each sample's lambda is drawn from: most
# mass lies near 0 and 1, so a mixed sample mostly takes one side's style
ALPHA_BETA = 0.1
# the smoothing term of the mixed statistics' sigma = sqrt(var + EPS)
EPS = 1e-6


@dataclass
class FdaConfig:
    """Mixing knobs: the chance that a site's plan applies."""

    p_apply: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p_apply <= 1.0:
            raise ConfigError(f"p_apply must be in [0, 1], got {self.p_apply}")


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


def make_plan(batch_size: int, rng: np.random.Generator, cfg: FdaConfig) -> FdaPlan:
    """Draw one site's plan: uniform pairing permutation, Beta(a, a) lambdas
    with a = ALPHA_BETA, and an apply flag with probability p_apply.
    Deterministic given rng state.
    """
    if batch_size < 2:
        return FdaPlan(pairing=np.arange(max(batch_size, 0)),
                       lambdas=np.ones(max(batch_size, 0)), apply=False)
    apply = bool(rng.random() < cfg.p_apply)
    pairing = rng.permutation(batch_size)
    lambdas = rng.beta(ALPHA_BETA, ALPHA_BETA, size=batch_size)
    return FdaPlan(pairing=pairing, lambdas=lambdas, apply=apply)


def make_plans(batch_size: int, rng: np.random.Generator, cfg: FdaConfig) -> dict[int, FdaPlan]:
    """Independent plans for the Backbone's two hook sites, after blocks 1 and 2."""
    return {site: make_plan(batch_size, rng, cfg) for site in (1, 2)}


def fda_transform(features, plan: FdaPlan, eps: float = EPS) -> Tensor:
    """Apply one plan to an N x C x H x W feature map batch.

    Each sample's per-channel statistics (mu, sigma) blend with its partner's
    by its lambda, beta_mix = lam*mu_i + (1-lam)*mu_j and likewise gamma_mix
    from the sigmas, and the features are re-instantiated under the blend as
    gamma_mix * (f - mu) / sigma + beta_mix. sigma = sqrt(var + eps) is both
    mixed and the normalization denominator, so lambda = 1 reproduces the
    input exactly. Gradients flow into the paired sample's statistics too.
    """
    features = as_tensor(features)
    if not plan.apply:
        return features
    mu, sigma = channel_stats(features, eps=eps)
    mu_j = take_rows(mu, plan.pairing)
    sig_j = take_rows(sigma, plan.pairing)
    lam = Tensor(plan.lambdas[:, None])
    one_minus = Tensor(1.0 - plan.lambdas[:, None])
    beta_mix = add(mul(lam, mu), mul(one_minus, mu_j))
    gamma_mix = add(mul(lam, sigma), mul(one_minus, sig_j))
    col = (features.shape[0], features.shape[1], 1, 1)
    normed = div(sub(features, reshape(mu, *col)), reshape(sigma, *col))
    return add(mul(reshape(gamma_mix, *col), normed), reshape(beta_mix, *col))


def mixer(plans: dict[int, FdaPlan]):
    """The ``mix(site, h)`` hook of ``Backbone.forward`` for one batch's plans
    (see ``make_plans``). ``fda_transform`` is looked up per call, so a
    wrapper installed on it later still sees it.
    """
    def mix(site: int, h: Tensor) -> Tensor:
        return fda_transform(h, plans[site])
    return mix
