"""Monte Carlo estimators used as the independent oracle for the quadrature.

Perceptual-utility estimates draw gains directly from the perceived law by
inverse-transform sampling (X = Finv(winv(U))), so the plain sample mean of
the valued metric targets the same integral as the quadrature engine with no
importance weights. Outage estimates use plain channel draws and weight the
empirical probability afterwards.

Sampling is batched; each batch owns a spawned substream of a counter-based
Philox generator, so the merged estimate is reproducible bit for bit and
independent of how batches would be scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import PerceptualDistribution
from .errors import DomainError
from .metrics import CompositeMetric, LinkBudget, OutageSpec, rate_gain
from .prospect import (ValueParams, WeightParams, _check_value, value, weight,
                       weight_derivative)

RNG_ALGORITHM = "philox4x64"
_BATCH = 1 << 19

# smallest positive double; keeps -log(u) finite if a uniform draw hits 0.0
_U_FLOOR = 5e-324


@dataclass(frozen=True)
class McConfig:
    """Sample count and reproducibility seed for one estimate."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error, and provenance metadata."""

    mean: float
    std_error: float
    samples: int
    generator: str = RNG_ALGORITHM


def _substreams(seed: int, total: int, size: int):
    """(Generator, draws) per block of ``size`` of ``total`` draws, in order.

    Block i (the last one holds the rest) owns the Philox substream of child
    i of SeedSequence(seed), so its draws do not depend on ``total``.
    """
    children = np.random.SeedSequence(seed).spawn(-(-total // size))
    return [(np.random.Generator(np.random.Philox(ss)),
             min(size, total - i * size)) for i, ss in enumerate(children)]


def _merge(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    """Chan et al. pooled mean/M2 combine; order fixed by batch index."""
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def mc_pu(metric: CompositeMetric, pd: PerceptualDistribution,
          value_params: ValueParams, config: McConfig) -> McEstimate:
    """Sample-mean estimate of the perceptual utility of ``metric``."""
    if config.samples < 2:
        raise DomainError("perceptual-utility estimation needs >= 2 samples")
    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for rng, m in _substreams(config.seed, config.samples, _BATCH):
        u = np.fmax(rng.random(m), _U_FLOOR)
        gains = pd.perceptual_sample(u)
        vals = np.asarray(value(metric.map(gains), metric.ref, value_params))
        n_b = vals.size
        with np.errstate(over="ignore", invalid="ignore"):
            mean_b = float(vals.mean())
            m2_b = float(((vals - mean_b) ** 2).sum())
        n_acc, mean_acc, m2_acc = _merge(n_acc, mean_acc, m2_acc,
                                         n_b, mean_b, m2_b)
    variance = m2_acc / (n_acc - 1)
    std_error = math.sqrt(max(variance, 0.0) / n_acc)
    _check_value((mean_acc, std_error))  # finite values may sum past the range
    return McEstimate(mean=mean_acc, std_error=std_error, samples=n_acc)


def mc_pop(link: LinkBudget, spec: OutageSpec, weight_params: WeightParams,
           config: McConfig) -> McEstimate:
    """Weighted empirical outage probability from plain channel draws.

    The standard error of the empirical probability is propagated through
    the weighting function by the delta method; at an empirical probability
    of exactly 0 or 1 the derivative diverges and the error is reported as 0
    (the estimate itself is pinned to the boundary).
    """
    rho = link.pt_over_n0
    if rho == 0.0:
        return McEstimate(mean=weight(1.0, weight_params), std_error=0.0,
                          samples=config.samples)
    g_th = rate_gain(spec.epsilon, rho)
    outages = 0
    for rng, m in _substreams(config.seed, config.samples, _BATCH):
        gains = rng.standard_exponential(m) * link.channel.mu
        outages += int(np.count_nonzero(gains < g_th))
    n = config.samples
    p_hat = outages / n
    mean = float(weight(p_hat, weight_params))
    if 0.0 < p_hat < 1.0:
        se_p = math.sqrt(p_hat * (1.0 - p_hat) / n)
        std_error = float(weight_derivative(p_hat, weight_params)) * se_p
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, samples=n)
