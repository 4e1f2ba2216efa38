"""Channel-gain distributions and their perceived counterparts.

The channel power gain of a Rayleigh-faded link follows the exponential
law on [0, inf). A perceptual distribution composes it with the Prelec
weighting: the perceived CDF is w(F(s)) and the perceived density is its
derivative,

    ppdf(s) = gamma * theta * w(F(s)) * (-log F(s))**(theta-1) * f(s) / F(s).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _real
from .prospect import WeightParams, _elementwise

_LOG2 = float(np.log(2.0))
_TINY = float(np.finfo(float).tiny)  # smallest normal double


def _log1mexp(x):
    """log(1 - exp(-x)) for x >= 0, accurate in both tails; -inf at x = 0.

    log(-expm1(-x)) up to x = log 2 and log1p(-exp(-x)) above (Maechler
    2012), so neither tail loses precision before exp(-x) underflows.
    """
    with np.errstate(divide="ignore"):
        return np.where(x > _LOG2,
                        np.log1p(-np.exp(-x)), np.log(-np.expm1(-x)))


@dataclass(frozen=True)
class ExponentialGain:
    """Exponential law for the channel power gain, mean ``mu``.

    CDF 1 - exp(-g/mu) on g >= 0. Methods are elementwise on arrays.
    """

    mu: float

    def __post_init__(self):
        _real("mu", self.mu, 0.0, above=True)

    @_elementwise
    def cdf(self, g):
        x = np.maximum(g, 0.0) / self.mu  # g/mu = inf is the limit F = 1
        return np.where(g < 0.0, 0.0, -np.expm1(-x))

    @_elementwise
    def pdf(self, g):
        # g/mu = inf is the limit f = 0
        out = np.exp(-np.maximum(g, 0.0) / self.mu) / self.mu
        return np.where(g < 0.0, 0.0, out)

    @_elementwise
    def inverse_cdf(self, u):
        """Quantile function, -mu * log1p(-u) for u in (0, 1)."""
        if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails both
            raise DomainError("quantile argument must lie in (0, 1)")
        return -self.mu * np.log1p(-u)

    @_elementwise
    def inverse_survival(self, q):
        """Quantile at survival probability q in (0, 1]; exact for tiny q.

        Equals inverse_cdf(1 - q) but avoids forming 1 - q, which matters
        deep in the upper tail.
        """
        if not np.all((q > 0.0) & (q <= 1.0)):  # NaN fails both
            raise DomainError("survival argument must lie in (0, 1]")
        return -self.mu * np.log(q)


@dataclass(frozen=True)
class PerceptualDistribution:
    """The exponential gain law on [0, inf) seen through Prelec weighting."""

    base: ExponentialGain
    weights: WeightParams

    @_elementwise
    def pcdf(self, s):
        """Perceived CDF, w(F(s)). A valid CDF spanning 0 to 1; NaN raises.

        Evaluated through log F so the upper tail keeps full precision
        after F itself rounds to 1. Past s/mu ~ 708, where -log F =
        exp(-s/mu) is subnormal or 0, (-log F)**theta is exp(-theta*s/mu).
        """
        if np.any(np.isnan(s)):
            raise DomainError("pcdf argument must not be NaN")
        x = np.maximum(s, 0.0) / self.base.mu  # s/mu = inf is the limit F = 1
        # log F = -inf on s <= 0, where the perceived CDF is exp(-inf) = 0
        neg_log_f = -_log1mexp(x)
        gamma, theta = self.weights.gamma, self.weights.theta
        t = np.where(neg_log_f < _TINY, np.exp(-theta * x),
                     neg_log_f ** theta)
        return np.exp(-gamma * t)

    @_elementwise
    def ppdf(self, s):
        """Perceived density, the derivative of :meth:`pcdf`.

        Defined strictly inside the support: at the endpoints themselves
        only (integrable) limits exist and a DomainError is raised. The
        density is unbounded near the lower endpoint for theta < 1:
        overweighting of rare events piles perceived mass onto the far left
        tail. Past s/mu ~ 708, where -log F = exp(-s/mu) is subnormal or 0,
        (-log F)**(theta-1) * f/F is exp(-theta*s/mu)/mu; it is 0 where that
        underflows or s/mu overflows. The one other refusal is where s/mu
        underflows to 0, so that the base CDF rounds to 0, and where the
        density itself overflows the float range.
        """
        if not np.all((s > 0.0) & (s < np.inf)):  # NaN fails both
            raise DomainError("ppdf is defined strictly inside the support")
        mu, gp = self.base.mu, self.weights
        x = s / mu  # s/mu = inf is the limit 0
        f_base = -np.expm1(-x)
        if np.any(f_base <= 0.0):
            raise DomainError(
                "ppdf: base CDF rounds to 0 here, only a limit exists")
        neg_log_f = -_log1mexp(x)
        head = gp.gamma * gp.theta * self.pcdf(s)
        # both branches are formed everywhere; the power of a subnormal
        # -log F may overflow, and its product be NaN, where it is not used
        with np.errstate(invalid="ignore"):
            out = np.where(neg_log_f < _TINY,
                           head * np.exp(-gp.theta * x) / mu,
                           head * np.maximum(neg_log_f, _TINY)
                           ** (gp.theta - 1.0) * (np.exp(-x) / mu) / f_base)
        if np.any(np.isinf(out)):
            raise DomainError("perceived density overflows the float range")
        return out

    @_elementwise
    def perceptual_sample(self, u):
        """Deterministic inverse-transform sample at uniform variate u.

        Returned values have CDF :meth:`pcdf`: the sample is
        -mu * log(1 - exp(-z)) with z = ((-log u)/gamma)**(1/theta), formed
        by :func:`_log1mexp` so neither u near 0 nor u near 1 collapses onto
        a support endpoint. Where exp(-z) underflows (u near 0) the log is
        capped at -5e-324, the smallest base probability; where z underflows
        to 0 (u near 1, small theta) log z is formed from u directly.
        """
        if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails both
            raise DomainError("uniform variate must lie in (0, 1)")
        gamma, theta = self.weights.gamma, self.weights.theta
        # z = inf is the limit exp(-z) = 0
        z = ((-np.log(u)) / gamma) ** (1.0 / theta)
        log_q = _log1mexp(z)
        np.minimum(log_q, -5e-324, out=log_q)
        under = z == 0.0
        if np.any(under):
            log_q[under] = (np.log(-np.log(u[under])) - np.log(gamma)) / theta
        return -self.base.mu * log_q
