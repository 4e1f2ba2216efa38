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

from .errors import DomainError
from .prospect import WeightParams, scalar_out

_LOG_HALF = float(np.log(0.5))
_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class ExponentialGain:
    """Exponential law for the channel power gain, mean ``mu``.

    CDF 1 - exp(-g/mu) on g >= 0. Methods are elementwise on arrays.
    """

    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise DomainError(f"mu must be positive and finite, got {self.mu}")

    def cdf(self, g):
        g = np.asarray(g, dtype=float)
        out = np.where(g < 0.0, 0.0, -np.expm1(-np.maximum(g, 0.0) / self.mu))
        return scalar_out(out)

    def pdf(self, g):
        g = np.asarray(g, dtype=float)
        out = np.where(g < 0.0, 0.0, np.exp(-np.maximum(g, 0.0) / self.mu) / self.mu)
        return scalar_out(out)

    def log_cdf(self, g):
        """log F(g), accurate in both tails.

        Uses log(-expm1(-x)) below x = log 2 and log1p(-exp(-x)) above,
        so neither tail loses precision before the underlying exp itself
        underflows.
        """
        g = np.asarray(g, dtype=float)
        if np.any(g <= 0.0):
            raise DomainError("log_cdf defined for g > 0")
        x = -g / self.mu
        with np.errstate(divide="ignore"):
            out = np.where(x > _LOG_HALF,
                           np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
        return scalar_out(out)

    def inverse_cdf(self, u):
        """Quantile function, -mu * log1p(-u) for u in (0, 1)."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(np.isnan(u)):
            raise DomainError("quantile argument must lie in (0, 1)")
        out = -self.mu * np.log1p(-u)
        return scalar_out(out)

    def inverse_survival(self, q):
        """Quantile at survival probability q in (0, 1]; exact for tiny q.

        Equals inverse_cdf(1 - q) but avoids forming 1 - q, which matters
        deep in the upper tail.
        """
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0.0) or np.any(q > 1.0) or np.any(np.isnan(q)):
            raise DomainError("survival argument must lie in (0, 1]")
        out = -self.mu * np.log(q)
        return scalar_out(out)


@dataclass(frozen=True)
class PerceptualDistribution:
    """The exponential gain law on [0, inf) seen through Prelec weighting."""

    base: ExponentialGain
    weights: WeightParams

    def pcdf(self, s):
        """Perceived CDF, w(F(s)). A valid CDF spanning 0 to 1; NaN raises.

        Evaluated through log F so the upper tail keeps full precision
        after F itself rounds to 1.
        """
        s = np.asarray(s, dtype=float)
        if np.any(np.isnan(s)):
            raise DomainError("pcdf argument must not be NaN")
        out = np.zeros(s.shape)
        inside = s > 0.0
        if np.any(inside):
            neg_log_f = -self.base.log_cdf(s[inside])
            out[inside] = np.exp(
                -self.weights.gamma * neg_log_f ** self.weights.theta)
        return scalar_out(out)

    def ppdf(self, s):
        """Perceived density, the derivative of :meth:`pcdf`.

        Defined strictly inside the support, wherever the base CDF is
        distinguishable from 0 and 1 in floating point. At the endpoints
        themselves only (integrable) limits exist and a DomainError is
        raised. The density is unbounded near the lower endpoint for
        theta < 1: overweighting of rare events piles perceived mass onto
        the far left tail.
        """
        s = np.asarray(s, dtype=float)
        if not np.all((s > 0.0) & (s < np.inf)):  # NaN fails both
            raise DomainError("ppdf is defined strictly inside the support")
        f_base = self.base.cdf(s)
        neg_log_f = -self.base.log_cdf(s)
        if np.any(f_base <= 0.0) or np.any(neg_log_f <= 0.0):
            raise DomainError(
                "ppdf: base CDF rounds to 0 or 1 here, only a limit exists")
        gp = self.weights
        out = (gp.gamma * gp.theta * np.exp(-gp.gamma * neg_log_f ** gp.theta)
               * neg_log_f ** (gp.theta - 1.0)
               * self.base.pdf(s) / f_base)
        return scalar_out(out)

    def perceptual_sample(self, u):
        """Deterministic inverse-transform sample at uniform variate u.

        Returned values have CDF :meth:`pcdf`. The base CDF of the sample
        is exp(-z) with z = ((-log u)/gamma)**(1/theta); each element is
        routed through whichever quantile keeps its small side exact, so
        neither u near 0 nor u near 1 collapses onto a support endpoint.
        Where z underflows to 0 (u near 1 with small theta), the gain is
        -mu*log z to double precision, with log z formed from u directly.
        """
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(np.isnan(u)):
            raise DomainError("uniform variate must lie in (0, 1)")
        gamma, theta = self.weights.gamma, self.weights.theta
        z = ((-np.log(u)) / gamma) ** (1.0 / theta)
        # clamps keep the unselected branch evaluable; the floors keep the
        # base probabilities representable when exp(-z) or z underflows
        surv = np.fmax(-np.expm1(-np.minimum(z, 1.0)), 5e-324)
        prob = np.fmax(np.exp(-np.maximum(z, 0.5)), 5e-324)
        out = np.where(z > _LOG2,
                       self.base.inverse_cdf(prob),
                       self.base.inverse_survival(surv))
        under = z == 0.0
        if np.any(under):
            log_z = (np.log(-np.log(u[under])) - np.log(gamma)) / theta
            out[under] = -self.base.mu * log_z
        return scalar_out(out)
