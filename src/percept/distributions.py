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
from .prospect import (WeightParams, _elementwise, _power, _scratch,
                       _select)

_LOG2 = float(np.log(2.0))
_TINY = float(np.finfo(float).tiny)  # smallest normal double


def _log1mexp(x, out=None, scratch=None):
    """log(1 - exp(-x)) for x >= 0, accurate in both tails; -inf at x = 0.

    log(-expm1(-x)) up to x = log 2 and log1p(-exp(-x)) above (Maechler
    2012), so neither tail loses precision before exp(-x) underflows.
    Given ``out`` (not ``x``) and a :func:`~percept.prospect._scratch` set
    of x's shape, both branches are formed in them and the result picked
    into ``out`` by :func:`~percept.prospect._select`, as the sampler's
    random draws need; without them np.where picks it, which is fast on
    sorted arguments.
    """
    tmp, bits, above = (None, None, None) if scratch is None else scratch
    with np.errstate(divide="ignore"):
        hi = np.log1p(np.negative(np.exp(np.negative(x, out=out), out=out),
                                  out=out), out=out)
        lo = np.log(np.negative(np.expm1(np.negative(x, out=tmp), out=tmp),
                                out=tmp), out=tmp)
    cond = np.greater(x, _LOG2, out=above)
    if scratch is None:
        return np.where(cond, hi, lo)
    return _select(cond, hi, lo, bits)


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
        # F = 0 below the support; g/mu = inf is the limit F = 1
        return -np.expm1(-np.maximum(g, 0.0) / self.mu)

    @_elementwise
    def pdf(self, g):
        # g/mu = inf is the limit f = 0
        return np.where(g < 0.0, 0.0, np.exp(-g / self.mu) / self.mu)

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

    def _exponent(self, x):
        """(-log F, t) at x = s/mu >= 0, so that w(F) = exp(-gamma*t).

        -log F is :func:`_log1mexp`'s, precise after F rounds to 1; t is
        (-log F)**theta, or exp(-theta*x) past x ~ 708, where -log F =
        exp(-x) is subnormal or 0."""
        neg_log_f = -_log1mexp(x)
        theta = self.weights.theta
        return neg_log_f, np.where(neg_log_f < _TINY, np.exp(-theta * x),
                                   neg_log_f ** theta)

    @_elementwise
    def pcdf(self, s):
        """Perceived CDF, w(F(s)), as :meth:`_exponent` gives it. A valid
        CDF spanning 0 to 1; NaN raises."""
        if np.any(np.isnan(s)):
            raise DomainError("pcdf argument must not be NaN")
        # s/mu = inf is the limit F = 1; log F = -inf on s <= 0, where the
        # perceived CDF is exp(-inf) = 0
        _, t = self._exponent(np.maximum(s, 0.0) / self.base.mu)
        return np.exp(-self.weights.gamma * t)

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
        neg_log_f, t = self._exponent(x)
        head = gp.gamma * gp.theta * np.exp(-gp.gamma * t)
        # both branches are formed everywhere; the power of a subnormal
        # -log F may overflow, and its product be NaN, where it is not used
        with np.errstate(invalid="ignore"):
            out = np.where(neg_log_f < _TINY, head * t / mu,
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
        if u.size and not (0.0 < u.min() and u.max() < 1.0):  # NaN fails
            raise DomainError("uniform variate must lie in (0, 1)")
        return self._sample(u, np.empty(u.shape), np.empty(u.shape),
                            _scratch(u.shape))

    def _sample(self, u, out, z, scratch):
        """:meth:`perceptual_sample` of an array ``u`` in (0, 1) written into
        ``out``, with ``z`` and a :func:`~percept.prospect._scratch` set of
        u's shape as scratch, under the caller's error state."""
        gamma, theta = self.weights.gamma, self.weights.theta
        # z = inf is the limit exp(-z) = 0
        np.divide(np.negative(np.log(u, out=z), out=z), gamma, out=z)
        _power(z, 1.0 / theta)
        log_q = _log1mexp(z, out, scratch)
        np.minimum(log_q, -5e-324, out=log_q)
        tmp, _, under = scratch
        if np.equal(z, 0.0, out=under).any():  # log z from u, there only
            t = np.log(u, out=tmp, where=under)
            np.log(np.negative(t, out=t, where=under), out=t, where=under)
            np.subtract(t, np.log(gamma), out=log_q, where=under)
            np.divide(log_q, theta, out=log_q, where=under)
        return np.multiply(-self.base.mu, log_q, out=log_q)
