"""Perceptual utility of link metrics and perceptual outage probability.

The perceptual utility (PU) of a composite metric Omega over the exponential
channel gain G is the expectation of the value function under the perceived
gain law,

    PU = integral over g of  v(Omega(g), ref) * ppdf(g) dg.

Evaluated directly the integrand is nasty: the perceived density carries
endpoint singularities and the value function has an unbounded derivative at
the reference crossing. Substituting u = F(g) and then s = gamma*(-log u)**theta
turns the integral into

    PU = integral over s in (0, inf) of  h(s) * exp(-s) ds,
    h(s) = v(Omega(Finv(winv(exp(-s)))), ref),

with Finv the exponential quantile -mu * log(1 - u). That is a smooth
exponentially weighted integrand with a single kink at the image s* of the
reference crossing. The two pieces [0, s*] and [s*, inf), the second
mapped onto t in [0, 1) by s = s* + t/(1-t), are integrated by an adaptive
7-point Gauss / 15-point Kronrod rule (the qk15 nodes of QUADPACK,
Piessens et al. 1983). The intervals of both pieces of every grid point
of a sweep share one table; each row records the point it belongs to, and
the point's parameters (s*, mu, gamma, theta, alpha, the lambdas, x0,
rho) are gathered per row. Each pass bisects, for every unfinished point,
its intervals with the largest error estimates, and evaluates the 15
nodes of every new interval of every point in one numpy call, so a sweep
takes about as many passes as its slowest point. An interval reports its
K15 value with the error estimate |K15 - G7|, which is pessimistic for
the K15 value, floored at 50 machine epsilons of the integral of |f| over
the interval for roundoff.

The stopping rule is per point, so each point gets the value and the
evaluation count it would get alone: it splits as many intervals as it
takes to leave at most tol/2, and stops when that is met, when its floors
alone exceed tol/2 and tol is met, when none of its intervals can shrink,
or when its next pass would overrun its budget. A tolerance below the
summed floors cannot be certified; the intervals not yet at their floor
are still refined, and ToleranceNotMet carries the refined value.

Rate thresholds (2**r - 1) / rho are formed in log space past the float
range of 2**r, where they overflow to inf (an unreachable rate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import ExponentialGain, PerceptualDistribution
from .errors import (DomainError, PerceptError, ToleranceNotMet,
                     _check_count, _real)
from .prospect import (ReferencePoint, ValueParams, WeightParams,
                       _check_quantity, _check_value, _value_kernel,
                       as_reference, weight)

DEFAULT_TOL = 1e-8
DEFAULT_BUDGET = 100_000

# QUADPACK qk15: the Kronrod abscissae in [0, 1) with their weights, and
# the Gauss weights of the 7-point rule, whose abscissae are the Kronrod
# ones with an odd index. Mirrored below into all 15 nodes on (-1, 1).
_XGK = [0.991455371120812639207, 0.949107912342758524526,
        0.864864423359769072790, 0.741531185599394439864,
        0.586087235467691130294, 0.405845151377397166907,
        0.207784955007898467601, 0.0]
_WGK = [0.022935322010529224964, 0.063092092629978553291,
        0.104790010322250183840, 0.140653259715525918745,
        0.169004726639267902827, 0.190350578064785409913,
        0.204432940075298892414, 0.209482141084727828013]
_WGAUSS = [0.129484966168869693271, 0.279705391489276667901,
           0.381830050505118944950, 0.417959183673469387755]
_XK = np.array([-x for x in _XGK] + _XGK[-2::-1])
_WK = np.array(_WGK + _WGK[-2::-1])
_WG = np.zeros_like(_XK)
_WG[1::2] = _WGAUSS + _WGAUSS[-2::-1]
_NODES = _XK.size
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_INT64_MAX = int(np.iinfo(np.int64).max)  # caps a budget for int64 counts
# below this z, log(1 - exp(-z)) = log z - z/2 to within z**2/24
_SMALL_Z = 1e-8
_LOG2 = math.log(2.0)
# rows of the interval table: the interval, its K15 value, error estimate
# and roundoff floor, the table member it belongs to, and 1.0 if it may
# still be split
_LO, _HI, _MAPPED, _VAL, _ERR, _FLOOR, _OWNER, _SPLIT = range(8)
# per-member parameters, gathered per interval row
_S_INF, _MU, _GAMMA, _THETA, _ALPHA, _GAIN, _LOSS, _X0, _RHO = range(9)
_NPAR = 9


@dataclass(frozen=True)
class LinkBudget:
    """Transmit-power-to-noise ratio (linear) plus the fading channel."""

    pt_over_n0: float
    channel: ExponentialGain

    def __post_init__(self):
        _real("pt_over_n0", self.pt_over_n0, 0.0)


@dataclass(frozen=True)
class OutageSpec:
    """Outage threshold on the instantaneous rate, in bits/s/Hz."""

    epsilon: float

    def __post_init__(self):
        _real("epsilon", self.epsilon, 0.0, above=True)


@dataclass(frozen=True)
class PuResult:
    """Perceptual-utility value with its quadrature error estimate."""

    value: float
    abs_error: float
    evaluations: int


@dataclass(frozen=True)
class CompositeMetric:
    """A monotone nondecreasing map from channel gain to a quantity metric.

    ``crossing`` is the gain at which the metric meets its reference point;
    pass None to have it located by bisection on the exponential law's
    support [0, inf). math.inf means the reference is never reached
    (all-loss), 0.0 that it is met on the whole support (all-gain).
    """

    map: Callable
    ref: ReferencePoint
    crossing: Optional[float] = None

    def crossing_point(self) -> float:
        if self.crossing is not None:
            return self.crossing
        x0 = self.ref.x0
        if self.map(0.0) >= x0:
            return 0.0
        # expand until the metric exceeds the reference or clearly never will
        probe = 1.0
        for _ in range(80):
            if self.map(probe) >= x0:
                return self._bisect(0.0, probe)
            probe *= 4.0
        return math.inf

    def _bisect(self, below: float, above: float) -> float:
        """Bisect down to adjacent floats; map(below) < x0 <= map(above)."""
        while True:
            mid = 0.5 * (below + above)
            if mid <= below or mid >= above:
                return above
            if self.map(mid) >= self.ref.x0:
                above = mid
            else:
                below = mid


def _gain_at(s, mu, gamma, theta):
    """Gain whose perceived CDF equals exp(-s); the substitution inverse.

    The base survival probability q = 1 - exp(-z), z = (s/gamma)**(1/theta),
    underflows to 0 for tiny s when theta is small, although its logarithm
    is an ordinary number. So log q is formed from log z there, from
    log(-expm1(-z)) up to z = ln 2, and from log1p(-exp(-z)) above, where
    q rounds to 1 long before log q underflows. The gain is the exponential
    law's quantile at survival q, -mu * log q. The parameters broadcast
    against ``s``.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_z = np.log(s / gamma) / theta
        z = np.exp(log_z)
    log_q = np.where(
        z < _SMALL_Z, log_z - 0.5 * z,
        np.where(z > _LOG2, np.log1p(-np.exp(-np.maximum(z, _LOG2))),
                 np.log(-np.expm1(-np.maximum(z, _SMALL_Z)))))
    return -mu * log_q


def _crossing_coordinate(base, wp: WeightParams, g_star: float) -> float:
    """Image s* of the reference crossing g* under the substitution."""
    if g_star <= 0.0:
        return math.inf  # gain everywhere
    if math.isinf(g_star):
        return 0.0  # loss everywhere
    neg_log_f = -base.log_cdf(g_star)
    if not np.isfinite(neg_log_f):  # F(g*) underflowed to 0
        return math.inf
    return wp.gamma * neg_log_f ** wp.theta


def pu_composite(metric: CompositeMetric, pd: PerceptualDistribution,
                 value_params: ValueParams, tol: float = DEFAULT_TOL,
                 budget: int = DEFAULT_BUDGET) -> PuResult:
    """Perceptual utility of ``metric`` under the perceived gain law.

    Returns the integral with an absolute error estimate not exceeding
    ``tol``; raises ToleranceNotMet, carrying the best value, its error
    estimate and the evaluation count, when the estimate cannot be
    certified within ``budget`` integrand evaluations. ``evaluations``
    counts integrand nodes and never exceeds ``budget``. ``metric.map``
    is called on arrays of gains. A batch of one for :func:`pu_batch`.
    """
    (out,) = pu_batch([(metric, pd, value_params)], tol, budget)
    if isinstance(out, PerceptError):
        raise out
    return out


def pu_batch(points, tol: float = DEFAULT_TOL,
             budget: int = DEFAULT_BUDGET) -> list:
    """Perceptual utility of every ``(metric, pd, value_params)`` point.

    Points whose metrics share a function of the received SNR share one
    interval table, each row recording the point it belongs to, and each
    pass refines every unfinished point in one array program. Each point
    meets ``tol`` within its own ``budget`` exactly as it would alone.
    Returns, in the order of ``points``, a PuResult or the PerceptError
    that :func:`pu_composite` raises for that point. A tolerance of inf
    accepts the first pass; a budget below it fails with ToleranceNotMet.
    """
    try:
        if tol != math.inf:
            _real("tolerance", tol, 0.0, above=True)
        _check_count("budget", budget, -math.inf)
    except DomainError as exc:
        return [exc] * len(points)
    out = [None] * len(points)
    families = {}
    for i, (metric, _, _) in enumerate(points):
        m = metric.map
        fn, rho = (m.of, m.rho) if isinstance(m, _OfSnr) else (m, 1.0)
        families.setdefault(id(fn), (fn, []))[1].append((i, rho))
    for fn, members in families.values():
        # an overflow fails its point (a non-finite metric or error
        # estimate), so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            _integrate(fn, [(i, rho, *points[i]) for i, rho in members],
                       tol, budget, out)
    return out


def _integrate(fn, members, tol: float, budget: int, out: list) -> None:
    """The adaptive G7/K15 rule on one table; fills ``out`` per member.

    Each member is (index into ``out``, rho, metric, pd, value_params), and
    its metric maps g to fn(rho * g).
    """
    n = len(members)
    par = np.zeros((_NPAR, n))
    evals = np.zeros(n, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    pieces = []
    for j, (i, rho, metric, pd, vp) in enumerate(members):
        base, wp = pd.base, pd.weights
        s_star = _crossing_coordinate(base, wp, metric.crossing_point())
        # the semi-infinite piece starts at the kink, or at 0 without one
        start = [(0.0, 1.0, 1.0, j)]
        if 0.0 < s_star < math.inf:
            start.insert(0, (0.0, s_star, 0.0, j))
        first = _NODES * len(start)
        if first > budget:
            out[i] = ToleranceNotMet(
                f"budget {budget} is below the {first} evaluations of one "
                "pass", value=math.nan, abs_error=math.inf, evaluations=0)
            continue
        evals[j] = first
        pieces += start
        active[j] = True
        par[:, j] = (s_star if math.isfinite(s_star) else 0.0, base.mu,
                     wp.gamma, wp.theta, vp.alpha, vp.lambda_gain,
                     vp.lambda_loss, metric.ref.x0, rho)
    if not pieces:
        return

    def fail(owner, bad, check, x):
        """Fail each member owning a ``bad`` row with ``check``'s error."""
        for j in np.unique(owner[bad]).astype(np.intp):
            try:
                check(x[owner == j])
            except DomainError as exc:
                out[members[j][0]] = exc
                active[j] = False

    def rule(lo, hi, mapped, owner):
        """Table rows of the given intervals (see _LO ... _SPLIT).

        ``mapped`` is 1.0 for intervals of the semi-infinite piece, whose
        coordinate is t, and 0.0 for intervals of [0, s*] in s itself. A
        member whose metric leaves the value function's domain fails, and
        so does one whose value or integral overflows.
        """
        p = par[:, owner.astype(np.intp), None]
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _XK
        on_t = mapped[:, None] > 0.0
        # a node rounding to t = 1 sits at s = inf, where the integrand is 0
        inside = ~on_t | (x < 1.0)
        t = np.where(on_t & inside, x, 0.0)
        s = np.where(on_t, p[_S_INF] + t / (1.0 - t), x)
        jac = np.where(on_t, 1.0 / (1.0 - t) ** 2, 1.0)
        omega = fn(p[_RHO] * _gain_at(s, p[_MU], p[_GAMMA], p[_THETA]))
        if np.ndim(omega) == 0:  # a map may return one constant
            omega = np.full(s.shape, omega, dtype=float)
        ok = (omega >= 0.0) & (omega < np.inf)
        if not ok.all():
            bad = ~ok.all(axis=1)
            fail(owner, bad, _check_quantity, omega)
            # rows of failed members take no part in the arithmetic below
            omega[bad] = 0.0
        v = _value_kernel(omega, p[_X0], p[_ALPHA], p[_GAIN], p[_LOSS])
        f = np.where(inside, v * np.exp(-s) * jac, 0.0)
        kron = half * (f @ _WK)
        floor = 50.0 * _EPS * half * (np.abs(f) @ _WK)
        err = np.maximum(np.abs(kron - half * (f @ _WG)), floor)
        if not np.isfinite(err).all():  # the value or its integral overflowed
            fail(owner, ~np.isfinite(err), _check_value, err)
        # splitting cannot shrink an error at its roundoff floor, nor an
        # interval as narrow as the float spacing
        split = (err > floor) & (hi - lo > 8.0 * _EPS * hi + _TINY)
        return np.stack([lo, hi, mapped, kron, err, floor, owner, split])

    iv = rule(*np.array(pieces).T)
    target = 0.5 * tol
    while True:
        err, floor, owner = iv[_ERR], iv[_FLOOR], iv[_OWNER]
        own = owner.astype(np.intp)
        err_sum = np.bincount(own, err, n)
        floor_sum = np.bincount(own, floor, n)
        # a member stops when its target is met, when roundoff alone
        # exceeds it and the tolerance is met, when none of its intervals
        # can be split, or when its next pass would overrun the budget
        active &= (target < err_sum) & ((floor_sum <= target)
                                        | (tol < err_sum))
        cand = np.flatnonzero(active[own] & (iv[_SPLIT] > 0.0))
        # per member, largest errors first, as many as it takes to leave
        # <= target, or <= the summed floors once those exceed it
        cand = cand[np.lexsort((-err[cand], own[cand]))]
        who = own[cand]
        count = np.bincount(who, minlength=n)
        rank = np.arange(cand.size) - (np.cumsum(count) - count)[who]
        by_member = np.zeros((n, count.max(initial=0)))
        by_member[who, rank] = err[cand]
        left = err_sum[who] - np.cumsum(by_member, axis=1)[who, rank]
        goal = np.maximum(target, floor_sum)[who]
        need = np.bincount(who, left > goal, n).astype(np.int64) + 1
        k = np.minimum(np.minimum(need, count),
                       (min(budget, _INT64_MAX) - evals) // (2 * _NODES))
        active &= k > 0
        if not active.any():
            break
        pick = cand[rank < k[who]]
        evals += 2 * _NODES * k
        # the survivors keep their order, then all left halves, then all
        # right halves: each member's rows stay in the order they have when
        # it runs alone, which fixes its sums and its ties
        halves = iv[:_OWNER + 1, np.concatenate([pick, pick])]
        mid = 0.5 * (halves[_LO, :pick.size] + halves[_HI, :pick.size])
        halves[_HI, :pick.size] = mid
        halves[_LO, pick.size:] = mid
        keep = np.ones(iv.shape[1], dtype=bool)
        keep[pick] = False
        iv = np.concatenate([iv[:, keep], rule(halves[_LO], halves[_HI],
                                               halves[_MAPPED],
                                               halves[_OWNER])], axis=1)
    own = iv[_OWNER].astype(np.intp)
    totals = np.bincount(own, iv[_VAL], n)
    errors = np.bincount(own, iv[_ERR], n)
    floors = np.bincount(own, iv[_FLOOR], n)
    for j, (i, *_) in enumerate(members):
        if out[i] is not None:
            continue
        total, total_err = float(totals[j]), float(errors[j])
        if total_err <= tol:
            out[i] = PuResult(value=total, abs_error=total_err,
                              evaluations=int(evals[j]))
            continue
        why = (f"is below the roundoff floor {floors[j]:g}"
               if floors[j] > tol else "not certified")
        out[i] = ToleranceNotMet(
            f"requested abs tolerance {tol:g} {why}: error estimate "
            f"{total_err:g} after {evals[j]} evaluations (budget {budget})",
            value=total, abs_error=total_err, evaluations=int(evals[j]))


def rate_gain(rate: float, rho: float) -> float:
    """Gain (2**rate - 1) / rho at which log2(1 + rho*g) reaches ``rate``.

    Past the float range of 2**rate it is exp(rate*ln2 - ln rho), which is
    inf where that overflows too. ``rho`` must be positive.
    """
    if rate < 1024.0:
        return (2.0 ** rate - 1.0) / rho
    with np.errstate(over="ignore"):
        return float(np.exp(rate * math.log(2.0) - math.log(rho)))


@dataclass(frozen=True)
class _OfSnr:
    """The map g -> of(rho * g) of a metric of the received SNR rho*g.

    pu_batch integrates all points that share ``of`` in one table, with
    ``rho`` gathered per interval.
    """

    of: Callable
    rho: float

    def __call__(self, g):
        return self.of(self.rho * g)


def _snr(x):
    return x


def _rate(x):
    return np.log2(1.0 + x)


def snr_metric(link: LinkBudget, ref) -> CompositeMetric:
    """Instantaneous SNR, pt_over_n0 * g, with its analytic crossing."""
    rho = link.pt_over_n0
    ref = as_reference(ref)
    crossing = math.inf if rho == 0.0 else ref.x0 / rho
    return CompositeMetric(map=_OfSnr(_snr, rho), ref=ref, crossing=crossing)


def rate_metric(link: LinkBudget, ref) -> CompositeMetric:
    """Instantaneous rate log2(1 + pt_over_n0 * g) for unit bandwidth.

    The crossing solves log2(1 + rho*g) = ref, so g* = (2**ref - 1) / rho.
    """
    rho = link.pt_over_n0
    ref = as_reference(ref)
    crossing = math.inf if rho == 0.0 else rate_gain(ref.x0, rho)
    return CompositeMetric(map=_OfSnr(_rate, rho), ref=ref,
                           crossing=crossing)


def pu_snr(link: LinkBudget, ref, value_params: ValueParams,
           weight_params: WeightParams, tol: float = DEFAULT_TOL,
           budget: int = DEFAULT_BUDGET) -> PuResult:
    """Average perceived value of the instantaneous SNR."""
    pd = PerceptualDistribution(link.channel, weight_params)
    return pu_composite(snr_metric(link, ref), pd, value_params, tol, budget)


def pu_rate(link: LinkBudget, ref, value_params: ValueParams,
            weight_params: WeightParams, tol: float = DEFAULT_TOL,
            budget: int = DEFAULT_BUDGET) -> PuResult:
    """Average perceived value of the instantaneous transmission rate."""
    pd = PerceptualDistribution(link.channel, weight_params)
    return pu_composite(rate_metric(link, ref), pd, value_params, tol, budget)


def outage_probability(link: LinkBudget, spec: OutageSpec) -> float:
    """Probability that the instantaneous rate falls below the threshold.

    F_G((2**epsilon - 1) / pt_over_n0); defined as 1 at zero power, where
    the threshold is unreachable.
    """
    rho = link.pt_over_n0
    if rho == 0.0:
        return 1.0
    return link.channel.cdf(rate_gain(spec.epsilon, rho))


def pop(link: LinkBudget, spec: OutageSpec,
        weight_params: WeightParams) -> float:
    """Perceptual outage probability, the Prelec-weighted outage."""
    return float(weight(outage_probability(link, spec), weight_params))
