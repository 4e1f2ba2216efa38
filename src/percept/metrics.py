"""Perceptual utility of link metrics and perceptual outage probability.

The perceptual utility (PU) of a composite metric Omega over the exponential
channel gain G is the expectation of the value function under the perceived
gain law,

    PU = integral over g of  v(Omega(g), ref) * ppdf(g) dg.

Omega is a function of the received SNR rho*g: the SNR itself or the rate
log2(1 + rho*g), each with the closed-form gain at which it meets the
reference.

Evaluated directly the integrand is nasty: the perceived density carries
endpoint singularities and the value function has an unbounded derivative at
the reference crossing. Substituting u = F(g) and then s = gamma*(-log u)**theta
turns the integral into

    PU = integral over s in (0, inf) of  h(s) * exp(-s) ds,
    h(s) = v(Omega(Finv(winv(exp(-s)))), ref),

with Finv the exponential quantile -mu * log(1 - u): an exponentially
weighted integrand with a kink at the image s* of the reference crossing,
and two endpoint singularities, log(1/s)**alpha at s = 0 (overweighted rare
events) and |s - s*|**alpha at the kink. For small theta nearly all of the
law maps close to s = gamma, the image of F(g) = 1/e, where the gain falls
steeply. Double-exponential rules crowd their nodes toward a piece's ends,
so they absorb both singularities and resolve the step when a piece ends
on each (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005): with the
breakpoints 0 < b1 < ... < bk drawn from s* and gamma, tanh-sinh on each
[lo, hi] of 0, b1, ..., bk, s = lo + (hi - lo)/(1 + exp(-2y)), and exp-sinh
on [bk, inf), s = bk + exp(y); y = (pi/2) sinh(tau). A breakpoint past
s = 745, where exp(-s) underflows, is left out.

Every piece samples tau on one fixed window, at step h0 on level 0; each
later level halves the step and adds only the odd nodes. A piece's
estimate is the sum I_L = h * sum(w * f), and its error |I_L - I_{L-1}|
plus a roundoff floor of 50 machine epsilons of h * sum(|w * f|). As
halving the step roughly squares the rule's error, the level difference
is pessimistic for I_L. A node one step h0 beyond either end of the
window weighs less than the floor (tests/test_metrics.py).

Each level's nodes are one array program for the pieces of every
unfinished point of a sweep together. The first program takes levels 0
to 3 at once: the whole window at step h0/8, 137 nodes per piece, whose
strided columns give I_0 ... I_3 by the same recursion, as no point stops
before level 3 on ordinary traffic. The factors of the nodes that do not
depend on the piece are built once per level, on first use.

The stopping rule is per point, so each point gets the value and the
evaluation count it would get alone: it stops, from level 3 on, when its
error meets tol, when its level difference is down to its floor, when its
next level would overrun its budget, or at the last level, of step
h0/4096. A tolerance below the floor cannot be certified; ToleranceNotMet
then carries the refined value.

Rate thresholds (2**r - 1) / rho are formed in log space past the float
range of 2**r, where they overflow to inf (an unreachable rate).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import ExponentialGain, PerceptualDistribution, _log1mexp
from .errors import (DomainError, PerceptError, ToleranceNotMet,
                     _check_count, _real)
from .prospect import (ReferencePoint, ValueParams, WeightParams,
                       _check_quantity, _check_value, _elementwise,
                       _value_kernel, as_reference)

DEFAULT_TOL = 1e-8
DEFAULT_BUDGET = 100_000

# the double-exponential rule samples tau in [_TAU_LO, _TAU_LO + _STEPS*_H0]
# at step _H0 / 2**L on level L = 0 ... _LAST_LEVEL; the first array
# program takes levels 0 ... _FIRST at once
_TAU_LO, _H0, _STEPS, _FIRST, _LAST_LEVEL = -4.5, 0.5, 17, 3, 12
_EPS = float(np.finfo(float).eps)
_INT64_MAX = int(np.iinfo(np.int64).max)  # caps a budget for int64 counts
# a breakpoint past this s is left out: exp(-s) underflows there
_S_MAX = 745.0
# below this z, log(1 - exp(-z)) = log z - z/2 to within z**2/24
_SMALL_Z = 1e-8
# per-piece parameters: the piece [lo, hi] (hi = inf on the last piece),
# then its point's law, weighting, value function, reference and power
_LO, _HI, _MU, _GAMMA, _THETA, _ALPHA, _GAIN, _LOSS, _X0, _RHO = range(10)


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
    """A link metric of the received SNR, the map g -> of(rho * g).

    ``of`` is nondecreasing and elementwise on arrays of SNRs; it may write
    its result into its argument, which is always a temporary. ``crossing``
    is the gain at which the metric meets its reference point: math.inf
    when it never does (all-loss), 0.0 when it is met on the whole support
    (all-gain). Built by :func:`snr_metric` and :func:`rate_metric`.
    """

    of: Callable
    rho: float
    ref: ReferencePoint
    crossing: float

    @_elementwise
    def map(self, g):
        return self.of(np.multiply(self.rho, g, out=np.empty(g.shape)))


def _gain_at(s, mu, gamma, theta):
    """Gain whose perceived CDF equals exp(-s); the substitution inverse.

    The base survival probability q = 1 - exp(-z), z = (s/gamma)**(1/theta),
    underflows to 0 for tiny s when theta is small, although its logarithm
    is an ordinary number. So log q is formed from log z there, and by
    :func:`_log1mexp` elsewhere; log z is (log s - log gamma) / theta
    where s / gamma underflows (gamma past about 8e292). The gain is the
    exponential law's quantile at survival q, -mu * log q. The parameters
    broadcast against ``s``. Called under :func:`pu_batch`'s error state,
    as log(0) and exp overflows are expected here.
    """
    log_z = np.log(s / gamma) / theta
    if log_z.min() == -np.inf:
        log_z = np.where(log_z == -np.inf,
                         (np.log(s) - np.log(gamma)) / theta, log_z)
    z = np.exp(log_z)
    log_q = _log1mexp(z)
    np.subtract(log_z, 0.5 * z, out=log_q, where=z < _SMALL_Z)
    return -mu * log_q


def _point(metric: CompositeMetric, mu: float, value_params: ValueParams,
           weight_params: WeightParams) -> tuple:
    """A point of :func:`pu_batch` as a flat row of floats: rows _MU ...
    _RHO of the piece table, then the metric's crossing gain g*."""
    return (mu, weight_params.gamma, weight_params.theta, value_params.alpha,
            value_params.lambda_gain, value_params.lambda_loss,
            metric.ref.x0, metric.rho, metric.crossing)


def _pieces(points) -> tuple:
    """The pieces [0, b1], ..., [bk, inf) of every point, in point order.

    Returns the parameter table, one column per piece with rows _LO ...
    _RHO, and each point's piece count. The breakpoints are the kink
    s* = gamma * (-log F(g*))**theta and gamma, where each lies in
    (0, 745]. log F(g*) of every point is taken in one array call, and
    rows _MU ... _RHO are each point's row repeated once per piece; only
    the ends are formed point by point. Called under :func:`pu_batch`'s
    error state: g*/mu may overflow to inf, the limit log F = 0.
    """
    table = np.array(points, dtype=float)
    log_f = _log1mexp(table[:, -1] / table[:, 0]).tolist()
    lo, hi, counts = [], [], []
    for point, lf in zip(points, log_f):
        gamma, theta, crossing = point[1], point[2], point[-1]
        breaks = {gamma}
        if 0.0 < crossing < math.inf:  # inf if F(g*) underflows to 0
            breaks.add(gamma * (-lf) ** theta)
        ends = [0.0, *sorted(s for s in breaks if 0.0 < s <= _S_MAX), math.inf]
        lo += ends[:-1]
        hi += ends[1:]
        counts.append(len(ends) - 1)
    counts = np.array(counts)
    par = np.empty((_RHO + 1, len(lo)))
    par[_LO], par[_HI] = lo, hi
    par[_MU:] = np.repeat(table[:, :-1].T, counts, axis=1)
    return par, counts


def _node_factors(tau):
    """The factors of the nodes ``tau`` that do not depend on the piece.

    With y = (pi/2) sinh(tau): 1 + exp(-2y), dy/dtau, 2 cosh(y)**2,
    exp(y) and dy/dtau * exp(y).
    """
    y = 0.5 * np.pi * np.sinh(tau)
    dy = 0.5 * np.pi * np.cosh(tau)
    ey = np.exp(y)
    return 1.0 + np.exp(-2.0 * y), dy, 2.0 * np.cosh(y) ** 2, ey, dy * ey


@functools.cache
def _level_nodes(level: int) -> tuple:
    """The layout of a level's array program: its nodes'
    :func:`_node_factors` and the ``(level, columns)`` pairs it completes.

    Level _FIRST takes the whole window at step h0 / 2**_FIRST and
    completes levels 0 ... _FIRST: level 0 from every 2**_FIRST-th node,
    each later one from the odd multiples of its own step. A later level
    takes only its own odd multiples of h0 / 2**level, in all columns.
    Built on first use, read-only.
    """
    if level == _FIRST:
        k = np.arange((_STEPS << level) + 1)
        levels = ((0, slice(0, None, 1 << level)),
                  *((lv, slice(1 << level - lv, None, 2 << level - lv))
                    for lv in range(1, level + 1)))
    else:
        k = np.arange(1, _STEPS << level, 2)
        levels = ((level, slice(None)),)
    nodes = _node_factors(_TAU_LO + _H0 / 2 ** level * k)
    for a in nodes:
        a.setflags(write=False)
    return nodes, levels


def _terms(fn, p, nodes):
    """The metric omega and the weight w at some nodes of some pieces.

    Piece r has parameters ``p[:, r]``; ``nodes`` are the nodes'
    :func:`_node_factors`. With y = (pi/2) sinh(tau), a piece is [lo, hi]
    under s = lo + (hi - lo)/(1 + exp(-2y)) if hi is finite, and [lo, inf)
    under s = lo + exp(y) if not. w = ds/dtau * exp(-s) is 0 at a node
    that rounds onto s = 0; where it is 0, so is omega.
    """
    one_e2y, dy, two_cosh2, ey, dy_ey = nodes
    lo, finite = p[_LO], p[_HI] < np.inf
    width = np.where(finite, p[_HI] - lo, 0.0)
    s = lo + ey
    np.add(lo, width / one_e2y, out=s, where=finite)
    ds = np.where(finite, width * dy / two_cosh2, dy_ey)
    w = ds * np.exp(-s)
    np.copyto(w, 0.0, where=s <= 0.0)
    g = _gain_at(s, p[_MU], p[_GAMMA], p[_THETA])
    return np.where(w > 0.0, fn(p[_RHO] * g), 0.0), w


def _pu_point(metric, mu, value_params, weight_params, tol, budget):
    """:func:`pu_batch` of one point; raises the point's PerceptError."""
    point = _point(metric, mu, value_params, weight_params)
    (out,) = pu_batch(metric.of, [point], tol, budget)
    if isinstance(out, PerceptError):
        raise out
    return out


# an overflow fails its point, so numpy's warnings would only repeat it;
# log(0) = -inf is a limit the substitution takes (_gain_at)
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def pu_batch(of: Callable, points, tol: float = DEFAULT_TOL,
             budget: int = DEFAULT_BUDGET) -> list:
    """Perceptual utility of every :func:`_point` row of ``points``, whose
    metrics all map the SNR by ``of``.

    Each level of the double-exponential rule evaluates the new nodes of
    the pieces of every unfinished point in one array program, the first
    program levels 0 to 3. Before each program a point checks that it fits
    in its own ``budget``, so it meets ``tol`` exactly as it would alone.
    Returns, in the order of ``points``, a PuResult whose ``abs_error`` is
    at most ``tol`` and whose ``evaluations`` count integrand nodes, never
    more than ``budget``; or the point's PerceptError, a ToleranceNotMet
    carrying the best value, its error estimate and the evaluation count
    when the estimate cannot be certified within ``budget``. A tolerance
    of inf accepts the first program, 137 nodes per piece; a budget below
    it fails with ToleranceNotMet and no evaluations.
    """
    try:
        if tol != math.inf:
            _real("tolerance", tol, 0.0, above=True)
        _check_count("budget", budget, -math.inf)
    except DomainError as exc:
        return [exc] * len(points)
    n = len(points)
    if n == 0:  # _pieces reads the last column of a 2-D table
        return []
    par, pieces = _pieces(points)
    # the pieces of each point in turn, so a point alone sums its pieces
    # in the same order
    owner = np.repeat(np.arange(n), pieces)
    out = [None] * n
    active = np.ones(n, dtype=bool)
    # per piece: its estimate and its mass h * sum(|w * f|) at the last
    # level, and its last level difference
    est_mass, diff = np.zeros((2, owner.size)), np.zeros(owner.size)
    evals = np.zeros(n, dtype=np.int64)
    cap = min(budget, _INT64_MAX)
    d = floor = np.zeros(n)  # each point's level difference and floor

    def fail(rows, bad, check, x):
        """Fail each point owning a ``bad`` row with ``check``'s error."""
        for j in np.unique(owner[rows[bad]]):
            try:
                check(x[owner[rows] == j])
            except DomainError as exc:
                out[j] = exc
                active[j] = False

    def refine(rows, nodes, levels):
        """Add the ``nodes`` of an array program to the pieces ``rows``;
        each ``(level, columns)`` of ``levels`` completes that level."""
        p = par[:, rows, None]
        omega, w = _terms(of, p, nodes)
        # a NaN omega fails these comparisons, as it fails the check
        if not 0.0 <= omega.min() <= omega.max() < np.inf:
            # the metric left the value function's domain
            bad = ~((omega >= 0.0) & (omega < np.inf)).all(axis=1)
            fail(rows, bad, _check_quantity, omega)
            omega[bad] = 0.0  # failed rows take no part below
        wf = np.empty((2, *w.shape))  # w * f and |w * f|
        np.multiply(_value_kernel(omega, p[_X0], p[_ALPHA], p[_GAIN],
                                  p[_LOSS]), w, out=wf[0])
        np.abs(wf[0], out=wf[1])
        em = est_mass[:, rows]
        for lv, c in levels:
            prev = em[0]
            em = 0.5 * em + _H0 / 2 ** lv * wf[:, :, c].sum(axis=2)
        est_mass[:, rows], diff[rows] = em, np.abs(em[0] - prev)
        if not math.isfinite(em[1].sum()):  # the value overflowed
            fail(rows, ~np.isfinite(em[1]), _check_value, em[1])

    for level in range(_FIRST, _LAST_LEVEL + 1):
        nodes, levels = _level_nodes(level)
        cost = pieces * nodes[0].size
        # a point runs a program only if it fits in its budget
        active &= evals + cost <= cap
        if not active.any():
            break
        refine(active[owner].nonzero()[0], nodes, levels)
        np.add(evals, cost, out=evals, where=active)
        # a point stops when its tolerance is met or when its level
        # difference is down to the roundoff floor
        d = np.bincount(owner, diff, n)
        floor = np.bincount(owner, 50 * _EPS * est_mass[1], n)
        active &= (tol < d + floor) & (floor < d)
    outcomes = zip(np.bincount(owner, est_mass[0], n).tolist(),
                   (d + floor).tolist(), floor.tolist(), evals.tolist())
    for j, (total, total_err, fl, ev) in enumerate(outcomes):
        if out[j] is not None:
            continue
        if not ev:  # stopped before its first program
            need = pieces[j] * _level_nodes(_FIRST)[0][0].size
            out[j] = ToleranceNotMet(
                f"budget {budget} is below the {need} evaluations of one "
                "pass", value=math.nan, abs_error=math.inf, evaluations=0)
            continue
        if total_err <= tol:
            out[j] = PuResult(value=total, abs_error=total_err,
                              evaluations=ev)
            continue
        why = (f"is below the roundoff floor {fl:g}" if fl > tol
               else "not certified")
        out[j] = ToleranceNotMet(
            f"requested abs tolerance {tol:g} {why}: error estimate "
            f"{total_err:g} after {ev} evaluations (budget {budget})",
            value=total, abs_error=total_err, evaluations=ev)
    return out


def rate_gain(rate: float, rho: float) -> float:
    """Gain (2**rate - 1) / rho at which log2(1 + rho*g) reaches ``rate``.

    Past the float range of 2**rate it is exp(rate*ln2 - ln rho), which is
    inf where that overflows too, as it is at zero power.
    """
    if rho == 0.0:
        return math.inf
    if rate < 1024.0:
        return (2.0 ** rate - 1.0) / rho
    with np.errstate(over="ignore"):
        return float(np.exp(rate * math.log(2.0) - math.log(rho)))


def _snr(x):
    return x


def _rate(x):
    return np.log2(np.add(1.0, x, out=x), out=x)


def snr_metric(link: LinkBudget, ref) -> CompositeMetric:
    """Instantaneous SNR, pt_over_n0 * g, with its analytic crossing."""
    rho = link.pt_over_n0
    ref = as_reference(ref)
    crossing = math.inf if rho == 0.0 else ref.x0 / rho
    return CompositeMetric(_snr, rho, ref, crossing)


def rate_metric(link: LinkBudget, ref) -> CompositeMetric:
    """Instantaneous rate log2(1 + pt_over_n0 * g) for unit bandwidth.

    The crossing solves log2(1 + rho*g) = ref, so g* = (2**ref - 1) / rho.
    """
    ref = as_reference(ref)
    return CompositeMetric(_rate, link.pt_over_n0, ref,
                           rate_gain(ref.x0, link.pt_over_n0))


def pu_snr(link: LinkBudget, ref, value_params: ValueParams,
           weight_params: WeightParams, tol: float = DEFAULT_TOL,
           budget: int = DEFAULT_BUDGET) -> PuResult:
    """Average perceived value of the instantaneous SNR."""
    return _pu_point(snr_metric(link, ref), link.channel.mu, value_params,
                     weight_params, tol, budget)


def pu_rate(link: LinkBudget, ref, value_params: ValueParams,
            weight_params: WeightParams, tol: float = DEFAULT_TOL,
            budget: int = DEFAULT_BUDGET) -> PuResult:
    """Average perceived value of the instantaneous transmission rate."""
    return _pu_point(rate_metric(link, ref), link.channel.mu, value_params,
                     weight_params, tol, budget)


def outage_probability(link: LinkBudget, spec: OutageSpec) -> float:
    """Probability that the instantaneous rate falls below the threshold.

    F_G((2**epsilon - 1) / pt_over_n0); 1 at zero power, where the
    threshold is unreachable.
    """
    return link.channel.cdf(rate_gain(spec.epsilon, link.pt_over_n0))


def pop(link: LinkBudget, spec: OutageSpec,
        weight_params: WeightParams) -> float:
    """Perceptual outage probability, the perceived CDF w(F(g_th))."""
    return PerceptualDistribution(link.channel, weight_params).pcdf(
        rate_gain(spec.epsilon, link.pt_over_n0))
