"""Monte Carlo estimators used as the independent oracle for the quadrature.

Perceptual-utility estimates draw gains from the perceived law by
inverse-transform sampling, X = Finv(winv(U)) with U stratified, so the
sample mean of the valued metric targets the quadrature engine's integral
with no importance weights. Outage estimates use plain channel draws and
weight the empirical probability afterwards.

Sampling is batched; each batch owns a spawned substream of a PCG64DXSM
generator, so the merged estimate is reproducible bit for bit and
independent of how batches are scheduled. Batches run on up to one thread
per CPU the process may use (numpy releases the interpreter lock in its
ufuncs and generator fills), and within a batch the elementwise work runs
in cache-sized slices, each written into one scratch set per batch and
reduced to its moments as soon as it is drawn; each output element comes
from the same operations on the same inputs, and the slices and batches
are merged in the same order, whatever the thread count.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import PerceptualDistribution
from .errors import DomainError, _check_count, _check_size
from .metrics import CompositeMetric, LinkBudget, OutageSpec, rate_gain
from .prospect import (ValueParams, WeightParams, _check_value, _scratch,
                       _value, weight)

RNG_ALGORITHM = "pcg64dxsm"
_BATCH = 1 << 19
_SLICE = 1 << 15  # elementwise work per step: a few arrays fit in L2

# the smallest positive double and the largest below 1; a draw (j + U)/N
# is 0.0 at j = U = 0 and can round to 1.0 at j = N - 1
_U_FLOOR = 5e-324
_U_CAP = 1.0 - 2.0**-53


@dataclass(frozen=True)
class McConfig:
    """Sample count and reproducibility seed for one estimate."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        _check_size("samples", self.samples)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error, and provenance metadata."""

    mean: float
    std_error: float
    samples: int
    generator: str = RNG_ALGORITHM


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_substreams(fn, seed: int, total: int, size: int) -> list:
    """[fn(i, rng, draws) for each block of ``size`` of ``total`` draws].

    Block i (the last one holds the rest) draws from the PCG64DXSM
    substream of SeedSequence(seed, spawn_key=(i,)), which is child i of
    SeedSequence(seed), so its draws do not depend on ``total``; the
    generator is built when a thread takes the block. The blocks run on
    at most min(blocks, _cpus()) threads, the calling thread among them,
    so one block or one CPU starts no thread. Each started thread runs in
    a copy of the caller's context, which carries numpy's error state.
    Results come back in block order. If blocks fail, the error of the
    lowest-numbered failing block is raised: blocks are taken in order and
    none is taken after a failure, so every block below a failing one has
    run. Every thread is joined before this returns.
    """
    count = -(-total // size)
    results = [None] * count
    errors = {}
    pending = iter(range(count))
    taking = threading.Lock()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            with taking:
                i = next(pending, None)
            if i is None:
                return
            try:
                rng = np.random.Generator(np.random.PCG64DXSM(
                    np.random.SeedSequence(seed, spawn_key=(i,))))
                results[i] = fn(i, rng, min(size, total - i * size))
            except Exception as exc:  # re-raised in the calling thread
                errors[i] = exc
                stop.set()

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work,))
               for _ in range(min(count, _cpus()) - 1)]
    try:
        for t in threads:
            t.start()
        work()
    finally:
        stop.set()
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[min(errors)]
    return results


def _merge(a, b):
    """Chan et al. pooled (n, mean, M2/4**k, k) of two parts, ``a`` drawn
    first; the result takes the larger k. Scaling by a power of two is
    exact for normal doubles, so the bits are those of the unscaled M2."""
    (n_a, mean_a, m2_a, k_a), (n_b, mean_b, m2_b, k_b) = a, b
    n = n_a + n_b
    k = max(k_a, k_b)
    delta = math.ldexp(mean_b, -k) - math.ldexp(mean_a, -k)
    return (n, mean_a + (mean_b - mean_a) * (n_b / n),
            math.ldexp(m2_a, 2 * (k_a - k)) + math.ldexp(m2_b, 2 * (k_b - k))
            + delta * delta * (n_a * n_b / n), k)


def _slice_values(u, metric: CompositeMetric, pd: PerceptualDistribution,
                  value_params: ValueParams, out, z, scratch):
    """value(metric.map(pd.perceptual_sample(u)), metric.ref, value_params)
    written into ``out``, with ``z`` and a :func:`~percept.prospect._scratch`
    set of u's shape as scratch, for ``u`` in (0, 1) as :func:`mc_pu` draws
    it: the same kernels, value checks and error state, no allocations."""
    with np.errstate(divide="ignore", over="ignore"):
        pd._sample(u, out, z, scratch)
        # an ``of`` that returns one constant is broadcast
        np.copyto(out, metric.of(np.multiply(metric.rho, out, out=out)))
        return _value(out, metric.ref.x0, value_params, out, scratch)


def mc_pu(metric: CompositeMetric, pd: PerceptualDistribution,
          value_params: ValueParams, config: McConfig) -> McEstimate:
    """Sample-mean estimate of the perceptual utility of ``metric``.

    Draw j of N is (j + U)/N, one per stratum in order, with U from the
    block's substream, clamped into [_U_FLOOR, _U_CAP]. The standard error
    is plain sampling's sigma/sqrt(N), which a stratified mean's never
    exceeds in expectation.

    Each slice of draws is valued as :func:`value` values it, so a bad
    quantity or an overflowing value raises its DomainError, and its (n,
    mean, M2/4**k, k) is merged into the batch's in draw order, from the
    first slice's; the batches are merged the same way. k is the binary
    exponent of the slice's largest |value|, so the squared deviations
    cannot overflow and a finite mean has a finite standard error; a mean
    that overflows the float range raises. Each batch allocates one
    slice-sized scratch set, stratum indices included, for every slice.
    The draws increase along a slice, so for a nondecreasing metric each
    kernel pick is one run, and each branch is formed only on its own part
    of the slice (:func:`~percept.prospect._split`); any other order takes
    the masked copy, with the same bits.
    """
    if config.samples < 2:
        raise DomainError("perceptual-utility estimation needs >= 2 samples")

    def batch(i, rng, m):
        """(m, mean, M2/4**k, k) of one batch, merged slice by slice."""
        size = min(_SLICE, m)
        floats, scratch = np.empty((3, size)), _scratch(size)
        strata = np.arange(i * _BATCH, i * _BATCH + size, dtype=float)
        acc = None
        for lo in range(0, m, _SLICE):
            n = min(_SLICE, m - lo)
            u, z, vals = floats[:, :n]
            # consecutive draws read the same stream as one draw of m
            rng.random(out=u)
            u += strata[:n]
            u /= config.samples
            np.clip(u, _U_FLOOR, _U_CAP, out=u)
            strata += _SLICE
            _slice_values(u, metric, pd, value_params, vals, z,
                          [a[:n] for a in scratch])
            k = math.frexp(max(-float(vals.min()), float(vals.max())))[1]
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(vals.mean())
                dev = np.ldexp(vals, -k, out=z)
                dev -= math.ldexp(mean, -k)
                part = n, mean, float(np.square(dev, out=dev).sum()), k
            acc = part if acc is None else _merge(acc, part)
        return acc

    n, mean, m2, k = functools.reduce(_merge, _map_substreams(
        batch, config.seed, config.samples, _BATCH))
    _check_value(mean)  # finite values may sum past the range
    try:
        std_error = math.ldexp(math.sqrt(m2 / (n - 1) / n), k)
    except OverflowError:
        raise DomainError(
            "Monte Carlo standard error overflows the float range") from None
    return McEstimate(mean=mean, std_error=std_error, samples=n)


def mc_pop(link: LinkBudget, spec: OutageSpec, weight_params: WeightParams,
           config: McConfig) -> McEstimate:
    """Weighted empirical outage probability from plain channel draws.

    For k outages in n draws the estimate is w(k/n), and its bar is the
    larger distance to w of the z = 1 Wilson bounds on k/n, as
    :func:`_weighted_outage` forms them. At zero power the outage is
    certain and the bar is 0.
    """
    rho = link.pt_over_n0
    if rho == 0.0:
        return McEstimate(mean=weight(1.0, weight_params), std_error=0.0,
                          samples=config.samples)
    g_th = rate_gain(spec.epsilon, rho)

    def batch(i, rng, m):
        size = min(_SLICE, m)
        gains, below = np.empty(size), np.empty(size, bool)
        outages = 0
        for lo in range(0, m, _SLICE):
            n = min(_SLICE, m - lo)
            g = rng.standard_exponential(out=gains[:n])
            np.multiply(g, link.channel.mu, out=g)
            outages += int(np.count_nonzero(np.less(g, g_th, out=below[:n])))
        return outages

    n = config.samples
    with np.errstate(over="ignore"):  # a gain past the float range: no outage
        k = sum(_map_substreams(batch, config.seed, n, _BATCH))
    mean, std_error = _weighted_outage(k, n, weight_params)
    return McEstimate(mean=float(mean), std_error=float(std_error), samples=n)


def _weighted_outage(k, n: int, weight_params: WeightParams):
    """(w(k/n), bar) for ``k`` outages of ``n`` draws; ``k`` is an int or,
    elementwise, an integer array.

    The bar is the larger distance from w(k/n) to the weighted z = 1
    Wilson bounds (k + 1/2 -+ sqrt(k*(n-k)/n + 1/4)) / (n + 1), formed
    from the count: w is increasing, so no derivative is needed, and at k
    = 0 or n, where the binomial bar is 0, it is w(1/(n+1)) or
    1 - w(n/(n+1)).
    """
    root = np.sqrt(k * (n - k) / n + 0.25)
    lo, mean, hi = weight(np.array([(k + 0.5 - root) / (n + 1), k / n,
                                    (k + 0.5 + root) / (n + 1)]),
                          weight_params)
    return mean, np.maximum(hi - mean, mean - lo)
