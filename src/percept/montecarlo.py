"""Monte Carlo estimators used as the independent oracle for the quadrature.

Perceptual-utility estimates draw gains directly from the perceived law by
inverse-transform sampling (X = Finv(winv(U))), so the plain sample mean of
the valued metric targets the same integral as the quadrature engine with no
importance weights. Outage estimates use plain channel draws and weight the
empirical probability afterwards.

Sampling is batched; each batch owns a spawned substream of a counter-based
Philox generator, so the merged estimate is reproducible bit for bit and
independent of how batches are scheduled. Batches run on up to one thread
per CPU the process may use (numpy releases the interpreter lock in its
ufuncs and generator fills), and within a batch the elementwise work runs
in cache-sized slices; each output element comes from the same operations
on the same inputs, and each batch is reduced and merged in the same order,
whatever the thread count.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import PerceptualDistribution
from .errors import DomainError, _check_count
from .metrics import CompositeMetric, LinkBudget, OutageSpec, rate_gain
from .prospect import (ValueParams, WeightParams, _check_quantity,
                       _check_value, _value_kernel, weight, weight_derivative)

RNG_ALGORITHM = "philox4x64"
_BATCH = 1 << 19
_SLICE = 1 << 15  # elementwise work per step: a few arrays fit in L2

# smallest positive double; keeps -log(u) finite if a uniform draw hits 0.0
_U_FLOOR = 5e-324


@dataclass(frozen=True)
class McConfig:
    """Sample count and reproducibility seed for one estimate."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        _check_count("samples", self.samples, 1)
        _check_count("seed", self.seed, 0)


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


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_substreams(fn, seed: int, total: int, size: int) -> list:
    """[fn(i, rng, draws) for each block of _substreams(seed, total, size)].

    The blocks run on at most min(blocks, _cpus()) threads, the calling
    thread among them, so one block or one CPU starts no thread. Each
    started thread runs in a copy of the caller's context, which carries
    numpy's error state. Results come back in block order. If blocks fail,
    the error of the lowest-numbered failing block is raised: blocks are
    taken in order and none is taken after a failure, so every block below
    a failing one has run. Every thread is joined before this returns.
    """
    blocks = _substreams(seed, total, size)
    results = [None] * len(blocks)
    errors = {}
    pending = iter(range(len(blocks)))
    taking = threading.Lock()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            with taking:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(i, *blocks[i])
            except Exception as exc:  # re-raised in the calling thread
                errors[i] = exc
                stop.set()

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work,))
               for _ in range(min(len(blocks), _cpus()) - 1)]
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
    vp = value_params
    blocks = -(-config.samples // _BATCH)
    # one batch-sized array per thread, allocated here, so the worker
    # threads' malloc arenas hold only slice temporaries after the call
    spare = [np.empty(min(config.samples, _BATCH))
             for _ in range(min(blocks, _cpus()))]

    def batch(i, rng, m):
        """(m, mean, M2) of one batch; checks in the order ``value`` runs."""
        # as many batches run at once as there are buffers, unless the
        # affinity set grew since they were made
        buf = spare.pop() if spare else np.empty(m)
        try:
            vals = buf[:m]
            for lo in range(0, m, _SLICE):
                # consecutive draws read the same stream as one draw of m
                u = rng.random(min(_SLICE, m - lo))
                np.fmax(u, _U_FLOOR, out=u)
                # a map that returns one constant broadcasts over its slice
                vals[lo:lo + _SLICE] = metric.map(pd.perceptual_sample(u))
            _check_quantity(vals)
            with np.errstate(over="ignore"):
                for lo in range(0, m, _SLICE):
                    vals[lo:lo + _SLICE] = _value_kernel(
                        vals[lo:lo + _SLICE], metric.ref.x0, vp.alpha,
                        vp.lambda_gain, vp.lambda_loss)
            _check_value(vals)
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(vals.mean())
                np.subtract(vals, mean, out=vals)
                return m, mean, float(np.square(vals, out=vals).sum())
        finally:
            spare.append(buf)

    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in _map_substreams(batch, config.seed,
                                             config.samples, _BATCH):
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

    def batch(i, rng, m):
        outages = 0
        for lo in range(0, m, _SLICE):
            gains = rng.standard_exponential(min(_SLICE, m - lo))
            outages += int(np.count_nonzero(gains * link.channel.mu < g_th))
        return outages

    outages = sum(_map_substreams(batch, config.seed, config.samples, _BATCH))
    n = config.samples
    p_hat = outages / n
    mean = float(weight(p_hat, weight_params))
    if 0.0 < p_hat < 1.0:
        se_p = math.sqrt(p_hat * (1.0 - p_hat) / n)
        std_error = float(weight_derivative(p_hat, weight_params)) * se_p
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, samples=n)
