"""Monte Carlo oracle: distribution targeting, batching, reproducibility."""
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from percept import (CompositeMetric, DomainError, ExponentialGain, McConfig,
                     MultipathConfig, OutageSpec, PerceptualDistribution,
                     ReferencePoint, ValueParams, WeightParams, gain_samples,
                     mc_pop, mc_pu, outage_probability, pu_snr, rate_metric,
                     snr_metric, value, weight)
from percept import montecarlo
from percept.montecarlo import (_BATCH, _SLICE, _U_FLOOR, RNG_ALGORITHM,
                                _map_substreams, _slice_values,
                                _weighted_outage)
from percept.prospect import _scratch, _value_kernel
from support import EXP_CDF_1, POP_HALF, VP, VP_ID, WP, WP_ID, link


def make_pd(wp=WP, mu=1.0):
    return PerceptualDistribution(ExponentialGain(mu), wp)


# --- configuration and metadata ---------------------------------------------

def test_config_rejects_nonpositive_samples():
    for bad in (0, -5):
        with pytest.raises(DomainError):
            McConfig(samples=bad)


def test_config_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        McConfig(samples=10, seed=-1)


@pytest.mark.parametrize("samples, seed, field", [
    (2.5, 1, "samples"), (1.5, 0, "samples"), (10, 1.5, "seed")])
def test_config_rejects_fractional_counts(samples, seed, field):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        McConfig(samples, seed)


def test_config_accepts_numpy_integers():
    c = McConfig(np.int64(10), np.uint64(3))
    est = mc_pop(link(1.0), OutageSpec(1.0), WP, c)
    assert est.samples == 10


def test_pu_needs_two_samples_for_an_error_bar():
    with pytest.raises(DomainError):
        mc_pu(snr_metric(link(10.0), 4.0), make_pd(), VP, McConfig(samples=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho, ref, vp, wp, message", [
    # a single perceived value overflows
    pytest.param(10.0, 4.0, ValueParams(0.5, 1.0, 1e308), WP,
                 "perceived value overflows the float range", id="1e+308"),
    # every value is finite, but their sum overflows
    pytest.param(10.0, 4.0, ValueParams(0.5, 1.0, 1e306), WP,
                 "perceived value overflows the float range", id="1e+306"),
])
def test_pu_overflow_is_a_domain_error(rho, ref, vp, wp, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        mc_pu(snr_metric(link(rho), ref), make_pd(wp), vp,
              McConfig(samples=1000))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", [1000, _BATCH + 5],
                         ids=["one-slice", "two-batches"])
def test_pu_squared_deviations_past_the_float_range_are_scaled(samples):
    # every value (about 1e200 * gain) is finite, but the squares of their
    # deviations are not: the moments are kept scaled by 4**-k, so the bar
    # is finite and the estimate meets the quadrature's certified 1.0e200
    quad = pu_snr(link(1e200), 0.0, VP_ID, WP_ID, tol=1e188)
    est = mc_pu(snr_metric(link(1e200), 0.0), make_pd(WP_ID), VP_ID,
                McConfig(samples=samples))
    assert quad.value == pytest.approx(1e200, rel=1e-12)
    assert 0.0 < est.std_error < math.inf
    assert abs(est.mean - quad.value) <= 5.0 * est.std_error


def test_estimate_carries_generator_name():
    est = mc_pu(snr_metric(link(10.0), 4.0), make_pd(), VP,
                McConfig(samples=100))
    assert est.generator == RNG_ALGORITHM == "pcg64dxsm"
    assert est.samples == 100


# --- statistical correctness -------------------------------------------------

def test_constant_metric_has_zero_error():
    # at zero power the SNR is 0, below the reference for every draw
    est = mc_pu(snr_metric(link(0.0), 4.0), make_pd(), VP,
                McConfig(samples=1000))
    assert est.mean == pytest.approx(value(0.0, 4.0, VP), abs=1e-15)
    assert est.std_error <= 1e-15  # roundoff of the mean reduction only


@pytest.mark.parametrize("n", [1000, (1 << 15) + 1, _BATCH + 5])
def test_map_returning_one_constant_is_broadcast(n):
    # a reference of 0 at zero power values every draw 0, and a map that
    # returns one float values every draw value(3, 4) = -2; past one slice
    # or batch the merge of zero-variance moments must stay exact. So must
    # a constant 2**531 ~ 1.4e160 (a power of two, so its means are exact),
    # whose square overflows: the fold starts from the first moments
    three = CompositeMetric(lambda snr: 3.0, 10.0, ReferencePoint(4.0),
                            math.inf)
    huge = CompositeMetric(lambda snr: 2.0 ** 531, 10.0, ReferencePoint(0.0),
                           0.0)
    for metric, vp, want in ((snr_metric(link(0.0), 0.0), VP, 0.0),
                             (three, VP, -2.0), (huge, VP_ID, 2.0 ** 531)):
        est = mc_pu(metric, make_pd(), vp, McConfig(samples=n))
        assert est.mean == value(metric.map(1.0), metric.ref, vp) == want
        assert est.std_error == 0.0
        assert est.samples == n


def test_oracle_covers_theta_near_zero():
    # at theta = 0.01 the base probability z of u near 1 underflows to 0;
    # those draws take the gain from log z instead of failing
    wp = WeightParams(1.0, 0.01)
    quad_val = pu_snr(link(10.0), 4.0, VP, wp).value
    est = mc_pu(snr_metric(link(10.0), 4.0), make_pd(wp), VP,
                McConfig(samples=100_000, seed=1))
    assert abs(est.mean - quad_val) <= 5.0 * est.std_error


def test_classical_snr_mean_recovers_mean_snr():
    rho = 10.0
    est = mc_pu(snr_metric(link(rho), 0.0), make_pd(WP_ID), VP_ID,
                McConfig(samples=100_000, seed=3))
    assert abs(est.mean - rho) <= 3.0 * est.std_error


def test_oracle_agrees_with_quadrature_under_strict_params():
    lk = link(10.0)
    quad_val = pu_snr(lk, 4.0, VP, WP).value
    est = mc_pu(snr_metric(lk, 4.0), make_pd(), VP,
                McConfig(samples=200_000, seed=11))
    assert abs(est.mean - quad_val) <= 3.0 * est.std_error


def test_unbiased_across_seeds():
    rho = 10.0
    hits = 0
    for seed in range(50):
        est = mc_pu(snr_metric(link(rho), 0.0), make_pd(WP_ID), VP_ID,
                    McConfig(samples=10_000, seed=seed))
        hits += abs(est.mean - rho) <= 3.0 * est.std_error
    assert hits >= 48


def test_error_shrinks_as_root_n():
    args = (snr_metric(link(10.0), 4.0), make_pd(), VP)
    se_small = mc_pu(*args, McConfig(samples=10_000, seed=5)).std_error
    se_large = mc_pu(*args, McConfig(samples=1_000_000, seed=5)).std_error
    assert se_small / se_large == pytest.approx(10.0, rel=0.3)


# --- reproducibility and batching -------------------------------------------

def test_same_seed_is_bit_identical():
    args = (snr_metric(link(10.0), 4.0), make_pd(), VP)
    a = mc_pu(*args, McConfig(samples=50_000, seed=42))
    b = mc_pu(*args, McConfig(samples=50_000, seed=42))
    assert a == b


def test_different_seeds_differ():
    args = (snr_metric(link(10.0), 4.0), make_pd(), VP)
    a = mc_pu(*args, McConfig(samples=10_000, seed=1))
    b = mc_pu(*args, McConfig(samples=10_000, seed=2))
    assert a.mean != b.mean


def test_batched_merge_matches_single_pass_statistics():
    # three substreams (two full batches plus a remainder): replay the same
    # draws in one flat array and compare the pooled mean and error exactly
    n = 2 * _BATCH + 151_424
    seed = 9
    metric = snr_metric(link(10.0), 4.0)
    pd = make_pd()
    est = mc_pu(metric, pd, VP, McConfig(samples=n, seed=seed))

    sizes = [_BATCH, _BATCH, n - 2 * _BATCH]
    chunks = []
    for ss, m in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.Generator(np.random.PCG64DXSM(ss))
        u = np.fmax(rng.random(m), _U_FLOOR)
        chunks.append(value(metric.map(pd.perceptual_sample(u)),
                            metric.ref, VP))
    flat = np.concatenate(chunks)
    assert est.samples == n
    assert est.mean == pytest.approx(float(flat.mean()), rel=1e-12)
    assert est.std_error == pytest.approx(
        float(flat.std(ddof=1)) / math.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("theta", [1.0, 0.5, 0.65, 0.01])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.88])
@pytest.mark.parametrize("make_metric", [snr_metric, rate_metric],
                         ids=["snr", "rate"])
def test_slice_values_match_the_public_composition(make_metric, alpha, theta):
    # alpha of 1 and 0.5 and 1/theta of 1 and 2 take numpy's fast paths
    # of ** (alpha 2 and 1/theta 0.5 lie outside the parameter box);
    # theta = 0.01 makes z underflow to 0 for u near 1. The slices are
    # views of one batch's scratch set, run longest first so that each
    # later one finds the earlier's leftovers
    vp = ValueParams(alpha, 0.5, 2.0, mode="permissive")
    pd = make_pd(WeightParams(1.1, theta, mode="permissive"), mu=1.3)
    lk = link(10.0, mu=1.3)
    u0 = 0.3  # its metric is the reference: a deviation of exactly 0
    ref = make_metric(lk, 0.0).map(pd.perceptual_sample(u0))
    metric = make_metric(lk, ref)
    draws = np.random.default_rng(5).random(_SLICE)
    draws[:6] = u0, _U_FLOOR, 1.0 - 2.0**-53, 1.0 - 1e-9, 0.5, 1e-300
    np.fmax(draws, _U_FLOOR, out=draws)
    floats, scratch = np.empty((3, _SLICE)), _scratch(_SLICE)
    for n in (_SLICE - 1, 1, 5):
        u, z, out = floats[:, :n]
        u[:] = draws[:n]
        got = _slice_values(u, metric, pd, vp, out, z,
                            [a[:n] for a in scratch])
        omega = np.broadcast_to(metric.map(pd.perceptual_sample(draws[:n])),
                                (n,))
        want = value(omega, metric.ref, vp)
        assert got is out
        assert out.tobytes() == want.tobytes(), n
        assert u.tobytes() == draws[:n].tobytes()
        # the quadrature's form of the kernel, picked by np.where
        assert want.tobytes() == _value_kernel(
            omega, ref, alpha, 0.5, 2.0).tobytes()
        if n == 1:
            assert want[0] == 0.0
    if theta == 0.01:  # the draws near 1 took the gain from log z
        assert np.any((-np.log(draws) / 1.1) ** 100.0 == 0.0)


# --- block scheduling ---------------------------------------------------------

def test_cpus_without_an_affinity_call_counts_the_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert montecarlo._cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert montecarlo._cpus() == 1


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(montecarlo, "_cpus", lambda: n)


def test_blocks_come_back_in_order(monkeypatch):
    use_cpus(monkeypatch, 3)

    def block(i, rng, m):
        if i == 0:  # block 0 finishes after block 1
            assert second_done.wait(timeout=10), "block 1 did not run"
        elif i == 1:
            second_done.set()
        return i, m

    second_done = threading.Event()
    assert _map_substreams(block, 0, 10, 3) == [(0, 3), (1, 3), (2, 3),
                                                (3, 1)]
    assert second_done.is_set()


def test_lowest_failing_block_raises_even_when_a_later_one_fails_first(
        monkeypatch):
    use_cpus(monkeypatch, 3)
    later_failed = threading.Event()

    def block(i, rng, m):
        if i == 1:
            assert later_failed.wait(timeout=10)
            raise ValueError("block 1")
        if i == 2:
            later_failed.set()
            raise ValueError("block 2")
        return i

    with pytest.raises(ValueError, match="block 1"):
        _map_substreams(block, 0, 40, 4)


def test_no_block_starts_after_a_failure(monkeypatch):
    use_cpus(monkeypatch, 1)
    started = []

    def block(i, rng, m):
        started.append(i)
        if i == 1:
            raise ValueError("block 1")

    with pytest.raises(ValueError, match="block 1"):
        _map_substreams(block, 0, 40, 4)
    assert started == [0, 1]


def test_every_thread_is_joined(monkeypatch):
    use_cpus(monkeypatch, 3)
    before = threading.active_count()

    def block(i, rng, m):
        time.sleep(0.01)  # the last blocks outlast the calling thread's
        return threading.get_ident()

    seen = _map_substreams(block, 0, 60, 4)
    assert threading.active_count() == before
    assert len(set(seen)) <= 3


@pytest.mark.parametrize("cpus", [1, 8])
def test_one_block_starts_no_thread(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    before = threading.active_count()
    caller = threading.get_ident()
    seen = _map_substreams(
        lambda i, rng, m: (threading.get_ident(), threading.active_count()),
        0, 5, 8)
    assert seen == [(caller, before)]


def test_blocks_see_the_callers_error_state(monkeypatch):
    use_cpus(monkeypatch, 3)
    with np.errstate(divide="raise"):
        seen = _map_substreams(lambda i, rng, m: np.geterr()["divide"],
                               0, 12, 2)
    assert seen == ["raise"] * 6


def test_each_block_runs_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a block taken
    # twice or skipped shows in the run log or the results
    use_cpus(monkeypatch, 8)
    runs = []

    def block(i, rng, m):
        runs.append(i)
        return i, float(rng.random())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _map_substreams(block, 3, 400, 1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(400))
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_cpus", lambda: 1)
        assert got == _map_substreams(block, 3, 400, 1)


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BATCH", 4096)  # several blocks, cheap
    runs = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        runs.append((
            mc_pu(snr_metric(link(10.0), 4.0), make_pd(), VP,
                  McConfig(samples=20_001, seed=4)),
            mc_pop(link(5.0), OutageSpec(1.0), WP,
                   McConfig(samples=20_001, seed=4)),
            gain_samples(MultipathConfig(80, seed=4), 5 * 16384 + 7).tobytes()))
    assert runs[0] == runs[1]


def test_mc_pu_peak_memory(monkeypatch):
    # two workers, each with one batch's scratch set: four float arrays, one
    # int64 and one bool array of one slice, 41 bytes a sample
    use_cpus(monkeypatch, 2)
    args = (snr_metric(link(10.0), 4.0), make_pd(), VP, McConfig(10**6))
    mc_pu(*args)
    tracemalloc.start()
    try:
        mc_pu(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 41 * _SLICE + (64 << 10)


# --- weighted outage estimator ----------------------------------------------

def test_mc_pop_identity_recovers_outage():
    est = mc_pop(link(1.0), OutageSpec(1.0), WP_ID,
                 McConfig(samples=100_000, seed=7))
    assert abs(est.mean - EXP_CDF_1) <= 3.0 * est.std_error
    assert est.std_error > 0.0


def test_mc_pop_weighted_recovers_closed_form():
    est = mc_pop(link(1.0), OutageSpec(1.0), WeightParams(1.0, 0.5),
                 McConfig(samples=200_000, seed=13))
    assert abs(est.mean - POP_HALF) <= 3.0 * est.std_error


def test_mc_pop_no_observed_outages_pins_to_zero():
    # with mu = 1e308 most gains mu * g overflow to inf: no outage, no warning
    wp = WeightParams(1.0, 0.5)
    for lk in (link(1e9), link(1.0, mu=1e308)):
        est = mc_pop(lk, OutageSpec(1.0), wp, McConfig(samples=10_000, seed=0))
        assert est.mean == 0.0
        # the z = 1 Wilson bound 1/(n+1) on the weighted scale
        assert est.std_error == weight(1.0 / 10_001, wp) > 0.0


def test_mc_pop_all_outages_bar_reaches_the_wilson_bound():
    wp = WeightParams(1.0, 0.65)
    est = mc_pop(link(1.0), OutageSpec(1.0), wp, McConfig(samples=2, seed=0))
    assert est.mean == 1.0
    assert est.std_error == 1.0 - weight(2.0 / 3.0, wp)
    assert est.std_error == pytest.approx(0.4266, abs=1e-4)


def test_mc_pop_bar_covers_three_bars_of_the_binomial():
    # mc_pop's bar takes the count k of n draws; the cross-check accepts an
    # estimate within 3 bars. Summed over every k with the exact binomial
    # pmf, P(|w(k/n) - w(p)| <= 3 * bar) is at least 0.995 in each case.
    # The worst, 0.99533 at p = 1e-4, n = 10^3 (theta 0.3 and 0.1), is
    # P(k <= 1): from k = 2 on, w(k/n) is more than 3 bars from w(p). The
    # delta method it replaced was never higher in any of these 36 cases.
    for n in (10**3, 10**4, 10**5):
        k = np.arange(n + 1)
        lg = np.array([math.lgamma(i + 1) for i in range(n + 1)])
        log_binom = lg[n] - lg - lg[::-1]
        for theta in (0.65, 0.3, 0.1):
            wp = WeightParams(1.0, theta)
            w_hat, bar = _weighted_outage(k, n, wp)
            for p in (1e-4, 1e-3, 1e-2, 0.3):
                pmf = np.exp(log_binom + k * math.log(p)
                             + (n - k) * math.log1p(-p))
                inside = np.abs(w_hat - weight(p, wp)) <= 3.0 * bar
                assert pmf[inside].sum() >= 0.995, (n, theta, p)


def test_mc_pop_zero_power_is_certain_outage():
    wp = WeightParams(1.0, 0.5)
    est = mc_pop(link(0.0), OutageSpec(1.0), wp, McConfig(samples=500))
    assert est.mean == weight(1.0, wp) == 1.0
    assert est.std_error == 0.0
    assert est.samples == 500


def test_mc_pop_seed_reproducible():
    args = (link(1.0), OutageSpec(1.0), WeightParams(1.0, 0.65))
    a = mc_pop(*args, McConfig(samples=20_000, seed=4))
    b = mc_pop(*args, McConfig(samples=20_000, seed=4))
    c = mc_pop(*args, McConfig(samples=20_000, seed=5))
    assert a == b
    assert a.mean != c.mean


def test_mc_pop_tracks_true_outage_as_power_varies():
    wp = WeightParams(1.0, 0.65)
    for rho in (0.5, 2.0, 10.0):
        lk = link(rho)
        est = mc_pop(lk, OutageSpec(1.0), wp, McConfig(samples=100_000, seed=2))
        p_true = outage_probability(lk, OutageSpec(1.0))
        assert abs(est.mean - weight(p_true, wp)) <= 4.0 * est.std_error
