"""Monte Carlo oracle: distribution targeting, batching, reproducibility."""
import math

import numpy as np
import pytest

from percept import (DomainError, ExponentialGain, LinkBudget, McConfig,
                     McEstimate, OutageSpec, PerceptualDistribution,
                     ValueParams, WeightParams, mc_pop, mc_pu,
                     outage_probability, pu_snr, snr_metric, value, weight)
from percept.montecarlo import _BATCH, _U_FLOOR, RNG_ALGORITHM

VP = ValueParams(0.5, 1.0, 2.0)
WP = WeightParams(1.0, 0.8)
VP_ID = ValueParams(1.0, 1.0, 1.0, mode="permissive")
WP_ID = WeightParams(1.0, 1.0, mode="permissive")

EXP_CDF_1 = 0.63212055882855768
POP_HALF = 0.50800926251670411


def link(rho, mu=1.0):
    return LinkBudget(rho, ExponentialGain(mu))


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


def test_pu_needs_two_samples_for_an_error_bar():
    with pytest.raises(DomainError):
        mc_pu(snr_metric(link(10.0), 4.0), make_pd(), VP, McConfig(samples=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lambda_loss", [
    1e308,  # a single perceived value overflows
    1e306,  # every value is finite, but their sum overflows
])
def test_pu_overflow_is_a_domain_error(lambda_loss):
    with pytest.raises(DomainError, match="overflows the float range"):
        mc_pu(snr_metric(link(10.0), 4.0), make_pd(),
              ValueParams(0.5, 1.0, lambda_loss), McConfig(samples=1000))


def test_estimate_carries_generator_name():
    est = mc_pu(snr_metric(link(10.0), 4.0), make_pd(), VP,
                McConfig(samples=100))
    assert est.generator == RNG_ALGORITHM == "philox4x64"
    assert est.samples == 100


# --- statistical correctness -------------------------------------------------

def test_constant_metric_has_zero_error():
    from percept import CompositeMetric, as_reference
    m = CompositeMetric(map=lambda g: np.ones_like(np.asarray(g, float)),
                        ref=as_reference(4.0), crossing=math.inf)
    est = mc_pu(m, make_pd(), VP, McConfig(samples=1000))
    assert est.mean == pytest.approx(value(1.0, 4.0, VP), abs=1e-15)
    assert est.std_error <= 1e-15  # roundoff of the mean reduction only


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
        rng = np.random.Generator(np.random.Philox(ss))
        u = np.fmax(rng.random(m), _U_FLOOR)
        chunks.append(value(metric.map(pd.perceptual_sample(u)),
                            metric.ref, VP))
    flat = np.concatenate(chunks)
    assert est.samples == n
    assert est.mean == pytest.approx(float(flat.mean()), rel=1e-12)
    assert est.std_error == pytest.approx(
        float(flat.std(ddof=1)) / math.sqrt(n), rel=1e-12)


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
    est = mc_pop(link(1e9), OutageSpec(1.0), WeightParams(1.0, 0.5),
                 McConfig(samples=10_000, seed=0))
    assert est.mean == 0.0
    assert est.std_error == 0.0


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
