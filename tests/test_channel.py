"""Multipath simulator: normalization, convergence to the exponential law."""
import numpy as np
import pytest

from percept import (DomainError, ExponentialGain, MultipathConfig,
                     draw_channel, gain_samples)


def ks_against_exponential(gains, mu):
    """Sup distance between the empirical CDF and the Exp(mu) CDF."""
    g = np.sort(gains)
    model = ExponentialGain(mu).cdf(g)
    n = g.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(upper - model, model - lower)))


# --- validation ---------------------------------------------------------------

def test_rejects_bad_configs():
    with pytest.raises(DomainError):
        MultipathConfig(k_paths=0)
    with pytest.raises(DomainError):
        MultipathConfig(k_paths=4, amplitude_scale=0.0)
    with pytest.raises(DomainError):
        MultipathConfig(k_paths=4, amplitude_scale=-1.0)
    with pytest.raises(DomainError, match="seed"):
        MultipathConfig(k_paths=4, seed=-1)
    # |H|**2 reaches k_paths * scale**2, the 0.95 quantile 3 * scale**2
    with pytest.raises(DomainError, match=r"\(k_paths \+ 3\) \* scale"):
        MultipathConfig(k_paths=8, amplitude_scale=1e154)
    with pytest.raises(DomainError, match=r"\(k_paths \+ 3\) \* scale"):
        MultipathConfig(k_paths=1, amplitude_scale=1.3e154)
    with pytest.raises(DomainError, match="k_paths must be an integer"):
        MultipathConfig(k_paths=2.5)
    with pytest.raises(DomainError, match="seed must be an integer"):
        MultipathConfig(k_paths=4, seed=1.5)


@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_rejects_a_scale_whose_mean_gain_leaves_the_float_range(scale):
    # scale**2 overflows to inf or underflows to 0
    with pytest.raises(DomainError, match=r"mean gain scale\*\*2"):
        MultipathConfig(k_paths=8, amplitude_scale=scale)


def test_rejects_nonpositive_sample_count():
    with pytest.raises(DomainError):
        draw_channel(MultipathConfig(k_paths=4), 0)


def test_rejects_a_fractional_sample_count():
    with pytest.raises(DomainError, match="sample count must be an integer"):
        draw_channel(MultipathConfig(k_paths=4), 2.5)


@pytest.mark.filterwarnings("error")
def test_largest_accepted_scale_gives_finite_gains():
    # (k_paths + 3) * scale**2 sits just inside the float range
    k = 8
    scale = float(np.sqrt(np.finfo(float).max / (k + 3))) * (1 - 1e-15)
    assert np.all(np.isfinite(gain_samples(MultipathConfig(k, scale), 1000)))


# --- deterministic structure ---------------------------------------------------

def test_single_path_has_unit_magnitude():
    h = draw_channel(MultipathConfig(k_paths=1, amplitude_scale=1.0), 1000)
    np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-12)


def test_seed_reproducibility():
    cfg = MultipathConfig(k_paths=8, seed=21)
    a = draw_channel(cfg, 5000)
    b = draw_channel(cfg, 5000)
    c = draw_channel(MultipathConfig(k_paths=8, seed=22), 5000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunked_generation_is_offset_invariant():
    # the first m draws are the same regardless of total request size
    cfg = MultipathConfig(k_paths=8, seed=21)
    short = draw_channel(cfg, 10_000)
    long = draw_channel(cfg, 40_000)
    np.testing.assert_array_equal(short, long[:10_000])


# --- statistical convergence ---------------------------------------------------

def test_coefficient_is_zero_mean():
    cfg = MultipathConfig(k_paths=16, amplitude_scale=1.0, seed=0)
    h = draw_channel(cfg, 100_000)
    assert abs(h.mean()) < 4.0 / np.sqrt(h.size)


def test_mean_gain_matches_scale_squared():
    for scale in (1.0, 2.0):
        cfg = MultipathConfig(k_paths=32, amplitude_scale=scale, seed=1)
        g = gain_samples(cfg, 1_000_000)
        assert g.mean() == pytest.approx(scale**2, abs=0.004 * scale**2)


def test_gain_variance_matches_exponential_law():
    # Exp(mu) has variance mu^2
    cfg = MultipathConfig(k_paths=64, amplitude_scale=1.0, seed=2)
    g = gain_samples(cfg, 1_000_000)
    assert g.var(ddof=1) == pytest.approx(1.0, abs=0.02)


def test_many_paths_match_exponential_gain_law():
    cfg = MultipathConfig(k_paths=64, amplitude_scale=1.0, seed=0)
    g = gain_samples(cfg, 100_000)
    assert ks_against_exponential(g, mu=1.0) < 0.01


def test_few_paths_visibly_deviate():
    # K=2 gains live on [0, 2] with an arcsine-like law, far from Exp(1)
    many = ks_against_exponential(
        gain_samples(MultipathConfig(k_paths=64, seed=0), 100_000), 1.0)
    few = ks_against_exponential(
        gain_samples(MultipathConfig(k_paths=2, seed=0), 100_000), 1.0)
    assert few > 0.05
    assert few > many


def test_phase_is_uniform():
    cfg = MultipathConfig(k_paths=64, amplitude_scale=1.0, seed=3)
    h = draw_channel(cfg, 100_000)
    phases = np.sort(np.mod(np.angle(h), 2.0 * np.pi)) / (2.0 * np.pi)
    n = phases.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    sup = np.max(np.maximum(upper - phases, phases - lower))
    assert sup < 0.01
