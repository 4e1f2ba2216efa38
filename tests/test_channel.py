"""Multipath simulator: normalization, convergence to the exponential law."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from percept import (DomainError, MultipathConfig, channel, draw_channel,
                     gain_samples, montecarlo)
from support import exponential_cdf, sup_distance


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


def test_draws_do_not_depend_on_the_slice_size(monkeypatch):
    # one row, three rows of K = 7 plus a remainder of 2, and 2**16 path
    # draws per slice; 1000-draw chunks put a short chunk and a short last
    # slice in the draw
    monkeypatch.setattr(channel, "_CHUNK", 1000)
    cfg = MultipathConfig(k_paths=7, seed=9)
    want = draw_channel(cfg, 3001).tobytes()
    for size in (1, 3 * 7 + 2, 1 << 16):
        monkeypatch.setattr(channel, "_SLICE", size)
        assert draw_channel(cfg, 3001).tobytes() == want, size


def test_gain_samples_peak_memory(monkeypatch):
    # two threads, as README's figure: two chunks' scratch at a time, next
    # to the 1.6 MB of coefficients
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    cfg = MultipathConfig(64)
    gain_samples(cfg, 10**5)
    tracemalloc.start()
    try:
        gain_samples(cfg, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


# --- accuracy against 40-digit mpmath -----------------------------------------

U = 2.0**-53  # unit roundoff of a double
# One phasor exp(-2j*pi*u). With q = rint(4u), 4u and q - 4u are exact
# (|q - 4u| <= 1/2), and so is the product of (-j)**q with cos r + j*sin r.
# Only these round:
# - r = fl(fl(pi/2) * (q - 4u)), by at most |pi/2 - fl(pi/2)| / 2 = 3.1e-17
#   and half an ulp of |r| <= pi/4 < 1, U / 2;
# - cos r and sin r, taken to be within one ulp of their values at r; both
#   lie below 1 there, so each errs by at most U.
# The phasor then errs by at most the angle's error plus sqrt(2) * U.
with mpmath.workdps(40):
    HALF_PI_ERROR = float(abs(mpmath.pi / 2 - mpmath.mpf(np.pi / 2)))
PHASOR = HALF_PI_ERROR / 2 + U / 2 + math.sqrt(2) * U


def coefficient_bound(k: int, scale: float) -> float:
    """|H - amp * sum exp(-2j*pi*u)| allowed for one coefficient.

    Each part of the sum of K phasors, in any order, errs by at most
    gamma(K - 1) times the sum of the parts' magnitudes, and those sum to
    at most sqrt(2) * K. amp = scale / sqrt(K) rounds twice and amp * S
    once per part: 3 U relative to amp * K, except at K = 1 and scale 1,
    where amp is 1 and nothing rounds. The first-order terms add up; the
    factor 1 + 1e-12 covers the higher ones, at most 1e-14 of them here.
    """
    gamma = (k - 1) * U / (1 - (k - 1) * U)
    scaling = 0.0 if (k, scale) == (1, 1.0) else 3 * U
    first = PHASOR + math.sqrt(2) * gamma + scaling
    return scale * math.sqrt(k) * first * (1 + 1e-12)


@pytest.mark.parametrize("k", [1, 7, 64])
def test_coefficients_match_mpmath(monkeypatch, k):
    # a wrong quarter-turn or the sign of sin (H -> conj H) leaves |H|**2
    # and every law test unchanged; here it errs by about amp. The chunk
    # size does not enter the arithmetic, and 32-draw chunks keep the
    # reference to a few thousand phasors
    monkeypatch.setattr(channel, "_CHUNK", 32)
    seed, sizes = 11, (32, 9)  # all of chunk 0, part of chunk 1
    u = np.concatenate([np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed, spawn_key=(i,)))).random((m, k))
        for i, m in enumerate(sizes)])
    with mpmath.workdps(40):
        exact = [mpmath.fsum(mpmath.expjpi(-2 * mpmath.mpf(x)) for x in row)
                 for row in u]
        for scale in (1.0, 0.3):
            h = draw_channel(MultipathConfig(k, scale, seed), sum(sizes))
            amp = scale / mpmath.sqrt(k)
            err = max(abs(mpmath.mpc(z.real, z.imag) - amp * s)
                      for z, s in zip(h, exact))
            assert err <= coefficient_bound(k, scale), (scale, float(err))


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


def test_few_paths_visibly_deviate():
    # K=2 gains live on [0, 2] with an arcsine-like law, far from Exp(1);
    # criterion 7 holds K=64 within 0.01 of it
    def distance(k):
        g = gain_samples(MultipathConfig(k_paths=k, seed=0), 100_000)
        return sup_distance(np.sort(g), exponential_cdf(1.0))

    many, few = distance(64), distance(2)
    assert few > 0.05
    assert few > many


def test_phase_is_uniform():
    cfg = MultipathConfig(k_paths=64, amplitude_scale=1.0, seed=3)
    h = draw_channel(cfg, 100_000)
    phases = np.sort(np.mod(np.angle(h), 2.0 * np.pi)) / (2.0 * np.pi)
    assert sup_distance(phases, lambda u: u) < 0.01
