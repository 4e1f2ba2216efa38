"""Sum-of-paths multipath simulator.

Each of the K propagation paths contributes a fixed amplitude with an
independent uniform phase; the summed coefficient tends to a zero-mean
complex Gaussian as K grows, so the power gain |H|^2 approaches the
exponential law the analytic metrics assume. Equal per-path power
amplitude_scale / sqrt(K) normalizes E[|H|^2] to amplitude_scale**2.

Draws come in chunks of 16384 coefficients, each from its own Philox
substream, and the chunks run on up to one thread per CPU the process may
use. A chunk draws its phases in consecutive row slices of about 2**16
path draws, which keeps the working set near the cache and reads the same
stream as one draw of the whole chunk, so every sample is bit-identical
whatever the thread count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _real
from .montecarlo import _map_substreams

_CHUNK = 1 << 14
_SLICE = 1 << 16  # path draws per row slice of a chunk


@dataclass(frozen=True)
class MultipathConfig:
    k_paths: int
    amplitude_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_count("k_paths", self.k_paths, 1)
        # a Python float: scale * scale overflows to inf without a warning
        scale = _real("amplitude_scale", self.amplitude_scale, 0.0, above=True)
        if not 0.0 < scale * scale < np.inf:
            raise DomainError("the mean gain scale**2 must be positive and "
                              f"finite, got scale {scale:g}")
        # |H|**2 reaches k_paths * scale**2 and the limit law's quantiles
        # up to 0.95 reach scale**2 * log(20) < 3 * scale**2
        if not (self.k_paths + 3) * scale * scale < np.inf:
            raise DomainError(
                "the gain bound (k_paths + 3) * scale**2 must be finite, got "
                f"k_paths {self.k_paths} and scale {scale:g}")
        _check_count("seed", self.seed, 0)


def draw_channel(config: MultipathConfig, n: int) -> np.ndarray:
    """n complex channel coefficients H = sum_k A_k * exp(-j*theta_k)."""
    _check_count("sample count", n, 1)
    k = config.k_paths
    amp = config.amplitude_scale / np.sqrt(k)
    rows = max(1, _SLICE // k)
    out = np.empty(n, dtype=complex)

    def chunk(i, rng, m):
        for lo in range(i * _CHUNK, i * _CHUNK + m, rows):
            hi = min(lo + rows, i * _CHUNK + m)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=(hi - lo, k))
            out[lo:hi] = amp * (np.cos(theta).sum(axis=1)
                                - 1j * np.sin(theta).sum(axis=1))

    _map_substreams(chunk, config.seed, n, _CHUNK)
    return out


def gain_samples(config: MultipathConfig, n: int) -> np.ndarray:
    """n power gains G = |H|^2; the sample mean estimates the average gain."""
    h = draw_channel(config, n)
    return (h * h.conj()).real
