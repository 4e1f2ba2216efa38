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

from .errors import DomainError
from .montecarlo import _map_substreams

_CHUNK = 1 << 14
_SLICE = 1 << 16  # path draws per row slice of a chunk


@dataclass(frozen=True)
class MultipathConfig:
    k_paths: int
    amplitude_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k_paths < 1:
            raise DomainError(f"k_paths must be >= 1, got {self.k_paths}")
        if not (np.isfinite(self.amplitude_scale)
                and self.amplitude_scale > 0.0):
            raise DomainError("amplitude_scale must be positive and finite, "
                              f"got {self.amplitude_scale}")
        if not 0.0 < self.amplitude_scale * self.amplitude_scale < np.inf:
            raise DomainError("the mean gain scale**2 must be positive and "
                              f"finite, got scale {self.amplitude_scale:g}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def draw_channel(config: MultipathConfig, n: int) -> np.ndarray:
    """n complex channel coefficients H = sum_k A_k * exp(-j*theta_k)."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
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
