"""Sum-of-paths multipath simulator.

Each of the K propagation paths contributes a fixed amplitude with an
independent uniform phase; the summed coefficient tends to a zero-mean
complex Gaussian as K grows, so the power gain |H|^2 approaches the
exponential law the analytic metrics assume. Equal per-path power
amplitude_scale / sqrt(K) normalizes E[|H|^2] to amplitude_scale**2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_CHUNK = 1 << 14


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
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def draw_channel(config: MultipathConfig, n: int) -> np.ndarray:
    """n complex channel coefficients H = sum_k A_k * exp(-j*theta_k)."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    amp = config.amplitude_scale / np.sqrt(config.k_paths)
    out = np.empty(n, dtype=complex)
    chunks = range(0, n, _CHUNK)
    children = np.random.SeedSequence(config.seed).spawn(len(chunks))
    for start, ss in zip(chunks, children):
        m = min(_CHUNK, n - start)
        rng = np.random.Generator(np.random.Philox(ss))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(m, config.k_paths))
        out[start:start + m] = amp * (np.cos(theta).sum(axis=1)
                                      - 1j * np.sin(theta).sum(axis=1))
    return out


def gain_samples(config: MultipathConfig, n: int) -> np.ndarray:
    """n power gains G = |H|^2; the sample mean estimates the average gain."""
    h = draw_channel(config, n)
    return (h * h.conj()).real
