"""Sum-of-paths multipath simulator.

Each of the K propagation paths contributes a fixed amplitude with an
independent uniform phase; the summed coefficient tends to a zero-mean
complex Gaussian as K grows, so the power gain |H|^2 approaches the
exponential law the analytic metrics assume. Equal per-path power
amplitude_scale / sqrt(K) normalizes E[|H|^2] to amplitude_scale**2.

A path's phasor exp(-j*2*pi*u), u uniform on [0, 1), is formed after a
quarter-turn reduction: with q = rint(4u), the reduced angle
r = (q - 4u) * pi/2 lies in [-pi/4, pi/4], where cos and sin are fast and
accurate, and the phasor is (-j)**q * (cos r + j*sin r). The steps 4u and
q - 4u are exact, and so is the product with (-j)**q, so r carries the
only rounding before cos and sin.

Draws come in chunks of 16384 coefficients, each from its own PCG64DXSM
substream, and the chunks run on up to one thread per CPU the process may
use. A chunk draws its phases in consecutive row slices of about 2**14
path draws into one set of scratch arrays, which keeps the working set in
cache and reads the same stream as one draw of the whole chunk, so every
sample is bit-identical whatever the thread count or the slice size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_size, _real
from .montecarlo import _map_substreams

_CHUNK = 1 << 14
_SLICE = 1 << 14  # path draws per row slice of a chunk
_QUARTER_TURNS = np.array([1, -1j, -1, 1j, 1])  # (-j)**q for q = 0..4


@dataclass(frozen=True)
class MultipathConfig:
    k_paths: int
    amplitude_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_size("k_paths", self.k_paths)
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
    """n complex channel coefficients H = sum_k A_k * exp(-j*theta_k).

    theta_k = 2*pi*u_k with u_k from ``Generator.random``, the draws that
    ``uniform(0, 2*pi)`` would scale.
    """
    _check_size("sample count", n, 59)  # 16 bytes per complex draw
    k = config.k_paths
    amp = config.amplitude_scale / np.sqrt(k)
    rows = max(1, _SLICE // k)
    out = np.empty(n, dtype=complex)

    def chunk(i, rng, m):
        size = min(rows, m) * k
        u = np.empty(size)
        q = np.empty(size, dtype=np.int8)
        phasor = np.empty(size, dtype=complex)
        turn = np.empty(size, dtype=complex)
        for lo in range(i * _CHUNK, i * _CHUNK + m, rows):
            hi = min(lo + rows, i * _CHUNK + m)
            x, qx, z, t = (a[:(hi - lo) * k] for a in (u, q, phasor, turn))
            rng.random(out=x)
            np.multiply(x, 4.0, out=x)
            np.rint(x, out=qx, casting="unsafe")
            np.subtract(qx, x, out=x)  # exact: |q - 4u| <= 1/2
            np.multiply(x, np.pi / 2, out=x)  # r = -2*pi*(u - q/4)
            np.cos(x, out=z.real)
            np.sin(x, out=z.imag)
            # q is in 0..4: "clip" only skips the bounds check
            np.take(_QUARTER_TURNS, qx, out=t, mode="clip")
            np.multiply(z, t, out=z)
            h = out[lo:hi]
            np.sum(z.reshape(hi - lo, k), axis=1, out=h)
            np.multiply(h, amp, out=h)

    _map_substreams(chunk, config.seed, n, _CHUNK)
    return out


def gain_samples(config: MultipathConfig, n: int) -> np.ndarray:
    """n power gains G = |H|^2; the sample mean estimates the average gain.

    |H|^2 is re**2 + im**2 in one float array: each step rounds once, so
    the bits are the same on every numpy dispatch target.
    """
    h = draw_channel(config, n)
    g = np.square(h.real)
    g += np.square(h.imag)
    return g
