"""Deterministic pseudo-random numbers for data generation and weight init.

Everything random in this package flows through `Xorshift64Star`, a fixed,
documented generator, so that datasets, initializations, batch partitions and
therefore whole training runs are bit-reproducible for a given seed --
independent of numpy's own generator versioning.

Algorithm: xorshift64* (Vigna). State update
    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
output is ``x * 2685821657736338717`` truncated to 64 bits. Seeds are
preconditioned through one round of splitmix64 so that small seeds (including
0) produce well-mixed nonzero states.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XS_MULT = 2685821657736338717


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round; used for seeding and substreams."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix_seed(seed: int, stream: int) -> int:
    """Derive an independent substream seed (network init, batching, ...)."""
    return splitmix64((seed & _MASK64) ^ ((stream * _GOLDEN) & _MASK64))


class Xorshift64Star:
    """xorshift64* generator with uniform/normal/shuffle helpers."""

    def __init__(self, seed: int = 0):
        state = splitmix64(seed & _MASK64)
        if state == 0:  # xorshift state must be nonzero
            state = _GOLDEN
        self._state = state
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XS_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Standard normal via Box-Muller (one spare cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] so the log is finite
        u1 = ((self.next_u64() >> 11) + 1) * (2.0 ** -53)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self.normal()
        return out.reshape(shape)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = _MASK64 - (_MASK64 % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffled(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx
