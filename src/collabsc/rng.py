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

Block draws. The state update T is linear over GF(2), so T^m is a 64x64 bit
matrix, applied here as 8 byte-indexed lookup tables XORed together
(``_jump_table``, built once per m and kept for the process).
``normals`` takes its states from ``_states``: the first 64 by the scalar
step, then states [m, 2m) as T^m of states [0, m), so a whole block costs a
few array passes per doubling. Box-Muller then runs on arrays: the uint64
multiply wraps modulo 2^64, the 53-bit integers convert to float64 exactly,
and ``np.sqrt`` and ``*`` round as IEEE requires, so every bit equals a
one-at-a-time draw. ``log``, ``cos`` and ``sin`` stay on ``math``, mapped
over lists: numpy's vectorized transcendentals pick a SIMD kernel by CPU and
can differ from ``math`` in the last bit, which would make datasets and
initial weights depend on the host.

``next_u64``, ``uniform``, ``below`` and ``shuffled`` stay scalar: their
callers (k-means++ seeding, Fisher-Yates) take one draw at a time, and
whether another draw follows depends on the data or on rejection.
"""

from __future__ import annotations

import functools
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


def _step(x):
    """The xorshift state update T, on a Python int or a uint64 array."""
    x = x ^ (x >> 12)
    x = x ^ ((x << 25) & _MASK64)
    return x ^ (x >> 27)


@functools.cache
def _jump_table(m: int) -> np.ndarray:
    """T^m as 8 byte-indexed tables, for m a power of two: row b, column v
    holds T^m(v << 8b). They depend on m alone, so they are built once and
    kept read-only for the process."""
    if m == 1:
        images = _step(np.uint64(1) << np.arange(64, dtype=np.uint64))
    else:  # T^m of each unit vector is T^(m/2) applied twice
        half = _jump_table(m // 2)
        images = _jump(half, half[:, 1 << np.arange(8)].ravel())
    # column v of row b XORs the images of v's set bits, filled by doubling
    table = np.zeros((8, 256), dtype=np.uint64)
    bits = images.reshape(8, 8)
    for j in range(8):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ bits[:, j:j + 1]
    table.flags.writeable = False
    return table


def _jump(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T^m of every state in ``x``, given T^m's byte tables."""
    out = table[0, x & 0xFF]
    for b in range(1, 8):
        out ^= table[b, (x >> (8 * b)) & 0xFF]
    return out


class Xorshift64Star:
    """xorshift64* generator with uniform/normal/shuffle helpers."""

    def __init__(self, seed: int = 0):
        state = splitmix64(seed & _MASK64)
        if state == 0:  # xorshift state must be nonzero
            state = _GOLDEN
        self._state = state
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        x = self._state = _step(self._state)
        return (x * _XS_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def _states(self, count: int) -> np.ndarray:
        """The next ``count`` states as uint64, the generator left on the last."""
        states = np.empty(count, dtype=np.uint64)
        x = self._state
        head = min(count, 64)
        for i in range(head):
            x = _step(x)
            states[i] = x
        m = head
        while m < count:  # states [m, m + take) are T^m of states [0, take)
            take = min(m, count - m)
            states[m:m + take] = _jump(_jump_table(m), states[:take])
            m += take
        if count:
            self._state = int(states[-1])
        return states

    def normals(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller, filled in C order.

        Each pair of draws (u1 in (0, 1], u2 in [0, 1)) gives r cos(theta),
        then r sin(theta); a pair's second value left over at the end is kept
        as the spare and starts the next call.
        """
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            start = 1
        pairs = (n - start + 1) // 2
        draws = self._states(2 * pairs) * np.uint64(_XS_MULT)
        # u1 in (0, 1] so the log is finite
        u1 = ((draws[0::2] >> 11) + 1) * (2.0 ** -53)
        u2 = (draws[1::2] >> 11) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        theta = (2.0 * math.pi * u2).tolist()
        z = np.empty((pairs, 2))
        z[:, 0] = np.fromiter(map(math.cos, theta), np.float64, pairs)
        z[:, 1] = np.fromiter(map(math.sin, theta), np.float64, pairs)
        z *= r[:, None]
        out[start:] = z.ravel()[:n - start]
        if 2 * pairs > n - start:
            self._spare_normal = float(z[-1, 1])
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
