"""Seeded, portable random number generation.

Every stochastic choice in the package flows through this module. Weight
init, synthetic data, the train/test split and the client partitions use
the xoshiro256++ generator implemented here, seeded via SplitMix64. The
per-client schedule shuffles use ``shuffle_order``, a counter-based stream
that hashes each element's counter with the SplitMix64 mixer and sorts by
the hashes. All of it is pure 64-bit integer arithmetic, so identical seeds
give bit-identical streams on every platform and interpreter. The platform
generators (``random``, ``numpy.random``) are deliberately never used.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Version of the streams a seed produces, recorded in every run sidecar.
# Raised whenever a change alters them; version 2 moved the schedule
# shuffles from xoshiro256++ Fisher-Yates to ``shuffle_order``.
STREAM_VERSION = 2


def _mix64(z: int) -> int:
    # SplitMix64 output mixer (Steele, Lea & Flood / Vigna).
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state once, returning ``(new_state, output)``."""
    state = (state + _GOLDEN) & _MASK64
    return state, _mix64(state)


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent child seed from ``seed`` and integer labels.

    The derivation is a fixed pure function: each label ``p`` is folded in
    as one SplitMix64 round of ``state + GOLDEN * (p + 1)``. It gives every
    (client index, sweep) pair its own stream with no generator state
    shared between callers, so results never depend on call order.
    """
    z = seed & _MASK64
    for p in path:
        z = _mix64((z + _GOLDEN * ((p & _MASK64) + 1)) & _MASK64)
    return z


def shuffle_order(seed: int, n: int) -> np.ndarray:
    """A permutation of ``range(n)`` from a counter-based stream.

    Element ``i`` gets the key ``derive_seed(seed, i)``, i.e.
    ``_mix64(seed + GOLDEN * (i + 1))``, computed at once for all ``i`` on a
    numpy ``uint64`` array, whose arithmetic wraps modulo 2**64 exactly as
    the masked Python integers do. The permutation is the stable argsort of
    the keys. The mixer is a bijection and the counters are distinct modulo
    2**64, so the keys are distinct, and the order depends on the keys alone.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.argsort(z, kind="stable")


def _rotl(x: int, k: int) -> int:
    return ((x << k) & _MASK64) | (x >> (64 - k))


class Xoshiro256PP:
    """xoshiro256++ 1.0 (Blackman & Vigna), state seeded through SplitMix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self._s = s

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection sampling)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of ``range(n)``, high index first.

        Swap ``i`` takes ``j = below(i + 1)``. The generator step and the
        rejection test of ``below`` are inlined on local state, which leaves
        the draws and the final state unchanged.
        """
        idx = list(range(n))
        mask, span = _MASK64, _MASK64 + 1
        s0, s1, s2, s3 = self._s
        for i in range(n - 1, 0, -1):
            bound = i + 1
            limit = span - span % bound
            while True:
                x = (s0 + s3) & mask
                r = ((((x << 23) & mask) | (x >> 41)) + s0) & mask
                t = (s1 << 17) & mask
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) & mask) | (s3 >> 19)
                if r < limit:
                    break
            j = r % bound
            idx[i], idx[j] = idx[j], idx[i]
        self._s = [s0, s1, s2, s3]
        return np.array(idx, dtype=np.int64)

    def uniform_array(self, n: int, low: float, high: float) -> np.ndarray:
        span = high - low
        out = np.empty(n, dtype=np.float64)
        nxt = self.next_uint64
        for i in range(n):
            out[i] = low + ((nxt() >> 11) * 2.0**-53) * span
        return out

    def normal_array(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        out = np.empty(n, dtype=np.float64)
        i = 0
        while i < n:
            # u1 in (0, 1] so log never sees zero.
            u1 = ((self.next_uint64() >> 11) + 1) * 2.0**-53
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < n:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
            i += 2
        return out
