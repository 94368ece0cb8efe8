"""A fixed reference loop that measures how fast the core runs right now.

The 2-vCPU VM this benchmark was tuned on runs the same code at speeds up to
about 1.5x apart, in phases that last from about a second to over a minute
(see README.md). A 30 s run can fall wholly in one phase, so neither medians
nor minima over its repeats settle across runs. So the child times this loop
before every repeat and about every half second inside training, and scales
each round's time by ``REFERENCE_S`` over the mean of the loops around it:
the time the round would have taken at a fixed core speed. The loop mixes
what the workloads spend their time on, small float64 matrix products
through numpy and a pure-Python integer loop. It is not fedsim code, so a
change to fedsim moves the scaled timings by the same factor as the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About what one ``reference_loop()`` took on the tuning VM (Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4, one BLAS thread). It only sets the scale
# of the timings; any fixed value would do, but it must never change.
REFERENCE_S = 0.044

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((10, 20))
_W = [_rng.standard_normal(shape) for shape in ((20, 32), (32, 32), (32, 10))]


def _numpy_part() -> None:
    """Forward and backward matrix products of a 20-32-32-10 net at batch 10."""
    for _ in range(800):
        h1 = np.maximum(_X @ _W[0], 0.0)
        h2 = np.maximum(h1 @ _W[1], 0.0)
        d = h2 @ _W[2]
        d2 = (d @ _W[2].T) * (h2 > 0.0)
        d1 = (d2 @ _W[1].T) * (h1 > 0.0)
        _ = (h2.T @ d, h1.T @ d2, _X.T @ d1)


def _python_part() -> None:
    """A 64-bit xorshift loop, like the generator behind fedsim's shuffles."""
    s = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    for _ in range(45000):
        s ^= (s << 13) & mask
        s ^= s >> 7
        s ^= (s << 17) & mask


def reference_loop() -> float:
    """Run the loop once; return its wall seconds."""
    start = perf_counter()
    _numpy_part()
    _python_part()
    return perf_counter() - start


def probe() -> float:
    """Mean wall seconds of two reference loops run back to back."""
    return (reference_loop() + reference_loop()) / 2
