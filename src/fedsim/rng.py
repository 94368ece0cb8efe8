"""Seeded, portable random number generation.

Every stochastic choice in the package flows through this module. Weight
init, synthetic data, the train/test split and the client partitions use
the xoshiro256++ generator implemented here, seeded via SplitMix64. Its
``uniform_array`` and ``normal_array`` draw large arrays in lanes, up to
1024 states a fixed stride of draws apart that then step together in numpy
``uint64``. xoshiro256++ is linear over GF(2), so a jump of ``k`` steps is
one 256x256 bit matrix ``M**k``. The lanes start from two of them,
``J = M**stride`` and ``G = M**(32 * stride)``: ``J`` gives lanes 1 to 31
one at a time, and ``G`` each later block of 32 lanes from the block
before. Each product runs as a float32 matrix product of 0/1 entries and
keeps the low bit; its sums are whole numbers of at most 256, exact in any
order, so every BLAS kernel gives the same lanes. That is the same stream,
bit for bit, as one ``next_uint64`` call per draw, and it leaves the
generator in the same state. Each lane's draws depend on its start alone,
so a large ``normal_array`` (``SPLIT_MIN_DRAWS``) fills half its lanes in a
forked worker (``fedsim.split``) with the same bits; this module imports
that one only for such a draw. The per-client schedule shuffles use
``shuffle_orders``, a counter-based stream that hashes each element's
counter with the SplitMix64 mixer and sorts by the hashes, for many seeds
in one call. All of it is pure 64-bit integer arithmetic, so identical seeds
give bit-identical streams on every platform and interpreter. The platform
generators (``random``, ``numpy.random``) are deliberately never used.

Normals add floating point, in ``_box_muller``. Its shifts, scaling,
``sqrt`` and products are correctly rounded IEEE operations. Its ``log``
is the C library's, bit for bit (``_log``), not numpy's vectorized one,
which differs in the last bit on some inputs. Its ``cos`` and ``sin`` go
through numpy, whose float64 versions call the C library's per element and
so equal ``math``'s bit for bit; a test pins that, since a numpy that
vectorized them would change the stream. So the bits of the normals also
rest on the platform's libm.
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

# The lane path of ``uniform_array`` and ``normal_array`` (see
# ``Xoshiro256PP._fill``): the lane count, the steps per block, and the
# draw count from which the lanes beat the scalar loop, all set by timing.
_LANES = 1024
_BLOCK_STEPS = 64
_LANE_MIN_DRAWS = 16_000

# A ``normal_array`` of at least this many draws fills the second half of
# its lanes in a forked worker (``fedsim.split``) while this process fills
# the first, when ``split.can_fork`` holds; a smaller one does not pay for
# the fork. Measured on 2 vCPUs at one BLAS thread, in a process of about
# 40 MB; the median time split over serial of 50 alternating pairs, 10 in
# each of 5 processes: 50K normals 1.20 (12.5 ms serial, 1 won), 220K 0.97
# (33 ms, 32 won), 1M 0.81 (112 ms, 42 won), 2.35M 0.70 (242 -> 180 ms, 49
# won). In one of the 5 processes the split lost up to 1M (1.28 there).
# The rule splits the 784-d data sets and keeps the 20-d ones (at most 220K
# normals) call for call as they were. ``uniform_array`` stays serial: at
# 2**20 draws a split took 1.05 of its 20 ms (3 of 10 won).
SPLIT_MIN_DRAWS = 2**20


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


def shuffle_orders(seeds, n: int) -> np.ndarray:
    """One permutation of ``range(n)`` per seed, as the rows of an ``[m, n]`` array.

    Element ``i`` of row ``r`` gets the key ``derive_seed(seeds[r], i)``,
    i.e. ``_mix64(seeds[r] + GOLDEN * (i + 1))``, computed at once for every
    row and element on a numpy ``uint64`` array, whose arithmetic wraps
    modulo 2**64 exactly as the masked Python integers do. Row ``r`` is the
    argsort of its keys. The mixer is a bijection and the counters of one
    seed are distinct modulo 2**64, so a row's keys are distinct: every
    sort, stable or not, orders them the same way, and the order depends on
    the keys alone. One call for many seeds of one size therefore gives each
    seed the row its own call gives.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z = z + np.array([s & _MASK64 for s in seeds], dtype=np.uint64)[:, None]
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.argsort(z, axis=-1)


def shuffle_order(seed: int, n: int) -> np.ndarray:
    """A permutation of ``range(n)``: the one-seed case of ``shuffle_orders``."""
    return shuffle_orders([seed], n)[0]


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

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection sampling).

        ``n`` must lie in [1, 2**64]: above that, no 64-bit draw is below
        the rejection limit and the loop would never end.
        """
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("bound must be in [1, 2**64]")
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
        """``n`` uniforms in [low, high), one draw each: ``low + u * (high - low)``."""
        span = high - low
        return self._fill(n, n, lambda d: low + ((d >> 11) * 2.0**-53) * span)

    def normal_array(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs.

        Pair ``i`` is draws ``2i`` and ``2i + 1``; it gives normal ``2i``
        (cosine) and ``2i + 1`` (sine). An odd ``n`` drops the last sine but
        still takes its draw. From ``SPLIT_MIN_DRAWS`` draws, half the lanes
        may be drawn in a second process (``_fill``); their floats pass
        through a shared buffer, freed as it is copied, into the returned
        array, which is the caller's private memory either way.
        """
        return self._fill(n, n + (n & 1), _box_muller, split=True)

    def _fill(self, n: int, draws: int, convert, split: bool = False) -> np.ndarray:
        """``n`` floats; float ``j`` comes from draw ``j`` of the next ``draws``.

        ``convert`` maps a block of raw draws to floats of the same shape.
        Below ``_LANE_MIN_DRAWS`` the draws come from ``next_uint64``, as one
        block. Otherwise they come from the lanes of ``_grid(draws)``, which
        start ``stride`` draws apart, found by jumping ahead (``_fill_lanes``).
        With ``split``, from ``SPLIT_MIN_DRAWS`` draws, a forked worker fills
        lanes ``lanes // 2 ..`` into an anonymous shared mapping while this
        process fills the rest straight into ``out``, if ``split.can_fork``
        holds; then this process copies the worker's floats into ``out``
        chunk by chunk, freeing each chunk of the mapping as it goes
        (``split.drain``), so the array it returns is private memory and
        the worker's half is never held twice.
        Every lane's floats are those of its own serial run, so the bits are
        the same either way. The generator ends in its state after exactly
        ``draws`` draws: the state of the last lane after its last draw,
        sent back by the worker when it fills that lane.
        """
        stride, lanes = _grid(draws)
        if lanes == 1:
            nxt = self.next_uint64
            raw = np.fromiter((nxt() for _ in range(draws)), np.uint64, draws)
            out = np.empty(n, dtype=np.float64)
            out[:] = convert(raw[:, None])[:n, 0]
            return out
        starts = _lane_starts(self._s, lanes, stride)
        if split and draws >= SPLIT_MIN_DRAWS:
            from .split import Worker, can_fork, drain, shared_array

            if can_fork():
                half = lanes // 2
                second = shared_array(n - half * stride)

                def fill_second_half(_: int) -> bytes:
                    end = _fill_lanes(second, starts[:, half:], half, stride, draws, convert)
                    return end.tobytes()

                with Worker(fill_second_half, "set-up worker") as worker:
                    worker.start(0)
                    out = np.empty(n, dtype=np.float64)
                    _fill_lanes(out, starts[:, :half], 0, stride, draws, convert)
                    self._s = np.frombuffer(worker.finish(), dtype=np.uint64).tolist()
                drain(second, out[half * stride :])
                return out
        out = np.empty(n, dtype=np.float64)
        self._s = _fill_lanes(out, starts, 0, stride, draws, convert).tolist()
        return out


def _fill_lanes(out: np.ndarray, starts: np.ndarray, first: int, stride: int, draws: int,
                convert) -> np.ndarray:
    """Write the floats of lanes ``first ..`` of the grid of ``draws`` into ``out``.

    ``starts`` holds the lanes' start states, ``[4, count]``. Draw ``j``
    lies in lane ``j // stride``, row ``j % stride``: every lane but the
    grid's last fills ``stride`` floats, and the last fills the rest.
    ``out`` starts at lane ``first``'s first float. The lanes step together
    in numpy, ``_BLOCK_STEPS`` rows a block.
    ``stride`` and ``_BLOCK_STEPS`` are even, so a draw pair never spans two
    blocks or two lanes. Returns the state of the range's last lane after
    ``draws - (lanes - 1) * stride`` draws: when that lane is the grid's
    last, the generator's state after all ``draws``. The last lane may step
    on past its last draw; those draws go unused.
    """
    lanes = -(-draws // stride)
    s = np.array(starts)  # a copy: the lanes step in place
    count = s.shape[1]
    whole = min(count, lanes - 1 - first)  # the lanes that fill ``stride`` floats
    body = out[: whole * stride].reshape(whole, stride)
    tail = out[whole * stride :] if whole < count else out[:0]
    last = draws - (lanes - 1) * stride  # draws taken by the grid's last lane
    block = np.empty((_BLOCK_STEPS, count), dtype=np.uint64)
    for row in range(0, stride, _BLOCK_STEPS):
        rows = min(_BLOCK_STEPS, stride - row)
        for i in range(rows):
            _lane_output(s, block[i])
            _lane_step(s)
            if row + i + 1 == last:
                end = s[:, -1].copy()
        values = convert(block[:rows])
        body[:, row : row + rows] = values[:, :whole].T
        part = tail[row : row + rows]
        part[:] = values[: len(part), -1]
    return end


def _grid(draws: int) -> tuple[int, int]:
    """``(stride, lanes)`` for ``draws`` draws: ``lanes * stride >= draws``."""
    if draws < _LANE_MIN_DRAWS:
        return draws, 1
    stride = 2 * -(-draws // (2 * _LANES))
    return stride, -(-draws // stride)


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` of every element of ``x``, computed by ``math`` on Python floats."""
    return np.fromiter(map(f, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


# ``_log`` calls libm where ``logl`` lies this many ULPs or more from its
# double: everywhere when long double is no wider than double.
_LOG_SURE = 0.5 - 1 / 16 if np.finfo(np.longdouble).nmant >= 63 else 0.0


def _log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of every element of ``x``, bit for bit, mostly in one C loop.

    numpy's long double ``log`` is ``logl`` (a 64-bit significand on
    x86_64). Its nearest double ``y`` is libm's ``log`` wherever ``logl``
    lies over 1/16 ULP from a rounding midpoint (Ziv's test), as glibc
    misrounds only within 0.02 ULP of one. The test is exact: ``logl - y``
    fits a double, and ``y * (1 - 2**-53)`` is ``y``'s neighbour toward 0.
    The rest, about 1/8, go through ``_libm``.
    """
    wide = np.log(x, dtype=np.longdouble)
    y = wide.astype(np.float64)
    wide -= y
    unsure = np.abs(wide.astype(np.float64)) >= _LOG_SURE * np.abs(y - y * (1 - 2.0**-53))
    y[unsure] = _libm(math.log, x[unsure])
    return y


def _box_muller(d: np.ndarray) -> np.ndarray:
    """Normals from a block of draws whose rows pair up as ``(2i, 2i + 1)``.

    The IEEE operations (shift, scale, ``sqrt``, products) run in numpy,
    which rounds each correctly as Python's floats do. ``log`` is libm's
    (``_log``). ``cos`` and ``sin`` run in numpy, whose float64 loops call
    libm per element: they equal ``math.cos`` and ``math.sin`` bit for bit
    (``tests/test_rng.py`` pins that on the installed numpy) without a
    Python call per element.
    """
    u1 = ((d[0::2] >> 11) + 1) * 2.0**-53  # in (0, 1], so log never sees zero
    u2 = (d[1::2] >> 11) * 2.0**-53
    r = np.sqrt(-2.0 * _log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(d.shape, dtype=np.float64)
    out[0::2] = r * np.cos(angle)
    out[1::2] = r * np.sin(angle)
    return out


# The lane path. A [4, lanes] uint64 array holds one xoshiro256++ state per
# lane (rows s0..s3); numpy's uint64 arithmetic wraps modulo 2**64, exactly
# as the masked Python integers of ``next_uint64`` do.


def _lane_step(s: np.ndarray) -> None:
    """Advance every lane one step, in place."""
    s0, s1, s2, s3 = s
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, 19, out=t)
    s3 <<= 45
    s3 |= t


def _lane_output(s: np.ndarray, out: np.ndarray) -> None:
    """Write every lane's next output, ``rotl(s0 + s3, 23) + s0``, to ``out``."""
    np.add(s[0], s[3], out=out)
    t = out >> 41
    out <<= 23
    out |= t
    out += s[0]


# Characteristic polynomial of the xoshiro256++ state transition M, a linear
# map on 256 bits over GF(2): bit i is the coefficient of x**i. It is the
# minimal polynomial of one state bit's sequence (Berlekamp-Massey), and
# p(M) = 0, so M**k = q(M) for q = x**k mod p.
_CHARPOLY = 0x1_0003C03C3F3ECB19_04B4EDCF26259F85_0280002BCEFD1A5E_9D116F2BB0F0F001


def _polymulmod(a: int, b: int) -> int:
    """``a * b`` modulo ``_CHARPOLY``, as polynomials over GF(2)."""
    product = 0
    while b:
        low = b & -b
        product ^= a * low
        b ^= low
    for shift in range(product.bit_length() - 257, -1, -1):
        if product >> (shift + 256) & 1:
            product ^= _CHARPOLY << shift
    return product


def _xpow(k: int) -> int:
    """``x**k`` modulo ``_CHARPOLY``."""
    result, power = 1, 2
    while k:
        if k & 1:
            result = _polymulmod(result, power)
        power = _polymulmod(power, power)
        k >>= 1
    return result


def _lane_jump(s: np.ndarray, q: int) -> np.ndarray:
    """Every lane advanced by ``k`` steps, given ``q = _xpow(k)``.

    ``M**k s = sum(q_i M**i s)``: one pass of up to 256 steps, XOR-summing
    the states whose coefficient is set.
    """
    s = s.copy()
    acc = np.zeros_like(s)
    for i in range(q.bit_length()):
        if q >> i & 1:
            acc ^= s
        _lane_step(s)
    return acc


def _state_bits(s: np.ndarray) -> np.ndarray:
    """``[4, n]`` uint64 lane states as ``[n, 256]`` uint8 rows of 0/1 bits.

    Entry ``64 * w + b`` of row ``l`` is bit ``b`` of word ``w`` of lane
    ``l``: the words are laid out little-endian (``'<u8'``) and unpacked low
    bit first (``bitorder="little"``), so every host gets the same order.
    """
    words = np.ascontiguousarray(s.T, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _bits_state(bits: np.ndarray) -> np.ndarray:
    """The inverse of ``_state_bits``: ``[n, 256]`` 0/1 rows as ``[4, n]`` uint64."""
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return np.ascontiguousarray(words.T, dtype=np.uint64)


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over GF(2) for 0/1 matrices, as float32 0/1.

    Each entry of the float32 product sums at most 256 products of 0 and 1,
    so every partial sum is a whole number below 2**24 and exact: any order,
    blocking or fused multiply-add a BLAS kernel picks gives the same
    integer ``p``. Its parity ``p - 2 * floor(p / 2)`` is exact too, and it
    is the sum over GF(2).
    """
    product = np.matmul(a, b, dtype=np.float32)
    half = product * 0.5
    np.floor(half, out=half)
    half *= 2.0
    product -= half
    return product


def _jump_matrix(k: int) -> np.ndarray:
    """``M**k`` as a float32 0/1 matrix, transposed to act on ``_state_bits`` rows.

    Row ``i`` holds the bits of unit state ``i`` (bit ``i`` alone set) after
    ``k`` steps, found by one ``_lane_jump`` of the 256 unit states. The step
    is linear, so a state's bit row times this matrix over GF(2), the XOR of
    the rows of its set bits, is the state ``k`` steps on.
    """
    units = _bits_state(np.eye(256, dtype=np.uint8))
    return _state_bits(_lane_jump(units, _xpow(k))).astype(np.float32)


def _lane_starts(state: list[int], lanes: int, stride: int) -> np.ndarray:
    """``[4, lanes]`` states; lane ``l`` is ``state`` after ``l * stride`` steps.

    Lanes are handled as ``_state_bits`` rows, and two jump matrices act on
    them: ``J = M**stride`` from ``_jump_matrix`` and ``G = M**(32 * stride)``,
    ``J`` squared five times. Lanes 1 to 31 are the lane before times ``J``,
    one at a time; every later block of 32 lanes is the block before times
    ``G``, as one product, and goes back to words as soon as it is made.
    Each product is a float32 matrix product of 0/1 entries whose sums are
    whole numbers of at most 256, exact in any summation order, so every
    BLAS kernel gives the same lanes (``_gf2_matmul``).
    """
    jump = _jump_matrix(stride)
    block = np.empty((min(lanes, 32), 256), dtype=np.float32)
    block[0] = _state_bits(np.array(state, dtype=np.uint64).reshape(4, 1))[0]
    for l in range(1, len(block)):
        block[l] = _gf2_matmul(block[l - 1], jump)
    starts = np.empty((4, lanes), dtype=np.uint64)
    starts[:, :32] = _bits_state(block.astype(np.uint8))
    if lanes > 32:
        for _ in range(5):  # J becomes G = J**32
            jump = _gf2_matmul(jump, jump)
        for l in range(32, lanes, 32):
            block = _gf2_matmul(block[: lanes - l], jump)
            starts[:, l : l + len(block)] = _bits_state(block.astype(np.uint8))
    return starts
