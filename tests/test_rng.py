import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.rng as rng
from fedsim.errors import ContractError
from fedsim.rng import (
    _CHARPOLY,
    _LANE_MIN_DRAWS,
    _LANES,
    _MASK64,
    Xoshiro256PP,
    _bits_state,
    _grid,
    _lane_jump,
    _lane_starts,
    _state_bits,
    _xpow,
    derive_seed,
    shuffle_order,
    shuffle_orders,
    splitmix64,
)
from helpers import (
    force_setup_split,
    linux_only,
    reference_lane_starts,
    reference_normal_array,
    reference_shuffle_order,
    reference_uniform_array,
)


def test_splitmix64_reference_vectors():
    # Published outputs of SplitMix64 for seed 0.
    state = 0
    outputs = []
    for _ in range(3):
        state, out = splitmix64(state)
        outputs.append(out)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_is_deterministic():
    a = Xoshiro256PP(12345)
    b = Xoshiro256PP(12345)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_different_seeds_differ():
    a = Xoshiro256PP(1)
    b = Xoshiro256PP(2)
    assert [a.next_uint64() for _ in range(4)] != [b.next_uint64() for _ in range(4)]


def test_below_is_in_range_and_rejects_bad_bound():
    rng = Xoshiro256PP(3)
    assert all(0 <= rng.below(7) < 7 for _ in range(500))
    with pytest.raises(ValueError):
        rng.below(0)
    assert 0 <= rng.below(2**64) < 2**64  # every draw is accepted
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)  # no draw is below the rejection limit, 0


def test_permutation_is_a_permutation():
    rng = Xoshiro256PP(17)
    perm = rng.permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_permutation_deterministic():
    assert np.array_equal(Xoshiro256PP(5).permutation(50), Xoshiro256PP(5).permutation(50))


class CountingGenerator(Xoshiro256PP):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.draws = 0

    def next_uint64(self) -> int:
        self.draws += 1
        return super().next_uint64()


def reference_permutation(rng: Xoshiro256PP, n: int) -> np.ndarray:
    """Fisher-Yates through ``below``, the generator's public draw path."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 200, 1000])
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_permutation_matches_below_loop(seed, n):
    fast, slow = Xoshiro256PP(seed), Xoshiro256PP(seed)
    perm = fast.permutation(n)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, reference_permutation(slow, n))
    assert fast.next_uint64() == slow.next_uint64()  # same state after the call


def test_permutation_rejection_draw_matches_below_loop():
    # With s0 = 0 and s3 = 2**64 - 1 the next output is 2**64 - 1, which
    # below(3) rejects, so the first swap of permutation(3) draws twice.
    state = [0, 1, 2, (1 << 64) - 1]
    fast, slow = Xoshiro256PP(0), CountingGenerator(0)
    fast._s, slow._s = list(state), list(state)
    assert np.array_equal(fast.permutation(3), reference_permutation(slow, 3))
    assert slow.draws == 3  # n - 1 swaps plus one rejected draw
    assert fast._s == slow._s


def test_derive_seed_pure_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    # Sibling streams must not collide over a small neighborhood.
    children = {derive_seed(42, j, k) for j in range(50) for k in range(50)}
    assert len(children) == 2500


def test_normal_array_moments():
    z = Xoshiro256PP(11).normal_array(20001)
    assert abs(float(z.mean())) < 0.05
    assert abs(float(z.std()) - 1.0) < 0.05


def test_uniform_array_bounds():
    u = Xoshiro256PP(13).uniform_array(5000, -2.0, 3.0)
    assert u.min() >= -2.0
    assert u.max() < 3.0


# Sizes: tiny ones, each side of the crossover to the lane path, each side
# of a multiple of the lane count (every lane full at stride 64), and an odd
# count that leaves the last lane part-used.
ARRAY_SIZES = [
    0, 1, 2, 3,
    _LANE_MIN_DRAWS - 1, _LANE_MIN_DRAWS, _LANE_MIN_DRAWS + 1,
    64 * _LANES - 1, 64 * _LANES + 1,
    100001,
]


def assert_same_draws(fast: Xoshiro256PP, slow: Xoshiro256PP, got: np.ndarray, want: np.ndarray):
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    # The same state after the call: exactly as many draws were taken.
    assert [fast.next_uint64() for _ in range(4)] == [slow.next_uint64() for _ in range(4)]


@pytest.mark.parametrize("n", ARRAY_SIZES)
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_uniform_array_matches_scalar_oracle(seed, n):
    fast, slow = Xoshiro256PP(seed), Xoshiro256PP(seed)
    got = fast.uniform_array(n, -0.75, 2.5)
    assert_same_draws(fast, slow, got, reference_uniform_array(slow, n, -0.75, 2.5))


@pytest.mark.parametrize("n", ARRAY_SIZES)
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_normal_array_matches_scalar_oracle(seed, n):
    fast, slow = Xoshiro256PP(seed), Xoshiro256PP(seed)
    got = fast.normal_array(n)
    assert_same_draws(fast, slow, got, reference_normal_array(slow, n))


def test_numpy_cos_and_sin_equal_libm_on_box_muller_angles():
    # Box-Muller's cos and sin run in numpy and its oracle's in math, so the
    # normal_array oracle tests above rely on the two agreeing bit for bit.
    # This checks it on 2**20 angles 2*pi*(d >> 11)*2**-53 from the raw draws
    # of two seeds (uniform_array(n, 0, 1) is exactly (d >> 11)*2**-53), plus
    # the end points d >> 11 = 0 and 2**53 - 1.
    edges = np.array([0.0, (2**53 - 1) * 2.0**-53])
    u = np.concatenate(
        [Xoshiro256PP(seed).uniform_array(2**19, 0.0, 1.0) for seed in (3, 2**63 + 5)] + [edges]
    )
    angle = 2.0 * math.pi * u
    for vectorized, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
        got = vectorized(angle)
        want = np.fromiter(map(scalar, angle.tolist()), np.float64, angle.size)
        differ = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        assert differ == 0, (
            f"np.{scalar.__name__} differs from math.{scalar.__name__} on {differ} of "
            f"{angle.size} angles: this numpy {np.__version__} vectorizes float64 "
            f"{scalar.__name__}, so normal_array would change the stream"
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(0, 3 * _LANE_MIN_DRAWS),
    normal=st.booleans(),
)
def test_arrays_match_scalar_oracle_at_any_size(seed, n, normal):
    fast, slow = Xoshiro256PP(seed), Xoshiro256PP(seed)
    if normal:
        got, want = fast.normal_array(n), reference_normal_array(slow, n)
    else:
        got, want = fast.uniform_array(n, 0.0, 1.0), reference_uniform_array(slow, n, 0.0, 1.0)
    assert_same_draws(fast, slow, got, want)


def state_bits(state: list[int]) -> int:
    """The four state words as one 256-bit integer."""
    return state[0] | state[1] << 64 | state[2] << 128 | state[3] << 192


@pytest.mark.parametrize("k", [0, 1, 255, 256, 257, 100000])
def test_jump_through_polynomial_equals_scalar_steps(k):
    rng = Xoshiro256PP(2024)
    start = np.array(rng._s, dtype=np.uint64).reshape(4, 1)
    for _ in range(k):
        rng.next_uint64()
    assert _lane_jump(start, _xpow(k))[:, 0].tolist() == rng._s


def test_state_bits_put_bit_b_of_word_w_at_64_w_plus_b():
    # One word pattern per column: the top bit alone (a sign slip shows),
    # alternating bits either way round and all ones, plus a column whose
    # four words differ (a word or byte order slip shows).
    top, odd, even, ones = 1 << 63, 0xAAAAAAAAAAAAAAAA, 0x5555555555555555, _MASK64
    columns = [[w] * 4 for w in (top, odd, even, ones)] + [[top, odd, even, 0x0123456789ABCDEF]]
    s = np.array(columns, dtype=np.uint64).T
    bits = _state_bits(s)
    assert bits.dtype == np.uint8 and bits.shape == (len(columns), 256)
    for lane, words in enumerate(columns):
        want = [words[i // 64] >> (i % 64) & 1 for i in range(256)]
        assert bits[lane].tolist() == want
    back = _bits_state(bits)
    assert back.dtype == np.uint64 and back.flags.c_contiguous
    assert back.tolist() == s.tolist()


def scalar_lane_starts(state: list[int], lanes: int, stride: int) -> np.ndarray:
    """Lane ``l`` as the state after ``l * stride`` calls to ``next_uint64``."""
    rng = Xoshiro256PP(0)
    rng._s = list(state)
    starts = []
    for _ in range(lanes):
        starts.append(rng._s)
        for _ in range(stride):
            rng.next_uint64()
    return np.array(starts, dtype=np.uint64).T


LANE_STATE = [0x0123456789ABCDEF, _MASK64, 5, 1 << 63]


# Strides 2 and 50 make x**stride sparse; 216 and 2298 give a dense jump
# polynomial. Lane counts sit on each side of the 32-lane blocks.
@pytest.mark.parametrize("stride", [2, 50, 216, 2298])
@pytest.mark.parametrize("lanes", [1, 2, 31, 32, 33, 965, 1019, 1024])
def test_lane_starts_equal_the_doubling_oracle(lanes, stride):
    got = _lane_starts(LANE_STATE, lanes, stride)
    assert got.dtype == np.uint64 and got.shape == (4, lanes)
    assert got.tobytes() == reference_lane_starts(LANE_STATE, lanes, stride).tobytes()
    if stride <= 50:
        assert got.tobytes() == scalar_lane_starts(LANE_STATE, lanes, stride).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    state=st.lists(st.integers(0, _MASK64), min_size=4, max_size=4),
    lanes=st.integers(1, 100),
    stride=st.integers(1, 3000),
)
def test_lane_starts_equal_the_doubling_oracle_from_any_state(state, lanes, stride):
    got = _lane_starts(state, lanes, stride)
    assert got.tobytes() == reference_lane_starts(state, lanes, stride).tobytes()


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_characteristic_polynomial_annihilates_the_state_sequence(seed):
    # p(M) = 0: XOR-summing the states s_{t+i} over p's set bits i gives 0.
    assert _CHARPOLY.bit_length() == 257  # degree 256
    taps = [i for i in range(257) if _CHARPOLY >> i & 1]
    rng = Xoshiro256PP(seed)
    states = []
    for _ in range(1000 + 256):
        states.append(state_bits(rng._s))
        rng.next_uint64()
    for t in range(1000):
        acc = 0
        for i in taps:
            acc ^= states[t + i]
        assert acc == 0, t


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_shuffle_order_matches_scalar_oracle(seed, n):
    order = shuffle_order(seed, n)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.array(reference_shuffle_order(seed, n), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300))
def test_shuffle_order_is_a_permutation(seed, n):
    order = shuffle_order(seed, n)
    assert sorted(order.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n=st.sampled_from([0, 1, 2, 1000]) | st.integers(0, 60),
)
@example(seeds=[0, 2**64 - 1], n=0)
@example(seeds=[2**64 - 1, 0], n=1)
@example(seeds=[0, 0, 2**64 - 1], n=2)
@example(seeds=[2**64 - 1, 12345, 0], n=1000)
def test_shuffle_orders_rows_are_single_draws_and_stable_argsorts(seeds, n):
    # A row's keys are distinct, so the default sort of the batched draw gives
    # the permutation a stable argsort gives, seed by seed.
    orders = shuffle_orders(seeds, n)
    assert orders.shape == (len(seeds), n) and orders.dtype == np.int64
    for seed, row in zip(seeds, orders):
        assert np.array_equal(row, shuffle_order(seed, n))
        assert row.tolist() == reference_shuffle_order(seed, n)


# --- large normal arrays drawn in two processes -----------------------------


@linux_only
@pytest.mark.parametrize(
    "n, min_draws, splits",
    [(100_001, 40_000, True), (16_001, 16_000, True), (39_999, 40_000, True),
     (39_998, 40_000, False)],
    ids=["odd_n", "odd_lane_count", "at_the_rule", "below_the_rule"],
)
def test_a_split_normal_array_gives_the_serial_bits_and_end_state(n, min_draws, splits,
                                                                   monkeypatch):
    assert _grid(16_002)[1] == 1001  # the worker fills lanes 500..1000, the tail among them
    serial = Xoshiro256PP(23)
    want = serial.normal_array(n)  # below SPLIT_MIN_DRAWS: one process
    workers = force_setup_split(monkeypatch, min_draws)
    forked = Xoshiro256PP(23)
    got = forked.normal_array(n)
    assert got.tobytes() == want.tobytes()
    assert forked.next_uint64() == serial.next_uint64()
    assert len(workers) == splits


@linux_only
def test_a_split_normal_array_returns_private_memory(monkeypatch):
    # The worker's floats pass through a shared mapping into an array of
    # the caller's own, so data built on it never lives in the mapping.
    workers = force_setup_split(monkeypatch, 40_000)
    out = Xoshiro256PP(5).normal_array(40_001)
    assert len(workers) == 1
    assert out.base is None and out.flags.writeable


@linux_only
def test_a_split_normal_array_frees_the_workers_half_as_it_copies_it():
    # In a fresh process, whose peak RSS is the measure: tracemalloc does not
    # see the shared mapping. The peak is VmHWM, not ru_maxrss, which keeps
    # the peak of the process that started the child. A small lane-path
    # draw first leaves out what any first draw allocates. Copying the
    # worker's half in one piece mapped all of it next to the whole
    # returned array (about 1.5x); the chunks freed as they are copied
    # leave little beyond the array.
    child = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "import fedsim.split as split\n"
        "from fedsim.rng import Xoshiro256PP\n"
        "forks = []\n"
        "class Counted(split.Worker):\n"
        "    def __init__(self, *args):\n"
        "        forks.append(super().__init__(*args))\n"
        "split.Worker = Counted\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
        "Xoshiro256PP(1).normal_array(20_000)\n"
        "before = peak()\n"
        "out = Xoshiro256PP(2).normal_array(2_359_840)\n"
        "print(len(forks), (peak() - before) * 1024 / out.nbytes)\n"
    )
    src = str(Path(rng.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    forks, ratio = result.stdout.split()
    assert forks == "1" and 1.0 <= float(ratio) <= 1.25


@linux_only
def test_uniform_array_stays_in_one_process(monkeypatch):
    workers = force_setup_split(monkeypatch, 40_000)
    Xoshiro256PP(1).uniform_array(50_000, 0.0, 1.0)
    assert workers == []


@linux_only
def test_a_set_up_worker_that_raises_raises_a_contract_error_and_is_reaped(monkeypatch):
    parent, real = os.getpid(), rng._box_muller

    def box_muller(d):
        if os.getpid() != parent:
            raise RuntimeError("no normals in the worker")
        return real(d)

    monkeypatch.setattr(rng, "_box_muller", box_muller)
    workers = force_setup_split(monkeypatch, 40_000)
    generator = Xoshiro256PP(3)
    state = list(generator._s)
    with pytest.raises(ContractError,
                       match="set-up worker raised RuntimeError: no normals in the worker"):
        generator.normal_array(40_000)
    assert len(workers) == 1
    assert generator._s == state  # a failed draw leaves the generator where it was
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
