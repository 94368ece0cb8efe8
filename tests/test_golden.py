"""Golden digests: the exact bytes of seven small runs.

Each case pins the SHA-256 of its metrics CSV and of the weights passed to
the last ``round_hook`` call (float64 bytes, layer by layer, weights before
biases). A refactor that keeps the arithmetic keeps every digest. A change
that alters the numbers on purpose is a declared stream bump: it raises
``fedsim.rng.STREAM_VERSION`` and updates the digests in the same change.
These digests are of stream version 2.

The digests were taken with numpy 2.4.6 linked against OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH) under Python 3.11 on an x86_64 CPU with
AVX512, where DYNAMIC_ARCH picks the SkylakeX kernels. Other kernels may
round matrix products differently and fail these tests with no change to
fedsim. On that CPU, under ``OPENBLAS_CORETYPE`` Haswell or Zen (which
runs the Haswell kernels), ``centralized_lockstep`` and
``test_lane_path_digests`` fail and the other six of the eight pass; under
Sandybridge or Prescott, all eight fail. ``test_lane_path_digests`` fails
through ``synthetic``'s ``np.linalg.norm``, a BLAS dot product; its
draws keep their bits under every kernel (``tests/test_blas_kernels.py``).
``demos/blas_kernel_probe.py`` prints this table.

The five federated cases run a second time with their clients split across
two processes (``force_split``), and must give the same digests. So do the
lane-path draws, with their normals drawn in one process and in two
(``force_setup_split``).
"""

import hashlib

import numpy as np
import pytest

import fedsim as fs
from fedsim import claims
from fedsim.data import synthetic, synthetic_split
from fedsim.rng import Xoshiro256PP

from helpers import force_setup_split, force_split, linux_only

SEEDS = fs.Seeds(init=3, shuffle=4, partition=5)
SPEC = fs.NetworkSpec(5, (6,), 3)
TRAIN, TEST = synthetic_split(21, 100, 30, 5, 3)


def iid_clients() -> list[fs.Dataset]:
    return fs.partition_iid(TRAIN, 4, SEEDS.partition)  # 25 samples each


def unequal_clients() -> list[fs.Dataset]:
    # 23, 37 and 40 samples: at B=5 the first two end on a short batch, and
    # at C=3 every client's last window is short (T = 5, 8, 8).
    return fs.partition_manual(
        TRAIN, {0: list(range(23)), 1: list(range(23, 60)), 2: list(range(60, 100))}
    )


def config(mode: str, rounds: int, eval_every: int, batch_size: int, **knobs) -> fs.TrainingConfig:
    return fs.TrainingConfig(
        mode=mode, learning_rate=0.05, max_rounds=rounds, batch_size=batch_size,
        seeds=SEEDS, eval_every=eval_every, **knobs,
    )


def fedmmb(clients, rounds, eval_every, batch_count):
    cfg = config("fedmmb", rounds, eval_every, 5, clients=len(clients), batch_count=batch_count)
    return lambda hook: fs.run_fedmmb(cfg, SPEC, clients, TEST, round_hook=hook)


def fedavg(clients, rounds, eval_every, local_epochs):
    cfg = config("fedavg", rounds, eval_every, 5, clients=len(clients), local_epochs=local_epochs)
    return lambda hook: fs.run_fedavg(cfg, SPEC, clients, TEST, round_hook=hook)


def centralized(rounds, eval_every, batch_size):
    cfg = config("centralized", rounds, eval_every, batch_size)
    return lambda hook: fs.run_centralized(cfg, SPEC, TRAIN, TEST, round_hook=hook)


def lockstep(clients, rounds, eval_every, batch_size):
    """``claims.lockstep_mbgd``, with the rows a centralized run logs rebuilt at the cadence."""
    cfg = config("centralized", rounds, eval_every, batch_size)

    def run(hook):
        log = fs.MetricsLog()

        def logged(r, w):
            if r % eval_every == 0:
                log.append(fs.MetricsRow(r, *fs.evaluate(SPEC, w, TEST), None, r, 0))
            hook(r, w)

        claims.lockstep_mbgd(cfg, SPEC, clients, logged)
        return log

    return run


CASES = {
    "fedmmb_c1_iid": fedmmb(iid_clients(), 60, 5, batch_count=1),
    "fedmmb_c3_unequal": fedmmb(unequal_clients(), 40, 4, batch_count=3),
    "fedmmb_c_above_total": fedmmb(iid_clients(), 20, 2, batch_count=8),  # T = 5
    "fedavg_e1": fedavg(iid_clients(), 15, 3, local_epochs=1),
    "fedavg_e2_unequal": fedavg(unequal_clients(), 12, 3, local_epochs=2),
    "centralized_short_batch": centralized(120, 10, batch_size=7),  # 100 = 14 * 7 + 2
    "centralized_lockstep": lockstep(unequal_clients(), 60, 5, batch_size=15),  # batches of 5
}

# name -> (metrics CSV SHA-256, final weights SHA-256)
GOLDEN = {
    "centralized_lockstep": (
        "b6e430a39a16f91e52cd3e074d609515601016829d1fc4f414f493ee6e9a8c62",
        "c4eac42bcf466eef07dc5c71de24b3f2bd4b4e037390ecf73b3e2801b7ade7d0",
    ),
    "centralized_short_batch": (
        "5b49550117e3706a253a3d7696ed79aa7ed2833e113573b0c58d7727fae75f55",
        "b94d6f39f595633cf5e7d4c2296ebc9b1858419b5f27525fed1812c765f9b118",
    ),
    "fedavg_e1": (
        "52c4a9ae40f4204635b46d2a007442fba9e7939ee1c7c55fb7f767d25176cac3",
        "550309742b516f7ae1e22f1d50985d0d2b79a04ca34a18b4592cd59bbcf70a07",
    ),
    "fedavg_e2_unequal": (
        "f8288805511b1866135aba34714a087b418882aa380880455be4fe7973f2017d",
        "7c8e83de9d27474548286bd70086cc60e1ce3fdef70bb3e117d052ef584021b8",
    ),
    "fedmmb_c1_iid": (
        "758dcbea58662e4f793c1b75c96a4cfcd6d85c463251567b4261eb2fce02f4b3",
        "5ca20fd74fa48c56938245592e87ef55d0879d1cf6bf3f9011082fc885569e5a",
    ),
    "fedmmb_c3_unequal": (
        "f5a74b5ce482a68e1aaf3636be502810da0f1da09e8ba89e14edce8299fdf255",
        "25260b66eff9bc6e202ff4347a9da3b102ebaf0b1b903012f661340277a4e61c",
    ),
    "fedmmb_c_above_total": (
        "a39384bddfc40f82c99d15099e6983d4e2bb23cabbd03879341012340d8f0b4e",
        "fbfa33940351eba1ce178a4e235ad8383576d2c67953055a70ff01a8c7b65a83",
    ),
}


def float64_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def run_case(name: str) -> tuple[str, str]:
    final = []
    log = CASES[name](lambda round_index, weights: final.append(weights))
    return hashlib.sha256(log.to_csv_string().encode()).hexdigest(), float64_digest(final[-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    assert run_case(name) == GOLDEN[name]


@linux_only
@pytest.mark.parametrize("name", sorted(n for n in CASES if not n.startswith("centralized")))
def test_golden_digests_with_the_clients_split_across_two_processes(name, monkeypatch):
    # The unequal cases split 1 | 2: their clients end on short batches, and
    # at C=3 a serial run's step ranges span the split point.
    workers = force_split(monkeypatch)
    assert run_case(name) == GOLDEN[name]
    assert len(workers) == 1


# The runs above draw 650 normals, too few for the lane path of
# ``normal_array`` and ``uniform_array``. These digests of larger draws
# (SHA-256 of the float64 bytes) were taken with the scalar loops that the
# lane path replaced.
def test_lane_path_digests():
    assert_lane_path_digests()


@linux_only
@pytest.mark.parametrize("processes", [1, 2])
def test_lane_path_digests_with_the_normals_drawn_in_one_or_two_processes(processes, monkeypatch):
    # Two processes split synthetic's 2.35M normals and the 100,001.
    workers = force_setup_split(monkeypatch, 40_000 if processes == 2 else 2**62)
    assert_lane_path_digests()
    assert len(workers) == 2 * (processes - 1)


def assert_lane_path_digests() -> None:
    assert float64_digest(synthetic(1, 3000, 784, 10).features) == (
        "92badcd596e0c1e445c0a3f94ec7f59cb2b3e85bb3f486cfac510ffc503b6a2b"
    )
    assert float64_digest(fs.init_weights(fs.NetworkSpec(784, (32, 32), 10), 1)) == (
        "9bbd78d83e1d7eb82b94fbf5316026fa053e2e634965f4164ff3ad7e6999c607"
    )
    rng = Xoshiro256PP(7)
    assert float64_digest(rng.normal_array(100001)) == (
        "02bf3698d59723a4d8a45041312272a178275983cf856cd39d6426297fce95af"
    )
    assert rng.next_uint64() == 0x1902D6F11B7EE88D  # the state after 100002 draws
