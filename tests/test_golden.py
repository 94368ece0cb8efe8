"""Golden digests: the exact bytes of seven small runs.

Each case pins the SHA-256 of its metrics CSV and of the weights passed to
the last ``round_hook`` call (float64 bytes, layer by layer, weights before
biases). A refactor that keeps the arithmetic keeps every digest. A change
that alters the numbers on purpose is a declared stream bump and updates the
digests in the same change.

The digests were taken with numpy 2.4.6 linked against OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH, Haswell kernels) on x86_64 under Python 3.11.
Another BLAS build may round matrix products differently and fail these
tests with no change to fedsim.
"""

import hashlib

import numpy as np
import pytest

import fedsim as fs
from fedsim.data import synthetic_split

SEEDS = fs.Seeds(init=3, shuffle=4, partition=5)
SPEC = fs.NetworkSpec(5, (6,), 3)
TRAIN, TEST = synthetic_split(21, 100, 30, 5, 3)


def iid_clients() -> list[fs.ClientDataset]:
    return fs.partition_iid(TRAIN, 4, SEEDS.partition)  # 25 samples each


def unequal_clients() -> list[fs.ClientDataset]:
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


def centralized(rounds, eval_every, batch_size, lockstep=None):
    cfg = config("centralized", rounds, eval_every, batch_size)
    train = None if lockstep else TRAIN
    return lambda hook: fs.run_centralized(
        cfg, SPEC, train, TEST, lockstep=lockstep, round_hook=hook
    )


CASES = {
    "fedmmb_c1_iid": fedmmb(iid_clients(), 60, 5, batch_count=1),
    "fedmmb_c3_unequal": fedmmb(unequal_clients(), 40, 4, batch_count=3),
    "fedmmb_c_above_total": fedmmb(iid_clients(), 20, 2, batch_count=8),  # T = 5
    "fedavg_e1": fedavg(iid_clients(), 15, 3, local_epochs=1),
    "fedavg_e2_unequal": fedavg(unequal_clients(), 12, 3, local_epochs=2),
    "centralized_short_batch": centralized(120, 10, batch_size=7),  # 100 = 14 * 7 + 2
    "centralized_lockstep": centralized(
        60, 5, batch_size=15, lockstep=fs.LockstepPlan(unequal_clients(), 5)
    ),
}

# name -> (metrics CSV SHA-256, final weights SHA-256)
GOLDEN = {
    "centralized_lockstep": (
        "7363c7d2038a8af12e1addda6b5049c385ed5e14373164f6aa7c8d9bb8a40fcb",
        "ec33b908f3ff27c2dd32356ac63e12d446e1397e413189476849d076e0d6f8e2",
    ),
    "centralized_short_batch": (
        "78e2bc508fa45b753ae318f53a4728b5a3c1652da819a93f30e896d9d57a2877",
        "118e695a630154b45da5299f002e3af9af9602cdff1dab275339ed3c162024e7",
    ),
    "fedavg_e1": (
        "7431f693ede2b0b05e23217ca8e46a85ea9205d06b663a233cd5df5ceb66f0ef",
        "3b172ec809a29157cc18af9c39f02d609d04535107235431412f0d105e6de228",
    ),
    "fedavg_e2_unequal": (
        "82ed37951feb23fb2e884b28358d0d65442b7713d3002bf8d37976132f946d3d",
        "d7fde46ebd68d7c0506f93657d394575e2046a98f66437edae90df57f0ec0718",
    ),
    "fedmmb_c1_iid": (
        "c42873024ef86747d0b411672aaa30d0d9af256d3f37cdb3b8690c4769a9859c",
        "2023ba9aa60114d9db900d9018de2ce5549835a540c77dd2ae172e219cab8e9f",
    ),
    "fedmmb_c3_unequal": (
        "58e22f5c532cd73d6a37c3d08b6f14c5f9d77c556d36300712db7dd7f04f88b1",
        "4a348378d669fa0f4a39c0ce17f1b134cc9334b44f7f7755a57fa6388a3f8085",
    ),
    "fedmmb_c_above_total": (
        "8f66d8bfb623fe5afd502e4112804290c22925b4478c6235ea08667992917424",
        "062b4b95459594a863cbc9eb33b5b8fa005df7ff9960734bd0b7e47c2b9668a6",
    ),
}


def weights_digest(weights: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(weights, dtype=np.float64).tobytes()).hexdigest()


def run_case(name: str) -> tuple[str, str]:
    final = []
    log = CASES[name](lambda round_index, weights: final.append(weights))
    return hashlib.sha256(log.to_csv_string().encode()).hexdigest(), weights_digest(final[-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    assert run_case(name) == GOLDEN[name]
