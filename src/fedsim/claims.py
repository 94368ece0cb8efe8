"""The experiments of acceptance criteria 2-6, the paper's two claims, one function each.

Each builds its data, network and partition once and trains every arm on
them. The acceptance tests, the seed report and the demos all call these;
the bounds stay with the tests. ``import fedsim`` does not load this module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Dataset, partition_iid, partition_noniid_l, synthetic, synthetic_split
from .errors import DataError
from .federated import Seeds, TrainingConfig, run_centralized, run_fedavg, run_fedmmb
from .metrics import MetricsLog
from .nn import NetworkSpec
from .rng import Xoshiro256PP, derive_seed

# The seed triples the acceptance tests run at.
LOCKSTEP_SEEDS = Seeds(init=1, shuffle=2, partition=55)
IMAGE_SEEDS = Seeds(init=101, shuffle=102, partition=103)
DIAL_SEEDS = Seeds(init=3, shuffle=4, partition=5)


class Run(NamedTuple):
    """One arm of an experiment: the configuration it trained with, and its log."""

    config: TrainingConfig
    log: MetricsLog


def _federated(seeds, spec, clients, test, round_hook=None, **fields) -> Run:
    """Train one federated arm; ``fields`` are the rest of its ``TrainingConfig``."""
    config = TrainingConfig(seeds=seeds, clients=len(clients), **fields)
    driver = run_fedmmb if config.mode == "fedmmb" else run_fedavg
    return Run(config, driver(config, spec, clients, test, round_hook=round_hook))


def lockstep(seeds: Seeds) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Criterion 2: the global weights after every round, federated and lockstep centralized."""
    train, test = synthetic(5, 800, 20, 10), synthetic(6, 400, 20, 10)
    spec = NetworkSpec(20, (32,), 10)
    clients = partition_iid(train, 4, seeds.partition)
    fed, cent = [], []
    _federated(
        seeds, spec, clients, test, round_hook=lambda r, w: fed.append(w),
        mode="fedmmb", learning_rate=0.05, max_rounds=100, batch_size=10, batch_count=1,
    )
    cent_cfg = TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=100, batch_size=40, seeds=seeds,
    )
    run_centralized(cent_cfg, spec, None, test, clients, lambda r, w: cent.append(w))
    return fed, cent


def make_image_blobs(
    seed: int, n: int, side: int = 28, num_classes: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic uint8 image-classification data, one blob per class.

    Class c is a fixed random template; samples add pixel noise and clip to
    [0, 255]. Labels are round-robin, so any prefix whose length is a
    multiple of ``num_classes`` is exactly balanced.
    """
    dim = side * side
    rng = Xoshiro256PP(derive_seed(seed, 0x1D8))
    templates = np.stack(
        [rng.uniform_array(dim, 40.0, 215.0) for _ in range(num_classes)]
    )
    labels = np.arange(n, dtype=np.int64) % num_classes
    noise = rng.normal_array(n * dim).reshape(n, dim) * 60.0
    pixels = np.clip(templates[labels] + noise, 0.0, 255.0)
    images = np.rint(pixels).astype(np.uint8).reshape(n, side, side)
    return images, labels.astype(np.uint8)


def image_surrogate() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Criterion 3's stand-in for MNIST: ``(images, labels)`` to train on, then to test on."""
    return make_image_blobs(41, 4000), make_image_blobs(42, 1500)


def balanced_subset(dataset: Dataset, per_class: int, seed: int) -> Dataset:
    """Deterministically pick ``per_class`` samples of every class.

    Raises ``DataError`` if a class has fewer samples than that.
    """
    rng = Xoshiro256PP(derive_seed(seed, 0xBA1))
    chosen = []
    for label in range(dataset.num_classes):
        pool = np.flatnonzero(dataset.labels == label)
        if pool.size < per_class:
            raise DataError(f"class {label} has only {pool.size} samples")
        order = rng.permutation(pool.size)
        chosen.append(pool[order[:per_class]])
    idx = np.concatenate(chosen)
    # Interleave classes so any prefix stays roughly balanced.
    idx = idx.reshape(dataset.num_classes, per_class).T.reshape(-1)
    return dataset.subset(idx)


def image_concordance(
    seeds: Seeds, train_full: Dataset, test_full: Dataset
) -> tuple[Dataset, Dataset, Run, dict[str, Run]]:
    """Criterion 3: the balanced subsets, the centralized run, the federated runs by partition."""
    train = balanced_subset(train_full, 200, seed=7)
    test = balanced_subset(test_full, 100, seed=8)
    spec = NetworkSpec(784, (32, 32), 10)
    cent_cfg = TrainingConfig(
        mode="centralized", learning_rate=0.01, max_rounds=2000, batch_size=50, seeds=seeds,
        eval_every=10,
    )
    cent = Run(cent_cfg, run_centralized(cent_cfg, spec, train, test))
    partitions = {
        "iid": partition_iid(train, 10, seeds.partition),
        "noniid_1": partition_noniid_l(train, 10, 1, seeds.partition),
    }
    fields = dict(mode="fedmmb", learning_rate=0.01, max_rounds=2000, batch_size=5, batch_count=1)
    fed = {
        name: _federated(seeds, spec, clients, test, eval_every=10, **fields)
        for name, clients in partitions.items()
    }
    return train, test, cent, fed


def iid_dial(seeds: Seeds) -> dict[int, Run]:
    """Criterion 4: one run per batch count (the keys) with iid clients."""
    train, test = synthetic_split(1, 2000, 600, 20, 3)
    spec = NetworkSpec(20, (32,), 3)
    clients = partition_iid(train, 10, seeds.partition)
    fields = dict(mode="fedmmb", learning_rate=0.05, max_rounds=600, batch_size=10)
    return {c: _federated(seeds, spec, clients, test, batch_count=c, **fields) for c in (1, 5, 20)}


def severe_skew(seeds: Seeds) -> dict[int, Run]:
    """Criterion 5: one run per batch count (the keys) with two labels per client."""
    train, test = synthetic_split(21, 2000, 500, 20, 10)
    spec = NetworkSpec(20, (32, 32), 10)
    clients = partition_noniid_l(train, 10, 2, seeds.partition)
    fields = dict(mode="fedmmb", learning_rate=0.08, max_rounds=2000, batch_size=10, eval_every=10)
    return {c: _federated(seeds, spec, clients, test, batch_count=c, **fields) for c in (1, 20)}


def versus_fedavg(seeds: Seeds) -> tuple[Run, Run, Run]:
    """Criterion 6: windowed training, then federated averaging at batch sizes 10 and 50."""
    train, test = synthetic_split(31, 10000, 1000, 20, 10)
    spec = NetworkSpec(20, (32, 32), 10)
    clients = partition_noniid_l(train, 10, 2, seeds.partition)
    fields = dict(learning_rate=0.05, max_rounds=600, eval_every=5)
    arms = (
        dict(mode="fedmmb", batch_size=10, batch_count=20),
        dict(mode="fedavg", batch_size=10, local_epochs=1),
        dict(mode="fedavg", batch_size=50, local_epochs=1),
    )
    return tuple(_federated(seeds, spec, clients, test, **fields, **arm) for arm in arms)
