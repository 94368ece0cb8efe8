"""The experiments of acceptance criteria 2-6, the paper's two claims, as arm tables.

Criterion 2 compares the federated driver at batch count 1 with
``lockstep_mbgd``, an oracle that trains with the engine's checked step
(``compute_gradients``, ``sgd_step``), not with the round loop it checks.
The builders of criteria 3-6 train nothing. Each returns an ``Experiment``
whose named arms share its data and client lists; ``train`` trains the arms
in table order. The margin functions read them by name, and a variant arm is
``dataclasses.replace`` on a config. ``import fedsim`` does not load this module.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .blas import one_blas_thread
from .data import BatchSchedule, Dataset, draw_windows, partition_iid, partition_noniid_l
from .data import synthetic, synthetic_split
from .errors import ConfigError, DataError
from .federated import RoundHook, Seeds, TrainingConfig, run_centralized, run_fedavg, run_fedmmb
from .metrics import MetricsLog, discordance
from .nn import NetworkSpec, _require_data, compute_gradients, init_weights, sgd_step
from .rng import Xoshiro256PP, derive_seed

# The seed triples the acceptance tests run at.
LOCKSTEP_SEEDS = Seeds(init=1, shuffle=2, partition=55)
IMAGE_SEEDS = Seeds(init=101, shuffle=102, partition=103)
DIAL_SEEDS = Seeds(init=3, shuffle=4, partition=5)


class Run(NamedTuple):
    """One arm of an experiment: the configuration it trained with, and its log."""

    config: TrainingConfig
    log: MetricsLog


class Experiment(NamedTuple):
    """Data, network and arms ``{name: (clients, config)}``; ``None`` clients train on ``train``."""

    train: Dataset
    test: Dataset
    spec: NetworkSpec
    arms: dict[str, tuple[list[Dataset] | None, TrainingConfig]]


def train(experiment: Experiment) -> dict[str, Run]:
    """Train every arm of ``experiment`` in table order."""
    drivers = {"fedmmb": run_fedmmb, "fedavg": run_fedavg, "centralized": run_centralized}
    train_set, test, spec, arms = experiment
    runs = {}
    for name, (clients, config) in arms.items():
        data = train_set if clients is None else clients
        runs[name] = Run(config, drivers[config.mode](config, spec, data, test))
    return runs


def _arm(clients: list[Dataset], **fields) -> tuple[list[Dataset], TrainingConfig]:
    """A federated arm on ``clients``; ``fields`` are the rest of its ``TrainingConfig``."""
    return clients, TrainingConfig(clients=len(clients), **fields)


def lockstep_mbgd(
    config: TrainingConfig, spec: NetworkSpec, clients: list[Dataset], round_hook: RoundHook
) -> None:
    """Criterion 2's centralized side: mini-batch descent on the union of K clients' batches.

    ``config`` is a centralized ``TrainingConfig``. Iteration ``i`` trains
    on the concatenation, in client order, of the batches of
    ``config.batch_size / K`` samples that batch-count-1 federated clients
    take in round ``i`` (``draw_windows``), with one checked
    ``compute_gradients`` and ``sgd_step``, and then calls
    ``round_hook(i + 1, weights)``. It shares only the batch schedules with
    the round loop. K must divide the batch size (``ConfigError``), and
    every client is checked against the spec before the first step
    (``ContractError``). Like every run, it trains at one BLAS thread.
    """
    k, b = len(clients), config.batch_size
    if k == 0 or b % k:
        raise ConfigError(f"lockstep needs a client count that divides batch size {b}, got {k}")
    for c in clients:
        _require_data(spec, c.input_dim, c.labels)
    shuffle = config.seeds.shuffle
    schedules = [BatchSchedule(c, b // k, 1, shuffle, j) for j, c in enumerate(clients)]
    with one_blas_thread():
        weights = init_weights(spec, config.seeds.init)
        for i in range(config.max_rounds):
            parts = [c.subset(rows) for c, (rows, _) in zip(clients, draw_windows(schedules, i))]
            batch = Dataset(
                np.concatenate([p.features for p in parts]),
                np.concatenate([p.labels for p in parts]),
                spec.output_dim,
            )
            _, grads = compute_gradients(spec, weights, batch)
            weights = sgd_step(weights, grads, config.learning_rate)
            round_hook(i + 1, weights)


def lockstep(seeds: Seeds) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Criterion 2: the global weights after every round, federated and ``lockstep_mbgd``."""
    train, test = synthetic(5, 800, 20, 10), synthetic(6, 400, 20, 10)
    spec = NetworkSpec(20, (32,), 10)
    clients = partition_iid(train, 4, seeds.partition)
    fields = dict(learning_rate=0.05, max_rounds=100, seeds=seeds)
    fed, cent = [], []
    fed_cfg = TrainingConfig(mode="fedmmb", batch_size=10, clients=4, batch_count=1, **fields)
    run_fedmmb(fed_cfg, spec, clients, test, round_hook=lambda r, w: fed.append(w))
    cent_cfg = TrainingConfig(mode="centralized", batch_size=40, **fields)
    lockstep_mbgd(cent_cfg, spec, clients, lambda r, w: cent.append(w))
    return fed, cent


def make_image_blobs(
    seed: int, n: int, side: int = 28, num_classes: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic uint8 image-classification data, one blob per class.

    Class c is a fixed random template; samples add pixel noise and clip to
    [0, 255]. Labels are round-robin, so any prefix whose length is a
    multiple of ``num_classes`` is exactly balanced. The pixels are built in
    place in the array the noise is drawn into.
    """
    dim = side * side
    rng = Xoshiro256PP(derive_seed(seed, 0x1D8))
    templates = [rng.uniform_array(dim, 40.0, 215.0) for _ in range(num_classes)]
    labels = (np.arange(n, dtype=np.int64) % num_classes).astype(np.uint8)
    pixels = rng.normal_array(n * dim).reshape(n, dim)
    pixels *= 60.0
    for c, template in enumerate(templates):
        rows = pixels[c::num_classes]
        np.add(rows, template, out=rows)
    np.clip(pixels, 0.0, 255.0, out=pixels)
    np.rint(pixels, out=pixels)
    return pixels.astype(np.uint8).reshape(n, side, side), labels


def image_surrogate() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Criterion 3's stand-in for MNIST: ``(images, labels)`` to train on, then to test on.

    Both come from one draw of 5500 rows, sliced 4000 / 1500 as
    ``synthetic_split`` slices, so the test rows share the train rows' class
    templates. Both slices start at label 0 and stay balanced.
    """
    images, labels = make_image_blobs(41, 5500)
    return (images[:4000], labels[:4000]), (images[4000:], labels[4000:])


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


def image_concordance(seeds: Seeds, train_full: Dataset, test_full: Dataset) -> Experiment:
    """Criterion 3: centralized and batch-count-1 arms on balanced subsets of the full sets."""
    train = balanced_subset(train_full, 200, seed=7)
    test = balanced_subset(test_full, 100, seed=8)
    fields = dict(learning_rate=0.01, max_rounds=2000, seeds=seeds, eval_every=10)
    fed = dict(mode="fedmmb", batch_size=5, batch_count=1, **fields)
    arms = {
        "centralized": (None, TrainingConfig(mode="centralized", batch_size=50, **fields)),
        "iid": _arm(partition_iid(train, 10, seeds.partition), **fed),
        "noniid_1": _arm(partition_noniid_l(train, 10, 1, seeds.partition), **fed),
    }
    return Experiment(train, test, NetworkSpec(784, (32, 32), 10), arms)


def iid_dial(seeds: Seeds) -> Experiment:
    """Criterion 4: batch counts 1, 5 and 20 with iid clients."""
    train, test = synthetic_split(1, 2000, 600, 20, 3)
    clients = partition_iid(train, 10, seeds.partition)
    fields = dict(mode="fedmmb", learning_rate=0.05, max_rounds=600, batch_size=10)
    arms = {f"C={c}": _arm(clients, seeds=seeds, batch_count=c, **fields) for c in (1, 5, 20)}
    return Experiment(train, test, NetworkSpec(20, (32,), 3), arms)


def severe_skew(seeds: Seeds) -> Experiment:
    """Criterion 5: batch counts 1 and 20 with two labels per client."""
    train, test = synthetic_split(21, 2000, 500, 20, 10)
    clients = partition_noniid_l(train, 10, 2, seeds.partition)
    fields = dict(mode="fedmmb", learning_rate=0.08, max_rounds=2000, batch_size=10, eval_every=10)
    arms = {f"C={c}": _arm(clients, seeds=seeds, batch_count=c, **fields) for c in (1, 20)}
    return Experiment(train, test, NetworkSpec(20, (32, 32), 10), arms)


def versus_fedavg(seeds: Seeds) -> Experiment:
    """Criterion 6: windowed training, then federated averaging at batch sizes 10 and 50."""
    train, test = synthetic_split(31, 10000, 1000, 20, 10)
    clients = partition_noniid_l(train, 10, 2, seeds.partition)
    fields = dict(learning_rate=0.05, max_rounds=600, seeds=seeds, eval_every=5)
    arms = {
        "windowed B=10": _arm(clients, mode="fedmmb", batch_size=10, batch_count=20, **fields),
        "FedAvg B=10": _arm(clients, mode="fedavg", batch_size=10, local_epochs=1, **fields),
        "FedAvg B=50": _arm(clients, mode="fedavg", batch_size=50, local_epochs=1, **fields),
    }
    return Experiment(train, test, NetworkSpec(20, (32, 32), 10), arms)


DIAL_TARGET = 0.75  # the test accuracy criterion 4 counts rounds to
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


class Bound(NamedTuple):
    """A margin meets its bound when ``margin <op> limit`` holds, which NaN never does."""

    op: str
    limit: float

    def __str__(self) -> str:
        return f"{self.op} {self.limit:g}"


# Criterion -> margin -> bound; the margin functions below return these names.
BOUNDS = {
    3: {
        # Concordance of arms that learn nothing checks nothing: five times chance.
        "centralized max accuracy": Bound(">=", 0.5),
        "delta iid": Bound("<", 0.01),
        "delta noniid_1": Bound("<", 0.01),
    },
    4: {
        "rounds C=1 - C=5": Bound(">", 0),
        "rounds C=5 - C=20": Bound(">", 0),
        "max accuracy spread": Bound("<=", 0.03),
    },
    5: {"max accuracy C=1 - C=20": Bound(">=", 0.02)},
    6: {"over FedAvg B=10": Bound(">=", 0.02), "over FedAvg B=50": Bound(">", 0.0)},
}


def failing(criterion: int, margins: dict[str, float]) -> list[str]:
    """The names of the margins of ``criterion`` that miss their bound."""
    bounds = BOUNDS[criterion].items()
    return [name for name, (op, limit) in bounds if not _COMPARE[op](margins[name], limit)]


def concordance_margins(runs: dict[str, Run]) -> dict[str, float]:
    """Criterion 3: the centralized arm's max accuracy and each federated arm's discordance."""
    cent = runs["centralized"].log
    epsilon = BOUNDS[3]["delta iid"].limit  # sets only the verdict, which is not read
    deltas = {
        f"delta {k}": discordance(runs[k].log, cent, epsilon).delta for k in ("iid", "noniid_1")
    }
    return {"centralized max accuracy": cent.max_accuracy(), **deltas}


def dial_margins(runs: dict[str, Run]) -> dict[str, float]:
    """Criterion 4: rounds to ``DIAL_TARGET`` saved per batch-count step, and the accuracy spread.

    A run that never reaches the target counts NaN rounds.
    """
    reached = [runs[name].log.first_round_reaching(DIAL_TARGET) for name in ("C=1", "C=5", "C=20")]
    r1, r5, r20 = (math.nan if r is None else r for r in reached)
    accuracy = [runs[name].log.max_accuracy() for name in ("C=1", "C=5", "C=20")]
    return {
        "rounds C=1 - C=5": r1 - r5,
        "rounds C=5 - C=20": r5 - r20,
        "max accuracy spread": max(accuracy) - min(accuracy),
    }


def skew_margins(runs: dict[str, Run]) -> dict[str, float]:
    """Criterion 5: max accuracy at batch count 1 minus at batch count 20."""
    c1, c20 = (runs[name].log.max_accuracy() for name in ("C=1", "C=20"))
    return {"max accuracy C=1 - C=20": c1 - c20}


def fedavg_margins(runs: dict[str, Run]) -> dict[str, float]:
    """Criterion 6: windowed training's max accuracy minus each FedAvg arm's."""
    names = ("windowed B=10", "FedAvg B=10", "FedAvg B=50")
    mmb, avg_small, avg_large = (runs[name].log.max_accuracy() for name in names)
    return {"over FedAvg B=10": mmb - avg_small, "over FedAvg B=50": mmb - avg_large}
