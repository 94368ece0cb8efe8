"""Shared test utilities: scalar-loop oracles, IDX fixtures and forced splits.

The oracles here recompute results with plain Python loops and math calls,
independently of the vectorized implementation paths they check. The
per-client reference run trains one client and one 2-D batch at a time
(``window_batches``), as the stacked round loop must reproduce bit for bit.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np
import pytest

import fedsim as fs
import fedsim.federated as federated
import fedsim.rng as rng
import fedsim.split as split
from fedsim import Dataset, NetworkSpec, layer_views
from fedsim.rng import _GOLDEN, _MASK64, Xoshiro256PP, _lane_jump, _mix64, _polymulmod, _xpow


def scalar_loss(spec: NetworkSpec, weights: np.ndarray, batch: Dataset) -> float:
    """Per-sample forward pass and cross-entropy, all in Python floats."""
    total = 0.0
    layers = layer_views(spec, weights)
    num_layers = len(layers)
    for s in range(batch.n):
        x = [float(v) for v in batch.features[s]]
        z: list[float] = []
        for l, (w, b) in enumerate(layers):
            z = [
                sum(x[i] * float(w[i, o]) for i in range(w.shape[0])) + float(b[o])
                for o in range(w.shape[1])
            ]
            if l < num_layers - 1:
                x = [max(0.0, v) for v in z]
        m = max(z)
        log_norm = m + math.log(sum(math.exp(v - m) for v in z))
        total += -(z[batch.labels[s]] - log_norm)
    return total / batch.n


def scalar_probabilities(spec: NetworkSpec, weights: np.ndarray, features_row) -> list[float]:
    x = [float(v) for v in features_row]
    layers = layer_views(spec, weights)
    num_layers = len(layers)
    z: list[float] = []
    for l, (w, b) in enumerate(layers):
        z = [
            sum(x[i] * float(w[i, o]) for i in range(w.shape[0])) + float(b[o])
            for o in range(w.shape[1])
        ]
        if l < num_layers - 1:
            x = [max(0.0, v) for v in z]
    m = max(z)
    exps = [math.exp(v - m) for v in z]
    norm = sum(exps)
    return [e / norm for e in exps]


def scalar_evaluate(spec: NetworkSpec, weights: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """Loss and accuracy recomputed sample by sample (lowest-index tie-break)."""
    total_loss = 0.0
    hits = 0
    for s in range(dataset.n):
        probs = scalar_probabilities(spec, weights, dataset.features[s])
        label = int(dataset.labels[s])
        total_loss += -math.log(probs[label]) if probs[label] > 0 else float("inf")
        best = 0
        for c in range(1, len(probs)):
            if probs[c] > probs[best]:
                best = c
        hits += best == label
    return total_loss / dataset.n, hits / dataset.n


def grad_rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute gradient gap, relative to the reference's largest entry."""
    scale = float(np.max(np.abs(reference)))
    gap = float(np.max(np.abs(analytic - reference)))
    return gap / max(scale, 1e-12)


def reference_shuffle_order(seed: int, n: int) -> list[int]:
    """Python-int keys ``_mix64(seed + GOLDEN * (i + 1))``, argsorted stably.

    ``sorted`` is a stable sort, so this is the order a stable argsort of
    the keys gives, whether or not the keys are distinct.
    """
    keys = [_mix64((seed + _GOLDEN * (i + 1)) & _MASK64) for i in range(n)]
    return sorted(range(n), key=keys.__getitem__)


def reference_uniform_array(rng: Xoshiro256PP, n: int, low: float, high: float) -> np.ndarray:
    """``uniform_array`` as one ``next_uint64`` call and one Python float per value."""
    span = high - low
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = low + ((rng.next_uint64() >> 11) * 2.0**-53) * span
    return out


def reference_normal_array(rng: Xoshiro256PP, n: int) -> np.ndarray:
    """``normal_array`` as a Box-Muller loop on ``next_uint64`` and ``math``."""
    out = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        u1 = ((rng.next_uint64() >> 11) + 1) * 2.0**-53
        u2 = (rng.next_uint64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        i += 2
    return out


def reference_lane_starts(state: list[int], lanes: int, stride: int) -> np.ndarray:
    """``rng._lane_starts`` by doubling: ``[4, lanes]`` states ``stride`` steps apart.

    The first ``c`` lanes jumped by ``c * stride`` through the polynomial
    ``x**(c * stride)`` give the next ``c``, so ``lanes`` starts take about
    ``log2(lanes)`` passes of ``_lane_jump``. No bit matrix is involved.
    """
    s = np.array(state, dtype=np.uint64).reshape(4, 1)
    q = _xpow(stride)
    while s.shape[1] < lanes:
        s = np.concatenate([s, _lane_jump(s[:, : lanes - s.shape[1]], q)], axis=1)
        q = _polymulmod(q, q)
    return s


def reference_aggregate(stack: np.ndarray, samples: list[int]) -> np.ndarray:
    """``aggregate`` with row 0's own term kept: the loop runs over every row.

    Raises ``ContractError`` as ``aggregate`` does.
    """
    if len(stack) == 0 or len(samples) != len(stack) or min(samples) < 1:
        raise fs.ContractError("aggregate needs a non-empty stack and a positive count per row")
    anchor = stack[0]
    acc = np.zeros_like(anchor)
    scratch = np.empty_like(anchor)
    for weights, n in zip(stack, samples):
        np.subtract(weights, anchor, out=scratch)
        scratch *= float(n)
        acc += scratch
    acc /= sum(samples)
    acc += anchor
    if not np.isfinite(acc).all():
        raise fs.ContractError("aggregated weights are non-finite; training diverged")
    return acc


def reference_noniid_l_rows(
    dataset: Dataset, clients: int, labels_per_client: int, seed: int
) -> list[np.ndarray]:
    """Every client's rows of ``partition_noniid_l``, dealt one shard at a time.

    The same draws as the partitioner, then a slot loop that hands shard
    after shard to client ``slot % clients``. Inputs must be valid.
    """
    shards_per_label = (clients * labels_per_client) // dataset.num_classes
    rng = Xoshiro256PP(fs.derive_seed(seed, 0x901))
    groups: list[np.ndarray] = []
    for label in range(dataset.num_classes):
        group = np.flatnonzero(dataset.labels == label)
        groups.append(group[rng.permutation(group.size)])

    label_order = rng.permutation(dataset.num_classes)
    client_indices: list[list[np.ndarray]] = [[] for _ in range(clients)]
    slot = 0
    for label in label_order:
        group = groups[label]
        shard_size = group.size // shards_per_label
        for s in range(shards_per_label):
            client_indices[slot % clients].append(group[s * shard_size : (s + 1) * shard_size])
            slot += 1
    return [np.concatenate(client_indices[j]) for j in range(clients)]


def write_idx_pair(directory: str, images: np.ndarray, labels: np.ndarray, stem: str) -> tuple[str, str]:
    """Write a uint8 image array [n, rows, cols] and labels [n] as IDX files."""
    n, rows, cols = images.shape
    images_path = os.path.join(directory, f"{stem}-images-idx3-ubyte")
    labels_path = os.path.join(directory, f"{stem}-labels-idx1-ubyte")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return images_path, labels_path


def mnist_idx_paths() -> dict[str, str] | None:
    """Locate real MNIST IDX files if present, via FEDSIM_MNIST_DIR or ./data/mnist."""
    candidates = []
    env_dir = os.environ.get("FEDSIM_MNIST_DIR")
    if env_dir:
        candidates.append(env_dir)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    for directory in candidates:
        paths = {k: os.path.join(directory, v) for k, v in names.items()}
        if all(os.path.exists(p) for p in paths.values()):
            return paths
    return None


def window_batches(schedule: fs.BatchSchedule, index: int) -> list[Dataset]:
    """Window ``index`` as batches in training order, cut from its ``window_rows``."""
    rows, sizes = schedule.window_rows(index)
    return [schedule.source.subset(r) for r in np.split(rows, np.cumsum(sizes)[:-1])]


def per_client_reference(
    config: fs.TrainingConfig,
    spec: NetworkSpec,
    clients: list[Dataset],
    test_set: Dataset,
) -> tuple[fs.MetricsLog, np.ndarray]:
    """A fedmmb or fedavg run trained client by client, one batch at a time.

    Each round every client, in list order, takes its windows
    from its own schedule and runs ``compute_gradients`` and ``sgd_step``
    batch by batch; ``aggregate`` then combines the clients' local weights,
    stacked in list order. Returns the metrics log and the final global
    weights.
    """
    b = config.batch_size
    if config.mode == "fedmmb":
        windows = 1
        counts = [config.batch_count] * len(clients)
    else:
        windows = config.local_epochs
        counts = [-(-c.n // b) for c in clients]
    schedules = [
        fs.BatchSchedule(c, b, count, config.seeds.shuffle, j)
        for j, (c, count) in enumerate(zip(clients, counts))
    ]
    bytes_per_round = fs.comm_cost(config, spec)
    weights = fs.init_weights(spec, config.seeds.init)
    log = fs.MetricsLog()
    updates = 0
    for i in range(config.max_rounds):
        trained, samples_used = [], []
        for schedule in schedules:
            local, samples, steps = weights, 0, 0
            for k in range(windows):
                for batch in window_batches(schedule, i * windows + k):
                    _, grads = fs.compute_gradients(spec, local, batch)
                    local = fs.sgd_step(local, grads, config.learning_rate)
                    samples += batch.n
                    steps += 1
            trained.append(local)
            samples_used.append(samples)
            updates += steps
        weights = fs.aggregate(np.stack(trained), samples_used)
        if (i + 1) % config.eval_every == 0:
            loss, accuracy = fs.evaluate(spec, weights, test_set)
            log.append(
                fs.MetricsRow(i + 1, loss, accuracy, None, updates, (i + 1) * bytes_per_round)
            )
    return log, weights


# Work runs in two processes only on Linux (``split.can_fork``).
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="runs split only on Linux")


def record_workers(monkeypatch) -> list:
    """Two CPUs to run on, and the list of each ``split.Worker`` started from now on.

    Workers are recorded in the parent only.
    """
    workers = []

    class Recorded(split.Worker):
        def __init__(self, *args):
            super().__init__(*args)
            workers.append(self)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(split, "Worker", Recorded)
    return workers


def force_split(monkeypatch) -> list:
    """Split every federated run of two or more clients; returns the list of its workers.

    It sets the split rule's inputs, the CPU count and ``SPLIT_MIN_STEPS``.
    """
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 1)
    return record_workers(monkeypatch)


def force_setup_split(monkeypatch, min_draws: int) -> list:
    """Split every ``normal_array`` of at least ``min_draws`` lane-path draws.

    It sets the CPU count and ``rng.SPLIT_MIN_DRAWS``, and returns the list
    of the workers started.
    """
    monkeypatch.setattr(rng, "SPLIT_MIN_DRAWS", min_draws)
    return record_workers(monkeypatch)
