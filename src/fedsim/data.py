"""Datasets, client partitioners, and per-client batch schedules.

Partitioners split one dataset across clients either homogeneously (iid)
or with label skew (noniid_l: every client holds samples of exactly L
distinct labels). They return one ``Dataset`` per client, client ``j`` at
position ``j``. A batch schedule maps a window index to the batches a
client trains on in that window, a pure function of the index and the
client's seed. All functions are pure in (inputs, seed).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError
from .rng import Xoshiro256PP, derive_seed, shuffle_orders

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Feature matrix ``[N, input_dim]`` plus integer labels ``[N]``."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError("features must be a non-empty 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must be a vector with one entry per sample")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError("labels out of range [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class PartitionPlan:
    """How to split a dataset across ``clients`` participants.

    ``kind`` is one of ``iid``, ``noniid_l`` (requires ``labels_per_client``)
    or ``manual`` (requires ``assignment``: client index -> sample indices).
    """

    kind: str
    clients: int
    seed: int
    labels_per_client: int | None = None
    assignment: dict[int, list[int]] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "noniid_l", "manual"):
            raise DataError(f"unknown partition kind: {self.kind!r}")
        if self.clients < 1:
            raise DataError("client count must be at least 1")
        if self.kind == "noniid_l":
            if self.labels_per_client is None or self.labels_per_client < 1:
                raise DataError("noniid_l requires labels_per_client >= 1")
        elif self.labels_per_client is not None:
            raise DataError("labels_per_client only applies to noniid_l partitions")
        if self.kind == "manual":
            if not self.assignment:
                raise DataError("manual partitions require an assignment map")
        elif self.assignment is not None:
            raise DataError("assignment only applies to manual partitions")


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair (big-endian, MNIST-style).

    Pixels are scaled to [0, 1] by dividing by 255 and images flattened
    row-major. When ``num_classes`` is omitted it is inferred as
    ``max(label) + 1``.
    """
    try:
        with open(images_path, "rb") as f:
            raw_images = f.read()
        with open(labels_path, "rb") as f:
            raw_labels = f.read()
    except OSError as exc:
        raise DataError(f"cannot read IDX files: {exc}") from exc

    if len(raw_images) < 16:
        raise DataError(f"{images_path}: truncated IDX image header")
    magic, count, rows, cols = struct.unpack(">iiii", raw_images[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"{images_path}: bad IDX image magic {magic:#010x}")
    if rows < 1 or cols < 1:
        raise DataError(f"{images_path}: image size {rows}x{cols} is not positive")
    if len(raw_images) != 16 + count * rows * cols:
        raise DataError(f"{images_path}: pixel payload does not match header counts")

    if len(raw_labels) < 8:
        raise DataError(f"{labels_path}: truncated IDX label header")
    lmagic, lcount = struct.unpack(">ii", raw_labels[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise DataError(f"{labels_path}: bad IDX label magic {lmagic:#010x}")
    if len(raw_labels) != 8 + lcount:
        raise DataError(f"{labels_path}: label payload does not match header count")
    if count != lcount:
        raise DataError(f"image count {count} does not match label count {lcount}")

    pixels = np.frombuffer(raw_images, dtype=np.uint8, offset=16)
    features = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8, offset=8).astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if count else 0
    return Dataset(features, labels, num_classes)


def load_csv(path: str, num_classes: int, header: bool = False) -> Dataset:
    """Load a label-first CSV: each row is ``label, feature_1, ..., feature_d``."""
    rows: list[list[float]] = []
    labels: list[int] = []
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read CSV {path}: {exc}") from exc
    try:
        with f:
            for lineno, cells in enumerate(csv.reader(f), start=1):
                if header and lineno == 1:
                    continue
                if not cells:
                    continue
                if len(cells) < 2:
                    raise DataError(f"{path}:{lineno}: need a label and at least one feature")
                try:
                    label = int(cells[0])
                    values = [float(c) for c in cells[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
                if not all(math.isfinite(v) for v in values):
                    raise DataError(f"{path}:{lineno}: non-finite feature (nan or inf)")
                if not (0 <= label < num_classes):
                    raise DataError(f"{path}:{lineno}: label {label} out of range")
                if rows and len(values) != len(rows[0]):
                    raise DataError(
                        f"{path}:{lineno}: ragged row"
                        f" ({len(values)} features, expected {len(rows[0])})"
                    )
                rows.append(values)
                labels.append(label)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse CSV {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64), num_classes)


def synthetic(seed: int, n: int, input_dim: int, num_classes: int) -> Dataset:
    """Class-conditional Gaussian blobs for desk-scale experiments.

    Class ``c`` is centered at a seeded random unit-norm direction scaled by
    2.0, with isotropic unit noise. Labels are assigned round-robin, so
    class counts are balanced to within one sample.
    """
    if n < num_classes:
        raise DataError("need at least one sample per class")
    rng = Xoshiro256PP(derive_seed(seed, 0xDA7A))
    centers = np.empty((num_classes, input_dim), dtype=np.float64)
    for c in range(num_classes):
        direction = rng.normal_array(input_dim)
        centers[c] = 2.0 * direction / np.linalg.norm(direction)
    labels = np.arange(n, dtype=np.int64) % num_classes
    noise = rng.normal_array(n * input_dim).reshape(n, input_dim)
    features = centers[labels] + noise
    return Dataset(features, labels, num_classes)


def synthetic_split(
    seed: int, n_train: int, n_test: int, input_dim: int, num_classes: int
) -> tuple[Dataset, Dataset]:
    """Train/test pair drawn from one synthetic generator call.

    Both sides share the same class centers (one draw of ``n_train + n_test``
    samples, sliced), and both stay label-balanced whenever each size is a
    multiple of ``num_classes``, which the label-skew partitioner needs.
    """
    full = synthetic(seed, n_train + n_test, input_dim, num_classes)
    idx = np.arange(full.n)
    return full.subset(idx[:n_train]), full.subset(idx[n_train:])


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test); both sides must be non-empty."""
    if not (0.0 < test_fraction < 1.0):
        raise DataError("test_fraction must lie strictly between 0 and 1")
    n_test = int(dataset.n * test_fraction)
    if n_test < 1 or n_test >= dataset.n:
        raise DataError("split would leave an empty train or test set")
    perm = Xoshiro256PP(derive_seed(seed, 0x5B117)).permutation(dataset.n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def partition_iid(dataset: Dataset, clients: int, seed: int) -> list[Dataset]:
    """Shuffle and split into ``clients`` equal contiguous chunks."""
    if clients < 1:
        raise DataError("client count must be at least 1")
    if dataset.n % clients != 0:
        raise DataError(f"client count {clients} does not divide {dataset.n} samples")
    perm = Xoshiro256PP(derive_seed(seed, 0x11D)).permutation(dataset.n)
    per_client = dataset.n // clients
    return [dataset.subset(perm[j * per_client : (j + 1) * per_client]) for j in range(clients)]


def partition_noniid_l(
    dataset: Dataset, clients: int, labels_per_client: int, seed: int
) -> list[Dataset]:
    """Label-skewed split: every client receives exactly ``labels_per_client`` labels.

    Samples are grouped by label, each group is split into
    ``clients * labels_per_client / num_classes`` shards, and shards are
    dealt round-robin to clients with the label groups visited in a seeded
    order. Contiguous dealing guarantees no client sees the same label twice.
    """
    num_classes = dataset.num_classes
    lpc = labels_per_client
    if not (1 <= lpc <= num_classes):
        raise DataError(f"labels_per_client must be in [1, {num_classes}]")
    if (clients * lpc) % num_classes != 0:
        raise DataError(
            f"clients * labels_per_client ({clients}*{lpc}) must be divisible by {num_classes}"
        )
    shards_per_label = (clients * lpc) // num_classes
    if shards_per_label > clients:
        raise DataError("infeasible assignment: more shards per label than clients")

    rng = Xoshiro256PP(derive_seed(seed, 0x901))
    groups: list[np.ndarray] = []
    for label in range(num_classes):
        group = np.flatnonzero(dataset.labels == label)
        if group.size == 0 or group.size % shards_per_label != 0:
            raise DataError(
                f"label {label} has {group.size} samples, not divisible into "
                f"{shards_per_label} shards"
            )
        groups.append(group[rng.permutation(group.size)])

    label_order = rng.permutation(num_classes)
    client_indices: list[list[np.ndarray]] = [[] for _ in range(clients)]
    slot = 0
    for label in label_order:
        group = groups[label]
        shard_size = group.size // shards_per_label
        for s in range(shards_per_label):
            client_indices[slot % clients].append(group[s * shard_size : (s + 1) * shard_size])
            slot += 1

    result = []
    for j in range(clients):
        client = dataset.subset(np.concatenate(client_indices[j]))
        if len(np.unique(client.labels)) != lpc:
            raise DataError("infeasible assignment: distinct-label constraint violated")
        result.append(client)
    return result


def partition_manual(dataset: Dataset, assignment: dict[int, list[int]]) -> list[Dataset]:
    """Explicit index map: client index -> list of sample indices.

    The client indices must be 0..K-1, and the assignment must cover every
    sample exactly once.
    """
    if sorted(assignment) != list(range(len(assignment))):
        raise DataError(f"client indices {sorted(assignment)} are not 0..K-1 without gaps")
    seen = np.zeros(dataset.n, dtype=bool)
    for j, idx in assignment.items():
        arr = np.asarray(idx, dtype=np.int64)
        if arr.size == 0:
            raise DataError(f"client {j}: empty assignment")
        if arr.min() < 0 or arr.max() >= dataset.n:
            raise DataError(f"client {j}: sample index out of range")
        if seen[arr].any():
            raise DataError(f"client {j}: overlapping assignment")
        seen[arr] = True
    if not seen.all():
        raise DataError("assignment does not cover every sample")
    return [
        dataset.subset(np.asarray(assignment[j], dtype=np.int64)) for j in range(len(assignment))
    ]


def apply_partition(plan: PartitionPlan, dataset: Dataset) -> list[Dataset]:
    if plan.kind == "iid":
        return partition_iid(dataset, plan.clients, plan.seed)
    if plan.kind == "noniid_l":
        assert plan.labels_per_client is not None
        return partition_noniid_l(dataset, plan.clients, plan.labels_per_client, plan.seed)
    assert plan.assignment is not None
    return partition_manual(dataset, plan.assignment)


@dataclass
class BatchSchedule:
    """A client's batch windows, each a pure function of its index.

    The batch total T (``num_batches``) is ``ceil(N / batch_size)``, and the
    window span f (``window_span``) is ``ceil(T / batch_count)``, the number
    of windows that sweep the whole batch list once. Window ``i`` is window
    ``i % f`` of sweep ``i // f`` (``batch_window`` gives its batch range).
    Sweep ``s`` orders the client's samples by the permutation
    ``shuffle_order(derive_seed(base_seed, client_index, s), N)``, which
    sorts sample ``j`` by the SplitMix64 hash of the counter
    ``(base_seed, client_index, s, j)``; batch ``t`` of the sweep is the
    samples at positions ``t * batch_size`` to ``(t + 1) * batch_size - 1``
    of it, so all batches have ``batch_size`` samples except possibly the
    last. A window therefore never depends on which windows were taken
    before it, or in what order. The last permutation drawn is kept, keyed
    by its sweep, so taking the windows in order draws once per sweep.
    ``draw_windows`` takes one window of many schedules and draws all their
    new sweeps of one size in one ``shuffle_orders`` call; ``window_rows``
    is its one-schedule case. A window names its rows of ``source`` only
    when it is asked for.
    """

    source: Dataset
    batch_size: int
    batch_count: int
    base_seed: int
    client_index: int
    _drawn: tuple[int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.batch_count < 1:
            raise ContractError("batch size and batch count must be positive")

    @property
    def num_batches(self) -> int:
        return -(-self.source.n // self.batch_size)

    @property
    def window_span(self) -> int:
        return math.ceil(self.num_batches / self.batch_count)

    def window_rows(self, index: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """Window ``index`` (see ``batch_window``) as rows of ``source``.

        Returns the source row of every sample of the window, in training
        order, and the sizes of its batches, which take those rows in
        consecutive runs.
        """
        _draw_sweeps([self], index)
        p, q = batch_window(self, index)
        b = self.batch_size
        rows = self._drawn[1][p * b : (q + 1) * b]
        return rows, (b,) * (q - p) + (rows.size - (q - p) * b,)


def _draw_sweeps(schedules: list[BatchSchedule], index: int) -> None:
    """Give every schedule the permutation of the sweep that holds window ``index``.

    Schedules that already hold it are left alone. The others are grouped
    by source size, and each group draws its permutations in one
    ``shuffle_orders`` call, whose row for a seed is that seed's own
    ``shuffle_order``.
    """
    stale: dict[int, list[tuple[BatchSchedule, int]]] = {}
    for schedule in schedules:
        sweep = index // schedule.window_span
        if schedule._drawn is None or schedule._drawn[0] != sweep:
            stale.setdefault(schedule.source.n, []).append((schedule, sweep))
    for n, group in stale.items():
        seeds = [derive_seed(s.base_seed, s.client_index, sweep) for s, sweep in group]
        for (schedule, sweep), order in zip(group, shuffle_orders(seeds, n)):
            schedule._drawn = (sweep, order)


def draw_windows(schedules: list, index: int) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Window ``index`` of every batch source in ``schedules``, as ``window_rows`` gives it.

    The new sweeps of every ``BatchSchedule`` in the list are drawn first,
    one ``shuffle_orders`` call per distinct source size, so a round
    of K clients that all start a sweep draws once, not K times. Any other
    batch source (the lockstep source, which draws over its own shadows)
    gives its window through its ``window_rows``. Each window is a pure
    function of ``index``, so neither the order of the list nor the order of
    the calls changes what comes back.
    """
    _draw_sweeps([s for s in schedules if isinstance(s, BatchSchedule)], index)
    return [s.window_rows(index) for s in schedules]


def batch_window(schedule: BatchSchedule, round_index: int) -> tuple[int, int]:
    """Inclusive batch-index window ``(p, q)`` for a round.

    Successive rounds slide a window of ``batch_count`` batches across the
    shuffled list: ``p = (i mod f) * C`` and ``q = min(p + C - 1, T - 1)``.
    The last window of a sweep is clipped to the list end; the next window
    starts the next sweep, on a fresh permutation.
    """
    p = (round_index % schedule.window_span) * schedule.batch_count
    return p, min(p + schedule.batch_count - 1, schedule.num_batches - 1)
