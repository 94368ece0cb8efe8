"""Datasets, client partitioners, and per-client batch schedules.

Partitioners split one dataset across clients either homogeneously (iid)
or with label skew (noniid_l: every client holds samples of exactly L
distinct labels). They return one ``DatasetView`` per client, client ``j``
at position ``j``: the client's rows of the dataset it was split from, with
no copy of their features, so a run holds its train set once. A batch
schedule maps a window index to the batches a client trains on in that
window, a pure function of the index and the client's seed; ``base_rows``
maps a client's rows to rows of the array that holds them. All functions
are pure in (inputs, seed).
"""

from __future__ import annotations

import csv
import math
import struct
from array import array
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
        """Rows ``indices``, in that order, as a new ``Dataset`` that copies them."""
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class DatasetView:
    """Rows ``rows`` of ``base``, in that order: a client's share of the dataset it was split from.

    It reads like a ``Dataset`` (``n``, ``input_dim``, ``num_classes``,
    ``labels``, ``subset``) but holds only the row numbers and its own copy
    of their labels, not their features. ``features`` is a new copy of the
    rows on every access; the round loop never reads it, but takes each
    round's rows straight from ``base`` (``base_rows``). A view of a view
    is a view of the first one's base.
    """

    base: Dataset
    rows: np.ndarray
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        base, rows = self.base, np.asarray(self.rows, dtype=np.int64)
        if isinstance(base, DatasetView):
            base, rows = base.base, base.rows[rows]
        if rows.ndim != 1 or rows.size < 1 or rows.min() < 0 or rows.max() >= base.n:
            raise DataError("a view needs a non-empty vector of rows of its base")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", base.labels[rows])

    @property
    def n(self) -> int:
        return self.rows.size

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    @property
    def num_classes(self) -> int:
        return self.base.num_classes

    @property
    def features(self) -> np.ndarray:
        """The view's feature rows, copied out of ``base`` on every access."""
        return self.base.features[self.rows]

    def subset(self, indices: np.ndarray) -> Dataset:
        """The view's rows ``indices`` as a new ``Dataset``, as ``Dataset.subset`` gives them."""
        return self.base.subset(self.rows[indices])


def base_rows(source: Dataset | DatasetView) -> tuple[np.ndarray, np.ndarray | None]:
    """The feature array that holds ``source``'s rows, and ``source``'s row numbers in it.

    A view's rows live in its base, at ``rows``; a ``Dataset``'s are its
    own, and the row numbers are None for the identity.
    """
    if isinstance(source, DatasetView):
        return source.base.features, source.rows
    return source.features, None


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


def load_idx(images_path: str, labels_path: str, num_classes: int) -> Dataset:
    """Load an IDX image/label file pair (big-endian, MNIST-style) with ``num_classes`` classes.

    The count is not inferred from the labels: a train pair and a test pair
    loaded apart could get two counts. ``config.build_datasets`` infers one
    count from both label files when a config omits it.
    """
    return Dataset(*_read_idx(images_path, labels_path), num_classes)


def _read_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """The features and int64 labels of an IDX image/label file pair, checked.

    Pixels are scaled to [0, 1] by dividing by 255 and images flattened
    row-major.
    """
    try:
        with open(images_path, "rb") as f:
            raw_images = f.read()
        with open(labels_path, "rb") as f:
            raw_labels = f.read()
    except (OSError, ValueError) as exc:  # ValueError: a path holds a NUL byte
        raise DataError(f"cannot read IDX files: {exc}") from exc

    if len(raw_images) < 16:
        raise DataError(f"{images_path}: truncated IDX image header")
    magic, count, rows, cols = struct.unpack(">iiii", raw_images[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise DataError(f"{images_path}: bad IDX image magic {magic:#010x}")
    if count < 1:
        raise DataError(f"{images_path}: holds no images")
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
    return features, labels


def load_csv(path: str, num_classes: int, header: bool = False) -> Dataset:
    """Load a label-first CSV: each row is ``label, feature_1, ..., feature_d``.

    The features are parsed row by row into one flat ``array("d")`` that the
    returned matrix views, so a load holds about the size of its data, not
    a Python float per value.
    """
    values = array("d")
    labels: list[int] = []
    width = 0
    try:
        f = open(path, newline="")
    except (OSError, ValueError) as exc:  # ValueError: the path holds a NUL byte
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
                    row = [float(c) for c in cells[1:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
                if not all(math.isfinite(v) for v in row):
                    raise DataError(f"{path}:{lineno}: non-finite feature (nan or inf)")
                if not (0 <= label < num_classes):
                    raise DataError(f"{path}:{lineno}: label {label} out of range")
                if labels and len(row) != width:
                    raise DataError(
                        f"{path}:{lineno}: ragged row ({len(row)} features, expected {width})"
                    )
                width = len(row)
                values.extend(row)
                labels.append(label)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse CSV {path}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: no data rows")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), width)
    return Dataset(features, np.array(labels, dtype=np.int64), num_classes)


def synthetic(seed: int, n: int, input_dim: int, num_classes: int) -> Dataset:
    """Class-conditional Gaussian blobs for desk-scale experiments.

    Class ``c`` is centered at a seeded random unit-norm direction scaled by
    2.0, with isotropic unit noise. Labels are assigned round-robin, so
    class counts are balanced to within one sample.

    One ``normal_array`` call draws everything: first one block of
    ``input_dim`` normals per class, rounded up to an even count, whose
    first ``input_dim`` are the class's direction, then the noise. That is
    the stream of one call per direction and one for the noise. Each class
    center is then added to its own rows of the noise in place, so the
    features live in the array the normals were drawn into.
    """
    if num_classes < 1:
        raise DataError("class count must be at least 1")
    if input_dim < 1:
        raise DataError("input dimension must be at least 1")
    if n < num_classes:
        raise DataError("need at least one sample per class")
    rng = Xoshiro256PP(derive_seed(seed, 0xDA7A))
    block = input_dim + (input_dim & 1)
    normals = rng.normal_array(num_classes * block + n * input_dim)
    features = normals[num_classes * block :].reshape(n, input_dim)
    for c in range(num_classes):
        # A contiguous copy: the norm's BLAS dot product sees a fresh array.
        direction = normals[c * block : c * block + input_dim].copy()
        rows = features[c::num_classes]
        np.add(rows, 2.0 * direction / np.linalg.norm(direction), out=rows)
    labels = np.arange(n, dtype=np.int64) % num_classes
    return Dataset(features, labels, num_classes)


def synthetic_split(
    seed: int, n_train: int, n_test: int, input_dim: int, num_classes: int
) -> tuple[Dataset, Dataset]:
    """Train/test pair drawn from one synthetic generator call.

    Both sides share the same class centers (one draw of ``n_train + n_test``
    samples, sliced), and both stay label-balanced whenever each size is a
    multiple of ``num_classes``, which the label-skew partitioner needs.
    Train is rows ``[:n_train]`` and test rows ``[n_train:]``, as views of
    one array.
    """
    full = synthetic(seed, n_train + n_test, input_dim, num_classes)
    return (
        Dataset(full.features[:n_train], full.labels[:n_train], num_classes),
        Dataset(full.features[n_train:], full.labels[n_train:], num_classes),
    )


def split_dataset(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test); both sides must be non-empty."""
    if not (0.0 < test_fraction < 1.0):
        raise DataError("test_fraction must lie strictly between 0 and 1")
    n_test = int(dataset.n * test_fraction)
    if n_test < 1 or n_test >= dataset.n:
        raise DataError("split would leave an empty train or test set")
    perm = Xoshiro256PP(derive_seed(seed, 0x5B117)).permutation(dataset.n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def partition_iid(dataset: Dataset, clients: int, seed: int) -> list[DatasetView]:
    """Shuffle and split into ``clients`` equal contiguous chunks, as views of ``dataset``."""
    if clients < 1:
        raise DataError("client count must be at least 1")
    if dataset.n % clients != 0:
        raise DataError(f"client count {clients} does not divide {dataset.n} samples")
    perm = Xoshiro256PP(derive_seed(seed, 0x11D)).permutation(dataset.n)
    return [DatasetView(dataset, chunk) for chunk in np.split(perm, clients)]


def partition_noniid_l(
    dataset: Dataset, clients: int, labels_per_client: int, seed: int
) -> list[DatasetView]:
    """Label-skewed split: every client receives exactly ``labels_per_client`` labels.

    Samples are grouped by label, each group is shuffled and split into
    ``clients * labels_per_client / num_classes`` equal shards, and the
    shards, label groups visited in a seeded order, are dealt round-robin:
    shard ``k`` goes to client ``k mod clients``. A label's shards are at
    most ``clients`` consecutive ones, so they go to distinct clients, and
    a client's shards are ``clients`` apart, so no two share a label: each
    client holds exactly ``labels_per_client`` labels. Each client is a
    view of its shards' rows of ``dataset``.
    """
    if clients < 1:
        raise DataError("client count must be at least 1")
    num_classes = dataset.num_classes
    lpc = labels_per_client
    if not (1 <= lpc <= num_classes):
        raise DataError(f"labels_per_client must be in [1, {num_classes}]")
    if (clients * lpc) % num_classes != 0:
        raise DataError(
            f"clients * labels_per_client ({clients}*{lpc}) must be divisible by {num_classes}"
        )
    # No client can get too few labels or one label twice: lpc <= num_classes
    # makes shards_per_label <= clients, and the deal below does the rest.
    shards_per_label = (clients * lpc) // num_classes

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

    shards = [
        shard
        for label in rng.permutation(num_classes)
        for shard in np.split(groups[label], shards_per_label)
    ]
    return [DatasetView(dataset, np.concatenate(shards[j::clients])) for j in range(clients)]


def partition_manual(dataset: Dataset, assignment: dict[int, list[int]]) -> list[DatasetView]:
    """Explicit index map: client index -> list of sample indices.

    The client indices must be 0..K-1, and the assignment must cover every
    sample exactly once. Client ``j`` is a view of its samples' rows of
    ``dataset``, in the order given.
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
        counts = np.bincount(arr)
        if counts.max() > 1:
            raise DataError(f"client {j}: sample {counts.argmax()} assigned more than once")
        seen[arr] = True
    if not seen.all():
        raise DataError("assignment does not cover every sample")
    return [DatasetView(dataset, assignment[j]) for j in range(len(assignment))]


def apply_partition(plan: PartitionPlan, dataset: Dataset) -> list[DatasetView]:
    if plan.kind == "iid":
        return partition_iid(dataset, plan.clients, plan.seed)
    if plan.kind == "noniid_l":
        assert plan.labels_per_client is not None
        return partition_noniid_l(dataset, plan.clients, plan.labels_per_client, plan.seed)
    assert plan.assignment is not None
    return partition_manual(dataset, plan.assignment)


@dataclass(frozen=True)
class BatchSchedule:
    """A client's batch windows, each a pure function of its index.

    The batch total T (``num_batches``) is ``ceil(N / batch_size)``, and the
    window span f (``window_span``) is ``ceil(T / batch_count)``, the number
    of windows that sweep the whole batch list once. Both are computed once,
    when the schedule is built; the schedule is frozen, so the fields they
    derive from cannot change under them. Window ``i`` is window ``i % f``
    of sweep ``i // f`` (``batch_window`` gives its batch range).
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

    source: Dataset | DatasetView
    batch_size: int
    batch_count: int
    base_seed: int
    client_index: int
    num_batches: int = field(init=False)
    window_span: int = field(init=False)
    _drawn: tuple[int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.batch_count < 1:
            raise ContractError("batch size and batch count must be positive")
        num_batches = -(-self.source.n // self.batch_size)
        object.__setattr__(self, "num_batches", num_batches)
        object.__setattr__(self, "window_span", -(-num_batches // self.batch_count))

    def window_rows(self, index: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """Window ``index`` (see ``batch_window``) as rows of ``source``.

        Returns the source row of every sample of the window, in training
        order, and the sizes of its batches, which take those rows in
        consecutive runs.
        """
        return draw_windows([self], index)[0]

    def _cut(self, index: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """``window_rows(index)``, cut from the permutation already drawn for its sweep."""
        p, q = batch_window(self, index)
        b = self.batch_size
        rows = self._drawn[1][p * b : (q + 1) * b]
        return rows, (b,) * (q - p) + (rows.size - (q - p) * b,)


def draw_windows(schedules: list, index: int) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Window ``index`` of every batch source in ``schedules``, as ``window_rows`` gives it.

    One pass over the list finds every ``BatchSchedule`` that does not hold
    the sweep of window ``index`` yet. Those are grouped by source size, and
    each group draws its permutations in one ``shuffle_orders`` call, whose
    row for a seed is that seed's own ``shuffle_order``; so a round of K
    clients that all start a sweep draws once, not K times. Each window is
    then cut from the permutation its schedule holds. Any other batch source
    (the lockstep source, which draws over its own shadows) gives its window
    through its ``window_rows``. Each window is a pure function of
    ``index``, so neither the order of the list nor the order of the calls
    changes what comes back.
    """
    stale: dict[int, list[tuple[BatchSchedule, int]]] = {}
    for schedule in schedules:
        if isinstance(schedule, BatchSchedule):
            sweep = index // schedule.window_span
            drawn = schedule._drawn
            if drawn is None or drawn[0] != sweep:
                stale.setdefault(schedule.source.n, []).append((schedule, sweep))
    for n, group in stale.items():
        seeds = [derive_seed(s.base_seed, s.client_index, sweep) for s, sweep in group]
        for (schedule, sweep), order in zip(group, shuffle_orders(seeds, n)):
            # The kept permutation is a cache of a pure function of the frozen
            # fields, so it may change on a frozen schedule.
            object.__setattr__(schedule, "_drawn", (sweep, order))
    return [
        s._cut(index) if isinstance(s, BatchSchedule) else s.window_rows(index)
        for s in schedules
    ]


def batch_window(schedule: BatchSchedule, round_index: int) -> tuple[int, int]:
    """Inclusive batch-index window ``(p, q)`` for a round.

    Successive rounds slide a window of ``batch_count`` batches across the
    shuffled list: ``p = (i mod f) * C`` and ``q = min(p + C - 1, T - 1)``.
    The last window of a sweep is clipped to the list end; the next window
    starts the next sweep, on a fresh permutation.
    """
    p = (round_index % schedule.window_span) * schedule.batch_count
    return p, min(p + schedule.batch_count - 1, schedule.num_batches - 1)
