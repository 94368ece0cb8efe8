import csv
import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
import fedsim.rng as rng
from fedsim.claims import balanced_subset, image_surrogate, make_image_blobs
from fedsim.data import synthetic_split
from fedsim.rng import Xoshiro256PP, derive_seed, shuffle_order

from helpers import mnist_idx_paths, reference_noniid_l_rows, window_batches, write_idx_pair


def multiset(dataset: fs.Dataset) -> list[tuple]:
    rows = np.column_stack([dataset.features, dataset.labels.astype(np.float64)])
    return sorted(map(tuple, rows.tolist()))


def clients_multiset(clients: list[fs.Dataset]) -> list[tuple]:
    return sorted(row for c in clients for row in multiset(c))


def traced_peak(make):
    """What ``make()`` returns, and the peak bytes it held above what was held before it.

    ``tracemalloc`` sees numpy's buffers and ``array``'s as well as Python
    objects.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# --- dataset type -----------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(fs.DataError):
        fs.Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
    with pytest.raises(fs.DataError):
        fs.Dataset(np.zeros((2, 3)), np.array([0, 5]), 2)
    with pytest.raises(fs.DataError):
        fs.Dataset(np.zeros((2, 3)), np.array([0]), 2)
    with pytest.raises(fs.DataError, match="^num_classes must be positive$"):
        fs.Dataset(np.zeros((2, 3)), np.array([0, 0]), 0)


# --- IDX loading ------------------------------------------------------------


def test_load_idx_hand_crafted_fixture(tmp_path):
    images = np.arange(10 * 2 * 3, dtype=np.uint8).reshape(10, 2, 3)
    labels = (np.arange(10) % 4).astype(np.uint8)
    images_path, labels_path = write_idx_pair(str(tmp_path), images, labels, "tiny")
    ds = fs.load_idx(images_path, labels_path, 4)
    assert ds.n == 10 and ds.input_dim == 6 and ds.num_classes == 4
    np.testing.assert_array_equal(ds.features, images.reshape(10, 6) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_load_idx_rejects_wrong_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    images_path, labels_path = write_idx_pair(str(tmp_path), images, labels, "bad")
    # Label file carrying the image magic must be refused.
    with open(labels_path, "r+b") as f:
        f.write(struct.pack(">i", 0x00000803))
    with pytest.raises(fs.DataError):
        fs.load_idx(images_path, labels_path, 2)


def test_load_idx_rejects_truncation_and_count_mismatch(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    images_path, labels_path = write_idx_pair(str(tmp_path), images, labels, "trunc")
    with open(images_path, "rb") as f:
        raw = f.read()
    with open(images_path, "wb") as f:
        f.write(raw[:-3])
    with pytest.raises(fs.DataError):
        fs.load_idx(images_path, labels_path, 2)

    images_path, _ = write_idx_pair(str(tmp_path), images, labels, "count")
    _, labels_path3 = write_idx_pair(str(tmp_path), images[:3], labels[:3], "count3")
    with pytest.raises(fs.DataError):
        fs.load_idx(images_path, labels_path3, 2)

    _, labels_path = write_idx_pair(str(tmp_path), images, labels, "labels")
    with open(labels_path, "rb") as f:
        raw = f.read()
    for cut, message in [(raw[:7], "truncated IDX label header"),
                         (raw[:-1], "label payload does not match header count")]:
        with open(labels_path, "wb") as f:
            f.write(cut)
        with pytest.raises(fs.DataError, match=message):
            fs.load_idx(images_path, labels_path, 2)


@pytest.mark.parametrize("rows, cols", [(-1, -1), (0, 5), (3, 0)])
def test_load_idx_rejects_non_positive_image_size(tmp_path, rows, cols):
    # Each header's payload size (count * rows * cols) matches the bytes
    # that follow it, so only the size check can refuse the file.
    images_path, labels_path = write_idx_pair(
        str(tmp_path), np.zeros((1, 1, 1), dtype=np.uint8), np.zeros(1, dtype=np.uint8), "size"
    )
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, 1, rows, cols))
        f.write(bytes(rows * cols))
    with pytest.raises(fs.DataError, match="image size"):
        fs.load_idx(images_path, labels_path, 2)


def test_load_idx_takes_its_class_count_so_pairs_loaded_apart_agree(tmp_path):
    # The train file lacks label 2, which the test file holds: each pair gets
    # the count it is given, not one inferred from its own labels, so both
    # fit one network. A count below a file's labels is refused.
    pairs = {}
    for stem, labels in (("train", [0, 1] * 20), ("test", [0, 1, 2, 2] * 2)):
        images = np.arange(16 * len(labels), dtype=np.uint8).reshape(len(labels), 4, 4)
        pairs[stem] = write_idx_pair(str(tmp_path), images, np.array(labels), stem)
    train, test = (fs.load_idx(*pairs[stem], 3) for stem in ("train", "test"))
    assert train.num_classes == test.num_classes == 3
    spec = fs.NetworkSpec(16, (8,), train.num_classes)
    config = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=2, batch_size=5, clients=2,
        batch_count=1, seeds=fs.Seeds(1, 2, 3),
    )
    log = fs.run_fedmmb(config, spec, fs.partition_iid(train, 2, 3), test)
    assert len(log.rows) == 2
    with pytest.raises(fs.DataError, match="labels out of range"):
        fs.load_idx(*pairs["test"], 2)
    with pytest.raises(TypeError):
        fs.load_idx(*pairs["train"])  # no count to infer from one file


def test_load_idx_refuses_a_pair_without_images(tmp_path):
    images_path, labels_path = write_idx_pair(
        str(tmp_path), np.zeros((0, 2, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8), "empty"
    )
    with pytest.raises(fs.DataError, match="holds no images"):
        fs.load_idx(images_path, labels_path, 2)


@pytest.mark.skipif(mnist_idx_paths() is None, reason="real MNIST IDX files not present")
def test_load_idx_real_mnist():
    paths = mnist_idx_paths()
    ds = fs.load_idx(paths["train_images"], paths["train_labels"], 10)
    assert ds.n == 60000 and ds.input_dim == 784 and ds.num_classes == 10


# --- CSV loading ------------------------------------------------------------


def test_load_csv_direct_parse(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,0.5,0.25\n0,1.0,0.0\n")
    ds = fs.load_csv(str(path), 2)
    assert ds.n == 2 and ds.input_dim == 2
    np.testing.assert_array_equal(ds.labels, [1, 0])
    np.testing.assert_array_equal(ds.features, [[0.5, 0.25], [1.0, 0.0]])


def test_load_csv_header_flag(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,f1\n1,0.5\n0,0.25\n")
    ds = fs.load_csv(str(path), 2, header=True)
    assert ds.n == 2


def test_load_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0.5,0.25\n0,1.0,0.0,9.0\n")
    with pytest.raises(fs.DataError):
        fs.load_csv(str(ragged), 2)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(fs.DataError):
        fs.load_csv(str(empty), 2)

    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("1,abc\n")
    with pytest.raises(fs.DataError):
        fs.load_csv(str(bad_cell), 2)

    bad_label = tmp_path / "label.csv"
    bad_label.write_text("7,0.5\n")
    with pytest.raises(fs.DataError):
        fs.load_csv(str(bad_label), 2)


def test_load_csv_gives_the_bytes_of_a_row_list(tmp_path):
    # The reader parses into one flat buffer; a list of rows through
    # np.array is the oracle. A header, CRLF line ends, blank lines and
    # several spellings of a float.
    path = tmp_path / "data.csv"
    path.write_bytes(
        b"label,a,b,c\r\n2,0.1,-3e-5,7\r\n\r\n0,1e308,-0.0, 4.5\r\n"
        b"1,5e-324,.25,1_0\r\n\r\n2,-1,2.5E2,0.3333333333333333\r\n"
    )
    ds = fs.load_csv(str(path), 3, header=True)
    with open(path, newline="") as f:
        rows = [cells for cells in list(csv.reader(f))[1:] if cells]
    oracle = np.array([[float(c) for c in cells[1:]] for cells in rows], dtype=np.float64)
    assert ds.features.shape == oracle.shape == (4, 3)
    assert ds.features.tobytes() == oracle.tobytes()
    assert ds.labels.tolist() == [int(cells[0]) for cells in rows]


def test_load_csv_holds_about_the_size_of_its_data(tmp_path):
    # A Python float per value would hold about 5x the returned matrix.
    n, d = 400, 300
    values = Xoshiro256PP(3).uniform_array(n * d, -1.0, 1.0).reshape(n, d)
    path = tmp_path / "wide.csv"
    lines = [f"{i % 3}," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n")
    ds, peak = traced_peak(lambda: fs.load_csv(str(path), 3))
    assert ds.features.tobytes() == values.tobytes()
    assert peak <= 1.5 * ds.features.nbytes


# --- synthetic generator ----------------------------------------------------


def test_synthetic_round_robin_balance():
    ds = fs.synthetic(1, 1000, 20, 10)
    assert ds.n == 1000 and ds.input_dim == 20
    np.testing.assert_array_equal(np.bincount(ds.labels), np.full(10, 100))


def test_synthetic_deterministic():
    a = fs.synthetic(9, 50, 4, 5)
    b = fs.synthetic(9, 50, 4, 5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_rejects_too_few_samples():
    with pytest.raises(fs.DataError):
        fs.synthetic(1, 3, 4, 5)


@pytest.mark.parametrize(
    "input_dim, num_classes, message",
    [(4, 0, "class count"), (4, -2, "class count"), (0, 3, "input dimension")],
)
def test_synthetic_rejects_sizes_below_one(input_dim, num_classes, message):
    # Without its own check, each of these fails deep in numpy, or returns
    # a Dataset with no feature columns.
    with pytest.raises(fs.DataError, match=f"{message} must be at least 1"):
        fs.synthetic(1, 12, input_dim, num_classes)


def test_synthetic_linear_classifier_regression_target():
    # Frozen regression check: centralized softmax regression on a held-out
    # split of the 2-class generator reaches 0.834 (> 0.8) with this config.
    train, test = synthetic_split(1, 2000, 500, 20, 2)
    spec = fs.NetworkSpec(20, (), 2)
    cfg = fs.TrainingConfig(
        mode="centralized",
        learning_rate=0.1,
        max_rounds=600,
        batch_size=100,
        seeds=fs.Seeds(init=3, shuffle=4, partition=5),
        eval_every=600,
    )
    log = fs.run_centralized(cfg, spec, train, test)
    assert log.rows[-1].test_accuracy > 0.8


def per_class_synthetic(seed: int, n: int, input_dim: int, num_classes: int) -> np.ndarray:
    """``synthetic``'s features drawn as one ``normal_array`` call per class direction."""
    generator = Xoshiro256PP(derive_seed(seed, 0xDA7A))
    centers = np.empty((num_classes, input_dim))
    for c in range(num_classes):
        direction = generator.normal_array(input_dim)
        centers[c] = 2.0 * direction / np.linalg.norm(direction)
    noise = generator.normal_array(n * input_dim).reshape(n, input_dim)
    return centers[np.arange(n) % num_classes] + noise


@pytest.mark.parametrize(
    "n, input_dim, num_classes",
    [(7, 3, 2), (30, 4, 5), (31, 5, 3), (1001, 17, 10), (1999, 9, 4), (26, 784, 10)],
)
def test_synthetic_draws_what_one_call_per_class_direction_draws(n, input_dim, num_classes):
    # One normal_array call draws every direction and the noise; an odd width
    # leaves one unused normal after each direction, as the per-class call's
    # dropped sine. The two largest cases take the lane path.
    ds = fs.synthetic(11, n, input_dim, num_classes)
    assert ds.features.tobytes() == per_class_synthetic(11, n, input_dim, num_classes).tobytes()


def test_synthetic_split_builds_its_data_in_one_array(monkeypatch):
    # In one process (no set-up split), so that tracemalloc sees every
    # buffer. Building the features from a gathered center matrix and
    # copying both sides out held about twice the data.
    monkeypatch.setattr(rng, "SPLIT_MIN_DRAWS", 10**12)
    (train, test), peak = traced_peak(lambda: synthetic_split(1, 2000, 1000, 784, 10))
    assert peak <= 1.3 * (train.features.nbytes + test.features.nbytes)
    for a, b in [(train.features, test.features), (train.labels, test.labels)]:
        assert a.base is not None and a.base is b.base
        assert not np.shares_memory(a, b)


def test_synthetic_split_shares_centers_and_balance():
    train, test = synthetic_split(7, 300, 100, 6, 10)
    assert train.n == 300 and test.n == 100
    np.testing.assert_array_equal(np.bincount(train.labels), np.full(10, 30))
    np.testing.assert_array_equal(np.bincount(test.labels), np.full(10, 10))
    full = fs.synthetic(7, 400, 6, 10)
    np.testing.assert_array_equal(train.features, full.features[:300])
    np.testing.assert_array_equal(test.features, full.features[300:])


# --- partitioners -----------------------------------------------------------


def test_partition_iid_multiset_and_sizes():
    ds = fs.synthetic(2, 100, 5, 10)
    clients = fs.partition_iid(ds, 10, 3)
    assert len(clients) == 10
    assert all(c.n == 10 for c in clients)
    assert clients_multiset(clients) == multiset(ds)


def test_partition_iid_k1_is_shuffled_original():
    ds = fs.synthetic(2, 30, 4, 3)
    (client,) = fs.partition_iid(ds, 1, 5)
    assert client.n == 30
    assert multiset(client) == multiset(ds)
    assert not np.array_equal(client.features, ds.features)  # actually shuffled


@pytest.mark.parametrize("clients", [0, -2])
def test_partition_iid_rejects_client_counts_below_one(clients):
    # Without its own check, zero clients divide by zero: a ZeroDivisionError.
    with pytest.raises(fs.DataError, match="^client count must be at least 1$"):
        fs.partition_iid(fs.synthetic(2, 10, 3, 2), clients, 1)


def test_partition_iid_rejects_indivisible():
    ds = fs.synthetic(2, 10, 3, 2)
    with pytest.raises(fs.DataError):
        fs.partition_iid(ds, 3, 1)


def test_partition_iid_spreads_classes():
    # Balanced 10-class data split over 100 clients: nearly every client
    # should see every class (frozen sanity check, run once).
    ds = fs.synthetic(4, 60000, 2, 10)
    clients = fs.partition_iid(ds, 100, 7)
    full_coverage = sum(1 for c in clients if len(np.unique(c.labels)) == 10)
    assert full_coverage >= 95


def test_partition_noniid_l1_single_label_per_client():
    ds = fs.synthetic(3, 1000, 4, 10)
    clients = fs.partition_noniid_l(ds, 10, 1, 11)
    labels_seen = set()
    for c in clients:
        unique = np.unique(c.labels)
        assert len(unique) == 1
        # That client owns every sample of its label.
        assert c.n == int(np.sum(ds.labels == unique[0]))
        labels_seen.add(int(unique[0]))
    assert labels_seen == set(range(10))
    assert clients_multiset(clients) == multiset(ds)


def test_partition_noniid_l_full_coverage_when_l_equals_classes():
    ds = fs.synthetic(5, 500, 4, 10)
    clients = fs.partition_noniid_l(ds, 10, 10, 2)
    for c in clients:
        assert len(np.unique(c.labels)) == 10


def test_partition_noniid_l2_shard_structure():
    ds = fs.synthetic(6, 1000, 4, 10)
    clients = fs.partition_noniid_l(ds, 10, 2, 8)
    for c in clients:
        assert len(np.unique(c.labels)) == 2
        assert c.n == 100
    assert clients_multiset(clients) == multiset(ds)


@st.composite
def noniid_l_inputs(draw):
    """A valid label-skew split: dataset, clients, L and seed.

    ``clients * L`` is a multiple of the class count, and every label's
    count is a multiple of the shard count, the counts differing per label.
    """
    num_classes = draw(st.integers(1, 10))
    lpc = draw(st.integers(1, num_classes))
    step = num_classes // math.gcd(num_classes, lpc)
    clients = step * draw(st.integers(1, max(1, 24 // step)))
    shards_per_label = clients * lpc // num_classes
    counts = draw(st.lists(st.integers(1, 4), min_size=num_classes, max_size=num_classes))
    labels = np.repeat(np.arange(num_classes), np.array(counts) * shards_per_label)
    labels = labels[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(labels.size)]
    dataset = fs.Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, num_classes)
    return dataset, clients, lpc, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(noniid_l_inputs())
def test_partition_noniid_l_deals_the_reference_loop_s_shards(inputs):
    # Shard k goes to client k mod clients, as the slot loop dealt them: the
    # same rows in the same order, exactly L labels a client, every row once.
    dataset, clients, lpc, seed = inputs
    views = fs.partition_noniid_l(dataset, clients, lpc, seed)
    reference = reference_noniid_l_rows(dataset, clients, lpc, seed)
    assert len(views) == clients
    for view, rows in zip(views, reference):
        assert view.rows.tobytes() == rows.tobytes()
        assert view.labels.tobytes() == dataset.labels[rows].tobytes()
        assert len(set(view.labels.tolist())) == lpc
    assert np.array_equal(np.sort(np.concatenate(reference)), np.arange(dataset.n))


def test_partition_noniid_rejects_bad_divisibility():
    ds = fs.synthetic(7, 1000, 4, 10)
    with pytest.raises(fs.DataError):
        fs.partition_noniid_l(ds, 7, 3, 1)  # 21 not divisible by 10
    with pytest.raises(fs.DataError):
        fs.partition_noniid_l(ds, 10, 11, 1)  # L > num_classes
    unbalanced = fs.Dataset(np.zeros((11, 2)), np.array([0] * 6 + [1] * 5), 2)
    with pytest.raises(fs.DataError):
        fs.partition_noniid_l(unbalanced, 4, 1, 1)  # group of 5, 2 shards each


@pytest.mark.parametrize("clients", [0, -5])
def test_partition_noniid_rejects_client_counts_below_one(clients):
    # Without its own check, zero clients divide by zero shards per label,
    # and -5 clients make -1 shards per label, which ``np.split`` refuses
    # with a ValueError rather than a DataError.
    ds = fs.synthetic(7, 1000, 4, 10)
    with pytest.raises(fs.DataError, match="client count must be at least 1"):
        fs.partition_noniid_l(ds, clients, 2, 1)


def test_partition_manual_roundtrip_and_errors():
    ds = fs.synthetic(8, 12, 3, 3)
    plan = fs.PartitionPlan(
        kind="manual",
        clients=2,
        seed=0,
        assignment={0: list(range(5)), 1: list(range(5, 12))},
    )
    clients = fs.apply_partition(plan, ds)
    assert [c.n for c in clients] == [5, 7]
    assert clients_multiset(clients) == multiset(ds)
    with pytest.raises(fs.DataError):
        fs.partition_manual(ds, {0: [0, 1], 1: [1, 2]})  # overlap
    with pytest.raises(fs.DataError):
        fs.partition_manual(ds, {0: list(range(11))})  # not covering
    with pytest.raises(fs.DataError, match="client 1: empty assignment"):
        fs.partition_manual(ds, {0: list(range(12)), 1: []})
    with pytest.raises(fs.DataError, match="client 0: sample index out of range"):
        fs.partition_manual(ds, {0: list(range(13))})
    with pytest.raises(fs.DataError, match="client 0: sample 1 assigned more than once"):
        fs.partition_manual(ds, {0: [3, 1, 3, 1], 1: [0, 2, *range(4, 12)]})


def test_partition_manual_rejects_a_sample_repeated_within_one_client():
    ds = fs.synthetic(8, 3, 3, 3)
    with pytest.raises(fs.DataError, match="client 0: sample 0 "):
        fs.partition_manual(ds, {0: [0, 0, 1], 1: [2]})
    with pytest.raises(fs.DataError, match="client 1: sample 2 "):
        fs.partition_manual(ds, {0: [0], 1: [1, 2, 2]})


@pytest.mark.parametrize("keys", [(1, 2), (0, 2), (-1, 0)])
def test_partition_manual_rejects_keys_other_than_0_to_k_minus_1(keys):
    # Client j is the j-th dataset returned, so the keys must be its positions.
    ds = fs.synthetic(8, 12, 3, 3)
    with pytest.raises(fs.DataError, match="0..K-1"):
        fs.partition_manual(ds, {keys[0]: list(range(5)), keys[1]: list(range(5, 12))})


PLANS = [
    fs.PartitionPlan("iid", 4, 3),
    fs.PartitionPlan("noniid_l", 3, 3, labels_per_client=2),
    fs.PartitionPlan(
        "manual", 3, 0, assignment={0: [5, 0, 9], 1: [1, 2, 3, 4], 2: [6, 7, 8, 10, 11]}
    ),
]


@pytest.mark.parametrize("plan", PLANS, ids=["iid", "noniid_l", "manual"])
def test_a_partition_view_reads_as_the_copy_it_replaces(plan):
    # Each client was a Dataset.subset copy of its rows; a view gives the
    # same features, labels and subsets, and copies only its labels.
    ds = fs.synthetic(8, 12, 3, 2)
    for view in fs.apply_partition(plan, ds):
        copy = ds.subset(view.rows)
        assert isinstance(view, fs.DatasetView) and view.base is ds
        assert (view.n, view.input_dim, view.num_classes) == (copy.n, copy.input_dim, 2)
        assert view.features.tobytes() == copy.features.tobytes()
        assert view.labels.tobytes() == copy.labels.tobytes()
        for i in (np.arange(view.n)[::-1], np.array([view.n - 1, 0])):
            part = view.subset(i)
            assert isinstance(part, fs.Dataset)
            assert part.features.tobytes() == copy.subset(i).features.tobytes()
            assert part.labels.tobytes() == copy.subset(i).labels.tobytes()
        assert not np.shares_memory(view.features, ds.features)
        assert not np.shares_memory(view.labels, ds.labels)


def test_a_view_of_a_view_is_a_view_of_its_base():
    ds = fs.synthetic(8, 12, 3, 2)
    outer = fs.DatasetView(ds, [7, 3, 11, 0])
    inner = fs.DatasetView(outer, [2, 0])
    assert inner.base is ds and inner.rows.tolist() == [11, 7]
    assert inner.features.tobytes() == outer.subset([2, 0]).features.tobytes()


@pytest.mark.parametrize("rows", [[], [0, 12], [-1], [[0, 1]]],
                         ids=["empty", "past_the_end", "negative", "matrix"])
def test_a_view_rejects_rows_that_are_not_a_vector_of_its_bases_rows(rows):
    with pytest.raises(fs.DataError):
        fs.DatasetView(fs.synthetic(8, 12, 3, 2), rows)


@pytest.mark.parametrize("plan", PLANS[:2], ids=["iid", "noniid_l"])
def test_a_partition_holds_its_clients_rows_not_their_features(plan, monkeypatch):
    # In one process (no set-up split), so that tracemalloc sees every
    # buffer. Copying every client's rows held the train set a second time.
    monkeypatch.setattr(rng, "SPLIT_MIN_DRAWS", 10**12)
    train, _ = synthetic_split(1, 2000, 1000, 784, 10)
    plan = dataclasses.replace(plan, clients=10)
    if plan.kind == "noniid_l":
        plan = dataclasses.replace(plan, labels_per_client=1)
    clients, peak = traced_peak(lambda: fs.apply_partition(plan, train))
    assert sum(c.n for c in clients) == train.n
    assert peak <= 0.15 * train.features.nbytes


def test_partition_plan_validation():
    with pytest.raises(fs.DataError):
        fs.PartitionPlan(kind="bogus", clients=2, seed=0)
    with pytest.raises(fs.DataError):
        fs.PartitionPlan(kind="noniid_l", clients=2, seed=0)
    with pytest.raises(fs.DataError):
        fs.PartitionPlan(kind="iid", clients=2, seed=0, labels_per_client=2)
    with pytest.raises(fs.DataError, match="^client count must be at least 1$"):
        fs.PartitionPlan(kind="iid", clients=0, seed=0)
    with pytest.raises(fs.DataError, match="^manual partitions require an assignment map$"):
        fs.PartitionPlan(kind="manual", clients=2, seed=0)
    with pytest.raises(fs.DataError, match="^assignment only applies to manual partitions$"):
        fs.PartitionPlan(kind="iid", clients=1, seed=0, assignment={0: [0]})


# --- batch schedules --------------------------------------------------------


def make_client(n: int, seed: int = 0) -> fs.Dataset:
    return fs.synthetic(seed, n, 3, 5)


def make_schedule(client: fs.Dataset, batch_size: int, batch_count: int, seed: int):
    return fs.BatchSchedule(client, batch_size, batch_count, seed, 0)


def sweep_batches(schedule: fs.BatchSchedule, sweep: int) -> list[fs.Dataset]:
    """The batches of every window of one sweep, in training order."""
    span = schedule.window_span
    return [b for i in range(sweep * span, (sweep + 1) * span) for b in window_batches(schedule, i)]


@pytest.mark.parametrize("batch_size, batch_count", [(0, 1), (-1, 1), (2, 0), (2, -3)])
def test_a_schedule_rejects_a_batch_size_or_count_below_one(batch_size, batch_count):
    with pytest.raises(fs.ContractError, match="^batch size and batch count must be positive$"):
        make_schedule(make_client(10), batch_size, batch_count, 1)


def test_make_schedule_counts():
    schedule = make_schedule(make_client(100), 10, 3, 1)
    assert schedule.num_batches == 10
    assert schedule.window_span == 4  # ceil(10 / 3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 60),
    batch_size=st.integers(1, 70),
    batch_count=st.integers(1, 70),
    other=st.integers(1, 70),
)
def test_schedule_shape_is_fixed_when_it_is_built(n, batch_size, batch_count, other):
    # num_batches and window_span are computed once, so the fields they
    # derive from must not change under them.
    schedule = make_schedule(make_client(n), batch_size, batch_count, 1)
    for name, value in (
        ("batch_size", other),
        ("batch_count", other),
        ("source", make_client(other + 4)),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(schedule, name, value)
    assert schedule.source.n == n
    assert (schedule.batch_size, schedule.batch_count) == (batch_size, batch_count)
    assert schedule.num_batches == math.ceil(n / batch_size)
    assert schedule.window_span == math.ceil(schedule.num_batches / batch_count)


def test_make_schedule_last_batch_smaller():
    schedule = make_schedule(make_client(95), 10, 1, 1)
    sizes = [b.n for b in sweep_batches(schedule, 0)]
    assert sizes == [10] * 9 + [5]


def test_make_schedule_full_batch():
    schedule = make_schedule(make_client(8), 20, 1, 1)
    assert schedule.num_batches == 1
    assert schedule.window_span == 1


def test_schedule_covers_client_exactly():
    client = make_client(23, seed=4)
    schedule = make_schedule(client, 5, 2, 9)
    for sweep in range(3):
        batches = sweep_batches(schedule, sweep)
        assert sum(b.n for b in batches) == 23
        stacked = fs.Dataset(
            np.concatenate([b.features for b in batches]),
            np.concatenate([b.labels for b in batches]),
            5,
        )
        assert multiset(stacked) == multiset(client)


def test_batch_window_documented_sequence():
    schedule = make_schedule(make_client(100), 10, 3, 1)  # T=10, C=3, f=4
    assert fs.batch_window(schedule, 0) == (0, 2)
    assert fs.batch_window(schedule, 1) == (3, 5)
    assert fs.batch_window(schedule, 2) == (6, 8)
    assert fs.batch_window(schedule, 3) == (9, 9)
    assert fs.batch_window(schedule, 4) == (0, 2)


def test_batch_window_single_batch_mode():
    schedule = make_schedule(make_client(40), 10, 1, 1)  # T=4, C=1 -> f=4
    for i in range(9):
        p, q = fs.batch_window(schedule, i)
        assert p == q == i % 4


def test_batch_window_whole_epoch_mode():
    schedule = make_schedule(make_client(40), 10, 7, 1)  # C >= T -> one window
    for i in range(5):
        assert fs.batch_window(schedule, i) == (0, 3)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), batch_size=st.integers(1, 12), batch_count=st.integers(1, 12))
def test_batch_window_tiles_every_sweep(n, batch_size, batch_count):
    schedule = make_schedule(make_client(max(n, 5)), batch_size, batch_count, 3)
    span = schedule.window_span
    covered = []
    for i in range(span):
        p, q = fs.batch_window(schedule, i)
        covered.extend(range(p, q + 1))
    assert covered == list(range(schedule.num_batches))


def test_reshuffle_changes_order_preserves_content():
    client = make_client(30, seed=2)
    schedule = make_schedule(client, 5, 1, 7)
    before = np.concatenate([b.features for b in sweep_batches(schedule, 0)])
    after = np.concatenate([b.features for b in sweep_batches(schedule, 1)])
    assert not np.array_equal(before, after)
    assert sorted(map(tuple, before.tolist())) == sorted(map(tuple, after.tolist()))


def test_schedule_orders_do_not_depend_on_call_order():
    clients = [fs.synthetic(j, 17 + j, 3, 5) for j in range(3)]

    def sweeps(sequence):
        schedules = [fs.BatchSchedule(c, 4, 1, 11, j) for j, c in enumerate(clients)]
        return {
            (j, sweep): np.concatenate([b.features for b in sweep_batches(schedules[j], sweep)])
            for j, sweep in sequence
        }

    one_by_one = sweeps([(j, sweep) for j in range(3) for sweep in range(4)])
    interleaved = sweeps(
        [(2, 3), (0, 1), (1, 0), (1, 3), (2, 0), (0, 3), (0, 0), (2, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    )
    assert one_by_one.keys() == interleaved.keys()
    for (j, sweep), features in one_by_one.items():
        assert np.array_equal(features, interleaved[(j, sweep)]), (j, sweep)
        # Sweep s of client j is permutation s of the client's counter stream.
        order = shuffle_order(fs.derive_seed(11, j, sweep), clients[j].n)
        assert np.array_equal(features, clients[j].features[order]), (j, sweep)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 40),
    batch_size=st.integers(1, 8),
    batch_count=st.integers(1, 8),
    indices=st.lists(st.integers(0, 30), min_size=1, max_size=10),
)
def test_take_window_is_pure_in_its_index(n, batch_size, batch_count, indices):
    client = make_client(n)
    schedule = make_schedule(client, batch_size, batch_count, 3)
    # Each index is taken again in reverse, so the sequence has repeats and
    # runs out of order.
    for i in indices + indices[::-1]:
        got = window_batches(schedule, i)
        want = window_batches(make_schedule(client, batch_size, batch_count, 3), i)
        assert len(got) == len(want), i
        for a, b in zip(got, want):
            assert np.array_equal(a.features, b.features), i
            assert np.array_equal(a.labels, b.labels), i


def test_split_dataset_seeded():
    ds = fs.synthetic(1, 100, 4, 5)
    train, test = fs.split_dataset(ds, 0.25, 3)
    assert train.n == 75 and test.n == 25
    again_train, again_test = fs.split_dataset(ds, 0.25, 3)
    assert np.array_equal(train.features, again_train.features)
    assert np.array_equal(test.features, again_test.features)
    with pytest.raises(fs.DataError):
        fs.split_dataset(ds, 0.0, 3)


def test_balanced_subset_rejects_a_short_class():
    ds = fs.Dataset(np.zeros((7, 2)), np.array([0, 0, 0, 0, 1, 1, 1]), 2)
    assert balanced_subset(ds, 3, seed=1).labels.tolist() == [0, 1, 0, 1, 0, 1]
    with pytest.raises(fs.DataError, match="class 1 has only 3 samples"):
        balanced_subset(ds, 4, seed=1)


def test_image_blob_fixture_roundtrips_through_idx(tmp_path):
    images, labels = make_image_blobs(5, 40, side=4, num_classes=10)
    images_path, labels_path = write_idx_pair(str(tmp_path), images, labels, "blob")
    ds = fs.load_idx(images_path, labels_path, 10)
    assert ds.n == 40 and ds.input_dim == 16 and ds.num_classes == 10
    np.testing.assert_array_equal(np.bincount(ds.labels), np.full(10, 4))


# SHA-256 of image_surrogate(): each array's dtype and shape, then its bytes.
# The train and test slices come from one draw, so they share class templates.
IMAGE_SURROGATE_SHA256 = "b128a4d5721b83d0750f9177fdee58ff5e60599709f771cb658fd0d5a451249f"


def test_the_image_surrogate_keeps_its_bytes():
    # Criterion 3's data, built in place in the array its noise is drawn into.
    digest = hashlib.sha256()
    for images, labels in image_surrogate():
        for part in (images, labels):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(part.tobytes())
    assert digest.hexdigest() == IMAGE_SURROGATE_SHA256
