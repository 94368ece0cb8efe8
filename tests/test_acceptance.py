"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2-6 run the experiments of ``fedsim.claims``; 3-6 train their arm
tables with ``claims.train``, require each margin to meet its bound in
``claims.BOUNDS`` and each arm's metrics CSV to keep its digest, and a null
control requires each of them to fail runs whose weights never move. A
further test pins what a runner of arms relies on: ``claims.train`` calls
one driver per arm, in table order, on the experiment's own objects. Run
with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines;
criteria that need an image dataset use real MNIST IDX files when
available (``FEDSIM_MNIST_DIR`` or ``data/mnist/``) and otherwise fall back
to a deterministic image-blob surrogate served through the IDX loader, so
the full suite runs self-contained.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import fedsim as fs
from fedsim import claims
from fedsim.cli import main
from fedsim.data import synthetic_split
from fedsim.rng import Xoshiro256PP, derive_seed, shuffle_order

from helpers import claim_experiments, freeze_claim_drivers, grad_rel_error, mnist_idx_paths
from helpers import per_client_reference, write_idx_pair


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def check_margins(number: int, name: str, margins: dict, started: float, limit_s: float) -> None:
    """Require every margin of criterion ``number`` to meet its bound, then print its PASS line."""
    elapsed = time.perf_counter() - started
    bounds = claims.BOUNDS[number]
    verdicts = ", ".join(f"{key} {margins[key]:.4g} {bound}" for key, bound in bounds.items())
    assert not claims.failing(number, margins), verdicts
    assert elapsed < limit_s
    report_pass(number, name, f"{verdicts}, {elapsed:.0f}s")


# The SHA-256 of each arm's metrics CSV at the acceptance seeds, criterion 3
# on the image-blob surrogate. Like those of ``tests/test_golden.py``, these
# digests depend on the OpenBLAS kernel that rounds the matrix products: they
# were taken where DYNAMIC_ARCH picks SkylakeX, and that file's docstring says
# which kernels differ.
ARM_DIGESTS = {
    3: {
        "centralized": "9d139726db87b9949a3aeb7fb4dfe43d13638012d2a367c7f800b386c0c5dc0b",
        "iid": "101319977a0a766d3ee7bc1ba27e7e214ba9b14cff7253ae258f76659399fa70",
        "noniid_1": "7c3f31291fc7af0dfaacf571450c3a945a9f7c46724f530c5cde9b683dcbcff6",
    },
    4: {
        "C=1": "b110098e99c04d8fbbf479602bd575426839adbb0b302b43ecea21b3486b5485",
        "C=5": "1b387d0d714cd8dfbcdf18f88f204d61cc62c45dbb4d14806126151cab3e20de",
        "C=20": "86748bbabf2d7a2f47adbf22c9ba65c5d8dfae7bbcc4b6ca20bc1a493e2d88c1",
    },
    5: {
        "C=1": "d1eb2d8281300ac4cb96fdaad406b05a2024d2502ce626dc319aa5c98848d4c4",
        "C=20": "71e1ef56c23b58b5612ea6f0a57c19e3d8a07ad515682300d117eb0f823b806c",
    },
    6: {
        "windowed B=10": "6cf14ca8396e7979ab6ef56763f4a775f72422b59efa65ba8f6467fcbedb769e",
        "FedAvg B=10": "cd0405f0b17d0f1caee23d65efb7a89869944f7ec465efcc3dccb8fe363c2ad0",
        "FedAvg B=50": "135bb2f423917babc59a4b0e69324389d40d291719a31431d94fc18f92b2c8f6",
    },
}


def check_digests(number: int, runs: dict) -> None:
    """Require the metrics CSV of every arm of criterion ``number`` to keep its bytes."""
    digests = {
        name: hashlib.sha256(run.log.to_csv_string().encode()).hexdigest()
        for name, run in runs.items()
    }
    assert digests == ARM_DIGESTS[number]


MARGINS = {
    3: claims.concordance_margins,
    4: claims.dial_margins,
    5: claims.skew_margins,
    6: claims.fedavg_margins,
}


# --- criterion 1: gradient correctness ---------------------------------------


def test_acceptance_1_gradient_correctness():
    started = time.perf_counter()
    rng = Xoshiro256PP(derive_seed(2024, 1))
    worst = 0.0
    for case in range(20):
        if case == 0:
            spec = fs.NetworkSpec(80, (60,), 10)  # 5,470 parameters
        else:
            input_dim = 2 + rng.below(12)
            depth = rng.below(3)
            hidden = tuple(1 + rng.below(16) for _ in range(depth))
            output_dim = 2 + rng.below(8)
            spec = fs.NetworkSpec(input_dim, hidden, output_dim)
        assert spec.parameter_count <= 10_000
        batch_size = 1 + rng.below(16)
        ds = fs.synthetic(
            derive_seed(7, case), max(batch_size, spec.output_dim), spec.input_dim, spec.output_dim
        )
        batch = ds.subset(np.arange(batch_size))
        weights = fs.init_weights(spec, derive_seed(11, case))
        _, analytic = fs.compute_gradients(spec, weights, batch)
        numeric = fs.finite_diff_grad(spec, weights, batch, 1e-5)
        worst = max(worst, grad_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert elapsed < 10.0
    report_pass(1, "gradient correctness", f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: exact single-batch federated/centralized equivalence -------


# The SHA-256 of each criterion-2 trajectory: the float64 bytes of its 100
# weight vectors, in round order. Like ``ARM_DIGESTS``, they depend on the
# OpenBLAS kernel that rounds the matrix products (taken under SkylakeX).
TRAJECTORY_DIGESTS = (
    "e9676497f88b3544ff70e3e90b164aa2658de28028812be7fc7c1cc5ffd77faa",  # federated
    "b69d49793c41c044437291de4988e2423515a627fb9ba23af3f9cb68d2f98e57",  # centralized
)


def test_acceptance_2_lockstep_equivalence():
    started = time.perf_counter()
    fed_weights, cent_weights = claims.lockstep(claims.LOCKSTEP_SEEDS)
    gaps = [np.max(np.abs(a - b)) for a, b in zip(fed_weights, cent_weights)]
    elapsed = time.perf_counter() - started
    assert len(gaps) == 100
    assert max(gaps) <= 1e-10
    assert elapsed < 30.0
    digests = tuple(
        hashlib.sha256(b"".join(w.tobytes() for w in weights)).hexdigest()
        for weights in (fed_weights, cent_weights)
    )
    assert digests == TRAJECTORY_DIGESTS
    report_pass(2, "lockstep equivalence", f"max weight gap {max(gaps):.2e}, {elapsed:.1f}s")


# --- criterion 3: free-running concordance on image data ---------------------


def _image_datasets(tmp_path) -> tuple[fs.Dataset, fs.Dataset, str]:
    paths = mnist_idx_paths()
    if paths is not None:
        train_full = fs.load_idx(paths["train_images"], paths["train_labels"], 10)
        test_full = fs.load_idx(paths["test_images"], paths["test_labels"], 10)
        return train_full, test_full, "mnist"
    # Deterministic surrogate with MNIST's geometry, via the IDX loader.
    (train_images, train_labels), (test_images, test_labels) = claims.image_surrogate()
    train_paths = write_idx_pair(str(tmp_path), train_images, train_labels, "train")
    test_paths = write_idx_pair(str(tmp_path), test_images, test_labels, "test")
    train_full, test_full = fs.load_idx(*train_paths, 10), fs.load_idx(*test_paths, 10)
    return train_full, test_full, "image-blob surrogate"


def test_acceptance_3_free_running_concordance(tmp_path):
    started = time.perf_counter()
    train_full, test_full, source = _image_datasets(tmp_path)
    experiment = claims.image_concordance(claims.IMAGE_SEEDS, train_full, test_full)
    train, test = experiment.train, experiment.test
    assert train.n == 2000 and test.n == 1000 and train.input_dim == 784
    runs = claims.train(experiment)
    if source == "image-blob surrogate":
        check_digests(3, runs)
    margins = claims.concordance_margins(runs)
    check_margins(3, f"free-running concordance, {source}", margins, started, 1200.0)


# --- criterion 4: batch count buys communication rounds under iid -------------


def test_acceptance_4_iid_batch_count_efficiency():
    started = time.perf_counter()
    runs = claims.train(claims.iid_dial(claims.DIAL_SEEDS))
    check_digests(4, runs)
    margins = claims.dial_margins(runs)
    check_margins(4, "iid batch-count efficiency", margins, started, 300.0)


# --- criterion 5: severe label skew rewards small batch counts ----------------


def test_acceptance_5_severe_skew_tradeoff():
    started = time.perf_counter()
    runs = claims.train(claims.severe_skew(claims.DIAL_SEEDS))
    check_digests(5, runs)
    margins = claims.skew_margins(runs)
    check_margins(5, "severe-skew trade-off", margins, started, 600.0)


# --- criterion 6: windowed training beats federated averaging under skew ------


def test_acceptance_6_beats_fedavg_under_skew():
    started = time.perf_counter()
    runs = claims.train(claims.versus_fedavg(claims.DIAL_SEEDS))
    # Windowed training matches FedAvg B=50's update count, not FedAvg B=10's.
    max_rounds = runs["windowed B=10"].config.max_rounds
    updates = [run.log.rows[-1].cum_local_updates for run in runs.values()]
    assert updates == [max_rounds * 10 * per_round for per_round in (20, 100, 20)]
    check_digests(6, runs)
    check_margins(6, "beats FedAvg under skew", claims.fedavg_margins(runs), started, 900.0)


# --- criteria 3-6 fail runs that learn nothing -------------------------------


def test_every_claim_fails_when_no_weight_moves(monkeypatch):
    # Every run's log is that of weights frozen at their initial values, so
    # each criterion must have a margin that misses its bound.
    freeze_claim_drivers(monkeypatch)
    margins = {c: MARGINS[c](claims.train(e)) for c, e in claim_experiments().items()}
    names = {c: b.keys() for c, b in claims.BOUNDS.items()}
    assert {c: m.keys() for c, m in margins.items()} == names
    assert [c for c, m in margins.items() if not claims.failing(c, m)] == [], margins


def test_train_runs_each_arm_once_in_table_order_on_the_experiments_own_objects(monkeypatch):
    # A runner that deals arms out to forked children relies on this: the
    # experiment is built once, before any fork, and every arm trains on its
    # objects. Arms on one partition share one client list.
    calls = freeze_claim_drivers(monkeypatch)
    drivers = {"fedmmb": "run_fedmmb", "fedavg": "run_fedavg", "centralized": "run_centralized"}
    partitions = {}
    for c, experiment in claim_experiments().items():
        calls.clear()
        runs = claims.train(experiment)
        assert list(runs) == list(experiment.arms) and len(calls) == len(runs)
        for (driver, config, spec, data, test_set), (clients, arm_config), run in zip(
            calls, experiment.arms.values(), runs.values()
        ):
            assert driver == drivers[config.mode]
            assert config is arm_config and run.config is arm_config
            assert data is (experiment.train if clients is None else clients)
            assert spec is experiment.spec and test_set is experiment.test
        lists = {id(clients) for clients, _ in experiment.arms.values() if clients is not None}
        partitions[c] = len(lists)
    assert partitions == {3: 2, 4: 1, 5: 1, 6: 1}


# --- criterion 7: accounting identities ---------------------------------------


def test_acceptance_7_accounting_identities():
    spec = fs.NetworkSpec(4, (6,), 5)
    w = fs.init_weights(spec, 1)

    # FedAvg: mu_j = E * ceil(N_j / B), and epoch e of round 0 trains on
    # permutation e of the client's shuffle stream (seed 2, client 0).
    for n, batch_size, epochs in ((100, 10, 1), (95, 10, 2), (7, 3, 4)):
        data = fs.synthetic(3, n, 4, 5)
        schedule = fs.BatchSchedule(data, batch_size, -(-n // batch_size), 2, 0)
        plan = fs.StepPlan(spec, [schedule], epochs, 0.01)
        _, [steps] = fs.client_update_mmb(plan, 0, w)
        assert steps == epochs * -(-n // batch_size)
        local = w
        for e in range(epochs):
            order = shuffle_order(derive_seed(2, 0, e), n)
            for start in range(0, n, batch_size):
                rows = order[start : start + batch_size]
                batch = data.subset(rows)
                _, grads = fs.compute_gradients(spec, local, batch)
                local = fs.sgd_step(local, grads, 0.01)
        assert np.array_equal(plan.stack[0], local)

    # Windowed client: per-round update counts follow the window sizes.
    schedule = fs.BatchSchedule(fs.synthetic(3, 100, 4, 5), 10, 3, 2, 0)  # T=10, C=3
    expected_windows = [(0, 2), (3, 5), (6, 8), (9, 9)]
    plan = fs.StepPlan(spec, [schedule], 1, 0.01)
    local_updates = 0
    for i, (p, q) in enumerate(expected_windows):
        assert fs.batch_window(schedule, i) == (p, q)
        _, [steps] = fs.client_update_mmb(plan, i, w)
        assert steps == q - p + 1
        local_updates += steps
    assert local_updates == 10  # 3 + 3 + 3 + 1

    # Bytes per round: parameters x 8 bytes x 2 directions x K clients.
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.1, max_rounds=4, batch_size=2,
        seeds=fs.Seeds(1, 2, 3), clients=10, batch_count=1,
    )
    assert fs.comm_cost(cfg, fs.NetworkSpec(9, (), 10)) == 100 * 8 * 2 * 10
    report_pass(7, "accounting identities")


# --- criterion 8: determinism -------------------------------------------------


def random_config(case: int) -> tuple[fs.TrainingConfig, fs.NetworkSpec, list, fs.Dataset]:
    rng = Xoshiro256PP(derive_seed(88, case))
    classes = 2 + rng.below(4)
    clients = 2 + rng.below(3)
    per_client = 10 + 2 * rng.below(6)
    n = clients * per_client
    input_dim = 2 + rng.below(6)
    train, test = synthetic_split(derive_seed(89, case), n, 5 * classes, input_dim, classes)
    seeds = fs.Seeds(init=case, shuffle=case + 1, partition=case + 2)
    spec = fs.NetworkSpec(input_dim, (4 + rng.below(8),), classes)
    client_data = fs.partition_iid(train, clients, seeds.partition)
    mode = "fedmmb" if rng.below(2) == 0 else "fedavg"
    batch_size = 2 + rng.below(6)
    if mode == "fedmmb":
        cfg = fs.TrainingConfig(
            mode=mode, learning_rate=0.02 + 0.01 * rng.below(5), max_rounds=2 + rng.below(4),
            batch_size=batch_size, seeds=seeds, clients=clients, batch_count=1 + rng.below(4),
        )
    else:
        cfg = fs.TrainingConfig(
            mode=mode, learning_rate=0.02 + 0.01 * rng.below(5), max_rounds=2 + rng.below(4),
            batch_size=batch_size, seeds=seeds, clients=clients, local_epochs=1 + rng.below(2),
        )
    return cfg, spec, client_data, test


def test_acceptance_8_determinism(tmp_path):
    started = time.perf_counter()
    for case in range(10):
        cfg, spec, clients, test = random_config(case)
        driver = fs.run_fedmmb if cfg.mode == "fedmmb" else fs.run_fedavg
        final = []
        first = driver(cfg, spec, clients, test, round_hook=lambda i, w: final.append(w))
        second = driver(cfg, spec, clients, test)
        assert first.to_csv_string() == second.to_csv_string()
        # The stacked round loop equals training client by client, bit for bit.
        reference_log, reference_weights = per_client_reference(cfg, spec, clients, test)
        assert first.to_csv_string() == reference_log.to_csv_string(), case
        assert np.array_equal(final[-1], reference_weights), case

    # File-level determinism through the CLI as well.
    document = {
        "dataset": {"source": "synthetic", "seed": 5, "n_train": 120, "n_test": 60,
                     "input_dim": 6, "num_classes": 3},
        "model": {"hidden": [8]},
        "partition": {"kind": "iid"},
        "train": {"mode": "fedmmb", "K": 4, "B": 6, "C": 2, "eta": 0.05, "I_max": 8,
                   "seeds": {"init": 1, "shuffle": 2, "partition": 3}},
        "output": {"dir": str(tmp_path / "out"), "name": "det"},
    }
    config_path = tmp_path / "det.json"
    config_path.write_text(json.dumps(document))
    assert main(["run", str(config_path)]) == 0
    first_bytes = (tmp_path / "out" / "det.csv").read_bytes()
    assert main(["run", str(config_path)]) == 0
    assert (tmp_path / "out" / "det.csv").read_bytes() == first_bytes

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report_pass(
        8, "determinism",
        f"10 configs rerun-identical and equal to per-client training, {elapsed:.0f}s",
    )
