"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2-6 run the experiments of ``fedsim.claims`` and hold only the
bounds they check. Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines; criteria that need an image dataset use real
MNIST IDX files when available (``FEDSIM_MNIST_DIR`` or ``data/mnist/``)
and otherwise fall back to a deterministic image-blob surrogate served
through the IDX loader, so the full suite runs self-contained.
"""

import json
import time

import numpy as np
import pytest

import fedsim as fs
from fedsim import claims
from fedsim.cli import main
from fedsim.data import synthetic_split
from fedsim.rng import Xoshiro256PP, derive_seed, shuffle_order

from helpers import grad_rel_error, mnist_idx_paths, per_client_reference, write_idx_pair


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


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


def test_acceptance_2_lockstep_equivalence():
    started = time.perf_counter()
    fed_weights, cent_weights = claims.lockstep(claims.LOCKSTEP_SEEDS)
    gaps = [np.max(np.abs(a - b)) for a, b in zip(fed_weights, cent_weights)]
    elapsed = time.perf_counter() - started
    assert len(gaps) == 100
    assert max(gaps) <= 1e-10
    assert elapsed < 30.0
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
    train, test, cent, fed = claims.image_concordance(claims.IMAGE_SEEDS, train_full, test_full)
    assert train.n == 2000 and test.n == 1000 and train.input_dim == 784
    # Concordance of arms that learn nothing checks nothing: the centralized
    # arm must reach five times chance.
    assert cent.log.max_accuracy() >= 0.5, f"centralized max accuracy {cent.log.max_accuracy()}"
    deltas = {}
    for scenario in ("iid", "noniid_1"):
        verdict = fs.discordance(fed[scenario].log, cent.log, epsilon=0.01)
        deltas[scenario] = verdict.delta
        assert verdict.concordant, f"{scenario}: delta {verdict.delta} >= 0.01"
    elapsed = time.perf_counter() - started
    assert elapsed < 1200.0
    report_pass(
        3,
        "free-running concordance",
        f"{source}: delta iid {deltas['iid']:.2e}, noniid-1 {deltas['noniid_1']:.2e},"
        f" centralized max accuracy {cent.log.max_accuracy():.3f}, {elapsed:.0f}s",
    )


# --- criterion 4: batch count buys communication rounds under iid -------------


def test_acceptance_4_iid_batch_count_efficiency():
    started = time.perf_counter()
    rounds_to_target = {}
    max_accuracy = {}
    for batch_count, run in claims.iid_dial(claims.DIAL_SEEDS).items():
        reached = run.log.first_round_reaching(0.75)
        assert reached is not None, f"C={batch_count} never reached 0.75"
        rounds_to_target[batch_count] = reached
        max_accuracy[batch_count] = run.log.max_accuracy()
    elapsed = time.perf_counter() - started
    assert rounds_to_target[1] > rounds_to_target[5] > rounds_to_target[20]
    assert max(max_accuracy.values()) - min(max_accuracy.values()) <= 0.03
    assert elapsed < 300.0
    report_pass(
        4,
        "iid batch-count efficiency",
        f"rounds to 0.75: {rounds_to_target}, max acc spread "
        f"{max(max_accuracy.values()) - min(max_accuracy.values()):.3f}, {elapsed:.0f}s",
    )


# --- criterion 5: severe label skew rewards small batch counts ----------------


def test_acceptance_5_severe_skew_tradeoff():
    started = time.perf_counter()
    runs = claims.severe_skew(claims.DIAL_SEEDS)
    max_accuracy = {batch_count: run.log.max_accuracy() for batch_count, run in runs.items()}
    elapsed = time.perf_counter() - started
    margin = max_accuracy[1] - max_accuracy[20]
    assert margin >= 0.02, f"margin {margin:.4f} below 0.02 ({max_accuracy})"
    assert elapsed < 600.0
    report_pass(
        5,
        "severe-skew trade-off",
        f"max acc C=1 {max_accuracy[1]:.4f} vs C=20 {max_accuracy[20]:.4f}, {elapsed:.0f}s",
    )


# --- criterion 6: windowed training beats federated averaging under skew ------


def test_acceptance_6_beats_fedavg_under_skew():
    started = time.perf_counter()
    mmb_run, avg_small_run, avg_large_run = claims.versus_fedavg(claims.DIAL_SEEDS)
    max_rounds = mmb_run.config.max_rounds

    assert avg_small_run.log.rows[-1].cum_local_updates == max_rounds * 10 * 100
    assert avg_large_run.log.rows[-1].cum_local_updates == max_rounds * 10 * 20
    assert mmb_run.log.rows[-1].cum_local_updates == max_rounds * 10 * 20

    mmb = mmb_run.log.max_accuracy()
    avg_small = avg_small_run.log.max_accuracy()
    avg_large = avg_large_run.log.max_accuracy()
    elapsed = time.perf_counter() - started
    assert mmb - avg_small >= 0.02, f"margin over FedAvg(B=10) {mmb - avg_small:.4f}"
    assert mmb > avg_large, f"decoupling: {mmb:.4f} vs FedAvg(B=50) {avg_large:.4f}"
    assert elapsed < 900.0
    report_pass(
        6,
        "beats FedAvg under skew",
        f"mmb {mmb:.4f} vs avg(B=10) {avg_small:.4f} vs avg(B=50,mu=20) {avg_large:.4f}, {elapsed:.0f}s",
    )


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
