import contextlib
import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim as fs
import fedsim.blas as blas
import fedsim.data as data
import fedsim.federated as federated
import fedsim.split as split
from fedsim import claims
from fedsim.cli import main as cli_main
from fedsim.data import draw_windows, synthetic_split
from fedsim.federated import StepPlan
from fedsim.rng import Xoshiro256PP

from helpers import claim_experiments, force_split, freeze_claim_drivers, linux_only
from helpers import per_client_reference, record_workers, reference_aggregate


SEEDS = fs.Seeds(init=1, shuffle=2, partition=3)


def make_client(n: int, input_dim: int = 4, classes: int = 5, seed: int = 0) -> fs.Dataset:
    return fs.synthetic(seed, n, input_dim, classes)


def client_schedule(n: int, batch_size: int, batch_count: int, seed: int = 2):
    return fs.BatchSchedule(make_client(n), batch_size, batch_count, seed, 0)


# --- training config --------------------------------------------------------


def test_config_mode_exclusivity():
    with pytest.raises(fs.ConfigError):
        fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.1, max_rounds=2, batch_size=4, seeds=SEEDS,
            clients=2, batch_count=1, local_epochs=1,
        )
    with pytest.raises(fs.ConfigError):
        fs.TrainingConfig(
            mode="fedavg", learning_rate=0.1, max_rounds=2, batch_size=4, seeds=SEEDS, clients=2,
        )
    with pytest.raises(fs.ConfigError):
        fs.TrainingConfig(
            mode="centralized", learning_rate=0.1, max_rounds=2, batch_size=4, seeds=SEEDS, clients=2,
        )
    with pytest.raises(fs.ConfigError):
        fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.1, max_rounds=5, batch_size=4, seeds=SEEDS,
            clients=2, batch_count=1, eval_every=2,  # 2 does not divide 5
        )
    with pytest.raises(fs.ConfigError):
        fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.0, max_rounds=2, batch_size=4, seeds=SEEDS,
            clients=2, batch_count=1,
        )


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"mode": "fedsgd", "clients": 2}, "mode must be one of"),
        ({"max_rounds": 0}, "max_rounds must be at least 1"),
        ({"max_rounds": -2}, "max_rounds must be at least 1"),
        ({"batch_count": 0}, "batch_count must be at least 1"),
        ({"mode": "fedavg", "batch_count": None, "local_epochs": 0},
         "local_epochs must be at least 1"),
    ],
    ids=["unknown_mode", "zero_rounds", "negative_rounds", "zero_batch_count", "zero_epochs"],
)
def test_config_rejects_an_unknown_mode_and_counts_below_one(knobs, message):
    # eval_every=1 divides every max_rounds, so only the check named can raise.
    document = {"mode": "fedmmb", "learning_rate": 0.1, "max_rounds": 2, "batch_size": 4,
                "seeds": SEEDS, "clients": 2, "batch_count": 1, "eval_every": 1}
    with pytest.raises(fs.ConfigError, match=message):
        fs.TrainingConfig(**{**document, **knobs})


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("field", ["init", "shuffle", "partition"])
def test_seeds_outside_64_bits_raise(field, seed):
    # The streams take seeds modulo 2**64: -1 would repeat 2**64 - 1's run.
    with pytest.raises(fs.ConfigError, match=f"seed {field}"):
        fs.Seeds(**{"init": 0, "shuffle": 0, "partition": 0, field: seed})
    fs.Seeds(**{"init": 0, "shuffle": 0, "partition": 0, field: 2**64 - 1})


# --- client updates ---------------------------------------------------------


def one_client_round(schedule, eta: float, round_index: int = 0, windows: int = 1):
    """Weights, sample count and step count of one client's round from seed-1 weights."""
    spec = fs.NetworkSpec(4, (6,), 5)
    w = fs.init_weights(spec, 1)
    plan = StepPlan(spec, [schedule], windows, eta)
    [samples], [steps] = fs.client_update_mmb(plan, round_index, w)
    return plan.stack[0], samples, steps


def test_mmb_update_whole_epoch_when_count_covers_list():
    schedule = client_schedule(40, batch_size=10, batch_count=4)
    _, samples, steps = one_client_round(schedule, 0.05)
    assert steps == 4
    assert samples == 40


def test_mmb_update_single_batch_mode():
    schedule = client_schedule(40, batch_size=10, batch_count=1)
    _, samples, steps = one_client_round(schedule, 0.05)
    assert steps == 1
    assert samples == 10


def test_mmb_update_zero_eta_returns_broadcast_weights():
    schedule = client_schedule(20, batch_size=5, batch_count=2)
    local, samples, _ = one_client_round(schedule, 0.0)
    assert np.array_equal(local, fs.init_weights(fs.NetworkSpec(4, (6,), 5), 1))
    assert samples == 10


def test_mmb_update_counts_short_last_window():
    # T=ceil(25/10)=3, C=2 -> windows (0,1) then (2,2) with 5 samples.
    schedule = client_schedule(25, batch_size=10, batch_count=2)
    _, *first = one_client_round(schedule, 0.01, round_index=0)
    _, *second = one_client_round(schedule, 0.01, round_index=1)
    assert first == [20, 2]
    assert second == [5, 1]


def test_fedavg_update_accounting():
    schedule = client_schedule(100, batch_size=10, batch_count=10)
    _, samples, steps = one_client_round(schedule, 0.05, windows=1)
    assert steps == 10
    assert samples == 100

    schedule = client_schedule(95, batch_size=10, batch_count=10)
    _, samples, steps = one_client_round(schedule, 0.05, windows=2)
    assert steps == 20
    assert samples == 190


def test_fedavg_update_count_large_client():
    # One epoch at batch size 10 over a 10000-sample client: 1000 updates.
    spec = fs.NetworkSpec(4, (), 5)
    w = fs.init_weights(spec, 1)
    schedule = client_schedule(10000, batch_size=10, batch_count=1000)
    plan = StepPlan(spec, [schedule], 1, 0.05)
    assert fs.client_update_mmb(plan, 0, w) == ([10000], [1000])


@pytest.mark.parametrize(
    "windows, eta",
    [(1, float("nan")), (1, float("inf")), (1, float("-inf")), (1, -0.1), (0, 0.05)],
)
def test_step_plan_rejects_bad_windows_or_learning_rates(windows, eta):
    spec = fs.NetworkSpec(4, (6,), 5)
    with pytest.raises(fs.ContractError):
        StepPlan(spec, [client_schedule(20, 5, 2)], windows, eta)


def unequal_clients() -> tuple[fs.NetworkSpec, list[fs.Dataset], fs.Dataset]:
    # 13, 22 and 25 samples: at B=4 the clients have 4, 6 and 7 batches and
    # end on batches of 1, 2 and 1, so a step can train the clients as more
    # than one range, and clients with shorter windows sit steps out.
    train, test = synthetic_split(12, 60, 20, 4, 3)
    clients = fs.partition_manual(
        train, {0: list(range(13)), 1: list(range(13, 35)), 2: list(range(35, 60))}
    )
    return fs.NetworkSpec(4, (5,), 3), clients, test


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(16)), batch_count=st.sampled_from([1, 2, 3, 7]))
def test_draw_windows_equals_fresh_single_schedules_in_any_order(order, batch_count):
    # Two schedules on each of the 13-, 22- and 25-sample clients: mixed
    # sizes, and two streams per size.
    _, clients, _ = unequal_clients()
    schedules = [
        fs.BatchSchedule(c, 4, batch_count, seed, j) for seed in (2, 7) for j, c in enumerate(clients)
    ]
    held = [None] * len(schedules)  # the sweep each schedule holds
    calls = []
    real_shuffle_orders = data.shuffle_orders

    def counted(seeds, n):
        calls.append((len(seeds), n))
        return real_shuffle_orders(seeds, n)

    for index in order:
        sweeps = [index // s.window_span for s in schedules]
        stale = [s.source.n for s, sweep, h in zip(schedules, sweeps, held) if sweep != h]
        calls.clear()
        with mock.patch.object(data, "shuffle_orders", counted):
            got = draw_windows(schedules, index)
        # One draw per distinct size among the schedules that start a sweep.
        assert sorted(calls) == sorted((stale.count(n), n) for n in set(stale))
        held = sweeps
        for schedule, (rows, sizes) in zip(schedules, got):
            fresh = fs.BatchSchedule(
                schedule.source, 4, batch_count, schedule.base_seed, schedule.client_index
            )
            want_rows, want_sizes = fresh.window_rows(index)
            assert np.array_equal(rows, want_rows), index
            assert sizes == want_sizes, index


def test_a_round_draws_once_per_distinct_size_of_the_clients_that_start_a_sweep(monkeypatch):
    # Three clients of 12 samples (T = 3 at B=4, C=1) and two of 20 (T = 5):
    # the 12s start a sweep every third round and the 20s every fifth, so
    # rounds 0 and 15 draw once for each size, rounds such as 3 and 5 once
    # for one size, and rounds inside every client's sweep draw nothing.
    # claims.lockstep_mbgd over the same clients draws the same way.
    clients = [make_client(n, seed=j) for j, n in enumerate((12, 12, 12, 20, 20))]
    spec = fs.NetworkSpec(4, (6,), 5)
    calls = []
    real_shuffle_orders = data.shuffle_orders

    def counted(seeds, n):
        calls.append((len(seeds), n))
        return real_shuffle_orders(seeds, n)

    monkeypatch.setattr(data, "shuffle_orders", counted)

    plan = StepPlan(spec, [fs.BatchSchedule(c, 4, 1, 2, j) for j, c in enumerate(clients)], 1, 0.1)
    w = fs.init_weights(spec, 1)
    for i in range(16):
        calls.clear()
        fs.client_update_mmb(plan, i, w)
        assert calls == [(3, 12)] * (i % 3 == 0) + [(2, 20)] * (i % 5 == 0), i

    def lockstep_round(r, w):  # the oracle draws round i = r - 1, then calls its hook
        i = r - 1
        assert calls == [(3, 12)] * (i % 3 == 0) + [(2, 20)] * (i % 5 == 0), i
        calls.clear()

    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.1, max_rounds=16, batch_size=20, seeds=SEEDS,
    )
    calls.clear()
    claims.lockstep_mbgd(cfg, spec, clients, lockstep_round)  # 5 clients, batches of 4


def test_equal_clients_make_one_step_call_per_step_over_every_row():
    # 22 samples at B=5 make batches 5, 5, 5, 5, 2; C=3 cuts them into the
    # windows (5, 5, 5) and (5, 2). Every step trains rows 0..K-1 at once.
    spec = fs.NetworkSpec(4, (3,), 5)
    schedules = [fs.BatchSchedule(make_client(22, seed=j), 5, 3, 2, j) for j in range(4)]
    plan = StepPlan(spec, schedules, 1, 0.1)
    w = fs.init_weights(spec, 1)
    calls = []
    real_step = StepPlan.step

    def recorded_step(plan, a, b, offset, size, origin=None):
        calls.append((a, b, offset, size, origin is not None))
        real_step(plan, a, b, offset, size, origin)

    with mock.patch.object(StepPlan, "step", recorded_step):
        for i, batches in enumerate([(5, 5, 5), (5, 2), (5, 5, 5)]):
            calls.clear()
            fs.client_update_mmb(plan, i, w)
            assert calls == [(0, 4, sum(batches[:s]), z, s == 0) for s, z in enumerate(batches)]


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(5, 18), min_size=1, max_size=3, unique=True),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    in_order=st.booleans(),
    mode=st.sampled_from(["fedmmb", "fedavg"]),
    batch_size=st.integers(1, 5),
    count=st.integers(1, 3),
    views=st.booleans(),
)
@example(sizes=[9, 14], picks=[0, 0, 0, 1, 1, 1], in_order=False, mode="fedmmb",
         batch_size=4, count=3, views=False)  # two sizes, sorted
@example(sizes=[9, 14], picks=[0, 1, 0, 1, 0, 1], in_order=False, mode="fedavg",
         batch_size=4, count=2, views=True)  # two sizes, interleaved
@example(sizes=[16, 7], picks=[0, 0, 1, 0, 0], in_order=False, mode="fedmmb",
         batch_size=5, count=2, views=True)  # one odd-sized client
def test_any_client_sizes_give_the_per_client_references_bytes(
    sizes, picks, in_order, mode, batch_size, count, views
):
    # Runs of equal neighbours train as one range and a client that sits a
    # step out, or trains at another offset, splits its range; whatever the
    # client sizes and their order, the CSV and the final weights must be
    # those of training each client alone, in one process and in two. With
    # ``views`` the clients train as views of one shuffled base and the
    # reference on copies of their rows.
    ns = [sizes[p % len(sizes)] for p in picks]
    if in_order:
        ns.sort()
    spec = fs.NetworkSpec(4, (3,), 5)
    clients = [make_client(n, seed=j) for j, n in enumerate(ns)]
    reference_clients = clients
    if views:
        clients = views_of(clients)
        assert [c.features.tobytes() for c in clients] == [
            c.features.tobytes() for c in reference_clients
        ]
    test = make_client(20, seed=99)
    knobs = {"batch_count": count} if mode == "fedmmb" else {"local_epochs": count}
    cfg = fs.TrainingConfig(
        mode=mode, learning_rate=0.1, max_rounds=3, batch_size=batch_size, seeds=SEEDS,
        clients=len(clients), **knobs,
    )
    driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
    reference_log, reference_weights = per_client_reference(cfg, spec, reference_clients, test)
    expected = (reference_log.to_csv_string(), reference_weights.tobytes())

    def run(hook):
        return driver(cfg, spec, clients, test, hook)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
        assert csv_and_final_weights(run) == expected
    if sys.platform == "linux":
        with pytest.MonkeyPatch.context() as patch:
            workers = force_split(patch)
            assert csv_and_final_weights(run) == expected
        assert len(workers) == (len(clients) >= 2)


def views_of(clients: list[fs.Dataset]) -> list[fs.DatasetView]:
    """Views of one base that holds every client's rows, shuffled together."""
    order = Xoshiro256PP(7).permutation(sum(c.n for c in clients))
    base = fs.Dataset(
        np.concatenate([c.features for c in clients])[order],
        np.concatenate([c.labels for c in clients])[order],
        clients[0].num_classes,
    )
    where = np.argsort(order)  # where each client row landed in the base
    ends = np.cumsum([c.n for c in clients])
    return [fs.DatasetView(base, rows) for rows in np.split(where, ends[:-1])]


@pytest.mark.parametrize("split_run", [False, pytest.param(True, marks=linux_only)],
                         ids=["serial", "split"])
@pytest.mark.parametrize("mode", ["fedmmb", "fedavg"])
@pytest.mark.parametrize(
    "plan",
    [fs.PartitionPlan("iid", 4, 3), fs.PartitionPlan("noniid_l", 4, 3, labels_per_client=2),
     fs.PartitionPlan("manual", 4, 0, assignment={0: list(range(5, 18)), 1: list(range(5)),
                                                  2: list(range(18, 40)), 3: list(range(40, 80))})],
    ids=["iid", "noniid_l", "manual"],
)
def test_partition_views_give_the_bytes_of_copies_of_their_rows(plan, mode, split_run,
                                                                monkeypatch):
    # Each client is a view of the train set; a run on ``subset`` copies of
    # the same rows gives the same CSV and final weights. Unequal manual
    # sizes make steps of several ranges.
    train, test = synthetic_split(11, 80, 40, 4, 4)
    spec = fs.NetworkSpec(4, (8,), 4)
    views = fs.apply_partition(plan, train)
    copies = [train.subset(v.rows) for v in views]
    knobs = {"batch_count": 2} if mode == "fedmmb" else {"local_epochs": 1}
    cfg = fs.TrainingConfig(
        mode=mode, learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS, clients=4,
        eval_every=2, **knobs,
    )
    driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    expected = csv_and_final_weights(lambda hook: driver(cfg, spec, copies, test, hook))
    workers = force_split(monkeypatch) if split_run else []
    assert csv_and_final_weights(lambda hook: driver(cfg, spec, views, test, hook)) == expected
    assert len(workers) == split_run


def test_a_round_never_copies_a_views_features(monkeypatch):
    # The round loop takes its rows from the base; reading a view's
    # features would copy all of them.
    spec, clients, test = small_fed_setup()
    assert all(isinstance(c, fs.DatasetView) for c in clients)

    def no_copy(self):
        raise AssertionError("a view's features were copied")

    monkeypatch.setattr(fs.DatasetView, "features", property(no_copy))
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=2,
    )
    fs.run_fedmmb(cfg, spec, clients, test)


def test_gather_copies_source_rows_and_identity_rows_byte_for_byte():
    spec, clients, _ = unequal_clients()
    schedules = [fs.BatchSchedule(c, 4, 3, 2, j) for j, c in enumerate(clients)]
    plan = StepPlan(spec, schedules, 1, 0.1)
    # The 13-sample client's even windows hold 12 rows and its odd ones
    # 1 row, so its buffers are written short after they were written long.
    for index in (2, 1, 2, 0, 5):
        rows = [r for r, _ in draw_windows(plan.schedules, index)]
        plan.gather(rows)
        for j, (schedule, r) in enumerate(zip(plan.schedules, rows)):
            source = schedule.source
            x = plan._x[j, : r.size]
            targets = plan._targets[j, : r.size]
            assert x.tobytes() == source.features[r].tobytes(), (index, j)
            one_hot = np.eye(spec.output_dim)[source.labels[r]]
            assert targets.tobytes() == one_hot.tobytes(), (index, j)


@pytest.mark.parametrize("mode", ["fedmmb", "fedavg"])
def test_driver_matches_per_client_reference_on_unequal_clients(mode):
    spec, clients, test = unequal_clients()
    knobs = {"batch_count": 3} if mode == "fedmmb" else {"local_epochs": 2}
    cfg = fs.TrainingConfig(
        mode=mode, learning_rate=0.1, max_rounds=6, batch_size=4, seeds=SEEDS,
        eval_every=2, clients=3, **knobs,
    )
    driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
    seen = []
    log = driver(cfg, spec, clients, test, round_hook=lambda i, w: seen.append((w, w.copy())))
    reference_log, reference_weights = per_client_reference(cfg, spec, clients, test)
    assert log.to_csv_string() == reference_log.to_csv_string()
    assert np.array_equal(seen[-1][0], reference_weights)
    # Weights handed to the hook are never overwritten by later rounds.
    assert all(np.array_equal(w, snapshot) for w, snapshot in seen)


def test_no_round_reads_what_an_earlier_round_left_in_the_plan(monkeypatch):
    # Each round fills the stack and the gradient buffer with NaN before it
    # trains, so a client row that a round's first step did not write, or a
    # gradient read before it was written, makes the run diverge. The runs
    # stay in one process, where first_steps sees every range, until the
    # last one, which splits its clients 1 | 2; there each process poisons
    # only the rows of its own range of the one shared stack.
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    spec, clients, test = unequal_clients()
    cent_cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.1, max_rounds=8, batch_size=4, seeds=SEEDS,
    )

    def centralized():
        seen = []
        log = fs.run_centralized(
            cent_cfg, spec, clients[2], test, round_hook=lambda i, w: seen.append(w)
        )
        return log.to_csv_string(), seen[-1]

    clean_csv, clean_weights = centralized()
    real_update, real_step = federated.client_update_mmb, StepPlan.step
    first_steps = []  # per round: the (a, b, offset, size) of each first-step range

    def poisoned_update(plan, round_index, weights, clients):
        plan.stack[clients.start : clients.stop].fill(np.nan)
        plan.grads[clients.start : clients.stop].fill(np.nan)
        first_steps.append([])
        return real_update(plan, round_index, weights, clients)

    def recorded_step(plan, a, b, offset, size, origin=None):
        if origin is not None:
            first_steps[-1].append((a, b, offset, size))
        real_step(plan, a, b, offset, size, origin)

    monkeypatch.setattr(federated, "client_update_mmb", poisoned_update)
    monkeypatch.setattr(StepPlan, "step", recorded_step)
    csv, weights = centralized()
    assert csv == clean_csv
    assert np.array_equal(weights, clean_weights)
    for mode, knobs in (("fedmmb", {"batch_count": 3}), ("fedavg", {"local_epochs": 2})):
        cfg = fs.TrainingConfig(
            mode=mode, learning_rate=0.1, max_rounds=6, batch_size=4, seeds=SEEDS,
            eval_every=2, clients=3, **knobs,
        )
        driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
        first_steps.clear()
        seen = []
        log = driver(cfg, spec, clients, test, round_hook=lambda i, w: seen.append(w))
        reference_log, reference_weights = per_client_reference(cfg, spec, clients, test)
        assert log.to_csv_string() == reference_log.to_csv_string()
        assert np.array_equal(seen[-1], reference_weights)
        assert len(first_steps) == cfg.max_rounds
        if mode == "fedmmb":
            # Round 1 opens on client 0's short last batch of one sample, so
            # its first step trains two ranges from the global weights.
            assert first_steps[1] == [(0, 1, 0, 1), (1, 3, 0, 4)]
    if sys.platform == "linux":
        workers = force_split(monkeypatch)
        log = fs.run_fedavg(cfg, spec, clients, test)
        assert log.to_csv_string() == reference_log.to_csv_string()
        assert len(workers) == 1


def test_a_plan_takes_the_layer_views_of_each_client_range_once(monkeypatch):
    # Unequal clients train as several ranges a step, partial ones among
    # them; each distinct range takes the views of its stack rows and of its
    # gradient rows on its first step, and no later step takes them again.
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    spec, clients, test = unequal_clients()
    cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.1, max_rounds=6, batch_size=4, seeds=SEEDS,
        eval_every=2, clients=3, local_epochs=2,
    )
    real_step, real_views = StepPlan.step, federated.layer_views
    ranges, taken = [], []  # each step's (a, b); the range of each view taken in a step
    stepping = []

    def step(plan, a, b, *args):
        ranges.append((a, b))
        stepping.append(None)
        try:
            real_step(plan, a, b, *args)
        finally:
            stepping.pop()

    def views(spec, params):
        if stepping:
            taken.append(ranges[-1])
        return real_views(spec, params)

    monkeypatch.setattr(StepPlan, "step", step)
    monkeypatch.setattr(federated, "layer_views", views)
    fs.run_fedavg(cfg, spec, clients, test)
    assert {(0, 1), (1, 3), (0, 3)} <= set(ranges)
    assert len(ranges) > 5 * len(set(ranges))
    assert Counter(taken) == {r: 2 for r in set(ranges)}


def stack_runs() -> dict:
    """Small runs of every driver, each returning its CSV and its final weights' bytes."""
    spec, clients, test = small_fed_setup()
    train = synthetic_split(11, 80, 40, 4, 5)[0]
    uneven_spec, uneven, uneven_test = unequal_clients()

    def config(mode, **knobs):
        return fs.TrainingConfig(
            mode=mode, learning_rate=0.1, max_rounds=6, batch_size=4, seeds=SEEDS,
            eval_every=2, **knobs,
        )

    def run(driver, *args, **kwargs):
        seen = []
        log = driver(*args, round_hook=lambda i, w: seen.append(w), **kwargs)
        return log.to_csv_string(), seen[-1].tobytes()

    mmb = config("fedmmb", clients=4, batch_count=2)
    avg = config("fedavg", clients=4, local_epochs=2)
    cent = config("centralized")
    # The unequal clients' round 1 opens with two first-step ranges, so the
    # first step trains ranges short of every client, on views of their rows.
    uneven_mmb = config("fedmmb", clients=3, batch_count=3)
    uneven_avg = config("fedavg", clients=3, local_epochs=2)
    return {
        "fedmmb": lambda: run(fs.run_fedmmb, mmb, spec, clients, test),
        "fedavg": lambda: run(fs.run_fedavg, avg, spec, clients, test),
        "centralized": lambda: run(fs.run_centralized, cent, spec, train, test),
        "unequal-fedmmb": lambda: run(fs.run_fedmmb, uneven_mmb, uneven_spec, uneven, uneven_test),
        "unequal-fedavg": lambda: run(fs.run_fedavg, uneven_avg, uneven_spec, uneven, uneven_test),
    }


@pytest.mark.parametrize(
    "name",
    ["fedmmb", "fedavg", "centralized", "unequal-fedmmb", "unequal-fedavg"],
)
def test_nothing_reads_the_stack_between_aggregate_and_the_next_round(name, monkeypatch):
    # aggregate overwrites rows 1.. of the stack. Filling the whole stack with
    # NaN after each call shows that nothing reads it before the next round's
    # first step writes every row.
    run = stack_runs()[name]
    clean = run()
    real_aggregate = federated.aggregate

    def poisoned_aggregate(stack, samples):
        weights = real_aggregate(stack, samples)
        stack.fill(np.nan)
        return weights

    monkeypatch.setattr(federated, "aggregate", poisoned_aggregate)
    assert run() == clean


def test_client_update_rejects_global_weights_that_share_the_stack():
    spec = fs.NetworkSpec(4, (6,), 5)
    plan = StepPlan(spec, [client_schedule(20, batch_size=5, batch_count=2)], 1, 0.05)
    plan.stack[...] = fs.init_weights(spec, 1)
    with pytest.raises(fs.ContractError):
        fs.client_update_mmb(plan, 0, plan.stack[0])


# --- aggregation ------------------------------------------------------------


def test_aggregate_identical_weights_fixed_point():
    spec = fs.NetworkSpec(3, (4,), 3)
    w = fs.init_weights(spec, 5)
    merged = fs.aggregate(np.stack([w] * 10), [7 + j for j in range(10)])
    assert np.array_equal(merged, w)


def test_aggregate_two_client_arithmetic():
    a = np.array([0.0, 0.0])  # one 1x1 layer: weight, bias
    b = np.array([4.0, 4.0])
    merged = fs.aggregate(np.stack([a, b]), [1, 3])
    assert np.array_equal(merged, [3.0, 3.0])


def test_aggregate_equal_counts_is_mean():
    spec = fs.NetworkSpec(3, (4,), 3)
    ws = [fs.init_weights(spec, s) for s in range(4)]
    merged = fs.aggregate(np.stack(ws), [5] * 4)
    np.testing.assert_allclose(merged, sum(ws) / 4, atol=1e-15)


def test_aggregate_empty_raises():
    with pytest.raises(fs.ContractError):
        fs.aggregate(np.empty((0, 2)), [])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    counts=st.lists(st.integers(1, 50), min_size=1, max_size=6),
)
def test_aggregate_convexity_property(seed, counts):
    spec = fs.NetworkSpec(2, (), 2)
    ws = [fs.init_weights(spec, seed + j) for j in range(len(counts))]
    stacked = np.stack(ws)
    merged = fs.aggregate(stacked.copy(), counts)
    assert np.all(merged >= stacked.min(axis=0))
    assert np.all(merged <= stacked.max(axis=0))


def tied_signed_zero_stack(seed: int, clients: int, width: int) -> np.ndarray:
    """A random ``[clients, width]`` stack with exact ties and +0.0/-0.0 entries."""
    values = Xoshiro256PP(seed).normal_array(clients * width).reshape(clients, width)
    values[:, 0] = 0.0
    values[:, 1] = -0.0
    values[::2, 2] = -0.0  # signed zeros that differ between rows
    values[:, 3] = values[0, 3]  # one coordinate tied across all rows
    if clients > 1:
        values[-1] = values[0]  # a whole row tied with the anchor
    return values


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    counts=st.lists(st.integers(1, 1000), min_size=1, max_size=8),
)
def test_aggregate_matches_the_all_rows_oracle_bit_for_bit(seed, counts):
    stack = tied_signed_zero_stack(seed, len(counts), 6)
    got = fs.aggregate(stack.copy(), counts)
    want = reference_aggregate(stack, counts)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("clients", range(1, 9))
def test_aggregate_keeps_row_0_and_returns_a_new_array(clients):
    # Rows 1.. are aggregate's scratch; row 0, the anchor, is never written.
    stack = tied_signed_zero_stack(clients, clients, 6)
    counts = [1 + 7 * j for j in range(clients)]
    before = stack.copy()
    got = fs.aggregate(stack, counts)
    assert got.tobytes() == reference_aggregate(before, counts).tobytes()
    assert stack[0].tobytes() == before[0].tobytes()
    assert not np.shares_memory(got, stack)


def test_aggregate_single_row_is_the_row_with_positive_zero():
    row = np.array([1.5, -0.0, 0.0, -2.25])
    merged = fs.aggregate(row[None, :], [7])
    assert merged.tobytes() == np.array([1.5, 0.0, 0.0, -2.25]).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("clients, row", [(1, 0), (3, 0), (3, 1)])
def test_aggregate_non_finite_anchor_or_row_raises(bad, clients, row):
    stack = tied_signed_zero_stack(5, clients, 6)
    stack[row, 4] = bad
    for average in (fs.aggregate, reference_aggregate):
        with pytest.raises(fs.ContractError), np.errstate(invalid="ignore"):
            average(stack.copy(), [3] * clients)


# --- drivers ----------------------------------------------------------------


def small_fed_setup(classes: int = 5, clients: int = 4, n: int = 80):
    train, test = synthetic_split(11, n, 40, 4, classes)
    client_data = fs.partition_iid(train, clients, SEEDS.partition)
    spec = fs.NetworkSpec(4, (8,), classes)
    return spec, client_data, test


def test_run_fedmmb_one_round_one_row():
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    log = fs.run_fedmmb(cfg, spec, clients, test)
    assert len(log.rows) == 1
    assert log.rows[0].round == 1


def test_run_fedmmb_rejects_wrong_mode_or_clients():
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS,
        clients=3, batch_count=1,
    )
    with pytest.raises(fs.ConfigError):
        fs.run_fedmmb(cfg, spec, clients, test)  # 4 clients given, 3 configured
    cfg_central = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS,
    )
    with pytest.raises(fs.ConfigError):
        fs.run_fedmmb(cfg_central, spec, clients, test)


@pytest.mark.parametrize("fault", ["feature_width", "label_range"])
@pytest.mark.parametrize("driver", ["fedmmb", "fedavg", "lockstep"])
def test_drivers_check_client_data_against_the_spec_before_training(driver, fault):
    # The spec check runs once per run, before the first step; no batch with
    # a wrong width or a label >= output_dim may reach the gradient code.
    spec = fs.NetworkSpec(4, (6,), 3)
    test = fs.synthetic(3, 12, 4, 3)
    if fault == "feature_width":
        clients = [make_client(20, input_dim=5, classes=3, seed=j) for j in range(2)]
    else:
        clients = [make_client(20, classes=3, seed=0)]
        clients.append(fs.synthetic(1, 20, 4, 4))  # label 3 is past the spec's 3 classes
    hooked = []
    knobs = {
        "fedmmb": {"clients": 2, "batch_count": 2},
        "fedavg": {"clients": 2, "local_epochs": 1},
        "lockstep": {},
    }[driver]
    cfg = fs.TrainingConfig(
        mode="centralized" if driver == "lockstep" else driver, learning_rate=0.05,
        max_rounds=2, batch_size=20 if driver == "lockstep" else 5, seeds=SEEDS, **knobs,
    )
    hook = lambda r, w: hooked.append(r)  # noqa: E731
    with pytest.raises(fs.ContractError):
        if driver == "fedmmb":
            fs.run_fedmmb(cfg, spec, clients, test, round_hook=hook)
        elif driver == "fedavg":
            fs.run_fedavg(cfg, spec, clients, test, round_hook=hook)
        else:
            claims.lockstep_mbgd(cfg, spec, clients, hook)
    assert hooked == []


@pytest.mark.parametrize("driver", ["fedmmb", "fedavg", "centralized"])
def test_round_loop_calls_its_hooks_once_a_round(driver, monkeypatch):
    # A benchmark marks round 1 by the first client_update_mmb call and
    # times client_update_mmb and aggregate where fedsim.federated binds
    # them, so the run must look both up there, once a round, and finish
    # its set-up (init_weights included) before the first round.
    calls = []
    for name in ("client_update_mmb", "aggregate", "init_weights"):
        real = getattr(federated, name)

        def record(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(federated, name, record)
    spec, clients, test = small_fed_setup()
    knobs = {
        "fedmmb": {"clients": 4, "batch_count": 2},
        "fedavg": {"clients": 4, "local_epochs": 1},
    }.get(driver, {})
    cfg = fs.TrainingConfig(
        mode=driver, learning_rate=0.05, max_rounds=3, batch_size=5, seeds=SEEDS, **knobs,
    )
    if driver == "fedmmb":
        fs.run_fedmmb(cfg, spec, clients, test)
    elif driver == "fedavg":
        fs.run_fedavg(cfg, spec, clients, test)
    else:
        fs.run_centralized(cfg, spec, clients[0], test)
    assert calls == ["init_weights"] + ["client_update_mmb", "aggregate"] * cfg.max_rounds


@pytest.mark.parametrize("fault", ["feature_width", "label_range"])
@pytest.mark.parametrize("driver", ["fedmmb", "centralized"])
def test_drivers_check_the_test_set_before_the_first_round(driver, fault):
    # A test set that does not fit the network fails before any round
    # trains, not at the first evaluation eval_every rounds later.
    spec, clients, test = small_fed_setup()
    if fault == "feature_width":
        test = fs.synthetic(3, 12, spec.input_dim + 1, spec.output_dim)
    else:
        test = fs.synthetic(3, 12, spec.input_dim, spec.output_dim + 1)
    mode = {"clients": 4, "batch_count": 1} if driver == "fedmmb" else {}
    cfg = fs.TrainingConfig(
        mode=driver, learning_rate=0.05, max_rounds=10, batch_size=5, seeds=SEEDS,
        eval_every=5, **mode,
    )
    hooked = []
    hook = lambda r, w: hooked.append(r)  # noqa: E731
    with pytest.raises(fs.ContractError):
        if driver == "fedmmb":
            fs.run_fedmmb(cfg, spec, clients, test, round_hook=hook)
        else:
            fs.run_centralized(cfg, spec, clients[0], test, round_hook=hook)
    assert hooked == []


# --- evaluation in the worker process ---------------------------------------


def image_shaped_setup() -> tuple[fs.NetworkSpec, fs.Dataset, fs.Dataset]:
    """784-wide training data and a test set just large enough to be evaluated in the worker."""
    spec = fs.NetworkSpec(784, (32,), 10)
    n_test = -(-federated.EVAL_ASIDE_MACS // (784 * 32))
    train, test = synthetic_split(17, 80, n_test, 784, 10)
    assert federated._evaluates_aside(spec, test)
    assert not federated._evaluates_aside(spec, test.subset(np.arange(n_test - 1)))
    return spec, train, test


def image_shaped_run(driver: str, spec, train, test, round_hook=None) -> fs.MetricsLog:
    if driver == "fedmmb":
        cfg = fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.05, max_rounds=6, batch_size=5, seeds=SEEDS,
            clients=4, batch_count=1, eval_every=2,
        )
        clients = fs.partition_iid(train, 4, SEEDS.partition)
        return fs.run_fedmmb(cfg, spec, clients, test, round_hook=round_hook)
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=6, batch_size=20, seeds=SEEDS,
        eval_every=2,
    )
    return fs.run_centralized(cfg, spec, train, test, round_hook=round_hook)


def journal(monkeypatch, path: Path, name: str, entry) -> Callable[[], list]:
    """Record each call of ``federated.<name>``, from either process, as ``[pid, *entry]``.

    ``entry(args, result)`` gives the rest of a call's line. Returns a
    reader of the lines so far; each process's lines are in its call order.
    """
    real = getattr(federated, name)

    def recorded(*args):
        result = real(*args)
        with open(path, "a") as f:
            f.write(json.dumps([os.getpid(), *entry(args, result)]) + "\n")
        return result

    monkeypatch.setattr(federated, name, recorded)
    return lambda: [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []


def journal_evaluations(monkeypatch, tmp_path) -> Callable[[], list]:
    """Each evaluation: ``[pid, BLAS threads (None without the API), [loss, accuracy]]``."""
    api = blas._openblas()
    return journal(
        monkeypatch, tmp_path / "evaluations", "evaluate",
        lambda args, numbers: [api.get_num_threads() if api else None, list(numbers)],
    )


def journal_updates(monkeypatch, tmp_path) -> Callable[[], list]:
    """Each client update: ``[pid, round index, [first, end] of the clients it trains]``."""

    def entry(args, counts):
        clients = args[3] if len(args) > 3 else range(len(args[0].schedules))
        return [args[1], [clients.start, clients.stop]]

    return journal(monkeypatch, tmp_path / "updates", "client_update_mmb", entry)


def assert_evaluated_aside(evaluations: list, worker, spec, test, weights: list, log=None) -> None:
    """Every evaluation ran in ``worker``, at one BLAS thread, with the inline numbers of
    ``weights``, in order; so does every row of ``log``, if given."""
    assert [pid for pid, _, _ in evaluations] == [worker.pid] * len(weights)
    assert {threads for _, threads, _ in evaluations} == ({1} if blas._openblas() else {None})
    with blas.one_blas_thread():
        inline = [list(fs.evaluate(spec, w, test)) for w in weights]
    assert [numbers for _, _, numbers in evaluations] == inline
    if log is not None:
        assert [[row.test_loss, row.test_accuracy] for row in log.rows] == inline


@linux_only
@pytest.mark.parametrize("driver", ["fedmmb", "centralized"])
def test_worker_evaluations_equal_inline_ones_byte_for_byte(driver, monkeypatch, tmp_path):
    # GOLDEN's small test sets are evaluated inline, so this is the check
    # that the worker process logs exactly what evaluate gives on the
    # hooked weights, in round order, the last row included. Its
    # evaluations run at one BLAS thread, whose products may differ in the
    # last bit from those at more, so the reference evaluates at one too.
    spec, train, test = image_shaped_setup()
    workers = record_workers(monkeypatch)
    evaluations = journal_evaluations(monkeypatch, tmp_path)
    hooked = {}
    log = image_shaped_run(driver, spec, train, test, lambda r, w: hooked.setdefault(r, w))
    assert len(workers) == 1
    assert [row.round for row in log.rows] == [2, 4, 6]
    assert_evaluated_aside(evaluations(), workers[0], spec, test, [hooked[r] for r in (2, 4, 6)], log)


@pytest.mark.parametrize("driver", ["fedmmb", "centralized"])
def test_a_hook_that_writes_its_weights_logs_what_an_inline_evaluation_logs(driver, monkeypatch):
    # The worker's evaluation reads its own copy of the weights, taken
    # before the hook, so a hook that halves them after its round does not
    # change that round's row; on both paths the next round starts from
    # what the hook wrote.
    spec, train, test = image_shaped_setup()

    def run(halve: bool) -> tuple[str, bytes]:
        final = []

        def hook(r, w):
            if halve:
                w *= 0.5
            final.append(w.copy())

        log = image_shaped_run(driver, spec, train, test, hook)
        return log.to_csv_string(), final[-1].tobytes()

    aside = run(halve=True)
    monkeypatch.setattr(federated, "EVAL_ASIDE_MACS", 10**18)
    inline = run(halve=True)
    unhooked = run(halve=False)
    assert aside == inline
    assert inline[0] != unhooked[0]


@linux_only
def test_rounds_trained_while_the_worker_evaluates_keep_the_serial_inline_bytes(
    monkeypatch, tmp_path
):
    # The first evaluation (after round 2) takes 0.3 s more in the worker,
    # so this process trains rounds 3 and 4 alone, every client in one
    # stack, and waits for it at round 4's evaluation. The hook after round
    # 4 waits 0.3 s, so the second evaluation has replied when round 5
    # starts, and rounds 5 and 6 train in halves again. The run keeps the
    # bytes of a serial run that evaluates inline.
    spec, train, test = image_shaped_setup()

    def run(hook):
        def waits_after_round_4(r, w):
            if r == 4:
                time.sleep(0.3)
            hook(r, w)

        return image_shaped_run("fedmmb", spec, train, test, waits_after_round_4)

    with monkeypatch.context() as m:
        m.setattr(federated, "EVAL_ASIDE_MACS", 10**18)
        serial = csv_and_final_weights(run)
    parent = os.getpid()
    real = federated.evaluate
    slowed = []  # the worker's own list

    def first_one_slow(*args):
        if os.getpid() != parent and not slowed:
            slowed.append(None)
            time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(federated, "evaluate", first_one_slow)
    workers = record_workers(monkeypatch)
    updates = journal_updates(monkeypatch, tmp_path)
    assert csv_and_final_weights(run) == serial
    assert len(workers) == 1
    calls = {}
    for pid, i, clients in updates():
        calls.setdefault(pid, []).append((i, clients))
    assert calls == {
        parent: [(0, [0, 2]), (1, [0, 2]), (2, [0, 4]), (3, [0, 4]), (4, [0, 2]), (5, [0, 2])],
        workers[0].pid: [(0, [2, 4]), (1, [2, 4]), (4, [2, 4]), (5, [2, 4])],
    }


@linux_only
def test_a_one_client_run_that_evaluates_aside_forks_a_worker_that_only_evaluates(
    monkeypatch, tmp_path
):
    spec, train, test = image_shaped_setup()

    def run(hook):
        return image_shaped_run("centralized", spec, train, test, hook)

    with monkeypatch.context() as m:
        m.setattr(federated, "EVAL_ASIDE_MACS", 10**18)
        serial = csv_and_final_weights(run)
    workers = record_workers(monkeypatch)
    updates = journal_updates(monkeypatch, tmp_path)
    evaluations = journal_evaluations(monkeypatch, tmp_path)
    assert csv_and_final_weights(run) == serial
    assert len(workers) == 1
    assert updates() == [[os.getpid(), i, [0, 1]] for i in range(6)]
    assert [pid for pid, _, _ in evaluations()] == [workers[0].pid] * 3


@linux_only
@pytest.mark.parametrize("fault", ["cannot_fork", "blas_not_held"])
def test_a_run_that_evaluates_aside_but_cannot_fork_evaluates_inline_with_the_same_bytes(
    fault, monkeypatch, tmp_path
):
    spec, train, test = image_shaped_setup()

    def run(hook):
        return image_shaped_run("fedmmb", spec, train, test, hook)

    workers = record_workers(monkeypatch)
    aside = csv_and_final_weights(run)
    assert len(workers) == 1
    if fault == "cannot_fork":
        monkeypatch.setattr(split, "can_fork", lambda: False)
    else:
        monkeypatch.setattr(federated, "blas_holds_one_thread", lambda: False)
    evaluations = journal_evaluations(monkeypatch, tmp_path)
    assert csv_and_final_weights(run) == aside
    assert len(workers) == 1
    assert [pid for pid, _, _ in evaluations()] == [os.getpid()] * 3


def test_claim_experiments_fall_on_their_side_of_the_evaluation_size_rule(monkeypatch):
    # The image-shaped experiment (criterion 3) evaluates in the worker;
    # the 20-d ones (criteria 2, 4, 5, 6) evaluate inline.
    calls = freeze_claim_drivers(monkeypatch)
    runs = {2: lambda: claims.lockstep(SEEDS)}
    runs.update((c, functools.partial(claims.train, e)) for c, e in claim_experiments().items())
    sides = {}
    for c, run in runs.items():
        calls.clear()
        run()
        sides[c] = {federated._evaluates_aside(spec, test) for _, _, spec, _, test in calls}
    assert sides == {2: {False}, 3: {True}, 4: {False}, 5: {False}, 6: {False}}


def test_an_inline_run_does_not_load_the_worker_modules():
    # concurrent.futures (with logging) adds about 0.6 MB to a process's peak
    # RSS. No run imports it: an inline run, nor one that evaluates aside,
    # whose evaluations run in the worker process.
    child = (
        "import sys\n"
        "import fedsim as fs\n"
        "import fedsim.federated as federated\n"
        "pool = {'concurrent.futures', 'logging'}\n"
        "train, test = fs.synthetic_split(1, 40, 20, 4, 3)\n"
        "cfg = fs.TrainingConfig(mode='centralized', learning_rate=0.1, max_rounds=2,"
        " batch_size=10, seeds=fs.Seeds(1, 2, 3))\n"
        "fs.run_centralized(cfg, fs.NetworkSpec(4, (5,), 3), train, test)\n"
        "print(sorted(pool & set(sys.modules)))\n"
        "n_test = -(-federated.EVAL_ASIDE_MACS // (784 * 32))\n"
        "train, test = fs.synthetic_split(1, 40, n_test, 784, 3)\n"
        "fs.run_centralized(cfg, fs.NetworkSpec(784, (32,), 3), train, test)\n"
        "print(sorted(pool & set(sys.modules)))\n"
    )
    src = str(Path(federated.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "[]"]


@pytest.mark.parametrize("failing", [1, 3], ids=["first", "last"])
def test_a_worker_evaluation_that_raises_raises_from_the_driver(failing, monkeypatch):
    # The first evaluation's error surfaces at the next evaluation round,
    # the last one's at the end of the run; either way no log comes back,
    # and no process is left when the driver returns or raises.
    spec, train, test = image_shaped_setup()
    image_shaped_run("fedmmb", spec, train, test)
    assert_no_child_left()
    real = federated.evaluate
    calls = []  # the evaluating process's own list

    def evaluate(*args):
        calls.append(None)
        if len(calls) == failing:
            raise fs.ContractError("evaluation produced a non-finite loss")
        return real(*args)

    monkeypatch.setattr(federated, "evaluate", evaluate)
    with pytest.raises(fs.ContractError, match="non-finite loss"):
        image_shaped_run("fedmmb", spec, train, test)
    assert_no_child_left()


@linux_only
def test_an_evaluation_that_raises_while_this_process_trains_alone_names_its_cause(
    monkeypatch, tmp_path
):
    # The first evaluation fails in the worker after 0.3 s, while this
    # process trains rounds 3 and 4 in one stack; round 4's evaluation
    # round raises it, before its hook.
    spec, train, test = image_shaped_setup()
    workers = record_workers(monkeypatch)
    updates = journal_updates(monkeypatch, tmp_path)

    def evaluate(*args):
        time.sleep(0.3)
        raise RuntimeError("no evaluation today")

    monkeypatch.setattr(federated, "evaluate", evaluate)
    hooked = []
    message = "^the training worker raised RuntimeError: no evaluation today$"
    with pytest.raises(fs.ContractError, match=message):
        image_shaped_run("fedmmb", spec, train, test, lambda r, w: hooked.append(r))
    assert hooked == [1, 2, 3]
    assert [[i, k] for pid, i, k in updates() if pid == os.getpid()] == [
        [0, [0, 2]], [1, [0, 2]], [2, [0, 4]], [3, [0, 4]]]
    assert len(workers) == 1
    assert_no_child_left()


# --- clients split across two processes -------------------------------------


def four_client_run(round_hook=None, eta: float = 0.05, rounds: int = 6) -> fs.MetricsLog:
    """Four clients of two steps a round: a forced split trains clients 2 and 3 in the worker."""
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=eta, max_rounds=rounds, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=2, eval_every=2,
    )
    return fs.run_fedmmb(cfg, spec, clients, test, round_hook=round_hook)


def two_client_run(round_hook=None) -> fs.MetricsLog:
    """Two clients of 40 samples at B=7, two epochs a round: a split of 1 | 1."""
    spec, clients, test = small_fed_setup(clients=2)
    cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.05, max_rounds=6, batch_size=7, seeds=SEEDS,
        clients=2, local_epochs=2, eval_every=3,
    )
    return fs.run_fedavg(cfg, spec, clients, test, round_hook=round_hook)


def a6_shaped_run(mode: str, round_hook=None) -> fs.MetricsLog:
    """Ten rounds of criterion 6's windowed arm or its FedAvg B=50 arm, on its data."""
    train, test = synthetic_split(31, 10000, 1000, 20, 10)
    clients = fs.partition_noniid_l(train, 10, 2, SEEDS.partition)
    knobs = {"batch_size": 10, "batch_count": 20} if mode == "fedmmb" else {
        "batch_size": 50, "local_epochs": 1}
    cfg = fs.TrainingConfig(
        mode=mode, learning_rate=0.05, max_rounds=10, seeds=SEEDS, clients=10, eval_every=5,
        **knobs,
    )
    driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
    return driver(cfg, fs.NetworkSpec(20, (32, 32), 10), clients, test, round_hook=round_hook)


def csv_and_final_weights(run) -> tuple[str, bytes]:
    final = []
    log = run(lambda r, w: final.append(w))
    return log.to_csv_string(), final[-1].tobytes()


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@linux_only
@pytest.mark.parametrize(
    "run",
    [two_client_run, lambda hook: a6_shaped_run("fedmmb", hook),
     lambda hook: a6_shaped_run("fedavg", hook)],
    ids=["two_clients", "a6_windowed", "a6_fedavg_b50"],
)
def test_a_split_run_gives_the_serial_runs_bytes(run, monkeypatch):
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    serial = csv_and_final_weights(run)
    workers = force_split(monkeypatch)
    assert csv_and_final_weights(run) == serial
    assert len(workers) == 1


@linux_only
def test_no_split_run_changes_a_pipes_blocking_mode(monkeypatch, tmp_path):
    monkeypatch.setattr(split, "SPIN_S", 0.0)  # a read that finds its pipe empty blocks
    journal = tmp_path / "journal"  # one line a call, from either process
    real = os.set_blocking

    def recorded(fd, blocking):
        with open(journal, "a") as f:
            f.write(f"{os.getpid()} {fd} {blocking}\n")
        real(fd, blocking)

    monkeypatch.setattr(os, "set_blocking", recorded)
    workers = force_split(monkeypatch)
    two_client_run()
    assert len(workers) == 1
    assert not journal.exists()


@linux_only
def test_a_split_runs_worker_prepares_every_round_ahead_once_and_none_past_the_last(
    monkeypatch, tmp_path
):
    # Two epochs a round on clients of 13, 22 and 25 samples at B=4, split
    # 1 | 2: the worker prepares rounds 0..5 once each, each before its task
    # comes, so never again on demand and never round 6; this process
    # prepares its half on demand. The run keeps the serial bytes.
    spec, clients, test = unequal_clients()
    cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.1, max_rounds=6, batch_size=4, seeds=SEEDS,
        eval_every=2, clients=3, local_epochs=2,
    )

    def run(hook):
        return fs.run_fedavg(cfg, spec, clients, test, round_hook=hook)

    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    serial = csv_and_final_weights(run)
    journal = tmp_path / "journal"  # one line a call, from either process
    for name in ("prepare_round", "client_update_mmb"):
        real = getattr(federated, name)

        def recorded(plan, i, *args, _name=name, _real=real):
            with open(journal, "a") as f:
                f.write(f"{os.getpid()} {_name} {i}\n")
            return _real(plan, i, *args)

        monkeypatch.setattr(federated, name, recorded)
    workers = force_split(monkeypatch)
    assert csv_and_final_weights(run) == serial
    calls = {}
    for line in journal.read_text().splitlines():
        pid, name, i = line.split()
        calls.setdefault(int(pid), []).append((name, int(i)))
    ahead = [(name, i) for i in range(6) for name in ("prepare_round", "client_update_mmb")]
    on_demand = [(name, i) for i in range(6) for name in ("client_update_mmb", "prepare_round")]
    assert calls == {workers[0].pid: ahead, os.getpid(): on_demand}


@linux_only
@pytest.mark.parametrize("run", ["split", "aside"])
def test_a_run_in_two_processes_builds_one_step_plan(run, monkeypatch):
    real_init = StepPlan.__init__
    plans = []  # this process's own list; the worker builds none

    def init(plan, *args):
        plans.append(None)
        real_init(plan, *args)

    monkeypatch.setattr(StepPlan, "__init__", init)
    if run == "split":
        workers = force_split(monkeypatch)
        four_client_run()
    else:
        workers = record_workers(monkeypatch)
        image_shaped_run("fedmmb", *image_shaped_setup())
    assert len(workers) == 1
    assert len(plans) == 1


@linux_only
def test_a_split_runs_two_processes_train_the_two_halves_of_one_plan(monkeypatch, tmp_path):
    workers = force_split(monkeypatch)
    updates = journal_updates(monkeypatch, tmp_path)
    four_client_run()
    assert len(workers) == 1
    calls = {}
    for pid, i, clients in updates():
        calls.setdefault(pid, []).append((i, clients))
    assert calls == {
        os.getpid(): [(i, [0, 2]) for i in range(6)],
        workers[0].pid: [(i, [2, 4]) for i in range(6)],
    }


@linux_only
def test_an_exception_while_the_worker_prepares_a_round_raises_at_that_round(monkeypatch):
    parent = os.getpid()
    real = federated.prepare_round

    def fails_ahead_of_round_2(plan, i, clients):
        if os.getpid() != parent and i == 2:
            raise RuntimeError("no rows for round 2")
        real(plan, i, clients)

    monkeypatch.setattr(federated, "prepare_round", fails_ahead_of_round_2)
    workers = force_split(monkeypatch)
    hooked = []
    message = "^the training worker raised RuntimeError: no rows for round 2$"
    with pytest.raises(fs.ContractError, match=message):
        four_client_run(lambda r, w: hooked.append(r))
    assert hooked == [1, 2]  # rounds 0 and 1 ran; round 2 raised
    assert len(workers) == 1
    assert_no_child_left()


def test_the_split_rule_reads_platform_cpus_clients_steps_and_threads(monkeypatch):
    schedules = [client_schedule(40, batch_size=5, batch_count=c) for c in (1, 3)]  # T = 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    assert federated.SPLIT_MIN_STEPS == 3
    assert federated._splits(schedules, 1, False)  # client 1 takes 3 batches a round
    assert not federated._splits(schedules[:1], 2, False)  # one client
    assert not federated._splits(schedules[:1] * 2, 2, False)  # 2 steps a round
    assert federated._splits(schedules[:1] * 2, 3, False)  # 3 windows of 1 batch
    assert federated._splits([client_schedule(10, 5, 20)] * 2, 2, False)  # T = 2 caps each window
    assert not federated._splits([client_schedule(10, 5, 20)] * 2, 1, False)
    # A run that evaluates aside forks whatever its clients and steps.
    assert federated._splits(schedules[:1], 1, True)
    assert federated._splits(schedules[:1] * 2, 1, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not federated._splits(schedules, 1, False)
    assert not federated._splits(schedules[:1], 1, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not federated._splits(schedules, 1, False)  # a fork copies only its own thread
        assert not federated._splits(schedules[:1], 1, True)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not federated._splits(schedules, 1, False)
    assert not federated._splits(schedules[:1], 1, True)


def test_without_the_blas_api_a_run_splits_only_where_the_environment_pins_one_thread(
    monkeypatch,
):
    schedules = [client_schedule(40, batch_size=5, batch_count=3)] * 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    for name in blas._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert not federated._splits(schedules, 1, False)
    assert not federated._splits(schedules[:1], 1, True)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert federated._splits(schedules, 1, False)
    assert federated._splits(schedules[:1], 1, True)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not federated._splits(schedules, 1, False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert federated._splits(schedules, 1, False)


@linux_only
@pytest.mark.skipif(blas._openblas() is None, reason="needs the OpenBLAS runtime API")
@pytest.mark.parametrize("fault", [None, "hook"], ids=["returns", "raises"])
def test_a_split_run_trains_at_one_blas_thread_and_restores_the_callers_count(
    fault, monkeypatch
):
    api = blas._openblas()
    caller = api.get_num_threads()
    workers = force_split(monkeypatch)
    seen = []

    def hook(r, w):
        seen.append(api.get_num_threads())
        if fault and r == 2:
            raise ValueError("hook failed")

    api.set_num_threads(2)
    try:
        if fault:
            with pytest.raises(ValueError):
                four_client_run(hook)
        else:
            four_client_run(hook)
        assert api.get_num_threads() == 2
    finally:
        api.set_num_threads(caller)
    assert seen and set(seen) == {1}
    assert len(workers) == 1


@linux_only
@pytest.mark.skipif(blas._openblas() is None, reason="needs the OpenBLAS runtime API")
@pytest.mark.parametrize("fault", [None, "hook"], ids=["returns", "raises"])
def test_a_run_that_evaluates_aside_runs_at_one_blas_thread_and_restores_the_callers_count(
    fault, monkeypatch, tmp_path
):
    # The worker's evaluations and this process's training would each wake
    # a second BLAS thread on two CPUs; both processes hold one throughout.
    # A hook that raises after round 4 leaves the evaluation of round 4 to
    # finish in the worker before the driver reaps it.
    spec, train, test = image_shaped_setup()
    api = blas._openblas()
    caller = api.get_num_threads()
    workers = record_workers(monkeypatch)
    evaluations = journal_evaluations(monkeypatch, tmp_path)
    seen, hooked = [], []

    def hook(r, w):
        seen.append(api.get_num_threads())
        if r % 2 == 0:
            hooked.append(w)
        if fault and r == 4:
            raise ValueError("hook failed")

    api.set_num_threads(2)
    try:
        log = None
        if fault:
            with pytest.raises(ValueError):
                image_shaped_run("fedmmb", spec, train, test, hook)
        else:
            log = image_shaped_run("fedmmb", spec, train, test, hook)
        assert api.get_num_threads() == 2
    finally:
        api.set_num_threads(caller)
    assert seen and set(seen) == {1}
    assert len(hooked) == (2 if fault else 3)
    assert len(workers) == 1
    assert_evaluated_aside(evaluations(), workers[0], spec, test, hooked, log)


@pytest.mark.skipif(blas._openblas() is None, reason="needs the OpenBLAS runtime API")
@pytest.mark.parametrize("driver", ["fedmmb", "centralized"])
@pytest.mark.parametrize("fault", [None, "hook"], ids=["returns", "raises"])
def test_a_run_that_neither_splits_nor_evaluates_aside_trains_at_one_blas_thread(
    fault, driver, monkeypatch
):
    # A one-step run with a small test set: no worker.
    # It still trains at one thread, so its bits do not depend on the
    # caller's count, and it gives the caller's count back either way.
    spec, clients, test = small_fed_setup()
    api = blas._openblas()
    caller = api.get_num_threads()
    seen, evaluated = [], []
    real = federated.evaluate

    def inline(*args):
        evaluated.append(api.get_num_threads())
        return real(*args)

    def hook(r, w):
        seen.append(api.get_num_threads())
        if fault and r == 2:
            raise ValueError("hook failed")

    monkeypatch.setattr(federated, "evaluate", inline)
    cfg = fs.TrainingConfig(
        mode=driver, learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS,
        eval_every=2, **({"clients": 4, "batch_count": 1} if driver == "fedmmb" else {}),
    )
    assert not federated._evaluates_aside(spec, test)
    api.set_num_threads(2)
    try:
        with pytest.raises(ValueError) if fault else contextlib.nullcontext():
            if driver == "fedmmb":
                schedules = [fs.BatchSchedule(c, 5, 1, 2, 0) for c in clients]
                assert not federated._splits(schedules, 1, False)
                fs.run_fedmmb(cfg, spec, clients, test, round_hook=hook)
            else:
                fs.run_centralized(cfg, spec, clients[0], test, round_hook=hook)
        assert api.get_num_threads() == 2
    finally:
        api.set_num_threads(caller)
    assert seen and set(seen) == {1}
    assert evaluated and set(evaluated) == {1}


def test_the_openblas_api_is_looked_up_once_per_process():
    assert blas._openblas() is blas._openblas()


@linux_only
def test_a_split_run_without_the_blas_api_gives_the_serial_bytes(monkeypatch):
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    serial = csv_and_final_weights(four_client_run)
    workers = force_split(monkeypatch)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert csv_and_final_weights(four_client_run) == serial
    assert len(workers) == 1


@linux_only
def test_an_exception_in_the_workers_half_raises_a_contract_error_naming_it(
    monkeypatch, tmp_path, capsys
):
    real_step = StepPlan.step

    def step(self, a, b, *args):
        if any(self.schedules[j].client_index == 3 for j in range(a, b)):
            raise RuntimeError("no step for client 3")
        return real_step(self, a, b, *args)

    monkeypatch.setattr(StepPlan, "step", step)
    workers = force_split(monkeypatch)
    with pytest.raises(fs.ContractError, match="worker raised RuntimeError: no step for client 3"):
        four_client_run()
    assert len(workers) == 1
    assert_no_child_left()
    document = {
        "dataset": {"source": "synthetic", "seed": 5, "n_train": 160, "n_test": 80,
                    "input_dim": 8, "num_classes": 4},
        "model": {"hidden": [16]},
        "partition": {"kind": "iid"},
        "train": {"mode": "fedmmb", "K": 4, "B": 8, "C": 2, "eta": 0.05, "I_max": 4,
                  "eval_every": 1, "seeds": {"init": 1, "shuffle": 2, "partition": 3}},
        "output": {"dir": str(tmp_path / "out"), "name": "run"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert cli_main(["run", str(path)]) == 4
    assert "RuntimeError: no step for client 3" in capsys.readouterr().err
    assert len(workers) == 2


@linux_only
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging run overflows
@pytest.mark.parametrize("fault", ["aggregate", "hook", "interrupt"])
def test_a_split_run_that_raises_leaves_no_process_behind(fault, monkeypatch):
    workers = force_split(monkeypatch)

    def hook(r, w):
        if r == 2 and fault == "hook":
            raise ValueError("hook failed")
        if r == 2 and fault == "interrupt":
            os.kill(os.getpid(), signal.SIGINT)

    expected = {"aggregate": fs.ContractError, "hook": ValueError, "interrupt": KeyboardInterrupt}
    # SIGINT raises KeyboardInterrupt even where this process was started
    # with it ignored, as a shell starts a background job.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(expected[fault]):
            four_client_run(hook, eta=1e300 if fault == "aggregate" else 0.05)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert len(workers) == 1
    assert_no_child_left()


@linux_only
def test_the_worker_ignores_sigint(monkeypatch):
    monkeypatch.setattr(federated, "SPLIT_MIN_STEPS", 10**9)
    serial = csv_and_final_weights(four_client_run)
    workers = force_split(monkeypatch)

    def interrupt_the_worker(hook):
        def round_hook(r, w):
            if r == 2:
                os.kill(workers[0].pid, signal.SIGINT)
            hook(r, w)

        return four_client_run(round_hook)

    assert csv_and_final_weights(interrupt_the_worker) == serial


@linux_only
def test_a_killed_worker_makes_the_run_raise_not_hang(monkeypatch):
    workers = force_split(monkeypatch)

    def kill_the_worker(r, w):
        if r == 2:
            os.kill(workers[0].pid, signal.SIGKILL)

    def too_slow(signum, frame):
        raise TimeoutError("the run hung after its worker was killed")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        with pytest.raises(fs.ContractError, match="training worker"):
            four_client_run(kill_the_worker)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, pytest.param(True, marks=linux_only)],
                         ids=["serial", "split"])
def test_only_a_split_run_loads_the_worker_module_and_no_run_loads_a_pool(split):
    # A serial run (one step a round, below SPLIT_MIN_STEPS) loads neither
    # the worker's module nor mmap; a forced split loads both, and neither
    # run loads a process or thread pool.
    force = "federated.SPLIT_MIN_STEPS = 1\nos.sched_getaffinity = lambda pid: {0, 1}\n"
    child = (
        "import os, sys\n"
        "import fedsim as fs\n"
        "import fedsim.federated as federated\n"
        + (force if split else "")
        + "train, test = fs.synthetic_split(1, 40, 20, 4, 3)\n"
        "cfg = fs.TrainingConfig(mode='fedmmb', learning_rate=0.1, max_rounds=2,"
        " batch_size=10, seeds=fs.Seeds(1, 2, 3), clients=2, batch_count=1)\n"
        "clients = fs.partition_iid(train, 2, 3)\n"
        "fs.run_fedmmb(cfg, fs.NetworkSpec(4, (5,), 3), clients, test)\n"
        "loaded = {'fedsim.split', 'mmap', 'multiprocessing', 'concurrent.futures'}\n"
        "print(sorted(loaded & set(sys.modules)))\n"
    )
    src = str(Path(federated.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ("['fedsim.split', 'mmap']" if split else "[]")


def test_a_noniid_l_run_and_a_manual_partition_load_no_masked_arrays(tmp_path):
    # np.unique's first call in a process imports numpy.ma (about 1.6 MB of
    # RSS); neither partitioner nor the rest of `fedsim run` needs it.
    document = {
        "dataset": {"source": "synthetic", "seed": 5, "n_train": 160, "n_test": 80,
                    "input_dim": 8, "num_classes": 4},
        "model": {"hidden": [16]},
        "partition": {"kind": "noniid_l", "L": 2},
        "train": {"mode": "fedmmb", "K": 4, "B": 8, "C": 1, "eta": 0.05, "I_max": 4,
                  "eval_every": 1, "seeds": {"init": 1, "shuffle": 2, "partition": 3}},
        "output": {"dir": str(tmp_path / "out"), "name": "run"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    child = (
        "import sys\n"
        "import fedsim as fs\n"
        "from fedsim.cli import main\n"
        "assert main(['run', sys.argv[1]]) == 0\n"
        "fs.partition_manual(fs.synthetic(1, 6, 2, 2), {0: [4, 0, 2], 1: [1, 5, 3]})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(federated.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", child, str(path)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("driver", ["run_fedavg", "run_centralized"])
def test_a_driver_rejects_a_config_of_another_mode(driver):
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    with pytest.raises(fs.ConfigError, match=f"^{driver} needs mode"):
        getattr(fs, driver)(cfg, spec, clients if driver == "run_fedavg" else clients[0], test)


@pytest.mark.parametrize("mode", ["fedmmb", "fedavg"])
def test_a_driver_rejects_an_empty_client_list(mode):
    spec, _, test = small_fed_setup()
    knob = {"batch_count": 1} if mode == "fedmmb" else {"local_epochs": 1}
    cfg = fs.TrainingConfig(
        mode=mode, learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS, clients=1,
        **knob,
    )
    driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
    with pytest.raises(fs.ConfigError, match="^at least one client is required$"):
        driver(cfg, spec, [], test)


def test_run_centralized_rejects_a_missing_train_set():
    spec, _, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=1, batch_size=5, seeds=SEEDS,
    )
    with pytest.raises(fs.ConfigError, match="requires a train set"):
        fs.run_centralized(cfg, spec, None, test)


def test_lockstep_rejects_clients_of_different_feature_widths():
    clients = [make_client(20, input_dim=4), make_client(20, input_dim=5)]
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=2, batch_size=10, seeds=SEEDS,
    )
    with pytest.raises(fs.ContractError):
        claims.lockstep_mbgd(cfg, fs.NetworkSpec(4, (6,), 5), clients, lambda r, w: None)


@pytest.mark.parametrize("batch_size, clients", [(10, 3), (10, 0)], ids=["indivisible", "empty"])
def test_lockstep_rejects_a_client_count_that_does_not_divide_the_batch_size(batch_size, clients):
    # Each client's lockstep batch is batch_size / K samples, so K must divide it.
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=2, batch_size=batch_size, seeds=SEEDS,
    )
    lockstep = [make_client(20, seed=j) for j in range(clients)]
    with pytest.raises(fs.ConfigError, match="lockstep"):
        claims.lockstep_mbgd(cfg, fs.NetworkSpec(4, (6,), 5), lockstep, lambda r, w: None)


def test_single_client_full_window_equals_centralized_steps():
    # One client consuming its whole batch list per round walks the exact
    # same batch sequence as a centralized run at the same batch size, so
    # the evaluated metrics coincide at matched cadence.
    train, test = synthetic_split(13, 100, 40, 4, 5)
    spec = fs.NetworkSpec(4, (8,), 5)
    client = [train]
    fed_cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=5, batch_size=10, seeds=SEEDS,
        clients=1, batch_count=10,
    )
    fed_log = fs.run_fedmmb(fed_cfg, spec, client, test)
    cent_cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=50, batch_size=10, seeds=SEEDS,
        eval_every=10,
    )
    cent_log = fs.run_centralized(cent_cfg, spec, train, test)
    assert fed_log.test_losses() == cent_log.test_losses()
    assert [r.test_accuracy for r in fed_log.rows] == [r.test_accuracy for r in cent_log.rows]


def test_fedavg_equals_fedmmb_full_window_run():
    spec, clients, test = small_fed_setup()
    mmb_cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=6, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=4,  # covers T = 20/5 = 4 batches
    )
    avg_cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.05, max_rounds=6, batch_size=5, seeds=SEEDS,
        clients=4, local_epochs=1,
    )
    log_mmb = fs.run_fedmmb(mmb_cfg, spec, clients, test)
    log_avg = fs.run_fedavg(avg_cfg, spec, clients, test)
    assert log_mmb.rows == log_avg.rows


def test_lockstep_single_batch_equals_centralized_union():
    train, _ = synthetic_split(17, 200, 80, 6, 5)
    test = synthetic_split(17, 200, 80, 6, 5)[1]
    clients = fs.partition_iid(train, 4, SEEDS.partition)
    spec = fs.NetworkSpec(6, (10,), 5)
    fed_cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=60, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    cent_cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=60, batch_size=20, seeds=SEEDS,
    )
    fed_weights, cent_weights = [], []
    fs.run_fedmmb(fed_cfg, spec, clients, test, round_hook=lambda r, w: fed_weights.append(w))
    claims.lockstep_mbgd(cent_cfg, spec, clients, lambda r, w: cent_weights.append(w))
    gaps = [np.max(np.abs(a - b)) for a, b in zip(fed_weights, cent_weights)]
    assert len(gaps) == 60
    assert max(gaps) <= 1e-10


def test_free_running_single_batch_concordance_desk_scale():
    train, test = synthetic_split(19, 400, 100, 10, 5)
    clients = fs.partition_iid(train, 4, SEEDS.partition)
    spec = fs.NetworkSpec(10, (16,), 5)
    fed_cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.02, max_rounds=400, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1, eval_every=4,
    )
    cent_cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.02, max_rounds=400, batch_size=20, seeds=SEEDS,
        eval_every=4,
    )
    fed_log = fs.run_fedmmb(fed_cfg, spec, clients, test)
    cent_log = fs.run_centralized(cent_cfg, spec, train, test)
    verdict = fs.discordance(fed_log, cent_log, epsilon=0.01)
    assert verdict.concordant
    assert verdict.delta < 0.01


def test_centralized_full_batch_convex_loss_non_increasing():
    train, test = synthetic_split(23, 200, 100, 6, 4)
    spec = fs.NetworkSpec(6, (), 4)  # softmax regression: convex objective
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.01, max_rounds=80, batch_size=200, seeds=SEEDS,
    )
    log = fs.run_centralized(cfg, spec, train, train)  # loss on the training set itself
    losses = log.test_losses()
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_local_update_counters():
    spec, clients, test = small_fed_setup()  # client size 20
    cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.05, max_rounds=3, batch_size=5, seeds=SEEDS,
        clients=4, local_epochs=2,
    )
    log = fs.run_fedavg(cfg, spec, clients, test)
    # mu_j = I_max * E * ceil(N_j / B) = 3 * 2 * 4 per client, summed over 4 clients.
    assert log.rows[-1].cum_local_updates == 3 * 2 * 4 * 4

    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=6, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    log = fs.run_fedmmb(cfg, spec, clients, test)
    assert log.rows[-1].cum_local_updates == 6 * 4  # one update per client per round


def test_runs_are_deterministic():
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedavg", learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS,
        clients=4, local_epochs=1,
    )
    first = fs.run_fedavg(cfg, spec, clients, test)
    second = fs.run_fedavg(cfg, spec, clients, test)
    assert first.rows == second.rows
    assert first.to_csv_string() == second.to_csv_string()


# --- discordance ------------------------------------------------------------


def make_log(losses, rounds=None) -> fs.MetricsLog:
    log = fs.MetricsLog()
    for i, loss in enumerate(losses):
        log.append(
            fs.MetricsRow(
                round=(rounds[i] if rounds else i + 1),
                test_loss=loss,
                test_accuracy=0.5,
                train_loss=None,
                cum_local_updates=i + 1,
                cum_bytes=0,
            )
        )
    return log


def test_discordance_identical_logs():
    log = make_log([2.0, 1.5, 1.2])
    verdict = fs.discordance(log, log, epsilon=1e-9)
    assert verdict.delta == 0.0
    assert verdict.concordant


def test_discordance_arithmetic():
    a = make_log([1.0, 2.0])
    b = make_log([1.0, 1.0])
    verdict = fs.discordance(a, b, epsilon=0.01)
    assert verdict.delta == 0.5
    assert not verdict.concordant
    assert verdict.rounds_compared == 2


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0])
def test_discordance_rejects_epsilon_that_is_not_finite_and_positive(epsilon):
    log = make_log([0.5, 0.4])
    with pytest.raises(fs.DataError):
        fs.discordance(log, log, epsilon=epsilon)


def test_an_empty_log_has_no_max_accuracy_and_two_empty_logs_no_discordance():
    empty = fs.MetricsLog()
    with pytest.raises(fs.DataError, match="^empty metrics log$"):
        empty.max_accuracy()
    with pytest.raises(fs.DataError, match="^cannot compare empty metrics logs$"):
        fs.discordance(empty, fs.MetricsLog(), epsilon=0.01)


def test_discordance_mismatched_rounds_raise():
    a = make_log([1.0, 2.0])
    b = make_log([1.0, 2.0], rounds=[1, 3])
    with pytest.raises(fs.DataError):
        fs.discordance(a, b, epsilon=0.01)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
def test_discordance_symmetric_and_zero_iff_identical(losses):
    a = make_log(losses)
    shifted = make_log([v + 0.25 for v in losses])
    assert fs.discordance(a, shifted, 1.0).delta == fs.discordance(shifted, a, 1.0).delta
    assert fs.discordance(a, a, 1.0).delta == 0.0
    assert fs.discordance(a, shifted, 1.0).delta > 0.0


# --- communication accounting -----------------------------------------------


def test_comm_cost_formula():
    spec = fs.NetworkSpec(9, (), 10)  # 9*10 + 10 = 100 parameters
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.1, max_rounds=3, batch_size=2, seeds=SEEDS,
        clients=10, batch_count=1,
    )
    assert fs.comm_cost(cfg, spec) == 100 * 8 * 2 * 10


def test_comm_cost_linear_in_clients():
    spec = fs.NetworkSpec(9, (), 10)
    base = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.1, max_rounds=1, batch_size=2, seeds=SEEDS,
        clients=10, batch_count=1,
    )
    doubled = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.1, max_rounds=1, batch_size=2, seeds=SEEDS,
        clients=20, batch_count=1,
    )
    assert fs.comm_cost(doubled, spec) == 2 * fs.comm_cost(base, spec)


def test_comm_cost_centralized_is_zero():
    spec = fs.NetworkSpec(9, (), 10)
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.1, max_rounds=4, batch_size=2, seeds=SEEDS,
    )
    assert fs.comm_cost(cfg, spec) == 0


# --- metrics CSV round-trip -------------------------------------------------


def test_metrics_csv_roundtrip():
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    log = fs.run_fedmmb(cfg, spec, clients, test)
    text = log.to_csv_string()
    parsed = fs.MetricsLog.from_csv_string(text)
    assert parsed.rows == log.rows
    assert text.splitlines()[0] == fs.CSV_HEADER


def test_metrics_csv_rejects_bad_header():
    with pytest.raises(fs.DataError):
        fs.MetricsLog.from_csv_string("round,loss\n1,2.0\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,1e999,0.5,,4,0"], "non-finite loss"),  # a decimal literal that parses as inf
        (["1,0.5,0.5,-1e999,4,0"], "non-finite loss"),
        (["2,0.5,0.5,,4,0", "1,0.5,0.5,,8,0"], "rounds must be strictly increasing"),
        (["1,0.5,0.5,,4"], "^malformed metrics row: '1,0.5,0.5,,4'$"),
    ],
    ids=["inf_test_loss", "minus_inf_train_loss", "falling_rounds", "five_cells"],
)
def test_metrics_csv_rejects_rows_no_run_writes(rows, message):
    with pytest.raises(fs.DataError, match=message):
        fs.MetricsLog.from_csv_string("\n".join([fs.CSV_HEADER, *rows]) + "\n")


def test_metrics_csv_reads_crlf_line_ends():
    # As a git autocrlf checkout writes them.
    spec, clients, test = small_fed_setup()
    cfg = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=4, batch_size=5, seeds=SEEDS,
        clients=4, batch_count=1,
    )
    log = fs.run_fedmmb(cfg, spec, clients, test)
    crlf = log.to_csv_string().replace("\n", "\r\n")
    assert fs.MetricsLog.from_csv_string(crlf).rows == log.rows


@pytest.mark.parametrize(
    "column, cell",
    [
        ("round", "1_0"), ("round", " 1"), ("round", "+1"), ("round", "\u0661"),
        ("cum_bytes", "1_024"), ("cum_local_updates", "4 "), ("test_loss", "0_5"),
        ("test_loss", " 0.5"), ("test_accuracy", "0.7_5"), ("train_loss", "1e1_0"),
        ("train_loss", "Infinity"), ("test_loss", "1\r"),
        pytest.param("cum_bytes", "1" * 5000, id="cum_bytes-past_the_digit_limit"),
    ],
)
def test_metrics_csv_refuses_cells_that_are_not_plain_decimal_literals(column, cell):
    # int() and float() take most of these (1_0 once read as round 10); a
    # 5000-digit integer is a decimal literal past int()'s digit limit.
    row = {"round": "1", "test_loss": "0.5", "test_accuracy": "0.75", "train_loss": "0.25",
           "cum_local_updates": "4", "cum_bytes": "1024"}
    good = fs.CSV_HEADER + "\n" + ",".join(row.values()) + "\n"
    assert fs.MetricsLog.from_csv_string(good).rows[0].round == 1
    with pytest.raises(fs.DataError, match="malformed metrics row"):
        fs.MetricsLog.from_csv_string(good.replace(row[column], cell, 1))
