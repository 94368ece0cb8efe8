from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
import fedsim.data as data
import fedsim.federated as federated
from fedsim.data import draw_windows, synthetic_split
from fedsim.federated import StepPlan
from fedsim.rng import Xoshiro256PP

from helpers import per_client_reference, reference_aggregate


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
    # end on batches of 1, 2 and 1, so steps group clients by batch size and
    # clients with shorter windows sit steps out.
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
    # gradient read before it was written, makes the run diverge.
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
    first_steps = []  # per round: (batch size, members) of each first-step group

    def poisoned_update(plan, round_index, weights):
        plan.stack.fill(np.nan)
        plan.grads.fill(np.nan)
        first_steps.append([])
        return real_update(plan, round_index, weights)

    def recorded_step(plan, members, starts, size, origin=None):
        if origin is not None:
            first_steps[-1].append((size, members))
        real_step(plan, members, starts, size, origin)

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
            # its first step trains two gathered groups from the global weights.
            assert first_steps[1] == [(1, [0]), (4, [1, 2])]


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
    merged = fs.aggregate(stacked, counts)
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
    got = fs.aggregate(stack, counts)
    want = reference_aggregate(stack, counts)
    assert got.tobytes() == want.tobytes()


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
            average(stack, [3] * clients)


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
            fs.run_centralized(cfg, spec, None, test, clients, hook)
    assert hooked == []


@pytest.mark.parametrize("driver", ["fedmmb", "fedavg", "centralized", "lockstep"])
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
        mode=driver if driver in ("fedmmb", "fedavg") else "centralized", learning_rate=0.05,
        max_rounds=3, batch_size=20 if driver == "lockstep" else 5, seeds=SEEDS, **knobs,
    )
    if driver == "fedmmb":
        fs.run_fedmmb(cfg, spec, clients, test)
    elif driver == "fedavg":
        fs.run_fedavg(cfg, spec, clients, test)
    elif driver == "centralized":
        fs.run_centralized(cfg, spec, clients[0], test)
    else:
        fs.run_centralized(cfg, spec, None, test, clients)  # 4 clients, batches of 5
    assert calls == ["init_weights"] + ["client_update_mmb", "aggregate"] * cfg.max_rounds


def test_lockstep_rejects_clients_of_different_feature_widths():
    clients = [make_client(20, input_dim=4), make_client(20, input_dim=5)]
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=2, batch_size=10, seeds=SEEDS,
    )
    with pytest.raises(fs.ContractError):
        fs.run_centralized(cfg, fs.NetworkSpec(4, (6,), 5), None, make_client(10), clients)


@pytest.mark.parametrize("batch_size, clients", [(10, 3), (10, 0)], ids=["indivisible", "empty"])
def test_lockstep_rejects_a_client_count_that_does_not_divide_the_batch_size(batch_size, clients):
    # Each client's lockstep batch is batch_size / K samples, so K must divide it.
    cfg = fs.TrainingConfig(
        mode="centralized", learning_rate=0.05, max_rounds=2, batch_size=batch_size, seeds=SEEDS,
    )
    lockstep = [make_client(20, seed=j) for j in range(clients)]
    with pytest.raises(fs.ConfigError, match="lockstep"):
        fs.run_centralized(cfg, fs.NetworkSpec(4, (6,), 5), None, make_client(10), lockstep)


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
    fs.run_centralized(
        cent_cfg, spec, None, test,
        lockstep=clients,
        round_hook=lambda r, w: cent_weights.append(w),
    )
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
