"""The round loop and the three training drivers.

Every driver runs the same round loop: each round, every client's
batch schedule trains from the global weights, all clients stacked along a
leading axis in one batched computation. The round's first step reads the
global weights in place, broadcast across the clients, and writes its
result into the stack; later steps train in the stack. The stack's rows
are combined by sample-weighted averaging in ascending client order into
a new array, with rows 1.. of the stack as the sum's scratch; that is safe
because nothing reads the stack again before the next round's first
step, which writes every row. The model is evaluated on a fixed cadence,
and the round hook sees the new weights. An evaluation of a large test
set runs on one worker thread while the next rounds train; it reads the
aggregated weights, which nothing writes again, so its numbers are those
of an inline evaluation. The round hook may run before its round's
evaluation ends, so it must not write the weights it is given. A run
with long rounds trains half its clients in a forked worker process
(``_splits``, ``fedsim.split``); a client's arithmetic does not depend on
which clients share its stack, so the bits are those of one process.
The drivers differ only in the schedules they pass. ``run_fedmmb`` gives
each client a sliding window of ``batch_count`` batches per round (batch
count 1 is the single-mini-batch special case). ``run_fedavg`` gives each
client ``local_epochs`` windows that each cover its whole batch list.
``run_centralized`` is the one-client case: one schedule over the whole
train set, or a lockstep source that concatenates the single batches of
shadow clients, with zero bytes exchanged. Clients are a list of
``Dataset``s; client ``j`` is the one at position ``j``.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .data import BatchSchedule, Dataset, draw_windows
from .errors import ConfigError, ContractError
from .metrics import MetricsLog, MetricsRow, comm_cost
from .nn import (
    NetworkSpec,
    _descend,
    _gradients_into,
    _require_data,
    evaluate,
    init_weights,
    layer_views,
)

MODES = ("fedmmb", "fedavg", "centralized")

# ``round_hook(r, w)`` runs after round ``r`` with its aggregated weights. It
# may run before round ``r``'s evaluation ends, which may still be reading
# ``w``, so it must not write ``w``.
RoundHook = Callable[[int, np.ndarray], None]

# An evaluation whose first-layer product, test rows x input width x first
# hidden width, has at least this many multiply-adds runs on a worker thread
# while training goes on; a smaller one runs inline. Small evaluations hold
# the GIL in short numpy calls and stall the training thread more than they
# save. Measured on 2 vCPUs at one BLAS thread, a 784-32-32-10 network,
# 10 clients of batch 5 plus a centralized arm, 600 rounds, an evaluation
# every 10; the run's time with the worker over its time inline, median of
# 6 or 10 alternating pairs: 1.3M multiply-adds 1.13, 3.8M 1.09 and 0.98,
# 6.3M 0.98 and 1.04, 8.4M 0.98 and 0.97, 10.0M 1.00, 12.5M 0.95, 15.1M
# 0.97, 16.8M 0.92, 25.1M 0.89 (6 of 6 pairs won). The rule sends the
# image-shaped runs (25.1M) to the worker and the 20-d ones (at most 0.64M)
# inline.
EVAL_ASIDE_MACS = 2**23

# A run whose rounds take at least this many stacked steps (the most batches
# any client takes in a round) trains half its clients in a worker process,
# on Linux with two CPUs or more and no other thread (``_splits``); shorter
# rounds do not pay for the round trip. Measured on 2 vCPUs at one BLAS
# thread, 10 clients of a 784-32-32-10 network at batch 5 and of a
# 20-32-32-10 one at batch 10; the median round split over serial, 6 or 10
# alternating pairs: 1 step 0.97 (784-d) and 0.99 (20-d), both mixed; 2
# steps 0.76, 20-d 1.03 (3 of 6 won) and 0.90; 3 steps 0.71, 20-d 0.95 and
# 0.85 (8 of 10); 4 steps 0.64, 20-d 0.91 and 0.94; 6 steps 0.61 and 0.79;
# 20 steps 0.55 and 0.74 (6 of 6 won). The rule splits the 20-step rounds
# of the A5 and A6 arms and keeps the 1-step image-shaped concordance runs
# serial.
SPLIT_MIN_STEPS = 3


@dataclass(frozen=True)
class Seeds:
    """The three independent seed roots of a run, each in [0, 2**64).

    The streams take seeds modulo 2**64: -1 would repeat 2**64 - 1's run.
    """

    init: int
    shuffle: int
    partition: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not 0 <= value < 1 << 64:
                raise ConfigError(f"seed {name} must lie in [0, 2**64), got {value}")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for one training run.

    ``batch_size`` is the client batch size for federated modes and the
    plain mini-batch size for centralized runs. Exactly the mode-relevant
    knobs may be set: ``batch_count`` for fedmmb, ``local_epochs`` for
    fedavg, and ``clients`` for the two federated modes.
    """

    mode: str
    learning_rate: float
    max_rounds: int
    batch_size: int
    seeds: Seeds
    eval_every: int = 1
    clients: int | None = None
    batch_count: int | None = None
    local_epochs: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be at least 1")
        if self.clients is not None and self.clients < 1:
            raise ConfigError("clients must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.eval_every < 1 or self.max_rounds % self.eval_every != 0:
            raise ConfigError("eval_every must be >= 1 and divide max_rounds")
        if self.mode == "fedmmb":
            self._require(batch_count=True, local_epochs=False, clients=True)
            if self.batch_count is not None and self.batch_count < 1:
                raise ConfigError("batch_count must be at least 1")
        elif self.mode == "fedavg":
            self._require(batch_count=False, local_epochs=True, clients=True)
            if self.local_epochs is not None and self.local_epochs < 1:
                raise ConfigError("local_epochs must be at least 1")
        else:
            self._require(batch_count=False, local_epochs=False, clients=False)

    def _require(self, *, batch_count: bool, local_epochs: bool, clients: bool) -> None:
        checks = (
            ("batch_count", self.batch_count, batch_count),
            ("local_epochs", self.local_epochs, local_epochs),
            ("clients", self.clients, clients),
        )
        for name, value, wanted in checks:
            if wanted and value is None:
                raise ConfigError(f"mode {self.mode!r} requires {name}")
            if not wanted and value is not None:
                raise ConfigError(f"mode {self.mode!r} does not accept {name}")


class StepPlan:
    """A run's local training: its schedules, hyperparameters and buffers, built once.

    It holds the client stack (``[K, parameter_count]``, client ``j`` of
    ``schedules`` in row ``j``; ``stack`` if given, else a new array), one
    gradient buffer of the same shape, the layer views of both, and gather
    buffers for a round's window rows: their features, and their labels as
    one-hot float64 targets (``[K, n, classes]``), built once per round by
    ``gather``. Only the steps after a round's first use the gradient
    buffer; a first step of every client together backpropagates into the
    stack itself. Each round takes ``windows`` batch windows of every
    schedule at learning rate ``eta``. Building it checks ``windows``,
    ``eta`` and each schedule's source against the spec (feature width,
    label range), so no round or step checks them again.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        schedules: list,
        windows: int,
        eta: float,
        stack: np.ndarray | None = None,
    ):
        if windows < 1:
            raise ContractError("a client update needs at least one window")
        if not (math.isfinite(eta) and eta >= 0):
            raise ContractError(f"learning rate must be finite and non-negative, got {eta}")
        for schedule in schedules:
            _require_data(spec, schedule.source.features, schedule.source.labels)
        self.spec = spec
        self.schedules = tuple(schedules)
        self.windows = windows
        self.eta = eta
        k = len(schedules)
        self.stack = np.empty((k, spec.parameter_count)) if stack is None else stack
        self.grads = np.empty_like(self.stack)
        self.layers = layer_views(spec, self.stack)
        self.grad_layers = layer_views(spec, self.grads)
        self._x = np.empty((k, 0, spec.input_dim))
        self._targets = np.empty((k, 0, spec.output_dim))
        self._one_hot = np.eye(spec.output_dim)

    def gather(self, rows: list[np.ndarray]) -> None:
        """Copy rows ``rows[j]`` of schedule ``j``'s source to the front of its gather buffers.

        The features are copied as they are; each label becomes its one-hot
        float64 target row, so a round builds all its targets here once and
        no step picks labels. Only each client's own ``rows[j].size`` rows
        are written, and no step reads past them.
        """
        n = max(r.size for r in rows)
        if self._x.shape[1] < n:
            self._x = np.empty((len(rows), n, self.spec.input_dim))
            self._targets = np.empty((len(rows), n, self.spec.output_dim))
        for j, (schedule, r) in enumerate(zip(self.schedules, rows)):
            # The rows come from a permutation of this schedule's source, and
            # its labels index the outputs, so both takes are in range;
            # "clip" lets ``take`` write into ``out`` without a buffer.
            source = schedule.source
            source.features.take(r, axis=0, out=self._x[j, : r.size], mode="clip")
            self._one_hot.take(
                source.labels[r], axis=0, out=self._targets[j, : r.size], mode="clip"
            )

    def step(
        self,
        members: list[int],
        starts: list[int],
        size: int,
        origin: tuple[np.ndarray, list] | None = None,
    ) -> None:
        """One SGD step of clients ``members`` on batches of ``size`` gathered rows.

        Member ``i``'s batch starts at row ``starts[i]`` of its gather
        buffers. The members train from their rows of the stack or, on a
        round's first step, from ``origin``: the global weights and their
        ``layer_views`` with a leading axis of 1, read in place. When the
        group is every client at a common offset, it trains on views of the
        gather buffers, its gradients in the gradient buffer or, on the first
        step, in the stack itself. Any other group's rows are copied out,
        and its new parameters written to its rows of the stack.
        """
        o = starts[0]
        if len(members) == len(self.schedules) and starts.count(o) == len(starts):
            x, t = self._x[:, o : o + size], self._targets[:, o : o + size]
            if origin is None:
                _gradients_into(self.layers, self.grad_layers, x, t)
                _descend(self.stack, self.grads, self.eta, out=self.stack)
            else:
                _gradients_into(origin[1], self.layers, x, t)
                _descend(origin[0], self.stack, self.eta, out=self.stack)
            return
        picks = (np.array(members)[:, None], np.add.outer(starts, np.arange(size)))
        if origin is None:
            params = self.stack[members]
            layers = layer_views(self.spec, params)
        else:
            params, layers = origin
        grads = np.empty((len(members), self.spec.parameter_count))
        _gradients_into(layers, layer_views(self.spec, grads), self._x[picks], self._targets[picks])
        self.stack[members] = _descend(params, grads, self.eta, out=grads)


def client_update_mmb(
    plan: StepPlan, round_index: int, global_weights: np.ndarray
) -> tuple[list[int], list[int]]:
    """Every client's local training for round ``round_index``, in the plan's stack.

    Each client starts from the global weights and takes one SGD
    step per batch of this round's ``plan.windows`` batch windows, in
    order: round ``i`` takes windows ``i * windows`` to
    ``i * windows + windows - 1`` of each schedule. A window is a pure
    function of its index, so the round reads no state that earlier rounds
    left behind. A whole-list schedule (one window per sweep) therefore
    runs ``windows`` local epochs, epoch k of round i on permutation
    ``i * windows + k`` of the client's seed stream.

    Client ``j`` trains in row ``j`` of ``plan.stack``. The first step
    reads the global weights in place, through one set of layer views with
    a leading axis of 1 that broadcasts across the clients, and writes
    ``W - eta * g`` into every client's row. Nothing copies the weights
    into the stack, and no step reads a row before the first step has
    written it. The global weights therefore must not share memory with
    the stack (``ContractError``): the first step writes the stack while
    it still reads them. Each window index of the round is drawn for every
    client at once (``draw_windows``: one permutation draw per source size
    for all the clients that start a sweep), and the round's rows of each
    client, with their one-hot targets, are copied out of its source once.
    At step ``s`` the clients whose batch ``s`` has the same size train
    together, one gradient computation for the group, members in ascending
    order; a client whose windows have no batch ``s`` sits the step out.
    The clients are grouped once per round, by their list of batch sizes,
    and each step merges the groups whose batch ``s`` has one size, so equal
    clients make one group and no step loops over them. Returns every
    client's sample count and step count, in row order.
    """
    if np.shares_memory(global_weights, plan.stack):
        raise ContractError("the global weights must not share memory with the client stack")
    origin = (global_weights, layer_views(plan.spec, global_weights[None]))
    first = round_index * plan.windows
    windows = [draw_windows(plan.schedules, first + e) for e in range(plan.windows)]
    rows, sizes = [], []
    for parts in zip(*windows):
        rows.append(parts[0][0] if len(parts) == 1 else np.concatenate([r for r, _ in parts]))
        sizes.append(sum((zs for _, zs in parts), ()))
    plan.gather(rows)
    # Clients with the same batch sizes step together all round, at the same
    # offsets. A group's members ascend, and groups go by their first member.
    by_sizes: dict[tuple[int, ...], list[int]] = {}
    for j, batches in enumerate(sizes):
        by_sizes.setdefault(batches, []).append(j)
    groups = [(z, list(accumulate(z, initial=0)), members) for z, members in by_sizes.items()]
    for s in range(max(map(len, by_sizes))):
        # The groups whose batch s has one size take that step as one group.
        merged: dict[int, list[tuple[int, list[int]]]] = {}
        for batches, offsets, members in groups:
            if s < len(batches):
                merged.setdefault(batches[s], []).append((offsets[s], members))
        for size, parts in merged.items():
            if len(parts) == 1:
                [(start, members)] = parts
                starts = [start] * len(members)
            else:
                picks = sorted((j, start) for start, members in parts for j in members)
                members, starts = [j for j, _ in picks], [o for _, o in picks]
            plan.step(members, starts, size, origin if s == 0 else None)
    return [r.size for r in rows], [len(z) for z in sizes]


def aggregate(stack: np.ndarray, samples: list[int]) -> np.ndarray:
    """Sample-weighted average of the rows of a client stack, using rows 1.. as scratch.

    Row ``j`` holds client ``j``'s local weights, trained on ``samples[j]``
    samples. Accumulation runs in row order, anchored at row 0
    (``W_0 + sum n_j (W_j - W_0) / sum n_j``), which is algebraically the
    plain weighted average but keeps the all-identical case exact and the
    result well inside the clients' coordinate range. A single row comes
    back unchanged (save that -0.0 becomes +0.0), which makes centralized
    training the one-client round. The result is a new array on every call.

    Row 0 is never written; rows 1.. are overwritten with their terms
    ``n_j (W_j - W_0)``, so a caller that needs its rows afterwards passes a
    copy. The sum starts as row 1's term in the result's own array, and each
    later term is added to it in row order. Row 0's term,
    ``n_0 (W_0 - W_0)``, is +0.0 for a finite anchor and is left out. That
    gives every element the roundings of a sum that starts at +0.0: the
    first term differs from ``+0.0 + term`` only when it is -0.0, which
    needs an anchor of +0.0, and adding the anchor back then gives +0.0
    either way. A non-finite anchor still makes the result non-finite.
    """
    if len(stack) == 0 or len(samples) != len(stack) or min(samples) < 1:
        raise ContractError("aggregate needs a non-empty stack and a positive count per row")
    anchor = stack[0]
    if len(stack) == 1:
        acc = anchor + 0.0
    else:
        acc = np.subtract(stack[1], anchor)
        acc *= float(samples[1])
        for term, n in zip(stack[2:], samples[2:]):
            np.subtract(term, anchor, out=term)
            term *= float(n)
            acc += term
        acc /= sum(samples)
        acc += anchor
    if not np.isfinite(acc).all():
        raise ContractError("aggregated weights are non-finite; training diverged")
    return acc


def _run_rounds(
    config: TrainingConfig,
    spec: NetworkSpec,
    schedules: list,
    windows: int,
    test_set: Dataset,
    round_hook: RoundHook | None,
) -> MetricsLog:
    """The one round loop: every schedule's client update, aggregate, evaluate, hook.

    ``schedules`` holds one batch source per client, in ascending client
    order; each needs a ``source`` dataset and a ``window_rows`` method.
    The test set is checked against the spec here, before the first round.
    The clients train in one stack, built here, once per run, before the
    first round; ``aggregate`` returns a new array, so the weights the hook
    sees never alias the stack. ``aggregate`` overwrites rows 1.. of the
    stack. Nothing reads them afterwards: the next round's first step reads
    only the global weights and writes every row before any later step
    reads one.

    When the rounds are long (``_splits``), clients ``K // 2 ..`` train in
    a worker process (``split.Worker``) while this one trains the rest, each
    half on its own step plan over its rows of a shared stack; every
    client's arithmetic is that of a serial round. The worker is forked
    before the first round, and before the evaluation thread starts, and
    is reaped when this call returns or raises.

    When the test set is large (``EVAL_ASIDE_MACS``), each evaluation runs
    on one worker thread, at most one at a time, and its row is logged at
    the next evaluation round or at the end of the run; rows stay in round
    order, and an evaluation that raises raises there. The hook may
    therefore run before its round's evaluation ends: it must not write
    the weights it is given. The thread lives only inside this call.
    """
    _require_data(spec, test_set.features, test_set.labels)
    aside = _evaluates_aside(spec, test_set)
    eta = config.learning_rate
    worker_round = None  # the worker's half of a round, in a run that splits
    if _splits(schedules, windows):
        # Only a run that splits loads the worker's module, and mmap with it.
        from .split import Worker, shared_stack

        h = len(schedules) // 2
        stack, shared_weights = shared_stack(len(schedules), spec.parameter_count)
        plan = StepPlan(spec, schedules[:h], windows, eta, stack[:h])
        rest = StepPlan(spec, schedules[h:], windows, eta, stack[h:])

        def worker_round(i: int) -> tuple[list[int], list[int]]:
            return client_update_mmb(rest, i, shared_weights)

    else:
        plan = StepPlan(spec, schedules, windows, eta)
        stack = plan.stack
    weights = init_weights(spec, config.seeds.init)
    bytes_per_round = comm_cost(config, spec)
    log = MetricsLog()
    local_updates = 0
    pending = None  # the evaluation on the worker thread: its row's counts and its future
    # The fork comes last before the first round, and before the thread starts.
    with (
        Worker(worker_round, shared_weights) if worker_round else nullcontext() as worker,
        _thread() if aside else nullcontext() as pool,
    ):
        for i in range(config.max_rounds):
            if worker is not None:
                worker.start(i, weights)
            samples, steps = client_update_mmb(plan, i, weights)
            if worker is not None:
                more_samples, more_steps = worker.finish(i)
                samples, steps = samples + more_samples, steps + more_steps
            local_updates += sum(steps)
            weights = aggregate(stack, samples)
            if (i + 1) % config.eval_every == 0:
                counts = (i + 1, local_updates, (i + 1) * bytes_per_round)
                if aside:
                    _log_pending(log, pending)
                    pending = (counts, pool.submit(evaluate, spec, weights, test_set))
                else:
                    log.append(_metrics_row(*counts, *evaluate(spec, weights, test_set)))
            if round_hook is not None:
                round_hook(i + 1, weights)
        _log_pending(log, pending)
    return log


def _splits(schedules: list, windows: int) -> bool:
    """Whether a run trains half its clients in a worker process.

    It does on Linux, with at least two CPUs to run on, at least two
    clients, and rounds of at least ``SPLIT_MIN_STEPS`` stacked steps: the
    most batches any client takes in a round. A process that runs other
    threads does not fork: the worker would hold copies of locks that only
    those threads could release.
    """
    return (
        sys.platform == "linux"
        and len(schedules) >= 2
        and windows * max(min(s.batch_count, s.num_batches) for s in schedules) >= SPLIT_MIN_STEPS
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _evaluates_aside(spec: NetworkSpec, test_set: Dataset) -> bool:
    """Whether the round loop evaluates on ``test_set`` on its worker thread."""
    return test_set.n * spec.input_dim * spec.layer_dims[0][1] >= EVAL_ASIDE_MACS


def _thread() -> AbstractContextManager:
    """An executor with one worker thread, which its ``with`` block joins on exit.

    ``concurrent.futures`` is imported only for a run that uses it: its
    import (``logging`` with it) adds about 0.6 MB to a process's peak RSS.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def _log_pending(log: MetricsLog, pending) -> None:
    """Log the row of the evaluation on the worker thread, if any, once it has finished."""
    if pending is not None:
        counts, evaluation = pending
        log.append(_metrics_row(*counts, *evaluation.result()))


def _metrics_row(
    round_number: int, local_updates: int, cum_bytes: int, loss: float, accuracy: float
) -> MetricsRow:
    return MetricsRow(
        round=round_number,
        test_loss=loss,
        test_accuracy=accuracy,
        train_loss=None,
        cum_local_updates=local_updates,
        cum_bytes=cum_bytes,
    )


def run_fedmmb(
    config: TrainingConfig,
    spec: NetworkSpec,
    clients: list[Dataset],
    test_set: Dataset,
    round_hook: RoundHook | None = None,
) -> MetricsLog:
    """Federated training on a window of ``batch_count`` batches per round.

    All clients participate every round. ``batch_count=1`` trains each
    client on a single mini-batch per round. ``round_hook`` must not write
    the weights it is given (``RoundHook``).
    """
    if config.mode != "fedmmb":
        raise ConfigError(f"run_fedmmb needs mode 'fedmmb', got {config.mode!r}")
    assert config.batch_count is not None
    _check_clients(config, clients)
    schedules = [
        BatchSchedule(c, config.batch_size, config.batch_count, config.seeds.shuffle, j)
        for j, c in enumerate(clients)
    ]
    return _run_rounds(config, spec, schedules, 1, test_set, round_hook)


def run_fedavg(
    config: TrainingConfig,
    spec: NetworkSpec,
    clients: list[Dataset],
    test_set: Dataset,
    round_hook: RoundHook | None = None,
) -> MetricsLog:
    """Federated averaging: every client runs ``local_epochs`` epochs per round.

    An epoch is one window of a schedule whose window covers the client's
    whole batch list (``batch_count = ceil(N_j / B)``). ``round_hook``
    must not write the weights it is given (``RoundHook``).
    """
    if config.mode != "fedavg":
        raise ConfigError(f"run_fedavg needs mode 'fedavg', got {config.mode!r}")
    assert config.local_epochs is not None
    _check_clients(config, clients)
    b = config.batch_size
    schedules = [
        BatchSchedule(c, b, -(-c.n // b), config.seeds.shuffle, j) for j, c in enumerate(clients)
    ]
    return _run_rounds(config, spec, schedules, config.local_epochs, test_set, round_hook)


def _check_clients(config: TrainingConfig, clients: list[Dataset]) -> None:
    if not clients:
        raise ConfigError("at least one client is required")
    if config.clients != len(clients):
        raise ConfigError(f"config names {config.clients} clients but {len(clients)} were given")


@dataclass
class _LockstepSchedule:
    """A one-client batch source whose window ``i`` is the lockstep batch of round ``i``.

    Its source is the shadows' sources, concatenated once; window ``i`` is
    one batch of every shadow's rows of its window ``i``, in shadow order.
    """

    shadows: list[BatchSchedule]
    source: Dataset = field(init=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sources = [s.source for s in self.shadows]
        if len({d.input_dim for d in sources}) != 1:
            raise ContractError("lockstep clients must share one feature width")
        self.source = Dataset(
            np.concatenate([d.features for d in sources]),
            np.concatenate([d.labels for d in sources]),
            max(d.num_classes for d in sources),
        )
        self._offsets = np.cumsum([0] + [d.n for d in sources[:-1]])

    def window_rows(self, index: int) -> tuple[np.ndarray, tuple[int, ...]]:
        parts = draw_windows(self.shadows, index)
        rows = np.concatenate([r + o for (r, _), o in zip(parts, self._offsets)])
        return rows, (rows.size,)


def run_centralized(
    config: TrainingConfig,
    spec: NetworkSpec,
    train_set: Dataset | None,
    test_set: Dataset,
    lockstep: list[Dataset] | None = None,
    round_hook: RoundHook | None = None,
) -> MetricsLog:
    """Single-site mini-batch gradient descent, one update per iteration.

    This is the round loop with one client, one single-batch window per
    round and no traffic; aggregating a single row returns its weights.
    In the default (free-running) mode the train set is shuffled and split
    into batches of ``config.batch_size``, consumed one per iteration, on a
    fresh permutation each sweep. With ``lockstep``, a non-empty list of K
    clients, ``train_set`` is ignored and iteration ``i`` trains on the
    concatenation, in client order, of the batches of
    ``config.batch_size / K`` samples that batch-count-1 federated clients
    take in round ``i``: a test-only oracle for exact federated/centralized
    comparisons. K must divide the batch size (``ConfigError``).
    ``round_hook`` must not write the weights it is given (``RoundHook``).
    """
    if config.mode != "centralized":
        raise ConfigError(f"run_centralized needs mode 'centralized', got {config.mode!r}")
    if lockstep is not None:
        k = len(lockstep)
        if k == 0 or config.batch_size % k:
            raise ConfigError(
                f"lockstep needs a client count that divides batch size {config.batch_size},"
                f" got {k}"
            )
        shadows = [
            BatchSchedule(c, config.batch_size // k, 1, config.seeds.shuffle, j)
            for j, c in enumerate(lockstep)
        ]
        schedule = _LockstepSchedule(shadows)
    elif train_set is None:
        raise ConfigError("centralized training requires a train set")
    else:
        schedule = BatchSchedule(train_set, config.batch_size, 1, config.seeds.shuffle, 0)
    return _run_rounds(config, spec, [schedule], 1, test_set, round_hook)

