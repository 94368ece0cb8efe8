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
and the round hook sees the new weights; it may write them, and the next
round starts from what it wrote. A run with long rounds or a large test
set forks one worker process (``_run_rounds``, ``fedsim.split``), which
evaluates aside and trains half the clients of the run's one ``StepPlan``
in the rounds between; the bits are those of one process.
The drivers differ only in the schedules they pass. ``run_fedmmb`` gives
each client a sliding window of ``batch_count`` batches per round (batch
count 1 is the single-mini-batch special case). ``run_fedavg`` gives each
client ``local_epochs`` windows that each cover its whole batch list.
``run_centralized`` is the one-client case: one schedule over the whole
train set, or a lockstep source that concatenates the single batches of
shadow clients, with zero bytes exchanged. Clients are a list of
``Dataset``s or ``DatasetView``s; client ``j`` is the one at position
``j``. Each round's rows are copied straight from the array that holds
them (``data.base_rows``), so a view's features are never copied whole.
Every run trains at one BLAS thread (``blas.one_blas_thread``), whatever
the caller's count, so its bits do not depend on it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .blas import blas_holds_one_thread, one_blas_thread
from .data import BatchSchedule, Dataset, base_rows, draw_windows
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
# may write ``w``; round ``r + 1`` starts from what it wrote.
RoundHook = Callable[[int, np.ndarray], None]

# An evaluation whose first-layer product, test rows x input width x first
# hidden width, has at least this many multiply-adds runs in the worker
# process while training goes on (``_run_rounds``); a smaller one, or one
# in a run that cannot fork, runs inline. The series was taken when such
# evaluations ran on a thread, where small ones held the GIL and stalled
# training more than they saved: on 2 vCPUs at one BLAS thread, 784-32-32-10,
# 10 clients of batch 5 plus a centralized arm, 600 rounds, an evaluation
# every 10, the run's time with the thread over its time inline, median of
# 6 or 10 alternating pairs: 1.3M multiply-adds 1.13, 3.8M 1.09 and 0.98,
# 6.3M 0.98 and 1.04, 8.4M 0.98 and 0.97, 10.0M 1.00, 12.5M 0.95, 15.1M
# 0.97, 16.8M 0.92, 25.1M 0.89 (6 of 6 won). The rule sends the
# image-shaped runs (25.1M) aside and keeps the 20-d ones (at most 0.64M)
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
# of the A5 and A6 arms. A run that evaluates aside forks anyway, and then
# splits every round where its worker is not evaluating, however short.
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
    gradient buffer of the same shape, and gather buffers for a round's
    window rows: their features, and their labels as one-hot float64
    targets (``[K, n, classes]``), built once per round by ``gather``. A
    round trains a range of the clients, all by default (a split run's two
    processes train two ranges of one plan), and each ``step`` a
    contiguous range of them on views of their rows. Only the steps after
    a round's first use the gradient buffer; a first step backpropagates
    into the stack itself. Each round takes ``windows`` batch windows of
    every schedule at learning rate ``eta``. Building it checks
    ``windows``, ``eta`` and each schedule's source against the spec
    (feature width, label range), so no round or step checks them again,
    and finds the array that holds each source's rows (``base_rows``).
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
            _require_data(spec, schedule.source.input_dim, schedule.source.labels)
        self._bases = [base_rows(schedule.source) for schedule in schedules]
        self.spec = spec
        self.schedules = tuple(schedules)
        self.windows = windows
        self.eta = eta
        k = len(schedules)
        self.stack = np.empty((k, spec.parameter_count)) if stack is None else stack
        self.grads = np.empty_like(self.stack)
        # The layer views of the stack's and the gradients' rows a..b-1, per
        # client range (a, b) that a step has trained.
        self._views: dict[tuple[int, int], tuple[list, list]] = {}
        self._x = np.empty((k, 0, spec.input_dim))
        self._targets = np.empty((k, 0, spec.output_dim))
        self._one_hot = np.eye(spec.output_dim)
        # The round gathered and not yet trained (``prepare_round``): its index,
        # clients and step ranges, and each client's sample and step count.
        self.prepared: tuple[int, range, list, list[int], list[int]] | None = None

    def gather(self, rows: list[np.ndarray], first: int = 0) -> None:
        """Copy ``rows[j]`` of client ``first + j``'s source to the front of its gather buffers.

        The features are copied as they are, from the array that holds them:
        a view's rows are first mapped to rows of its base, with one
        ``take``. Each label becomes its one-hot float64 target row, so a
        round builds all its targets here once and no step picks labels.
        Only each client's own ``rows[j].size`` rows are written, and no
        step reads past them.
        """
        n = max(r.size for r in rows)
        if self._x.shape[1] < n:
            self._x = np.empty((len(self.schedules), n, self.spec.input_dim))
            self._targets = np.empty((len(self.schedules), n, self.spec.output_dim))
        for j, (schedule, (features, index), r) in enumerate(
            zip(self.schedules[first:], self._bases[first:], rows), first
        ):
            # The rows come from a permutation of this schedule's source, and
            # its labels index the outputs, so both takes are in range;
            # "clip" lets ``take`` write into ``out`` without a buffer.
            features.take(
                r if index is None else index.take(r), axis=0, out=self._x[j, : r.size],
                mode="clip",
            )
            self._one_hot.take(
                schedule.source.labels[r], axis=0, out=self._targets[j, : r.size], mode="clip"
            )

    def step(
        self,
        a: int,
        b: int,
        offset: int,
        size: int,
        origin: tuple[np.ndarray, list] | None = None,
    ) -> None:
        """One SGD step of clients ``a..b-1`` on gathered rows ``offset..offset+size-1``.

        The clients train on views of their gather buffers, from their rows
        of the stack or, on a round's first step, from ``origin``: the
        global weights and their ``layer_views`` with a leading axis of 1,
        read in place. Their gradients go to their rows of the gradient
        buffer or, on the first step, of the stack itself, and the new
        parameters to their rows of the stack. A range takes the layer
        views of its rows on its first step and keeps them.
        """
        params, grads = self.stack[a:b], self.grads[a:b]
        if (a, b) not in self._views:
            self._views[a, b] = layer_views(self.spec, params), layer_views(self.spec, grads)
        layers, grad_layers = self._views[a, b]
        x, t = self._x[a:b, offset : offset + size], self._targets[a:b, offset : offset + size]
        if origin is None:
            _gradients_into(layers, grad_layers, x, t)
            _descend(params, grads, self.eta, out=params)
        else:
            _gradients_into(origin[1], layers, x, t)
            _descend(origin[0], params, self.eta, out=params)


def prepare_round(plan: StepPlan, round_index: int, clients: range) -> None:
    """The first half of round ``round_index`` of ``clients``: their rows and step ranges.

    Round ``i`` takes windows ``i * windows`` to ``i * windows + windows - 1``
    of each schedule. Each window index of the round is drawn for all the
    clients at once (``draw_windows``: one permutation draw per source size
    for all the clients that start a sweep), and the round's rows of each
    client, with their one-hot targets, are copied out of its source once
    (``StepPlan.gather``). The clients are cut into runs of neighbours with
    one list of batch sizes. At step ``s``, neighbouring runs whose batch
    ``s`` has one offset and size join one range, and each range is one
    ``plan.step``; a client whose windows have no batch ``s`` sits the step
    out. Equal clients make one range, so no step loops over them. Clients
    of two sizes in alternation take one range each at a step where their
    batches differ, or that some of them sit out.

    A window is a pure function of its index, so the round reads no state
    that earlier rounds left behind, and it may be prepared at any time
    after the plan's last round has trained: a split run's worker prepares
    its range of the next round while the driver aggregates. The prepared
    round is kept in ``plan.prepared``, with its index and range, until
    ``client_update_mmb`` trains it; preparing another replaces it.
    """
    schedules = plan.schedules[clients.start : clients.stop]
    first = round_index * plan.windows
    windows = [draw_windows(schedules, first + e) for e in range(plan.windows)]
    rows, sizes = [], []
    for parts in zip(*windows):
        rows.append(parts[0][0] if len(parts) == 1 else np.concatenate([r for r, _ in parts]))
        sizes.append(sum((zs for _, zs in parts), ()))
    plan.gather(rows, clients.start)
    # Runs of consecutive clients with one list of batch sizes this round:
    # [first client, end, batch sizes, batch offsets].
    runs: list[list] = []
    for j, batches in enumerate(sizes, clients.start):
        if runs and runs[-1][2] == batches:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1, batches, list(accumulate(batches, initial=0))])
    steps: list[list[list[int]]] = []  # per step: its ranges [a, b, offset, size]
    for s in range(max(map(len, sizes))):
        # Neighbouring runs whose batch s has one offset and size join one range.
        ranges: list[list[int]] = []
        for a, b, batches, offsets in runs:
            if s < len(batches):
                if ranges and ranges[-1][1:] == [a, offsets[s], batches[s]]:
                    ranges[-1][1] = b
                else:
                    ranges.append([a, b, offsets[s], batches[s]])
        steps.append(ranges)
    plan.prepared = (round_index, clients, steps, [r.size for r in rows], [len(z) for z in sizes])


def client_update_mmb(
    plan: StepPlan, round_index: int, global_weights: np.ndarray, clients: range | None = None
) -> tuple[list[int], list[int]]:
    """The local training of ``clients`` (every client by default) for round ``round_index``.

    Each client starts from the global weights and takes one SGD step per
    batch of this round's ``plan.windows`` batch windows, in order
    (``prepare_round``, which runs first unless ``plan.prepared`` already
    holds this round of this range). A whole-list schedule (one window per
    sweep) therefore runs ``windows`` local epochs, epoch k of round i on
    permutation ``i * windows + k`` of the client's seed stream.

    Client ``j`` trains in row ``j`` of ``plan.stack``. The first step
    reads the global weights in place, through one set of layer views with
    a leading axis of 1 that broadcasts across the clients, and writes
    ``W - eta * g`` into every client's row. Nothing copies the weights
    into the stack, and no step reads a row before the first step has
    written it. The global weights therefore must not share memory with
    the stack (``ContractError``): the first step writes the stack while
    it still reads them. Rows outside the range are neither read nor
    written. Returns the range's sample and step counts, in row order.
    """
    if np.shares_memory(global_weights, plan.stack):
        raise ContractError("the global weights must not share memory with the client stack")
    clients = range(len(plan.schedules)) if clients is None else clients
    if plan.prepared is None or plan.prepared[:2] != (round_index, clients):
        prepare_round(plan, round_index, clients)
    _, _, steps, samples, counts = plan.prepared
    plan.prepared = None
    origin = (global_weights, layer_views(plan.spec, global_weights[None]))
    for s, ranges in enumerate(steps):
        for a, b, offset, size in ranges:
            plan.step(a, b, offset, size, origin if s == 0 else None)
    return samples, counts


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

    A run whose rounds are long or whose test set is large (``_splits``)
    forks one worker process (``split.Worker``) before the initial weights
    are drawn; the stack and one slot for the global weights live in a
    shared mapping. The worker is reaped when this call returns or raises.
    A client's arithmetic does not depend on which clients share its
    stack, nor an evaluation's on its process, so the bits are those of
    one process.

    When the test set is large (``EVAL_ASIDE_MACS``), the worker evaluates:
    at an evaluation round this process copies the weights into the slot
    before the hook runs, and trains on. At the start of each later round
    it checks, without waiting, whether the reply has come and logs the
    row once it has; it waits for it at the next evaluation round and at
    the end of the run. So rows stay in round order and an evaluation that
    raises raises there. A run that cannot fork evaluates inline.

    With two clients or more, the worker trains clients ``K // 2 ..`` in
    every round where it is not evaluating, from the weights this process
    copies into the slot, and replies with their sample and step counts;
    this process trains the others, and all of them while the worker
    evaluates. Both train ranges of the run's one step plan over the shared
    stack, built before the fork. The worker prepares its range of round 0
    (``prepare_round``) while this process draws the weights, and of round
    ``i + 1`` as soon as it has replied for round ``i``; none past the last.

    Every run trains and evaluates at one BLAS thread
    (``blas.one_blas_thread``), so its bits do not depend on the caller's
    count; the worker process is forked at one thread too. The caller's
    count is restored when this call returns or raises.
    """
    _require_data(spec, test_set.input_dim, test_set.labels)
    aside = _evaluates_aside(spec, test_set)
    k = len(schedules)
    worker_task = worker_ahead = stack = None
    if _splits(schedules, windows, aside):
        from .split import Worker, shared_array

        p = spec.parameter_count
        shared = shared_array((k + 1) * p)
        stack, shared_weights = shared[: k * p].reshape(k, p), shared[k * p :]
        evaluation = config.max_rounds  # the worker's task index for an evaluation

        def worker_task(i: int) -> bytes:
            if i == evaluation:
                return np.array(evaluate(spec, shared_weights, test_set)).tobytes()
            samples, steps = client_update_mmb(plan, i, shared_weights, range(k // 2, k))
            return np.array(samples + steps, dtype=np.int64).tobytes()

        if k > 1:  # the worker trains clients k // 2 .., a round at a time
            def worker_ahead(i: int) -> None:
                if i < config.max_rounds:
                    prepare_round(plan, i, range(k // 2, k))

    plan = StepPlan(spec, schedules, windows, config.learning_rate, stack)
    bytes_per_round = comm_cost(config, spec)
    log = MetricsLog()
    local_updates = 0
    evaluating = None  # the counts of the row the worker is evaluating
    # The fork comes at one BLAS thread, before the initial weights are
    # drawn, so the worker prepares its round 0 while this process draws them.
    with (
        one_blas_thread(),
        Worker(worker_task, "training worker", worker_ahead)
        if worker_task
        else nullcontext() as worker,
    ):
        weights = init_weights(spec, config.seeds.init)
        for i in range(config.max_rounds):
            if evaluating is not None and worker.ready():
                _log_evaluation(log, evaluating, worker)
                evaluating = None
            if worker_ahead is not None and evaluating is None:  # a round in halves
                shared_weights[:] = weights
                worker.start(i)
                samples, steps = client_update_mmb(plan, i, weights, range(k // 2))
                counts = np.frombuffer(worker.finish(), dtype=np.int64).tolist()
                samples += counts[: len(counts) // 2]
                steps += counts[len(counts) // 2 :]
            else:
                samples, steps = client_update_mmb(plan, i, weights, range(k))
            local_updates += sum(steps)
            weights = aggregate(plan.stack, samples)
            if (i + 1) % config.eval_every == 0:
                counts = (i + 1, local_updates, (i + 1) * bytes_per_round)
                if worker is not None and aside:
                    if evaluating is not None:
                        _log_evaluation(log, evaluating, worker)
                    shared_weights[:] = weights
                    worker.start(evaluation)
                    evaluating = counts
                else:
                    log.append(_metrics_row(*counts, *evaluate(spec, weights, test_set)))
            if round_hook is not None:
                round_hook(i + 1, weights)
        if evaluating is not None:
            _log_evaluation(log, evaluating, worker)
    return log


def _splits(schedules: list, windows: int, aside: bool) -> bool:
    """Whether a run works in two processes: it forks a worker (``_run_rounds``).

    It does when it evaluates aside (``aside``, ``_evaluates_aside``), or
    when it has at least two clients and rounds of at least
    ``SPLIT_MIN_STEPS`` stacked steps, the most batches any client takes in
    a round; and only when this process may fork (``split.can_fork``:
    Linux, two CPUs, no other thread) and can hold BLAS at one thread
    while it trains (``blas.blas_holds_one_thread``). At more threads the
    parent's products wake a second BLAS thread, which competes with the
    worker for the CPUs.
    """
    if not aside and (
        len(schedules) < 2
        or windows * max(min(s.batch_count, s.num_batches) for s in schedules) < SPLIT_MIN_STEPS
    ):
        return False
    # Only a run that may fork loads the worker's module, and mmap with it.
    from .split import can_fork

    return can_fork() and blas_holds_one_thread()


def _evaluates_aside(spec: NetworkSpec, test_set: Dataset) -> bool:
    """Whether the round loop evaluates on ``test_set`` in its worker process, if it can fork."""
    return test_set.n * spec.input_dim * spec.layer_dims[0][1] >= EVAL_ASIDE_MACS


def _log_evaluation(log: MetricsLog, counts: tuple[int, int, int], worker) -> None:
    """Log the row of the evaluation the worker was given, once it has replied."""
    loss, accuracy = np.frombuffer(worker.finish()).tolist()
    log.append(_metrics_row(*counts, loss, accuracy))


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
    client on a single mini-batch per round.
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
    whole batch list (``batch_count = ceil(N_j / B)``).
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

