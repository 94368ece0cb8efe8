"""The round loop and the three training drivers.

Every driver runs the same sequential loop: each round, every client's
batch schedule trains from the global weights, all clients stacked along a
leading axis in one batched computation. The round's first step reads the
global weights in place, broadcast across the clients, and writes its
result into the stack; later steps train in the stack. The stack's rows
are combined by sample-weighted averaging in ascending client order, the
model is evaluated on a fixed cadence, and the round hook sees the new
weights.
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
from dataclasses import dataclass, field
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

RoundHook = Callable[[int, np.ndarray], None]


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
    ``schedules`` in row ``j``), one gradient buffer of the same shape, the
    layer views of both, and gather buffers for a round's window rows: their
    features, and their labels as one-hot float64 targets
    (``[K, n, classes]``), built once per round by ``gather``. Only
    the steps after a round's first use the gradient buffer; a first step
    of every client together backpropagates into the stack itself. Each
    round takes ``windows`` batch windows of every schedule at learning rate
    ``eta``. Building it checks ``windows``, ``eta`` and each schedule's
    source against the spec (feature width, label range), so no round or
    step checks them again.
    """

    def __init__(self, spec: NetworkSpec, schedules: list, windows: int, eta: float):
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
        self.stack = np.empty((k, spec.parameter_count))
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
            # "clip" lets np.take write into ``out`` without a buffer.
            source = schedule.source
            np.take(source.features, r, axis=0, out=self._x[j, : r.size], mode="clip")
            labels = source.labels[r]
            np.take(self._one_hot, labels, axis=0, out=self._targets[j, : r.size], mode="clip")

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
    together, one gradient computation for the group; a client whose
    windows have no batch ``s`` sits the step out. Returns every client's
    sample count and step count, in row order.
    """
    if np.shares_memory(global_weights, plan.stack):
        raise ContractError("the global weights must not share memory with the client stack")
    origin = (global_weights, layer_views(plan.spec, global_weights[None]))
    first = round_index * plan.windows
    windows = [draw_windows(plan.schedules, first + e) for e in range(plan.windows)]
    rows, sizes = [], []
    for parts in zip(*windows):
        rows.append(parts[0][0] if len(parts) == 1 else np.concatenate([r for r, _ in parts]))
        sizes.append([z for _, zs in parts for z in zs])
    plan.gather(rows)
    starts = [0] * len(sizes)
    for s in range(max(map(len, sizes))):
        groups: dict[int, list[int]] = {}
        for j, batches in enumerate(sizes):
            if s < len(batches):
                groups.setdefault(batches[s], []).append(j)
        for size, members in groups.items():
            plan.step(members, [starts[j] for j in members], size, origin if s == 0 else None)
            for j in members:
                starts[j] += size
    return [r.size for r in rows], [len(z) for z in sizes]


def aggregate(stack: np.ndarray, samples: list[int]) -> np.ndarray:
    """Sample-weighted average of the rows of a client stack.

    Row ``j`` holds client ``j``'s local weights, trained on ``samples[j]``
    samples. Accumulation runs in row order, anchored at row 0
    (``W_0 + sum n_j (W_j - W_0) / sum n_j``), which is algebraically the
    plain weighted average but keeps the all-identical case exact and the
    result well inside the clients' coordinate range. A single row comes
    back unchanged (save that -0.0 becomes +0.0), which makes centralized
    training the one-client round. The result is a new array on every call;
    the sum runs in place in it. The sum starts at row 1: row 0's term,
    ``n_0 (W_0 - W_0)``, is +0.0 for a finite anchor and would leave the
    +0.0 accumulator as it is, and a non-finite anchor still makes the
    result non-finite when it is added back.
    """
    if len(stack) == 0 or len(samples) != len(stack) or min(samples) < 1:
        raise ContractError("aggregate needs a non-empty stack and a positive count per row")
    anchor = stack[0]
    acc = np.zeros_like(anchor)
    scratch = np.empty_like(anchor)
    for weights, n in zip(stack[1:], samples[1:]):
        np.subtract(weights, anchor, out=scratch)
        scratch *= float(n)
        acc += scratch
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
    The clients train in the stack of one step plan built here, once per
    run, before the first round; ``aggregate`` returns a new array, so the
    weights the hook sees never alias the stack.
    """
    plan = StepPlan(spec, schedules, windows, config.learning_rate)
    weights = init_weights(spec, config.seeds.init)
    bytes_per_round = comm_cost(config, spec)
    log = MetricsLog()
    local_updates = 0
    for i in range(config.max_rounds):
        samples, steps = client_update_mmb(plan, i, weights)
        local_updates += sum(steps)
        weights = aggregate(plan.stack, samples)
        if (i + 1) % config.eval_every == 0:
            loss, accuracy = evaluate(spec, weights, test_set)
            log.append(
                MetricsRow(
                    round=i + 1,
                    test_loss=loss,
                    test_accuracy=accuracy,
                    train_loss=None,
                    cum_local_updates=local_updates,
                    cum_bytes=(i + 1) * bytes_per_round,
                )
            )
        if round_hook is not None:
            round_hook(i + 1, weights)
    return log


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

