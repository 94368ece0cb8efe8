"""The benchmark's workloads: their shapes, targets and expected accounting.

Each workload is one or two training arms over one synthetic dataset, driven
through fedsim's config layer exactly as ``fedsim run`` does. The first arm is
the federated run whose rounds are timed; a second arm, if present, is the
centralized baseline it is compared against. This module imports neither
numpy nor fedsim, so the parent process can read it without loading BLAS.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Every run repeats its workload at least this often, so that set-up time is
# a median of several set-ups and the metrics CSV can be compared across
# repeats.
MIN_REPEATS = 3

# Repeats of an untraced run that build their inputs from scratch; set-up
# time is the median of theirs. Later repeats reuse the inputs last built.
SETUPS = 3

# Candidate percentiles for ``round_ms.tail``, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Arm:
    """One training run of a workload, as a ``train`` section of a fedsim config."""

    name: str
    mode: str
    batch_size: int
    eta: float
    clients: int | None = None
    batch_count: int | None = None
    local_epochs: int | None = None
    labels_per_client: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_test: int
    input_dim: int
    num_classes: int
    hidden: tuple[int, ...]
    rounds: int
    eval_every: int
    # A level every seed reaches at the first evaluation, so that
    # time_to_target_s moves with the code's speed, not with the seed's luck.
    target_accuracy: float
    arms: tuple[Arm, ...]
    # Claim 1: federated/centralized test-loss discordance must stay below this.
    max_discordance: float | None = None

    @property
    def fed(self) -> Arm:
        return self.arms[0]

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden, self.num_classes)
        return list(zip(dims[:-1], dims[1:]))

    @property
    def parameter_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)

    def client_samples(self, arm: Arm) -> int:
        return self.n_train // arm.clients if arm.clients else self.n_train

    def local_updates_per_round(self, arm: Arm) -> int:
        if arm.mode == "centralized":
            return 1
        batches = self.client_samples(arm) // arm.batch_size
        if arm.mode == "fedavg":
            return arm.clients * arm.local_epochs * batches
        return arm.clients * arm.batch_count

    def bytes_per_round(self, arm: Arm) -> int:
        """float64 parameters, down- and uplink, every client; zero when centralized."""
        return self.parameter_count * 8 * 2 * arm.clients if arm.clients else 0

    def flops_per_step(self, arm: Arm) -> int:
        """Multiply-adds x2 of one SGD step: forward, weight gradients, deltas, update."""
        b = arm.batch_size
        flops = 0
        for layer, (fi, fo) in enumerate(self.layer_dims):
            passes = 3 if layer > 0 else 2
            flops += passes * 2 * b * fi * fo
        return flops + 2 * self.parameter_count

    def tail_percentile(self) -> float:
        """Highest ladder percentile with at least 10 rounds beyond it in a run."""
        pooled = MIN_REPEATS * self.rounds
        return next(p for p in TAIL_LADDER if pooled * (100.0 - p) / 100.0 >= 10)

    def check(self) -> None:
        """The accounting above assumes full batches and whole windows."""
        for arm in self.arms:
            n = self.client_samples(arm)
            if n * (arm.clients or 1) != self.n_train or n % arm.batch_size:
                raise ValueError(f"{self.name}/{arm.name}: batches must be full")
            if arm.mode == "fedmmb" and (n // arm.batch_size) % arm.batch_count:
                raise ValueError(f"{self.name}/{arm.name}: C must divide the batch total")


WORKLOADS = {
    w.name: w
    for w in (
        # A5 shape: 200 local steps per round put most training time in
        # nn.compute_gradients and nn.sgd_step; aggregate is about 1%.
        Workload(
            name="skew_window",
            n_train=2000, n_test=500, input_dim=20, num_classes=10, hidden=(32, 32),
            rounds=100, eval_every=10, target_accuracy=0.35,
            arms=(
                Arm("fed", "fedmmb", batch_size=10, eta=0.08, clients=10, batch_count=20,
                    labels_per_client=2),
            ),
        ),
        # A6 FedAvg large-batch arm: every client reshuffles its 1000 samples
        # every round, so data.reshuffle and rng.permutation carry the round.
        Workload(
            name="fedavg_b50",
            n_train=10000, n_test=1000, input_dim=20, num_classes=10, hidden=(32, 32),
            rounds=60, eval_every=5, target_accuracy=0.25,
            arms=(
                Arm("fed", "fedavg", batch_size=50, eta=0.05, clients=10, local_epochs=1,
                    labels_per_client=2),
            ),
        ),
        # A3 shape through the config layer: one small step per client per
        # round puts aggregate and evaluate on the round path, all clients
        # reshuffle together every 40 rounds (the tail), and 2.35 M Python
        # Box-Muller normals dominate set-up. Checks claim 1.
        Workload(
            name="concordance_c1",
            n_train=2000, n_test=1000, input_dim=784, num_classes=10, hidden=(32, 32),
            rounds=600, eval_every=10, target_accuracy=0.05,
            arms=(
                Arm("fed", "fedmmb", batch_size=5, eta=0.01, clients=10, batch_count=1,
                    labels_per_client=1),
                Arm("cent", "centralized", batch_size=50, eta=0.01),
            ),
            max_discordance=0.01,
        ),
    )
}


def derived_seed(workload: str, seed: int, label: str) -> int:
    """A 31-bit seed for one input of one workload, fixed by the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def config_document(w: Workload, arm: Arm, seed: int, out_dir: str) -> dict:
    """The JSON document ``fedsim run`` would read for this arm."""
    train = {
        "mode": arm.mode,
        "B": arm.batch_size,
        "eta": arm.eta,
        "I_max": w.rounds,
        "eval_every": w.eval_every,
        "seeds": {k: derived_seed(w.name, seed, k) for k in ("init", "shuffle", "partition")},
    }
    if arm.clients is not None:
        train["K"] = arm.clients
    if arm.batch_count is not None:
        train["C"] = arm.batch_count
    if arm.local_epochs is not None:
        train["E"] = arm.local_epochs
    doc = {
        "dataset": {
            "source": "synthetic",
            "seed": derived_seed(w.name, seed, "data"),
            "n_train": w.n_train,
            "n_test": w.n_test,
            "input_dim": w.input_dim,
            "num_classes": w.num_classes,
        },
        "model": {"hidden": list(w.hidden)},
        "train": train,
        "output": {"dir": out_dir, "name": f"{w.name}-{arm.name}"},
    }
    if arm.labels_per_client is not None:
        doc["partition"] = {"kind": "noniid_l", "L": arm.labels_per_client}
    return doc

