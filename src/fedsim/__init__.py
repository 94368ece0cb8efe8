"""Deterministic federated-learning simulator.

A small, fully seeded stack: a dense neural-network engine (float64,
analytic backprop, finite-difference oracle), dataset partitioners for
homogeneous and label-skewed clients, batch schedules with sliding-window
consumption, and drivers for windowed federated training, federated
averaging, and a centralized mini-batch baseline, plus the metrics needed
to compare them (test-loss discordance, communication accounting).
"""

from .data import (
    BatchSchedule,
    Dataset,
    PartitionPlan,
    apply_partition,
    batch_window,
    load_csv,
    load_idx,
    partition_iid,
    partition_manual,
    partition_noniid_l,
    split_dataset,
    synthetic,
    synthetic_split,
)
from .errors import ConfigError, ContractError, DataError, FedsimError
from .federated import (
    Seeds,
    StepPlan,
    TrainingConfig,
    aggregate,
    client_update_mmb,
    run_centralized,
    run_fedavg,
    run_fedmmb,
)
from .metrics import (
    CSV_HEADER,
    DiscordanceReport,
    MetricsLog,
    MetricsRow,
    comm_cost,
    discordance,
)
from .nn import (
    NetworkSpec,
    compute_gradients,
    evaluate,
    finite_diff_grad,
    forward,
    init_weights,
    layer_views,
    sgd_step,
)
from .rng import Xoshiro256PP, derive_seed

__version__ = "0.1.0"

__all__ = [
    "BatchSchedule",
    "CSV_HEADER",
    "ConfigError",
    "ContractError",
    "DataError",
    "Dataset",
    "DiscordanceReport",
    "FedsimError",
    "MetricsLog",
    "MetricsRow",
    "NetworkSpec",
    "PartitionPlan",
    "Seeds",
    "StepPlan",
    "TrainingConfig",
    "Xoshiro256PP",
    "aggregate",
    "apply_partition",
    "batch_window",
    "client_update_mmb",
    "comm_cost",
    "compute_gradients",
    "derive_seed",
    "discordance",
    "evaluate",
    "finite_diff_grad",
    "forward",
    "init_weights",
    "layer_views",
    "load_csv",
    "load_idx",
    "partition_iid",
    "partition_manual",
    "partition_noniid_l",
    "run_centralized",
    "run_fedavg",
    "run_fedmmb",
    "sgd_step",
    "split_dataset",
    "synthetic",
    "synthetic_split",
]
