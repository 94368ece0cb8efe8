"""Experiment configuration: strict JSON schema, resolution, and dispatch.

A config document has up to five sections: ``dataset``, ``model``,
``partition`` (federated modes only), ``train``, and ``output``. Unknown
keys are rejected everywhere, so a config that parses today reproduces the
same run tomorrow. The ``FEDSIM_SEED`` environment variable, when set,
overrides every seed in the document with that single integer; the
resolved values are what gets echoed to the run's JSON sidecar. Every seed
must lie in [0, 2**64): the streams take seeds modulo 2**64, so a seed
outside that range would silently repeat another seed's run.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Any

from .data import (
    Dataset,
    PartitionPlan,
    apply_partition,
    _read_idx,
    load_csv,
    split_dataset,
    synthetic_split,
)
from .errors import ConfigError, DataError
from .federated import Seeds, TrainingConfig, run_centralized, run_fedavg, run_fedmmb
from .metrics import MetricsLog
from .nn import NetworkSpec

ENV_SEED = "FEDSIM_SEED"


def _require_keys(section: dict, where: str, required: set[str], optional: set[str]) -> None:
    keys = set(section)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _int(section: dict, where: str, key: str) -> int:
    v = section[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _num(section: dict, where: str, key: str) -> float:
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _str(section: dict, where: str, key: str) -> str:
    v = section[key]
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key}: expected a string, got {v!r}")
    return v


def _seed(section: dict, where: str, key: str) -> int:
    # Seeds enter the streams modulo 2**64, so -1 would alias 2**64 - 1.
    v = _int(section, where, key)
    if not 0 <= v < 1 << 64:
        raise ConfigError(f"{where}.{key}: expected a seed in [0, 2**64), got {v}")
    return v


def _at_least(section: dict, where: str, key: str, minimum: int) -> int:
    v = _int(section, where, key)
    if v < minimum:
        raise ConfigError(f"{where}.{key}: expected an integer >= {minimum}, got {v}")
    return v


_DATASET_PATHS = {
    "train_path", "test_path", "train_images", "train_labels", "test_images", "test_labels"
}


@dataclass
class ExperimentConfig:
    """A fully validated experiment: resolved document plus typed pieces."""

    resolved: dict[str, Any]
    train: TrainingConfig
    hidden: tuple[int, ...]
    output_dir: str
    run_name: str

    @property
    def mode(self) -> str:
        return self.train.mode


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    resolved = copy.deepcopy(raw)
    _require_keys(
        resolved,
        "config",
        required={"dataset", "model", "train", "output"},
        optional={"partition"},
    )

    train_sec = resolved["train"]
    if not isinstance(train_sec, dict):
        raise ConfigError("train: expected an object")
    _require_keys(
        train_sec,
        "train",
        required={"mode", "B", "eta", "I_max", "seeds"},
        optional={"K", "C", "E", "eval_every"},
    )
    train_sec.setdefault("eval_every", 1)

    seeds_sec = train_sec["seeds"]
    if not isinstance(seeds_sec, dict):
        raise ConfigError("train.seeds: expected an object")
    _require_keys(seeds_sec, "train.seeds", required={"init", "shuffle", "partition"}, optional=set())

    _validate_dataset_section(resolved["dataset"])
    _apply_env_seed(resolved)

    seeds = Seeds(
        init=_seed(seeds_sec, "train.seeds", "init"),
        shuffle=_seed(seeds_sec, "train.seeds", "shuffle"),
        partition=_seed(seeds_sec, "train.seeds", "partition"),
    )
    train = TrainingConfig(
        mode=_str(train_sec, "train", "mode"),
        learning_rate=_num(train_sec, "train", "eta"),
        max_rounds=_int(train_sec, "train", "I_max"),
        batch_size=_int(train_sec, "train", "B"),
        seeds=seeds,
        eval_every=_int(train_sec, "train", "eval_every"),
        clients=_int(train_sec, "train", "K") if "K" in train_sec else None,
        batch_count=_int(train_sec, "train", "C") if "C" in train_sec else None,
        local_epochs=_int(train_sec, "train", "E") if "E" in train_sec else None,
    )

    model_sec = resolved["model"]
    if not isinstance(model_sec, dict):
        raise ConfigError("model: expected an object")
    _require_keys(model_sec, "model", required={"hidden"}, optional=set())
    hidden_raw = model_sec["hidden"]
    if not isinstance(hidden_raw, list) or any(
        not isinstance(h, int) or isinstance(h, bool) or h < 1 for h in hidden_raw
    ):
        raise ConfigError("model.hidden: expected a list of positive integers")
    hidden = tuple(hidden_raw)

    _validate_partition_section(resolved.get("partition"), train)

    output_sec = resolved["output"]
    if not isinstance(output_sec, dict):
        raise ConfigError("output: expected an object")
    _require_keys(output_sec, "output", required={"dir", "name"}, optional=set())

    return ExperimentConfig(
        resolved=resolved,
        train=train,
        hidden=hidden,
        output_dir=_str(output_sec, "output", "dir"),
        run_name=_run_name(output_sec),
    )


def _run_name(output_sec: dict) -> str:
    # The name becomes a file name inside output.dir and must not leave it,
    # nor hold a NUL, which no file name can.
    name = _str(output_sec, "output", "name")
    if name in ("", ".", "..") or any(c and c in name for c in ("/", "\0", os.sep, os.altsep)):
        raise ConfigError(f"output.name: expected a plain file name, got {name!r}")
    return name


def _apply_env_seed(resolved: dict[str, Any]) -> None:
    value = os.environ.get(ENV_SEED)
    if value is None:
        return
    try:
        seed = int(value)
    except ValueError as exc:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {value!r}") from exc
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{ENV_SEED} must be a seed in [0, 2**64), got {value!r}")
    seeds = resolved["train"]["seeds"]
    for key in ("init", "shuffle", "partition"):
        seeds[key] = seed
    if resolved["dataset"].get("source") == "synthetic" or "seed" in resolved["dataset"]:
        resolved["dataset"]["seed"] = seed


def _validate_dataset_section(section: Any) -> None:
    if not isinstance(section, dict):
        raise ConfigError("dataset: expected an object")
    source = section.get("source")
    if source == "synthetic":
        _require_keys(
            section,
            "dataset",
            required={"source", "seed", "n_train", "n_test", "input_dim", "num_classes"},
            optional=set(),
        )
    elif source == "csv":
        _require_keys(
            section,
            "dataset",
            required={"source", "train_path", "num_classes"},
            optional={"test_path", "test_split", "seed", "header"},
        )
        has_test_path = "test_path" in section
        has_split = "test_split" in section
        if has_test_path == has_split:
            raise ConfigError("dataset: csv needs exactly one of test_path or test_split")
        if has_split and "seed" not in section:
            raise ConfigError("dataset: csv with test_split needs a seed for the shuffle")
    elif source == "idx":
        _require_keys(
            section,
            "dataset",
            required={"source", "train_images", "train_labels", "test_images", "test_labels"},
            optional={"num_classes"},
        )
    else:
        raise ConfigError(f"dataset.source must be synthetic, csv, or idx, got {source!r}")
    for key in section:
        if key in _DATASET_PATHS:
            _str(section, "dataset", key)
        elif key == "seed":
            _seed(section, "dataset", key)
        elif key == "header":
            if not isinstance(section[key], bool):
                raise ConfigError(f"dataset.header: expected true or false, got {section[key]!r}")
        elif key == "test_split":
            split = _num(section, "dataset", key)
            if not 0.0 < split < 1.0:
                raise ConfigError(f"dataset.test_split: expected a number in (0, 1), got {split}")
        elif key != "source":  # sizes and num_classes
            _at_least(section, "dataset", key, 2 if key == "num_classes" else 1)


def _validate_partition_section(section: Any, train: TrainingConfig) -> None:
    if train.mode == "centralized":
        if section is not None:
            raise ConfigError("partition: not allowed for centralized runs")
        return
    if not isinstance(section, dict):
        raise ConfigError("partition: required for federated runs")
    kind = section.get("kind")
    if kind == "iid":
        _require_keys(section, "partition", required={"kind"}, optional=set())
    elif kind == "noniid_l":
        _require_keys(section, "partition", required={"kind", "L"}, optional=set())
        _at_least(section, "partition", "L", 1)
    elif kind == "manual":
        _require_keys(section, "partition", required={"kind", "assignment"}, optional=set())
        assignment = section["assignment"]
        if not isinstance(assignment, dict):
            raise ConfigError("partition.assignment: expected an object")
        for client, indices in assignment.items():
            if not isinstance(indices, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in indices
            ):
                raise ConfigError(
                    f"partition.assignment[{client!r}]: expected a list of sample indices"
                )
        try:
            keys = sorted(int(k) for k in assignment)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"partition.assignment: bad client map ({exc})") from exc
        if keys != list(range(train.clients)):
            raise ConfigError(
                f"partition.assignment: client keys must be 0..{train.clients - 1}, got {keys}"
            )
    else:
        raise ConfigError(f"partition.kind must be iid, noniid_l, or manual, got {kind!r}")


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair named by the dataset section."""
    section = config.resolved["dataset"]
    source = section["source"]
    if source == "synthetic":
        return synthetic_split(
            seed=section["seed"],
            n_train=section["n_train"],
            n_test=section["n_test"],
            input_dim=section["input_dim"],
            num_classes=section["num_classes"],
        )
    if source == "csv":
        header = section.get("header", False)
        train = load_csv(section["train_path"], section["num_classes"], header=header)
        if "test_path" in section:
            test = load_csv(section["test_path"], section["num_classes"], header=header)
            return train, test
        return split_dataset(train, section["test_split"], section["seed"])
    train = _read_idx(section["train_images"], section["train_labels"])
    test = _read_idx(section["test_images"], section["test_labels"])
    num_classes = section.get("num_classes")
    if num_classes is None:
        # Either label file may lack the top labels; the count covers both.
        num_classes = 1 + int(max(train[1].max(), test[1].max()))
        if num_classes < 2:
            raise DataError("the IDX label files hold 1 class; a network needs at least 2")
    return Dataset(*train, num_classes), Dataset(*test, num_classes)


def build_spec(config: ExperimentConfig, train_set: Dataset) -> NetworkSpec:
    return NetworkSpec(
        input_dim=train_set.input_dim,
        hidden=config.hidden,
        output_dim=train_set.num_classes,
    )


def build_partition_plan(config: ExperimentConfig) -> PartitionPlan:
    section = config.resolved["partition"]
    assignment = None
    if section["kind"] == "manual":
        assignment = {int(k): list(v) for k, v in section["assignment"].items()}
    assert config.train.clients is not None
    return PartitionPlan(
        kind=section["kind"],
        clients=config.train.clients,
        seed=config.train.seeds.partition,
        labels_per_client=section.get("L"),
        assignment=assignment,
    )


def run_experiment(config: ExperimentConfig) -> MetricsLog:
    """Run the configured experiment end to end and return its metrics."""
    train_set, test_set = build_datasets(config)
    spec = build_spec(config, train_set)
    if config.mode == "centralized":
        return run_centralized(config.train, spec, train_set, test_set)
    clients = apply_partition(build_partition_plan(config), train_set)
    driver = run_fedmmb if config.mode == "fedmmb" else run_fedavg
    return driver(config.train, spec, clients, test_set)
