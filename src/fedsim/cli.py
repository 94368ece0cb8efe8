"""Command-line experiment runner.

Verbs:

* ``fedsim run <config.json>`` - run one experiment, write ``<name>.csv``
  plus a ``<name>.json`` sidecar echoing the fully resolved config, the
  version of the random streams the run drew from, and the environment
  that decides the bits beyond them (Python, numpy, BLAS, thread counts).
* ``fedsim compare <a.csv> <b.csv> [--epsilon E] [--target-acc X] [--json]``
  - discordance between two runs plus max-accuracy / rounds-to-target.
* ``fedsim sweep <config.json> --set train.C=1,5,10 [--target-acc X]`` -
  one run per value with otherwise identical seeds, plus an index CSV.
  Each value's run is named ``<name>-<key leaf><value>``, with ``_`` for
  every path separator, or by the value itself when the swept key is
  ``output.name``; values whose runs would write the same files are a
  config error, raised before any run.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime contract
violation. ``output.dir`` is created before training, and one that
cannot be is a config error, as is an output file path that is an
existing directory. Metrics files are written atomically (temp
file with mode 0666 less the umask, then rename), so an interrupted run
never leaves a partial CSV at the final path.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import secrets
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_from_dict, load_config, run_experiment
from .errors import ConfigError, ContractError, DataError, FedsimError
from .metrics import MetricsLog, discordance
from .rng import STREAM_VERSION
from .blas import _BLAS_THREAD_VARS, _openblas, one_blas_thread

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONTRACT = 4


def _check_target_accuracy(target: float | None) -> None:
    """Reject a ``--target-acc`` outside (0, 1), NaN included; None means unset."""
    if target is not None and not (0 < target < 1):
        raise ConfigError("target accuracy must lie in (0, 1)")


@dataclass(frozen=True)
class ComparisonSpec:
    """Inputs of a two-run comparison."""

    log_a: str
    log_b: str
    epsilon: float
    target_accuracy: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and positive, got {self.epsilon}")
        _check_target_accuracy(self.target_accuracy)


def _make_output_dir(directory: str) -> None:
    """Create ``output.dir`` (empty means the working directory) or raise a ConfigError.

    Called before training, so a directory that cannot exist fails the run
    at once instead of after its last round.
    """
    try:
        os.makedirs(directory or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir {directory!r} cannot be created: {exc.strerror}") from exc


def _check_output_files(paths: list[str]) -> None:
    """Raise a ConfigError if any path the command will write is an existing directory.

    Called before training, as ``_make_output_dir`` is: the rename that
    writes the file would fail only after the last round.
    """
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"output file {path} is an existing directory")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, mode 0666 less the umask.

    Newlines are written as ``\\n`` on every OS, so the bytes do not depend on
    ``os.linesep`` and ``MetricsLog.from_csv`` reads back what was written.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _environment() -> dict:
    """What outside fedsim decides a run's bits: interpreter, numpy, BLAS, threads.

    ``blas`` is the name and version numpy was built against, or null where
    this numpy's ``show_config`` cannot return them. The environment
    variables recorded are ``OPENBLAS_CORETYPE``, which picks OpenBLAS's
    kernel, and the thread-count ones (``blas._BLAS_THREAD_VARS``); unset
    ones are null. ``blas_core`` and ``blas_threads`` are the kernel the
    loaded OpenBLAS reports and the thread count every run trains at
    (``blas.one_blas_thread``), or null where its runtime API is not found
    (``blas._openblas``).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    api = _openblas()
    with one_blas_thread():
        threads = None if api is None else api.get_num_threads()
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": blas,
        "blas_core": None if api is None else api.get_corename().decode(),
        "blas_threads": threads,
        **{name: os.environ.get(name) for name in ("OPENBLAS_CORETYPE", *_BLAS_THREAD_VARS)},
    }


def _artifact_paths(config: ExperimentConfig) -> tuple[str, str]:
    """The paths of a run's metrics CSV and its JSON sidecar."""
    stem = os.path.join(config.output_dir, config.run_name)
    return stem + ".csv", stem + ".json"


def _write_artifacts(config: ExperimentConfig, log: MetricsLog) -> tuple[str, str]:
    csv_path, sidecar_path = _artifact_paths(config)
    sidecar = {
        "fedsim_version": __version__,
        "config": config.resolved,
        "metrics_csv": os.path.basename(csv_path),
        "stream_version": STREAM_VERSION,
        "environment": _environment(),
    }
    _atomic_write(csv_path, log.to_csv_string())
    _atomic_write(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return csv_path, sidecar_path


def cmd_run(config_path: str) -> int:
    config = load_config(config_path)
    _make_output_dir(config.output_dir)
    _check_output_files(list(_artifact_paths(config)))
    log = run_experiment(config)
    csv_path, sidecar_path = _write_artifacts(config, log)
    print(f"wrote {csv_path} ({len(log.rows)} rows) and {sidecar_path}")
    return 0


def _rounds_to_target(log: MetricsLog, target: float | None) -> int | str | None:
    if target is None:
        return None
    first = log.first_round_reaching(target)
    return "never" if first is None else first


def cmd_compare(spec: ComparisonSpec, as_json: bool = False) -> int:
    log_a = MetricsLog.from_csv(spec.log_a)
    log_b = MetricsLog.from_csv(spec.log_b)
    report = discordance(log_a, log_b, spec.epsilon)
    sides = {"log_a": (spec.log_a, log_a), "log_b": (spec.log_b, log_b)}
    result = {
        "delta": report.delta,
        "epsilon": report.epsilon,
        "concordant": report.concordant,
        "rounds_compared": report.rounds_compared,
    }
    for side, (path, log) in sides.items():
        result[side] = {"path": path, "max_accuracy": log.max_accuracy()}
        if spec.target_accuracy is not None:
            result[side]["rounds_to_target"] = _rounds_to_target(log, spec.target_accuracy)
    if as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    verdict = "concordant" if report.concordant else "NOT concordant"
    print(f"delta = {report.delta:.6g} over {report.rounds_compared} evaluated rounds")
    print(f"{verdict} at epsilon = {report.epsilon:g}")
    for side, (path, log) in sides.items():
        print(f"max accuracy [{side}] {path}: {log.max_accuracy():.4f}")
    if spec.target_accuracy is not None:
        for side, (path, log) in sides.items():
            reached = _rounds_to_target(log, spec.target_accuracy)
            print(f"first round with accuracy >= {spec.target_accuracy:g} [{side}] {path}: {reached}")
    return 0


def _parse_sweep_expr(expr: str, document: dict) -> tuple[list[str], list]:
    """The key path and values of ``key=value,value,...`` over a config ``document``.

    A value is kept as its text when the key's value in ``document`` is a
    string, so a run name such as ``1`` stays a name; otherwise it is
    decoded as JSON where it parses, and kept as text where it does not.
    """
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value,value,..., got {expr!r}")
    key, _, values_text = expr.partition("=")
    path = key.strip().split(".")
    if not all(path):
        raise ConfigError(f"--set: empty key component in {key!r}")
    keep_text = isinstance(_parent(document, path)[path[-1]], str)
    values = []
    for part in values_text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"--set: empty value in {values_text!r}")
        if not keep_text:
            try:
                part = json.loads(part)
            except json.JSONDecodeError:
                pass
        values.append(part)
    return path, values


def _parent(document: dict, path: list[str]) -> dict:
    """The dict in ``document`` that holds the key at ``path``; the key must exist."""
    node = document
    for key in path[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"--set: unknown config key {'.'.join(path)!r}")
        node = node[key]
    if not isinstance(node, dict) or path[-1] not in node:
        raise ConfigError(f"--set: unknown config key {'.'.join(path)!r}")
    return node


def _variant_name(run_name: str, key_leaf: str, value) -> str:
    """``<run name>-<key leaf><value>``, with ``_`` for every path separator in it."""
    name = f"{run_name}-{key_leaf}{value}"
    for sep in ("/", os.sep, os.altsep):
        if sep:
            name = name.replace(sep, "_")
    return name


def cmd_sweep(config_path: str, set_expr: str, target_accuracy: float | None = None) -> int:
    _check_target_accuracy(target_accuracy)
    base = load_config(config_path)
    path, values = _parse_sweep_expr(set_expr, base.resolved)
    key_leaf = path[-1]
    index_path = os.path.join(base.output_dir, f"{base.run_name}-sweep.csv")
    variants = []
    outputs: dict[str, int] = {}
    for i, value in enumerate(values, start=1):
        document = copy.deepcopy(base.resolved)
        _parent(document, path)[path[-1]] = value
        variant = config_from_dict(document)  # the value as given, before the run is renamed
        if path != ["output", "name"]:
            document["output"]["name"] = _variant_name(base.run_name, key_leaf, value)
            variant = config_from_dict(document)
        output = os.path.abspath(os.path.join(variant.output_dir, variant.run_name))
        if output + ".csv" == os.path.abspath(index_path):
            raise ConfigError(
                f"--set: value {i} of {'.'.join(path)} would write the index {output}.csv"
            )
        if output in outputs:
            raise ConfigError(
                f"--set: values {outputs[output]} and {i} of {'.'.join(path)} would both"
                f" write {output}.csv"
            )
        outputs[output] = i
        variants.append((value, variant))
    for directory in dict.fromkeys([base.output_dir, *(v.output_dir for _, v in variants)]):
        _make_output_dir(directory)
    _check_output_files([index_path, *(p for _, v in variants for p in _artifact_paths(v))])
    summary_rows = []
    for value, variant in variants:
        log = run_experiment(variant)
        csv_path, _ = _write_artifacts(variant, log)
        reached = _rounds_to_target(log, target_accuracy)
        summary_rows.append((value, log.max_accuracy(), "" if reached is None else reached))
        print(f"{'.'.join(path)}={value}: max accuracy {log.max_accuracy():.4f} -> {csv_path}")
    lines = ["value,max_accuracy,rounds_to_target"]
    lines += [f"{v},{acc!r},{reached}" for v, acc, reached in summary_rows]
    _atomic_write(index_path, "\n".join(lines) + "\n")
    print(f"wrote {index_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="Deterministic federated-learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config JSON")

    p_cmp = sub.add_parser("compare", help="compare two metrics CSVs")
    p_cmp.add_argument("log_a")
    p_cmp.add_argument("log_b")
    p_cmp.add_argument("--epsilon", type=float, default=0.01)
    p_cmp.add_argument("--target-acc", type=float, default=None)
    p_cmp.add_argument("--json", action="store_true", dest="as_json")

    p_sweep = sub.add_parser("sweep", help="run one experiment per swept value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--set", required=True, dest="set_expr", metavar="KEY=V1,V2,...")
    p_sweep.add_argument("--target-acc", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "compare":
            spec = ComparisonSpec(
                log_a=args.log_a,
                log_b=args.log_b,
                epsilon=args.epsilon,
                target_accuracy=args.target_acc,
            )
            return cmd_compare(spec, as_json=args.as_json)
        return cmd_sweep(args.config, args.set_expr, args.target_acc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ContractError, FedsimError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
