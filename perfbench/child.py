"""Runs one workload in this process and prints its measurements as one JSON line.

Started by ``run.py`` with fedsim's sources on ``PYTHONPATH`` and the BLAS
thread count already fixed. It repeats the workload until ``--seconds`` is
spent (at least ``MIN_REPEATS`` times). Untraced, only the first ``SETUPS``
repeats build their inputs; later ones train again on the last inputs built,
so that a workload with a slow set-up still trains many times. With
``--trace 1`` it alternates untraced and traced repeats, each with its own
set-up; only traced repeats have wrappers installed. Untraced repeats also
time the speed reference loop (``speed.py``) before they start and every
``PROBE_EVERY_S`` inside training, to scale their timings.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

import numpy as np

import fedsim
import fedsim.federated
from fedsim.config import (
    build_datasets,
    build_partition_plan,
    build_spec,
    config_from_dict,
)
from fedsim.data import apply_partition
from fedsim.federated import run_centralized, run_fedavg, run_fedmmb
from fedsim.metrics import MetricsLog, discordance

import speed
from tracer import FirstCall, Tracer, self_times
from workloads import MIN_REPEATS, SETUPS, WORKLOADS, Workload, config_document

DRIVERS = {"fedmmb": run_fedmmb, "fedavg": run_fedavg, "centralized": run_centralized}

# Functions whose first call marks the start of a driver's first round.
FIRST_ROUND_CALLS = ("client_update_mmb", "client_update_fedavg", "compute_gradients")


def weights_digest(weights) -> str:
    """SHA-256 of all parameters as float64, layer by layer, weights before biases."""
    arrays = weights.arrays() if hasattr(weights, "arrays") else [weights]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class ArmRun(NamedTuple):
    log: MetricsLog
    clock: "RoundClock"
    first_round: float
    end: float


class RoundClock:
    """round_hook that timestamps every round and keeps the latest weights.

    With ``probe_every`` set, it also runs the speed reference loop at the
    first round and then whenever that many seconds have passed since the
    last one. Time spent in the loop is left out of the timestamps.
    """

    def __init__(self, probe_every: float | None) -> None:
        self.stamps: list[float] = []
        self.weights = None
        self.probe_every = probe_every
        self.paused = 0.0  # seconds spent in the reference loop so far
        self.probes: list[tuple[int, float]] = []  # (index of the round before it, seconds)
        self.next_probe = perf_counter()

    def __call__(self, round_index: int, weights) -> None:
        now = perf_counter()
        self.stamps.append(now - self.paused)
        self.weights = weights
        if self.probe_every is not None and now >= self.next_probe:
            self.probes.append((len(self.stamps) - 1, speed.reference_loop()))
            done = perf_counter()
            self.paused += done - now
            self.next_probe = done + self.probe_every

    def round_scales(self) -> list[float]:
        """Per round: ``REFERENCE_S`` over the mean of the loops just before and after it."""
        scales = []
        k = 0  # index of the first probe taken after the current round
        for j in range(len(self.stamps)):
            while k < len(self.probes) and self.probes[k][0] < j:
                k += 1
            around = [p for _, p in self.probes[max(k - 1, 0):k + 1]]
            scales.append(speed.REFERENCE_S * len(around) / sum(around))
        return scales


def train_arm(arm, config, spec, train_set, test_set, tracer: Tracer,
              probe_every: float | None) -> ArmRun:
    """One driver call as ``fedsim run`` makes it, with its round clock."""
    clients = None
    if arm.mode != "centralized":
        with tracer.span("data.partition"):
            clients = apply_partition(build_partition_plan(config), train_set)
    clock = RoundClock(probe_every)
    probe = FirstCall([(fedsim.federated, name) for name in FIRST_ROUND_CALLS])
    try:
        with tracer.span("federated.run") as run_times:
            driver = DRIVERS[arm.mode]
            if clients is None:
                log = driver(config.train, spec, train_set, test_set, round_hook=clock)
            else:
                log = driver(config.train, spec, clients, test_set, round_hook=clock)
    finally:
        probe.restore()
    first_round = probe.time if probe.time is not None else run_times[0]
    return ArmRun(log, clock, first_round, run_times[1])


def gate(w: Workload, arm, log: MetricsLog) -> list[str]:
    """Accounting and sanity checks on one arm's metrics log."""
    failures = []
    if len(log.rows) != w.rounds // w.eval_every or log.rows[-1].round != w.rounds:
        failures.append(f"{arm.name}: expected an evaluation every {w.eval_every} rounds")
        return failures
    if not all(math.isfinite(r.test_loss) for r in log.rows):
        failures.append(f"{arm.name}: non-finite test loss")
    updates = w.local_updates_per_round(arm) * w.rounds
    if log.rows[-1].cum_local_updates != updates:
        failures.append(f"{arm.name}: cum_local_updates {log.rows[-1].cum_local_updates} != {updates}")
    sent = w.bytes_per_round(arm) * w.rounds
    if log.rows[-1].cum_bytes != sent:
        failures.append(f"{arm.name}: cum_bytes {log.rows[-1].cum_bytes} != {sent}")
    return failures


class Inputs(NamedTuple):
    configs: list
    spec: object
    train_set: object
    test_set: object


def set_up(w: Workload, seed: int, out_dir: str, tracer: Tracer) -> Inputs:
    """Configs, datasets and network spec, built as ``fedsim run`` builds them."""
    with tracer.span("config.config_from_dict"):
        configs = [config_from_dict(config_document(w, arm, seed, out_dir)) for arm in w.arms]
    with tracer.span("config.build_datasets"):
        train_set, test_set = build_datasets(configs[0])
    return Inputs(configs, build_spec(configs[0], train_set), train_set, test_set)


# Seconds between runs of the speed reference loop inside training. Each
# run takes about 45 ms, so probing costs under a tenth of training time.
PROBE_EVERY_S = 0.5


def run_repeat(w: Workload, seed: int, out_dir: str, tracer: Tracer,
               inputs: Inputs | None, speed_probe_s: float | None) -> tuple[dict, Inputs]:
    """One workload repeat: set-up unless ``inputs`` are given, training of
    every arm, then write, read and compare.

    ``speed_probe_s`` is the reference loop's time just before the repeat; if
    given, the rounds probe the speed too and every timing is also returned
    scaled to the reference speed (keys ending in ``_scaled``).
    """
    t0 = perf_counter()
    fresh = inputs is None
    probe_every = None if speed_probe_s is None else PROBE_EVERY_S
    with tracer.span("workload"):
        if fresh:
            inputs = set_up(w, seed, out_dir, tracer)
        configs, spec, train_set, test_set = inputs
        runs = [train_arm(arm, cfg, spec, train_set, test_set, tracer, probe_every)
                for arm, cfg in zip(w.arms, configs)]
        first_round, train_end = runs[0].first_round, runs[-1].end

        csv_paths = [os.path.join(out_dir, f"{w.name}-{arm.name}.csv") for arm in w.arms]
        with tracer.span("metrics.csv_write"):
            for run, path in zip(runs, csv_paths):
                with open(path, "w", newline="") as f:
                    f.write(run.log.to_csv_string())
        with tracer.span("metrics.csv_read"):
            read_back = [MetricsLog.from_csv(path) for path in csv_paths]
        with tracer.span("metrics.discordance"):
            # Two arms: claim 1, as `fedsim compare` computes it. One arm: the
            # CSV round trip, which must be exact.
            report = discordance(read_back[0], read_back[1] if len(runs) > 1 else runs[0].log,
                                 epsilon=w.max_discordance or 1.0)

    fed_log = runs[0].log
    failures = [f for arm, run in zip(w.arms, runs) for f in gate(w, arm, run.log)]
    if len(runs) > 1 and not report.concordant:
        failures.append(f"discordance {report.delta:.3e} >= {w.max_discordance}")
    if len(runs) == 1 and report.delta != 0.0:
        failures.append("metrics CSV does not round-trip exactly")

    round_ms = [[1e3 * (b - a) for a, b in zip([run.first_round] + run.clock.stamps[:-1],
                                              run.clock.stamps)] for run in runs]
    reached = fed_log.first_round_reaching(w.target_accuracy)
    samples = sum(run.log.rows[-1].cum_local_updates * arm.batch_size
                  for arm, run in zip(w.arms, runs))
    train_s = train_end - first_round - sum(run.clock.paused for run in runs)
    n_to_target = reached if reached else len(round_ms[0])
    rep = {
        # Only a repeat that built its inputs has a whole set-up to time.
        "setup_s": first_round - t0 if fresh else None,
        "train_s": train_s,
        "window": (first_round, train_end),
        "samples": samples,
        "bytes_per_round": fed_log.rows[-1].cum_bytes // w.rounds,
        "local_updates_per_round": fed_log.rows[-1].cum_local_updates // w.rounds,
        "round_ms": round_ms[0],
        "time_to_target_s": 1e-3 * sum(round_ms[0][:n_to_target]),
        "target_reached_round": reached,
        "max_accuracy": fed_log.max_accuracy(),
        "discordance": report.delta,
        "csv_sha256": [hashlib.sha256(run.log.to_csv_string().encode()).hexdigest()
                       for run in runs],
        "weights_sha256": [weights_digest(run.clock.weights) for run in runs],
        "failures": failures,
    }
    if speed_probe_s is not None:
        scales = [run.clock.round_scales() for run in runs]
        scaled_ms = [[d * k for d, k in zip(ds, ks)] for ds, ks in zip(round_ms, scales)]
        # Time between rounds (partition, driver set-up, the last round's
        # return) is scaled by the mean speed of the rounds.
        train_scale = sum(map(sum, scaled_ms)) / sum(map(sum, round_ms))
        # Set-up lies between the loop before the repeat and the first round's.
        setup_probe_s = (speed_probe_s + runs[0].clock.probes[0][1]) / 2
        rep.update({
            "setup_s_scaled": (rep["setup_s"] * speed.REFERENCE_S / setup_probe_s
                               if fresh else None),
            "train_s_scaled": train_s * train_scale,
            "round_ms_scaled": scaled_ms[0],
            "time_to_target_s_scaled": 1e-3 * sum(scaled_ms[0][:n_to_target]),
            "speed_probes_s": [p for run in runs for _, p in run.clock.probes],
        })
    return rep, inputs


def layer_metrics(w: Workload, tracer: Tracer, first_span: int, rep: dict) -> dict:
    """Per-layer figures of one traced repeat, from its spans."""
    spans = tracer.since(first_span)
    w0, w1 = rep["window"]
    own = self_times(spans, w0, w1)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, []))

    def p50(name):
        durations = [s.end - s.start for s in by_name.get(name, [])]
        return statistics.median(durations) if durations else 0.0

    def self_s(name):
        return sum(own[s.sid] for s in by_name.get(name, []))

    perm = by_name.get("rng.permutation", [])
    perm_elems = sum(s.size for s in perm)
    m = {
        "nn.flops_per_step": w.flops_per_step(w.fed),
        "federated.bytes_per_round": rep["bytes_per_round"],
        "federated.local_updates_per_round": rep["local_updates_per_round"],
        "rng.permutation.ns_per_elem": 1e9 * total("rng.permutation") / perm_elems if perm_elems else 0.0,
        "federated.round.self_s": self_s("federated.run"),
        "nn.evaluate.ms_p50": 1e3 * p50("nn.evaluate"),
        "nn.init_weights.ms": 1e3 * total("nn.init_weights"),
        "metrics.csv_write.ms": 1e3 * total("metrics.csv_write"),
        "metrics.csv_read.ms": 1e3 * total("metrics.csv_read"),
        "metrics.discordance.ms": 1e3 * total("metrics.discordance"),
    }
    for name in ("nn.compute_gradients", "nn.sgd_step", "rng.permutation", "data.reshuffle",
                 "federated.aggregate", "nn.evaluate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("nn.compute_gradients", "nn.sgd_step", "data.reshuffle", "federated.aggregate"):
        m[f"{name}.us_p50"] = 1e6 * p50(name)
    m["federated.client_update.self_s"] = self_s("federated.client_update")
    for name in ("rng.normal_array", "data.synthetic_split", "data.partition",
                 "config.build_datasets"):
        m[f"{name}.s"] = total(name)
    attributed = sum(own.values())
    return m, {"self_sum_s": attributed, "train_s": w1 - w0,
               "by_layer_self_s": {n: self_s(n) for n in sorted(by_name)}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    w.check()

    tracer = Tracer()
    deadline = perf_counter() + args.seconds
    repeats: list[dict] = []
    # Durations of repeats with and without a set-up, to predict the next one.
    durations: dict[bool, list[float]] = {True: [], False: []}
    layers: list[dict] = []
    checks: list[dict] = []
    peak_rss_mb = None
    inputs = None
    while True:
        # A traced run sets up every repeat, because set-up layers are traced too.
        fresh = bool(args.trace) or len(repeats) < SETUPS or inputs is None
        if len(repeats) >= MIN_REPEATS and \
                perf_counter() + statistics.median(durations[fresh] or durations[True]) > deadline:
            break
        traced = bool(args.trace) and len(repeats) % 2 == 1
        gc.collect()
        tracer.run_id = f"{w.name}/seed{args.seed}/rep{len(repeats)}"
        first_span = len(tracer.spans)
        started = perf_counter()
        speed_probe_s = None if args.trace else speed.probe()
        if traced:
            tracer.install()
        try:
            rep, inputs = run_repeat(w, args.seed, args.out_dir, tracer,
                                     None if fresh else inputs, speed_probe_s)
        except Exception as exc:  # a repeat that raises is a failed operation
            rep = {"failures": [f"raised {type(exc).__name__}: {exc}"]}
        finally:
            tracer.uninstall()
        durations[fresh].append(perf_counter() - started)
        rep["traced"] = traced
        if traced and "window" in rep:
            m, check = layer_metrics(w, tracer, first_span, rep)
            layers.append(m)
            checks.append(check)
            if abs(check["self_sum_s"] - check["train_s"]) > 1e-6:
                rep["failures"].append("self times do not sum to the traced train_s")
        repeats.append(rep)
        if peak_rss_mb is None:
            # Peak of one workload run in a fresh process, as `fedsim run` has
            # it; later repeats can raise the peak through heap fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [r for r in repeats if "window" in r]
    if ok:
        reference = ok[0]["csv_sha256"]
        for r in ok:
            if r["csv_sha256"] != reference:
                r["failures"].append("metrics CSV differs from the first repeat")
    # One file per workload and mode, overwritten by the next run, so that
    # traced runs (about 40k spans a repeat) do not pile up.
    tracer.write_jsonl(os.path.join(args.out_dir, f"{w.name}-trace{args.trace}-spans.jsonl"))
    for r in repeats:
        r.pop("window", None)
    print(json.dumps({
        "fedsim_file": fedsim.__file__,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_version(),
        },
        "peak_rss_mb": peak_rss_mb,
        "repeats": repeats,
        "layers": layers,
        "self_time_checks": checks,
    }))
    return 0


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
