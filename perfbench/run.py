"""fedsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload skew_window --seed 1 --seconds 35 --trace 0

Run from the root of a fedsim checkout. The workload runs in one child
process that imports fedsim from ``src/`` with one BLAS thread. ``--trace 0``
prints the end-to-end metrics, measured untraced, with every timing scaled
to a fixed core speed (``speed.py``); ``--trace 1`` prints the
per-layer metrics of a traced run, with names and units as BENCHMARK.json
declares them. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (one operation is one workload repeat)
and ``metrics``. Each repeat is checked (see ``child.gate``); the metrics CSV
and final weights of each arm are fingerprinted with SHA-256 so that a change
can show it kept the bits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (never more than nproc): the workloads' matrices are small,
# and with two threads a busy second core once made a whole run 4x slower.
BLAS_THREADS = 1


def declared_units(root: str, trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("FEDSIM_SEED", None)  # would override every seed in the workload's config
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timings(repeats: list[dict], tail_p: float, suffix: str) -> dict:
    """Medians over repeats; round times pooled over every round of every repeat."""
    rounds = [ms for r in repeats for ms in r["round_ms" + suffix]]
    return {
        "setup_s": statistics.median(r["setup_s" + suffix] for r in repeats
                                     if r["setup_s"] is not None),
        "train_s": statistics.median(r["train_s" + suffix] for r in repeats),
        "samples_per_s": statistics.median(r["samples"] / r["train_s" + suffix] for r in repeats),
        "round_ms.p50": percentile(rounds, 50.0),
        "round_ms.tail": percentile(rounds, tail_p),
        "time_to_target_s": statistics.median(r["time_to_target_s" + suffix] for r in repeats),
    }


def end_to_end(w, repeats: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """Timings scaled to the reference core speed (see speed.py), plus memory
    and accuracy. The wall-clock figures go into the report."""
    tail_p = w.tail_percentile()
    values = {
        **timings(repeats, tail_p, "_scaled"),
        "peak_rss_mb": peak_rss_mb,
        "max_accuracy": statistics.median(r["max_accuracy"] for r in repeats),
    }
    probes = [p for r in repeats for p in r["speed_probes_s"]]
    detail = {
        "wall_clock": timings(repeats, tail_p, ""),
        "speed_probe_s": {"median": statistics.median(probes), "min": min(probes),
                          "max": max(probes), "count": len(probes)},
        "round_ms.tail_percentile": tail_p,
        "rounds_timed": sum(len(r["round_ms"]) for r in repeats),
        "target_accuracy": w.target_accuracy,
        "target_reached_round": repeats[0]["target_reached_round"],
    }
    if len(w.arms) > 1:
        detail["discordance"] = repeats[0]["discordance"]
    return values, detail


def traced_pairs(repeats: list[dict]) -> list[float]:
    """Traced minus untraced train_s of each traced repeat and the repeat before it.

    Pairing neighbours cancels most of the machine's slow drift in speed.
    """
    return [b["train_s"] - a["train_s"] for a, b in zip(repeats, repeats[1:])
            if b["traced"] and not a["traced"] and not (a["failures"] or b["failures"])]


def per_layer(repeats: list[dict], layers: list[dict]) -> dict:
    """Medians over traced repeats, plus the median tracing overhead."""
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced_pairs(repeats))
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fedsim", "__init__.py")):
        print(f"error: no fedsim sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env = child_env(src)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    fedsim_file = os.path.realpath(result["fedsim_file"])
    if not fedsim_file.startswith(os.path.realpath(src) + os.sep):
        print(f"error: fedsim was imported from {fedsim_file}, not {src}", file=sys.stderr)
        return 1

    w = WORKLOADS[args.workload]
    repeats = result["repeats"]
    failed = sum(1 for r in repeats if r["failures"])
    if args.trace:
        ok = bool(result["layers"]) and bool(traced_pairs(repeats))
        metrics = per_layer(repeats, result["layers"]) if ok else {}
        detail = {"self_time_checks": result["self_time_checks"]}
    else:
        timed = [r for r in repeats if not (r["failures"] or r["traced"])]
        ok = any(r["setup_s"] is not None for r in timed)
        metrics, detail = end_to_end(w, timed, result["peak_rss_mb"]) if ok else ({}, {})
    units = declared_units(root, args.trace)
    if ok and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    first = next((r for r in repeats if "csv_sha256" in r), None)
    fingerprints = {
        arm.name: {"metrics_csv_sha256": first["csv_sha256"][i],
                   "final_weights_sha256": first["weights_sha256"][i]}
        for i, arm in enumerate(w.arms)
    } if first else {}
    report = {
        "workload": w.name,
        "environment": {
            **result["environment"],
            "nproc": nproc,
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "seed": args.seed,
        },
        "ops_attempted": len(repeats),
        "ops_failed": failed,
        "traced_repeats": sum(1 for r in repeats if r["traced"]),
        "failures": [f for r in repeats for f in r["failures"]],
        "fingerprints": fingerprints,
        **detail,
        "wall_s": perf_counter() - started,
    }
    print(json.dumps(report, indent=1))
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
