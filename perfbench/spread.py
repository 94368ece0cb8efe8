"""Run one workload on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload skew_window --seeds 1-10

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``), as a share of their
median. Prints one JSON line per run, then one summary JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        summary[name] = {"median": median, "spread": (q3 - q1) / median if median else None}
    print(json.dumps({"workload": args.workload, "runs": len(args.seeds), "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
