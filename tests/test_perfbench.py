"""One-second runs of the benchmark harness under ``perfbench/``.

The harness imports, wraps and checks names of fedsim, private ones
included, so a change to ``src/`` that breaks any of them fails here.
``skew_window`` trains its clients in two processes, and so does
``fedavg_b50``, the only workload that runs the FedAvg driver;
``concordance_c1`` evaluates in a forked worker, which trains half the
federated clients in the rounds between evaluations, and runs a
centralized arm. The
fingerprints are the first 8 hex digits of the SHA-256 of each arm's
metrics CSV and final weights at seed 1. Like ``tests/test_golden.py``'s
digests, they were taken under OpenBLAS's SkylakeX kernels, and another
kernel may round differently.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload -> arm -> (metrics CSV, final weights) SHA-256 prefixes at seed 1
FINGERPRINTS = {
    "skew_window": {"fed": ("e3b1d07f", "19a6f33c")},
    "fedavg_b50": {"fed": ("2d7b0499", "e9991272")},
    "concordance_c1": {"fed": ("cf479ac2", "d3851859"), "cent": ("2c66962b", "4ca90d46")},
}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the harness reads the CPU set")
@pytest.mark.parametrize("workload", sorted(FINGERPRINTS))
def test_a_one_second_benchmark_run_is_correct_and_keeps_its_fingerprints(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    report, _ = json.JSONDecoder().raw_decode(result.stdout)
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    fingerprints = {
        arm: (digests["metrics_csv_sha256"][:8], digests["final_weights_sha256"][:8])
        for arm, digests in report["fingerprints"].items()
    }
    assert fingerprints == FINGERPRINTS[workload]
