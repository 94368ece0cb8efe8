"""Smoke tests: the fast demos run to completion against the current API.

Each demo runs as a script in a fresh interpreter with ``src`` on
``PYTHONPATH``, in a temporary working directory (``cli_workflow`` writes
``./demo-runs``). The slow demos (``fedavg_comparison``, ``seed_robustness``,
``blas_kernel_probe``) are left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "gradient_check",
        "single_batch_equivalence",
        "batch_count_tradeoff",
        "concordance",
        "cli_workflow",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
