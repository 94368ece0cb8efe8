"""Smoke tests: the demos load, and the fast ones run, against the current API.

Each fast demo runs as a script in a fresh interpreter with ``src`` on
``PYTHONPATH``, in a temporary working directory (``cli_workflow`` writes
``./demo-runs``). The seed report's ``main`` runs in this process on
drivers whose weights never move, so every arm and margin it reads is
checked in about a second. ``blas_kernel_probe`` is only loaded, so its
imports are checked but ``main`` does not run.
"""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from fedsim.claims import BOUNDS

from helpers import freeze_claim_drivers

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


@pytest.mark.parametrize("demo", ["blas_kernel_probe"])
def test_slow_demo_imports(demo):
    namespace = runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="not_main")
    assert callable(namespace["main"])


def test_seed_robustness_runs_on_frozen_drivers(monkeypatch, capsys):
    # Weights that never move miss every A5 and A6 bound at every triple.
    freeze_claim_drivers(monkeypatch)
    namespace = runpy.run_path(str(ROOT / "demos" / "seed_robustness.py"), run_name="not_main")
    namespace["main"]()
    lines = capsys.readouterr().out.splitlines()
    arms = ["windowed B=10", "FedAvg B=10", "FedAvg B=50"]
    assert [f"  {arm}: 0 local updates per client per round" for arm in arms] == lines[5:8]
    triples = [(s.init, s.shuffle, s.partition) for s in namespace["TRIPLES"]]
    below = [f"A{c} {name} at {t}" for t in triples for c in (5, 6) for name in BOUNDS[c]]
    assert lines[-1] == "below bound: " + "; ".join(below)
    # Every cell of a triple's row fills its header's span, as a number
    # right-aligned in the header's width.
    header = lines[9]
    headers = arms + [f"A{c} {name}" for c in (5, 6) for name in BOUNDS[c]]
    spans, start = [], 0
    for h in headers:
        start = header.index(h, start)
        spans.append((start, start + len(h)))
        start += len(h)
    rows = [line for line in lines if line.startswith("(")]
    assert [row[: row.index(")") + 1] for row in rows] == [str(t) for t in triples]
    for row in rows:
        for a, b in spans:
            assert row[a:b] == f"{float(row[a:b]):{b - a}.4f}", (row, header[a:b])
