"""Set-up draws keep their bits under every OpenBLAS kernel.

Matrix products may round differently under each OpenBLAS kernel (see
``tests/test_golden.py``), but fedsim's set-up draws are meant not to
depend on the kernel: the jump-ahead lanes start through float32 products
of 0/1 bit matrices, which are exact in any summation order, and the rest
of set-up does no floating-point BLAS work. This test hashes each set-up
quantity in one child process per ``OPENBLAS_CORETYPE``, each with one
BLAS thread, and requires one hash per quantity across the kernels.

``OPENBLAS_CORETYPE`` acts only on an OpenBLAS built with DYNAMIC_ARCH, and
a kernel the CPU cannot run falls back to another one. So each child also
reports the kernel that ran, which ``OPENBLAS_VERBOSE=2`` prints to stderr
as ``Core: <name>`` when numpy loads OpenBLAS; on an AVX512 x86_64 CPU,
Prescott runs as Katmai and Zen as Haswell. The test skips when fewer than
two distinct kernels ran.
"""

import json
import os
import re
import subprocess
import sys

import pytest

KERNELS = ("Prescott", "Sandybridge", "Haswell", "Zen", "SkylakeX")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORE = re.compile(r"^Core: (\w+)$", re.MULTILINE)

CHILD = r"""
import hashlib, json
import numpy as np
import fedsim as fs
from fedsim.data import (
    Dataset, partition_iid, partition_manual, partition_noniid_l, synthetic,
)
from fedsim.rng import Xoshiro256PP, _lane_starts, shuffle_orders

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

def clients_digest(clients):
    return digest(*(a for c in clients for a in (c.features, c.labels)))

rng = Xoshiro256PP(7)
features = rng.uniform_array(600 * 3, -1.0, 1.0).reshape(600, 3)
data = Dataset(features, np.arange(600) % 10, 10)
hashes = {
    "uniform_array": digest(Xoshiro256PP(3).uniform_array(50_001, -2.0, 5.0)),
    "normal_array": digest(Xoshiro256PP(5).normal_array(100_001)),
    "lane_starts": digest(_lane_starts([1, 2, 3, 4], 1024, 2298)),
    "init_weights": digest(fs.init_weights(fs.NetworkSpec(784, (32, 32), 10), 1)),
    "shuffle_orders": digest(shuffle_orders([0, 9, 2**64 - 1], 5000)),
    "partition_iid": clients_digest(partition_iid(data, 10, 4)),
    "partition_noniid_l": clients_digest(partition_noniid_l(data, 10, 2, 4)),
    "partition_manual": clients_digest(
        partition_manual(data, {0: list(range(0, 600, 2)), 1: list(range(1, 600, 2))})
    ),
    "synthetic": digest(synthetic(1, 3000, 784, 10).features),
}
print(json.dumps(hashes))
"""

QUANTITIES = (
    "uniform_array",
    "normal_array",
    "lane_starts",
    "init_weights",
    "shuffle_orders",
    "partition_iid",
    "partition_noniid_l",
    "partition_manual",
)


def run_child(kernel: str) -> tuple[str, dict[str, str]]:
    """The kernel that ran under ``OPENBLAS_CORETYPE=kernel``, and the child's hashes."""
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=kernel,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_VERBOSE="2",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    cores = CORE.findall(result.stderr)
    return (cores[-1] if cores else "unknown"), json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[str, dict[str, str]]]:
    """Requested kernel -> (kernel that ran, hashes)."""
    runs = {kernel: run_child(kernel) for kernel in KERNELS}
    cores = {core for core, _ in runs.values()} - {"unknown"}
    if len(cores) < 2:
        pytest.skip(f"OPENBLAS_CORETYPE ran fewer than two distinct kernels: {sorted(cores)}")
    return runs


@pytest.mark.parametrize(
    "quantity",
    [
        *QUANTITIES,
        pytest.param(
            "synthetic",
            marks=pytest.mark.xfail(
                strict=True,
                reason="synthetic scales each class center by np.linalg.norm, a BLAS dot"
                " product whose summation order depends on the kernel (FOUND in CHANGES.md;"
                " an exactly rounded norm belongs in the next stream bump)",
            ),
        ),
    ],
)
def test_set_up_draws_hash_the_same_under_every_kernel(runs, quantity):
    seen = {f"{kernel} (ran {core})": hashes[quantity] for kernel, (core, hashes) in runs.items()}
    assert len(set(seen.values())) == 1, seen
