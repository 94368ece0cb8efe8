"""Which OpenBLAS kernels reproduce the golden digests: a probe that gates nothing.

First it prints, for numpy's float64 ``sin``, ``cos``, ``log``, ``exp`` and
``sqrt``, on how many of 400k Box–Muller-shaped inputs numpy and ``math``
(the C library) differ. fedsim's normals take ``cos`` and ``sin`` from numpy
and ``log`` from ``math``, so this shows whether this numpy keeps their bits.

The digests in ``tests/test_golden.py`` pin fedsim's bits, but the matrix
products inside them are summed by whichever OpenBLAS kernel the CPU gets.
This probe reruns that test file in one child process per case, with
``OPENBLAS_CORETYPE`` set to each kernel below and 1 or 2 BLAS threads, and
prints which golden cases pass. Its own column shows whether
``test_lane_path_digests`` passes. The jump-ahead lanes start through
float32 products of 0/1 bit matrices, which are exact under every kernel,
so its uniform, normal and init draws keep their bits everywhere; but its
``synthetic`` features scale the class centers by ``np.linalg.norm``, a
BLAS dot product, so that digest can fail under a kernel that sums it in
another order. Only the children's environment changes.

    python demos/blas_kernel_probe.py

A kernel the CPU cannot run (say SkylakeX without AVX512) makes OpenBLAS
fall back to another, so read a row as "asked for this kernel". Takes
about 5 s per case.
"""

import math
import os
import re
import subprocess
import sys

import numpy as np

from fedsim.rng import Xoshiro256PP

KERNELS = ("Prescott", "Sandybridge", "Haswell", "Zen", "SkylakeX")
THREADS = (1, 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LANE_CASE = "test_lane_path_digests"
OUTCOME = re.compile(
    rf"^(PASSED|FAILED|ERROR) tests/test_golden\.py::(?:test_golden_digests\[(\w+)\]|({LANE_CASE}))"
)


LIBM_INPUTS = 400_000


def libm_inputs() -> dict[str, np.ndarray]:
    """Each function's inputs, shaped as in ``_box_muller`` from the same draws.

    ``u1`` in (0, 1] feeds ``log``; ``2*pi*u2`` feeds ``cos`` and ``sin``;
    ``-2 log(u1)`` feeds ``sqrt``, and ``log(u1)`` feeds ``exp``, its inverse.
    """
    draws = Xoshiro256PP(2024).uniform_array(2 * LIBM_INPUTS, 0.0, 1.0)
    u1, u2 = draws[0::2] + 2.0**-53, draws[1::2]
    log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, LIBM_INPUTS)
    angle = 2.0 * math.pi * u2
    return {"sin": angle, "cos": angle, "log": u1, "exp": log_u1, "sqrt": -2.0 * log_u1}


def print_libm_mismatches() -> None:
    print(f"numpy {np.__version__} against math, float64, {LIBM_INPUTS} inputs each")
    print(f"{'function':<9} {'differ':>7} {'share':>8}")
    for name, x in libm_inputs().items():
        got = getattr(np, name)(x)
        want = np.fromiter(map(getattr(math, name), x.tolist()), np.float64, x.size)
        differ = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
        print(f"{name:<9} {differ:>7} {differ / x.size:>8.3%}")
    print()


def run_case(kernel: str, threads: int) -> dict[str, str]:
    """Case name -> PASSED, FAILED or ERROR, under one kernel and thread count.

    A golden case goes by its parameter, the lane path by ``LANE_CASE``.
    """
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_golden.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    outcomes = dict(
        (m.group(2) or m.group(3), m.group(1))
        for m in map(OUTCOME.match, result.stdout.splitlines())
        if m
    )
    if LANE_CASE not in outcomes:
        sys.exit(f"no golden results under {kernel}/{threads}:\n{result.stdout}{result.stderr}")
    return outcomes


def main() -> None:
    print_libm_mismatches()
    print(f"{'kernel':<12} {'threads':>7} {'passed':>7} {'lane path':>9}  failing cases")
    for kernel in KERNELS:
        for threads in THREADS:
            outcomes = run_case(kernel, threads)
            lane_path = outcomes.pop(LANE_CASE)
            failing = sorted(name for name, outcome in outcomes.items() if outcome != "PASSED")
            passed = f"{len(outcomes) - len(failing)}/{len(outcomes)}"
            print(
                f"{kernel:<12} {threads:>7} {passed:>7} {lane_path:>9}  {', '.join(failing) or '-'}",
                flush=True,
            )


if __name__ == "__main__":
    main()
