"""Which OpenBLAS kernels reproduce the golden digests: a probe that gates nothing.

The digests in ``tests/test_golden.py`` pin fedsim's bits, but the matrix
products inside them are summed by whichever OpenBLAS kernel the CPU gets.
This probe reruns that test file in one child process per case, with
``OPENBLAS_CORETYPE`` set to each kernel below and 1 or 2 BLAS threads, and
prints which golden cases pass. Only the children's environment changes.

    python demos/blas_kernel_probe.py

A kernel the CPU cannot run (say SkylakeX without AVX512) makes OpenBLAS
fall back to another, so read a row as "asked for this kernel". Takes
about 5 s per case.
"""

import os
import re
import subprocess
import sys

KERNELS = ("Prescott", "Sandybridge", "Haswell", "Zen", "SkylakeX")
THREADS = (1, 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) tests/test_golden\.py::test_golden_digests\[(\w+)\]")


def run_case(kernel: str, threads: int) -> dict[str, str]:
    """Golden case name -> PASSED, FAILED or ERROR, under one kernel and thread count."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_golden.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    outcomes = dict(
        (m.group(2), m.group(1))
        for m in map(OUTCOME.match, result.stdout.splitlines())
        if m
    )
    if not outcomes:
        sys.exit(f"no golden results under {kernel}/{threads}:\n{result.stdout}{result.stderr}")
    return outcomes


def main() -> None:
    print(f"{'kernel':<12} {'threads':>7} {'passed':>7}  failing cases")
    for kernel in KERNELS:
        for threads in THREADS:
            outcomes = run_case(kernel, threads)
            failing = sorted(name for name, outcome in outcomes.items() if outcome != "PASSED")
            passed = f"{len(outcomes) - len(failing)}/{len(outcomes)}"
            print(f"{kernel:<12} {threads:>7} {passed:>7}  {', '.join(failing) or '-'}", flush=True)


if __name__ == "__main__":
    main()
