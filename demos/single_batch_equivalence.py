"""Exact equivalence of single-mini-batch federated training and MBGD.

When every client takes one SGD step on one batch per round and the
centralized run consumes the concatenation of those same batches (the
oracle ``claims.lockstep_mbgd``, which takes the engine's checked step),
the two weight trajectories coincide to floating-point roundoff - not
approximately, but at the 1e-15 level, round after round.
This is the mechanism behind the federated/centralized concordance: the
sample-weighted average of one-step updates equals one step on the union
batch.
"""

import numpy as np

from fedsim.claims import LOCKSTEP_SEEDS, lockstep


def main() -> None:
    fed_weights, cent_weights = lockstep(LOCKSTEP_SEEDS)

    print("4 clients, batch size 10, one batch per round vs centralized batch 40 (lockstep)")
    print()
    print("round   max |W_fed - W_cent|")
    gaps = []
    for i, (a, b) in enumerate(zip(fed_weights, cent_weights), start=1):
        gaps.append(float(np.max(np.abs(a - b))))
        if i % 20 == 0 or i == 1:
            print(f"{i:5d}   {gaps[-1]:.3e}")
    print()
    print(f"worst gap over {len(gaps)} rounds: {max(gaps):.3e}  (tolerance 1e-10)")


if __name__ == "__main__":
    main()
