"""Seed robustness of the batch-count dial: the A5 and A6 margins over seed triples.

The acceptance tests check criteria 5 and 6 at one seed triple, (3, 4, 5).
This report reruns both (``fedsim.claims``) at that triple and four more,
and prints each margin next to its bound. It gates nothing: a margin below
its bound is a finding about the claim at that seed, not a reason to pick
other seeds.

    PYTHONPATH=src python demos/seed_robustness.py

Criterion 5 (severe skew): max accuracy at batch count 1 minus at batch
count 20; bound 0.02. Criterion 6 (beats FedAvg): windowed training
(B=10, C=20) minus FedAvg at B=10, bound 0.02; and minus FedAvg at B=50,
which must stay above 0. Takes about 15 s per triple on one core.
"""

import fedsim as fs
from fedsim.claims import severe_skew, versus_fedavg

TRIPLES = [fs.Seeds(init=3 + 3 * t, shuffle=4 + 3 * t, partition=5 + 3 * t) for t in range(5)]
BOUND = 0.02


def main() -> None:
    print(f"seeds (init, shuffle, partition); A5 and A6 bound {BOUND}, A6 vs B=50 bound 0")
    print()
    print("seeds          A5 C=1-C=20   A6 vs avg B=10   A6 vs avg B=50")
    below = []
    for seeds in TRIPLES:
        triple = (seeds.init, seeds.shuffle, seeds.partition)
        skew = severe_skew(seeds)
        a5 = skew[1].log.max_accuracy() - skew[20].log.max_accuracy()
        mmb, avg_small, avg_large = (run.log.max_accuracy() for run in versus_fedavg(seeds))
        a6_small, a6_large = mmb - avg_small, mmb - avg_large
        flags = [
            name
            for name, ok in (("A5", a5 >= BOUND), ("A6", a6_small >= BOUND), ("A6-B50", a6_large > 0))
            if not ok
        ]
        below.extend(f"{name} at {triple}" for name in flags)
        mark = "  below: " + ", ".join(flags) if flags else ""
        print(f"{str(triple):13}  {a5:11.4f}   {a6_small:14.4f}   {a6_large:14.4f}{mark}", flush=True)
    print()
    print("every margin meets its bound" if not below else "below bound: " + "; ".join(below))


if __name__ == "__main__":
    main()
