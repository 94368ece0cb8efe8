"""Seed robustness of the batch-count dial: the A5 and A6 margins over seed triples.

The acceptance tests check criteria 5 and 6 at one seed triple, (3, 4, 5).
This report reruns both at that triple and four more, with the same data,
shapes and bounds, and prints each margin next to its bound. It gates
nothing: a margin below its bound is a finding about the claim at that
seed, not a reason to pick other seeds.

    PYTHONPATH=src python demos/seed_robustness.py

Criterion 5 (severe skew): max accuracy at batch count 1 minus at batch
count 20; bound 0.02. Criterion 6 (beats FedAvg): windowed training
(B=10, C=20) minus FedAvg at B=10, bound 0.02; and minus FedAvg at B=50,
which must stay above 0. Takes about a minute per triple.
"""

import fedsim as fs
from fedsim.data import synthetic_split

TRIPLES = [fs.Seeds(init=3 + 3 * t, shuffle=4 + 3 * t, partition=5 + 3 * t) for t in range(5)]
BOUND = 0.02


def a5_margin(seeds: fs.Seeds) -> float:
    train, test = synthetic_split(21, 2000, 500, 20, 10)
    spec = fs.NetworkSpec(20, (32, 32), 10)
    accuracy = {}
    for batch_count in (1, 20):
        clients = fs.partition_noniid_l(train, 10, 2, seeds.partition)
        cfg = fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.08, max_rounds=2000, batch_size=10, seeds=seeds,
            clients=10, batch_count=batch_count, eval_every=10,
        )
        accuracy[batch_count] = fs.run_fedmmb(cfg, spec, clients, test).max_accuracy()
    return accuracy[1] - accuracy[20]


def a6_margins(seeds: fs.Seeds) -> tuple[float, float]:
    train, test = synthetic_split(31, 10000, 1000, 20, 10)
    spec = fs.NetworkSpec(20, (32, 32), 10)

    def max_accuracy(mode, batch_size, batch_count=None, local_epochs=None):
        clients = fs.partition_noniid_l(train, 10, 2, seeds.partition)
        cfg = fs.TrainingConfig(
            mode=mode, learning_rate=0.05, max_rounds=600, batch_size=batch_size,
            seeds=seeds, clients=10, batch_count=batch_count, local_epochs=local_epochs,
            eval_every=5,
        )
        driver = fs.run_fedmmb if mode == "fedmmb" else fs.run_fedavg
        return driver(cfg, spec, clients, test).max_accuracy()

    mmb = max_accuracy("fedmmb", 10, batch_count=20)
    avg_small = max_accuracy("fedavg", 10, local_epochs=1)
    avg_large = max_accuracy("fedavg", 50, local_epochs=1)
    return mmb - avg_small, mmb - avg_large


def main() -> None:
    print(f"seeds (init, shuffle, partition); A5 and A6 bound {BOUND}, A6 vs B=50 bound 0")
    print()
    print("seeds          A5 C=1-C=20   A6 vs avg B=10   A6 vs avg B=50")
    below = []
    for seeds in TRIPLES:
        triple = (seeds.init, seeds.shuffle, seeds.partition)
        a5 = a5_margin(seeds)
        a6_small, a6_large = a6_margins(seeds)
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
