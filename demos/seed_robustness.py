"""Seed robustness of the batch-count dial: the A5 and A6 margins over seed triples.

The acceptance tests check criteria 5 and 6 at one seed triple, (3, 4, 5).
This report reruns both (``fedsim.claims``) at that triple and four more,
and prints each margin next to its bound in ``claims.BOUNDS``. It gates
nothing: a margin below its bound is a finding about the claim at that
seed, not a reason to pick other seeds.

    PYTHONPATH=src python demos/seed_robustness.py

Criterion 6's arms share the learning rate and round budget, and each of
the 10 clients holds 2 of the 10 classes. FedAvg at B=10 takes the most
local steps and drifts hardest toward each client's own labels; windowed
training (B=10, C=20) takes FedAvg B=50's step count on smaller batches,
so batch size and update count are worth controlling separately. Takes
about 15 s per triple on one core.
"""

import fedsim as fs
from fedsim.claims import BOUNDS, failing, fedavg_margins, skew_margins
from fedsim.claims import severe_skew, train, versus_fedavg

TRIPLES = [fs.Seeds(init=3 + 3 * t, shuffle=4 + 3 * t, partition=5 + 3 * t) for t in range(5)]
CRITERIA = (5, 6)


def main() -> None:
    columns = [(c, name) for c in CRITERIA for name in BOUNDS[c]]
    width = max(len(str((s.init, s.shuffle, s.partition))) for s in TRIPLES)
    print("seeds (init, shuffle, partition); each margin's bound:")
    for c, name in columns:
        print(f"  A{c} {name} {BOUNDS[c][name]}")
    below = []
    for t, seeds in enumerate(TRIPLES):
        triple = (seeds.init, seeds.shuffle, seeds.partition)
        runs = train(versus_fedavg(seeds))
        margins = {5: skew_margins(train(severe_skew(seeds))), 6: fedavg_margins(runs)}
        if t == 0:
            print("the A6 arms, with their max accuracies in the first three columns below:")
            for name, (cfg, log) in runs.items():
                per_round = log.rows[-1].cum_local_updates // (cfg.max_rounds * cfg.clients)
                print(f"  {name}: {per_round} local updates per client per round")
            print()
            headers = list(runs) + [f"A{c} {name}" for c, name in columns]
            print(f"{'seeds':{width}}  " + "  ".join(headers))
        values = [run.log.max_accuracy() for run in runs.values()]
        values += [margins[c][n] for c, n in columns]
        flags = [f"A{c} {name}" for c in CRITERIA for name in failing(c, margins[c])]
        below.extend(f"{flag} at {triple}" for flag in flags)
        cells = "  ".join(f"{v:{len(h)}.4f}" for h, v in zip(headers, values))
        mark = "  below: " + ", ".join(flags) if flags else ""
        print(f"{str(triple):{width}}  {cells}{mark}", flush=True)
    print()
    print("every margin meets its bound" if not below else "below bound: " + "; ".join(below))


if __name__ == "__main__":
    main()
