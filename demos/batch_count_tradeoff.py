"""The batch count as a communication/accuracy dial.

With homogeneous clients, raising the batch count (more local updates per
round at the same batch size) reaches a target accuracy in far fewer
communication rounds without hurting the plateau. The same dial turned up
under severe label skew trades accuracy away instead - see
fedavg_comparison.py for that side.
"""

import fedsim as fs
from fedsim.data import synthetic_split


def main() -> None:
    train, test = synthetic_split(seed=1, n_train=2000, n_test=600, input_dim=20, num_classes=3)
    spec = fs.NetworkSpec(20, (32,), 3)
    seeds = fs.Seeds(init=3, shuffle=4, partition=5)
    target = 0.75

    print("10 iid clients, batch size 10, learning rate 0.05, target accuracy 0.75")
    print()
    print("batch count   rounds to target   max accuracy   bytes to target")
    for batch_count in (1, 5, 20):
        clients = fs.partition_iid(train, 10, seeds.partition)
        cfg = fs.TrainingConfig(
            mode="fedmmb", learning_rate=0.05, max_rounds=600, batch_size=10,
            seeds=seeds, clients=10, batch_count=batch_count,
        )
        log = fs.run_fedmmb(cfg, spec, clients, test)
        reached = log.first_round_reaching(target)
        traffic = "-" if reached is None else f"{reached * fs.comm_cost(cfg, spec):,}"
        print(
            f"{batch_count:11d}   {str(reached):>16}   {log.max_accuracy():12.4f}   {traffic:>15}"
        )
    print()
    print("every batch-count step up cuts the communication needed for the")
    print("same target; the plateaus stay within a few thousandths")


if __name__ == "__main__":
    main()
