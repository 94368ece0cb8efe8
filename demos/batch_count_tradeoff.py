"""The batch count as a communication/accuracy dial.

With homogeneous clients, raising the batch count (more local updates per
round at the same batch size) reaches a target accuracy in far fewer
communication rounds without hurting the plateau. The same dial turned up
under severe label skew trades accuracy away instead - see
seed_robustness.py for that side.
"""

from fedsim.claims import DIAL_SEEDS, DIAL_TARGET, iid_dial, train


def main() -> None:
    runs = train(iid_dial(DIAL_SEEDS))
    cfg = runs["C=1"].config

    print(f"{cfg.clients} iid clients, batch size {cfg.batch_size}, "
          f"learning rate {cfg.learning_rate}, target accuracy {DIAL_TARGET}")
    print()
    print("batch count   rounds to target   max accuracy   bytes to target")
    for config, log in runs.values():
        first = next((row for row in log.rows if row.test_accuracy >= DIAL_TARGET), None)
        reached, traffic = (None, "-") if first is None else (first.round, f"{first.cum_bytes:,}")
        accuracy = log.max_accuracy()
        print(f"{config.batch_count:11d}   {str(reached):>16}   {accuracy:12.4f}   {traffic:>15}")
    print()
    print("every batch-count step up cuts the communication needed for the")
    print("same target; the plateaus stay within a few thousandths")


if __name__ == "__main__":
    main()
