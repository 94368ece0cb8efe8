"""Windowed federated training vs federated averaging under label skew.

Acceptance criterion 6 (``fedsim.claims.versus_fedavg``): each of the 10
clients holds 2 of the 10 classes, and three runs share the learning rate
and round budget:

* windowed training (``fedmmb``), batch size 10, batch count 20 (20 updates/round),
* federated averaging at batch size 10 (one epoch = 100 updates/round),
* federated averaging at batch size 50 (one epoch = 20 updates/round).

The middle run drifts hardest - many low-noise local updates pull every
client toward its own two labels before each aggregation. Matching the
update count but shrinking the batch (first run) does better than
matching it by inflating the batch (third run): the batch size and the
update count are worth controlling separately.
"""

from fedsim.claims import DIAL_SEEDS, versus_fedavg


def main() -> None:
    runs = versus_fedavg(DIAL_SEEDS)
    cfg = runs[0].config
    print(f"{cfg.clients} clients, 2 labels each, eta={cfg.learning_rate}, {cfg.max_rounds} rounds")
    print()
    print("mode     B   updates/round   max accuracy")
    for cfg, log in runs:
        per_round = log.rows[-1].cum_local_updates // (cfg.max_rounds * cfg.clients)
        print(f"{cfg.mode}   {cfg.batch_size:2d}   {per_round:13d}   {log.max_accuracy():12.4f}")
    print()
    print("fewer, smaller local steps per round win under severe skew")


if __name__ == "__main__":
    main()
