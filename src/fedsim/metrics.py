"""Run metrics, the federated/centralized discordance measure, and communication accounting."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import DataError
from .nn import NetworkSpec

CSV_HEADER = "round,test_loss,test_accuracy,train_loss,cum_local_updates,cum_bytes"

# The cells ``int`` and ``float`` read, as plain ASCII decimal literals: the
# two also take padding, digit-group underscores and other scripts' digits,
# so ``1_0`` would read as round 10.
_INT_CELL = re.compile(r"-?[0-9]+")
_FLOAT_CELL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


@dataclass(frozen=True)
class MetricsRow:
    round: int
    test_loss: float
    test_accuracy: float
    train_loss: float | None
    cum_local_updates: int
    cum_bytes: int


def _check_row(row: MetricsRow, line: str) -> None:
    """Reject cells no run writes: ``evaluate`` raises before logging such values."""
    losses = (row.test_loss,) if row.train_loss is None else (row.test_loss, row.train_loss)
    if not all(math.isfinite(v) for v in losses):
        raise DataError(f"non-finite loss in metrics row: {line!r}")
    if not 0.0 <= row.test_accuracy <= 1.0:
        raise DataError(f"accuracy outside [0, 1] in metrics row: {line!r}")
    if min(row.round, row.cum_local_updates, row.cum_bytes) < 0:
        raise DataError(f"negative count in metrics row: {line!r}")


@dataclass
class MetricsLog:
    """Per-evaluated-round metrics for one training run.

    Rows are strictly increasing in round number, one per evaluated round.
    """

    rows: list[MetricsRow] = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.round <= self.rows[-1].round:
            raise DataError("metrics rounds must be strictly increasing")
        self.rows.append(row)

    def rounds(self) -> list[int]:
        return [r.round for r in self.rows]

    def test_losses(self) -> list[float]:
        return [r.test_loss for r in self.rows]

    def max_accuracy(self) -> float:
        if not self.rows:
            raise DataError("empty metrics log")
        return max(r.test_accuracy for r in self.rows)

    def first_round_reaching(self, target_accuracy: float) -> int | None:
        """First evaluated round with accuracy >= target, or None if never."""
        for r in self.rows:
            if r.test_accuracy >= target_accuracy:
                return r.round
        return None

    def to_csv_string(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            train_loss = "" if r.train_loss is None else repr(r.train_loss)
            lines.append(
                f"{r.round},{r.test_loss!r},{r.test_accuracy!r},{train_loss},"
                f"{r.cum_local_updates},{r.cum_bytes}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_string(cls, text: str) -> "MetricsLog":
        """Parse a metrics CSV; lines may end in ``\\n`` or ``\\r\\n``.

        Every cell must be a plain decimal literal (``DataError``), as
        ``to_csv_string`` writes it; ``train_loss`` may be empty.
        """
        lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise DataError(f"metrics CSV must start with header {CSV_HEADER!r}")
        log = cls()
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != 6:
                raise DataError(f"malformed metrics row: {ln!r}")
            r, loss, accuracy, train_loss, updates, sent = cells
            floats = [loss, accuracy] + ([train_loss] if train_loss else [])
            if not (
                all(map(_INT_CELL.fullmatch, (r, updates, sent)))
                and all(map(_FLOAT_CELL.fullmatch, floats))
            ):
                raise DataError(f"malformed metrics row: {ln!r} (a cell is not a decimal literal)")
            try:
                row = MetricsRow(
                    round=int(r),
                    test_loss=float(loss),
                    test_accuracy=float(accuracy),
                    train_loss=float(train_loss) if train_loss else None,
                    cum_local_updates=int(updates),
                    cum_bytes=int(sent),
                )
            except ValueError as exc:  # an integer past int()'s digit limit
                raise DataError(f"malformed metrics row: {ln!r} ({exc})") from exc
            _check_row(row, ln)
            log.append(row)
        return log

    @classmethod
    def from_csv(cls, path: str) -> "MetricsLog":
        try:
            with open(path, newline="") as f:
                return cls.from_csv_string(f.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read metrics CSV {path}: {exc}") from exc


@dataclass(frozen=True)
class DiscordanceReport:
    """Mean squared gap between two test-loss trajectories."""

    delta: float
    epsilon: float
    concordant: bool
    rounds_compared: int


def discordance(fed: MetricsLog, cent: MetricsLog, epsilon: float) -> DiscordanceReport:
    """Mean squared test-loss difference over the shared evaluated rounds.

    The two logs must have been evaluated at identical rounds; the runs are
    declared concordant when the mean squared gap stays below ``epsilon``.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DataError(f"epsilon must be finite and positive, got {epsilon}")
    if fed.rounds() != cent.rounds():
        raise DataError("metrics logs do not share the same evaluated rounds")
    if not fed.rows:
        raise DataError("cannot compare empty metrics logs")
    total = 0.0
    for a, b in zip(fed.test_losses(), cent.test_losses()):
        total += (a - b) ** 2
    delta = total / len(fed.rows)
    return DiscordanceReport(
        delta=delta,
        epsilon=epsilon,
        concordant=delta < epsilon,
        rounds_compared=len(fed.rows),
    )


def comm_cost(config, spec: NetworkSpec) -> int:
    """Bytes exchanged per round: float64 parameters, down- and uplink, all clients.

    Centralized runs exchange nothing and report zero bytes per round.
    """
    if config.clients is None:
        return 0
    return spec.parameter_count * 8 * 2 * config.clients
