"""The worker process of a run that trains in two processes.

A run whose rounds are long (``federated._splits``) forks one worker
before its first round. Each round, the worker trains half the clients in
its rows of a client stack that both processes map, while the run's own
process trains the other half. Only such a run imports this module.

The two processes talk over two pipes. The parent sends a round index;
the worker answers with its clients' sample and step counts, or with the
type and message of the exception it hit. Each message is its length in
8 bytes, then its bytes.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
from typing import Callable

import numpy as np

from .errors import ContractError

# A worker's round: its clients' sample counts and step counts, in row order.
WorkerRound = Callable[[int], tuple[list[int], list[int]]]


def shared_stack(k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``[k, p]`` stack and a ``[p]`` vector in one anonymous shared mapping.

    A forked process shares the mapping, so each side sees what the other
    writes there.
    """
    flat = np.frombuffer(mmap.mmap(-1, 8 * (k + 1) * p), dtype=np.float64)
    return flat[: k * p].reshape(k, p), flat[k * p :]


class Worker:
    """A forked process that runs ``train(i)`` for each round ``i`` it is sent.

    ``train`` reads the global weights from ``weights``, a vector in a
    shared mapping (``shared_stack``), and writes its clients' rows of the
    shared stack. Each round the parent copies the global weights in and
    sends the round index (``start``); ``finish`` returns the counts the
    worker sends back, and raises ``ContractError`` when the worker sends
    an exception or has died. The worker ignores SIGINT, closes the pipe
    ends it does not use, and exits with ``os._exit`` when it reads the
    end of its pipe, so it never runs the parent's cleanup. Leaving the
    ``with`` block closes the parent's pipe ends and reaps the worker,
    after at most the round it is training.
    """

    def __init__(self, train: WorkerRound, weights: np.ndarray):
        self._weights = weights
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # The parent's objects are left alone: no finalizer of theirs
                # runs here, and no collection copies their pages.
                gc.freeze()
                os.close(self._commands)
                os.close(self._replies)
                _serve(train, commands, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(commands)
        os.close(replies)

    def start(self, round_index: int, weights: np.ndarray) -> None:
        """Copy in the global weights and have the worker train round ``round_index``."""
        self._weights[:] = weights
        try:
            _send(self._commands, round_index.to_bytes(8, "little"))
        except BrokenPipeError:
            raise ContractError("the training worker has exited") from None

    def finish(self, round_index: int) -> tuple[list[int], list[int]]:
        """The worker's sample and step counts for the round, once it has trained it."""
        reply = _receive(self._replies)
        if reply is None:
            raise ContractError(f"the training worker exited during round {round_index + 1}")
        if reply[:1] != b"+":
            raise ContractError(f"the training worker raised {reply[1:].decode()}")
        counts = np.frombuffer(reply, dtype=np.int64, offset=1).tolist()
        return counts[: len(counts) // 2], counts[len(counts) // 2 :]

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._commands)
        os.close(self._replies)
        os.waitpid(self.pid, 0)


def _serve(train: WorkerRound, commands: int, replies: int) -> None:
    """The worker's loop: train each round it is sent, until its pipe ends."""
    while (message := _receive(commands)) is not None:
        try:
            samples, steps = train(int.from_bytes(message, "little"))
            reply = b"+" + np.array(samples + steps, dtype=np.int64).tobytes()
        except Exception as exc:  # sent to the parent, which raises it
            reply = f"-{type(exc).__name__}: {exc}".encode()
        _send(replies, reply)


def _send(fd: int, payload: bytes) -> None:
    """Write ``payload`` to ``fd`` as one message: its length, then its bytes."""
    data = len(payload).to_bytes(8, "little") + payload
    while data:
        data = data[os.write(fd, data) :]


def _receive(fd: int) -> bytes | None:
    """The next message on ``fd`` (``_send``), or None if its writer closed it first."""
    head = _read(fd, 8)
    return None if head is None else _read(fd, int.from_bytes(head, "little"))


def _read(fd: int, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``fd``, or None if it ends first."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            return None
        data += chunk
    return data
