"""Work in two processes: the package's one fork runner.

``Worker`` forks one process that runs ``task(i)`` for each task index
``i`` it is sent and sends back the bytes the task returns. Three jobs use
it, each only when it is large enough to pay for the fork:

- a run whose rounds are long (``federated._splits``) trains half its
  clients in the worker and has it gather each round's rows while the
  parent finishes the round before (``prepare``);
- a run whose test set is large (``federated.EVAL_ASIDE_MACS``) evaluates
  there while the parent trains on, and its parent checks for the reply
  without waiting (``ready``); such a run trains half its clients there in
  every round where the worker is not evaluating;
- a large ``normal_array`` (``rng.SPLIT_MIN_DRAWS``) draws half its lanes
  there, once.

All pass their data through an anonymous shared mapping
(``shared_array``) that both processes see, so only short replies cross
the pipe. All fork only when ``can_fork`` holds. The set-up draw copies
the worker's floats out of the mapping chunk by chunk and frees each chunk
as it goes (``drain``), so the two copies are never whole at once. A run
that trains in two processes holds BLAS at one thread, as every run does
(``blas.one_blas_thread``), so the worker starts at one thread too.

The two processes talk over two pipes. The parent sends a task index; the
worker answers with ``+`` and the task's bytes, or with ``-`` and the type
and message of the exception it hit. Each message is its length in 8
bytes, then its bytes. The read end of each pipe is non-blocking: a
reader polls it for up to ``SPIN_S`` and only then blocks (``_read``), so a
message that comes within the spin wakes no sleeping process. The worker
is already polling when the parent sends the next index, and the parent
sees the reply within microseconds. A wait costs at most ``SPIN_S`` of CPU
time past the blocking one.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import sys
import threading
import time
from typing import Callable

import numpy as np

from .errors import ContractError

# A worker's task: its index in, its reply out.
Task = Callable[[int], bytes]
# Work a worker may do ahead of a task, given the index it expects next.
Prepare = Callable[[int], None]

# ``drain`` copies and frees a shared mapping this many floats (1 MB) at a time.
_DRAIN_FLOATS = 2**17

# A reader polls its pipe for up to this long before it blocks (``_read``),
# so a message that comes within it wakes no sleeping process: a blocking
# pipe round trip between two Python processes took 15 us median and
# 150-173 us at p99, a polled one 1.9 and 3.7 us. Measured on 2 vCPUs at one
# BLAS thread, a run's time over its time with blocking reads, median of 8
# alternating runs: a split run that evaluates aside (784-32-32-10, 10
# clients, 4 steps a round) 1.02 at 0.1 ms, 0.96 at 0.5 ms and 0.89 at 2 ms;
# 0.94 and 0.88 at 0.5 and 2 ms with a yield between polls (8 of 8 won);
# the ``skew_window`` shape (20-32-32-10, 20 steps a round) 0.95-0.97 at
# every budget from 0.1 to 2 ms. That run evaluated on a thread of the
# parent, which the yield let onto the CPU; evaluations now run in the
# worker, and the yield still gives the CPU to any other runnable process.
SPIN_S = 0.002


def can_fork() -> bool:
    """Whether this process may fork a worker.

    It may on Linux, with at least two CPUs to run on, and with no other
    Python thread: the worker would hold copies of locks that only those
    threads could release.
    """
    return (
        sys.platform == "linux"
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def shared_array(n: int) -> np.ndarray:
    """``n`` float64 values in an anonymous shared mapping.

    A forked process shares the mapping, so each side sees what the other
    writes there. The mapping is freed with the last array that views it.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


def drain(shared: np.ndarray, out: np.ndarray) -> None:
    """Copy a whole ``shared_array`` into ``out``, freeing its pages as they are copied.

    Each 1 MB chunk is copied, then removed from the mapping
    (``MADV_REMOVE``), which frees the shared pages themselves, not only
    this process's view of them; so the copy never holds both arrays
    whole. The mapping reads as zeros afterwards.
    """
    mapping = shared.base.obj
    for start in range(0, shared.size, _DRAIN_FLOATS):
        end = min(start + _DRAIN_FLOATS, shared.size)
        out[start:end] = shared[start:end]
        mapping.madvise(mmap.MADV_REMOVE, 8 * start, 8 * (end - start))


class Worker:
    """A forked process that runs ``task(i)`` for each task index ``i`` it is sent.

    ``start(i)`` sends the index; ``finish`` returns the bytes the task
    returned, and raises ``ContractError``, naming the worker by ``name``,
    when the worker sends an exception or has died; ``ready`` says, without
    waiting, whether the worker has replied or exited. The task sees the
    parent's memory as it was at the fork, plus whatever either side writes
    to a shared mapping (``shared_array``). With ``prepare``, the worker
    calls ``prepare(0)`` as soon as it starts and ``prepare(i + 1)`` as
    soon as it has replied to task ``i``, so work for the next task runs
    while the parent does its own; an exception there is sent as the next
    task's reply, and ``finish`` raises it. The worker ignores SIGINT,
    closes the pipe ends it does not use, and exits with ``os._exit`` when
    it reads the end of its pipe, so it never runs the parent's cleanup.
    Leaving the ``with`` block closes the parent's pipe ends and reaps the
    worker, after at most the task or preparation it is running.
    """

    def __init__(self, task: Task, name: str, prepare: Prepare | None = None):
        self.name = name
        self._index = None  # the task last started
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        os.set_blocking(commands, False)
        os.set_blocking(self._replies, False)
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
                _serve(task, prepare, commands, replies)
                code = 0
            finally:
                os._exit(code)
        os.close(commands)
        os.close(replies)

    def start(self, index: int) -> None:
        """Have the worker run task ``index``."""
        self._index = index
        try:
            _send(self._commands, index.to_bytes(8, "little"))
        except BrokenPipeError:
            raise ContractError(f"the {self.name} has exited") from None

    def finish(self) -> bytes:
        """The bytes the last task started returned, once the worker has run it."""
        reply = _receive(self._replies)
        if reply is None:
            raise ContractError(f"the {self.name} exited during task {self._index}")
        if reply[:1] != b"+":
            raise ContractError(f"the {self.name} raised {reply[1:].decode()}")
        return reply[1:]

    def ready(self) -> bool:
        """Whether the reply to the last task started, or the worker's exit, has come.

        It reads nothing, so ``finish`` still returns the reply. Only a
        caller that asks loads ``select`` (36 KB of RSS).
        """
        import select

        poll = select.poll()
        poll.register(self._replies, select.POLLIN)
        return bool(poll.poll(0))

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._commands)
        os.close(self._replies)
        os.waitpid(self.pid, 0)


def _serve(task: Task, prepare: Prepare | None, commands: int, replies: int) -> None:
    """The worker's loop: prepare the next task, run the one it is sent, until its pipe ends."""
    expected = 0
    while True:
        failed = None
        if prepare is not None:
            try:
                prepare(expected)
            except Exception as exc:  # sent in place of the next task's reply
                failed = exc
        if (message := _receive(commands)) is None:
            return
        index = int.from_bytes(message, "little")
        try:
            if failed is not None:
                raise failed
            reply = b"+" + task(index)
        except Exception as exc:  # sent to the parent, which raises it
            reply = f"-{type(exc).__name__}: {exc}".encode()
        _send(replies, reply)
        expected = index + 1


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
    """Exactly ``n`` bytes from the non-blocking ``fd``, or None if it ends first.

    It polls ``fd`` for up to ``SPIN_S``, yielding the CPU between polls,
    then waits for it blocking.
    """
    data = b""
    spin_until = time.perf_counter() + SPIN_S
    while len(data) < n:
        try:
            chunk = os.read(fd, n - len(data))
        except BlockingIOError:
            if time.perf_counter() < spin_until:
                os.sched_yield()
                continue
            chunk = _read_blocking(fd, n - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _read_blocking(fd: int, n: int) -> bytes:
    """Up to ``n`` bytes from the non-blocking ``fd``, waiting for the first."""
    os.set_blocking(fd, True)
    try:
        return os.read(fd, n)
    finally:
        os.set_blocking(fd, False)
