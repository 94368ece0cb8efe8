"""Work in two processes: the package's one fork runner.

``Worker`` forks one process that runs ``task(i)`` for each task index
``i`` it is sent and sends back the bytes the task returns. Two jobs use
it, each only when it is large enough to pay for the fork:

- a run whose rounds are long (``federated._splits``) trains half its
  clients in the worker, every round;
- a large ``normal_array`` (``rng.SPLIT_MIN_DRAWS``) draws half its lanes
  there, once.

Both pass their results through an anonymous shared mapping
(``shared_array``) that both processes see, so only short replies cross
the pipe. Both fork only when ``can_fork`` holds. A run that trains in two
processes, or evaluates on a worker thread, also holds BLAS at one thread
while it does (``one_blas_thread``).

The two processes talk over two pipes. The parent sends a task index; the
worker answers with ``+`` and the task's bytes, or with ``-`` and the type
and message of the exception it hit. Each message is its length in 8
bytes, then its bytes.

``_openblas`` finds the runtime API of the loaded OpenBLAS, which gives the
thread count and the kernel; ``fedsim run``'s sidecar records both.
"""

from __future__ import annotations

import functools
import gc
import mmap
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ContractError

# A worker's task: its index in, its reply out.
Task = Callable[[int], bytes]

# Environment variables that set the BLAS thread count at start-up.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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


class Worker:
    """A forked process that runs ``task(i)`` for each task index ``i`` it is sent.

    ``start(i)`` sends the index; ``finish`` returns the bytes the task
    returned, and raises ``ContractError``, naming the worker by ``name``,
    when the worker sends an exception or has died. The task sees the
    parent's memory as it was at the fork, plus whatever either side writes
    to a shared mapping (``shared_array``). The worker ignores SIGINT,
    closes the pipe ends it does not use, and exits with ``os._exit`` when
    it reads the end of its pipe, so it never runs the parent's cleanup.
    Leaving the ``with`` block closes the parent's pipe ends and reaps the
    worker, after at most the task it is running.
    """

    def __init__(self, task: Task, name: str):
        self.name = name
        self._index = None  # the task last started
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
                _serve(task, commands, replies)
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

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._commands)
        os.close(self._replies)
        os.waitpid(self.pid, 0)


def _serve(task: Task, commands: int, replies: int) -> None:
    """The worker's loop: run each task it is sent, until its pipe ends."""
    while (message := _receive(commands)) is not None:
        try:
            reply = b"+" + task(int.from_bytes(message, "little"))
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


class OpenBLAS(NamedTuple):
    """The runtime API of the OpenBLAS that numpy loaded, as ctypes functions."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_corename: Callable[[], bytes]


@functools.cache
def _openblas() -> OpenBLAS | None:
    """The loaded OpenBLAS's thread and kernel functions, or None where none is found.

    It looks, on Linux, in every mapped file whose name contains "blas", for
    ``<prefix>_get_num_threads<suffix>``, ``_set_num_threads`` and
    ``_get_corename``. numpy's bundled build uses the prefix
    ``scipy_openblas`` and the suffix ``64_``; other builds export plain
    ``openblas_*`` names. Opening a library that is already loaded gives
    the loaded copy, whose settings numpy's products use. The lookup runs
    once per process.
    """
    if sys.platform != "linux":
        return None
    import ctypes

    with open("/proc/self/maps") as maps:
        fields = (line.split(None, 5) for line in maps)
        paths = {f[5].strip() for f in fields if len(f) == 6}
    for path in sorted(p for p in paths if "blas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                names = [f"{prefix}_{f}{suffix}" for f in OpenBLAS._fields]
                if all(hasattr(lib, name) for name in names):
                    get, set_, core = (getattr(lib, name) for name in names)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    core.argtypes, core.restype = [], ctypes.c_char_p
                    return OpenBLAS(get, set_, core)
    return None


def blas_holds_one_thread() -> bool:
    """Whether a run can hold BLAS at one thread: the API is found, or the environment pins it.

    The environment pins it when at least one of ``_BLAS_THREAD_VARS`` is
    set and every one that is set reads 1.
    """
    if _openblas() is not None:
        return True
    values = [os.environ[name].strip() for name in _BLAS_THREAD_VARS if name in os.environ]
    return bool(values) and all(value == "1" for value in values)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block at one OpenBLAS thread, then restore the caller's count.

    A process forked inside the block starts at one thread too. Where the
    API is not found, the block runs as it is (``blas_holds_one_thread``).
    """
    api = _openblas()
    if api is None:
        yield
        return
    threads = api.get_num_threads()
    api.set_num_threads(1)
    try:
        yield
    finally:
        api.set_num_threads(threads)
