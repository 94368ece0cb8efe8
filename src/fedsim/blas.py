"""The BLAS thread count every run trains at.

OpenBLAS's threaded matrix products sum in another order than its
one-thread ones, so a run's bits would depend on the caller's thread count
wherever a product is large enough to thread. The round loop therefore
holds one thread for every run (``one_blas_thread``) and restores the
caller's count when it returns or raises. ``_openblas`` finds the runtime
API of the loaded OpenBLAS, which gives the thread count and the kernel;
``fedsim run``'s sidecar records both. This module imports neither the fork
runner (``fedsim.split``) nor ``mmap``, so a serial run loads neither.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

# Environment variables that set the BLAS thread count at start-up.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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
