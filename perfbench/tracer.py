"""Spans recorded from outside the program, by wrapping its functions in place.

A span has a name, a start, an end, the span that was open when it began and
the id of the run (one workload repeat) it belongs to. Spans stay in memory;
``write_jsonl`` writes them out once the benchmark is done. Everything runs
on one thread, so an open-span stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

# (layer metric name, module, class or None, attribute) wrapped in a
# traced repeat. federated.py binds its callees by name, so they are wrapped
# in fedsim.federated, never as the package re-exports; rng and data methods
# are wrapped on their classes.
TRACED_CALLS = (
    ("nn.compute_gradients", "fedsim.federated", None, "compute_gradients"),
    ("nn.sgd_step", "fedsim.federated", None, "sgd_step"),
    ("nn.evaluate", "fedsim.federated", None, "evaluate"),
    ("nn.init_weights", "fedsim.federated", None, "init_weights"),
    ("federated.aggregate", "fedsim.federated", None, "aggregate"),
    ("federated.client_update", "fedsim.federated", None, "client_update_mmb"),
    ("federated.client_update", "fedsim.federated", None, "client_update_fedavg"),
    ("data.synthetic_split", "fedsim.config", None, "synthetic_split"),
    ("data.reshuffle", "fedsim.data", "BatchSchedule", "reshuffle"),
    ("rng.permutation", "fedsim.rng", "Xoshiro256PP", "permutation"),
    ("rng.normal_array", "fedsim.rng", "Xoshiro256PP", "normal_array"),
)

# Methods whose first argument after ``self`` is the element count.
SIZED = {"rng.permutation", "rng.normal_array"}


def owner_of(module: str, cls: str | None):
    """The module, or the class in it, that holds a traced attribute (None if gone)."""
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls, None)


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    run_id: str
    size: int


class Tracer:
    """Keeps spans as plain tuples, appended when they close (children first)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block; yields ``[start, end]``, with end set on exit."""
        sid = next(self._ids)
        self._stack.append(sid)
        times = [perf_counter(), 0.0]
        try:
            yield times
        finally:
            times[1] = perf_counter()
            self._close(sid, name, times[0], times[1], 0)

    def _close(self, sid: int, name: str, start: float, end: float, size: int) -> None:
        stack = self._stack
        stack.pop()
        self.spans.append((sid, stack[-1] if stack else -1, name, start, end, self.run_id, size))

    def _wrapped(self, name: str, original: Callable) -> Callable:
        sized = name in SIZED
        ids, stack, close = self._ids, self._stack, self._close

        def traced(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                close(sid, name, start, perf_counter(), args[1] if sized else 0)

        return traced

    def install(self) -> None:
        """Wrap every traced call that exists in this version of the program."""
        for name, module, cls, attr in TRACED_CALLS:
            owner = owner_of(module, cls)
            original = getattr(owner, attr, None)
            if original is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def since(self, index: int) -> list[Span]:
        """Spans closed since ``len(self.spans)`` was ``index``."""
        return [Span(*s) for s in self.spans[index:]]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.since(0):
                f.write(json.dumps(s._asdict()) + "\n")


class FirstCall:
    """Records when the first of some functions is first called, then unwraps them.

    Marks the start of the first training round without leaving a wrapper on
    the round path.
    """

    def __init__(self, targets: list[tuple[object, str]]) -> None:
        self.time: float | None = None
        self._patches = []
        for owner, attr in targets:
            original = getattr(owner, attr, None)
            if original is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapped(original))

    def _wrapped(self, original: Callable) -> Callable:
        def first(*args, **kwargs):
            if self.time is None:
                self.time = perf_counter()
                self.restore()
            return original(*args, **kwargs)

        return first

    def restore(self) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans: list[Span], w0: float, w1: float) -> dict[int, float]:
    """Self time of each span inside the window ``[w0, w1]``.

    A span's self time is the part of its interval inside the window that no
    child span covers. Children of one parent never overlap (one thread), so
    the covered part is the sum of the children's clipped durations.
    """

    def clipped(s: Span) -> float:
        return max(0.0, min(s.end, w1) - max(s.start, w0))

    own = {s.sid: clipped(s) for s in spans}
    result = dict(own)
    for s in spans:
        if s.parent in result:
            result[s.parent] -= own[s.sid]
    return result
