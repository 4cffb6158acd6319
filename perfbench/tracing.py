"""Span recorder for the traced pass, and the patching that attaches it.

The traced pass runs the same public functions that ``wemeval eval`` runs, in
the same order, inside the benchmark's own process. Each call into a layer is
wrapped so that it records one span: name, start, end, parent span, pair id
and a work count (frames, bytes or calls). Spans stay in memory until the
pass ends; nothing inside the program is changed on disk.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    pair: int
    work: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.pair = -1
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable, work: Callable[..., float]) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.pair, work(*args, **kwargs))

        return traced

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("traced pass ended with open spans")
        return list(self.spans)


def total(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def work(spans: list[Span], name: str) -> float:
    return sum(s.work for s in spans if s.name == name)


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the time its direct children cover.

    The pass is single-threaded, so children never overlap and their
    durations add up.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += s.seconds - child_time[i]
    return dict(out)


@contextlib.contextmanager
def patched(package: str, replacements: list[tuple[object, str, Callable]]):
    """Swap functions for their traced wrappers for the length of a block.

    Each replacement is (owner, attribute, wrapper). A module function is also
    replaced wherever another module of ``package`` imported it by name, and
    inside module-level dict tables that hold it, so every call path of the
    program reaches the wrapper. Everything is restored on exit.
    """
    undo: list[Callable[[], None]] = []

    def swap(target: dict | object, key: str, old: object, new: object) -> None:
        if isinstance(target, dict):
            target[key] = new
            undo.append(lambda: target.__setitem__(key, old))
        else:
            setattr(target, key, new)
            undo.append(lambda: setattr(target, key, old))

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    try:
        for owner, attr, wrapper in replacements:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                swap(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        swap(module, name, original, wrapper)
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is original:
                                swap(value, key, original, wrapper)
        yield
    finally:
        for action in reversed(undo):
            action()
