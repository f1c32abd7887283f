"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the engine: the benchmark replaces each
public function at the place it is looked up with a wrapper that opens a
span around the call.  Each thread keeps its own span stack.  Work handed to
a thread pool carries its submitter's innermost span along (see
``traced_executor``), so spans opened in pool workers get that span as their
parent even though ``ThreadPoolExecutor`` carries no context across threads.

A span's self time is its duration minus the part of its interval that its
child spans cover; children running in parallel threads count once.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Optional["Span"] = None
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span: Span) -> float:
    return span.duration - covered_time(
        span.start, span.end, [(c.start, c.end) for c in span.children])


@dataclass
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0   # summed over threads
    self_s: float = 0.0


class Tracer:
    """Collects finished spans and named counters; thread-safe."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    def open(self, name: str) -> Span:
        span = Span(name, self.clock(), self.current())
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        with self._lock:
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def adopt(self, parent: Optional[Span], fn: Callable) -> Callable:
        """Run ``fn`` on another thread as if ``parent`` were open there.
        The task's duration is added to the counter ``pool_busy:<parent>``."""
        @functools.wraps(fn)
        def task(*args, **kwargs):
            previous = getattr(self._local, "adopted", None)
            self._local.adopted = parent
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if parent is not None:
                    self.count(f"pool_busy:{parent.name}", self.clock() - t0)
                self._local.adopted = previous
        return task

    def wrap(self, fn: Callable, name: str,
             record: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``record(tracer, result, *args, **kwargs)``
        runs after a successful call to update counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(self, result, *args, **kwargs)
            return result
        return traced

    def totals(self) -> dict[str, SpanTotals]:
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for span in self.spans:
            t = out[span.name]
            t.calls += 1
            t.busy_s += span.duration
            t.self_s += self_time(span)
        return out


def traced_executor(tracer: Tracer) -> type:
    """A ``ThreadPoolExecutor`` whose tasks run under the submitter's span."""
    class TracedExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)
    return TracedExecutor


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
