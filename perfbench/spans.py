"""Span recorder for the traced replay: nested wall-clock spans kept in memory.

A span's name is ``<layer>.<call>``; the layer is the synthbrain module the
call belongs to. A layer's self time is its spans' time minus the time of
the spans they directly enclose.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records (name, parent, start, end) for every span; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer (the part before the first dot)."""
        dur = [end - start for _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += dur[i] - child[i]
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent is None)


class NullTracer:
    """Same interface, records nothing: for untraced re-runs of a replay phase."""

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def span_cost(repeats: int = 2000) -> float:
    """Seconds one empty span costs on this machine (median of 5 batches)."""
    costs = []
    for _ in range(5):
        t = Tracer()
        start = time.perf_counter()
        for _ in range(repeats):
            with t.span("x.y"):
                pass
        costs.append((time.perf_counter() - start) / repeats)
    return sorted(costs)[2]
