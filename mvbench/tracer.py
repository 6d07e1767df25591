"""Spans and work counters recorded from outside the program.

The tracer replaces a module attribute with a wrapper that records one
span per call: (name, start, end, parent), where the parent is the span
that was open when the call began. Callers inside mvteval look their
collaborators up as module globals at call time, so wrapping the name a
caller uses is enough to see every call it makes; nothing under ``src/``
is edited. A name that no longer exists is recorded as missing instead of
failing, and so is a name whose counting hook no longer fits its
arguments; the per-layer metrics built on either drop out of the report.

Spans are kept in memory, one list per evaluation, and written out when
the run ends. Self time is a span's duration minus the time of its
direct children; the program is single-threaded, so children never
overlap and their durations add.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

# A hook sees the counter dict, the call's arguments and its result.
CountHook = Callable[[Counter, tuple, Any], None]

Span = tuple[str, float, float, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.missing: list[str] = []  # "module.attr" of each name that was not found
        self.broken: set[str] = set()  # span names whose count hook raised
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, module: Any, attr: str, name: str, count: CountHook | None = None) -> None:
        """Record a span called ``name`` around every call of ``module.attr``."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, counts, broken = self.spans, self._stack, self.counts, self.broken
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None and name not in broken:
                try:
                    count(counts, args, result)
                except Exception:  # a changed signature must not fail the evaluation
                    broken.add(name)
            return result

        setattr(module, attr, traced)
        self.installed.add(name)
        self._installed.append((module, attr, original))

    def present(self, name: str) -> bool:
        """Whether spans and counts called ``name`` are being recorded in full."""
        return name in self.installed and name not in self.broken

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = list(self.spans)
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def remove(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def children_of(spans: list[Span], parent_name: str, child_name: str) -> list[list[Span]]:
    """For each span called ``parent_name``, its direct children called ``child_name``."""
    groups: dict[int, list[Span]] = {
        i: [] for i, span in enumerate(spans) if span[0] == parent_name
    }
    for span in spans:
        if span[0] == child_name and span[3] in groups:
            groups[span[3]].append(span)
    return [groups[i] for i in sorted(groups)]
