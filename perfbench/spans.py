"""Spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each hooked function on the module that looks
it up (``membound.filter.sample_field_elements`` is galois work that the
filter layer calls), so calls from the benchmark and between layers both
pass through a span.  A span is ``[name, start, end, parent, note]``: the
parent is the index of the enclosing span or -1, and the note carries a
work count where the call's arguments give one.  Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

from membound import bruteforce as BF
from membound import filter as F
from membound import rate_distortion as RD


def _solve_name(args) -> str:
    family = "binary" if args[1].is_binary() else "logloss"
    return "rate_distortion.solve_" + family


def _elimination_cells(args) -> int:
    """k * m * min(k, m) for a (k, m) matrix: rank taken as its largest value."""
    k, m = args[0].shape
    return k * m * min(k, m)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _hook(self, module, attr: str, name, note=None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [
                name(args) if callable(name) else name,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else -1,
                note(args) if note else 0,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        self._hook(RD, "solve_rp", _solve_name)
        self._hook(RD, "metric_value", "rate_distortion.metric_value")
        self._hook(BF, "optimal_tiny_tester", "bruteforce.optimal_tiny_tester")
        for attr in ("build", "query_many", "measure_rates", "serialize", "deserialize"):
            self._hook(F, attr, "filter." + attr)
        self._hook(F, "WordStream", "galois.WordStream")
        self._hook(F, "sample_field_elements", "galois.sample_field_elements", lambda args: args[3])
        self._hook(F, "nullspace_of_matrix", "galois.nullspace_of_matrix", _elimination_cells)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed notes.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because the run has one thread.  The
        pseudo-name ``top`` totals the spans that have no parent.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, note) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["note"] += note
            if parent < 0:
                out["top"]["total_s"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, note in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "note": note}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a function that does nothing."""

    def noop():
        return None

    holder = types.SimpleNamespace(noop=noop)
    start = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    bare = time.perf_counter() - start
    Tracer()._hook(holder, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        holder.noop()
    return max(0.0, time.perf_counter() - start - bare) / calls
