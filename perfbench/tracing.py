"""Spans recorded around the benchmark's calls into each library layer.

Spans are kept in memory while a run measures and written out when it ends.
Each span has a name, a start and end (``perf_counter_ns``), the index of its
parent span and the id of the request it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Optional

_NO_SPAN = nullcontext()


class NullTracer:
    """Stands in for a tracer in untraced runs: records nothing."""

    request: Optional[object] = None

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """Nested spans of one thread; ``request`` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.request: Optional[object] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, self.request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms, where self time is a
        span's duration minus the time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - covered) / 1e6
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
