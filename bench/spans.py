"""In-memory spans for the traced run.

The benchmark wraps each call into a layer's public function in a span:
name, start, end, parent span and workload id.  Spans stay in memory and
are written once, when the run ends.  Timestamps are
``time.perf_counter()`` values, which on Linux read CLOCK_MONOTONIC and
so share one timeline between the parent and its children: spans a child
records are adopted under the span that covers that child's process.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a finished span; ``parent`` defaults to the open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "workload": self.workload,
                           "start": start, "end": end})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        index = self.add(name, time.perf_counter(), None)
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Take over spans a child process recorded, under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            inner = span["parent"]
            self.spans.append(dict(
                span, id=span["id"] + offset,
                parent=parent if inner is None else inner + offset))

    def save(self, path: str) -> None:
        own = self_times(self.spans)
        payload = {"workload": self.workload, "clock": "perf_counter_s",
                   "spans": [dict(span, self_s=own[span["id"]])
                             for span in self.spans]}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    own = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, reach)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        own[span["id"]] = span["end"] - span["start"] - covered
    return own


class NullTracer:
    """Stands in for a Tracer in the untraced run: records nothing."""

    spans = ()

    @contextmanager
    def span(self, name: str):
        yield None
