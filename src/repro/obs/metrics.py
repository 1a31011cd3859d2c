"""Per-handler metrics: dispatch counts, cycle histograms, allocations.

A :class:`MetricsRegistry` aggregates by ``(state, message)`` -- the
handler granularity the paper reasons at -- and answers "which handler
burned the cycles?" without a trace file.  Machine-level aggregates
(Table 1/2's columns) delegate to the same :class:`RuntimeCounters`
the statistics module always kept, so enabling metrics changes no
reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ioutil import atomic_write_json, read_json
from repro.lang.errors import TeapotError
from repro.runtime.context import RuntimeCounters

# Cycle histograms use power-of-two buckets; bucket i counts dispatches
# that took [2**(i-1), 2**i) cycles (bucket 0: zero cycles).
N_BUCKETS = 24


@dataclass
class HandlerMetrics:
    """Aggregates for one (state, message) handler."""

    dispatches: int = 0
    cycles: int = 0
    min_cycles: Optional[int] = None
    max_cycles: int = 0
    hist: list = field(default_factory=lambda: [0] * N_BUCKETS)
    suspends: int = 0
    cont_allocs: int = 0
    static_conts: int = 0
    resumes: int = 0
    queue_allocs: int = 0
    queue_hwm: int = 0
    retries: int = 0

    def record_dispatch(self, cycles: int) -> None:
        self.dispatches += 1
        self.cycles += cycles
        if self.min_cycles is None or cycles < self.min_cycles:
            self.min_cycles = cycles
        if cycles > self.max_cycles:
            self.max_cycles = cycles
        bucket = min(cycles.bit_length(), N_BUCKETS - 1)
        self.hist[bucket] += 1

    @property
    def mean_cycles(self) -> float:
        return self.cycles / self.dispatches if self.dispatches else 0.0


class MetricsRegistry:
    """Counters and cycle histograms keyed by (protocol, state, handler)."""

    def __init__(self, protocol: str = ""):
        self.protocol = protocol
        self.handlers: dict[tuple[str, str], HandlerMetrics] = {}
        self.totals: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    def handler(self, state: str, msg: str) -> HandlerMetrics:
        key = (state, msg)
        metrics = self.handlers.get(key)
        if metrics is None:
            metrics = self.handlers[key] = HandlerMetrics()
        return metrics

    # -- recording ---------------------------------------------------------

    def record_dispatch(self, state: str, msg: str, cycles: int) -> None:
        self.handler(state, msg).record_dispatch(cycles)

    def record_suspend(self, state: str, msg: str, static: bool) -> None:
        metrics = self.handler(state, msg)
        metrics.suspends += 1
        if static:
            metrics.static_conts += 1
        else:
            metrics.cont_allocs += 1

    def record_resume(self, state: str, msg: str) -> None:
        self.handler(state, msg).resumes += 1

    def record_queue(self, state: str, msg: str, depth: int) -> None:
        metrics = self.handler(state, msg)
        metrics.queue_allocs += 1
        if depth > metrics.queue_hwm:
            metrics.queue_hwm = depth

    def record_retry(self, state: str, msg: str) -> None:
        """A watchdog re-sent a request ``msg`` while the faulted block
        sat in protocol state ``state``; attributed to that arm so the
        report shows where retries pile up."""
        self.handler(state, msg).retries += 1

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def ingest_counters(self, counters: RuntimeCounters) -> None:
        """Adopt the machine-level totals Tables 1 and 2 are built from.

        Pure delegation: the values are read from the same
        :class:`RuntimeCounters` the simulator always maintained, so
        they match ``MachineStats.summary()`` exactly.
        """
        for name in counters.__dataclass_fields__:
            self.totals[name] = getattr(counters, name)

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "handlers": [
                {
                    "state": state,
                    "msg": msg,
                    "dispatches": m.dispatches,
                    "cycles": m.cycles,
                    "min_cycles": m.min_cycles,
                    "mean_cycles": round(m.mean_cycles, 2),
                    "max_cycles": m.max_cycles,
                    "hist": m.hist,
                    "suspends": m.suspends,
                    "cont_allocs": m.cont_allocs,
                    "static_conts": m.static_conts,
                    "resumes": m.resumes,
                    "queue_allocs": m.queue_allocs,
                    "queue_hwm": m.queue_hwm,
                    "retries": m.retries,
                }
                for (state, msg), m in sorted(
                    self.handlers.items(),
                    key=lambda item: -item[1].cycles)
            ],
            "totals": dict(self.totals),
            "gauges": dict(self.gauges),
        }

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json(), indent=2)

    def report(self) -> str:
        return format_metrics(self.to_json())


def format_metrics(data: dict) -> str:
    """Pretty-print an exported metrics dict (``teapot report``)."""
    lines = []
    protocol = data.get("protocol") or "<unknown>"
    lines.append(f"protocol: {protocol}")
    handlers = data.get("handlers", [])
    if handlers:
        show_retries = any(row.get("retries") for row in handlers)
        retry_head = f" {'retry':>6s}" if show_retries else ""
        lines.append(
            f"{'handler':34s} {'calls':>7s} {'cycles':>10s} {'mean':>8s} "
            f"{'max':>7s} {'susp':>5s} {'conts':>7s} {'queue':>7s}"
            + retry_head)
        for row in handlers:
            name = f"{row['state']}.{row['msg']}"
            conts = f"{row['cont_allocs']}/{row['static_conts']}"
            queue = f"{row['queue_allocs']}/{row['queue_hwm']}"
            retry_cell = (f" {row.get('retries', 0):>6d}"
                          if show_retries else "")
            lines.append(
                f"{name:34s} {row['dispatches']:>7d} {row['cycles']:>10d} "
                f"{row['mean_cycles']:>8.1f} {row['max_cycles']:>7d} "
                f"{row['suspends']:>5d} {conts:>7s} {queue:>7s}"
                + retry_cell)
        lines.append("(conts = heap/static continuation records; "
                     "queue = allocs/high-water mark)")
    totals = data.get("totals", {})
    if totals:
        shown = [
            "handler_dispatches", "messages_sent", "data_messages_sent",
            "cont_allocs", "static_cont_uses", "queue_allocs",
            "suspends", "resumes", "direct_resumes", "nacks",
        ]
        for name in ("timeouts", "retries", "dups_absorbed"):
            if totals.get(name):
                shown.append(name)
        parts = [f"{name}={totals[name]}" for name in shown
                 if name in totals]
        lines.append("totals:  " + "  ".join(parts))
    gauges = data.get("gauges", {})
    if gauges:
        parts = [f"{name}={value}" for name, value in sorted(gauges.items())]
        lines.append("gauges:  " + "  ".join(parts))
    return "\n".join(lines)


def load_metrics(path: str) -> dict:
    """A ``run --metrics`` export (it carries no ``kind``: its shape is
    judged by :func:`format_metrics`), or a one-line TeapotError."""
    return read_json(path, TeapotError, "metrics export")
