"""Measurement counters for simulated runs.

These back the columns of Tables 1 and 2: execution time in cycles,
continuation/queue records allocated, and the fraction of time spent
waiting on faults and message handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.context import RuntimeCounters


@dataclass
class NodeStats:
    """Per-node accounting."""

    node: int
    counters: RuntimeCounters = field(default_factory=RuntimeCounters)
    protocol_cycles: int = 0     # time inside protocol handlers
    app_cycles: int = 0          # time executing application operations
    fault_wait_cycles: int = 0   # time the app thread sat blocked on a fault
    barrier_wait_cycles: int = 0
    faults: int = 0
    read_hits: int = 0
    write_hits: int = 0
    finish_time: int = 0


@dataclass
class MachineStats:
    """Whole-machine accounting, aggregated from the nodes."""

    nodes: list[NodeStats] = field(default_factory=list)
    execution_cycles: int = 0
    messages: int = 0

    @property
    def counters(self) -> RuntimeCounters:
        total = RuntimeCounters()
        for node in self.nodes:
            total.merge(node.counters)
        return total

    @property
    def alloc_records(self) -> int:
        """Continuation + queue records allocated on all nodes."""
        return self.counters.alloc_records

    @property
    def fault_time_fraction(self) -> float:
        """Unweighted average across nodes of each node's own
        (fault wait time / run time) fraction.

        A node's run time is its ``finish_time`` when recorded (nodes
        finish at different times, so dividing everyone by the global
        ``execution_cycles`` would understate the fault share of nodes
        that finished early); ``execution_cycles`` is the fallback for
        nodes without a finish time.  Nodes with no run time at all
        contribute a fraction of zero rather than dividing by zero.
        """
        if not self.nodes:
            return 0.0
        fractions = []
        for node in self.nodes:
            run_time = node.finish_time or self.execution_cycles
            if run_time <= 0:
                fractions.append(0.0)
            else:
                fractions.append(node.fault_wait_cycles / run_time)
        return sum(fractions) / len(fractions)

    @property
    def total_faults(self) -> int:
        return sum(node.faults for node in self.nodes)

    def summary(self) -> str:
        counters = self.counters
        return (
            f"cycles={self.execution_cycles} "
            f"msgs={self.messages} "
            f"faults={self.total_faults} "
            f"cont_allocs={counters.cont_allocs} "
            f"queue_allocs={counters.queue_allocs} "
            f"fault_time={self.fault_time_fraction:.1%}"
        )

    def write_metrics(self, registry) -> None:
        """Write the run totals -- counters and the Table 1/2 gauges --
        into ``registry``."""
        registry.ingest_counters(self.counters)
        registry.gauge("execution_cycles", self.execution_cycles)
        registry.gauge("messages", self.messages)
        registry.gauge("faults", self.total_faults)
        registry.gauge("fault_time_fraction",
                       round(self.fault_time_fraction, 4))
