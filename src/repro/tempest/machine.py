"""The simulated multiprocessor: event loop, network, and barriers.

Discrete-event simulation with a single global event queue.  Events are
message deliveries and application-thread continuations; each node's
``busy_until`` serialises the work mapped onto its single processor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.lang.errors import RuntimeProtocolError, SimulationLimitError
from repro.obs import Observer
from repro.runtime.context import AccessTag, CostModel, Message, home_node
from repro.runtime.protocol import CompiledProtocol
from repro.tempest.network import Network, NetworkConfig
from repro.tempest.node import Node
from repro.tempest.stats import MachineStats

if TYPE_CHECKING:    # a plan is built by whoever runs with faults
    from repro.faults import FaultPlan


@dataclass
class MachineConfig:
    """Configuration of the simulated machine."""

    n_nodes: int = 8
    n_blocks: int = 64
    costs: CostModel = field(default_factory=CostModel)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    max_events: int = 5_000_000
    # Observability: None (the default) runs fully uninstrumented and is
    # guaranteed cycle-identical to a build without repro.obs.
    observer: Optional[Observer] = None
    # Fault injection: None (the default) keeps the perfect network and
    # the exact pre-fault-injection event stream.  With a plan attached,
    # messages get wire sequence numbers and the network may drop,
    # duplicate, delay, or stall-defer them.
    faults: Optional[FaultPlan] = None
    # Timeout/retry/dedup recovery at the node layer (its constants are
    # in repro.tempest.node); independent of ``faults`` (retries also
    # help on merely-slow networks).
    watchdog: bool = False


@dataclass
class SimResult:
    """Outcome of a simulated run."""

    stats: MachineStats
    cycles: int

    def __repr__(self) -> str:
        return f"<SimResult {self.stats.summary()}>"


class Machine:
    """A multiprocessor running one compiled protocol and one program
    per node."""

    def __init__(self, protocol: CompiledProtocol, programs: list[list],
                 config: Optional[MachineConfig] = None,
                 support: Optional[dict] = None):
        self.protocol = protocol
        self.config = config or MachineConfig()
        if len(programs) != self.config.n_nodes:
            raise ValueError(
                f"need {self.config.n_nodes} programs, got {len(programs)}")
        self.support = support or {}
        self.network = Network(self.config.network, plan=self.config.faults)
        # Wire sequence numbers exist only when faults or recovery are
        # on; otherwise messages keep seq=None and the whole fault path
        # is dead code.
        self._stamp_seqs = (self.config.faults is not None
                            or self.config.watchdog)
        self._wire_seq = 0
        # An Observer whose channels are all off (null sink, no metrics)
        # is dropped here so every emit site takes the uninstrumented
        # ``obs is None`` fast path -- ``bench/run.py --trace`` prices
        # an armed one as ``obs.sim_trace_price_ratio``.
        observer = self.config.observer
        if observer is not None and not observer.active:
            observer = None
        self.obs = observer
        self.printed: list = []   # (node, time, values) per handler Print
        self._events: list = []
        self._seq = 0
        self._barrier_waiting: list[tuple[int, int]] = []  # (node, time)
        # Tracing bookkeeping (touched only when self.obs is set):
        # highest event seq delivered per channel, for the reorder flag,
        # and the event-queue high-water mark.
        self._delivered_seq_hwm: dict[tuple[int, int], int] = {}
        self._event_queue_hwm = 0
        self.nodes = [
            Node(self, node_id, protocol, programs[node_id])
            for node_id in range(self.config.n_nodes)
        ]
        # Nodes still running a program: the size of the barrier group.
        # A node takes itself out when its program ends.
        self.unfinished = sum(not node.finished for node in self.nodes)

    # -- topology ---------------------------------------------------------

    def home_of(self, block: int) -> int:
        return home_node(block, self.config.n_nodes)

    def initial_state_for(self, node: int, block: int):
        """(state, info, access) for a block record created on ``node``."""
        protocol = self.protocol
        if home_node(block, self.config.n_nodes) == node:
            return (protocol.initial_home_state, protocol.initial_info(),
                    AccessTag.READ_WRITE)
        return (protocol.initial_cache_state, protocol.initial_info(),
                AccessTag.INVALID)

    # -- event queue ---------------------------------------------------------

    def _push(self, time: int, kind: str, payload) -> int:
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        return self._seq

    def next_wire_seq(self) -> int:
        """The next wire sequence number; senders ask only when
        ``_stamp_seqs`` is on."""
        self._wire_seq += 1
        return self._wire_seq

    def inject(self, message: Message, send_time: int) -> None:
        """Transmit ``message`` at ``send_time``: the one way onto the
        wire, for sends, watchdog retries and replayed replies alike."""
        network = self.network
        obs = self.obs
        if network.plan is None:
            # Network.arrival_time, inline (tests hold the two equal).
            config = network.config
            arrival = send_time + config.latency
            if config.jitter > 0:
                arrival += network._rng.randrange(config.jitter + 1)
            else:
                channel = (message.src, message.dst)
                clamp = network._last_arrival.get(channel, 0) + 1
                if clamp > arrival:
                    arrival = clamp
                network._last_arrival[channel] = arrival
            network.messages_carried += 1
            self._seq = seq = self._seq + 1
            heapq.heappush(self._events, (arrival, seq, "deliver", message))
            if obs is not None:
                obs.send(seq, message.tag, message.block, message.src,
                         message.dst, message.data is not None, send_time,
                         arrival)
                if len(self._events) > self._event_queue_hwm:
                    self._event_queue_hwm = len(self._events)
            return
        arrivals = network.deliveries(message, send_time)
        if not arrivals:
            if obs is not None:
                obs.net_drop(message.tag, message.block, message.src,
                             message.dst, send_time)
            return
        for arrival, how in arrivals:
            seq = self._push(arrival, "deliver", message)
            if obs is not None:
                if how == "deliver":
                    obs.send(seq, message.tag, message.block, message.src,
                             message.dst, message.data is not None,
                             send_time, arrival)
                else:
                    obs.net_dup(seq, message.tag, message.block,
                                message.src, message.dst, send_time,
                                arrival)
        if obs is not None and len(self._events) > self._event_queue_hwm:
            self._event_queue_hwm = len(self._events)

    # -- barriers ----------------------------------------------------------------
    #
    # The barrier group is the unfinished nodes: a barrier is released
    # once every node still running a program waits at it, whether its
    # last member arrived or finished its program instead.

    def barrier_arrive(self, node_id: int, at_time: int) -> bool:
        """Returns True if this arrival releases the barrier (caller
        continues synchronously); otherwise the node waits."""
        self._barrier_waiting.append((node_id, at_time))
        if len(self._barrier_waiting) < self.unfinished:
            return False
        self._release_barrier(at_time, node_id)
        return True

    def leave_barrier_group(self, at_time: int) -> None:
        """A node's program ended at ``at_time``: the barrier group
        shrinks, which releases the nodes waiting at a barrier if they
        were waiting for that node alone."""
        self.unfinished -= 1
        if self._barrier_waiting and (
                len(self._barrier_waiting) == self.unfinished):
            self._release_barrier(at_time, None)

    def _release_barrier(self, at_time: int, arriving) -> None:
        """Release every waiting node at the later of ``at_time`` and the
        last arrival.  The node ``arriving``, whose arrival completed the
        barrier, continues synchronously; the others are scheduled."""
        waiting, self._barrier_waiting = self._barrier_waiting, []
        release_time = at_time
        for _n, arrive_time in waiting:
            if arrive_time > release_time:
                release_time = arrive_time
        for waiting_id, arrive_time in waiting:
            node = self.nodes[waiting_id]
            node.at_barrier = False
            node.stats.barrier_wait_cycles += release_time - arrive_time
            node.busy_until = max(node.busy_until, release_time)
            if waiting_id != arriving:
                self._seq = seq = self._seq + 1
                heapq.heappush(self._events,
                               (release_time, seq, "app", waiting_id))

    # -- main loop -----------------------------------------------------------------

    def run(self) -> SimResult:
        """Run to completion; raises on protocol error or deadlock."""
        for node_id in range(self.config.n_nodes):
            self._push(0, "app", node_id)

        processed = 0
        obs = self.obs
        events = self._events
        nodes = self.nodes
        max_events = self.config.max_events
        heappop = heapq.heappop
        while events:
            processed += 1
            if processed > max_events:
                raise SimulationLimitError(
                    f"simulation exceeded {max_events} events "
                    f"at cycle {events[0][0]} with "
                    f"{len(events)} events pending; livelock?")
            time, seq, kind, payload = heappop(events)
            if kind == "deliver":
                message: Message = payload
                if obs is not None:
                    channel = (message.src, message.dst)
                    hwm = self._delivered_seq_hwm.get(channel, 0)
                    obs.deliver(seq, message.tag, message.block,
                                message.src, message.dst, time,
                                reorder=seq < hwm)
                    if seq > hwm:
                        self._delivered_seq_hwm[channel] = seq
                nodes[message.dst].handle_message(message, time)
            elif kind == "app":
                nodes[payload].run_app(time)
            elif kind == "watchdog":
                node_id, block, epoch, attempt = payload
                nodes[node_id].watchdog_fire(block, epoch, attempt, time)
            else:  # pragma: no cover - exhaustive over event kinds
                raise RuntimeProtocolError(f"unknown event {kind!r}")

        self._check_deadlock()
        return SimResult(stats=self._collect_stats(),
                         cycles=self._execution_time())

    def _check_deadlock(self) -> None:
        stuck = [n for n in self.nodes if not n.finished]
        if not stuck:
            return
        finished = [n.node_id for n in self.nodes if n.finished]
        lines = ["deadlock: event queue drained but "
                 f"{len(stuck)} of {len(self.nodes)} nodes are unfinished"]
        for node in stuck:
            if node.blocked_on is not None:
                record = node.store.record(node.blocked_on)
                status = (f"blocked on block {node.blocked_on} "
                          f"(state {record.state_name})")
                if node.retries_exhausted:
                    status += (", retries exhausted after "
                               f"{node.stats.counters.retries} re-sends")
            elif node.at_barrier:
                status = "waiting at a barrier"
            else:
                status = "stalled"
            lines.append(f"  node {node.node_id}: pc={node.pc} {status}")
            transients = []
            for record in node.store.records():
                state = self.protocol.states.get(record.state_name)
                transient = state is not None and state.transient
                if transient or record.deferred:
                    entry = f"block {record.block} in {record.state_name}"
                    if record.deferred:
                        entry += (f" ({len(record.deferred)} queued: "
                                  + ", ".join(
                                      m.tag for m in record.deferred[:3])
                                  + ("..." if len(record.deferred) > 3
                                     else "") + ")")
                    transients.append(entry)
            if transients:
                lines.append("    " + "; ".join(transients))
        if finished:
            lines.append(f"  finished nodes: {finished}")
        plan = self.network.plan
        if plan is not None:
            lines.append(f"  fault ledger: {plan.ledger.summary()}")
        raise RuntimeProtocolError("\n".join(lines))

    def _execution_time(self) -> int:
        return max((n.busy_until for n in self.nodes), default=0)

    def _collect_stats(self) -> MachineStats:
        stats = MachineStats(nodes=[n.stats for n in self.nodes])
        stats.execution_cycles = self._execution_time()
        stats.messages = self.network.messages_carried
        obs = self.obs
        if obs is not None and obs.metrics is not None:
            stats.write_metrics(obs.metrics)
            obs.metrics.gauge("event_queue_hwm", self._event_queue_hwm)
        return stats

    # -- post-run assertions (used by tests) -------------------------------------

    def assert_quiescent(self) -> None:
        """After a run: no transient states, no deferred messages."""
        for node in self.nodes:
            for record in node.store.records():
                state = self.protocol.states[record.state_name]
                if state.transient:
                    raise AssertionError(
                        f"node {node.node_id} block {record.block} ended in "
                        f"transient state {record.state_name}")
                if record.deferred:
                    raise AssertionError(
                        f"node {node.node_id} block {record.block} has "
                        f"{len(record.deferred)} undelivered deferred "
                        "messages")

    def coherence_snapshot(self) -> dict[int, dict]:
        """Access-tag view per block, for coherence invariant checks."""
        view: dict[int, dict] = {}
        for node in self.nodes:
            for record in node.store.records():
                entry = view.setdefault(record.block, {})
                entry[node.node_id] = record.access
        return view

    def assert_coherent(self) -> None:
        """Single-writer / multiple-reader invariant over access tags."""
        for block, entry in self.coherence_snapshot().items():
            writers = [n for n, a in entry.items() if a is AccessTag.READ_WRITE]
            readers = [n for n, a in entry.items() if a is AccessTag.READ_ONLY]
            if len(writers) > 1:
                raise AssertionError(
                    f"block {block} writable on nodes {writers}")
            if writers and readers:
                raise AssertionError(
                    f"block {block} writable on {writers} while readable "
                    f"on {readers}")
