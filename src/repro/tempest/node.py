"""A simulated processor node: protocol engine plus application thread.

Each node owns a :class:`~repro.tempest.memory.BlockStore`, runs the
protocol's compiled handlers, and executes its
application program (a list of operations produced by
:mod:`repro.workloads`).  Protocol processing and application execution
share the node's single processor, serialised by ``busy_until``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Optional

from repro.lang.errors import RuntimeProtocolError
from repro.protocols import entry_declaring
from repro.runtime.context import Message, ProtocolContext
from repro.runtime.engine import CompiledEngine
from repro.tempest.memory import (
    ACCESS_CHANGE_RESULT,
    AccessTag,
    BlockStore,
    fault_event_for,
)
from repro.tempest.stats import NodeStats

# The watchdog (``MachineConfig.watchdog``): an application thread
# blocked on an access fault for WATCHDOG_TIMEOUT cycles has its captured
# request messages re-injected (same wire sequence numbers); each further
# retry waits WATCHDOG_BACKOFF times longer, up to WATCHDOG_RETRIES
# attempts.  A delivery whose (src, seq) was already processed is
# absorbed and the outputs of the first processing are re-sent instead,
# so retries are idempotent end to end; the newest DEDUP_CACHE (src, seq)
# pairs are remembered.
WATCHDOG_TIMEOUT = 4000
WATCHDOG_BACKOFF = 2.0
WATCHDOG_RETRIES = 5
DEDUP_CACHE = 65536

# Data presence: a cache gains a block's data only by RecvData, so an
# AccessChange that upgrades an invalid block grants access to data the
# node does not hold -- an error, unless the protocol's registry entry
# relaxes coherence (coherent=False: Buffered-Write's buffered write
# takes write access without a fetch).
_UPGRADES = frozenset(mode for mode in ACCESS_CHANGE_RESULT
                      if mode.startswith("Blk_Upgrade"))
_INVALID = AccessTag.INVALID
_READ_WRITE = AccessTag.READ_WRITE

# Message's own constructor is a Python frame; the send and fault paths,
# which build a message per send and per trap, fill the tuple directly.
_new_message = tuple.__new__


class NodeContext(ProtocolContext):
    """ProtocolContext implementation backed by a simulator node."""

    def __init__(self, node: "Node"):
        self._node = node
        self.node = node.node_id
        entry = entry_declaring(node.protocol.name)
        self.data_presence = entry is None or entry.coherent
        self.current_message: Optional[Message] = None
        self._record = None     # the current message's BlockRecord
        self.info = None        # and its info dict
        self.now = 0
        self.counters = node.stats.counters
        self.costs = node.machine.config.costs
        self.obs = node.machine.obs
        self._n_nodes = node.machine.config.n_nodes

    def home_node(self, block: int) -> int:
        return block % self._n_nodes      # context.home_node, inline

    # -- block record --------------------------------------------------------

    def set_state(self, state_name: str, args: tuple) -> None:
        record = self._record
        if state_name != record.state_name or args != record.state_args:
            record.state_changed = True
            obs = self.obs
            if obs is not None:
                obs.state_change(self.node, record.block, record.state_name,
                                 state_name, args, self.now)
        record.state_name = state_name
        record.state_args = args

    # -- Tempest mechanisms ------------------------------------------------------

    def send(self, dst: int, tag: str, block: int, payload: tuple,
             with_data: bool) -> None:
        node = self._node
        counters = self.counters
        data = None
        if with_data:
            data = node.store[block].data
            counters.data_messages_sent += 1
        counters.messages_sent += 1
        machine = node.machine
        message = _new_message(Message, (
            tag, block, node.node_id, dst, payload, data,
            machine.next_wire_seq() if machine._stamp_seqs else None))
        if node.watchdog:
            node.record_output(message)
        machine.inject(message, self.now)

    def access_change(self, block: int, mode: str,
                      fetched: bool = False) -> None:
        tag = ACCESS_CHANGE_RESULT.get(mode)
        if tag is None:
            self.error(f"unknown access mode {mode!r}")
            return
        record = self._node.store[block]
        if (not fetched and mode in _UPGRADES and record.access is _INVALID
                and self.data_presence):
            self.error(f"AccessChange({mode}) on block {block} without data")
            return
        record.access = tag

    def recv_data(self, block: int, mode: str) -> None:
        message = self.current_message
        if message.data is None:
            self.error(
                f"RecvData but message {message.tag} carries no data")
            return
        record = self._node.store[block]
        record.data = message.data
        self.access_change(block, mode, True)

    def read_word(self, block: int, addr: int):
        data = self._node.store[block].data
        if not (0 <= addr < len(data)):
            self.error(f"ReadWord offset {addr} out of block bounds")
            return 0
        return data[addr]

    def write_word(self, block: int, addr: int, value) -> None:
        record = self._node.store[block]
        if not (0 <= addr < len(record.data)):
            self.error(f"WriteWord offset {addr} out of block bounds")
            return
        data = list(record.data)
        data[addr] = value
        record.data = tuple(data)

    def enqueue_current(self) -> None:
        self.counters.queue_allocs += 1
        record = self._record
        record.defer(self.current_message)
        obs = self.obs
        if obs is not None:
            obs.queue_defer(self.node, record.block,
                            self.current_message.tag,
                            len(record.deferred), self.now)

    def retry_queued(self, block: int) -> None:
        self._node.store[block].state_changed = True

    def wakeup(self, block: int) -> None:
        self._node.request_wakeup(block, self.now)

    def error(self, message: str) -> None:
        self.counters.errors += 1
        obs = self.obs
        if obs is not None:
            obs.error(self._node.node_id, message, self.now)
        raise RuntimeProtocolError(
            f"[node {self._node.node_id} t={self.now}] {message}")

    def debug_print(self, values: list) -> None:
        self._node.machine.printed.append(
            (self._node.node_id, self.now, tuple(values)))

    def support_call(self, name: str, args: list):
        registry = self._node.machine.support
        fn = registry.get(name)
        if fn is None:
            return super().support_call(name, args)
        return fn(self, *args)

    def support_const(self, name: str):
        registry = self._node.machine.support
        if name not in registry:
            return super().support_const(name)
        return registry[name]


class Node:
    """One simulated processor."""

    def __init__(self, machine, node_id: int, protocol, program: list):
        self.machine = machine
        self.node_id = node_id
        self.protocol = protocol
        self.program = program
        self.pc = 0
        self.busy_until = 0
        self.blocked_on: Optional[int] = None
        self.fault_start = 0
        self.fault_block = -1  # block of the most recent fault (tracing)
        self.wake_pending = False
        self._in_app_fault = False
        self._pending_access: Optional[tuple] = None  # faulted read/write op
        self.at_barrier = False
        self.finished = not program
        self.observed: list[tuple[int, object]] = []  # logged read values
        self.stats = NodeStats(node_id)
        # Timeout/retry/dedup recovery (off = all of it disabled).
        self.watchdog = machine.config.watchdog
        self.retries_exhausted = False
        self._fault_epoch = 0                  # distinguishes fault instances
        self._fault_requests: dict[int, list] = {}   # block -> captured sends
        # At-least-once dedup: (src, seq) -> outputs of first processing.
        self._reply_cache: dict[tuple[int, int], list] = {}
        self._reply_order: deque = deque()
        self.store = BlockStore(node_id, machine.config.n_blocks,
                                machine.initial_state_for)
        self.ctx = NodeContext(self)
        self.engine = CompiledEngine(protocol, self.ctx)

    # -- protocol-side execution ----------------------------------------------

    def handle_message(self, message: Message, arrive_time: int) -> int:
        """Run one protocol action atomically: dispatch ``message`` (a
        delivery, or an access fault or program event trapped at
        ``arrive_time``), then redeliver the deferred messages each state
        change re-enables.  The node's processor is busy from the later
        of ``arrive_time`` and ``busy_until`` to the returned finishing
        time."""
        if self.watchdog and message.seq is not None:
            key = (message.src, message.seq)
            cached = self._reply_cache.get(key)
            if cached is not None:
                self._absorb_duplicate(cached, arrive_time)
                return self.busy_until
            self._remember(key)
        start = self.busy_until
        if arrive_time > start:
            start = arrive_time
        record = self.store[message.block]
        record.state_changed = False
        ctx = self.ctx
        ctx.current_message = message
        ctx._record = record
        ctx.info = record.info
        ctx.now = start
        engine = self.engine
        engine.dispatch(record.state_name, record.state_args)
        now = ctx.now

        # Queue redelivery: each state change re-enables the deferred
        # messages queued while the block sat in an intermediate state.
        while record.state_changed and record.deferred:
            record.state_changed = False
            for deferred in record.drain_deferred():
                self.stats.counters.queue_frees += 1
                now += self.machine.config.costs.queue_free
                obs = ctx.obs
                if obs is not None:
                    obs.queue_replay(self.node_id, deferred.block,
                                     deferred.tag, deferred.src, now)
                ctx.current_message = deferred
                ctx._record = record
                ctx.info = record.info
                ctx.now = now
                engine.dispatch(record.state_name, record.state_args)
                now = ctx.now
        self.busy_until = now
        self.stats.protocol_cycles += now - start
        return now

    def _remember(self, key: tuple[int, int]) -> None:
        """Register a first delivery; its outputs accumulate under ``key``
        (including outputs produced later, when a deferred delivery is
        finally replayed from the block's queue)."""
        self._reply_cache[key] = []
        self._reply_order.append(key)
        if len(self._reply_order) > DEDUP_CACHE:
            self._reply_cache.pop(self._reply_order.popleft(), None)

    def _absorb_duplicate(self, cached: list, arrive_time: int) -> None:
        """A delivery already processed once: skip the dispatch and re-send
        the outputs the first processing produced (same wire seqs, so the
        replay cascades hop by hop toward whoever lost a message)."""
        self.stats.counters.dups_absorbed += 1
        start = max(arrive_time, self.busy_until)
        now = start + self.machine.config.costs.dispatch
        for reply in tuple(cached):
            self.machine.inject(reply, now)
        self.busy_until = now
        self.stats.protocol_cycles += now - start

    def record_output(self, message: Message) -> None:
        """Attribute a sent message to the delivery being handled: app
        faults capture it for watchdog retry, stamped deliveries cache it
        for duplicate absorption."""
        cur = self.ctx.current_message
        if cur.seq is None:
            # An access fault or program event (self-dispatched,
            # unstamped): this send is part of the retryable request set.
            if cur.src == self.node_id and cur.dst == self.node_id:
                self._fault_requests.setdefault(
                    cur.block, []).append(message)
            return
        cached = self._reply_cache.get((cur.src, cur.seq))
        if cached is not None:
            cached.append(message)

    def watchdog_fire(self, block: int, epoch: int, attempt: int,
                      now: int) -> None:
        """A retry timer expired.  Stale timers (the fault completed, or a
        newer fault superseded it) are no-ops."""
        if (self.finished or self.blocked_on != block
                or self._fault_epoch != epoch):
            return
        self.stats.counters.timeouts += 1
        obs = self.machine.obs
        if obs is not None:
            obs.timeout(self.node_id, block, attempt,
                        now - self.fault_start, now)
        if attempt > WATCHDOG_RETRIES:
            self.retries_exhausted = True
            return
        state_name = self.store[block].state_name
        for message in self._fault_requests.get(block, ()):
            self.stats.counters.retries += 1
            if obs is not None:
                obs.retry(self.node_id, block, message.tag, message.dst,
                          attempt, now, state=state_name)
            self.machine.inject(message, now)
        delay = int(WATCHDOG_TIMEOUT * (WATCHDOG_BACKOFF ** attempt))
        self.machine._push(now + delay, "watchdog",
                           (self.node_id, block, epoch, attempt + 1))

    def request_wakeup(self, block: int, at_time: int) -> None:
        """Protocol called WakeUp(block): unblock the app thread if it is
        waiting on this block."""
        if self.blocked_on != block:
            return  # spurious wakeup; the paper's WakeUp is also a no-op here
        self.blocked_on = None
        self.wake_pending = True
        # Complete the faulted access *now*: the protocol handler that
        # called WakeUp has just installed the data and access rights, so
        # the restarted load/store succeeds at this instant.  (Deferring
        # it to the app event would open an unbounded re-fault window when
        # an invalidation lands in between -- a livelock the real Blizzard
        # avoids the same way.)  An access still insufficient re-faults.
        op = self._pending_access
        if op is not None:
            record = self.store[block]
            access = record.access
            if (access is _READ_WRITE if op[0] == "write"
                    else access is not _INVALID):   # as run_app's hit test
                self._pending_access = None
                self._hit(op, record)
        if not self._in_app_fault:
            # Woken by a later message handler: resume the app thread via
            # the event queue.  (Synchronous wakes continue inline.)
            machine = self.machine
            machine._seq = seq = machine._seq + 1
            heappush(machine._events, (at_time, seq, "app", self.node_id))

    def _hit(self, op: tuple, record) -> None:
        """A load or store its access tag allows: count it, store or log
        word 0 where the op asks for that, and advance the program
        (``run_app`` does the same inline)."""
        if op[0] == "write":
            self.stats.write_hits += 1
            if len(op) > 2:  # ('write', block, value): store word 0
                data = list(record.data)
                data[0] = op[2]
                record.data = tuple(data)
        else:
            self.stats.read_hits += 1
            if len(op) > 2 and op[2] == "log":
                self.observed.append((record.block, record.data[0]))
        self.pc += 1

    # -- application-side execution ----------------------------------------------

    def run_app(self, start_time: int) -> None:
        """Execute application operations until a blocking point."""
        if self.finished:
            return
        if self.blocked_on is not None:
            return  # still waiting on a fault
        now = self.busy_until
        if start_time > now:
            now = start_time
        if self.wake_pending:
            self.wake_pending = False
            self.stats.fault_wait_cycles += max(0, now - self.fault_start)
            obs = self.machine.obs
            if obs is not None:
                obs.fault_end(self.node_id, self.fault_block,
                              self.fault_start, now)

        costs = self.machine.config.costs
        program = self.program
        n_ops = len(program)
        stats = self.stats
        store = self.store
        while self.pc < n_ops:
            op = program[self.pc]
            kind = op[0]
            if kind == "compute":
                # Yield to the event queue for the duration: messages
                # arriving during the computation must be handled before
                # the next application operation sees the block
                # (otherwise the app races ahead of the network in
                # simulated time).  busy_until stays put, so protocol
                # handlers interleave with the computation and push the
                # resumption point out by the time they consume.
                stats.app_cycles += op[1]
                self.pc += 1
                self.busy_until = now
                machine = self.machine
                machine._seq = seq = machine._seq + 1
                heappush(machine._events,
                         (now + op[1], seq, "app", self.node_id))
                return
            elif kind in ("read", "write"):
                block = op[1]
                record = store[block]
                # The hit path, inline; _hit is the same for a faulted
                # access completed at its wakeup.
                if kind == "read":
                    if record.access is not _INVALID:
                        now += costs.read_hit
                        stats.read_hits += 1
                        if len(op) > 2 and op[2] == "log":
                            self.observed.append((block, record.data[0]))
                        self.pc += 1
                        continue
                elif record.access is _READ_WRITE:
                    now += costs.write_hit
                    stats.write_hits += 1
                    if len(op) > 2:  # ('write', block, value): store word 0
                        data = list(record.data)
                        data[0] = op[2]
                        record.data = tuple(data)
                    self.pc += 1
                    continue
                self._pending_access = op
                now = self._take_fault(
                    fault_event_for(record.access, kind == "write"), block,
                    (), now)
                if self.blocked_on is not None:
                    self.busy_until = now
                    return
                # Woken synchronously; the access completed (and pc
                # advanced) inside request_wakeup.
            elif kind == "event":
                _kind, tag, block = op[0], op[1], op[2]
                payload = op[3] if len(op) > 3 else ()
                now = self._take_fault(tag, block, payload, now)
                self.pc += 1  # events are not retried
                if self.blocked_on is not None:
                    self.busy_until = now
                    return
            elif kind == "barrier":
                self.pc += 1
                self.busy_until = now
                released = self.machine.barrier_arrive(self.node_id, now)
                if not released:
                    self.at_barrier = True
                    return
                now = max(now, self.busy_until)
            else:
                raise RuntimeProtocolError(
                    f"unknown application operation {op!r}")
        self.finished = True
        self.busy_until = now
        stats.finish_time = now
        self.machine.leave_barrier_group(now)

    def _take_fault(self, tag: str, block: int, payload: tuple,
                    now: int) -> int:
        """Trap into the protocol for an access fault or program event.

        Blocks the app thread until the protocol calls WakeUp; the wake
        may happen inside this very action (local satisfaction) or later
        via a message handler.
        """
        self.stats.faults += 1
        now += self.machine.config.costs.fault_trap
        self.blocked_on = block
        self.fault_start = now
        self.fault_block = block
        if self.watchdog:
            self._fault_epoch += 1
            self._fault_requests[block] = []
            self.retries_exhausted = False
        obs = self.machine.obs
        if obs is not None:
            obs.fault_begin(self.node_id, block, tag, now)
        node_id = self.node_id
        message = _new_message(Message, (tag, block, node_id, node_id,
                                         payload, None, None))
        self._in_app_fault = True
        try:
            # The app thread ran up to ``now``, so the action starts there.
            end = self.handle_message(message, now)
        finally:
            self._in_app_fault = False
        if self.blocked_on is None and self.wake_pending:
            # Satisfied without suspending: no fault wait time.
            self.wake_pending = False
            if obs is not None:
                obs.fault_end(self.node_id, block, self.fault_start, end,
                              sync=True)
        elif self.blocked_on is not None and self.watchdog:
            self.machine._push(end + WATCHDOG_TIMEOUT, "watchdog",
                               (self.node_id, block, self._fault_epoch, 1))
        return end
