"""The reference successor engine: copy the world, run, freeze it back.

This is the checker's original successor path, moved out of
``src/repro/verify/`` once the journal-and-replay engine had replaced it
everywhere a user could reach.  It stays as the oracle
``tests/test_differential.py`` pins that engine against, so it shares as
little with it as a ``ModelChecker`` subclass can: its own move
enumeration (no congestion cache, no label or choice memo), its own
deep-copied :class:`MutableState` per successor (no journal, no effect
cache, no interning), and its own :class:`CheckerContext` written
directly on ``ProtocolContext``.  What it inherits is everything
*around* a successor -- the search loop, invariants, fault transitions,
counters, observers -- which treats ``_successors`` as a black box.
Its moves name no written slots, so each successor is keyed from
scratch and judged by the whole invariant suite: the stock engine's
slot-local judging is pinned against it.

It also keeps the starvation check's original analysis,
:func:`backward_stuck_thread`: backward reachability from "node *i*
runs" over a predecessor list, the oracle ``tests/test_liveness.py``
pins the forward component pass of ``repro.verify.starvation`` against.
"""

from __future__ import annotations

import time
from array import array
from typing import Optional

from repro.protocols import compile_named_protocol, entry_declaring
from repro.runtime.context import (
    Message,
    ProtocolContext,
    RuntimeCounters,
    ZERO_COSTS,
)
from repro.runtime.protocol import CompiledProtocol
from repro.tempest.memory import ACCESS_CHANGE_RESULT, AccessTag
from repro.verify.checker import ModelChecker, _LabelledViolation
from repro.verify.model import (
    AppView,
    BlockView,
    CheckerViolation,
    GlobalState,
    fault_for_access,
)

from helpers import check_setup


class MutableState:
    """A working copy of a :class:`GlobalState` that rules mutate."""

    def __init__(self, state: GlobalState, n_nodes: int, n_blocks: int):
        self.n_nodes = n_nodes
        self.n_blocks = n_blocks
        self.block_state = [
            [
                {
                    "state_name": view.state_name,
                    "state_args": view.state_args,
                    "info": dict(view.info),
                    "access": view.access,
                    "queue": list(view.queue),
                    "state_changed": False,
                }
                for view in node_blocks
            ]
            for node_blocks in state.blocks
        ]
        self.apps = [
            {"blocked_on": app.blocked_on, "gen": app.gen}
            for app in state.apps
        ]
        self.channels = [
            [list(channel) for channel in row] for row in state.channels
        ]
        self.faults = state.faults

    def freeze(self) -> GlobalState:
        return GlobalState(
            blocks=tuple(
                tuple(
                    BlockView(
                        state_name=rec["state_name"],
                        state_args=rec["state_args"],
                        info=tuple(sorted(rec["info"].items())),
                        access=rec["access"],
                        queue=tuple(rec["queue"]),
                    )
                    for rec in node_blocks
                )
                for node_blocks in self.block_state
            ),
            apps=tuple(
                AppView(blocked_on=app["blocked_on"], gen=app["gen"])
                for app in self.apps
            ),
            channels=tuple(
                tuple(tuple(channel) for channel in row)
                for row in self.channels
            ),
            faults=self.faults,
        )

    def record(self, node: int, block: int) -> dict:
        return self.block_state[node][block]


class CheckerContext(ProtocolContext):
    """ProtocolContext over a MutableState (no costs, no data values).
    Where ``data_presence`` holds, a block gains data only by RecvData,
    so upgrading an invalid block's access by AccessChange is an error."""

    def __init__(self, protocol: CompiledProtocol, state: MutableState,
                 node: int, home_of, data_presence: bool):
        self.protocol = protocol
        self.data_presence = data_presence
        self.state = state
        self._node = node
        self._home_of = home_of
        self._message: Optional[Message] = None
        self.counters = RuntimeCounters()
        self.costs = ZERO_COSTS
        self.woken: list[int] = []

    def begin(self, message: Message) -> None:
        self._message = message
        self.info = self.state.record(self._node, message.block)["info"]

    @property
    def node(self) -> int:
        return self._node

    @property
    def current_message(self) -> Message:
        assert self._message is not None
        return self._message

    def home_node(self, block: int) -> int:
        return self._home_of(block)

    # -- block record --------------------------------------------------------

    def _record(self) -> dict:
        return self.state.record(self._node, self.current_message.block)

    def set_state(self, state_name: str, args: tuple) -> None:
        record = self._record()
        if (state_name, args) != (record["state_name"], record["state_args"]):
            record["state_changed"] = True
        record["state_name"] = state_name
        record["state_args"] = args

    # -- Tempest mechanisms ------------------------------------------------------

    def send(self, dst: int, tag: str, block: int, payload: tuple,
             with_data: bool) -> None:
        self.counters.messages_sent += 1
        message = Message(tag, block, src=self._node, dst=dst,
                          payload=payload, data=() if with_data else None)
        self.state.channels[self._node][dst].append(message)

    def recv_data(self, block: int, mode: str) -> None:
        if self.current_message.data is None:
            self.error(
                f"RecvData but message {self.current_message.tag} "
                "carries no data")
            return
        self._set_access(block, mode)

    def access_change(self, block: int, mode: str) -> None:
        access = self.state.record(self._node, block)["access"]
        if (self.data_presence and access == AccessTag.INVALID.value
                and mode in ("Blk_Upgrade_RO", "Blk_Upgrade_RW")):
            self.error(f"AccessChange({mode}) on block {block} without data")
        self._set_access(block, mode)

    def _set_access(self, block: int, mode: str) -> None:
        tag = ACCESS_CHANGE_RESULT.get(mode)
        if tag is None:
            self.error(f"unknown access mode {mode!r}")
            return
        self.state.record(self._node, block)["access"] = tag.value

    def read_word(self, block: int, addr: int):
        return 0  # data values are not modelled (Section 7)

    def write_word(self, block: int, addr: int, value) -> None:
        pass

    def enqueue_current(self) -> None:
        self.counters.queue_allocs += 1
        self._record()["queue"].append(self.current_message)

    def retry_queued(self, block: int) -> None:
        self.state.record(self._node, block)["state_changed"] = True

    def wakeup(self, block: int) -> None:
        app = self.state.apps[self._node]
        if app["blocked_on"] == block:
            app["blocked_on"] = None
            self.woken.append(block)

    def error(self, message: str) -> None:
        raise CheckerViolation(message)

    def debug_print(self, values: list) -> None:
        pass

    def support_call(self, name: str, args: list):
        raise CheckerViolation(
            f"support routine {name!r} has no checker model")

    def support_const(self, name: str):
        raise CheckerViolation(
            f"abstract constant {name!r} has no checker model")


class ReferenceChecker(ModelChecker):
    """A :class:`ModelChecker` whose successors come from the
    copy-the-world path.  Labels, successor states and handler-fire
    counts must equal the stock engine's, in the same order."""

    def _count_fire(self, state_name: str, tag: str) -> Optional[str]:
        """Count the arm about to run for ``tag`` in ``state_name`` as
        it runs, and return its key for the profiler."""
        key = self._fire_keys[state_name, tag]
        if key is not None:
            fires = self._handler_fires
            fires[key] = fires.get(key, 0) + 1
        return key

    def _run_action(self, mutable: MutableState, node: int,
                    message: Message) -> CheckerContext:
        """One atomic protocol action: dispatch plus queue redelivery."""
        prof = self.profiler
        entry = entry_declaring(self.protocol.name)
        ctx = CheckerContext(self.protocol, mutable, node, self.home_of,
                             entry is None or entry.coherent)
        interp = self.interpreter_factory(self.protocol, ctx)
        record = mutable.record(node, message.block)
        record["state_changed"] = False
        key = self._count_fire(record["state_name"], message.tag)
        ctx.begin(message)
        if prof is None:
            interp.dispatch(record["state_name"], record["state_args"])
        else:
            t0 = time.perf_counter()
            interp.dispatch(record["state_name"], record["state_args"])
            prof.add_dispatch(key, time.perf_counter() - t0)
        while record["state_changed"] and record["queue"]:
            record["state_changed"] = False
            drained = record["queue"]
            record["queue"] = []
            for deferred in drained:
                key = self._count_fire(record["state_name"], deferred.tag)
                ctx.begin(deferred)
                if prof is None:
                    interp.dispatch(record["state_name"], record["state_args"])
                else:
                    t0 = time.perf_counter()
                    interp.dispatch(record["state_name"], record["state_args"])
                    prof.add_dispatch(key, time.perf_counter() - t0)
        return ctx

    def _apply_app_op(self, state: GlobalState, node: int, op: tuple,
                      new_gen: tuple) -> GlobalState:
        """Issue an application operation; returns the successor state."""
        mutable = MutableState(state, self.n_nodes, self.n_blocks)
        mutable.apps[node]["gen"] = new_gen
        kind = op[0]
        if kind in ("read", "write"):
            block = op[1]
            access = mutable.record(node, block)["access"]
            fault = fault_for_access(access, kind == "write")
            if fault is None:
                return mutable.freeze()  # hit: only the generator advanced
            mutable.apps[node]["blocked_on"] = block
            message = Message(fault, block, src=node, dst=node)
        else:  # program event (CAS, sync, LCM enter/exit, ...)
            _kind, tag, block = op[0], op[1], op[2]
            payload = op[3] if len(op) > 3 else ()
            mutable.apps[node]["blocked_on"] = block
            message = Message(tag, block, src=node, dst=node,
                              payload=payload)
        self._run_action(mutable, node, message)
        return mutable.freeze()

    def _apply_delivery(self, state: GlobalState, src: int, dst: int,
                        index: int) -> GlobalState:
        mutable = MutableState(state, self.n_nodes, self.n_blocks)
        message = mutable.channels[src][dst].pop(index)
        self._run_action(mutable, dst, message)
        return mutable.freeze()

    def _successors(self, state: GlobalState):
        """Yield ``(label, successor, None, True)``: no key delta, judged
        in full; CheckerViolation propagates (wrapped as
        _LabelledViolation)."""
        # Application events (gated while the network or a deferred queue
        # is congested, to keep the model finite -- see channel_cap).
        congested = any(
            len(channel) >= self.channel_cap
            for row in state.channels for channel in row
        ) or any(
            len(view.queue) >= self.channel_cap
            for node_blocks in state.blocks for view in node_blocks
        )
        for node in range(self.n_nodes):
            if congested:
                break
            app = state.apps[node]
            if app.blocked_on is not None:
                continue
            for choice in self.events.choices(app.gen, node, self.n_blocks):
                try:
                    successor = self._apply_app_op(
                        state, node, choice.op, choice.new_gen)
                except CheckerViolation as violation:
                    raise _LabelledViolation(choice.label, violation.message)
                yield choice.label, successor, None, True
        # Message deliveries (with bounded reordering).
        for src in range(self.n_nodes):
            for dst in range(self.n_nodes):
                channel = state.channel(src, dst)
                limit = min(len(channel), self.reorder_bound + 1)
                for index in range(limit):
                    label = (f"deliver {channel[index].tag} "
                             f"{src}->{dst}[{index}] blk="
                             f"{channel[index].block}")
                    try:
                        successor = self._apply_delivery(
                            state, src, dst, index)
                    except CheckerViolation as violation:
                        raise _LabelledViolation(label, violation.message)
                    yield label, successor, None, True
        if state.faults != (0, 0):
            for label, successor, *_move in self._play(
                    state, self._faults_of(state), {}):
                yield label, successor, None, True


# Parametrised tests select a successor engine by these names.
ENGINES = {"fast": ModelChecker, "legacy": ReferenceChecker}


def checker_for(cls, name: str, *, nodes: int = 2, addresses: int = 1,
                reorder: int = 0, faults=None, **kwargs) -> ModelChecker:
    """``cls`` over a registered protocol, with the events and invariants
    ``api.check`` would pick for it."""
    return cls(
        compile_named_protocol(name), n_nodes=nodes, n_blocks=addresses,
        reorder_bound=reorder, **check_setup(name),
        fault_budget=faults, **kwargs)


def reachable(checker: ModelChecker, cap: Optional[int] = None) -> list:
    """Breadth-first reachable states, the first ``cap`` of them.  A
    state whose expansion hits a protocol error (faults provoke them)
    contributes the successors generated before the error."""
    initial = checker.initial_state()
    seen, order, cursor = {initial}, [initial], 0
    while cursor < len(order) and (cap is None or len(order) < cap):
        try:
            for _, successor, *_move in checker._successors(order[cursor]):
                if successor not in seen:
                    seen.add(successor)
                    order.append(successor)
        except _LabelledViolation:
            pass
        cursor += 1
    return order if cap is None else order[:cap]


def successor_key(checker: ModelChecker, key, successor, delta):
    """The key the search gives a move's successor out of a state keyed
    ``key``: the state itself, the parent's key with the move's delta,
    or the checker's fingerprint of it."""
    if not checker.fingerprint_states:
        return successor
    return checker.fingerprint_fn(successor) if delta is None else key ^ delta


def record_expansions(checker: ModelChecker) -> list:
    """Arm ``checker`` to log the ``(label, successor key, judge)`` of
    every move its expand step yields -- the key stream of the engine
    users run, incremental keys included -- and return the (live) log."""
    log: list = []
    expand = checker._expand

    def recording(state, key):
        for move in expand(state, key):
            label, successor, delta, judge = move
            log.append((label, successor_key(checker, key, successor, delta),
                        judge))
            yield move

    checker._expand = recording
    return log


def backward_stuck_thread(n_nodes: int, blocked, offsets, targets,
                          renamings=None, group=None):
    """``repro.verify.starvation.stuck_thread`` by backward reachability
    over (index, node) pairs: the same arguments and the same answer."""
    size = len(blocked)
    width = 1 if group is None else len(group)
    # Predecessors in CSR form, a counting sort of the edges by target;
    # each entry is ``source * width + renaming``.
    starts = array("q", [0]) * (size + 1)
    for target in targets:
        starts[target + 1] += 1
    for k in range(size):
        starts[k + 1] += starts[k]
    fill = array("q", starts)
    preds = array("q", [0]) * len(targets)
    for source in range(size):
        base = source * width
        for edge in range(offsets[source], offsets[source + 1]):
            target = targets[edge]
            preds[fill[target]] = base + (renamings[edge] if group else 0)
            fill[target] += 1
    # inverse[g][j]: the successor's node that renaming g maps onto j.
    inverse = [[renaming.index(j) for j in range(n_nodes)]
               for renaming in (group or [tuple(range(n_nodes))])]
    # wakes[k * n_nodes + node]: node runs in k or in a state k reaches.
    wakes = bytearray(size * n_nodes)
    work = array("q")
    for k, mask in enumerate(blocked):
        for node in range(n_nodes):
            if not mask >> node & 1:
                wakes[k * n_nodes + node] = 1
                work.append(k * n_nodes + node)
    while work:
        k, node = divmod(work.pop(), n_nodes)
        for entry in preds[starts[k]:starts[k + 1]]:
            source, renaming = divmod(entry, width)
            pair = source * n_nodes + inverse[renaming][node]
            if not wakes[pair]:
                wakes[pair] = 1
                work.append(pair)
    for node in range(n_nodes):
        index = wakes[node::n_nodes].find(0)
        if index >= 0:
            return node, index
    return None
