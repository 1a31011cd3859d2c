"""The checker's global-state model and its ProtocolContext.

A :class:`GlobalState` is an immutable, hashable snapshot of the whole
machine: every node's view of every block (protocol state, info record,
access tag, deferred queue), every network channel's contents, and every
node's application status.  It is stored as a flat tuple of small ints,
one interned id per component (see the tables below), so hashing,
comparing and copying a state are ``tuple``'s own C code.  A rule
executes against an :class:`ActionScratch` -- a copy-on-first-touch
journal over the frozen parent -- through :class:`ActionContext`; the
checker distils the journal into an :class:`ActionEffects` and replays
it onto the parent.

The paper's configuration -- "a minimal machine with 2 processor nodes
and 2 shared memory addresses ... our verifications did not test actual
data values" -- is the default here too; block data is not modelled.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.protocols import entry_declaring
from repro.runtime.context import (
    ACCESS_CHANGE_RESULT, AccessTag, Message, ProtocolContext,
    RuntimeCounters, ZERO_COSTS, fault_event_for, home_node)
from repro.runtime.protocol import CompiledProtocol


class BlockView(NamedTuple):
    """One node's frozen view of one block."""

    state_name: str
    state_args: tuple
    info: tuple           # sorted (name, value) pairs
    access: str           # AccessTag.value
    queue: tuple          # deferred Messages


class AppView(NamedTuple):
    """One node's frozen application status."""

    blocked_on: Optional[int]
    gen: tuple            # event-generator-specific state


# -- component ids ---------------------------------------------------------
#
# Millions of states are built out of a few hundred distinct parts.
# Each part gets a small int id when first seen (after Holzmann's
# COLLAPSE) and a state holds ids only.  The process-global tables are
# never evicted: they are bounded by the number of distinct parts.  Ids
# mean something in this process only, so nothing that leaves it
# carries one: a pickle ships the decoded fields
# (GlobalState.__reduce__), and fingerprints and checkpoints are
# functions of the decoded values.


class Memo(dict):
    """A dict that computes a missing entry with ``fill(key)`` and keeps
    it.  A hit is one C-level subscript: no Python frame runs."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


VIEWS: list = []          # view id -> BlockView
QUEUE_LEN: list = []      # view id -> len(view.queue)
APPS: list = []           # app id -> AppView
CHANNELS: list = []       # channel id -> tuple of Messages
CHANNEL_LEN: list = []    # channel id -> len(channel)
MESSAGES: list = []       # message id -> Message


def _ids_into(values: list, lens: Optional[list] = None,
              sized=lambda value: value) -> Memo:
    """value -> id, the next index of ``values`` on first sight (with
    ``len(sized(value))`` recorded in ``lens``)."""
    def assign(value) -> int:
        values.append(value)
        if lens is not None:
            lens.append(len(sized(value)))
        return len(values) - 1

    return Memo(assign)


VIEW_IDS = _ids_into(VIEWS, QUEUE_LEN, lambda view: view.queue)
APP_IDS = _ids_into(APPS)
CHANNEL_IDS = _ids_into(CHANNELS, CHANNEL_LEN)
MESSAGE_IDS = _ids_into(MESSAGES)
CHANNEL_IDS[()]     # the empty channel is id 0, so a set slot is a busy one
# (channel id, message id) -> id of that channel with the message sent:
APPENDED = Memo(lambda key: CHANNEL_IDS[
    CHANNELS[key[0]] + (MESSAGES[key[1]],)])


def _removed(key: tuple) -> tuple:
    channel, index = CHANNELS[key[0]], key[1]
    return (CHANNEL_IDS[channel[:index] + channel[index + 1:]],
            MESSAGE_IDS[channel[index]])


# (channel id, index) -> (id of that channel with the index-th message
# taken out, that message's id):
REMOVED = Memo(_removed)


# The three runs of ids in a state's layout (see GlobalState), of a
# state or of a list laid out like one.

def view_ids(ids):
    return ids[:ids[-2] * ids[-1]]


def app_ids(ids):
    return ids[ids[-2] * ids[-1]:ids[-2] * (ids[-1] + 1)]


def channel_ids(ids):
    return ids[ids[-2] * (ids[-1] + 1):-4]


class GlobalState(tuple):
    """A hashable snapshot of the entire verified system::

        ( view ids, node-major          n_nodes * n_blocks
        , app ids                       n_nodes
        , channel ids, src-major        n_nodes * n_nodes
        , drops, dups, n_nodes, n_blocks )

    ``drops, dups`` is the fault budget the exploration may still spend
    on this path; (0, 0) is fault-free checking.  ``blocks`` / ``apps`` /
    ``channels`` / ``faults`` decode the ids back to the nested tuples
    of records the keyword constructor takes.  The engine builds
    successors with ``tuple.__new__(GlobalState, ids)`` instead.
    """

    __slots__ = ()

    def __new__(cls, blocks: tuple, apps: tuple, channels: tuple,
                faults: tuple = (0, 0)):
        ids = [VIEW_IDS[view] for row in blocks for view in row]
        ids += [APP_IDS[app] for app in apps]
        ids += [CHANNEL_IDS[channel] for row in channels for channel in row]
        ids += (*faults, len(blocks), len(blocks[0]) if blocks else 0)
        return tuple.__new__(cls, ids)

    def __reduce__(self):
        return GlobalState, (self.blocks, self.apps, self.channels,
                             self.faults)

    def __repr__(self):
        return (f"GlobalState(blocks={self.blocks!r}, apps={self.apps!r}, "
                f"channels={self.channels!r}, faults={self.faults!r})")

    def _rows(self, values: list, start: int, width: int) -> tuple:
        """``n_nodes`` rows of ``width`` decoded slots from ``start``."""
        return tuple([      # (``or 1``: a machine of no nodes has no rows)
            tuple(map(values.__getitem__, self[at:at + width]))
            for at in range(start, start + self[-2] * width, width or 1)])

    @property
    def blocks(self) -> tuple:
        """blocks[node][block] -> BlockView"""
        return self._rows(VIEWS, 0, self[-1])

    @property
    def apps(self) -> tuple:
        """apps[node] -> AppView"""
        return tuple(map(APPS.__getitem__, app_ids(self)))

    @property
    def channels(self) -> tuple:
        """channels[src][dst] -> tuple[Message, ...]"""
        return self._rows(CHANNELS, self[-2] * (self[-1] + 1), self[-2])

    @property
    def faults(self) -> tuple:
        return self[-4:-2]

    def channel(self, src: int, dst: int) -> tuple:
        return CHANNELS[self[self[-2] * (self[-1] + 1 + src) + dst]]

    def messages_in_flight(self) -> int:
        return sum(map(CHANNEL_LEN.__getitem__, channel_ids(self)))

    def fingerprint(self) -> int:
        """Stable 64-bit digest of this state (hash compaction /
        parallel sharding); independent of PYTHONHASHSEED."""
        from repro.verify.fingerprint import fingerprint

        return fingerprint(self)

    def summary(self) -> str:
        parts = []
        for node, node_blocks in enumerate(self.blocks):
            for block, view in enumerate(node_blocks):
                parts.append(f"n{node}b{block}:{view.state_name}")
        blocked = [
            f"n{n}!b{a.blocked_on}" for n, a in enumerate(self.apps)
            if a.blocked_on is not None
        ]
        inflight = self.messages_in_flight()
        text = " ".join(parts)
        if blocked:
            text += "  blocked: " + ",".join(blocked)
        if inflight:
            text += f"  in-flight: {inflight}"
        if self.faults != (0, 0):
            text += f"  fault-budget: drop={self.faults[0]} dup={self.faults[1]}"
        return text


class CheckerViolation(Exception):
    """Raised inside a rule when a protocol error fires; aborts the rule."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class ActionScratch:
    """Copy-on-first-touch journal of ONE node's atomic action.

    Journals exactly what one action touches, over a frozen parent it
    never writes: block records of the acting node are copied lazily on
    first touch (the journal is the ``records`` map itself), sends
    accumulate in order, and the node's blocked-on marker is a scalar.
    The checker distils it into an :class:`ActionEffects` that replays
    onto any parent sharing the action's inputs.  Handlers read and
    write only the acting node's records and application status (the
    ``ProtocolContext`` accessors and ``info`` take the current
    message's block), which makes the journal and the effect cache
    built on it sound.
    """

    __slots__ = ("node", "records", "blocked_on", "sends",
                 "_parent_blocks")

    def __init__(self, parent: GlobalState, node: int):
        self.node = node
        self._parent_blocks = parent.blocks[node]
        self.records: dict = {}      # block -> working dict (the journal)
        self.blocked_on = parent.apps[node].blocked_on
        self.sends: list = []        # Messages in send order

    def record(self, block: int) -> dict:
        rec = self.records.get(block)
        if rec is None:
            view = self._parent_blocks[block]
            rec = self.records[block] = {
                "state_name": view.state_name,
                "state_args": view.state_args,
                "info": dict(view.info),
                "access": view.access,
                "queue": list(view.queue),
                "state_changed": False,
            }
        return rec

    def changed_views(self) -> tuple:
        """``(block, BlockView)`` pairs for journalled records whose
        frozen view differs from the parent's."""
        out = []
        for block in sorted(self.records):
            rec = self.records[block]
            view = BlockView(
                rec["state_name"], rec["state_args"],
                tuple(sorted(rec["info"].items())),
                rec["access"], tuple(rec["queue"]))
            if view != self._parent_blocks[block]:
                out.append((block, view))
        return tuple(out)


class ActionEffects:
    """The replayable outcome of one atomic action.

    An action is a deterministic function of ``(node, the acting
    block's view, the message, the node's blocked-on marker)``; this
    object records everything it did so the checker can apply the same
    transition to any parent sharing those inputs without running a
    single handler.  Built from the journal's views and messages, held
    as the slots and ids a successor stores: ``row`` is the acting
    node's ``(first view slot, first outgoing channel slot)``.  ``judge``
    is the checker's: whether a written view changed an invariant fact.
    """

    __slots__ = ("views", "sends", "sent", "blocked_after", "fires", "error",
                 "judge")

    def __init__(self, views: tuple, sends: tuple, blocked_after,
                 fires: tuple, error: Optional[str], row: tuple = (0, 0)):
        # ((view slot, id of the BlockView after), ...)
        self.views = tuple([(row[0] + block, VIEW_IDS[view])
                            for block, view in views])
        # ((channel slot, message id), ...) in send order
        self.sends = tuple([(row[1] + message.dst, MESSAGE_IDS[message])
                            for message in sends])
        self.sent = tuple({slot for slot, _mid in self.sends})  # each once
        self.blocked_after = blocked_after
        self.fires = fires              # handler-fire keys, in order
        self.error = error              # CheckerViolation message, or None
        self.judge = False


class ActionContext(ProtocolContext):
    """ProtocolContext over an :class:`ActionScratch`: the message in
    hand, no costs, no data values, and errors that abort the rule.
    Data is present only where access is, and RecvData is the one way
    to gain it -- unless the protocol's registry entry relaxes
    coherence (``coherent=False``: Buffered-Write allocates on a write
    without a fetch)."""

    def __init__(self, protocol: CompiledProtocol, scratch: ActionScratch,
                 home_of):
        self.protocol = protocol
        entry = entry_declaring(protocol.name)
        self.data_presence = entry is None or entry.coherent
        self.scratch = scratch
        self._home_of = home_of
        self._message: Optional[Message] = None
        self.counters = RuntimeCounters()
        self.costs = ZERO_COSTS
        self.woken: list[int] = []

    def begin(self, message: Message) -> None:
        self._message = message
        self.info = self.scratch.record(message.block)["info"]

    @property
    def node(self) -> int:
        return self.scratch.node

    @property
    def current_message(self) -> Message:
        assert self._message is not None
        return self._message

    def home_node(self, block: int) -> int:
        return self._home_of(block)

    def _record(self) -> dict:
        return self.scratch.record(self._message.block)

    def set_state(self, state_name: str, args: tuple) -> None:
        record = self._record()
        if (state_name, args) != (record["state_name"], record["state_args"]):
            record["state_changed"] = True
        record["state_name"] = state_name
        record["state_args"] = args

    def send(self, dst: int, tag: str, block: int, payload: tuple,
             with_data: bool) -> None:
        self.counters.messages_sent += 1
        self.scratch.sends.append(Message(
            tag, block, src=self.scratch.node, dst=dst,
            payload=payload, data=() if with_data else None))

    def recv_data(self, block: int, mode: str) -> None:
        if self.current_message.data is None:
            self.error(
                f"RecvData but message {self.current_message.tag} "
                "carries no data")
            return
        self.access_change(block, mode, fetched=True)

    def access_change(self, block: int, mode: str,
                      fetched: bool = False) -> None:
        tag = ACCESS_CHANGE_RESULT.get(mode)
        if tag is None:
            self.error(f"unknown access mode {mode!r}")
            return
        record = self.scratch.record(block)
        if (self.data_presence and not fetched and record["access"]
                == AccessTag.INVALID.value and mode.startswith("Blk_Upgrade")):
            self.error(f"AccessChange({mode}) on block {block} without data")
        record["access"] = tag.value

    def read_word(self, block: int, addr: int):
        return 0  # data values are not modelled (Section 7)

    def write_word(self, block: int, addr: int, value) -> None:
        pass

    def enqueue_current(self) -> None:
        self.counters.queue_allocs += 1
        self._record()["queue"].append(self.current_message)

    def retry_queued(self, block: int) -> None:
        self.scratch.record(block)["state_changed"] = True

    def wakeup(self, block: int) -> None:
        if self.scratch.blocked_on == block:
            self.scratch.blocked_on = None
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


def initial_global_state(protocol: CompiledProtocol, n_nodes: int,
                         n_blocks: int, gen_initial,
                         faults: tuple = (0, 0)) -> GlobalState:
    """Build the starting state: home blocks idle/RW, caches invalid."""
    blocks = []
    for node in range(n_nodes):
        node_blocks = []
        for block in range(n_blocks):
            if home_node(block, n_nodes) == node:
                state_name = protocol.initial_home_state
                access = AccessTag.READ_WRITE.value
            else:
                state_name = protocol.initial_cache_state
                access = AccessTag.INVALID.value
            node_blocks.append(BlockView(
                state_name, (),
                tuple(sorted(protocol.initial_info().items())),
                access, ()))
        blocks.append(tuple(node_blocks))
    apps = tuple(AppView(None, gen_initial(node)) for node in range(n_nodes))
    channels = tuple(
        tuple(() for _dst in range(n_nodes)) for _src in range(n_nodes)
    )
    return GlobalState(tuple(blocks), apps, channels, faults)


def fault_for_access(access_value: str, is_write: bool) -> Optional[str]:
    """Which fault a load/store raises given a frozen access value."""
    return fault_event_for(AccessTag(access_value), is_write)
