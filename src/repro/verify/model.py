"""The checker's global-state model and its ProtocolContext.

A :class:`GlobalState` is an immutable, hashable snapshot of the whole
machine: every node's view of every block (protocol state, info record,
access tag, deferred queue), every network channel's contents, and every
node's application status.  A rule executes against an
:class:`ActionScratch` -- a copy-on-first-touch journal over the frozen
parent -- through :class:`ActionContext`; the checker distils the journal
into an :class:`ActionEffects` and replays it onto the parent.

The paper's configuration -- "a minimal machine with 2 processor nodes
and 2 shared memory addresses ... our verifications did not test actual
data values" -- is the default here too; block data is not modelled.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.context import Message, ProtocolContext, RuntimeCounters, ZERO_COSTS
from repro.runtime.protocol import CompiledProtocol
from repro.tempest.memory import ACCESS_CHANGE_RESULT, AccessTag, fault_event_for


class _Record:
    """What the three state records share.  They are plain ``__slots__``
    classes, immutable by convention: a field or a cached value is one
    slot read, no per-instance dictionary exists to grow, and assigning
    an undeclared name raises.  ``FIELDS`` are the declared values; every
    other slot is a cache derived from them."""

    __slots__ = ()
    FIELDS: tuple = ()

    def __reduce__(self):
        # Pickle the declared fields only and rebuild through __init__:
        # a cached hash is valid only under the hash seed of the process
        # that computed it, and no memo should ride the states the
        # parallel checker ships between workers.
        return type(self), tuple(getattr(self, name) for name in self.FIELDS)

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.FIELDS))


class BlockView(_Record):
    """One node's frozen view of one block."""

    FIELDS = ("state_name", "state_args", "info", "access", "queue")
    __slots__ = FIELDS + ("_hash",)

    def __init__(self, state_name: str, state_args: tuple, info: tuple,
                 access: str, queue: tuple):
        self.state_name = state_name
        self.state_args = state_args
        self.info = info          # sorted (name, value) pairs
        self.access = access      # AccessTag.value
        self.queue = queue        # deferred Messages
        # Every view is hashed (the intern table below, then each state
        # holding it), so the hash is computed here, once.
        self._hash = hash((state_name, state_args, info, access, queue))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not BlockView:
            return NotImplemented
        return (self._hash == other._hash
                and self.state_name == other.state_name
                and self.state_args == other.state_args
                and self.info == other.info
                and self.access == other.access
                and self.queue == other.queue)


class AppView(_Record):
    """One node's frozen application status."""

    FIELDS = ("blocked_on", "gen")
    __slots__ = FIELDS + ("_hash",)

    def __init__(self, blocked_on: Optional[int], gen: tuple):
        self.blocked_on = blocked_on
        self.gen = gen            # event-generator-specific state
        self._hash = hash((blocked_on, gen))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not AppView:
            return NotImplemented
        return (self._hash == other._hash
                and self.blocked_on == other.blocked_on
                and self.gen == other.gen)


# -- interning -------------------------------------------------------------
#
# The exploration hot loop builds millions of views, messages, and
# channel tuples whose values recur constantly (a protocol has a handful
# of reachable block configurations, and the same messages fly between
# the same nodes on every path).  Interning canonicalizes each immutable
# substructure to one shared object, so successor states share storage
# with their parents, equality checks hit the identity fast path inside
# tuple comparison, and cached hashes are computed once per distinct
# value instead of once per state.  The tables are process-global and
# never evicted: the working set is bounded by the number of *distinct*
# substructures, which is tiny compared to the number of states.

_VIEW_INTERN: dict = {}
_MESSAGE_INTERN: dict = {}
_CHANNEL_INTERN: dict = {}


def intern_view(state_name: str, state_args: tuple, info: tuple,
                access: str, queue: tuple) -> BlockView:
    """The canonical BlockView for these field values."""
    key = (state_name, state_args, info, access, queue)
    view = _VIEW_INTERN.get(key)
    if view is None:
        view = _VIEW_INTERN[key] = BlockView(*key)
    return view


def intern_message(message: Message) -> Message:
    """The canonical Message equal to ``message``."""
    return _MESSAGE_INTERN.setdefault(message, message)


def intern_channel(channel: tuple) -> tuple:
    """The canonical tuple equal to ``channel`` (a message sequence)."""
    return _CHANNEL_INTERN.setdefault(channel, channel)


class GlobalState(_Record):
    """A hashable snapshot of the entire verified system."""

    FIELDS = ("blocks", "apps", "channels", "faults")
    # Caches: the hash (a fingerprint-keyed run never asks for it), the
    # checker's (channel_cap, congestion count) and, under symmetry
    # reduction, the canonical fingerprint.
    __slots__ = FIELDS + ("_hash", "_cong", "_canon_fp")

    def __init__(self, blocks: tuple, apps: tuple, channels: tuple,
                 faults: tuple = (0, 0)):
        self.blocks = blocks      # blocks[node][block] -> BlockView
        self.apps = apps          # apps[node] -> AppView
        self.channels = channels  # channels[src][dst] -> tuple[Message, ...]
        # Remaining fault budget (drops, dups) the exploration may still
        # spend on this path; (0, 0) -- the default -- is fault-free
        # checking and keeps fingerprints/checkpoints byte-compatible.
        self.faults = faults
        self._hash = self._cong = self._canon_fp = None

    def __hash__(self):
        # Hashing recurses over every view, message, and queue, and the
        # visited set, the parent pointers and any observer keyed by
        # state each ask for it: compute once.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.blocks, self.apps,
                                        self.channels, self.faults))
        return cached

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GlobalState:
            return NotImplemented
        return (self.blocks == other.blocks and self.apps == other.apps
                and self.channels == other.channels
                and self.faults == other.faults)

    def with_channel(self, src: int, dst: int, channel: tuple,
                     faults: tuple) -> "GlobalState":
        """This state after a drop/dup fault transition: one channel
        replaced (only its row is rebuilt, the others are shared) and
        ``faults`` budget left.  No handler runs, nothing else moves."""
        rows = self.channels
        row = rows[src]
        row = row[:dst] + (intern_channel(channel),) + row[dst + 1:]
        return GlobalState(self.blocks, self.apps,
                           rows[:src] + (row,) + rows[src + 1:], faults)

    def channel(self, src: int, dst: int) -> tuple:
        return self.channels[src][dst]

    def messages_in_flight(self) -> int:
        return sum(
            len(channel) for row in self.channels for channel in row)

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
    The checker builds one per recorded action and distils it into an
    :class:`ActionEffects` that can be replayed onto any parent sharing
    the action's inputs.

    Handlers can only ever read or write the acting node's own records
    and application status (every read goes through
    ``ProtocolContext.get_state``/``get_info`` on the current message's
    block, and every write lands on ``record(self.node, block)``), which
    is what makes the journal -- and the effect cache built on it --
    sound.
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
        """Interned ``(block, BlockView)`` pairs for journalled records
        whose frozen view differs from the parent's."""
        out = []
        for block in sorted(self.records):
            rec = self.records[block]
            view = intern_view(
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
    single handler.
    """

    __slots__ = ("views", "sends", "blocked_after", "fires", "error")

    def __init__(self, views: tuple, sends: tuple, blocked_after,
                 fires: tuple, error: Optional[str]):
        self.views = views              # ((block, BlockView after), ...)
        self.sends = sends              # Messages in send order
        self.blocked_after = blocked_after
        self.fires = fires              # handler-fire keys, in order
        self.error = error              # CheckerViolation message, or None


class ActionContext(ProtocolContext):
    """ProtocolContext over an :class:`ActionScratch`: the message in
    hand, no costs, no data values, and errors that abort the rule."""

    def __init__(self, protocol: CompiledProtocol, scratch: ActionScratch,
                 home_of):
        self.protocol = protocol
        self.scratch = scratch
        self._home_of = home_of
        self._message: Optional[Message] = None
        self.counters = RuntimeCounters()
        self.costs = ZERO_COSTS
        self.woken: list[int] = []

    def begin(self, message: Message) -> None:
        self._message = message

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

    def get_state(self) -> tuple[str, tuple]:
        record = self._record()
        return record["state_name"], record["state_args"]

    def set_state(self, state_name: str, args: tuple) -> None:
        record = self._record()
        if (state_name, args) != (record["state_name"], record["state_args"]):
            record["state_changed"] = True
        record["state_name"] = state_name
        record["state_args"] = args

    def get_info(self, name: str):
        return self._record()["info"][name]

    def set_info(self, name: str, value) -> None:
        self._record()["info"][name] = value

    def send(self, dst: int, tag: str, block: int, payload: tuple,
             with_data: bool) -> None:
        self.counters.messages_sent += 1
        self.scratch.sends.append(intern_message(Message(
            tag, block, src=self.scratch.node, dst=dst,
            payload=payload, data=() if with_data else None)))

    def recv_data(self, block: int, mode: str) -> None:
        if self.current_message.data is None:
            self.error(
                f"RecvData but message {self.current_message.tag} "
                "carries no data")
            return
        self.access_change(block, mode)

    def access_change(self, block: int, mode: str) -> None:
        tag = ACCESS_CHANGE_RESULT.get(mode)
        if tag is None:
            self.error(f"unknown access mode {mode!r}")
            return
        self.scratch.record(block)["access"] = tag.value

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

    def charge(self, cycles: int) -> None:
        pass


def initial_global_state(protocol: CompiledProtocol, n_nodes: int,
                         n_blocks: int, home_of, gen_initial,
                         faults: tuple = (0, 0)) -> GlobalState:
    """Build the starting state: home blocks idle/RW, caches invalid."""
    blocks = []
    for node in range(n_nodes):
        node_blocks = []
        for block in range(n_blocks):
            if home_of(block) == node:
                state_name = protocol.initial_home_state
                access = AccessTag.READ_WRITE.value
            else:
                state_name = protocol.initial_cache_state
                access = AccessTag.INVALID.value
            node_blocks.append(intern_view(
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
