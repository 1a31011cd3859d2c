"""The execution context interface between handlers and their host.

Compiled handlers run identically under the multiprocessor simulator
(:mod:`repro.tempest`) and the model checker (:mod:`repro.verify`); all
environment-specific behaviour -- message transmission, access control,
block storage, cost accounting -- goes through a
:class:`ProtocolContext`.  The vocabulary both hosts share lives here
too: :class:`Message` and the access-control tags, so a checker run
imports no simulator module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple, Optional

from repro.lang.errors import RuntimeProtocolError

# Safety net against diverging While loops in protocol code.
MAX_OPS_PER_ACTION = 200_000


class Message(NamedTuple):
    """A protocol message in flight (or being handled).

    ``data`` carries block contents for SendBlk-style transfers; control
    messages leave it None.  ``payload`` is a tuple of simple values.

    ``seq`` is a machine-wide wire sequence number, stamped only when
    fault injection or recovery is enabled (``None`` otherwise, so
    zero-fault runs are untouched).  A retried message keeps its
    original ``seq``; the receiving node's dedup layer uses
    ``(src, seq)`` to absorb duplicates.  It is identity metadata, not
    protocol state: excluded from repr, checker fingerprints, and the
    JSON state codec.

    A message is an immutable tuple of its seven fields, so hashing and
    equality are the tuple's over all seven, and a hot sender may build
    one with ``tuple.__new__(Message, fields)``.  A tuple that is not a
    Message compares equal to one with the same fields: encoders that
    branch on ``tuple`` test ``Message`` first.
    """

    tag: str
    block: int
    src: int
    dst: int
    payload: tuple = ()
    data: Optional[tuple] = None
    seq: Optional[int] = None

    def __repr__(self) -> str:
        parts = [f"{self.tag} blk={self.block} {self.src}->{self.dst}"]
        if self.payload:
            parts.append(f"payload={self.payload}")
        if self.data is not None:
            parts.append("+data")
        return f"<msg {' '.join(parts)}>"


# -- Tempest access control (Section 2) ------------------------------------
#
# Each node tags every shared block with one of three access levels, and
# loads and stores trap into the protocol on a mismatch.  The simulator's
# block records and the checker's block views hold these tags.

@unique
class AccessTag(Enum):
    """Per-block access-control tag."""

    INVALID = "inv"
    READ_ONLY = "ro"
    READ_WRITE = "rw"


# AccessChange request constants (the Blk_* builtins) -> resulting tag.
ACCESS_CHANGE_RESULT = {
    "Blk_Invalidate": AccessTag.INVALID,
    "Blk_Upgrade_RO": AccessTag.READ_ONLY,
    "Blk_Upgrade_RW": AccessTag.READ_WRITE,
    "Blk_Downgrade_RO": AccessTag.READ_ONLY,
}


def fault_event_for(tag: AccessTag, is_write: bool) -> Optional[str]:
    """The Tempest fault raised by an access, or None if it hits."""
    if is_write:
        if tag is AccessTag.READ_WRITE:
            return None
        if tag is AccessTag.READ_ONLY:
            return "WR_RO_FAULT"
        return "WR_FAULT"
    if tag is AccessTag.INVALID:
        return "RD_FAULT"
    return None


@dataclass
class CostModel:
    """Cycle charges for protocol processing.

    Calibrated so that the relative overheads of Teapot-compiled versus
    hand-written-state-machine protocols land in the bands Table 1 and
    Table 2 report.  Absolute values are arbitrary "cycles".
    """

    dispatch: int = 60          # taking a protocol event / message
    indirect_call: int = 25     # extra indirection of Teapot handlers (§6)
    statement: int = 6          # one executed IR operation
    send: int = 90              # injecting a control message
    send_data: int = 140        # injecting a message carrying block data
    msg_latency: int = 220      # network transit time
    access_change: int = 40     # changing a block's access tag
    recv_data: int = 80         # installing arriving block data
    cont_alloc: int = 45        # heap-allocating a continuation record
    cont_free: int = 20         # freeing one
    save_restore_word: int = 6  # saving or restoring one captured variable
    resume: int = 20            # indirect call through a continuation
    resume_direct: int = 4      # inlined (constant-continuation) resume
    queue_alloc: int = 35       # queueing a deferred message
    queue_free: int = 12        # redelivering one
    fault_trap: int = 120       # access-fault trap into the protocol
    wakeup: int = 60            # restarting the faulted thread
    read_hit: int = 2           # loads/stores that hit locally
    write_hit: int = 2


ZERO_COSTS = CostModel(**{f: 0 for f in CostModel.__dataclass_fields__})


@dataclass
class RuntimeCounters:
    """Event counts shared by all contexts (Table 1's Allocs column)."""

    cont_allocs: int = 0
    cont_frees: int = 0
    static_cont_uses: int = 0
    queue_allocs: int = 0
    queue_frees: int = 0
    messages_sent: int = 0
    data_messages_sent: int = 0
    handler_dispatches: int = 0
    resumes: int = 0
    direct_resumes: int = 0
    suspends: int = 0
    nacks: int = 0
    errors: int = 0
    timeouts: int = 0           # watchdog expiries on a blocked fault
    retries: int = 0            # request messages re-injected by retries
    dups_absorbed: int = 0      # deliveries absorbed by the dedup layer

    @property
    def alloc_records(self) -> int:
        """Continuation + queue records allocated (paper's Allocs column)."""
        return self.cont_allocs + self.queue_allocs

    def merge(self, other: "RuntimeCounters") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def home_node(block: int, n_nodes: int) -> int:
    """The home node of ``block``: homes are striped across the nodes.
    The simulator and the checker both ask here, so the executed and the
    verified protocol agree on every block's home."""
    return block % n_nodes


class ProtocolContext:
    """Abstract host interface for one handler activation.

    Concrete implementations: the simulator node
    (:class:`repro.tempest.node.NodeContext`) and the model checker
    (:class:`repro.verify.model.ActionContext`).

    A context is positioned at one (node, block) pair while a handler
    runs; the engine reads the node id from ``node``, the message
    being handled from ``current_message`` (attributes or properties,
    as the host prefers) and the block's info record from ``info``,
    the dict itself, which handlers bind to their ``INFO`` parameter
    and read and write in place.  The block's state is not read here:
    the host already holds the block's record, and hands the state
    name and arguments to the engine's ``dispatch``.
    """

    # -- identity ------------------------------------------------------------

    node: int
    current_message: Message
    info: dict

    def home_node(self, block: int) -> int:
        raise NotImplementedError

    # -- block record --------------------------------------------------------

    def set_state(self, state_name: str, args: tuple) -> None:
        raise NotImplementedError

    # -- Tempest mechanisms ----------------------------------------------------

    def send(self, dst: int, tag: str, block: int, payload: tuple,
             with_data: bool) -> None:
        raise NotImplementedError

    def access_change(self, block: int, mode: str) -> None:
        raise NotImplementedError

    def recv_data(self, block: int, mode: str) -> None:
        raise NotImplementedError

    def read_word(self, block: int, addr: int):
        raise NotImplementedError

    def write_word(self, block: int, addr: int, value) -> None:
        raise NotImplementedError

    def enqueue_current(self) -> None:
        """Defer the current message until the block changes state."""
        raise NotImplementedError

    def retry_queued(self, block: int) -> None:
        """Force redelivery of the block's deferred queue after this
        action, even though the state did not change (used by handlers
        that consume the event a queued message was waiting for)."""
        raise NotImplementedError

    def wakeup(self, block: int) -> None:
        raise NotImplementedError

    def error(self, message: str) -> None:
        """Protocol error.  Default: raise; the checker records instead."""
        raise RuntimeProtocolError(message)

    def debug_print(self, values: list) -> None:
        """Print statement output; hosts may capture or discard it."""

    # -- support registry ------------------------------------------------------

    def support_call(self, name: str, args: list):
        """Invoke a module-declared support routine."""
        raise RuntimeProtocolError(
            f"no support routine registered for {name!r}")

    def support_const(self, name: str):
        """Resolve a module-declared abstract constant."""
        raise RuntimeProtocolError(
            f"no value registered for abstract constant {name!r}")

    # -- accounting -------------------------------------------------------------

    counters: RuntimeCounters
    costs: CostModel = ZERO_COSTS

    # Observability hook (a repro.obs.Observer), or None when tracing and
    # metrics are off.  Instrumented code guards every use with a single
    # ``obs is None`` test, so the default path stays uninstrumented.
    obs = None

    # The action's clock, in cycles: engines account protocol processing
    # time by adding to it (``ctx.now += cycles``); a host that keeps no
    # time simply never reads it.
    now = 0
