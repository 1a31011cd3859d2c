"""The Teapot prelude: built-in constants and Tempest operations.

The paper keeps the language small by pushing data manipulation into
"support routines" supplied outside the protocol (Section 4).  A standard
set of those routines -- the Tempest interface operations (Send,
AccessChange, ...) plus sharer-set bookkeeping -- is needed by every
protocol, so this module declares their signatures once as a prelude.
The checker types calls against these signatures; executable semantics
live in :mod:`repro.runtime.builtins`, and the Mur-phi/C back ends emit
per-target implementations or externs for them.

Protocol-specific support routines can still be declared in ``Module``
blocks and supplied to the runtime through a support registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.types import (
    T_ACCESS,
    T_ADDR,
    T_BOOL,
    T_ID,
    T_INFO,
    T_INT,
    T_MSGTAG,
    T_NODE,
    T_STRING,
    T_VALUE,
)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinConst:
    name: str
    type_name: str
    doc: str


BUILTIN_CONSTS = {
    c.name: c
    for c in [
        BuiltinConst("MyNode", T_NODE, "the node executing the handler"),
        BuiltinConst("Nobody", T_NODE, "the distinguished null node"),
        BuiltinConst("MessageTag", T_MSGTAG, "tag of the message being handled"),
        # Access-control change requests (Blizzard/Tempest naming).
        BuiltinConst("Blk_Invalidate", T_ACCESS, "drop all access to the block"),
        BuiltinConst("Blk_Upgrade_RO", T_ACCESS, "grant read-only access"),
        BuiltinConst("Blk_Upgrade_RW", T_ACCESS, "grant read-write access"),
        BuiltinConst("Blk_Downgrade_RO", T_ACCESS, "reduce to read-only access"),
    ]
}


# ---------------------------------------------------------------------------
# Functions and procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinSignature:
    """Type signature of a prelude routine.

    ``param_types`` may end with the pseudo-type ``...`` meaning "zero or
    more further arguments of any simple type" (used by Send and Error,
    whose payloads vary by message).  ``return_type`` is None for
    procedures.
    """

    name: str
    param_types: tuple[str, ...]
    return_type: str | None
    doc: str

    @property
    def is_variadic(self) -> bool:
        return bool(self.param_types) and self.param_types[-1] == "..."

    @property
    def fixed_param_types(self) -> tuple[str, ...]:
        if self.is_variadic:
            return self.param_types[:-1]
        return self.param_types


def _sig(name: str, params: tuple[str, ...], ret: str | None, doc: str):
    return BuiltinSignature(name, params, ret, doc)


BUILTIN_FUNCTIONS = {
    s.name: s
    for s in [
        _sig("HomeNode", (T_ID,), T_NODE, "home node of a block"),
        _sig("IsHome", (T_ID,), T_BOOL, "does this node own the directory entry"),
        _sig("Msg_To_Str", (T_MSGTAG,), T_STRING, "printable name of a tag"),
        _sig("NodeToInt", (T_NODE,), T_INT, "processor number as an integer"),
        _sig("IntToNode", (T_INT,), T_NODE, "integer as a processor number"),
        # Sharer-set bookkeeping on the block's info record.
        _sig("IsEmptySharers", (T_INFO,), T_BOOL, "is the sharer set empty"),
        _sig("CountSharers", (T_INFO,), T_INT, "number of sharers"),
        _sig("HasSharer", (T_INFO, T_NODE), T_BOOL, "membership test"),
        _sig("PopSharer", (T_INFO,), T_NODE, "remove and return some sharer"),
        _sig("NthSharer", (T_INFO, T_INT), T_NODE,
             "the i-th sharer in deterministic order (for iteration)"),
        # Block data access (used by Compare&Swap and data-value checks).
        _sig("ReadWord", (T_ID, T_ADDR), T_VALUE, "read a word of block data"),
        # Message payload accessors.
        _sig("MsgWord", (T_INT,), T_VALUE, "nth word of the current payload"),
    ]
}

BUILTIN_PROCEDURES = {
    s.name: s
    for s in [
        # Tempest messaging.
        _sig("Send", (T_NODE, T_MSGTAG, T_ID, "..."), None,
             "send a control message (optional payload words)"),
        _sig("SendBlk", (T_NODE, T_MSGTAG, T_ID, "..."), None,
             "send a message carrying the block's data"),
        # Block bookkeeping.
        _sig("SetState", (T_INFO, "STATE"), None,
             "move the block to a new protocol state"),
        _sig("AccessChange", (T_ID, T_ACCESS), None,
             "change the block's access-control tag"),
        _sig("RecvData", (T_ID, T_ACCESS), None,
             "install the arriving message's data and change access"),
        _sig("WriteWord", (T_ID, T_ADDR, T_VALUE), None,
             "write a word of block data"),
        # Deferred-message machinery (Section 2's advocated policy).
        _sig("Enqueue", (T_MSGTAG, T_ID, T_INFO, T_NODE), None,
             "queue the current message for redelivery after the next "
             "state change"),
        _sig("RetryQueued", (T_INFO,), None,
             "redeliver this block's queued messages after the current "
             "action, even without a state change"),
        _sig("Nack", (T_NODE, T_MSGTAG, T_ID), None,
             "negatively acknowledge the current message"),
        # Processor control.
        _sig("WakeUp", (T_ID,), None,
             "unblock the faulting processor waiting on this block"),
        _sig("Error", (T_STRING, "..."), None,
             "protocol error: abort execution / fail verification"),
        # Sharer-set updates.
        _sig("AddSharer", (T_INFO, T_NODE), None, "add a node to the sharer set"),
        _sig("DelSharer", (T_INFO, T_NODE), None, "remove a node"),
        _sig("ClearSharers", (T_INFO,), None, "empty the sharer set"),
    ]
}

# The routines over the protocol's one SharerList (a type-checker rule).
SHARER_BUILTINS = frozenset({
    "IsEmptySharers", "CountSharers", "HasSharer", "PopSharer", "NthSharer",
    "AddSharer", "DelSharer", "ClearSharers"})

# Fault events delivered by Tempest access control rather than by another
# node.  These arrive "from" the local node and may be raised by the
# simulator when an application load/store traps.
FAULT_EVENTS = {
    "RD_FAULT": "load to an invalid block",
    "WR_FAULT": "store to an invalid block",
    "WR_RO_FAULT": "store to a read-only block",
}

# The conventional handler parameter signature: every handler receives the
# block id, its info record (by reference), and the sending node.
HANDLER_PARAM_TYPES = (T_ID, T_INFO, T_NODE)
