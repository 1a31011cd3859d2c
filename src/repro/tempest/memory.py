"""Fine-grain access control and per-node block storage.

Tempest's first mechanism (Section 2): "access control allows the system
to control access to memory by permitting read and write accesses only
for valid, cached data".  Each node tags every shared block with one of
three access levels; loads and stores check the tag and trap into the
protocol on a mismatch.  The tags, the AccessChange table and the fault
rule are the checker's too, so they live beside :class:`Message` in
:mod:`repro.runtime.context`; this module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import RuntimeProtocolError
from repro.runtime.context import (
    ACCESS_CHANGE_RESULT,
    AccessTag,
    Message,
    fault_event_for,
)

__all__ = ["ACCESS_CHANGE_RESULT", "BLOCK_WORDS", "AccessTag", "BlockRecord",
           "BlockStore", "fault_event_for"]

# Words per shared block: every record's data is this many words.
BLOCK_WORDS = 4


@dataclass
class BlockRecord:
    """One node's view of one shared block."""

    block: int
    state_name: str
    state_args: tuple = ()
    info: dict = field(default_factory=dict)
    access: AccessTag = AccessTag.INVALID
    data: tuple = ()
    deferred: list = field(default_factory=list)  # queued Messages
    state_changed: bool = False  # set by SetState; drives queue redelivery

    def defer(self, message: Message) -> None:
        self.deferred.append(message)

    def drain_deferred(self) -> list:
        drained = self.deferred
        self.deferred = []
        return drained


class BlockStore(dict):
    """All block records of one node, keyed by block and created on
    first use: the store is the dict, so a hit costs no Python frame."""

    def __init__(self, node: int, n_blocks: int, initial_state_for):
        super().__init__()
        self.node = node
        self.n_blocks = n_blocks
        self._initial_state_for = initial_state_for

    record = dict.__getitem__

    def __missing__(self, block: int) -> BlockRecord:
        # An out-of-range block never gets a record, so checking on the
        # miss path alone still refuses every one.
        if not (0 <= block < self.n_blocks):
            raise RuntimeProtocolError(
                f"block {block} out of range (0..{self.n_blocks - 1})")
        state_name, info, access = self._initial_state_for(self.node, block)
        record = self[block] = BlockRecord(
            block=block,
            state_name=state_name,
            info=info,
            access=access,
            data=(0,) * BLOCK_WORDS,
        )
        return record

    def records(self) -> list[BlockRecord]:
        return [self[b] for b in sorted(self)]
