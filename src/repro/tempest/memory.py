"""Fine-grain access control and per-node block storage.

Tempest's first mechanism (Section 2): "access control allows the system
to control access to memory by permitting read and write accesses only
for valid, cached data".  Each node tags every shared block with one of
three access levels; loads and stores check the tag and trap into the
protocol on a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Optional

from repro.lang.errors import RuntimeProtocolError
from repro.runtime.context import Message


@unique
class AccessTag(Enum):
    """Per-block access-control tag."""

    INVALID = "inv"
    READ_ONLY = "ro"
    READ_WRITE = "rw"

    def allows_read(self) -> bool:
        return self is not AccessTag.INVALID

    def allows_write(self) -> bool:
        return self is AccessTag.READ_WRITE


# AccessChange request constants (the Blk_* builtins) -> resulting tag.
ACCESS_CHANGE_RESULT = {
    "Blk_Invalidate": AccessTag.INVALID,
    "Blk_Upgrade_RO": AccessTag.READ_ONLY,
    "Blk_Upgrade_RW": AccessTag.READ_WRITE,
    "Blk_Downgrade_RO": AccessTag.READ_ONLY,
}

# Which fault event a load/store raises given the current tag.
def fault_event_for(tag: AccessTag, is_write: bool) -> Optional[str]:
    """The Tempest fault raised by an access, or None if it hits."""
    if is_write:
        if tag is AccessTag.READ_WRITE:
            return None
        if tag is AccessTag.READ_ONLY:
            return "WR_RO_FAULT"
        return "WR_FAULT"
    if tag.allows_read():
        return None
    return "RD_FAULT"


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

    def set_state(self, name: str, args: tuple) -> None:
        if (name, args) != (self.state_name, self.state_args):
            self.state_changed = True
        self.state_name = name
        self.state_args = args

    def defer(self, message: Message) -> None:
        self.deferred.append(message)

    def drain_deferred(self) -> list:
        drained = self.deferred
        self.deferred = []
        return drained


class BlockStore:
    """All block records of one node, created lazily."""

    def __init__(self, node: int, n_blocks: int, block_words: int,
                 initial_state_for, home_of):
        self.node = node
        self.n_blocks = n_blocks
        self.block_words = block_words
        self._initial_state_for = initial_state_for
        self._home_of = home_of
        self._records: dict[int, BlockRecord] = {}

    def record(self, block: int) -> BlockRecord:
        existing = self._records.get(block)
        if existing is not None:
            return existing
        # An out-of-range block never gets a record, so checking on the
        # miss path alone still refuses every one.
        if not (0 <= block < self.n_blocks):
            raise RuntimeProtocolError(
                f"block {block} out of range (0..{self.n_blocks - 1})")
        state_name, info, access = self._initial_state_for(self.node, block)
        record = BlockRecord(
            block=block,
            state_name=state_name,
            info=info,
            access=access,
            data=(0,) * self.block_words,
        )
        self._records[block] = record
        return record

    def records(self) -> list[BlockRecord]:
        return [self._records[b] for b in sorted(self._records)]

    def is_home(self, block: int) -> bool:
        return self._home_of(block) == self.node
