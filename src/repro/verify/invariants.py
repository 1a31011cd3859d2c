"""Safety invariants checked on every explored state.

The paper: "We currently verify that a protocol does not deadlock and
that it does not receive a message that is not anticipated in a given
state.  Additional assertions can be verified as needed."  Unexpected
messages and explicit ``Error`` calls surface through the handler itself
(as :class:`~repro.verify.model.CheckerViolation`); deadlock is detected
by the search.  This module supplies the *additional* assertions:
access-tag coherence and resource-boundedness.  A continuation parked
in a stable state (a forgotten Resume) needs none: the type checker
makes every state that takes a ``CONT`` Transient.

Each is a function of per-id facts and declares them:
``check.facts(protocol)`` is ``(view fact, channel fact)``, each ``id ->
fact`` or None.  The checker runs it on a successor only where a fact at
a slot the move wrote changed; a plain function runs on every state.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.context import AccessTag
from repro.runtime.protocol import CompiledProtocol
from repro.verify.model import (
    CHANNEL_LEN,
    QUEUE_LEN,
    VIEWS,
    GlobalState,
    Memo,
    channel_ids,
    view_ids,
)

Invariant = Callable[[GlobalState, CompiledProtocol], Optional[str]]


def _coherence_fact(vid: int) -> str:
    view = VIEWS[vid]
    if "LCM" in view.state_name:
        return "exempt"
    return {AccessTag.READ_WRITE.value: "writer",
            AccessTag.READ_ONLY.value: "reader"}.get(view.access, "")


# view id -> "exempt" | "writer" | "reader" | "": all single_writer asks
# of a view, asked once per distinct view.
_COHERENCE = Memo(_coherence_fact)


def single_writer(state: GlobalState,
                  protocol: CompiledProtocol) -> Optional[str]:
    """At most one writable copy; never writable + readable elsewhere.

    Blocks whose home sits in an LCM phase state are exempt: controlled
    inconsistency is the point of the phase.
    """
    n_blocks = state[-1]
    facts = list(map(_COHERENCE.__getitem__, view_ids(state)))
    for block in range(n_blocks):
        column = facts[block::n_blocks]     # the block's view on every node
        writers = column.count("writer")
        if not writers or "exempt" in column:
            continue
        nodes = {fact: [node for node, has in enumerate(column) if has == fact]
                 for fact in ("writer", "reader")}
        if writers > 1:
            return (f"block {block}: multiple writers on nodes "
                    f"{nodes['writer']}")
        if nodes["reader"]:
            return (f"block {block}: writer on node {nodes['writer'][0]} "
                    f"coexists with readers on {nodes['reader']}")
    return None


single_writer.facts = lambda protocol: (_COHERENCE.__getitem__, None)


def bounded_queues(limit: int = 16) -> Invariant:
    """Deferred queues must stay bounded (else redelivery never drains)."""
    def check(state: GlobalState,
              protocol: CompiledProtocol) -> Optional[str]:
        # Answered from the per-id length table; a failing state is
        # decoded to say where.
        if max(map(QUEUE_LEN.__getitem__, view_ids(state))) <= limit:
            return None
        for node, node_blocks in enumerate(state.blocks):
            for block, view in enumerate(node_blocks):
                if len(view.queue) > limit:
                    return (f"node {node} block {block}: deferred queue "
                            f"grew past {limit} messages")
        return None

    check.facts = lambda protocol: (lambda vid: QUEUE_LEN[vid] > limit, None)
    return check


def bounded_channels(limit: int = 16) -> Invariant:
    """Network channels must stay bounded (request storms are bugs)."""
    def check(state: GlobalState,
              protocol: CompiledProtocol) -> Optional[str]:
        if max(map(CHANNEL_LEN.__getitem__, channel_ids(state))) <= limit:
            return None
        for src, row in enumerate(state.channels):
            for dst, channel in enumerate(row):
                if len(channel) > limit:
                    return (f"channel {src}->{dst} grew past "
                            f"{limit} messages")
        return None

    check.facts = lambda protocol: (None,
                                    lambda cid: CHANNEL_LEN[cid] > limit)
    return check


def standard_invariants(coherent: bool = True) -> list[Invariant]:
    """The default invariant suite.

    ``coherent=False`` drops the single-writer check for protocols that
    intentionally relax it (Buffered-Write's weak ordering).
    """
    invariants: list[Invariant] = [
        bounded_queues(),
        bounded_channels(),
    ]
    if coherent:
        invariants.insert(0, single_writer)
    return invariants
