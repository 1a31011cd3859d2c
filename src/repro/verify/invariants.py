"""Safety invariants checked on every explored state.

The paper: "We currently verify that a protocol does not deadlock and
that it does not receive a message that is not anticipated in a given
state.  Additional assertions can be verified as needed."  Unexpected
messages and explicit ``Error`` calls surface through the handler itself
(as :class:`~repro.verify.model.CheckerViolation`); deadlock is detected
by the search.  This module supplies the *additional* assertions:
access-tag coherence and resource-boundedness.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.protocol import CompiledProtocol
from repro.tempest.memory import AccessTag
from repro.verify.model import GlobalState

Invariant = Callable[[GlobalState, CompiledProtocol], Optional[str]]


def single_writer(state: GlobalState,
                  protocol: CompiledProtocol) -> Optional[str]:
    """At most one writable copy; never writable + readable elsewhere.

    Blocks whose home sits in an LCM phase state are exempt: controlled
    inconsistency is the point of the phase.
    """
    n_blocks = len(state.blocks[0])
    n_nodes = len(state.blocks)
    for block in range(n_blocks):
        exempt = any(
            "LCM" in state.blocks[node][block].state_name
            for node in range(n_nodes)
        )
        if exempt:
            continue
        writers = []
        readers = []
        for node in range(n_nodes):
            access = state.blocks[node][block].access
            if access == AccessTag.READ_WRITE.value:
                writers.append(node)
            elif access == AccessTag.READ_ONLY.value:
                readers.append(node)
        if len(writers) > 1:
            return (f"block {block}: multiple writers on nodes {writers}")
        if writers and readers:
            return (f"block {block}: writer on node {writers[0]} "
                    f"coexists with readers on {readers}")
    return None


def bounded_queues(limit: int = 16) -> Invariant:
    """Deferred queues must stay bounded (else redelivery never drains)."""
    def check(state: GlobalState,
              protocol: CompiledProtocol) -> Optional[str]:
        for node, node_blocks in enumerate(state.blocks):
            for block, view in enumerate(node_blocks):
                if len(view.queue) > limit:
                    return (f"node {node} block {block}: deferred queue "
                            f"grew past {limit} messages")
        return None

    return check


def bounded_channels(limit: int = 16) -> Invariant:
    """Network channels must stay bounded (request storms are bugs)."""
    def check(state: GlobalState,
              protocol: CompiledProtocol) -> Optional[str]:
        for src, row in enumerate(state.channels):
            for dst, channel in enumerate(row):
                if len(channel) > limit:
                    return (f"channel {src}->{dst} grew past "
                            f"{limit} messages")
        return None

    return check


def no_parked_continuation_leak(state: GlobalState,
                                protocol: CompiledProtocol) -> Optional[str]:
    """A stable (non-transient) state must not hold continuation args.

    Catches forgotten Resumes: returning to a stable state while a
    captured continuation is still parked would leak it (the paper's
    footnote: "all Suspends must eventually be Resumed ... to prevent
    memory leaks").
    """
    for node, node_blocks in enumerate(state.blocks):
        for block, view in enumerate(node_blocks):
            info = protocol.states.get(view.state_name)
            if info is None or info.transient:
                continue
            if view.state_args:
                return (f"node {node} block {block}: stable state "
                        f"{view.state_name} holds arguments "
                        f"{view.state_args!r}")
    return None


def standard_invariants(coherent: bool = True) -> list[Invariant]:
    """The default invariant suite.

    ``coherent=False`` drops the single-writer check for protocols that
    intentionally relax it (Buffered-Write's weak ordering).
    """
    invariants: list[Invariant] = [
        bounded_queues(),
        bounded_channels(),
        no_parked_continuation_leak,
    ]
    if coherent:
        invariants.insert(0, single_writer)
    return invariants
