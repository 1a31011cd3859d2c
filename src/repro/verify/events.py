"""Event-generation loops for verification (Section 7).

"A protocol writer must supply ... an event generation loop that
generates a random sequence of events for which the protocol must work
correctly."  Here the generator enumerates, for a node's current
generator state, every event it may issue next; the checker explores all
of them.  Generator state is part of the hashed global state, so it must
stay small and bounded.

- :class:`StacheEvents`: "each node should process any stream of loads
  and stores to any shared addresses" -- stateless.
- :class:`BufferedWriteEvents`: loads, stores, and synchronisation
  operations randomly interleaved.
- :class:`CasEvents`: Stache events plus Compare&Swap operations.
- :class:`LcmEvents`: phase discipline per block -- enter, access, exit
  ("quite complicated -- it took about 400 lines of Mur-phi code"; the
  structured enumeration below is the same loop in a few dozen lines).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols import PROTOCOLS

# An operation is ('read', blk) | ('write', blk) | ('event', tag, blk,
# payload); blocking behaviour is decided by the checker.
Op = tuple


@dataclass(frozen=True)
class GenChoice:
    """One possible next event for a node."""

    label: str
    op: Op
    new_gen: tuple


class EventGenerator:
    """Enumerates the application events a node may issue."""

    def initial(self, node: int) -> tuple:
        return ()

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        raise NotImplementedError


class StacheEvents(EventGenerator):
    """Any stream of loads and stores to any shared address."""

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        result = []
        for block in range(n_blocks):
            result.append(GenChoice(f"n{node}: read b{block}",
                                    ("read", block), gen))
            result.append(GenChoice(f"n{node}: write b{block}",
                                    ("write", block), gen))
        return result


class CasEvents(StacheEvents):
    """Loads, stores, and Compare&Swap operations."""

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        result = super().choices(gen, node, n_blocks)
        for block in range(n_blocks):
            result.append(GenChoice(
                f"n{node}: cas b{block}",
                ("event", "CAS_FAULT", block, (0, 0, 1)), gen))
        return result


class EvictEvents(StacheEvents):
    """Loads, stores, and cache replacements (the Section 2 scenario)."""

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        result = super().choices(gen, node, n_blocks)
        for block in range(n_blocks):
            result.append(GenChoice(
                f"n{node}: evict b{block}",
                ("event", "EVICT_FAULT", block, ()), gen))
        return result


class BufferedWriteEvents(StacheEvents):
    """Loads, stores, and synchronisation points (weak ordering)."""

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        result = super().choices(gen, node, n_blocks)
        for block in range(n_blocks):
            result.append(GenChoice(
                f"n{node}: sync b{block}",
                ("event", "SYNC_FAULT", block, ()), gen))
        return result


class LcmEvents(EventGenerator):
    """Phase-disciplined events: enter a block's phase, access the
    private copy, exit.  Generator state: per-block in-phase flags."""

    def initial(self, node: int) -> tuple:
        return ()  # lazily sized in choices

    def choices(self, gen: tuple, node: int, n_blocks: int) -> list[GenChoice]:
        flags = gen if len(gen) == n_blocks else (False,) * n_blocks
        result = []
        for block in range(n_blocks):
            in_phase = flags[block]
            if in_phase:
                result.append(GenChoice(f"n{node}: lcm-read b{block}",
                                        ("read", block), flags))
                result.append(GenChoice(f"n{node}: lcm-write b{block}",
                                        ("write", block), flags))
                exited = flags[:block] + (False,) + flags[block + 1:]
                result.append(GenChoice(
                    f"n{node}: exit b{block}",
                    ("event", "EXIT_LCM_FAULT", block, ()), exited))
            else:
                result.append(GenChoice(f"n{node}: read b{block}",
                                        ("read", block), flags))
                result.append(GenChoice(f"n{node}: write b{block}",
                                        ("write", block), flags))
                entered = flags[:block] + (True,) + flags[block + 1:]
                result.append(GenChoice(
                    f"n{node}: enter b{block}",
                    ("event", "ENTER_LCM_FAULT", block, ()), entered))
        return result


def events_for_protocol(name: str) -> EventGenerator:
    """The event loop the registry declares for protocol ``name``."""
    return globals()[PROTOCOLS[name].events]()
