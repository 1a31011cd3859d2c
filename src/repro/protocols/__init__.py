"""The paper's case-study protocols, written in Teapot.

Each protocol ships as a ``.tea`` source file plus a registration entry
describing its initial states and how it is model-checked.  Two styles
exist for Stache and LCM:

- the continuation style (``stache.tea``, ``lcm.tea``) -- the paper's
  contribution, using ``Suspend``/``Resume`` and subroutine states;
- the hand-written state-machine style (``stache_sm.tea``,
  ``lcm_sm.tea``) -- explicit intermediate states and pending-request
  bookkeeping, standing in for the paper's hand-written C protocols.

Both styles of a protocol are *behaviourally identical* on the wire,
which the test suite exploits for differential testing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.compile_cache import compile_file
from repro.ioutil import read_source
from repro.runtime.protocol import CompiledProtocol, Flavor, OptLevel


@dataclass(frozen=True)
class ProtocolEntry:
    """Registry entry for a named protocol: its source, how it compiles,
    and how it is checked."""

    name: str
    filename: str
    declares: str                       # the name after `Protocol`
    initial_states: tuple[str, str]     # (home, cache)
    flavor: Flavor
    description: str
    # The check setup, which `api.check` applies to any protocol whose
    # source declares ``declares``: its event loop (a class name in
    # repro.verify.events -- a string, so this module imports nothing
    # from repro.verify) and whether the single-writer invariant holds.
    events: str = "StacheEvents"
    coherent: bool = True


PROTOCOLS = {
    entry.name: entry
    for entry in [
        ProtocolEntry(
            "stache", "stache.tea", "Stache",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "Stache directory protocol, continuation style (Section 4)"),
        ProtocolEntry(
            "stache_sm", "stache_sm.tea", "StacheSM",
            ("Home_Idle", "Cache_Invalid"), Flavor.BASELINE,
            "Stache as a hand-written state machine (the C baseline)"),
        ProtocolEntry(
            "stache_cas", "stache_cas.tea", "StacheCas",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "Stache extended with Compare&Swap (Figure 6)",
            events="CasEvents"),
        ProtocolEntry(
            "stache_cas_sm", "stache_cas_sm.tea", "StacheCasSM",
            ("Home_Idle", "Cache_Invalid"), Flavor.BASELINE,
            "Compare&Swap retrofitted onto the state-machine Stache",
            events="CasEvents"),
        ProtocolEntry(
            "buffered_write", "buffered_write.tea", "BufferedWrite",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "Stache variant buffering writes until a synchronisation "
            "point (Section 6)",
            events="BufferedWriteEvents", coherent=False),
        ProtocolEntry(
            "stache_evict", "stache_evict.tea", "StacheEvict",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "Stache with cache replacement and the Section 2 "
            "gratuitous-request queueing discipline",
            events="EvictEvents"),
        ProtocolEntry(
            "stache_nack", "stache_nack.tea", "StacheNack",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "Stache with the NACK-and-retry policy for busy-home "
            "requests (Section 2's nack option)"),
        ProtocolEntry(
            "dash", "dash.tea", "Dash",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "DASH-style protocol: the writer collects invalidation acks "
            "via nested suspends (Section 3)"),
        ProtocolEntry(
            "lcm", "lcm.tea", "LCM",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "LCM: loosely coherent memory with phase-based reconciliation",
            events="LcmEvents"),
        ProtocolEntry(
            "lcm_sm", "lcm_sm.tea", "LcmSM",
            ("Home_Idle", "Cache_Invalid"), Flavor.BASELINE,
            "LCM as a hand-written state machine (the C baseline)",
            events="LcmEvents"),
        ProtocolEntry(
            "lcm_update", "lcm_update.tea", "LCMUpdate",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "LCM variant eagerly updating consumers at phase end",
            events="LcmEvents"),
        ProtocolEntry(
            "lcm_mcc", "lcm_mcc.tea", "LCMMcc",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "LCM variant managing multiple distributed copies",
            events="LcmEvents"),
        ProtocolEntry(
            "lcm_both", "lcm_both.tea", "LCMBoth",
            ("Home_Idle", "Cache_Invalid"), Flavor.TEAPOT,
            "LCM with both the update and MCC extensions",
            events="LcmEvents"),
    ]
}


def entry_declaring(protocol_name: str) -> Optional[ProtocolEntry]:
    """The entry whose source declares ``Protocol <protocol_name>``, or
    None for a protocol the registry does not know."""
    return next((entry for entry in PROTOCOLS.values()
                 if entry.declares == protocol_name), None)


def _source_path(entry: ProtocolEntry) -> str:
    return os.path.join(os.path.dirname(__file__), entry.filename)


def load_protocol_source(name: str) -> str:
    """Return the Teapot source text of the named protocol."""
    entry = PROTOCOLS.get(name)
    if entry is None:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return read_source(_source_path(entry))[1]


def compile_named_protocol(
    name: str,
    opt_level: OptLevel = OptLevel.O2,
    flavor: Optional[Flavor] = None,
) -> CompiledProtocol:
    """Compile a registered protocol by name.

    Goes through :mod:`repro.compile_cache`, like any ``.tea`` path: the
    same (source, opt level, flavor) yields the same object for the life
    of the process and is read back from ``__pycache__/`` by the next
    one.  The objects are shared -- callers must not mutate them (code
    that wants a private protocol to patch compiles
    :func:`load_protocol_source`'s text through ``compile_source``).
    """
    entry = PROTOCOLS[name]
    return compile_file(
        _source_path(entry), opt_level,
        flavor if flavor is not None else entry.flavor,
        entry.initial_states)
