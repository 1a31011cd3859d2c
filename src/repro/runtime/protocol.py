"""The compiled form of a Teapot protocol.

A :class:`CompiledProtocol` is what every consumer works from: the
Python back end compiles its handler CFGs into the functions the
simulator and model checker execute, the interpreter walks the same
CFGs as the reference semantics, and the C / Mur-phi back ends
pretty-print them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum, unique
from functools import cached_property
from typing import Optional

from repro.lang.builtins import (  # NOBODY, default_value_for: re-exported
    NOBODY,
    T_CONT,
    T_SHARERS,
    default_value_for,
)
from repro.lang.errors import CompileError
from repro.lang.typecheck import CheckedProgram
from repro.compiler.ir import HandlerIR


@dataclass(frozen=True)
class StateValue:
    """A first-class state: the runtime value of ``Name{args}``."""

    name: str
    args: tuple

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}{{{inner}}}"


@unique
class OptLevel(Enum):
    """Optimisation levels, mirroring the paper's measurement columns.

    - ``O0``: naive splitting; every frame variable is saved (Figure 10).
    - ``O1``: live-variable analysis only -- the paper's "Teapot
      Unoptimized" column.
    - ``O2``: liveness plus the constant-continuation optimisation --
      the paper's "Teapot Optimized" column.
    """

    O0 = 0
    O1 = 1
    O2 = 2


@unique
class Flavor(Enum):
    """Cost profile of the generated code.

    ``TEAPOT`` models Teapot-generated C: handlers are invoked through an
    extra level of indirect function call (Section 6 attributes part of
    the residual overhead to exactly this).  ``BASELINE`` models the
    hand-written state-machine C code the paper compares against.
    """

    TEAPOT = "teapot"
    BASELINE = "baseline"


@dataclass
class CompileStats:
    """Whole-protocol statistics reported by the compiler."""

    n_states: int = 0
    n_handlers: int = 0
    n_suspend_sites: int = 0
    n_static_sites: int = 0
    n_inlined_resumes: int = 0
    n_transient_states: int = 0


@dataclass
class CompiledStateInfo:
    """One protocol state with its compiled handlers."""

    name: str
    params: list[tuple[str, str]]        # (name, type)
    transient: bool
    handlers: dict[str, HandlerIR]
    default: Optional[HandlerIR] = None

    @property
    def is_subroutine(self) -> bool:
        return any(t == T_CONT for _n, t in self.params)

    def dispatch(self, message: str) -> Optional[HandlerIR]:
        """The handler that receives ``message`` in this state."""
        handler = self.handlers.get(message)
        if handler is not None:
            return handler
        return self.default


@dataclass
class CompiledProtocol:
    """A fully compiled protocol, ready to execute or pretty-print."""

    name: str
    checked: CheckedProgram
    states: dict[str, CompiledStateInfo]
    handlers: dict[tuple[str, str], HandlerIR]
    messages: dict[str, tuple[str, ...]]
    info_vars: dict[str, str]
    consts: dict[str, object]
    opt_level: OptLevel
    flavor: Flavor
    initial_home_state: str
    initial_cache_state: str
    stats: CompileStats = field(default_factory=CompileStats)
    # Ahead-of-time code objects of the Python back end, by qualified
    # handler name (the module header under ""), when this protocol came
    # through repro.compile_cache; None = compile on first dispatch.
    handler_code: Optional[dict] = field(
        default=None, repr=False, compare=False)

    def state(self, name: str) -> CompiledStateInfo:
        info = self.states.get(name)
        if info is None:
            raise CompileError(f"protocol {self.name} has no state {name!r}")
        return info

    def initial_info(self) -> dict[str, object]:
        """A fresh per-block info record with default field values."""
        return {
            name: default_value_for(type_name)
            for name, type_name in self.info_vars.items()
        }

    @cached_property
    def sharer_vars(self) -> tuple[str, ...]:
        """The SharerList info variables (the sharer-set builtins need
        exactly one)."""
        return tuple(name for name, type_name in self.info_vars.items()
                     if type_name == T_SHARERS)

    def handler(self, state_name: str, message: str) -> Optional[HandlerIR]:
        return self.state(state_name).dispatch(message)

    def suspend_site(self, qualified_handler: str, site_id: int):
        """Look up a suspend site by the handler's qualified name."""
        state_name, message_name = qualified_handler.split(".", 1)
        handler = self.handlers[(state_name, message_name)]
        return handler, handler.suspend_sites[site_id]

    @property
    def subroutine_states(self) -> list[str]:
        return [s.name for s in self.states.values() if s.is_subroutine]

    def describe(self) -> str:
        """A short human-readable summary (used by the CLI)."""
        lines = [
            f"protocol {self.name} "
            f"(opt={self.opt_level.name}, flavor={self.flavor.value})",
            f"  states: {len(self.states)} "
            f"({self.stats.n_transient_states} transient)",
            f"  handlers: {self.stats.n_handlers}",
            f"  messages: {len(self.messages)}",
            f"  suspend sites: {self.stats.n_suspend_sites} "
            f"({self.stats.n_static_sites} static)",
            f"  inlined resumes: {self.stats.n_inlined_resumes}",
        ]
        return "\n".join(lines)


def weak_protocol_entry(registry: dict, protocol: CompiledProtocol, factory):
    """``registry``'s entry for ``protocol``: built by ``factory()`` on
    first use, dropped when the protocol is collected.  CompiledProtocol
    is an unhashable mutable-eq dataclass, hence id keying plus a
    finalizer rather than a WeakKeyDictionary.  Like the compile cache,
    this assumes compiled protocols are not mutated after use."""
    entry = registry.get(id(protocol))
    if entry is None or entry[0]() is not protocol:
        ref = weakref.ref(
            protocol, lambda _r, key=id(protocol): registry.pop(key, None))
        entry = registry[id(protocol)] = (ref, factory())
    return entry[1]


def resolve_initial_states(
    states: dict[str, CompiledStateInfo],
    initial_states: Optional[tuple[str, str]],
) -> tuple[str, str]:
    """Determine the (home, cache) initial state names.

    If not given explicitly, look for the conventional names used by all
    protocols in this repository (``Home_Idle`` / ``Cache_Invalid``) and
    close variants.
    """
    if initial_states is not None:
        home, cache = initial_states
        for name in (home, cache):
            if name not in states:
                raise CompileError(
                    f"initial state {name!r} is not a state of the protocol")
        return home, cache

    home_candidates = [n for n in states if n in ("Home_Idle", "HomeIdle")]
    cache_candidates = [
        n for n in states if n in ("Cache_Invalid", "Cache_Inv", "CacheInvalid")
    ]
    if not home_candidates or not cache_candidates:
        raise CompileError(
            "cannot infer initial states: define Home_Idle and "
            "Cache_Invalid, or pass initial_states=(home, cache) "
            "to compile_protocol",
        )
    return home_candidates[0], cache_candidates[0]
