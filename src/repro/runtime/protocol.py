"""The compiled form of a Teapot protocol.

A :class:`CompiledProtocol` is what every consumer works from, in two
parts.  Its *run tables* are plain data computed at compile time: each
state's parameters, transient flag and (state, tag) -> handler table,
the coverage arm universe, the typed frames of the handlers that can
park a continuation, and the code objects of the Python back end's
handler functions.  The simulator and the model checker read only
these.  Its *IR* (:class:`ProtocolIR`: the checked AST and every
handler's CFG) is what the C / Mur-phi / Python emitters, ``analysis/``
and the reference interpreter walk.  A protocol read from the compile
cache loads its IR on first access, so a run that only executes never
imports the AST, IR or type-checker modules (DESIGN.md, "Cold start").
"""

from __future__ import annotations

import marshal
import weakref
from dataclasses import dataclass, field
from enum import Enum, unique
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from repro.lang.errors import CompileError
from repro.lang.types import (  # NOBODY, default_value_for: re-exported
    NOBODY,
    T_CONT,
    T_SHARERS,
    default_value_for,
)

if TYPE_CHECKING:
    from repro.lang.typecheck import CheckedProgram
    from repro.compiler.ir import HandlerIR, SuspendSite


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
    """One protocol state: its parameters and who receives each tag."""

    name: str
    params: list[tuple[str, str]]        # (name, type)
    transient: bool
    # Message -> the qualified name ("State.MSG") of this state's own
    # handler for it; every other tag goes to ``default``, the DEFAULT
    # handler's qualified name (None: the state has none).  The IR of
    # either is ``CompiledProtocol.handler_ir(qualified)``.
    handlers: dict[str, str]
    default: Optional[str] = None

    @property
    def is_subroutine(self) -> bool:
        return any(t == T_CONT for _n, t in self.params)

    def dispatch(self, message: str) -> Optional[str]:
        """The qualified name of the handler that receives ``message``
        in this state."""
        return self.handlers.get(message, self.default)


class ProtocolIR(NamedTuple):
    """What the front end and the middle end built: the IR-bearing part
    of a compiled protocol."""

    checked: CheckedProgram
    handlers: dict[tuple[str, str], HandlerIR]


@dataclass
class CompiledProtocol:
    """A fully compiled protocol, ready to execute or pretty-print."""

    name: str
    states: dict[str, CompiledStateInfo]
    messages: dict[str, tuple[str, ...]]
    info_vars: dict[str, str]
    consts: dict[str, object]
    opt_level: OptLevel
    flavor: Flavor
    initial_home_state: str
    initial_cache_state: str
    # The coverage arm universe as sorted qualified names: the error
    # guards (handlers whose whole body is one Error call) apart.
    arms: tuple[str, ...]
    guards: tuple[str, ...]
    # Qualified name -> the (name, type) pairs of the handler's state
    # parameters, locals and message parameters, in that order, for
    # every handler with a suspend site: what symmetry reads to rename
    # the values a continuation record saved.
    frame_types: dict[str, tuple[tuple[str, str], ...]]
    stats: CompileStats = field(default_factory=CompileStats)
    # Ahead-of-time code objects of the Python back end, by qualified
    # handler name (the module header under ""), when this protocol came
    # through repro.compile_cache; None = compile on first dispatch.
    handler_code: Optional[dict] = field(
        default=None, repr=False, compare=False)
    # The IR, or a callable that returns it (the compile cache's second
    # section), called on first access to ``ir``.
    ir_part: Union[ProtocolIR, Callable[[], ProtocolIR], None] = field(
        default=None, repr=False, compare=False)

    @property
    def ir(self) -> ProtocolIR:
        part = self.ir_part
        if not isinstance(part, ProtocolIR):
            part = self.ir_part = part()
        return part

    @property
    def checked(self) -> CheckedProgram:
        return self.ir.checked

    @property
    def handlers(self) -> dict[tuple[str, str], HandlerIR]:
        return self.ir.handlers

    def __getstate__(self) -> dict:
        # Code objects do not pickle; their marshal form does.
        state = dict(self.__dict__)
        if self.handler_code is not None:
            state["handler_code"] = marshal.dumps(self.handler_code)
        return state

    def __setstate__(self, state: dict) -> None:
        if state["handler_code"] is not None:
            state["handler_code"] = marshal.loads(state["handler_code"])
        self.__dict__.update(state)

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
        """The SharerList info variables: exactly one wherever a
        sharer-set builtin is called (a type-checker rule)."""
        return tuple(name for name, type_name in self.info_vars.items()
                     if type_name == T_SHARERS)

    def handler_ir(self, qualified_handler: str) -> HandlerIR:
        state_name, _, message_name = qualified_handler.partition(".")
        return self.handlers[state_name, message_name]

    def suspend_site(self, qualified_handler: str, site_id: int
                     ) -> tuple[HandlerIR, SuspendSite]:
        """Look up a suspend site by the handler's qualified name."""
        handler = self.handler_ir(qualified_handler)
        return handler, handler.suspend_sites[site_id]

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
