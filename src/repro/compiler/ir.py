"""Intermediate representation: handler bodies as control-flow graphs.

A handler body lowers to a graph of :class:`BasicBlock`, each holding
straight-line :class:`Op` instructions and one :class:`Terminator`.
Expressions are kept as (checked) AST nodes -- Teapot expressions are
side-effect-free apart from support-function calls, so there is nothing
to gain from flattening them.

``Suspend`` becomes a block terminator: the paper's splitting
transformation (Figure 10) falls out of this representation for free,
because the block that follows a :class:`TSuspend` is exactly the entry
point of the generated ``<handler>_after_<L>`` fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from repro.lang import ast
from repro.lang.types import default_value_for

BlockId = int


# ---------------------------------------------------------------------------
# Straight-line operations
# ---------------------------------------------------------------------------


@dataclass
class IAssign:
    """``target := value``; ``target`` is a handler/local/info variable."""

    target: str
    value: ast.Expr


@dataclass
class ICall:
    """A procedure call statement (builtin or module support routine)."""

    name: str
    args: list[ast.Expr]


@dataclass
class IResume:
    """``Resume(cont)``.

    ``direct_site`` is filled in by the constant-continuation
    optimisation when exactly one suspend site can reach this resume:
    the back ends may then jump straight to that site's resume fragment
    instead of making an indirect call through the continuation record.
    """

    cont: ast.Expr
    direct_site: Optional[int] = None
    direct_handler: Optional[str] = None  # qualified name owning direct_site


@dataclass
class IPrint:
    """Debug output."""

    args: list[ast.Expr]


Op = Union[IAssign, ICall, IResume, IPrint]


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass
class TGoto:
    target: BlockId


@dataclass
class TBranch:
    cond: ast.Expr
    true_target: BlockId
    false_target: BlockId


@dataclass
class TSuspend:
    """Capture a continuation, enter the subroutine state, and yield.

    ``resume_target`` is the block where execution continues when the
    captured continuation is resumed -- the entry of the split-off
    fragment.  ``site_id`` indexes the handler's ``suspend_sites``.
    """

    site_id: int
    resume_target: BlockId


@dataclass
class TReturn:
    """End of the atomic action (the paper's ``exit``)."""


Terminator = Union[TGoto, TBranch, TSuspend, TReturn]


@dataclass
class BasicBlock:
    block_id: BlockId
    ops: list[Op] = field(default_factory=list)
    terminator: Terminator = field(default_factory=TReturn)

    def successors(self) -> list[BlockId]:
        term = self.terminator
        if isinstance(term, TGoto):
            return [term.target]
        if isinstance(term, TBranch):
            return [term.true_target, term.false_target]
        if isinstance(term, TSuspend):
            # Control continues at the resume target *in a later atomic
            # action*; for liveness purposes it is still a successor.
            return [term.resume_target]
        return []


@dataclass
class SuspendSite:
    """One ``Suspend`` statement, after lowering.

    - ``cont_name``: the variable the continuation is bound to.
    - ``target``: the subroutine-state constructor (evaluated at suspend
      time, with ``cont_name`` in scope).
    - ``resume_block``: where the continuation resumes.
    - ``save_set``: variables captured in the continuation record; set by
      liveness (or "everything" at -O0).
    - ``is_static``: no live values, so a statically allocated record can
      be shared by all instances (constant-continuation optimisation).
    """

    site_id: int
    cont_name: str
    target: ast.StateExpr
    resume_block: BlockId
    save_set: tuple[str, ...] = ()
    is_static: bool = False
    location: object = None


@dataclass
class HandlerIR:
    """A lowered handler: CFG, suspend sites, and variable tables."""

    state_name: str
    message_name: str
    params: list[str]                 # in declaration order (id, info, src, ...)
    param_types: dict[str, str]
    locals: dict[str, str]            # local name -> type
    state_params: dict[str, str]      # enclosing state's params
    cont_vars: tuple[str, ...]        # names bound by Suspend
    blocks: dict[BlockId, BasicBlock]
    entry: BlockId
    suspend_sites: list[SuspendSite]

    @property
    def qualified_name(self) -> str:
        return f"{self.state_name}.{self.message_name}"

    @cached_property
    def frame_vars(self) -> list[str]:
        """Variables that live in the handler's activation frame.

        These are the candidates for saving in a continuation record:
        handler parameters, locals, state parameters, and captured
        continuations.  Info variables and constants are *not* part of
        the frame -- they are re-fetched from the block record.
        Computed once: the variable tables are fixed by lowering.
        """
        names = list(self.params)
        names += [n for n in self.locals if n not in names]
        names += [n for n in self.state_params if n not in names]
        names += [n for n in self.cont_vars if n not in names]
        return names

    @cached_property
    def frame_template(self) -> dict[str, object]:
        """A fresh activation frame: every frame variable, locals at
        their type's default value and the rest None.  Engines copy it
        per activation (entry and resume) and bind parameters over it."""
        frame: dict[str, object] = dict.fromkeys(self.frame_vars)
        for name, type_name in self.locals.items():
            frame[name] = default_value_for(type_name)
        return frame

    def block(self, block_id: BlockId) -> BasicBlock:
        return self.blocks[block_id]

    def fragment_entries(self) -> list[BlockId]:
        """Entry blocks of the split fragments: handler entry, then one
        per suspend site (Figure 10's ``HANDLER`` and ``HANDLER_after_L``)."""
        return [self.entry] + [site.resume_block for site in self.suspend_sites]

    def rpo_blocks(self) -> list[BasicBlock]:
        """Blocks in reverse post-order from the entry (stable for tests)."""
        seen: set[BlockId] = set()
        order: list[BlockId] = []

        def visit(block_id: BlockId) -> None:
            if block_id in seen:
                return
            seen.add(block_id)
            for succ in self.blocks[block_id].successors():
                visit(succ)
            order.append(block_id)

        visit(self.entry)
        # Suspend resume targets are reachable via TSuspend successors, but
        # guard against unreachable blocks (e.g. code after Return).
        for block_id in self.blocks:
            visit(block_id)
        order.reverse()
        return [self.blocks[b] for b in order]


def is_error_guard(handler: HandlerIR) -> bool:
    """True when the handler's whole body is a single ``Error`` call:
    it exists to make unexpected messages loud, so coverage counts it
    apart (``CompiledProtocol.guards``)."""
    entry = handler.blocks[handler.entry]
    if len(entry.ops) != 1 or entry.successors():
        return False
    op = entry.ops[0]
    return isinstance(op, ICall) and op.name == "Error"
