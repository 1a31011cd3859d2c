"""Abstract syntax tree for the Teapot language (Appendix A of the paper).

A program is: support ``Module`` declarations (abstract types, constants,
and prototypes of externally supplied functions/procedures), one
``Protocol`` declaration (per-block variables, state and message
declarations), and a series of ``State`` definitions, each containing
``Message`` handlers.

Every node carries a :class:`~repro.lang.errors.SourceLocation` so the
checker and compiler can report positioned diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.lang.errors import SourceLocation

# Name of the catch-all handler (as in the paper's examples).
DEFAULT_MESSAGE = "DEFAULT"

_NOWHERE = SourceLocation(0, 0, "<generated>")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""

    location: SourceLocation = field(default=_NOWHERE, kw_only=True)


@dataclass
class IntLit(Expr):
    """An integer literal, e.g. ``42``."""

    value: int


@dataclass
class BoolLit(Expr):
    """``True`` or ``False``."""

    value: bool


@dataclass
class StrLit(Expr):
    """A string literal (used for Error/Print format strings)."""

    value: str


@dataclass
class NameRef(Expr):
    """A reference to a variable, parameter, constant, or builtin."""

    name: str


@dataclass
class CallExpr(Expr):
    """A function application ``id ( exprs )``."""

    name: str
    args: list[Expr]


@dataclass
class StateExpr(Expr):
    """A state constructor ``id { exprs }``.

    Appears as the target of ``Suspend``, as the argument of ``SetState``,
    and anywhere a state value is needed.  The arguments instantiate the
    state's declared parameters (typically a continuation).
    """

    name: str
    args: list[Expr]


@dataclass
class BinOp(Expr):
    """A binary operation; ``op`` is a source spelling like ``+`` or ``And``."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnOp(Expr):
    """A unary operation; ``op`` is ``Not`` or ``-``."""

    op: str
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statement nodes."""

    location: SourceLocation = field(default=_NOWHERE, kw_only=True)


@dataclass
class Assign(Stmt):
    """``target := expr``."""

    target: str
    value: Expr


@dataclass
class CallStmt(Stmt):
    """A procedure call used as a statement, e.g. ``Send(home, REQ, id)``."""

    name: str
    args: list[Expr]


@dataclass
class If(Stmt):
    """``If (expr) Then stmts [Else stmts] Endif``."""

    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass
class While(Stmt):
    """``While (expr) Do stmts End``."""

    cond: Expr
    body: list[Stmt]


@dataclass
class Suspend(Stmt):
    """``Suspend(L, State{...L...})``.

    Captures the current continuation into ``cont_name``, transfers the
    block to the subroutine state built by ``target`` (whose arguments
    normally include ``cont_name``), and yields the processor.  Execution
    continues after this statement when some handler in the subroutine
    state executes ``Resume`` on the captured continuation.
    """

    cont_name: str
    target: StateExpr


@dataclass
class Resume(Stmt):
    """``Resume(C)`` -- restore the suspended handler held in ``C``."""

    cont: Expr


@dataclass
class Return(Stmt):
    """``Return [expr]`` -- finish the handler early."""

    value: Optional[Expr]


@dataclass
class PrintStmt(Stmt):
    """``Print(exprs)`` -- debugging output."""

    args: list[Expr]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A formal parameter ``[Var] name : type``.

    ``by_ref`` corresponds to the grammar's ``Var`` prefix; the paper uses
    it for the per-block ``info`` record passed to every handler.
    """

    name: str
    type_name: str
    by_ref: bool = False
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class TypeDecl:
    """``Type id;`` -- an abstract type supplied by support code."""

    name: str
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class ConstDecl:
    """``Const id : type;`` inside a module -- an abstract constant."""

    name: str
    type_name: str
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class FunctionDecl:
    """``Function id(params) : rettype;`` -- an external function prototype."""

    name: str
    params: list[Param]
    return_type: str
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class ProcedureDecl:
    """``Procedure id(params);`` -- an external procedure prototype."""

    name: str
    params: list[Param]
    location: SourceLocation = field(default=_NOWHERE)


ModuleDecl = Union[TypeDecl, ConstDecl, FunctionDecl, ProcedureDecl]


@dataclass
class Module:
    """``Module id Begin ... End;`` -- support-code interface declarations."""

    name: str
    decls: list[ModuleDecl]
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class ProtoVarDecl:
    """``Var id : type;`` inside a protocol -- a per-block info field."""

    name: str
    type_name: str
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class ProtoConstDef:
    """``Const id := value;`` inside a protocol."""

    name: str
    value: Expr
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class StateDecl:
    """``State id {params} [Transient];`` -- declares a state's signature."""

    name: str
    params: list[Param]
    transient: bool = False
    location: SourceLocation = field(default=_NOWHERE)


@dataclass
class MessageDecl:
    """``Message id;`` -- declares a protocol message tag."""

    name: str
    location: SourceLocation = field(default=_NOWHERE)


ProtocolDecl = Union[ProtoVarDecl, ProtoConstDef, StateDecl, MessageDecl]


@dataclass
class Protocol:
    """``Protocol id Begin ... End;``"""

    name: str
    decls: list[ProtocolDecl]
    location: SourceLocation = field(default=_NOWHERE)

    @property
    def var_decls(self) -> list[ProtoVarDecl]:
        return [d for d in self.decls if isinstance(d, ProtoVarDecl)]

    @property
    def const_defs(self) -> list[ProtoConstDef]:
        return [d for d in self.decls if isinstance(d, ProtoConstDef)]

    @property
    def state_decls(self) -> list[StateDecl]:
        return [d for d in self.decls if isinstance(d, StateDecl)]

    @property
    def message_decls(self) -> list[MessageDecl]:
        return [d for d in self.decls if isinstance(d, MessageDecl)]


# ---------------------------------------------------------------------------
# State and handler definitions
# ---------------------------------------------------------------------------


@dataclass
class Handler:
    """``Message id (params) [Var decls] Begin stmts End;``

    ``message_name`` is ``DEFAULT`` for the catch-all handler.
    """

    message_name: str
    params: list[Param]
    local_decls: list[Param]
    body: list[Stmt]
    location: SourceLocation = field(default=_NOWHERE)

    @property
    def is_default(self) -> bool:
        return self.message_name == DEFAULT_MESSAGE


@dataclass
class StateDef:
    """``State protocol.state {params} Begin messages End;``"""

    protocol_name: str
    state_name: str
    params: list[Param]
    handlers: list[Handler]
    location: SourceLocation = field(default=_NOWHERE)

    def handler_for(self, message_name: str) -> Optional[Handler]:
        for handler in self.handlers:
            if handler.message_name == message_name:
                return handler
        return None


@dataclass
class Program:
    """A complete Teapot compilation unit."""

    modules: list[Module]
    protocol: Protocol
    states: list[StateDef]
    location: SourceLocation = field(default=_NOWHERE)

    def state_def(self, name: str) -> Optional[StateDef]:
        for state in self.states:
            if state.state_name == name:
                return state
        return None


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, (CallExpr, StateExpr)):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_expr(expr.operand)


def walk_stmts(stmts: list[Stmt]):
    """Yield every statement in ``stmts``, recursively, pre-order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)
