"""Semantic analysis for Teapot programs.

Checks performed (Sections 3-5 of the paper define the language rules):

- every ``State`` definition matches a declaration in the ``Protocol``
  block, with consistent parameters;
- states that take a ``CONT`` parameter (subroutine states) must be
  declared ``Transient``;
- handlers use the conventional ``(id : ID; Var info : INFO; src : NODE)``
  parameter prefix, optionally followed by payload parameters, and all
  handlers for the same message agree on the payload signature;
- ``Suspend`` targets a transient state and passes the freshly captured
  continuation to it; ``Resume`` is applied to a ``CONT`` value;
- the sharer-set routines are called only in a protocol that declares
  exactly one ``SharerList`` variable, the set they act on;
- names resolve (locals -> state params -> protocol vars/consts ->
  prelude) and expressions are simply typed.

The result is a :class:`CheckedProgram` carrying the symbol information
that the compiler middle end consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.builtins import (
    BUILTIN_CONSTS,
    BUILTIN_FUNCTIONS,
    BUILTIN_PROCEDURES,
    BuiltinSignature,
    FAULT_EVENTS,
    HANDLER_PARAM_TYPES,
    SHARER_BUILTINS,
)
from repro.lang.errors import CheckError
from repro.lang.symbols import Scope, Symbol, SymbolKind
from repro.lang.types import (
    BUILTIN_TYPES,
    EQUALITY_TYPES,
    INT_LIKE_TYPES,
    T_BOOL,
    T_CONT,
    T_INT,
    T_SHARERS,
    T_STRING,
    types_compatible,
)

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_COMPARE_OPS = {"<", "<=", ">", ">="}
_EQUALITY_OPS = {"=", "!="}
_LOGIC_OPS = {"And", "Or"}


@dataclass
class StateSig:
    """The checked signature of a protocol state."""

    name: str
    params: list[ast.Param]
    transient: bool
    location: object = None

    @property
    def cont_params(self) -> list[ast.Param]:
        return [p for p in self.params if p.type_name == T_CONT]

    @property
    def is_subroutine(self) -> bool:
        return bool(self.cont_params)


@dataclass
class CheckedProgram:
    """A type-checked program plus the tables the compiler needs."""

    program: ast.Program
    protocol_name: str
    states: dict[str, StateSig]
    messages: dict[str, tuple[str, ...]]  # message -> payload types
    info_vars: dict[str, str]             # per-block variable -> type
    consts: dict[str, tuple[str, ast.Expr]]
    functions: dict[str, BuiltinSignature]
    procedures: dict[str, BuiltinSignature]
    abstract_types: set[str]
    handler_scopes: dict[tuple[str, str], Scope] = field(default_factory=dict)
    suspend_targets: dict[str, int] = field(default_factory=dict)

    def state_def(self, name: str) -> ast.StateDef | None:
        return self.program.state_def(name)


class _HandlerChecker:
    """Checks one handler body: scoping, typing, suspend/resume rules."""

    def __init__(self, checked: CheckedProgram, state: ast.StateDef,
                 handler: ast.Handler, scope: Scope):
        self.checked = checked
        self.state = state
        self.handler = handler
        self.scope = scope

    def error(self, message: str, node) -> CheckError:
        return CheckError(
            f"in {self.state.state_name}.{self.handler.message_name}: {message}",
            getattr(node, "location", None),
        )

    # -- expression typing ---------------------------------------------------

    def type_of(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return T_INT
        if isinstance(expr, ast.BoolLit):
            return T_BOOL
        if isinstance(expr, ast.StrLit):
            return T_STRING
        if isinstance(expr, ast.NameRef):
            return self._type_of_name(expr)
        if isinstance(expr, ast.CallExpr):
            return self._type_of_call(expr)
        if isinstance(expr, ast.StateExpr):
            self.check_state_expr(expr)
            return "STATE"
        if isinstance(expr, ast.BinOp):
            return self._type_of_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self._type_of_unop(expr)
        raise self.error(f"unknown expression form {expr!r}", expr)

    def _type_of_name(self, expr: ast.NameRef) -> str:
        symbol = self.scope.lookup(expr.name)
        if symbol is not None:
            return symbol.type_name
        if expr.name in self.checked.messages:
            return "MSGTAG"
        raise self.error(f"undefined name {expr.name!r}", expr)

    def _type_of_call(self, expr: ast.CallExpr) -> str:
        signature = self.checked.functions.get(expr.name)
        if signature is None:
            if expr.name in self.checked.procedures:
                raise self.error(
                    f"{expr.name!r} is a procedure and returns no value",
                    expr,
                )
            raise self.error(f"call to undefined function {expr.name!r}", expr)
        self._check_call_args(expr.name, signature, expr.args, expr)
        assert signature.return_type is not None
        return signature.return_type

    def _check_call_args(self, name: str, signature: BuiltinSignature,
                         args: list[ast.Expr], node) -> None:
        fixed = signature.fixed_param_types
        if signature.is_variadic:
            if len(args) < len(fixed):
                raise self.error(
                    f"{name} expects at least {len(fixed)} arguments, "
                    f"got {len(args)}",
                    node,
                )
        elif len(args) != len(fixed):
            raise self.error(
                f"{name} expects {len(fixed)} arguments, got {len(args)}",
                node,
            )
        if name in SHARER_BUILTINS:
            count = list(self.checked.info_vars.values()).count(T_SHARERS)
            if count != 1:
                raise self.error(
                    f"{name} needs exactly one SharerList protocol "
                    f"variable; {self.checked.protocol_name} has {count}",
                    node,
                )
        for index, expected in enumerate(fixed):
            actual = self.type_of(args[index])
            if expected == "STATE":
                if actual != "STATE":
                    raise self.error(
                        f"argument {index + 1} of {name} must be a state "
                        f"constructor, got {actual}",
                        args[index],
                    )
                continue
            if not types_compatible(expected, actual):
                raise self.error(
                    f"argument {index + 1} of {name} has type {actual}, "
                    f"expected {expected}",
                    args[index],
                )
        # Variadic payload arguments must be simple values.
        for arg in args[len(fixed):]:
            actual = self.type_of(arg)
            if actual in ("STATE", T_CONT):
                raise self.error(
                    f"a {actual} value may not be passed as a message payload",
                    arg,
                )

    def _type_of_binop(self, expr: ast.BinOp) -> str:
        left = self.type_of(expr.left)
        right = self.type_of(expr.right)
        if expr.op in _ARITH_OPS:
            if left not in INT_LIKE_TYPES or right not in INT_LIKE_TYPES:
                raise self.error(
                    f"operator {expr.op!r} needs integer operands, "
                    f"got {left} and {right}",
                    expr,
                )
            return T_INT
        if expr.op in _COMPARE_OPS:
            if left not in INT_LIKE_TYPES or right not in INT_LIKE_TYPES:
                raise self.error(
                    f"operator {expr.op!r} needs integer operands, "
                    f"got {left} and {right}",
                    expr,
                )
            return T_BOOL
        if expr.op in _EQUALITY_OPS:
            comparable = (
                types_compatible(left, right) or types_compatible(right, left)
            )
            if not comparable:
                raise self.error(
                    f"cannot compare {left} with {right}", expr)
            if left not in EQUALITY_TYPES and left not in self.checked.abstract_types:
                raise self.error(
                    f"values of type {left} cannot be compared", expr)
            return T_BOOL
        if expr.op in _LOGIC_OPS:
            if left != T_BOOL or right != T_BOOL:
                raise self.error(
                    f"operator {expr.op!r} needs boolean operands, "
                    f"got {left} and {right}",
                    expr,
                )
            return T_BOOL
        raise self.error(f"unknown operator {expr.op!r}", expr)

    def _type_of_unop(self, expr: ast.UnOp) -> str:
        operand = self.type_of(expr.operand)
        if expr.op == "Not":
            if operand != T_BOOL:
                raise self.error(f"Not needs a boolean, got {operand}", expr)
            return T_BOOL
        if expr.op == "-":
            if operand not in INT_LIKE_TYPES:
                raise self.error(
                    f"unary minus needs an integer, got {operand}", expr)
            return T_INT
        raise self.error(f"unknown unary operator {expr.op!r}", expr)

    def check_state_expr(self, expr: ast.StateExpr) -> StateSig:
        sig = self.checked.states.get(expr.name)
        if sig is None:
            raise self.error(f"reference to undeclared state {expr.name!r}", expr)
        if len(expr.args) != len(sig.params):
            raise self.error(
                f"state {expr.name} takes {len(sig.params)} arguments, "
                f"got {len(expr.args)}",
                expr,
            )
        for param, arg in zip(sig.params, expr.args):
            actual = self.type_of(arg)
            if not types_compatible(param.type_name, actual):
                raise self.error(
                    f"state argument {param.name!r} of {expr.name} has type "
                    f"{actual}, expected {param.type_name}",
                    arg,
                )
        return sig

    # -- statement checking ----------------------------------------------------

    def check_body(self, stmts: list[ast.Stmt]) -> None:
        for stmt in stmts:
            self.check_stmt(stmt)

    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._check_call_stmt(stmt)
        elif isinstance(stmt, ast.If):
            cond = self.type_of(stmt.cond)
            if cond != T_BOOL:
                raise self.error(f"If condition must be BOOL, got {cond}", stmt)
            self.check_body(stmt.then_body)
            self.check_body(stmt.else_body)
        elif isinstance(stmt, ast.While):
            cond = self.type_of(stmt.cond)
            if cond != T_BOOL:
                raise self.error(f"While condition must be BOOL, got {cond}", stmt)
            self.check_body(stmt.body)
        elif isinstance(stmt, ast.Suspend):
            self._check_suspend(stmt)
        elif isinstance(stmt, ast.Resume):
            cont = self.type_of(stmt.cont)
            if cont != T_CONT:
                raise self.error(
                    f"Resume needs a continuation, got {cont}", stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise self.error("handlers may not return a value", stmt)
        elif isinstance(stmt, ast.PrintStmt):
            for arg in stmt.args:
                self.type_of(arg)
        else:
            raise self.error(f"unknown statement form {stmt!r}", stmt)

    def _check_assign(self, stmt: ast.Assign) -> None:
        symbol = self.scope.lookup(stmt.target)
        if symbol is None:
            raise self.error(
                f"assignment to undefined name {stmt.target!r}", stmt)
        if not symbol.is_assignable:
            raise self.error(
                f"cannot assign to {stmt.target!r} (a {symbol.kind.value})",
                stmt,
            )
        actual = self.type_of(stmt.value)
        if not types_compatible(symbol.type_name, actual):
            raise self.error(
                f"cannot assign {actual} to {stmt.target!r} "
                f"of type {symbol.type_name}",
                stmt,
            )

    def _check_call_stmt(self, stmt: ast.CallStmt) -> None:
        signature = self.checked.procedures.get(stmt.name)
        if signature is None:
            if stmt.name in self.checked.functions:
                raise self.error(
                    f"function {stmt.name!r} used as a statement; "
                    "its result would be discarded",
                    stmt,
                )
            raise self.error(f"call to undefined procedure {stmt.name!r}", stmt)
        if stmt.name in ("Send", "SendBlk"):
            self._check_send(stmt, signature)
            return
        self._check_call_args(stmt.name, signature, stmt.args, stmt)

    def _check_send(self, stmt: ast.CallStmt, signature: BuiltinSignature) -> None:
        """Send payload arity/types must match the target message, when known."""
        self._check_call_args(stmt.name, signature, stmt.args, stmt)
        tag = stmt.args[1]
        if not isinstance(tag, ast.NameRef):
            return  # dynamic tag (e.g. forwarding MessageTag): unchecked
        payload_sig = self.checked.messages.get(tag.name)
        if payload_sig is None:
            if self.scope.lookup(tag.name) is not None:
                return  # a MSGTAG variable, not a literal tag
            raise self.error(f"Send of undeclared message {tag.name!r}", stmt)
        payload_args = stmt.args[3:]
        if len(payload_args) != len(payload_sig):
            raise self.error(
                f"message {tag.name} carries {len(payload_sig)} payload "
                f"word(s), but {len(payload_args)} were sent",
                stmt,
            )
        for index, (expected, arg) in enumerate(zip(payload_sig, payload_args)):
            actual = self.type_of(arg)
            if not types_compatible(expected, actual):
                raise self.error(
                    f"payload word {index + 1} of {tag.name} has type "
                    f"{actual}, expected {expected}",
                    arg,
                )

    def _check_suspend(self, stmt: ast.Suspend) -> None:
        # Bind the captured continuation first: the target state expression
        # references it (Suspend(L, Await{L})).
        existing = self.scope.lookup(stmt.cont_name)
        if existing is None:
            self.scope.declare(Symbol(stmt.cont_name, SymbolKind.CONT,
                                      T_CONT, stmt.location))
        elif existing.type_name != T_CONT:
            raise self.error(
                f"Suspend rebinds {stmt.cont_name!r}, which is already "
                f"a {existing.kind.value} of type {existing.type_name}",
                stmt,
            )
        target_sig = self.check_state_expr(stmt.target)
        if not target_sig.transient:
            raise self.error(
                f"Suspend target {stmt.target.name} must be a Transient "
                "(subroutine) state",
                stmt,
            )
        if not target_sig.is_subroutine:
            raise self.error(
                f"Suspend target {stmt.target.name} takes no CONT parameter",
                stmt,
            )
        # The continuation must actually be passed to the target state.
        passed = any(
            isinstance(arg, ast.NameRef) and arg.name == stmt.cont_name
            for arg in stmt.target.args
        )
        if not passed:
            raise self.error(
                f"captured continuation {stmt.cont_name!r} is not passed "
                f"to {stmt.target.name}; it could never be resumed",
                stmt,
            )
        self.checked.suspend_targets[stmt.target.name] = (
            self.checked.suspend_targets.get(stmt.target.name, 0) + 1)


def _collect_declarations(program: ast.Program) -> CheckedProgram:
    """Build the top-level tables and check declaration-level rules."""
    protocol = program.protocol
    abstract_types: set[str] = set()
    functions = dict(BUILTIN_FUNCTIONS)
    procedures = dict(BUILTIN_PROCEDURES)
    module_consts: dict[str, str] = {}

    known_types = set(BUILTIN_TYPES)
    for module in program.modules:
        for decl in module.decls:
            if isinstance(decl, ast.TypeDecl):
                if decl.name in known_types:
                    raise CheckError(
                        f"type {decl.name!r} redeclares a builtin type",
                        decl.location,
                    )
                known_types.add(decl.name)
                abstract_types.add(decl.name)
            elif isinstance(decl, ast.ConstDecl):
                module_consts[decl.name] = decl.type_name
            elif isinstance(decl, ast.FunctionDecl):
                if decl.name in functions or decl.name in procedures:
                    raise CheckError(
                        f"function {decl.name!r} redeclares a builtin",
                        decl.location,
                    )
                functions[decl.name] = BuiltinSignature(
                    decl.name,
                    tuple(p.type_name for p in decl.params),
                    decl.return_type,
                    f"module {module.name}",
                )
            elif isinstance(decl, ast.ProcedureDecl):
                if decl.name in functions or decl.name in procedures:
                    raise CheckError(
                        f"procedure {decl.name!r} redeclares a builtin",
                        decl.location,
                    )
                procedures[decl.name] = BuiltinSignature(
                    decl.name,
                    tuple(p.type_name for p in decl.params),
                    None,
                    f"module {module.name}",
                )

    # Validate declared types exist.
    def check_type(name: str, location) -> None:
        if name not in known_types:
            raise CheckError(f"unknown type {name!r}", location)

    for module in program.modules:
        for decl in module.decls:
            if isinstance(decl, ast.FunctionDecl):
                for param in decl.params:
                    check_type(param.type_name, decl.location)
                check_type(decl.return_type, decl.location)
            elif isinstance(decl, ast.ProcedureDecl):
                for param in decl.params:
                    check_type(param.type_name, decl.location)
            elif isinstance(decl, ast.ConstDecl):
                check_type(decl.type_name, decl.location)

    states: dict[str, StateSig] = {}
    messages: dict[str, tuple[str, ...]] = {}
    info_vars: dict[str, str] = {}
    consts: dict[str, tuple[str, ast.Expr]] = {}

    for decl in protocol.decls:
        if isinstance(decl, ast.StateDecl):
            if decl.name in states:
                raise CheckError(
                    f"state {decl.name!r} declared twice", decl.location)
            for param in decl.params:
                check_type(param.type_name, param.location)
            sig = StateSig(decl.name, decl.params, decl.transient, decl.location)
            if sig.is_subroutine and not decl.transient:
                raise CheckError(
                    f"state {decl.name!r} takes a CONT parameter and must "
                    "be declared Transient",
                    decl.location,
                )
            states[decl.name] = sig
        elif isinstance(decl, ast.MessageDecl):
            if decl.name in messages:
                raise CheckError(
                    f"message {decl.name!r} declared twice", decl.location)
            messages[decl.name] = ()
        elif isinstance(decl, ast.ProtoVarDecl):
            if decl.name in info_vars:
                raise CheckError(
                    f"protocol variable {decl.name!r} declared twice",
                    decl.location,
                )
            check_type(decl.type_name, decl.location)
            info_vars[decl.name] = decl.type_name
        elif isinstance(decl, ast.ProtoConstDef):
            if decl.name in consts:
                raise CheckError(
                    f"protocol constant {decl.name!r} declared twice",
                    decl.location,
                )
            if isinstance(decl.value, ast.IntLit):
                consts[decl.name] = (T_INT, decl.value)
            elif isinstance(decl.value, ast.BoolLit):
                consts[decl.name] = (T_BOOL, decl.value)
            else:
                raise CheckError(
                    f"protocol constant {decl.name!r} must be a literal",
                    decl.location,
                )

    # Fault events are implicitly declared messages.
    for fault in FAULT_EVENTS:
        messages.setdefault(fault, ())

    for name, type_name in module_consts.items():
        consts.setdefault(name, (type_name, ast.NameRef(name)))

    return CheckedProgram(
        program=program,
        protocol_name=protocol.name,
        states=states,
        messages=messages,
        info_vars=info_vars,
        consts=consts,
        functions=functions,
        procedures=procedures,
        abstract_types=abstract_types,
    )


def _infer_payload_signatures(checked: CheckedProgram) -> None:
    """Each message's payload signature is defined by its handlers.

    All handlers for a given message (across states) must agree on the
    number and types of payload parameters beyond the conventional
    ``(id, info, src)`` prefix.
    """
    seen: dict[str, tuple[tuple[str, ...], str]] = {}
    for state in checked.program.states:
        for handler in state.handlers:
            if handler.is_default:
                continue
            if handler.message_name not in checked.messages:
                # Leave undeclared messages to the per-handler check;
                # inferring a payload here would implicitly declare them.
                continue
            payload = tuple(p.type_name for p in handler.params[3:])
            where = f"{state.state_name}.{handler.message_name}"
            previous = seen.get(handler.message_name)
            if previous is not None and previous[0] != payload:
                raise CheckError(
                    f"handler {where} declares payload {payload} for "
                    f"message {handler.message_name}, but {previous[1]} "
                    f"declared {previous[0]}",
                    handler.location,
                )
            seen[handler.message_name] = (payload, where)
    for message, (payload, _) in seen.items():
        checked.messages[message] = payload


def _check_handler_signature(state: ast.StateDef, handler: ast.Handler) -> None:
    """Handlers must start with the conventional (ID, Var INFO, NODE) prefix."""
    where = f"{state.state_name}.{handler.message_name}"
    if len(handler.params) < len(HANDLER_PARAM_TYPES):
        raise CheckError(
            f"handler {where} must take at least the conventional "
            "(id : ID; Var info : INFO; src : NODE) parameters",
            handler.location,
        )
    for index, expected in enumerate(HANDLER_PARAM_TYPES):
        param = handler.params[index]
        if param.type_name != expected:
            raise CheckError(
                f"handler {where}: parameter {index + 1} ({param.name!r}) "
                f"must have type {expected}, got {param.type_name}",
                param.location,
            )
    if not handler.params[1].by_ref:
        raise CheckError(
            f"handler {where}: the INFO parameter must be declared Var",
            handler.params[1].location,
        )
    if handler.is_default and len(handler.params) > 3:
        raise CheckError(
            f"handler {where}: DEFAULT handlers take no payload parameters",
            handler.location,
        )


def check_program(program: ast.Program) -> CheckedProgram:
    """Run all semantic checks; returns the tables the compiler consumes.

    Raises :class:`~repro.lang.errors.CheckError` on the first violation.
    """
    checked = _collect_declarations(program)
    protocol = program.protocol

    # Every state definition must match a declaration, and vice versa.
    defined: set[str] = set()
    for state in program.states:
        if state.protocol_name and state.protocol_name != protocol.name:
            raise CheckError(
                f"state {state.state_name} belongs to protocol "
                f"{state.protocol_name!r}, expected {protocol.name!r}",
                state.location,
            )
        sig = checked.states.get(state.state_name)
        if sig is None:
            raise CheckError(
                f"state {state.state_name!r} is defined but never declared "
                "in the protocol block",
                state.location,
            )
        if state.state_name in defined:
            raise CheckError(
                f"state {state.state_name!r} is defined twice",
                state.location,
            )
        defined.add(state.state_name)
        declared = [(p.name, p.type_name) for p in sig.params]
        given = [(p.name, p.type_name) for p in state.params]
        if declared != given:
            raise CheckError(
                f"state {state.state_name!r} is defined with parameters "
                f"{given}, declared with {declared}",
                state.location,
            )

    for sig in checked.states.values():
        if sig.name not in defined:
            raise CheckError(
                f"state {sig.name!r} is declared but never defined",
                sig.location,
            )

    _infer_payload_signatures(checked)

    # Check each handler.
    for state in program.states:
        seen_messages: set[str] = set()
        for handler in state.handlers:
            where = f"{state.state_name}.{handler.message_name}"
            if handler.message_name in seen_messages:
                raise CheckError(
                    f"duplicate handler for {where}", handler.location)
            seen_messages.add(handler.message_name)
            if not handler.is_default and \
                    handler.message_name not in checked.messages:
                raise CheckError(
                    f"handler {where} for undeclared message "
                    f"{handler.message_name!r}",
                    handler.location,
                )
            _check_handler_signature(state, handler)

            scope = Scope(label=where)
            for param in state.params:
                scope.declare(Symbol(param.name, SymbolKind.STATE_PARAM,
                                     param.type_name, param.location))
            # Protocol-level names live logically outside the handler scope;
            # declare them first so handler params may shadow... the paper's
            # scoping is flat, so shadowing is an error instead: declare in
            # the same scope and let Scope.declare reject duplicates.
            for name, type_name in checked.info_vars.items():
                scope.declare(Symbol(name, SymbolKind.INFO_VAR, type_name))
            for name, (type_name, _value) in checked.consts.items():
                scope.declare(Symbol(name, SymbolKind.PROTO_CONST, type_name))
            for const in BUILTIN_CONSTS.values():
                scope.declare(Symbol(const.name, SymbolKind.BUILTIN_CONST,
                                     const.type_name))
            for param in handler.params:
                scope.declare(Symbol(param.name, SymbolKind.PARAM,
                                     param.type_name, param.location))
            for decl in handler.local_decls:
                if decl.type_name not in BUILTIN_TYPES and \
                        decl.type_name not in checked.abstract_types:
                    raise CheckError(
                        f"unknown type {decl.type_name!r}", decl.location)
                scope.declare(Symbol(decl.name, SymbolKind.LOCAL,
                                     decl.type_name, decl.location))

            checker = _HandlerChecker(checked, state, handler, scope)
            checker.check_body(handler.body)
            checked.handler_scopes[(state.state_name, handler.message_name)] = scope

    return checked
