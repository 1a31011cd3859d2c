"""The Python back end: the execution engine of compiled protocols.

Each handler becomes one Python function over ``(rt, env, pc)``: ``rt``
is the :class:`CompiledEngine` driving it, ``env`` the activation frame,
``pc`` the basic block to start at (the entry, or a suspend site's
resume block).  Control flow is a program-counter trampoline, so suspend
points inside loops and conditionals split exactly as in the
interpreter.  The function carries the interpreter's whole semantics:
before every operation ``rt.step`` counts it against
``MAX_OPS_PER_ACTION`` and charges ``statement``; a builtin's
``BUILTIN_COSTS`` charge sits between the evaluation of its arguments
and the call; names are resolved when the text is emitted.  What is the
same for every handler -- dispatch, frame construction, suspend and
resume, with their charges, counters and observer hooks -- lives in
:class:`CompiledEngine`.

Cost values are per machine, so the emitted code never contains one: it
reads them through ``rt`` at run time, and one compiled function serves
every machine and every checker over the same protocol.

``emit_python`` (``teapot compile --target python``) prints a module
header, every handler's function and a table; the engine executes that
same header and those same function texts, one handler at a time on
first dispatch -- compiled then, or taken from the code objects a
compile-cache entry stored ahead of time (``protocol.handler_code``).
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import CompileError, RuntimeProtocolError
from repro.compiler.ir import (
    HandlerIR,
    IAssign,
    ICall,
    IPrint,
    IResume,
    TBranch,
    TGoto,
    TReturn,
    TSuspend,
)
from repro.runtime.builtins import BUILTIN_COSTS, BUILTIN_IMPLS
from repro.runtime.context import INFO_HANDLE, ProtocolContext
from repro.runtime.continuation import ContinuationRecord, make_continuation
from repro.runtime.exec import MAX_OPS_PER_ACTION
from repro.runtime.protocol import (
    CompiledProtocol,
    Flavor,
    weak_protocol_entry,
)

_COMPARISONS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
# Teapot operator -> Python operator ("/", "%", And, Or are emitted
# specially).
_OPERATORS = {**_COMPARISONS, "+": "+", "-": "-", "*": "*"}


def _fn_name(handler: HandlerIR) -> str:
    return f"h_{handler.state_name}__{handler.message_name}"


def _tuple(items: list[str]) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _is_bool(expr: ast.Expr) -> bool:
    """Does ``expr`` always evaluate to a Python bool?"""
    if isinstance(expr, ast.BinOp):
        return expr.op in _COMPARISONS or expr.op in ("And", "Or")
    if isinstance(expr, ast.UnOp):
        return expr.op == "Not"
    return isinstance(expr, ast.BoolLit)


class _ExprEmitter:
    """Compiles Teapot expressions to Python expression strings."""

    def __init__(self, protocol: CompiledProtocol, handler: HandlerIR):
        self.protocol = protocol
        self.handler = handler
        self.frame = set(handler.frame_vars)

    def emit(self, expr: ast.Expr) -> str:
        if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit)):
            return repr(expr.value)
        if isinstance(expr, ast.NameRef):
            return self._emit_name(expr.name)
        if isinstance(expr, ast.CallExpr):
            if expr.name in BUILTIN_COSTS:
                # Only procedures carry a charge, and the type checker
                # keeps procedures out of expressions.
                raise CompileError(
                    f"procedure {expr.name!r} used as a value in "
                    f"{self.handler.qualified_name}")
            return self.emit_call(expr.name, self.emit_args(expr.args))
        if isinstance(expr, ast.StateExpr):
            args = _tuple([self.emit(a) for a in expr.args])
            return f"StateValue({expr.name!r}, {args})"
        if isinstance(expr, ast.BinOp):
            return self._emit_binop(expr)
        if isinstance(expr, ast.UnOp):
            operand = self.emit(expr.operand)
            return f"(not {operand})" if expr.op == "Not" else f"(-{operand})"
        raise CompileError(f"cannot emit expression {expr!r}")

    def emit_args(self, args: list[ast.Expr]) -> str:
        return f"[{', '.join(self.emit(a) for a in args)}]"

    def emit_call(self, name: str, args: str) -> str:
        if name in BUILTIN_IMPLS:
            return f"BI_{name}(rt, {args})"
        return f"ctx.support_call({name!r}, {args})"

    def _emit_bool(self, expr: ast.Expr) -> str:
        text = self.emit(expr)
        return text if _is_bool(expr) else f"bool({text})"

    def _emit_binop(self, expr: ast.BinOp) -> str:
        op = expr.op
        if op in ("And", "Or"):
            return (f"({self._emit_bool(expr.left)} {op.lower()} "
                    f"{self._emit_bool(expr.right)})")
        left = self.emit(expr.left)
        right = self.emit(expr.right)
        if op == "/":
            return f"rt.div({left}, {right})"
        if op == "%":
            return f"rt.mod({left}, {right})"
        if op not in _OPERATORS:
            raise CompileError(f"unknown operator {op!r}")
        return f"({left} {_OPERATORS[op]} {right})"

    def _emit_name(self, name: str) -> str:
        # Same resolution order as HandlerInterpreter._eval_name.
        if name in self.frame:
            return f"env[{name!r}]"
        if name in self.protocol.info_vars:
            return f"ctx.get_info({name!r})"
        if name in self.protocol.consts:
            return repr(self.protocol.consts[name])
        if name == "MyNode":
            return "ctx.node"
        if name == "Nobody":
            return "NOBODY"
        if name == "MessageTag":
            return "ctx.current_message.tag"
        if name.startswith("Blk_") or name in self.protocol.messages:
            return repr(name)
        if name in self.protocol.checked.consts:
            return f"ctx.support_const({name!r})"
        raise CompileError(
            f"cannot resolve name {name!r} in {self.handler.qualified_name}")


def _emit_op(emitter: _ExprEmitter, op) -> list[str]:
    qualified = emitter.handler.qualified_name
    if isinstance(op, IAssign):
        value = emitter.emit(op.value)
        if op.target in emitter.frame:
            return [f"env[{op.target!r}] = {value}"]
        if op.target in emitter.protocol.info_vars:
            return [f"ctx.set_info({op.target!r}, {value})"]
        raise CompileError(
            f"assignment to unknown variable {op.target!r} in {qualified}")
    if isinstance(op, ICall):
        args = emitter.emit_args(op.args)
        cost = BUILTIN_COSTS.get(op.name)
        if cost is None:
            return [emitter.emit_call(op.name, args)]
        return [f"args = {args}",
                f"ctx.charge(ctx.costs.{cost})",
                emitter.emit_call(op.name, "args")]
    if isinstance(op, IResume):
        direct = op.direct_site is not None
        return [f"rt.resume({emitter.emit(op.cont)}, {direct!r}, "
                f"{qualified!r})"]
    if isinstance(op, IPrint):
        return [f"ctx.debug_print({emitter.emit_args(op.args)})"]
    raise CompileError(f"cannot emit op {op!r}")


def _emit_terminator(emitter: _ExprEmitter, block_id: int,
                     term) -> list[str]:
    """The block's last lines.  A jump to a later block falls through
    the ``if pc ==`` chain to its target; only a backward jump restarts
    the chain."""
    handler = emitter.handler
    qualified = handler.qualified_name
    if isinstance(term, TGoto):
        lines = [f"pc = {term.target}"]
        return lines if term.target > block_id else lines + ["continue"]
    if isinstance(term, TBranch):
        lines = [f"rt.step({qualified!r})",
                 f"pc = {term.true_target} if {emitter.emit(term.cond)} "
                 f"else {term.false_target}"]
        forward = min(term.true_target, term.false_target) > block_id
        return lines if forward else lines + ["continue"]
    if isinstance(term, TReturn):
        return ["return"]
    if isinstance(term, TSuspend):
        site = handler.suspend_sites[term.site_id]
        saved = _tuple([f"({name!r}, env[{name!r}])"
                        for name in site.save_set])
        static = site.is_static and not site.save_set
        target_args = _tuple([emitter.emit(a) for a in site.target.args])
        return [
            f"env[{site.cont_name!r}] = rt.suspend({qualified!r}, "
            f"{site.site_id}, {saved}, {static!r}, {site.target.name!r})",
            f"ctx.set_state({site.target.name!r}, {target_args})",
            "return",
        ]
    raise CompileError(f"cannot emit terminator {term!r}")


def emit_handler(protocol: CompiledProtocol, handler: HandlerIR) -> str:
    """The Python function for one handler (all of its fragments)."""
    emitter = _ExprEmitter(protocol, handler)
    qualified = handler.qualified_name
    lines = [
        f"def {_fn_name(handler)}(rt, env, pc={handler.entry}):",
        f'    """{qualified}"""',
        "    ctx = rt.ctx",
        "    while True:",
    ]
    for block_id in sorted(handler.blocks):
        block = handler.blocks[block_id]
        lines.append(f"        if pc == {block_id}:")
        body: list[str] = []
        for op in block.ops:
            body.append(f"rt.step({qualified!r})")
            body.extend(_emit_op(emitter, op))
        body.extend(_emit_terminator(emitter, block_id, block.terminator))
        lines.extend(f"            {line}" for line in body)
    lines.append("        raise RuntimeError(f'bad pc {pc}')")
    return "\n".join(lines) + "\n\n\n"


def emit_header(protocol: CompiledProtocol) -> str:
    """The module preamble: the names handler functions use as globals."""
    lines = [
        '"""Generated by the Teapot Python back end.',
        "",
        f"protocol: {protocol.name}",
        f"optimisation level: {protocol.opt_level.name}",
        '"""',
        "",
        "from repro.runtime.builtins import BUILTIN_IMPLS",
        "from repro.runtime.protocol import NOBODY, StateValue",
        "",
    ]
    lines.extend(f"BI_{name} = BUILTIN_IMPLS[{name!r}]"
                 for name in sorted(BUILTIN_IMPLS))
    return "\n".join(lines) + "\n\n\n"


def emit_python(protocol: CompiledProtocol) -> str:
    """Generate the executable Python module for ``protocol``: exactly
    the header and handler functions :class:`CompiledEngine` runs."""
    keys = sorted(protocol.handlers)
    parts = [emit_header(protocol)]
    parts.extend(emit_handler(protocol, protocol.handlers[key])
                 for key in keys)
    parts.append("HANDLERS = {\n")
    parts.extend(
        f"    ({state!r}, {message!r}): "
        f"{_fn_name(protocol.handlers[state, message])},\n"
        for state, message in keys)
    parts.append("}\n")
    return "".join(parts)


class _HandlerCode:
    """One compiled handler: its function, and what dispatch and resume
    need to build its activation frame."""

    __slots__ = ("fn", "message_name", "frame", "state_params", "params",
                 "payload_params", "resume_blocks")

    def __init__(self, fn, handler: HandlerIR):
        self.fn = fn
        self.message_name = handler.message_name
        self.frame = handler.frame_template
        self.state_params = tuple(handler.state_params)
        self.params = handler.params
        # A DEFAULT handler serves many tags: the payload stays unbound.
        self.payload_params = (
            () if handler.message_name == "DEFAULT"
            else tuple(enumerate(handler.params[3:])))
        self.resume_blocks = [
            site.resume_block for site in handler.suspend_sites]


class _ProtocolCode:
    """The compiled handlers of one protocol, filled on demand."""

    __slots__ = ("namespace", "by_name", "by_tag")

    def __init__(self):
        self.namespace: dict = {}    # globals of the handler functions
        self.by_name: dict = {}      # qualified name -> _HandlerCode
        self.by_tag: dict = {}       # (state name, tag) -> _HandlerCode


# Compiled code is a function of the protocol alone (never of a machine
# or its cost model), so it is shared process-wide and dies with the
# protocol, like the checker's engine caches.
_PROTOCOL_CODE: dict = {}


def _protocol_code(protocol: CompiledProtocol) -> _ProtocolCode:
    return weak_protocol_entry(_PROTOCOL_CODE, protocol, _ProtocolCode)


def compiled_handler(protocol: CompiledProtocol,
                     handler: HandlerIR) -> _HandlerCode:
    """``handler``'s compiled form, compiling it on first use."""
    cache = _protocol_code(protocol)
    code = cache.by_name.get(handler.qualified_name)
    if code is None:
        namespace = cache.namespace
        stored = protocol.handler_code or {}
        filename = f"<{protocol.name}.py>"
        if not namespace:
            exec(stored.get("")
                 or compile(emit_header(protocol), filename, "exec"),
                 namespace)
        exec(stored.get(handler.qualified_name)
             or compile(emit_handler(protocol, handler), filename, "exec"),
             namespace)
        code = cache.by_name[handler.qualified_name] = _HandlerCode(
            namespace[_fn_name(handler)], handler)
    return code


class CompiledEngine:
    """Executes a protocol's compiled handlers against a host context.

    The execution engine of the simulator and the checker; the same
    interface as :class:`~repro.runtime.exec.HandlerInterpreter`, whose
    methods are the reference for everything here.
    """

    def __init__(self, protocol: CompiledProtocol, ctx: ProtocolContext):
        self.protocol = protocol
        self.ctx = ctx
        self._code = _protocol_code(protocol)
        self._teapot = protocol.flavor is Flavor.TEAPOT
        self._ops = 0
        self._statement = 0

    # -- dispatch ---------------------------------------------------------

    def dispatch(self) -> None:
        """Handle the context's current message as one atomic action."""
        ctx = self.ctx
        msg = ctx.current_message
        state_name, state_args = ctx.get_state()
        code = self._code.by_tag.get((state_name, msg.tag))
        if code is None:
            code = self._resolve(state_name, msg)
            if code is None:
                return

        ctx.counters.handler_dispatches += 1
        obs = ctx.obs
        if obs is not None:
            start = getattr(ctx, "now", 0)
            obs.handler_entry(ctx.node, msg.block, state_name,
                              code.message_name, msg.src, start)
        costs = ctx.costs
        cycles = costs.dispatch
        if self._teapot:
            cycles += costs.indirect_call
        ctx.charge(cycles)

        env = code.frame.copy()
        if state_args:
            # State parameters come from the block's current state value.
            env.update(zip(code.state_params, state_args))
        params = code.params
        env[params[0]] = msg.block
        env[params[1]] = INFO_HANDLE
        env[params[2]] = msg.src
        payload = msg.payload
        for index, name in code.payload_params:
            env[name] = payload[index] if index < len(payload) else None

        self._ops = 0
        self._statement = costs.statement
        code.fn(self, env)
        if obs is not None:
            obs.handler_exit(ctx.node, msg.block, state_name,
                             code.message_name, start,
                             getattr(ctx, "now", 0))

    def _resolve(self, state_name: str, msg):
        """First dispatch of ``msg.tag`` in ``state_name``: find the
        handler (DEFAULT fallback included) and compile it."""
        state = self.protocol.states.get(state_name)
        if state is None:
            self.ctx.error(
                f"block {msg.block} is in unknown state {state_name!r}")
            return None
        handler = state.dispatch(msg.tag)
        if handler is None:
            self.ctx.error(
                f"unexpected message {msg.tag} to state {state_name} "
                f"(block {msg.block}, from node {msg.src})")
            return None
        code = compiled_handler(self.protocol, handler)
        self._code.by_tag[state_name, msg.tag] = code
        return code

    # -- called by the compiled functions -----------------------------------

    def step(self, qualified: str) -> None:
        """Before each operation: the diverging-loop guard, then the
        per-statement charge."""
        self._ops += 1
        if self._ops > MAX_OPS_PER_ACTION:
            raise RuntimeProtocolError(
                f"handler {qualified} exceeded "
                f"{MAX_OPS_PER_ACTION} operations; diverging loop?")
        self.ctx.charge(self._statement)

    def div(self, left, right):
        if right == 0:
            self.ctx.error("division by zero in protocol code")
            return 0
        return int(left / right)

    def mod(self, left, right):
        if right == 0:
            self.ctx.error("modulo by zero in protocol code")
            return 0
        return left % right

    def suspend(self, qualified: str, site_id: int, saved: tuple,
                is_static: bool, to_state: str) -> ContinuationRecord:
        """Capture a continuation at a suspend site; the caller binds it
        and then enters ``to_state``."""
        ctx = self.ctx
        counters = ctx.counters
        counters.suspends += 1
        if is_static:
            counters.static_cont_uses += 1
        else:
            costs = ctx.costs
            counters.cont_allocs += 1
            ctx.charge(costs.cont_alloc)
            ctx.charge(costs.save_restore_word * len(saved))
        record = make_continuation(qualified, site_id, saved, is_static)
        obs = ctx.obs
        if obs is not None:
            obs.suspend(ctx.node, ctx.current_message.block, qualified,
                        site_id, is_static,
                        tuple(name for name, _value in saved),
                        to_state, getattr(ctx, "now", 0))
        return record

    def resume(self, record, direct: bool, qualified: str) -> None:
        """Run the fragment ``record`` points at, like a call: when it
        finishes (or suspends again), control returns to the caller."""
        ctx = self.ctx
        if not isinstance(record, ContinuationRecord):
            ctx.error(
                f"Resume applied to a non-continuation value {record!r} "
                f"in {qualified}")
            return
        costs = ctx.costs
        counters = ctx.counters
        counters.resumes += 1
        if direct:
            counters.direct_resumes += 1
            ctx.charge(costs.resume_direct)
        else:
            ctx.charge(costs.resume)
        if not record.is_static:
            counters.cont_frees += 1
            ctx.charge(costs.cont_free)
        ctx.charge(costs.save_restore_word * len(record.saved))

        block = ctx.current_message.block
        obs = ctx.obs
        if obs is not None:
            obs.resume(ctx.node, block, record.handler, record.site_id,
                       direct, getattr(ctx, "now", 0))

        code = self._code.by_name.get(record.handler)
        if code is None:
            handler, _site = self.protocol.suspend_site(
                record.handler, record.site_id)
            code = compiled_handler(self.protocol, handler)
        env = code.frame.copy()
        # The block id and info handle are re-derived from context rather
        # than captured: a continuation is always resumed by a handler
        # positioned at the same block.
        env[code.params[0]] = block
        env[code.params[1]] = INFO_HANDLE
        env.update(record.saved)
        code.fn(self, env, code.resume_blocks[record.site_id])
