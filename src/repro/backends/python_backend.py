"""The Python back end: the code the execution engine runs.

Each handler becomes one Python function over ``(rt, ops, bound,
site)``: ``rt`` is the :class:`CompiledEngine` driving it, ``ops`` the
operations the action has executed so far, ``site`` the suspend site to
resume at (``None``: the entry) and ``bound`` what the frame is bound
from -- the block's state arguments at entry, a continuation record's
saved pairs at a resume.  The activation frame is the function's locals
(``v_<name>``), set in a prologue; control flow is a program-counter
trampoline, so suspend points inside loops and conditionals split
exactly as in the interpreter.

The function carries the interpreter's whole semantics (DESIGN.md,
"Execution engine").  Every operation counts itself against
``MAX_OPS_PER_ACTION`` inline, the count travelling by value into
``rt.resume`` and back and out through ``return``.  The ``statement``
and ``BUILTIN_COSTS`` charges are summed and added to the clock
(``ctx.now += ...``) ahead of the next *timed* point -- whatever can
read ``ctx.now`` or end the action: a context call other than
``home_node``, a builtin or operator that can reach ``ctx.error``, a
support call, ``Resume``, ``Suspend``, the guard's trip -- or at the
block's end.  Names are resolved when the text is emitted: the
handler's ``INFO`` parameter is the block's info dict (``ctx.info``),
so an info field is ``v_info['f']``; a prelude routine that is one
context call is emitted as that call, and in a protocol with one
``SharerList`` variable the sharer-set reads and updates as
expressions over ``v_info``.  What every handler shares (dispatch,
suspend, resume: charges, counters, observer hooks) lives in
:class:`~repro.runtime.engine.CompiledEngine`.

Cost values are per machine, so the emitted code never contains one: it
reads them through ``ctx.costs`` at run time, and one compiled function
serves every machine and every checker over the same protocol.

``emit_python`` (``teapot compile --target python``) prints a module
header, every handler's function and a table; the engine executes that
same header and those same function texts (:func:`compile_part`), one
handler at a time on first dispatch -- compiled then, or taken from the
code objects a compile-cache entry stored ahead of time
(``protocol.handler_code``).  Only a miss reads the IR, so only a miss
imports this module.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import CompileError
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
from repro.runtime.protocol import CompiledProtocol

_COMPARISONS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
# Teapot operator -> Python operator ("/", "%", And, Or are emitted
# specially).
_OPERATORS = {**_COMPARISONS, "+": "+", "-": "-", "*": "*"}

# Prelude routines that are one context call, as ``runtime.builtins``
# makes it (the arguments it ignores dropped).
_DIRECT = {
    "Send": lambda a: (f"ctx.send(int({a[0]}), {a[1]}, {a[2]}, "
                       f"{_tuple(a[3:])}, False)"),
    "SendBlk": lambda a: (f"ctx.send(int({a[0]}), {a[1]}, {a[2]}, "
                          f"{_tuple(a[3:])}, True)"),
    "AccessChange": lambda a: f"ctx.access_change({a[0]}, {a[1]})",
    "RecvData": lambda a: f"ctx.recv_data({a[0]}, {a[1]})",
    "WakeUp": lambda a: f"ctx.wakeup({a[0]})",
    "Enqueue": lambda a: "ctx.enqueue_current()",
    "HomeNode": lambda a: f"ctx.home_node({a[0]})",
}
# Builtins that are not timed points; the sharer-set ones only in a
# protocol with exactly one SharerList variable (``_sharer_var``).
_UNTIMED = {"HomeNode", "IsHome", "Msg_To_Str", "NodeToInt", "IntToNode"}
_UNTIMED_SHARERS = {"IsEmptySharers", "CountSharers", "HasSharer",
                    "AddSharer", "DelSharer", "ClearSharers"}


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


class _BlockEmitter:
    """Compiles one handler's basic blocks to Python lines, holding back
    the charges their operations owe until a timed point."""

    def __init__(self, protocol: CompiledProtocol, handler: HandlerIR):
        self.protocol = protocol
        self.handler = handler
        self.frame = set(handler.frame_vars)
        self.info = f"v_{handler.params[1]}"   # the block's info dict
        self.direct = _DIRECT
        self.untimed = _UNTIMED
        if len(protocol.sharer_vars) == 1:
            get = f"{self.info}[{protocol.sharer_vars[0]!r}]"
            self.direct = {
                **_DIRECT,
                "CountSharers": lambda a: f"len({get})",
                "IsEmptySharers": lambda a: f"(len({get}) == 0)",
                "HasSharer": lambda a: f"(int({a[1]}) in {get})",
                "AddSharer": lambda a: f"{get} = {get} | {{int({a[1]})}}",
                "DelSharer": lambda a: f"{get} = {get} - {{int({a[1]})}}"}
            self.untimed = _UNTIMED | _UNTIMED_SHARERS
        self.lines: list[str] = []
        self.statements = 0          # ``statement`` charges owed
        self.extras: list[str] = []  # BUILTIN_COSTS attributes owed
        self.timed = False    # did this operation's text reach a timed point?

    def owed(self) -> str:
        count = self.statements
        terms = ["S" if count == 1 else f"{count} * S"] if count else []
        return " + ".join(terms + [f"costs.{x}" for x in self.extras])

    def flush(self) -> None:
        if self.statements or self.extras:
            self.lines.append(f"ctx.now += {self.owed()}")
            self.statements = 0
            self.extras = []

    def step(self) -> None:
        """An operation starts: the guard; its ``statement`` is owed."""
        self.lines += [
            "ops += 1",
            f"if ops > MAX_OPS_PER_ACTION: rt.diverged("
            f"{self.handler.qualified_name!r}, {self.owed() or 0})"]
        self.statements += 1
        self.timed = False

    def line(self, text: str) -> None:
        if self.timed:
            self.flush()
        self.lines.append(text)

    # -- expressions --------------------------------------------------------

    def expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit)):
            return repr(expr.value)
        if isinstance(expr, ast.NameRef):
            return self._name(expr.name)
        if isinstance(expr, ast.CallExpr):
            if expr.name in BUILTIN_COSTS:
                # Only procedures carry a charge, and the type checker
                # keeps procedures out of expressions.
                raise CompileError(
                    f"procedure {expr.name!r} used as a value in "
                    f"{self.handler.qualified_name}")
            return self.call(expr.name, expr.args, self.texts(expr.args))
        if isinstance(expr, ast.StateExpr):
            return f"StateValue({self.state(expr)})"
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        if isinstance(expr, ast.UnOp):
            operand = self.expr(expr.operand)
            return f"(not {operand})" if expr.op == "Not" else f"(-{operand})"
        raise CompileError(f"cannot emit expression {expr!r}")

    def texts(self, args: list[ast.Expr]) -> list[str]:
        return [self.expr(arg) for arg in args]

    def state(self, expr: ast.StateExpr) -> str:
        """``'Name', (arguments)``: what StateValue and set_state take."""
        return f"{expr.name!r}, {_tuple(self.texts(expr.args))}"

    def call(self, name: str, args: list[ast.Expr], texts: list[str]) -> str:
        listed = f"[{', '.join(texts)}]"
        if name not in BUILTIN_IMPLS:
            self.timed = True
            return f"ctx.support_call({name!r}, {listed})"
        text = f"BI_{name}(rt, {listed})"
        # A direct call drops the arguments the routine ignores: only
        # where evaluating them (and all before them) is untimed.
        if not self.timed:
            if name in self.direct:
                text = self.direct[name](texts)
            elif name == "SetState" and isinstance(args[1], ast.StateExpr):
                # A literal state needs no StateValue to be taken apart.
                text = f"ctx.set_state({self.state(args[1])})"
        if name not in self.untimed:
            self.timed = True
        return text

    def _bool(self, expr: ast.Expr) -> str:
        text = self.expr(expr)
        return text if _is_bool(expr) else f"bool({text})"

    def _binop(self, expr: ast.BinOp) -> str:
        op = expr.op
        if op in ("And", "Or"):
            return (f"({self._bool(expr.left)} {op.lower()} "
                    f"{self._bool(expr.right)})")
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if op in ("/", "%"):
            self.timed = True    # a zero divisor is a protocol error
            return f"{'div' if op == '/' else 'mod'}(ctx, {left}, {right})"
        if op not in _OPERATORS:
            raise CompileError(f"unknown operator {op!r}")
        return f"({left} {_OPERATORS[op]} {right})"

    def _name(self, name: str) -> str:
        # Same resolution order as HandlerInterpreter._eval_name.
        if name in self.frame:
            return f"v_{name}"
        if name in self.protocol.info_vars:
            return f"{self.info}[{name!r}]"
        if name in self.protocol.consts:
            return repr(self.protocol.consts[name])
        if name == "MyNode":
            return "ctx.node"
        if name == "Nobody":
            return "NOBODY"
        if name == "MessageTag":
            return "msg.tag"
        if name.startswith("Blk_") or name in self.protocol.messages:
            return repr(name)
        if name in self.protocol.checked.consts:
            self.timed = True
            return f"ctx.support_const({name!r})"
        raise CompileError(
            f"cannot resolve name {name!r} in {self.handler.qualified_name}")

    # -- operations and terminators -------------------------------------------

    def op(self, op) -> None:
        qualified = self.handler.qualified_name
        self.step()
        if isinstance(op, IAssign):
            value = self.expr(op.value)
            if op.target in self.frame:
                self.line(f"v_{op.target} = {value}")
            elif op.target in self.protocol.info_vars:
                self.line(f"{self.info}[{op.target!r}] = {value}")
            else:
                raise CompileError(
                    f"assignment to unknown variable {op.target!r} in "
                    f"{qualified}")
        elif isinstance(op, ICall):
            cost = BUILTIN_COSTS.get(op.name)
            texts = self.texts(op.args)
            if cost is not None and self.timed:
                # A timed argument: the routine's own charge falls
                # between the arguments and the call.
                self.line(f"args = [{', '.join(texts)}]")
                self.lines += [f"ctx.now += costs.{cost}",
                               f"BI_{op.name}(rt, args)"]
            else:
                if cost is not None:
                    self.extras.append(cost)
                self.line(self.call(op.name, op.args, texts))
        elif isinstance(op, IResume):
            cont = self.expr(op.cont)
            self.timed = True
            self.line(f"ops = rt.resume({cont}, "
                      f"{op.direct_site is not None!r}, {qualified!r}, ops)")
        elif isinstance(op, IPrint):
            self.timed = True
            self.line(f"ctx.debug_print([{', '.join(self.texts(op.args))}])")
        else:
            raise CompileError(f"cannot emit op {op!r}")

    def terminator(self, block_id: int, term) -> None:
        """The block's last lines.  A jump to a later block falls through
        the ``if pc ==`` chain to its target; only a backward jump
        restarts the chain."""
        handler = self.handler
        if isinstance(term, TBranch):
            self.step()
            cond = self.expr(term.cond)
            self.flush()
            self.lines.append(f"pc = {term.true_target} if {cond} "
                              f"else {term.false_target}")
            if min(term.true_target, term.false_target) <= block_id:
                self.lines.append("continue")
            return
        self.flush()
        if isinstance(term, TGoto):
            self.lines.append(f"pc = {term.target}")
            if term.target <= block_id:
                self.lines.append("continue")
        elif isinstance(term, TReturn):
            self.lines.append("return ops")
        elif isinstance(term, TSuspend):
            site = handler.suspend_sites[term.site_id]
            # The info record is bound afresh at the resume (``_prologue``):
            # an -O0 save set keeps its word, not the dict.
            kept = self.frame - {handler.params[1]}
            saved = _tuple([
                f"({name!r}, {f'v_{name}' if name in kept else None})"
                for name in site.save_set])
            static = site.is_static and not site.save_set
            self.lines += [
                f"v_{site.cont_name} = rt.suspend("
                f"{handler.qualified_name!r}, {site.site_id}, {saved}, "
                f"{static!r}, {site.target.name!r})",
                f"ctx.set_state({self.state(site.target)})",
                "return ops",
            ]
        else:
            raise CompileError(f"cannot emit terminator {term!r}")


def _prologue(handler: HandlerIR) -> list[str]:
    """Bind the frame in the interpreter's order: ``frame_template``
    defaults, then the state arguments and the message (entry) or the
    record's saved pairs (resume)."""
    by_default: dict[str, list[str]] = {}
    for name, default in handler.frame_template.items():
        if name not in handler.params[:2]:      # bound on every path
            by_default.setdefault(repr(default), []).append(f"v_{name}")
    lines = [f"{' = '.join(names)} = {default}"
             for default, names in by_default.items()]
    block, info, src = (f"v_{name}" for name in handler.params[:3])
    rebound = [f"    {block} = msg.block", f"    {info} = ctx.info"]
    lines += ["if site is None:", f"    pc = {handler.entry}"]
    if handler.state_params:
        params = _tuple([f"v_{name}" for name in handler.state_params])
        lines.append(f"    if bound: {params} = bound")
    lines += rebound + [f"    {src} = msg.src"]
    # A DEFAULT handler serves many tags: the payload stays unbound.
    if handler.message_name != "DEFAULT" and handler.params[3:]:
        lines += ["    payload = msg.payload", "    n = len(payload)"]
        lines += [f"    v_{name} = payload[{index}] if n > {index} else None"
                  for index, name in enumerate(handler.params[3:])]
    for site in handler.suspend_sites:
        # The block id and info record are re-derived from context rather
        # than captured: a continuation is always resumed by a handler
        # positioned at the same block.
        lines += [f"elif site == {site.site_id}:",
                  f"    pc = {site.resume_block}"] + rebound
        if site.save_set:
            # The saved info word holds no value: ``info`` stays bound.
            pairs = _tuple(["(_, _)" if name == handler.params[1]
                            else f"(_, v_{name})" for name in site.save_set])
            lines.append(f"    {pairs} = bound")
    return lines + ["else:", "    raise RuntimeError(f'bad site {site}')"]


def emit_handler(protocol: CompiledProtocol, handler: HandlerIR) -> str:
    """The Python function for one handler (all of its fragments)."""
    lines = [
        f"def {_fn_name(handler)}(rt, ops, bound, site=None):",
        f'    """{handler.qualified_name}"""',
        "    ctx = rt.ctx",
        "    costs = ctx.costs",
        "    S = costs.statement",
        "    msg = ctx.current_message",
    ]
    lines.extend(f"    {line}" for line in _prologue(handler))
    lines.append("    while True:")
    emitter = _BlockEmitter(protocol, handler)
    for block_id, block in sorted(handler.blocks.items()):
        emitter.lines = []
        for op in block.ops:
            emitter.op(op)
        emitter.terminator(block_id, block.terminator)
        lines.append(f"        if pc == {block_id}:")
        lines.extend(f"            {line}" for line in emitter.lines)
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
        "from repro.runtime.builtins import BUILTIN_IMPLS, div, mod",
        "from repro.runtime.context import MAX_OPS_PER_ACTION",
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


def compile_part(protocol: CompiledProtocol, qualified: str):
    """The code object of handler ``qualified``'s function (``""``: the
    module header), compiled from exactly the text ``emit_python``
    prints for it."""
    text = (emit_handler(protocol, protocol.handler_ir(qualified))
            if qualified else emit_header(protocol))
    return compile(text, f"<{protocol.name}.py>", "exec")
