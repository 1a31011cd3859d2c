"""The handler interpreter: the reference semantics of compiled CFGs.

One ``dispatch`` call runs exactly one protocol action to completion --
possibly passing through ``Resume`` calls into suspended fragments, and
possibly ending in a ``Suspend`` that parks a continuation in a
subroutine state.  This mirrors the paper's execution model: actions are
atomic with respect to other protocol events, and only the automaton (the
block state plus parked continuations) persists between actions.

The simulator and the checker do not run this walk: they execute the
functions :mod:`repro.backends.python_backend` compiles from the same
CFGs (:mod:`repro.runtime.engine`).  The interpreter is the readable statement of what those functions
must do -- every charge, counter, guard and observer hook, in order --
and the tests hold the two to identical behaviour.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import RuntimeProtocolError
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
from repro.runtime.builtins import BUILTIN_COSTS, BUILTIN_IMPLS, div, mod
from repro.runtime.context import (
    MAX_OPS_PER_ACTION,  # re-exported: the limit lives with the context
    ProtocolContext,
)
from repro.runtime.continuation import ContinuationRecord, make_continuation
from repro.runtime.protocol import (
    CompiledProtocol,
    Flavor,
    NOBODY,
    StateValue,
)


class HandlerInterpreter:
    """Executes handlers of one protocol against a host context."""

    def __init__(self, protocol: CompiledProtocol, ctx: ProtocolContext):
        self.protocol = protocol
        self.ctx = ctx
        self._ops_executed = 0

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, state_name: str, state_args: tuple) -> None:
        """Handle the context's current message as one atomic action of
        its block, which is in state ``state_name{state_args}``."""
        msg = self.ctx.current_message
        state = self.protocol.states.get(state_name)
        if state is None:
            self.ctx.error(
                f"block {msg.block} is in unknown state {state_name!r}")
            return
        qualified = state.dispatch(msg.tag)
        if qualified is None:
            self.ctx.error(
                f"unexpected message {msg.tag} to state {state_name} "
                f"(block {msg.block}, from node {msg.src})")
            return
        handler = self.protocol.handler_ir(qualified)

        self.ctx.counters.handler_dispatches += 1
        obs = self.ctx.obs
        if obs is not None:
            start = self.ctx.now
            obs.handler_entry(self.ctx.node, msg.block, state_name,
                              handler.message_name, msg.src, start)
        costs = self.ctx.costs
        cycles = costs.dispatch
        if self.protocol.flavor is Flavor.TEAPOT:
            cycles += costs.indirect_call
        self.ctx.now += cycles

        env = self._initial_env(handler, state_args)
        is_default = handler.message_name == "DEFAULT"
        self._bind_message_params(handler, env, msg, is_default)

        self._ops_executed = 0
        self._run(handler, env, handler.entry)
        if obs is not None:
            obs.handler_exit(self.ctx.node, msg.block, state_name,
                             handler.message_name, start, self.ctx.now)

    def _initial_env(self, handler: HandlerIR, state_args: tuple) -> dict:
        env = handler.frame_template.copy()
        # State parameters come from the block's current state value.
        env.update(zip(handler.state_params, state_args))
        return env

    def _bind_message_params(self, handler: HandlerIR, env: dict,
                             msg, is_default: bool) -> None:
        params = handler.params
        env[params[0]] = msg.block
        env[params[1]] = self.ctx.info
        env[params[2]] = msg.src
        payload_params = params[3:]
        if is_default:
            return
        payload = msg.payload
        for index, name in enumerate(payload_params):
            env[name] = payload[index] if index < len(payload) else None

    # -- CFG execution ------------------------------------------------------

    def _run(self, handler: HandlerIR, env: dict, block_id: int) -> None:
        costs = self.ctx.costs
        while True:
            block = handler.blocks[block_id]
            for op in block.ops:
                self._step_guard(handler)
                self.ctx.now += costs.statement
                self._exec_op(handler, env, op)
            term = block.terminator
            if isinstance(term, TGoto):
                block_id = term.target
            elif isinstance(term, TBranch):
                self._step_guard(handler)
                self.ctx.now += costs.statement
                cond = self._eval(handler, env, term.cond)
                block_id = term.true_target if cond else term.false_target
            elif isinstance(term, TSuspend):
                self._do_suspend(handler, env, term)
                return
            elif isinstance(term, TReturn):
                return
            else:  # pragma: no cover - exhaustive over Terminator
                raise RuntimeProtocolError(f"bad terminator {term!r}")

    def _step_guard(self, handler: HandlerIR) -> None:
        self._ops_executed += 1
        if self._ops_executed > MAX_OPS_PER_ACTION:
            raise RuntimeProtocolError(
                f"handler {handler.qualified_name} exceeded "
                f"{MAX_OPS_PER_ACTION} operations; diverging loop?")

    def _exec_op(self, handler: HandlerIR, env: dict, op) -> None:
        if isinstance(op, IAssign):
            value = self._eval(handler, env, op.value)
            if op.target in env:
                env[op.target] = value
            elif op.target in self.protocol.info_vars:
                env[handler.params[1]][op.target] = value
            else:
                self.ctx.error(
                    f"assignment to unknown variable {op.target!r} in "
                    f"{handler.qualified_name}")
        elif isinstance(op, ICall):
            self._exec_call(handler, env, op.name, op.args)
        elif isinstance(op, IResume):
            self._exec_resume(handler, env, op)
        elif isinstance(op, IPrint):
            values = [self._eval(handler, env, a) for a in op.args]
            self.ctx.debug_print(values)
        else:  # pragma: no cover - exhaustive over Op
            raise RuntimeProtocolError(f"bad op {op!r}")

    def _exec_call(self, handler: HandlerIR, env: dict, name: str,
                   args: list[ast.Expr]):
        values = [self._eval(handler, env, a) for a in args]
        impl = BUILTIN_IMPLS.get(name)
        if impl is None:
            return self.ctx.support_call(name, values)
        extra = BUILTIN_COSTS.get(name)
        if extra is not None:
            self.ctx.now += getattr(self.ctx.costs, extra)
        return impl(self, values)

    def _exec_resume(self, handler: HandlerIR, env: dict, op: IResume) -> None:
        record = self._eval(handler, env, op.cont)
        if not isinstance(record, ContinuationRecord):
            self.ctx.error(
                f"Resume applied to a non-continuation value {record!r} "
                f"in {handler.qualified_name}")
            return
        costs = self.ctx.costs
        counters = self.ctx.counters
        counters.resumes += 1
        if op.direct_site is not None:
            counters.direct_resumes += 1
            self.ctx.now += costs.resume_direct
        else:
            self.ctx.now += costs.resume
        if not record.is_static:
            counters.cont_frees += 1
            self.ctx.now += costs.cont_free
        self.ctx.now += costs.save_restore_word * len(record.saved)

        obs = self.ctx.obs
        if obs is not None:
            obs.resume(self.ctx.node, self.ctx.current_message.block,
                       record.handler, record.site_id,
                       op.direct_site is not None, self.ctx.now)

        target_handler, site = self.protocol.suspend_site(
            record.handler, record.site_id)
        renv = target_handler.frame_template.copy()
        # The block id and info record are re-derived from context rather
        # than captured: a continuation is always resumed by a handler
        # positioned at the same block (an -O0 record's info word holds
        # no value).
        renv[target_handler.params[0]] = self.ctx.current_message.block
        renv.update(record.environment())
        renv[target_handler.params[1]] = self.ctx.info
        # The resumed fragment runs like a call: when it finishes (or
        # suspends again), control returns here.
        self._run(target_handler, renv, site.resume_block)

    def _do_suspend(self, handler: HandlerIR, env: dict,
                    term: TSuspend) -> None:
        site = handler.suspend_sites[term.site_id]
        costs = self.ctx.costs
        counters = self.ctx.counters
        counters.suspends += 1

        # The info record is bound afresh at the resume: an -O0 save set
        # keeps its word, not the dict.
        info = handler.params[1]
        saved = tuple((name, None if name == info else env.get(name))
                      for name in site.save_set)
        is_static = site.is_static and not saved
        if is_static:
            counters.static_cont_uses += 1
        else:
            counters.cont_allocs += 1
            self.ctx.now += costs.cont_alloc
            self.ctx.now += costs.save_restore_word * len(saved)

        record = make_continuation(
            handler.qualified_name, site.site_id, saved, is_static)
        env[site.cont_name] = record
        obs = self.ctx.obs
        if obs is not None:
            obs.suspend(self.ctx.node, self.ctx.current_message.block,
                        handler.qualified_name, site.site_id, is_static,
                        tuple(name for name, _value in saved),
                        site.target.name, self.ctx.now)
        args = tuple(self._eval(handler, env, a) for a in site.target.args)
        self.ctx.set_state(site.target.name, args)

    # -- expression evaluation --------------------------------------------------

    def _eval(self, handler: HandlerIR, env: dict, expr: ast.Expr):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.NameRef):
            return self._eval_name(handler, env, expr)
        if isinstance(expr, ast.CallExpr):
            return self._exec_call(handler, env, expr.name, expr.args)
        if isinstance(expr, ast.StateExpr):
            args = tuple(self._eval(handler, env, a) for a in expr.args)
            return StateValue(expr.name, args)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(handler, env, expr)
        if isinstance(expr, ast.UnOp):
            value = self._eval(handler, env, expr.operand)
            return (not value) if expr.op == "Not" else -value
        raise RuntimeProtocolError(f"cannot evaluate {expr!r}")

    def _eval_name(self, handler: HandlerIR, env: dict, expr: ast.NameRef):
        name = expr.name
        if name in env:
            return env[name]
        if name in self.protocol.info_vars:
            return env[handler.params[1]][name]
        if name in self.protocol.consts:
            return self.protocol.consts[name]
        if name == "MyNode":
            return self.ctx.node
        if name == "Nobody":
            return NOBODY
        if name == "MessageTag":
            return self.ctx.current_message.tag
        if name.startswith("Blk_"):
            return name
        if name in self.protocol.messages:
            return name
        if name in self.protocol.checked.consts:
            # A module-declared abstract constant: its value comes from
            # the support registry, like support routines do.
            return self.ctx.support_const(name)
        self.ctx.error(
            f"undefined name {name!r} at runtime in {handler.qualified_name}")
        return None

    def _eval_binop(self, handler: HandlerIR, env: dict, expr: ast.BinOp):
        left = self._eval(handler, env, expr.left)
        op = expr.op
        # Short-circuit the logical operators.
        if op == "And":
            return bool(left) and bool(
                self._eval(handler, env, expr.right))
        if op == "Or":
            return bool(left) or bool(
                self._eval(handler, env, expr.right))
        right = self._eval(handler, env, expr.right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return div(self.ctx, left, right)
        if op == "%":
            return mod(self.ctx, left, right)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise RuntimeProtocolError(f"unknown operator {op!r}")
