"""The execution engine of compiled protocols: what the simulator and
the model checker run.

:class:`CompiledEngine` executes the functions the Python back end
(:mod:`repro.backends.python_backend`, whose docstring describes them)
emits, one per handler, and carries what every handler shares: dispatch,
suspend, resume -- charges, counters, observer hooks.  Dispatch resolves
through the protocol's run tables (``CompiledStateInfo.dispatch``) and a
handler's code comes from ``protocol.handler_code`` when the compile
cache stored it, so on a cache hit this module never reads the IR and
never imports the back end; otherwise :func:`compiled_handler` has the
back end compile the handler on its first dispatch.
"""

from __future__ import annotations

from repro.lang.errors import RuntimeProtocolError
from repro.runtime.context import MAX_OPS_PER_ACTION, ProtocolContext
from repro.runtime.continuation import ContinuationRecord
from repro.runtime.protocol import (
    CompiledProtocol,
    Flavor,
    weak_protocol_entry,
)


class _ProtocolCode:
    """The compiled handlers of one protocol, filled on demand."""

    __slots__ = ("namespace", "by_name", "by_tag")

    def __init__(self):
        self.namespace: dict = {}    # globals of the handler functions
        self.by_name: dict = {}      # qualified name -> handler function
        self.by_tag: dict = {}       # (state name, tag) -> the same


# Compiled code is a function of the protocol alone (never of a machine
# or its cost model), so it is shared process-wide and dies with the
# protocol, like the checker's engine caches.
_PROTOCOL_CODE: dict = {}


def _protocol_code(protocol: CompiledProtocol) -> _ProtocolCode:
    return weak_protocol_entry(_PROTOCOL_CODE, protocol, _ProtocolCode)


def _code_part(protocol: CompiledProtocol, qualified: str):
    """The stored code object of ``qualified`` (``""``: the module
    header), or the back end's compilation of it."""
    code = (protocol.handler_code or {}).get(qualified)
    if code is None:
        from repro.backends.python_backend import compile_part

        code = compile_part(protocol, qualified)
    return code


def compiled_handler(protocol: CompiledProtocol, qualified: str):
    """The function of the handler named ``qualified`` ("State.MSG"),
    compiled on first use; ``message_name`` on it is the name its
    dispatches are reported under."""
    cache = _protocol_code(protocol)
    fn = cache.by_name.get(qualified)
    if fn is None:
        namespace = cache.namespace
        if not namespace:
            exec(_code_part(protocol, ""), namespace)
        exec(_code_part(protocol, qualified), namespace)
        state_name, _, message_name = qualified.partition(".")
        fn = cache.by_name[qualified] = namespace[
            f"h_{state_name}__{message_name}"]
        fn.message_name = message_name
    return fn


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
        costs = ctx.costs
        self._dispatch_cycles = costs.dispatch + (
            costs.indirect_call if protocol.flavor is Flavor.TEAPOT else 0)

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, state_name: str, state_args: tuple) -> None:
        """Handle the context's current message as one atomic action of
        its block, which is in state ``state_name{state_args}``."""
        ctx = self.ctx
        msg = ctx.current_message
        fn = self._code.by_tag.get((state_name, msg.tag))
        if fn is None:
            fn = self._resolve(state_name, msg)
            if fn is None:
                return

        ctx.counters.handler_dispatches += 1
        obs = ctx.obs
        if obs is not None:
            start = ctx.now
            obs.handler_entry(ctx.node, msg.block, state_name,
                              fn.message_name, msg.src, start)
        ctx.now += self._dispatch_cycles

        fn(self, 0, state_args)
        if obs is not None:
            obs.handler_exit(ctx.node, msg.block, state_name,
                             fn.message_name, start, ctx.now)

    def _resolve(self, state_name: str, msg):
        """First dispatch of ``msg.tag`` in ``state_name``: find the
        handler (DEFAULT fallback included) and compile it."""
        state = self.protocol.states.get(state_name)
        if state is None:
            self.ctx.error(
                f"block {msg.block} is in unknown state {state_name!r}")
            return None
        qualified = state.dispatch(msg.tag)
        if qualified is None:
            self.ctx.error(
                f"unexpected message {msg.tag} to state {state_name} "
                f"(block {msg.block}, from node {msg.src})")
            return None
        fn = compiled_handler(self.protocol, qualified)
        self._code.by_tag[state_name, msg.tag] = fn
        return fn

    # -- called by the compiled functions -----------------------------------

    def diverged(self, qualified: str, owed: int) -> None:
        """The guard tripped: charge what the code still owed, and fail."""
        self.ctx.now += owed
        raise RuntimeProtocolError(
            f"handler {qualified} exceeded "
            f"{MAX_OPS_PER_ACTION} operations; diverging loop?")

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
            ctx.now += costs.cont_alloc + costs.save_restore_word * len(saved)
        # The record's own constructor is a Python frame: fill the tuple.
        record = tuple.__new__(ContinuationRecord,
                               (qualified, site_id, saved, is_static))
        obs = ctx.obs
        if obs is not None:
            obs.suspend(ctx.node, ctx.current_message.block, qualified,
                        site_id, is_static,
                        tuple(name for name, _value in saved),
                        to_state, ctx.now)
        return record

    def resume(self, record, direct: bool, qualified: str, ops: int) -> int:
        """Run the fragment ``record`` points at, like a call: when it
        finishes (or suspends again), control returns to the caller,
        and with it the action's operation count."""
        ctx = self.ctx
        if not isinstance(record, ContinuationRecord):
            ctx.error(
                f"Resume applied to a non-continuation value {record!r} "
                f"in {qualified}")
            return ops
        costs = ctx.costs
        counters = ctx.counters
        counters.resumes += 1
        cycles = costs.save_restore_word * len(record.saved)
        if direct:
            counters.direct_resumes += 1
            cycles += costs.resume_direct
        else:
            cycles += costs.resume
        if not record.is_static:
            counters.cont_frees += 1
            cycles += costs.cont_free
        ctx.now += cycles
        obs = ctx.obs
        if obs is not None:
            obs.resume(ctx.node, ctx.current_message.block, record.handler,
                       record.site_id, direct, ctx.now)

        fn = self._code.by_name.get(record.handler)
        if fn is None:
            fn = compiled_handler(self.protocol, record.handler)
        return fn(self, ops, record.saved, record.site_id)
