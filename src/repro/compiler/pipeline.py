"""The compile driver: source -> checked AST -> CFGs -> CompiledProtocol.

Mirrors the paper's pipeline (Section 5): lower each handler, split at
suspend points (implicit in the CFG form), then run the optimisation
passes selected by :class:`~repro.runtime.protocol.OptLevel`.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.ast import DEFAULT_MESSAGE
from repro.lang.parser import parse_program
from repro.lang.typecheck import CheckedProgram, check_program
from repro.compiler.constcont import apply_constcont
from repro.compiler.ir import is_error_guard
from repro.compiler.liveness import apply_liveness, apply_save_all
from repro.compiler.lower import lower_program
from repro.runtime.protocol import (
    CompiledProtocol,
    CompiledStateInfo,
    CompileStats,
    Flavor,
    OptLevel,
    ProtocolIR,
    resolve_initial_states,
)


def _const_values(checked: CheckedProgram) -> dict[str, object]:
    values: dict[str, object] = {}
    for name, (_type, expr) in checked.consts.items():
        value = getattr(expr, "value", None)
        if value is not None:
            values[name] = value
    return values


def compile_protocol(
    checked: CheckedProgram,
    opt_level: OptLevel = OptLevel.O2,
    flavor: Flavor = Flavor.TEAPOT,
    initial_states: Optional[tuple[str, str]] = None,
) -> CompiledProtocol:
    """Compile a checked program into an executable protocol."""
    handlers = lower_program(checked)

    for handler in handlers.values():
        if opt_level is OptLevel.O0:
            apply_save_all(handler)
        else:
            apply_liveness(handler)

    stats = CompileStats()
    if opt_level is OptLevel.O2:
        flow = apply_constcont(checked, handlers)
        stats.n_static_sites = flow.static_sites
        stats.n_inlined_resumes = flow.inlined_resumes

    states: dict[str, CompiledStateInfo] = {}
    for sig in checked.states.values():
        state_handlers: dict[str, str] = {}
        default = None
        for (state_name, message_name), handler in handlers.items():
            if state_name != sig.name:
                continue
            if message_name == DEFAULT_MESSAGE:
                default = handler.qualified_name
            else:
                state_handlers[message_name] = handler.qualified_name
        states[sig.name] = CompiledStateInfo(
            name=sig.name,
            params=[(p.name, p.type_name) for p in sig.params],
            transient=sig.transient,
            handlers=state_handlers,
            default=default,
        )

    stats.n_states = len(states)
    stats.n_handlers = len(handlers)
    stats.n_suspend_sites = sum(
        len(h.suspend_sites) for h in handlers.values())
    stats.n_transient_states = sum(1 for s in states.values() if s.transient)

    home, cache = resolve_initial_states(states, initial_states)

    arms: list[str] = []
    guards: list[str] = []
    for handler in handlers.values():
        (guards if is_error_guard(handler) else arms).append(
            handler.qualified_name)
    return CompiledProtocol(
        name=checked.protocol_name,
        states=states,
        messages=dict(checked.messages),
        info_vars=dict(checked.info_vars),
        consts=_const_values(checked),
        opt_level=opt_level,
        flavor=flavor,
        initial_home_state=home,
        initial_cache_state=cache,
        arms=tuple(sorted(arms)),
        guards=tuple(sorted(guards)),
        frame_types={
            handler.qualified_name: (*handler.state_params.items(),
                                     *handler.locals.items(),
                                     *handler.param_types.items())
            for handler in handlers.values() if handler.suspend_sites},
        stats=stats,
        ir_part=ProtocolIR(checked, handlers),
    )


def compile_source(
    source: str,
    opt_level: OptLevel = OptLevel.O2,
    flavor: Flavor = Flavor.TEAPOT,
    initial_states: Optional[tuple[str, str]] = None,
    filename: str = "<string>",
) -> CompiledProtocol:
    """Parse, check, and compile Teapot source text in one call."""
    program = parse_program(source, filename)
    checked = check_program(program)
    return compile_protocol(checked, opt_level, flavor, initial_states)
