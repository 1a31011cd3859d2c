"""The constant-continuation optimisation (Section 5 of the paper).

Two whole-protocol analyses:

1. **Static allocation.**  "Often in a handler, no values are saved and
   restored, so that a continuation can be statically allocated and used
   by all handler invocations."  A suspend site whose save set is empty
   gets ``is_static = True``: the runtime shares one immutable record per
   site instead of heap-allocating a new one per suspend.

2. **Resume inlining (beta-contraction).**  "The compiler detects if a
   constant continuation reaches a particular Resume site.  If so, the
   code from the handler can be in-lined at the Resume site."  We track,
   for each CONT parameter of each subroutine state, the set of suspend
   sites whose continuations can flow into it.  Flow happens through
   state-constructor arguments: ``Suspend(L, Await{L})`` flows site L into
   ``Await``'s parameter, and ``Await`` forwarding its parameter to
   another state constructor flows everything onward.  When exactly one
   site reaches a ``Resume(C)``, the resume is annotated with that site
   so back ends can jump straight to the (known) resume fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.types import T_CONT
from repro.compiler.ir import HandlerIR, IResume, TSuspend

# A lattice over sets of suspend-site ids; None = unknown provenance (top).
_FlowSet = object  # frozenset[tuple[str, int]] | None


@dataclass
class ContFlow:
    """Results of the continuation-flow analysis.

    ``param_sources`` maps (state, cont-param-name) to the set of suspend
    sites -- as (handler-qualified-name, site-id) pairs -- whose
    continuations may bind that parameter, or None when a continuation of
    unknown provenance (e.g. read from a non-frame location) may arrive.
    """

    param_sources: dict[tuple[str, str], frozenset | None] = \
        field(default_factory=dict)
    static_sites: int = 0
    inlined_resumes: int = 0


def _state_cont_params(checked) -> dict[str, list[tuple[int, str]]]:
    """For every state: the (index, name) of its CONT-typed parameters."""
    result: dict[str, list[tuple[int, str]]] = {}
    for sig in checked.states.values():
        conts = [
            (index, param.name)
            for index, param in enumerate(sig.params)
            if param.type_name == T_CONT
        ]
        if conts:
            result[sig.name] = conts
    return result


def _merge(current, incoming) -> object:
    """Union on the may-bind lattice; None (unknown) absorbs everything."""
    if current is None or incoming is None:
        return None
    return current | incoming


def _cont_sources_of_expr(expr: ast.Expr, handler: HandlerIR,
                          local_sources: dict[str, object]) -> object:
    """What continuations can ``expr`` (a CONT-typed argument) evaluate to?"""
    if isinstance(expr, ast.NameRef):
        return local_sources.get(expr.name, None)
    return None  # anything else is unknown provenance


def analyze_cont_flow(checked, handlers: dict[tuple[str, str], HandlerIR],
                      max_rounds: int = 50) -> ContFlow:
    """Fixed-point may-bind analysis for subroutine-state CONT parameters."""
    flow = ContFlow()
    cont_params = _state_cont_params(checked)
    sources: dict[tuple[str, str], object] = {
        (state, name): frozenset()
        for state, params in cont_params.items()
        for _index, name in params
    }

    for _round in range(max_rounds):
        changed = False
        for key, handler in handlers.items():
            # Continuation-typed values visible inside this handler:
            # the enclosing state's CONT params (current analysis value)
            # and continuations bound by this handler's own suspends.
            local: dict[str, object] = {}
            for name, type_name in handler.state_params.items():
                if type_name == T_CONT:
                    local[name] = sources.get((handler.state_name, name),
                                              frozenset())
            for site in handler.suspend_sites:
                local[site.cont_name] = frozenset(
                    {(handler.qualified_name, site.site_id)})
            # Note: a later suspend rebinds its cont name; treating the
            # name as the union of all its bindings is conservative.

            for state_expr, _origin in _state_exprs_in(handler):
                params = cont_params.get(state_expr.name)
                if not params:
                    continue
                for index, pname in params:
                    if index >= len(state_expr.args):
                        continue
                    incoming = _cont_sources_of_expr(
                        state_expr.args[index], handler, local)
                    pkey = (state_expr.name, pname)
                    merged = _merge(sources[pkey], incoming)
                    if merged != sources[pkey]:
                        sources[pkey] = merged
                        changed = True
        if not changed:
            break

    flow.param_sources = dict(sources)
    return flow


def _state_exprs_in(handler: HandlerIR):
    """Yield every state-constructor expression in the handler, with origin."""
    for block in handler.blocks.values():
        for op in block.ops:
            for expr in _op_exprs(op):
                for node in ast.walk_expr(expr):
                    if isinstance(node, ast.StateExpr):
                        yield node, op
        term = block.terminator
        if isinstance(term, TSuspend):
            site = handler.suspend_sites[term.site_id]
            for node in ast.walk_expr(site.target):
                if isinstance(node, ast.StateExpr):
                    yield node, term


def _op_exprs(op) -> list[ast.Expr]:
    if hasattr(op, "args"):
        return list(op.args)
    if hasattr(op, "value"):
        return [op.value]
    if hasattr(op, "cont"):
        return [op.cont]
    return []


def apply_constcont(checked,
                    handlers: dict[tuple[str, str], HandlerIR]) -> ContFlow:
    """Run both constant-continuation transformations in place."""
    flow = analyze_cont_flow(checked, handlers)

    # 1. Static allocation for empty save sets.
    for handler in handlers.values():
        for site in handler.suspend_sites:
            if not site.save_set:
                site.is_static = True
                flow.static_sites += 1

    # 2. Resume inlining where a unique suspend site reaches the resume.
    site_index = {
        (handler.qualified_name, site.site_id): site
        for handler in handlers.values()
        for site in handler.suspend_sites
    }
    for handler in handlers.values():
        for block in handler.blocks.values():
            for op in block.ops:
                if not isinstance(op, IResume):
                    continue
                if not isinstance(op.cont, ast.NameRef):
                    continue
                pkey = (handler.state_name, op.cont.name)
                reaching = flow.param_sources.get(pkey)
                if reaching is not None and len(reaching) == 1:
                    (source_key,) = reaching
                    source_site = site_index[source_key]
                    op.direct_site = source_site.site_id
                    op.direct_handler = source_key[0]
                    flow.inlined_resumes += 1
    return flow
