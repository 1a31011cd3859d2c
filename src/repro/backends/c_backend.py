"""The C back end: split handlers as C source text (Figures 9 and 10).

Reproduces the paper's compilation scheme faithfully in shape:

- one C function per handler *fragment* -- the code up to a ``Suspend``
  and, for each suspend site, a ``<HANDLER>_after_<L>`` function that
  restores the saved environment and continues;
- a continuation record struct holding the function pointer plus the
  (liveness-trimmed) saved variables;
- statically allocated continuation records for sites whose save set is
  empty (the constant-continuation optimisation), and direct calls in
  place of indirect ones where a constant continuation reaches a Resume;
- a dispatch table mapping (state, message) to the entry fragment.

The output is valid-looking C against the ``teapot_rt.h`` runtime
interface; it is golden-tested rather than compiled (this reproduction
assumes no C toolchain).
"""

from __future__ import annotations

import io

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
from repro.runtime.protocol import CompiledProtocol

_C_TYPES = {
    "INT": "int",
    "BOOL": "int",
    "STRING": "const char *",
    "CONT": "tpt_cont_t *",
    "NODE": "tpt_node_t",
    "ID": "tpt_id_t",
    "INFO": "tpt_info_t *",
    "MSGTAG": "tpt_tag_t",
    "ACCESSMODE": "tpt_access_t",
    "VALUE": "tpt_word_t",
    "ADDR": "tpt_word_t",
    "SharerList": "tpt_sharers_t",
}

_C_OPS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "And": "&&", "Or": "||",
}


def _c_type(type_name: str) -> str:
    return _C_TYPES.get(type_name, f"tpt_{type_name.lower()}_t")


def _frag_name(handler: HandlerIR, block_id: int | None = None) -> str:
    base = f"{handler.state_name}__{handler.message_name}"
    if block_id is None or block_id == handler.entry:
        return base
    for site in handler.suspend_sites:
        if site.resume_block == block_id:
            return f"{base}_after_{site.cont_name}{site.site_id}"
    return f"{base}_bb{block_id}"


class _CExpr:
    """Compiles Teapot expressions to C expression strings."""

    def __init__(self, protocol: CompiledProtocol, handler: HandlerIR):
        self.protocol = protocol
        self.handler = handler
        self.frame = set(handler.frame_vars)

    def emit(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.StrLit):
            escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if isinstance(expr, ast.NameRef):
            return self._name(expr.name)
        if isinstance(expr, ast.CallExpr):
            args = ", ".join(["rt"] + [self.emit(a) for a in expr.args])
            return f"tpt_{expr.name}({args})"
        if isinstance(expr, ast.StateExpr):
            # State constructors appear only inside SetState / Suspend,
            # which the statement emitters handle; a bare reference is a
            # state id constant.
            return f"STATE_{expr.name}"
        if isinstance(expr, ast.BinOp):
            return (f"({self.emit(expr.left)} {_C_OPS[expr.op]} "
                    f"{self.emit(expr.right)})")
        if isinstance(expr, ast.UnOp):
            inner = self.emit(expr.operand)
            return f"(!{inner})" if expr.op == "Not" else f"(-{inner})"
        raise CompileError(f"cannot emit C for {expr!r}")

    def _name(self, name: str) -> str:
        if name in self.frame:
            return name
        if name in self.protocol.info_vars:
            return f"info->{name}"
        if name in self.protocol.consts:
            return f"K_{name}"
        if name == "MyNode":
            return "tpt_my_node(rt)"
        if name == "Nobody":
            return "TPT_NOBODY"
        if name == "MessageTag":
            return "rt->msg_tag"
        if name.startswith("Blk_"):
            return name.upper()
        if name in self.protocol.messages:
            return f"MSG_{name}"
        raise CompileError(f"cannot resolve {name!r} in C back end")


def _emit_fragment(out: io.StringIO, protocol: CompiledProtocol,
                   handler: HandlerIR, entry_block: int,
                   restore: tuple[str, ...]) -> None:
    emitter = _CExpr(protocol, handler)
    name = _frag_name(handler, entry_block)
    out.write(f"static void {name}(tpt_rt_t *rt")
    if entry_block == handler.entry:
        for param in handler.params:
            out.write(f", {_c_type(handler.param_types[param])} {param}")
        out.write(")\n{\n")
    else:
        out.write(", tpt_cont_t *__k)\n{\n")
    # Local declarations.
    declared = set(handler.params) if entry_block == handler.entry else set()
    for var in handler.frame_vars:
        if var in declared:
            continue
        out.write(f"    {_c_type(_var_type(handler, var))} {var};\n")
    if entry_block != handler.entry:
        out.write("    /* restore the continuation environment */\n")
        for index, var in enumerate(restore):
            out.write(f"    {var} = TPT_RESTORE(__k, {index}, "
                      f"{_c_type(_var_type(handler, var))});\n")
        out.write("    tpt_free_cont(rt, __k);\n")
    out.write("    int __pc = %d;\n" % entry_block)
    out.write("    for (;;) switch (__pc) {\n")
    reachable = _reachable_without_resume_entries(handler, entry_block)
    for block_id in sorted(reachable):
        block = handler.blocks[block_id]
        out.write(f"    case {block_id}:\n")
        for op in block.ops:
            for line in _emit_c_op(emitter, handler, op):
                out.write(f"        {line}\n")
        for line in _emit_c_term(emitter, handler, block.terminator):
            out.write(f"        {line}\n")
    out.write("    default:\n")
    out.write("        tpt_panic(rt, \"bad pc\");\n")
    out.write("    }\n}\n\n")


def _var_type(handler: HandlerIR, var: str) -> str:
    return (handler.locals.get(var)
            or handler.state_params.get(var)
            or handler.param_types.get(var)
            or "CONT")


def _reachable_without_resume_entries(handler: HandlerIR,
                                      entry: int) -> set[int]:
    """Blocks a fragment may execute: reachable from its entry, stopping
    at suspend terminators (their resume targets belong to the next
    fragment)."""
    seen: set[int] = set()
    stack = [entry]
    while stack:
        block_id = stack.pop()
        if block_id in seen:
            continue
        seen.add(block_id)
        term = handler.blocks[block_id].terminator
        if isinstance(term, TGoto):
            stack.append(term.target)
        elif isinstance(term, TBranch):
            stack.extend((term.true_target, term.false_target))
        # TSuspend: the resume target starts the *next* fragment.
    return seen


def _emit_c_op(emitter: _CExpr, handler: HandlerIR, op) -> list[str]:
    if isinstance(op, IAssign):
        return [f"{emitter._name(op.target)} = {emitter.emit(op.value)};"]
    if isinstance(op, ICall):
        if op.name == "SetState":
            state_expr = op.args[1]
            assert isinstance(state_expr, ast.StateExpr)
            args = "".join(
                f", (tpt_word_t){emitter.emit(a)}" for a in state_expr.args)
            return [f"tpt_set_state(rt, info, STATE_{state_expr.name}"
                    f"{args});"]
        args = ", ".join(["rt"] + [emitter.emit(a) for a in op.args])
        return [f"tpt_{op.name}({args});"]
    if isinstance(op, IResume):
        cont = emitter.emit(op.cont)
        if op.direct_site is not None and op.direct_handler is not None:
            state_name, message_name = op.direct_handler.split(".", 1)
            target = emitter.protocol.handlers[(state_name, message_name)]
            site = target.suspend_sites[op.direct_site]
            frag = _frag_name(target, site.resume_block)
            return [f"/* constant continuation: inlined call */",
                    f"{frag}(rt, {cont});"]
        return [f"({cont})->func_ptr(rt, {cont});"]
    if isinstance(op, IPrint):
        args = ", ".join(emitter.emit(a) for a in op.args)
        return [f"tpt_print(rt, {args});"]
    raise CompileError(f"cannot emit C op {op!r}")


def _emit_c_term(emitter: _CExpr, handler: HandlerIR, term) -> list[str]:
    if isinstance(term, TGoto):
        return [f"__pc = {term.target}; continue;"]
    if isinstance(term, TBranch):
        return [f"__pc = {emitter.emit(term.cond)} ? {term.true_target} "
                f": {term.false_target}; continue;"]
    if isinstance(term, TReturn):
        return ["return; /* exit */"]
    if isinstance(term, TSuspend):
        site = handler.suspend_sites[term.site_id]
        frag = _frag_name(handler, site.resume_block)
        lines = []
        if site.is_static:
            lines.append(f"/* empty save set: statically allocated "
                         f"continuation */")
            lines.append(f"{site.cont_name} = &{frag}_static_cont;")
        else:
            lines.append(f"{site.cont_name} = tpt_alloc_cont(rt, "
                         f"{len(site.save_set)});")
            lines.append(f"{site.cont_name}->func_ptr = {frag};")
            for index, var in enumerate(site.save_set):
                lines.append(f"TPT_SAVE({site.cont_name}, {index}, {var});")
        target_args = "".join(
            f", (tpt_word_t){emitter.emit(a)}" for a in site.target.args)
        lines.append(f"tpt_set_state(rt, info, STATE_{site.target.name}"
                     f"{target_args});")
        lines.append("return; /* yield until resumed */")
        return lines
    raise CompileError(f"cannot emit C terminator {term!r}")


def emit_c(protocol: CompiledProtocol) -> str:
    """Generate the C translation unit for ``protocol``."""
    out = io.StringIO()
    out.write("/* Generated by the Teapot C back end.\n")
    out.write(f" * protocol: {protocol.name}\n")
    out.write(f" * optimisation level: {protocol.opt_level.name}\n")
    out.write(" */\n\n")
    out.write('#include "teapot_rt.h"\n\n')

    out.write("/* protocol states */\n")
    out.write("enum {\n")
    for index, name in enumerate(sorted(protocol.states)):
        out.write(f"    STATE_{name} = {index},\n")
    out.write("};\n\n")

    out.write("/* protocol messages */\n")
    out.write("enum {\n")
    for index, name in enumerate(sorted(protocol.messages)):
        out.write(f"    MSG_{name} = {index},\n")
    out.write("};\n\n")

    if protocol.consts:
        out.write("/* protocol constants */\n")
        for name, value in sorted(protocol.consts.items()):
            literal = "1" if value is True else "0" if value is False else value
            out.write(f"#define K_{name} ({literal})\n")
        out.write("\n")

    out.write("/* per-block protocol record */\n")
    out.write("struct tpt_info {\n")
    for name, type_name in protocol.info_vars.items():
        out.write(f"    {_c_type(type_name)} {name};\n")
    out.write("};\n\n")

    # Forward declarations, then fragments.
    handlers = [protocol.handlers[k] for k in sorted(protocol.handlers)]
    for handler in handlers:
        for site in handler.suspend_sites:
            frag = _frag_name(handler, site.resume_block)
            out.write(f"static void {frag}(tpt_rt_t *rt, tpt_cont_t *__k);\n")
            if site.is_static:
                out.write(f"static tpt_cont_t {frag}_static_cont = "
                          f"{{ .func_ptr = {frag} }};\n")
    out.write("\n")

    for handler in handlers:
        _emit_fragment(out, protocol, handler, handler.entry, ())
        for site in handler.suspend_sites:
            _emit_fragment(out, protocol, handler, site.resume_block,
                           site.save_set)

    out.write("/* dispatch table: (state, message) -> entry fragment */\n")
    out.write("const tpt_dispatch_entry_t "
              f"{protocol.name.lower()}_dispatch[] = {{\n")
    for handler in handlers:
        entry = _frag_name(handler, handler.entry)
        message = (f"MSG_{handler.message_name}"
                   if handler.message_name != "DEFAULT" else "TPT_DEFAULT")
        out.write(f"    {{ STATE_{handler.state_name}, {message}, "
                  f"(tpt_handler_fn){entry} }},\n")
    out.write("    { 0, 0, 0 }\n};\n")
    return out.getvalue()
