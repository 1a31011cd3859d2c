"""The Mur-phi back end: model-checker input from the same source.

"In general, Mur-phi requires a programmer to write a protocol twice ...
To solve this problem, Teapot automatically generates a Mur-phi
specification from a Teapot protocol" (Section 7).  This module emits a
Mur-phi description of the compiled protocol:

- constants and types (nodes, addresses, state/tag enums, the network);
- the per-block protocol record, including a continuation record (a
  fragment id plus saved-variable slots -- the push-down extension of
  the state machine);
- one procedure per handler fragment, with ``Suspend`` compiled into a
  continuation store plus state change and ``Resume`` into a dispatch
  over fragment ids;
- rulesets for message delivery and the protocol event-generation loop;
- the standard invariants (no unexpected message is expressed through
  the generated ``Error`` branches of the DEFAULT handlers).

Since Mur-phi itself is not available in this environment, the emitted
text is validated structurally by the test suite, and the *checking* is
performed by :mod:`repro.verify`, which explores the same compiled IR.
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

_MURPHI_OPS = {
    "=": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "And": "&", "Or": "|",
}


def _frag_id(handler: HandlerIR, site_id: int) -> str:
    return f"F_{handler.state_name}_{handler.message_name}_{site_id}"


def _proc_name(handler: HandlerIR, block_id: int | None = None) -> str:
    base = f"Do_{handler.state_name}_{handler.message_name}"
    if block_id is None or block_id == handler.entry:
        return base
    return f"{base}_resume{block_id}"


_RESERVED = {"n", "a", "msg", "m", "i"}


class _MurphiExpr:
    """Compiles Teapot expressions to Mur-phi expression strings."""

    def __init__(self, protocol: CompiledProtocol, handler: HandlerIR):
        self.protocol = protocol
        self.handler = handler
        self.frame = set(handler.frame_vars)
        # Frame variables that collide with the generated procedures'
        # own parameters are renamed.
        self.renames = {
            name: f"loc_{name}" for name in self.frame if name in _RESERVED
        }

    def frame_name(self, name: str) -> str:
        return self.renames.get(name, name)

    def emit(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "true" if expr.value else "false"
        if isinstance(expr, ast.StrLit):
            return f'"{expr.value}"'
        if isinstance(expr, ast.NameRef):
            return self._name(expr.name)
        if isinstance(expr, ast.CallExpr):
            args = ["n", "a"] + [self.emit(arg) for arg in expr.args]
            return f"Fn_{expr.name}({', '.join(args)})"
        if isinstance(expr, ast.StateExpr):
            return f"S_{expr.name}"
        if isinstance(expr, ast.BinOp):
            return (f"({self.emit(expr.left)} {_MURPHI_OPS[expr.op]} "
                    f"{self.emit(expr.right)})")
        if isinstance(expr, ast.UnOp):
            inner = self.emit(expr.operand)
            return f"(!{inner})" if expr.op == "Not" else f"(-{inner})"
        raise CompileError(f"cannot emit Mur-phi for {expr!r}")

    def _name(self, name: str) -> str:
        if name in self.frame:
            return self.frame_name(name)
        if name in self.protocol.info_vars:
            return f"blocks[n][a].{name}"
        if name in self.protocol.consts:
            return f"K_{name}"
        if name == "MyNode":
            return "n"
        if name == "Nobody":
            return "NOBODY"
        if name == "MessageTag":
            return "msg.tag"
        if name.startswith("Blk_"):
            return f"A_{name[4:].upper()}"
        if name in self.protocol.messages:
            return f"M_{name}"
        raise CompileError(f"cannot resolve {name!r} in Mur-phi back end")


_ACCESS_OF = {
    "Blk_Invalidate": "A_INVALIDATE",
    "Blk_Upgrade_RO": "A_UPGRADE_RO",
    "Blk_Upgrade_RW": "A_UPGRADE_RW",
    "Blk_Downgrade_RO": "A_DOWNGRADE_RO",
}


def _reaches_by_goto(handler: HandlerIR, start: int, target: int) -> bool:
    """Does ``start`` flow back to ``target`` along Goto/Branch edges
    without passing a suspend?  (Loop back-edge detection.)"""
    seen: set[int] = set()
    stack = [start]
    while stack:
        block_id = stack.pop()
        if block_id == target:
            return True
        if block_id in seen:
            continue
        seen.add(block_id)
        term = handler.blocks[block_id].terminator
        if isinstance(term, TGoto):
            stack.append(term.target)
        elif isinstance(term, TBranch):
            stack.extend((term.true_target, term.false_target))
    return False


def _emit_stmts(out: list[str], emitter: _MurphiExpr, handler: HandlerIR,
                block_id: int, depth: int, visited: set[int],
                stop_at: int | None = None) -> None:
    """Structured re-emission of the CFG as nested Mur-phi statements.

    The CFG came from structured source, so a depth-first walk that
    stops at suspends re-creates structured code.  A branch whose true
    arm flows back to the branch block is a While loop head and is
    emitted as a Mur-phi ``while``; ``stop_at`` cuts the walk at the
    loop head when emitting the loop body.
    """
    indent = "    " * depth
    if block_id == stop_at:
        return
    if block_id in visited:
        out.append(f"{indent}-- join with block {block_id}")
        return
    visited = visited | {block_id}
    block = handler.blocks[block_id]
    for op in block.ops:
        out.extend(_emit_op(emitter, handler, op, indent))
    term = block.terminator
    if isinstance(term, TGoto):
        _emit_stmts(out, emitter, handler, term.target, depth, visited,
                    stop_at)
    elif isinstance(term, TBranch):
        if _reaches_by_goto(handler, term.true_target, block_id):
            # A While loop: body runs while the condition holds.
            out.append(f"{indent}while {emitter.emit(term.cond)} do")
            _emit_stmts(out, emitter, handler, term.true_target, depth + 1,
                        visited, stop_at=block_id)
            out.append(f"{indent}end;")
            _emit_stmts(out, emitter, handler, term.false_target, depth,
                        visited, stop_at)
            return
        out.append(f"{indent}if {emitter.emit(term.cond)} then")
        _emit_stmts(out, emitter, handler, term.true_target, depth + 1,
                    visited, stop_at)
        out.append(f"{indent}else")
        _emit_stmts(out, emitter, handler, term.false_target, depth + 1,
                    visited, stop_at)
        out.append(f"{indent}endif;")
    elif isinstance(term, TSuspend):
        site = handler.suspend_sites[term.site_id]
        out.append(f"{indent}-- Suspend: park continuation "
                   f"{_frag_id(handler, site.site_id)}")
        out.append(f"{indent}blocks[n][a].cont.frag := "
                   f"{_frag_id(handler, site.site_id)};")
        for index, var in enumerate(site.save_set):
            out.append(f"{indent}blocks[n][a].cont.saved[{index}] := "
                       f"ToWord({emitter.frame_name(var)});")
        out.append(f"{indent}blocks[n][a].state := S_{site.target.name};")
    elif isinstance(term, TReturn):
        out.append(f"{indent}return;")


def _emit_op(emitter: _MurphiExpr, handler: HandlerIR, op,
             indent: str) -> list[str]:
    if isinstance(op, IAssign):
        return [f"{indent}{emitter._name(op.target)} := "
                f"{emitter.emit(op.value)};"]
    if isinstance(op, ICall):
        if op.name == "SetState":
            state_expr = op.args[1]
            assert isinstance(state_expr, ast.StateExpr)
            lines = [f"{indent}blocks[n][a].state := S_{state_expr.name};"]
            return lines
        if op.name == "Send" or op.name == "SendBlk":
            dst = emitter.emit(op.args[0])
            tag = emitter.emit(op.args[1])
            data = "true" if op.name == "SendBlk" else "false"
            return [f"{indent}NetSend(n, {dst}, {tag}, a, {data});"]
        if op.name == "AccessChange":
            mode = op.args[1]
            mode_name = mode.name if isinstance(mode, ast.NameRef) else "?"
            return [f"{indent}access[n][a] := "
                    f"{_ACCESS_OF.get(mode_name, 'A_INVALIDATE')};"]
        if op.name == "Enqueue":
            return [f"{indent}QueueDefer(n, a, msg);"]
        if op.name == "Error":
            text = op.args[0]
            literal = text.value if isinstance(text, ast.StrLit) else "error"
            return [f'{indent}error "{literal}";']
        args = ["n", "a"] + [emitter.emit(a) for a in op.args]
        return [f"{indent}Pr_{op.name}({', '.join(args)});"]
    if isinstance(op, IResume):
        return [f"{indent}ResumeCont(n, a, {emitter.emit(op.cont)});"]
    if isinstance(op, IPrint):
        return [f"{indent}-- print"]
    raise CompileError(f"cannot emit Mur-phi op {op!r}")


def emit_murphi(protocol: CompiledProtocol, n_nodes: int = 2,
                n_addrs: int = 1, net_max: int = 4) -> str:
    """Generate Mur-phi source for ``protocol``."""
    out = io.StringIO()
    out.write(f"-- Generated by the Teapot Mur-phi back end.\n")
    out.write(f"-- protocol: {protocol.name} "
              f"(opt={protocol.opt_level.name})\n\n")

    out.write("Const\n")
    out.write(f"  NodeCount : {n_nodes};\n")
    out.write(f"  AddrCount : {n_addrs};\n")
    out.write(f"  NetMax    : {net_max};\n")
    out.write("  ContSlots : 4;\n")
    out.write("  NOBODY    : -1;\n")
    for name, value in sorted(protocol.consts.items()):
        literal = ("true" if value is True
                   else "false" if value is False else value)
        out.write(f"  K_{name} : {literal};\n")
    out.write("\n")

    out.write("Type\n")
    out.write("  NodeId  : 0..NodeCount-1;\n")
    out.write("  Addr    : 0..AddrCount-1;\n")
    out.write("  Word    : -1..255;\n")
    states = ", ".join(f"S_{n}" for n in sorted(protocol.states))
    out.write(f"  StateName : enum {{ {states} }};\n")
    tags = ", ".join(f"M_{n}" for n in sorted(protocol.messages))
    out.write(f"  TagName : enum {{ {tags} }};\n")
    frags = [
        _frag_id(handler, site.site_id)
        for key in sorted(protocol.handlers)
        for handler in [protocol.handlers[key]]
        for site in handler.suspend_sites
    ]
    frag_list = ", ".join(["F_NONE"] + frags)
    out.write(f"  FragId : enum {{ {frag_list} }};\n")
    out.write("  AccessTag : enum { ACC_INV, ACC_RO, ACC_RW };\n")
    out.write("  ContRec : Record\n")
    out.write("    frag  : FragId;\n")
    out.write("    saved : Array[0..ContSlots-1] of Word;\n")
    out.write("  End;\n")
    out.write("  MessageRec : Record\n")
    out.write("    tag : TagName; addr : Addr; src : NodeId; "
              "hasData : boolean;\n")
    out.write("  End;\n")
    out.write("  BlockRec : Record\n")
    out.write("    state : StateName;\n")
    out.write("    cont  : ContRec;\n")
    for name, type_name in protocol.info_vars.items():
        murphi_type = {
            "INT": "Word", "BOOL": "boolean", "NODE": "Word",
            "VALUE": "Word", "ADDR": "Word", "MSGTAG": "TagName",
            # "Mur-phi represents the same information as an array of
            # BitType" (Section 4): the sharer bit vector.
            "SharerList": "Array[NodeId] of boolean",
        }.get(type_name, "Word")
        out.write(f"    {name} : {murphi_type};\n")
    out.write("  End;\n\n")

    out.write("Var\n")
    out.write("  blocks : Array[NodeId] of Array[Addr] of BlockRec;\n")
    out.write("  access : Array[NodeId] of Array[Addr] of AccessTag;\n")
    out.write("  net    : Array[NodeId] of Array[NodeId] of\n")
    out.write("             Record count : 0..NetMax;\n")
    out.write("                    msgs : Array[0..NetMax-1] of MessageRec;\n")
    out.write("             End;\n")
    out.write("  blocked : Array[NodeId] of boolean;\n\n")

    # Handler procedures (entry + resume fragments).
    for key in sorted(protocol.handlers):
        handler = protocol.handlers[key]
        emitter = _MurphiExpr(protocol, handler)
        entries = [(handler.entry, None)] + [
            (site.resume_block, site) for site in handler.suspend_sites]
        for entry_block, site in entries:
            name = _proc_name(handler, entry_block)
            out.write(f"Procedure {name}(n : NodeId; a : Addr; "
                      "msg : MessageRec);\n")
            if handler.frame_vars:
                out.write("Var\n")
                for var in handler.frame_vars:
                    out.write(f"  {emitter.frame_name(var)} : Word;\n")
            out.write("Begin\n")
            out.write(f"  -- {handler.qualified_name}"
                      + (f" (resume after suspend {site.site_id})"
                         if site else "") + "\n")
            if site is None:
                out.write(f"  {emitter.frame_name(handler.params[0])}"
                          " := a;\n")
                out.write(f"  {emitter.frame_name(handler.params[2])}"
                          " := msg.src;\n")
            else:
                for index, var in enumerate(site.save_set):
                    out.write(f"  {emitter.frame_name(var)} := "
                              f"blocks[n][a].cont.saved[{index}];\n")
            lines: list[str] = []
            _emit_stmts(lines, emitter, handler, entry_block, 1, set())
            for line in lines:
                out.write(line + "\n")
            out.write("End;\n\n")

    # Runtime helper procedures, so the unit is self-contained.
    out.write("-- runtime helpers ------------------------------------\n\n")
    out.write("Function HomeOf(a : Addr) : NodeId;\n")
    out.write("Begin\n  return a % NodeCount;\nEnd;\n\n")
    out.write("Function ToWord(w : Word) : Word;\n")
    out.write("Begin\n  return w;\nEnd;\n\n")
    out.write("Function EmptyMessage() : MessageRec;\n")
    out.write("Var m : MessageRec;\n")
    out.write("Begin\n")
    out.write(f"  m.tag := M_{sorted(protocol.messages)[0]};\n")
    out.write("  m.addr := 0; m.src := 0; m.hasData := false;\n")
    out.write("  return m;\nEnd;\n\n")
    out.write("Procedure NetSend(src : NodeId; dst : NodeId; tag : TagName;\n")
    out.write("                  a : Addr; hasData : boolean);\n")
    out.write("Begin\n")
    out.write("  Assert net[src][dst].count < NetMax \"channel overflow\";\n")
    out.write("  net[src][dst].msgs[net[src][dst].count].tag := tag;\n")
    out.write("  net[src][dst].msgs[net[src][dst].count].addr := a;\n")
    out.write("  net[src][dst].msgs[net[src][dst].count].src := src;\n")
    out.write("  net[src][dst].msgs[net[src][dst].count].hasData := hasData;\n")
    out.write("  net[src][dst].count := net[src][dst].count + 1;\n")
    out.write("End;\n\n")
    out.write("Procedure NetPop(src : NodeId; dst : NodeId);\n")
    out.write("Begin\n")
    out.write("  For i : 0..NetMax-2 Do\n")
    out.write("    net[src][dst].msgs[i] := net[src][dst].msgs[i+1];\n")
    out.write("  End;\n")
    out.write("  net[src][dst].count := net[src][dst].count - 1;\n")
    out.write("End;\n\n")
    out.write("Procedure QueueDefer(n : NodeId; a : Addr; msg : MessageRec);\n")
    out.write("Begin\n")
    out.write("  -- deferred-queue bookkeeping elided: redelivery after the\n")
    out.write("  -- next state change, as in the executable runtime\n")
    out.write("End;\n\n")

    # Message dispatch over the (state, tag) table.
    out.write("Procedure Dispatch(n : NodeId; msg : MessageRec);\n")
    out.write("Var a : Addr;\n")
    out.write("Begin\n")
    out.write("  a := msg.addr;\n")
    out.write("  switch blocks[n][a].state\n")
    for state_name in sorted(protocol.states):
        state = protocol.states[state_name]
        out.write(f"  case S_{state_name}:\n")
        out.write("    switch msg.tag\n")
        for message_name in sorted(state.handlers):
            handler = protocol.handler_ir(state.handlers[message_name])
            out.write(f"    case M_{message_name}:\n")
            out.write(f"      {_proc_name(handler)}(n, a, msg);\n")
        if state.default is not None:
            default = protocol.handler_ir(state.default)
            out.write("    else\n")
            out.write(f"      {_proc_name(default)}(n, a, msg);\n")
        else:
            out.write("    else\n")
            out.write('      error "message with no handler";\n')
        out.write("    endswitch;\n")
    out.write("  endswitch;\nEnd;\n\n")

    # Access-fault entry point for the event-generation rules.
    out.write("Procedure TakeFault(n : NodeId; a : Addr; tag : TagName);\n")
    out.write("Var m : MessageRec;\n")
    out.write("Begin\n")
    out.write("  m.tag := tag; m.addr := a; m.src := n; "
              "m.hasData := false;\n")
    out.write("  blocked[n] := true;\n")
    out.write("  Dispatch(n, m);\n")
    out.write("End;\n\n")

    # Resume dispatcher.
    out.write("Procedure ResumeCont(n : NodeId; a : Addr; frag : FragId);\n")
    out.write("Begin\n")
    out.write("  switch frag\n")
    for key in sorted(protocol.handlers):
        handler = protocol.handlers[key]
        for site in handler.suspend_sites:
            out.write(f"  case {_frag_id(handler, site.site_id)}:\n")
            out.write(f"    {_proc_name(handler, site.resume_block)}"
                      "(n, a, EmptyMessage());\n")
    out.write("  else\n")
    out.write('    error "resume of unknown fragment";\n')
    out.write("  endswitch;\nEnd;\n\n")

    # Delivery rules.
    out.write("Ruleset src : NodeId; dst : NodeId Do\n")
    out.write('  Rule "deliver message"\n')
    out.write("    net[src][dst].count > 0\n")
    out.write("  ==>\n")
    out.write("  Begin\n")
    out.write("    Dispatch(dst, net[src][dst].msgs[0]);\n")
    out.write("    NetPop(src, dst);\n")
    out.write("  End;\nEnd;\n\n")

    # Event generation loop (the paper: supplied per protocol).  Plain
    # loads and stores always; protocol-specific local events (any
    # declared *_FAULT message beyond the access faults) get a rule
    # each, mirroring repro.verify's event generators.
    out.write("Ruleset n : NodeId; a : Addr Do\n")
    event_rules = [("load a block", "M_RD_FAULT"),
                   ("store a block", "M_WR_FAULT")]
    for message in sorted(protocol.messages):
        if message.endswith("_FAULT") and message not in (
                "RD_FAULT", "WR_FAULT", "WR_RO_FAULT"):
            label = message[:-6].replace("_", " ").lower() + " operation"
            event_rules.append((label, f"M_{message}"))
    for label, fault in event_rules:
        out.write(f'  Rule "{label}"\n')
        out.write("    !blocked[n]\n")
        out.write("  ==>\n")
        out.write("  Begin\n")
        out.write(f"    TakeFault(n, a, {fault});\n")
        out.write("  End;\n")
    out.write("End;\n\n")

    out.write("Startstate\n")
    out.write("Begin\n")
    out.write("  For n : NodeId Do For a : Addr Do\n")
    out.write("    if HomeOf(a) = n then\n")
    out.write(f"      blocks[n][a].state := "
              f"S_{protocol.initial_home_state};\n")
    out.write("      access[n][a] := ACC_RW;\n")
    out.write("    else\n")
    out.write(f"      blocks[n][a].state := "
              f"S_{protocol.initial_cache_state};\n")
    out.write("      access[n][a] := ACC_INV;\n")
    out.write("    endif;\n")
    out.write("    blocks[n][a].cont.frag := F_NONE;\n")
    out.write("  End; End;\nEnd;\n\n")

    out.write('Invariant "single writer"\n')
    out.write("  Forall a : Addr Do\n")
    out.write("    Forall n1 : NodeId Do Forall n2 : NodeId Do\n")
    out.write("      (n1 != n2 & access[n1][a] = ACC_RW)\n")
    out.write("      -> (access[n2][a] = ACC_INV)\n")
    out.write("    End End\n")
    out.write("  End;\n")
    return out.getvalue()
