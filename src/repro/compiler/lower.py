"""Lowering: checked handler ASTs to control-flow graphs.

The interesting case is ``Suspend``: it terminates the current basic
block and the statements that follow it begin a new block -- the resume
fragment.  This works uniformly even when the ``Suspend`` sits inside
nested conditionals and loops ("This transformation works even if
Suspend statements occur within control structures", Section 5).
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.symbols import SymbolKind
from repro.lang.typecheck import CheckedProgram
from repro.compiler.ir import (
    BasicBlock,
    HandlerIR,
    IAssign,
    ICall,
    IPrint,
    IResume,
    SuspendSite,
    TBranch,
    TGoto,
    TReturn,
    TSuspend,
)


class _Lowerer:
    """Builds the CFG for one handler."""

    def __init__(self, checked: CheckedProgram, state: ast.StateDef,
                 handler: ast.Handler):
        self.checked = checked
        self.state = state
        self.handler = handler
        self.blocks: dict[int, BasicBlock] = {}
        self.suspend_sites: list[SuspendSite] = []
        self._next_id = 0

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self._next_id)
        self.blocks[self._next_id] = block
        self._next_id += 1
        return block

    def lower(self) -> HandlerIR:
        entry = self.new_block()
        last = self.lower_stmts(self.handler.body, entry)
        # Falling off the end of a handler is an implicit exit.
        last.terminator = TReturn()

        scope = self.checked.handler_scopes[
            (self.state.state_name, self.handler.message_name)]
        cont_vars = tuple(
            s.name for s in scope.symbols() if s.kind is SymbolKind.CONT)

        return HandlerIR(
            state_name=self.state.state_name,
            message_name=self.handler.message_name,
            params=[p.name for p in self.handler.params],
            param_types={p.name: p.type_name for p in self.handler.params},
            locals={d.name: d.type_name for d in self.handler.local_decls},
            state_params={p.name: p.type_name for p in self.state.params},
            cont_vars=cont_vars,
            blocks=self.blocks,
            entry=entry.block_id,
            suspend_sites=self.suspend_sites,
        )

    def lower_stmts(self, stmts: list[ast.Stmt],
                    current: BasicBlock) -> BasicBlock:
        """Lower ``stmts`` starting in ``current``; returns the block where
        control ends up (which the caller must terminate)."""
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Assign):
                current.ops.append(IAssign(stmt.target, stmt.value))
            elif isinstance(stmt, ast.CallStmt):
                current.ops.append(ICall(stmt.name, list(stmt.args)))
            elif isinstance(stmt, ast.PrintStmt):
                current.ops.append(IPrint(list(stmt.args)))
            elif isinstance(stmt, ast.Resume):
                current.ops.append(IResume(stmt.cont))
            elif isinstance(stmt, ast.Return):
                current.terminator = TReturn()
                if stmts[index + 1:]:
                    raise CompileError(
                        "unreachable statements after Return",
                        stmts[index + 1].location,
                    )
                # Give the caller a fresh (unreachable) block to terminate.
                return self.new_block()
            elif isinstance(stmt, ast.If):
                current = self._lower_if(stmt, current)
            elif isinstance(stmt, ast.While):
                current = self._lower_while(stmt, current)
            elif isinstance(stmt, ast.Suspend):
                current = self._lower_suspend(stmt, current)
            else:
                raise CompileError(f"cannot lower statement {stmt!r}",
                                   stmt.location)
        return current

    def _lower_if(self, stmt: ast.If, current: BasicBlock) -> BasicBlock:
        then_block = self.new_block()
        join_block = self.new_block()
        if stmt.else_body:
            else_block = self.new_block()
            current.terminator = TBranch(stmt.cond, then_block.block_id,
                                         else_block.block_id)
            else_end = self.lower_stmts(stmt.else_body, else_block)
            else_end.terminator = TGoto(join_block.block_id)
        else:
            current.terminator = TBranch(stmt.cond, then_block.block_id,
                                         join_block.block_id)
        then_end = self.lower_stmts(stmt.then_body, then_block)
        then_end.terminator = TGoto(join_block.block_id)
        return join_block

    def _lower_while(self, stmt: ast.While, current: BasicBlock) -> BasicBlock:
        head = self.new_block()
        body = self.new_block()
        exit_block = self.new_block()
        current.terminator = TGoto(head.block_id)
        head.terminator = TBranch(stmt.cond, body.block_id,
                                  exit_block.block_id)
        body_end = self.lower_stmts(stmt.body, body)
        body_end.terminator = TGoto(head.block_id)
        return exit_block

    def _lower_suspend(self, stmt: ast.Suspend,
                       current: BasicBlock) -> BasicBlock:
        resume_block = self.new_block()
        site = SuspendSite(
            site_id=len(self.suspend_sites),
            cont_name=stmt.cont_name,
            target=stmt.target,
            resume_block=resume_block.block_id,
            location=stmt.location,
        )
        self.suspend_sites.append(site)
        current.terminator = TSuspend(site.site_id, resume_block.block_id)
        return resume_block


def lower_handler(checked: CheckedProgram, state: ast.StateDef,
                  handler: ast.Handler) -> HandlerIR:
    """Lower one checked handler to its CFG."""
    return _Lowerer(checked, state, handler).lower()


def lower_program(checked: CheckedProgram) -> dict[tuple[str, str], HandlerIR]:
    """Lower every handler in the program, keyed by (state, message)."""
    result: dict[tuple[str, str], HandlerIR] = {}
    for state in checked.program.states:
        for handler in state.handlers:
            key = (state.state_name, handler.message_name)
            result[key] = lower_handler(checked, state, handler)
    return result
