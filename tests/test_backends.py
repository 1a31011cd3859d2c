"""Tests for the Python, C, and Mur-phi back ends."""

import pytest

from repro.backends import (
    emit_c,
    emit_murphi,
    emit_python,
)
from repro.backends import python_backend
from repro.compiler.pipeline import compile_source
from repro.protocols import (
    PROTOCOLS,
    compile_named_protocol,
    load_protocol_source,
)
from repro.runtime.engine import CompiledEngine
from repro.runtime.exec import HandlerInterpreter
from repro.runtime.protocol import OptLevel
from repro.verify import ModelChecker

from helpers import FakeContext, check_setup, compile_mini


class TestPythonBackend:
    def test_generated_source_compiles(self):
        source = emit_python(compile_mini())
        compiled = compile(source, "<gen>", "exec")
        namespace = {}
        exec(compiled, namespace)
        assert ("Home_Idle", "GET_REQ") in namespace["HANDLERS"]

    def test_runner_matches_interpreter_on_mini(self):
        protocol = compile_mini()
        # Run the same message sequence through both engines.
        def drive(engine_factory):
            ctx = FakeContext(protocol)
            engine = engine_factory(protocol, ctx)
            ctx.deliver(engine, "GET_REQ", src=1)
            ctx.deliver(engine, "GET_REQ", src=2)
            ctx.deliver(engine, "PUT_RESP", src=1, data=(1, 2, 3, 4))
            return ctx.state, dict(ctx.info), list(ctx.sent)

        assert drive(HandlerInterpreter) == drive(CompiledEngine)

    @pytest.mark.parametrize("name", ["stache", "lcm", "stache_cas",
                                      "buffered_write"])
    def test_model_checker_equivalence(self, name):
        """The generated Python (the default engine) and the reference
        interpreter explore identical state spaces -- strong behavioural
        equivalence."""
        protocol = compile_named_protocol(name)
        a = ModelChecker(protocol, 2, 1, reorder_bound=1,
                         **check_setup(name)).run()
        b = ModelChecker(protocol, 2, 1, reorder_bound=1,
                         **check_setup(name),
                         interpreter_factory=HandlerInterpreter).run()
        assert a.ok and b.ok
        assert (a.states_explored, a.transitions) == \
            (b.states_explored, b.transitions)

    def test_counters_tracked_by_generated_code(self):
        protocol = compile_mini()
        ctx = FakeContext(protocol)
        runner = CompiledEngine(protocol, ctx)
        ctx.deliver(runner, "GET_REQ", src=1)
        ctx.deliver(runner, "GET_REQ", src=2)   # suspends
        assert ctx.counters.suspends == 1
        ctx.deliver(runner, "PUT_RESP", src=1, data=(0, 0, 0, 0))
        assert ctx.counters.resumes == 1

    def test_generated_module_has_docstring_header(self):
        source = emit_python(compile_mini())
        assert "Generated by the Teapot Python back end" in source
        assert "optimisation level: O2" in source

    @pytest.mark.parametrize("opt_level", list(OptLevel),
                             ids=lambda level: level.name)
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_emitted_shape(self, name, opt_level):
        """Every protocol at every level: the module is the header, the
        texts the engine compiles one by one and the table; it compiles;
        the frame is the function's locals and the guard is inline."""
        protocol = compile_source(
            load_protocol_source(name), opt_level=opt_level,
            initial_states=PROTOCOLS[name].initial_states)
        module = emit_python(protocol)
        keys = sorted(protocol.handlers)
        texts = [python_backend.emit_handler(protocol, protocol.handlers[key])
                 for key in keys]
        table = "HANDLERS = {\n" + "".join(
            f"    ({state!r}, {message!r}): h_{state}__{message},\n"
            for state, message in keys) + "}\n"
        assert module == (python_backend.emit_header(protocol)
                          + "".join(texts) + table)
        assert "rt.step(" not in module and "env[" not in module
        namespace = {}
        exec(compile(module, f"<{name}.py>", "exec"), namespace)
        for key, text in zip(keys, texts):
            fn = namespace["HANDLERS"][key]
            assert fn.__code__.co_varnames[:4] == (
                "rt", "ops", "bound", "site")
            # One guard per operation and per branch, each inline.
            handler = protocol.handlers[key]
            guarded = sum(
                len(block.ops) + (type(block.terminator).__name__
                                  == "TBranch")
                for block in handler.blocks.values())
            assert text.count("    ops += 1\n") == guarded
            assert text.count("rt.diverged(") == guarded


class TestCBackend:
    def test_structure(self):
        text = emit_c(compile_mini())
        # States and messages become enums.
        assert "STATE_Home_Idle" in text
        assert "MSG_GET_REQ" in text
        # The info record mirrors the protocol variables.
        assert "struct tpt_info {" in text
        assert "tpt_node_t owner;" in text

    def test_handler_fragments_split_at_suspend(self):
        text = emit_c(compile_mini())
        # The recall handler splits into entry + after-suspend fragments
        # (Figure 10's HANDLER and HANDLER_after_L).
        assert "static void Home_Idle__GET_REQ(" in text
        assert "Home_Idle__GET_REQ_after_L0(" in text
        assert "tpt_free_cont(rt, __k);" in text

    def test_static_continuations_emitted(self):
        protocol = compile_named_protocol("stache", opt_level=OptLevel.O2)
        text = emit_c(protocol)
        assert "_static_cont = { .func_ptr =" in text
        assert "statically allocated" in text

    def test_no_static_continuations_at_o1(self):
        protocol = compile_named_protocol("stache", opt_level=OptLevel.O1)
        text = emit_c(protocol)
        assert "_static_cont" not in text

    def test_inlined_resume_is_direct_call(self):
        protocol = compile_named_protocol("stache", opt_level=OptLevel.O2)
        text = emit_c(protocol)
        assert "constant continuation: inlined call" in text

    def test_indirect_resume_through_func_ptr(self):
        protocol = compile_mini()  # Home_Wait has 3 sources: no inlining
        text = emit_c(protocol)
        assert "->func_ptr(rt," in text

    def test_save_restore_mirror_save_sets(self):
        protocol = compile_named_protocol("stache")
        handler = protocol.handlers[("Home_Excl", "GET_RO_REQ")]
        (site,) = handler.suspend_sites
        text = emit_c(protocol)
        for index, var in enumerate(site.save_set):
            assert f"TPT_SAVE(L, {index}, {var});" in text

    def test_dispatch_table_lists_all_handlers(self):
        protocol = compile_mini()
        text = emit_c(protocol)
        assert "mini_dispatch[]" in text
        for state_name, message_name in protocol.handlers:
            assert f"STATE_{state_name}," in text

    def test_size_ratio_tracks_paper(self):
        """Section 6: Stache 600 Teapot lines -> ~1000 C lines (x1.7);
        ours should land in the same expansion ballpark."""
        from repro.analysis import loc_report
        rows = {row.protocol: row for row in loc_report(("stache", "lcm"))}
        for row in rows.values():
            assert 1.5 <= row.expansion <= 4.5


class TestMurphiBackend:
    def test_structure(self):
        text = emit_murphi(compile_mini())
        assert text.startswith("-- Generated by the Teapot Mur-phi back end")
        for section in ("Const", "Type", "Var", "Startstate", "Invariant"):
            assert f"\n{section}" in text or text.startswith(section)
        assert "StateName : enum" in text
        assert "S_Home_Idle" in text

    def test_sharer_list_is_bit_array(self):
        """Section 4's motivating example: SharerList abstract in Teapot,
        'an array of BitType' in Mur-phi."""
        text = emit_murphi(compile_named_protocol("stache"))
        assert "sharers : Array[NodeId] of boolean;" in text

    def test_handlers_become_procedures(self):
        text = emit_murphi(compile_mini())
        assert "Procedure Do_Home_Idle_GET_REQ(" in text
        assert "Procedure Do_Cache_Wait_GET_RESP(" in text

    def test_suspend_becomes_continuation_store(self):
        text = emit_murphi(compile_mini())
        assert "blocks[n][a].cont.frag :=" in text
        assert "F_Home_Idle_GET_REQ_0" in text

    def test_resume_dispatcher_covers_all_fragments(self):
        protocol = compile_named_protocol("stache")
        text = emit_murphi(protocol)
        n_sites = protocol.stats.n_suspend_sites
        assert text.count("  case F_") == n_sites

    def test_default_error_becomes_murphi_error(self):
        text = emit_murphi(compile_mini())
        assert 'error "invalid msg' in text

    def test_rules_and_invariant(self):
        text = emit_murphi(compile_mini())
        assert 'Rule "deliver message"' in text
        assert 'Rule "load a block"' in text
        assert 'Invariant "single writer"' in text

    def test_configuration_parameters(self):
        text = emit_murphi(compile_mini(), n_nodes=3, n_addrs=2)
        assert "NodeCount : 3;" in text
        assert "AddrCount : 2;" in text

    def test_single_source_property(self):
        """The paper's headline: executable code and checker input come
        from one specification.  Both back ends must agree on the state
        and message vocabulary."""
        protocol = compile_named_protocol("lcm")
        c_text = emit_c(protocol)
        murphi_text = emit_murphi(protocol)
        for state in protocol.states:
            assert f"STATE_{state}" in c_text
            assert f"S_{state}" in murphi_text
        for message in protocol.messages:
            assert f"MSG_{message}" in c_text
            assert f"M_{message}" in murphi_text
