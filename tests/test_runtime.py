"""Unit tests for the runtime: interpreter, builtins, continuations."""

import pytest

from repro.compiler.pipeline import compile_source
from repro.lang.errors import RuntimeProtocolError
from repro.runtime.continuation import ContinuationRecord, make_continuation
from repro.runtime.exec import HandlerInterpreter
from repro.runtime.protocol import NOBODY, OptLevel, StateValue

from helpers import FakeContext, compile_mini

EXPR_TEMPLATE = """
Protocol E
Begin
  Var count : INT;
  Var flag : BOOL;
  Var owner : NODE;
  Var sharers : SharerList;
  State S {{}};
  Message M;
End;

State E.S{{}}
Begin
  Message M (id : ID; Var info : INFO; src : NODE{params})
  {locals}
  Begin
    {body}
  End;
End;
"""


def run_body(body: str, locals_decl: str = "", params: str = "",
             payload=(), state=("S", ()), support=None,
             engine_factory=HandlerInterpreter, tag="M"):
    protocol = compile_source(
        EXPR_TEMPLATE.format(body=body, locals=locals_decl, params=params),
        initial_states=("S", "S"))
    ctx = FakeContext(protocol, state=state)
    if support:
        ctx.support.update(support)
    interp = engine_factory(protocol, ctx)
    ctx.deliver(interp, tag, payload=payload)
    return ctx


class TestExpressionEvaluation:
    def test_arithmetic(self):
        ctx = run_body("count := (2 + 3) * 4 - 1;")
        assert ctx.info["count"] == 19

    def test_division_truncates(self):
        assert run_body("count := 7 / 2;").info["count"] == 3
        assert run_body("count := 0 - (7 / 2);").info["count"] == -3

    def test_division_by_zero_is_protocol_error(self):
        with pytest.raises(RuntimeProtocolError, match="division"):
            run_body("count := 1 / 0;")

    def test_modulo(self):
        assert run_body("count := 17 % 5;").info["count"] == 2

    def test_comparisons(self):
        ctx = run_body("flag := (3 < 4) And (4 <= 4) And (5 > 4) "
                       "And (5 >= 5) And (1 = 1) And (1 != 2);")
        assert ctx.info["flag"] is True

    def test_short_circuit_and(self):
        # The right operand would divide by zero if evaluated.
        ctx = run_body("flag := False And (1 / 0 = 1);")
        assert ctx.info["flag"] is False

    def test_short_circuit_or(self):
        ctx = run_body("flag := True Or (1 / 0 = 1);")
        assert ctx.info["flag"] is True

    def test_not_and_unary_minus(self):
        ctx = run_body("flag := Not False;\ncount := -5 + 10;")
        assert ctx.info["flag"] is True
        assert ctx.info["count"] == 5

    def test_builtin_constants(self):
        ctx = run_body("owner := MyNode;")
        assert ctx.info["owner"] == 0
        ctx = run_body("owner := Nobody;")
        assert ctx.info["owner"] == NOBODY

    def test_message_tag(self):
        ctx = run_body("flag := MessageTag = M;")
        assert ctx.info["flag"] is True

    def test_while_loop(self):
        ctx = run_body("count := 0;\n"
                       "While (count < 10) Do count := count + 1; End;")
        assert ctx.info["count"] == 10

    def test_locals_initialised_by_type(self):
        ctx = run_body("count := tmp;\nflag := b;\nowner := n;",
                       "Var\n  tmp : INT;\n  b : BOOL;\n  n : NODE;")
        assert ctx.info["count"] == 0
        assert ctx.info["flag"] is False
        assert ctx.info["owner"] == NOBODY

    def test_payload_params(self):
        ctx = run_body("count := v * 2;", params="; v : INT",
                       payload=(21,))
        assert ctx.info["count"] == 42


class TestBuiltins:
    def test_sharer_operations(self):
        ctx = run_body(
            "AddSharer(info, src);\n"
            "AddSharer(info, IntToNode(2));\n"
            "count := CountSharers(info);\n"
            "flag := HasSharer(info, src);\n"
            "DelSharer(info, IntToNode(2));\n"
            "owner := PopSharer(info);")
        assert ctx.info["count"] == 2
        assert ctx.info["flag"] is True
        assert ctx.info["owner"] == 1
        assert ctx.info["sharers"] == frozenset()

    def test_nth_sharer_deterministic(self):
        ctx = run_body(
            "AddSharer(info, IntToNode(5));\n"
            "AddSharer(info, IntToNode(2));\n"
            "AddSharer(info, IntToNode(9));\n"
            "owner := NthSharer(info, 1);")
        assert ctx.info["owner"] == 5

    def test_nth_sharer_out_of_range(self):
        with pytest.raises(RuntimeProtocolError, match="NthSharer"):
            run_body("owner := NthSharer(info, 0);")

    def test_pop_empty_sharers_errors(self):
        with pytest.raises(RuntimeProtocolError, match="PopSharer"):
            run_body("owner := PopSharer(info);")

    def test_clear_sharers(self):
        ctx = run_body("AddSharer(info, IntToNode(1));\nClearSharers(info);\n"
                       "flag := IsEmptySharers(info);")
        assert ctx.info["flag"] is True

    def test_send_and_sendblk(self):
        ctx = run_body("Send(src, M, id, 7);\nSendBlk(src, M, id, 8);",
                       params="; v : INT", payload=(7,))
        assert ctx.sent == [(1, "M", 0, (7,), False), (1, "M", 0, (8,), True)]

    def test_read_write_word(self):
        ctx = run_body("WriteWord(id, 2, 99);\ncount := ReadWord(id, 2);")
        assert ctx.info["count"] == 99
        assert ctx.data[2] == 99

    def test_msg_word(self):
        ctx = run_body("count := MsgWord(1);", params="; a : INT; b : INT",
                       payload=(10, 20))
        assert ctx.info["count"] == 20

    def test_msg_word_out_of_range(self):
        with pytest.raises(RuntimeProtocolError, match="MsgWord"):
            run_body("count := MsgWord(5);")

    def test_error_formats_percent_s(self):
        with pytest.raises(RuntimeProtocolError, match="boom M end"):
            run_body('Error("boom %s end", Msg_To_Str(MessageTag));')

    def test_print_captured(self):
        ctx = run_body('Print("x", count);')
        assert ctx.printed == [("x", 0)]

    def test_enqueue_defers_current_message(self):
        ctx = run_body("Enqueue(MessageTag, id, info, src);")
        assert len(ctx.deferred) == 1
        assert ctx.deferred[0].tag == "M"
        assert ctx.counters.queue_allocs == 1

    def test_is_home(self):
        ctx = run_body("flag := IsHome(id);")
        assert ctx.info["flag"] is True  # FakeContext homes everything at 0

    def test_support_call(self):
        source = EXPR_TEMPLATE.format(
            body="count := Triple(4);", locals="", params="")
        source = ("Module Help\nBegin\n"
                  "  Function Triple(x : INT) : INT;\nEnd;\n" + source)
        protocol = compile_source(source, initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        ctx.support["Triple"] = lambda x: x * 3
        interp = HandlerInterpreter(protocol, ctx)
        ctx.deliver(interp, "M")
        assert ctx.info["count"] == 12

    def test_missing_support_call(self):
        source = EXPR_TEMPLATE.format(
            body="count := Triple(4);", locals="", params="")
        source = ("Module Help\nBegin\n"
                  "  Function Triple(x : INT) : INT;\nEnd;\n" + source)
        protocol = compile_source(source, initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="support routine"):
            ctx.deliver(interp, "M")


class TestDispatch:
    def test_unhandled_message_is_error(self):
        protocol = compile_mini()
        ctx = FakeContext(protocol, state=("Cache_Holding", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="invalid msg"):
            ctx.deliver(interp, "GET_RESP")

    def test_message_with_no_handler_or_default(self):
        # Strip the DEFAULT from a state and send an odd message.
        protocol = compile_mini()
        del protocol.states["Cache_Holding"].default
        protocol.states["Cache_Holding"].default = None
        ctx = FakeContext(protocol, state=("Cache_Holding", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="unexpected message"):
            ctx.deliver(interp, "GET_RESP")

    def test_unknown_state(self):
        protocol = compile_mini()
        ctx = FakeContext(protocol, state=("Bogus", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="unknown state"):
            ctx.deliver(interp, "GET_REQ")

    def test_runaway_loop_guard(self):
        protocol = compile_source(
            EXPR_TEMPLATE.format(body="While (True) Do count := 0; End;",
                                 locals="", params=""),
            initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="diverging"):
            ctx.deliver(interp, "M")

    def test_suspend_then_resume_full_cycle(self):
        protocol = compile_mini()
        ctx = FakeContext(protocol)
        interp = HandlerInterpreter(protocol, ctx)
        # First grant: no previous owner, no suspend needed.
        ctx.deliver(interp, "GET_REQ", src=1)
        assert ctx.counters.suspends == 0
        # Second grant recalls from node 1 (suspend in a conditional).
        ctx.deliver(interp, "GET_REQ", src=2)
        assert ctx.counters.suspends == 1
        assert ctx.state[0] == "Home_Wait"
        assert isinstance(ctx.state[1][0], ContinuationRecord)
        ctx.deliver(interp, "PUT_RESP", src=1, data=(0, 0, 0, 0))
        assert ctx.state[0] == "Home_Idle"
        assert ctx.info["owner"] == 2
        assert ctx.counters.resumes == 1
        assert ctx.counters.cont_frees == ctx.counters.cont_allocs

    def test_resume_of_non_continuation_is_error(self):
        source = EXPR_TEMPLATE.format(
            body="Resume(junk);",
            locals="Var\n  junk : CONT;", params="")
        protocol = compile_source(source, initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="non-continuation"):
            ctx.deliver(interp, "M")


class TestContinuationRecords:
    def test_static_records_are_interned(self):
        a = make_continuation("S.M", 0, (), True)
        b = make_continuation("S.M", 0, (), True)
        assert a is b

    def test_heap_records_are_distinct(self):
        a = make_continuation("S.M", 0, (("x", 1),), False)
        b = make_continuation("S.M", 0, (("x", 1),), False)
        assert a is not b
        assert a == b  # but structurally equal (for state hashing)

    def test_environment_restoration(self):
        record = make_continuation("S.M", 1, (("x", 1), ("y", "z")), False)
        assert record.environment() == {"x": 1, "y": "z"}

    def test_records_are_hashable(self):
        record = make_continuation("S.M", 0, (("x", 1),), False)
        assert {record: 1}[record] == 1

    def test_repr_mentions_kind(self):
        assert "static" in repr(make_continuation("S.M", 0, (), True))
        assert "heap" in repr(make_continuation("S.M", 0, (("a", 2),), False))


class TestStateValue:
    def test_repr(self):
        assert repr(StateValue("W", (1,))) == "W{1}"

    def test_hashable_and_frozen(self):
        value = StateValue("W", ())
        assert {value: 1}[StateValue("W", ())] == 1
        with pytest.raises(Exception):
            value.name = "X"


class TestCostAccounting:
    def test_teapot_flavor_charges_indirection(self):
        from repro.runtime.context import CostModel

        def cycles_for(opt_level, flavor_name):
            from repro.runtime.protocol import Flavor
            protocol = compile_mini(opt_level)
            protocol.flavor = (Flavor.TEAPOT if flavor_name == "teapot"
                               else Flavor.BASELINE)
            ctx = FakeContext(protocol)
            ctx.costs = CostModel()
            interp = HandlerInterpreter(protocol, ctx)
            ctx.deliver(interp, "GET_REQ", src=1)
            return ctx.now

        assert cycles_for(OptLevel.O2, "teapot") > \
            cycles_for(OptLevel.O2, "baseline")

    def test_o0_saves_more_than_o2(self):
        from repro.runtime.context import CostModel

        def alloc_cost(opt_level):
            protocol = compile_mini(opt_level)
            ctx = FakeContext(protocol)
            ctx.costs = CostModel()
            interp = HandlerInterpreter(protocol, ctx)
            ctx.deliver(interp, "GET_REQ", src=1)   # grant (no suspend)
            before = ctx.now
            ctx.deliver(interp, "GET_REQ", src=2)   # recall: suspends
            return ctx.now - before

        assert alloc_cost(OptLevel.O0) > alloc_cost(OptLevel.O2)


class TestSupportConstants:
    SOURCE = """
Module Tuning
Begin
  Const Threshold : INT;
End;

Protocol P
Begin
  Var count : INT;
  State S {};
  Message M;
End;

State P.S{}
Begin
  Message M (id : ID; Var info : INFO; src : NODE)
  Begin
    count := Threshold + 1;
  End;
End;
"""

    def _protocol(self):
        return compile_source(self.SOURCE, initial_states=("S", "S"))

    def test_module_constant_resolves_from_registry(self):
        protocol = self._protocol()
        ctx = FakeContext(protocol, state=("S", ()))
        ctx.support["Threshold"] = 41
        interp = HandlerInterpreter(protocol, ctx)
        ctx.deliver(interp, "M")
        assert ctx.info["count"] == 42

    def test_generated_python_agrees(self):
        from repro.runtime import CompiledEngine
        protocol = self._protocol()
        ctx = FakeContext(protocol, state=("S", ()))
        ctx.support["Threshold"] = 41
        runner = CompiledEngine(protocol, ctx)
        ctx.deliver(runner, "M")
        assert ctx.info["count"] == 42

    def test_missing_constant_is_an_error(self):
        protocol = self._protocol()
        ctx = FakeContext(protocol, state=("S", ()))
        interp = HandlerInterpreter(protocol, ctx)
        with pytest.raises(RuntimeProtocolError, match="Threshold"):
            ctx.deliver(interp, "M")

    def test_machine_support_registry_carries_constants(self):
        from repro.tempest.machine import Machine, MachineConfig
        protocol = self._protocol()
        # Deliver M directly through a node's protocol engine; the
        # registry value must reach the handler via support_const.
        machine = Machine(protocol, [[], []],
                          MachineConfig(n_nodes=2, n_blocks=1),
                          support={"Threshold": 99})
        machine.run()
        node = machine.nodes[0]
        from repro.runtime.context import Message
        node.handle_message(Message("M", 0, src=1, dst=0), 0)
        assert node.store.record(0).info["count"] == 100
