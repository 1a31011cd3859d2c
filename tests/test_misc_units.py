"""Assorted unit tests: messages, counters, stats, traces, emitters."""

import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

import pytest

from repro.runtime.context import CostModel, Message, RuntimeCounters, \
    ZERO_COSTS
from repro.tempest.stats import MachineStats, NodeStats
from repro.verify.checker import CheckResult, Violation

from helpers import compile_mini


class TestMessage:
    def test_repr_control(self):
        message = Message("GET_REQ", 3, src=1, dst=0)
        text = repr(message)
        assert "GET_REQ" in text and "blk=3" in text and "1->0" in text

    def test_repr_payload_and_data(self):
        message = Message("M", 0, 0, 1, payload=(7,), data=(1, 2))
        text = repr(message)
        assert "payload=(7,)" in text
        assert "+data" in text

    def test_frozen_and_hashable(self):
        message = Message("M", 0, 0, 1)
        assert {message: 1}[Message("M", 0, 0, 1)] == 1
        with pytest.raises(Exception):
            message.tag = "N"

    def test_hand_written_constructor_keeps_the_dataclass_contract(self):
        message = Message("M", 4, src=1, dst=2, payload=(7,), data=(1, 2),
                          seq=9)
        assert message == Message("M", 4, 1, 2, (7,), (1, 2), 9)
        assert hash(message) == hash(Message("M", 4, 1, 2, (7,), (1, 2), 9))
        assert message != Message("M", 4, 1, 2, (7,), (1, 2), 10)
        assert (message.payload, message.data, message.seq) == (
            (7,), (1, 2), 9)
        plain = Message("M", 4, src=1, dst=2)
        assert (plain.payload, plain.data, plain.seq) == ((), None, None)
        for name in ("tag", "block", "src", "dst", "payload", "data", "seq"):
            with pytest.raises(FrozenInstanceError):
                setattr(message, name, None)
        with pytest.raises(FrozenInstanceError):
            del message.tag
        with pytest.raises(TypeError):
            Message("M", 4, 1)              # dst is required

    def test_pickles_its_declared_fields_only(self):
        message = Message("M", 4, src=1, dst=2, payload=(7,))
        hash(message)                       # caches _hash in __dict__
        assert list(message.__getstate__()) == [
            "tag", "block", "src", "dst", "payload", "data", "seq"]
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message and "_hash" not in vars(copy)
        assert repr(copy) == repr(message) == "<msg M blk=4 1->2 payload=(7,)>"

    def test_instances_are_no_larger_than_the_generated_constructors(self):
        """The constructor must leave ``__dict__`` key-sharing: one that
        fills it with ``update`` doubles every message in flight."""
        @dataclass(frozen=True)
        class Generated:
            tag: str
            block: int
            src: int
            dst: int
            payload: tuple = ()
            data: Optional[tuple] = None
            seq: Optional[int] = None

        def bytes_each(cls, count=2000):
            # Both types' shared keys include the cached hash, whatever
            # ran before this test.
            object.__setattr__(cls("M", 0, 1, 2), "_hash", 0)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                keep = [cls("M", 0, 1, 2) for _ in range(count)]
                used = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(keep) == count
            return used / count

        assert bytes_each(Message) <= bytes_each(Generated)


class TestCounters:
    def test_merge_sums_fields(self):
        a = RuntimeCounters(cont_allocs=2, messages_sent=5)
        b = RuntimeCounters(cont_allocs=3, queue_allocs=1)
        a.merge(b)
        assert a.cont_allocs == 5
        assert a.messages_sent == 5
        assert a.queue_allocs == 1

    def test_alloc_records_combines_cont_and_queue(self):
        counters = RuntimeCounters(cont_allocs=4, queue_allocs=6)
        assert counters.alloc_records == 10

    def test_zero_costs_is_all_zero(self):
        assert all(
            getattr(ZERO_COSTS, field) == 0
            for field in CostModel.__dataclass_fields__
        )

    def test_default_costs_are_positive(self):
        costs = CostModel()
        assert costs.dispatch > 0
        assert costs.cont_alloc > costs.cont_free
        assert costs.resume > costs.resume_direct


class TestMachineStats:
    def test_aggregation(self):
        stats = MachineStats(nodes=[NodeStats(0), NodeStats(1)])
        stats.nodes[0].counters.messages_sent = 3
        stats.nodes[1].counters.messages_sent = 4
        stats.nodes[0].fault_wait_cycles = 50
        stats.execution_cycles = 100
        assert stats.counters.messages_sent == 7
        assert stats.fault_time_fraction == pytest.approx(0.25)

    def test_empty_machine(self):
        stats = MachineStats()
        assert stats.fault_time_fraction == 0.0
        assert stats.alloc_records == 0

    def test_summary_fields(self):
        stats = MachineStats(nodes=[NodeStats(0)])
        stats.execution_cycles = 42
        text = stats.summary()
        assert "cycles=42" in text
        assert "fault_time=" in text


class TestViolationFormatting:
    def test_trace_numbering(self):
        violation = Violation("error", "boom", ["step one", "step two"])
        text = violation.format_trace()
        assert "ERROR: boom" in text
        assert "  1. step one" in text
        assert "  2. step two" in text

    def test_result_summary_flags(self):
        result = CheckResult("P", ok=True, states_explored=10,
                             transitions=20, max_depth=3,
                             elapsed_seconds=0.5, hit_state_limit=True)
        text = result.summary()
        assert "PASS" in text and "state limit" in text


class TestMurphiEmitterDetails:
    def test_while_loops_emitted(self):
        from repro.backends import emit_murphi
        from repro.protocols import compile_named_protocol
        text = emit_murphi(compile_named_protocol("stache"))
        assert "while (!Fn_IsEmptySharers(" in text

    def test_reserved_locals_renamed(self):
        from repro.backends import emit_murphi
        from repro.protocols import compile_named_protocol
        text = emit_murphi(compile_named_protocol("stache"))
        # The sharer-loop local `n` is renamed, never shadowing the
        # NodeId parameter.
        assert "loc_n := Fn_PopSharer(" in text
        assert "\n  n : Word;" not in text

    def test_dispatch_covers_every_state(self):
        from repro.backends import emit_murphi
        from repro.protocols import compile_named_protocol
        protocol = compile_named_protocol("lcm")
        text = emit_murphi(protocol)
        dispatch = text[text.index("Procedure Dispatch("):]
        dispatch = dispatch[:dispatch.index("\nEnd;")]
        for state in protocol.states:
            assert f"case S_{state}:" in dispatch


class TestPythonBackendOptLevels:
    @pytest.mark.parametrize("level_name", ["O0", "O1", "O2"])
    def test_generated_matches_interpreter_at_every_level(self, level_name):
        from repro.backends import CompiledEngine
        from repro.runtime.exec import HandlerInterpreter
        from repro.runtime.protocol import OptLevel
        from helpers import FakeContext

        protocol = compile_mini(OptLevel[level_name])

        def drive(factory):
            ctx = FakeContext(protocol)
            engine = factory(protocol, ctx)
            ctx.deliver(engine, "GET_REQ", src=1)
            ctx.deliver(engine, "GET_REQ", src=2)
            ctx.deliver(engine, "PUT_RESP", src=1, data=(9, 9, 9, 9))
            return ctx.state, dict(ctx.info), ctx.sent, \
                ctx.counters.cont_allocs, ctx.counters.static_cont_uses

        assert drive(HandlerInterpreter) == drive(CompiledEngine)


class TestSourceLocationFormatting:
    def test_error_with_context_caret(self):
        from repro.lang.errors import CheckError, SourceLocation, \
            format_error_with_context
        source = "line one\nbad token here\n"
        error = CheckError("unexpected thing",
                           SourceLocation(2, 5, "x.tea"))
        text = format_error_with_context(error, source)
        assert "x.tea:2:5" in text
        assert "bad token here" in text
        assert text.splitlines()[-1].strip() == "^"

    def test_error_without_location(self):
        from repro.lang.errors import CheckError, format_error_with_context
        error = CheckError("plain")
        assert format_error_with_context(error, "src") == "plain"
