"""Tests for the model checker (Section 7)."""

import pytest

from repro.compiler.pipeline import compile_source
from repro.protocols import compile_named_protocol, load_protocol_source
from repro.verify import ModelChecker, events_for_protocol
from repro.verify.events import (
    BufferedWriteEvents,
    CasEvents,
    GenChoice,
    LcmEvents,
    StacheEvents,
)
from repro.verify.invariants import (
    bounded_queues,
    no_parked_continuation_leak,
    single_writer,
    standard_invariants,
)
from repro.verify.model import initial_global_state

from helpers import MINI_SOURCE, check_setup, compile_mini
from reference_checker import MutableState


def check(name, n_nodes=2, n_blocks=1, reorder=0, **kwargs):
    checker = ModelChecker(
        compile_named_protocol(name), n_nodes=n_nodes, n_blocks=n_blocks,
        reorder_bound=reorder, **check_setup(name), **kwargs)
    return checker.run()


class TestPassingProtocols:
    @pytest.mark.parametrize("name", [
        "stache", "stache_sm", "stache_cas", "stache_cas_sm",
        "buffered_write", "lcm", "lcm_sm", "lcm_update", "lcm_mcc",
        "lcm_both",
    ])
    def test_fifo_two_nodes(self, name):
        result = check(name, reorder=0)
        assert result.ok, result.violation and result.violation.format_trace()
        assert result.states_explored > 10
        assert not result.hit_state_limit

    @pytest.mark.parametrize("name", ["stache", "lcm", "stache_cas"])
    def test_with_reordering(self, name):
        result = check(name, reorder=1)
        assert result.ok, result.violation and result.violation.format_trace()

    def test_mini_protocol(self):
        result = ModelChecker(compile_mini(), n_nodes=2, n_blocks=1,
                              events=StacheEvents()).run()
        assert result.ok

    def test_more_nodes_grow_the_space(self):
        small = check("stache", n_nodes=2)
        large = check("stache", n_nodes=3)
        assert large.states_explored > 3 * small.states_explored

    def test_reordering_grows_the_space(self):
        """Table 3's footnote: 'Out-of-order messages increase the
        number of states that Mur-phi has to explore.'"""
        fifo = check("stache", reorder=0)
        reordered = check("stache", reorder=1)
        assert reordered.states_explored > fifo.states_explored

    def test_lcm_explodes_relative_to_stache(self):
        """Section 7: 'Mur-phi simulating LCM had hundreds of times as
        many configurations as when simulating Stache' -- directionally:
        LCM's space is much larger."""
        stache = check("stache", reorder=0)
        lcm = check("lcm", reorder=0)
        assert lcm.states_explored > 3 * stache.states_explored


class TestViolationDetection:
    def test_missing_ack_wait_found(self):
        source = load_protocol_source("stache").replace(
            "While (pendingInv > 0) Do", "While (pendingInv > 1) Do", 1)
        protocol = compile_source(
            source, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=3, n_blocks=1,
                              events=StacheEvents()).run()
        assert not result.ok
        assert result.violation.kind in ("invariant", "error")
        assert len(result.violation.trace) > 2

    def test_forgotten_access_change_found(self):
        # Granting read access without recording the sharer: the next
        # write misses the invalidation.
        source = load_protocol_source("stache").replace(
            """  Message GET_RO_REQ (id : ID; Var info : INFO; src : NODE)
  Begin
    AddSharer(info, src);
    SendBlk(src, GET_RO_RESP, id);
    AccessChange(id, Blk_Downgrade_RO);
    SetState(info, Home_RS{});
  End;""",
            """  Message GET_RO_REQ (id : ID; Var info : INFO; src : NODE)
  Begin
    SendBlk(src, GET_RO_RESP, id);
    AccessChange(id, Blk_Downgrade_RO);
    SetState(info, Home_RS{});
  End;""", 1)
        protocol = compile_source(
            source, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=2, n_blocks=1,
                              events=StacheEvents()).run()
        assert not result.ok

    def test_error_handler_reported_with_trace(self):
        # Make a cache state reject a message it must handle.
        source = load_protocol_source("stache").replace(
            """  Message INV_REQ (id : ID; Var info : INFO; src : NODE)
  Begin
    AccessChange(id, Blk_Invalidate);
    Send(HomeNode(id), INV_ACK, id);
    SetState(info, Cache_Invalid{});
  End;""",
            "", 1)
        protocol = compile_source(
            source, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=2, n_blocks=1,
                              events=StacheEvents()).run()
        assert not result.ok
        assert result.violation.kind == "error"
        assert "INV_REQ" in result.violation.message
        text = result.violation.format_trace()
        assert "trace:" in text
        # The trace replays from the initial state.
        assert "1." in text

    def test_deadlock_detected(self):
        # Drop the WakeUp after read misses on BOTH sides: once every
        # node has read-faulted, no thread can ever be restarted and no
        # message is in flight -- a true global deadlock.
        source = MINI_SOURCE.replace(
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
    WakeUp(id);
  End;""",
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
  End;""", 1)
        source = source.replace(
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    If (owner != Nobody) Then
      Send(owner, PUT_REQ, id);
      Suspend(L, Home_Wait{L});
      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
    WakeUp(id);
  End;""",
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    If (owner != Nobody) Then
      Send(owner, PUT_REQ, id);
      Suspend(L, Home_Wait{L});
      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
  End;""", 1)
        protocol = compile_source(
            source, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=2, n_blocks=1,
                              events=StacheEvents()).run()
        assert not result.ok
        assert result.violation.kind == "deadlock"
        assert "blocked" in result.violation.message

    def test_state_limit_reported(self):
        result = check("stache", max_states=20)
        assert result.hit_state_limit
        assert result.ok  # truncated, not failed
        assert "state limit" in result.summary()


class TestEventGenerators:
    def test_stache_events_stateless(self):
        events = StacheEvents()
        choices = events.choices((), 0, 2)
        assert len(choices) == 4  # read/write x 2 blocks
        assert all(isinstance(c, GenChoice) for c in choices)

    def test_cas_events_add_cas(self):
        choices = CasEvents().choices((), 1, 1)
        ops = {c.op[0] for c in choices}
        assert ops == {"read", "write", "event"}

    def test_buffered_events_add_sync(self):
        tags = {
            c.op[1] for c in BufferedWriteEvents().choices((), 0, 1)
            if c.op[0] == "event"
        }
        assert tags == {"SYNC_FAULT"}

    def test_lcm_phase_discipline(self):
        events = LcmEvents()
        out = events.choices(events.initial(0), 0, 1)
        tags = {c.op[1] for c in out if c.op[0] == "event"}
        assert tags == {"ENTER_LCM_FAULT"}
        entered = next(c.new_gen for c in out if c.op[0] == "event")
        in_phase = events.choices(entered, 0, 1)
        tags = {c.op[1] for c in in_phase if c.op[0] == "event"}
        assert tags == {"EXIT_LCM_FAULT"}

    def test_events_for_protocol_mapping(self):
        assert isinstance(events_for_protocol("lcm_both"), LcmEvents)
        assert isinstance(events_for_protocol("stache_cas_sm"), CasEvents)
        assert isinstance(events_for_protocol("buffered_write"),
                          BufferedWriteEvents)
        assert isinstance(events_for_protocol("stache"), StacheEvents)


class TestGlobalState:
    def _initial(self):
        protocol = compile_mini()
        return protocol, initial_global_state(protocol, 2, 1, lambda n: ())

    def test_initial_state_shape(self):
        protocol, state = self._initial()
        assert state.blocks[0][0].state_name == "Home_Idle"
        assert state.blocks[1][0].state_name == "Cache_Invalid"
        assert state.messages_in_flight() == 0

    def test_freeze_round_trip(self):
        protocol, state = self._initial()
        mutable = MutableState(state, 2, 1)
        assert mutable.freeze() == state

    def test_mutation_produces_different_state(self):
        protocol, state = self._initial()
        mutable = MutableState(state, 2, 1)
        mutable.record(1, 0)["state_name"] = "Cache_Holding"
        frozen = mutable.freeze()
        assert frozen != state
        assert hash(frozen) != hash(state) or frozen != state

    def test_summary_mentions_blocks(self):
        _protocol, state = self._initial()
        assert "n0b0:Home_Idle" in state.summary()


class TestInvariants:
    def _state_with_access(self, accesses):
        protocol = compile_mini()
        state = initial_global_state(protocol, len(accesses), 1,
                                     lambda n: ())
        mutable = MutableState(state, len(accesses), 1)
        for node, access in enumerate(accesses):
            mutable.record(node, 0)["access"] = access
        return mutable.freeze(), protocol

    def test_single_writer_accepts_readers(self):
        state, protocol = self._state_with_access(["ro", "ro", "ro"])
        assert single_writer(state, protocol) is None

    def test_single_writer_rejects_two_writers(self):
        state, protocol = self._state_with_access(["rw", "rw"])
        assert "multiple writers" in single_writer(state, protocol)

    def test_single_writer_rejects_writer_plus_reader(self):
        state, protocol = self._state_with_access(["rw", "ro"])
        assert "coexists" in single_writer(state, protocol)

    def test_bounded_queues_triggers(self):
        protocol = compile_mini()
        state = initial_global_state(protocol, 2, 1, lambda n: ())
        mutable = MutableState(state, 2, 1)
        from repro.runtime.context import Message
        mutable.record(0, 0)["queue"] = [
            Message("GET_REQ", 0, 1, 0)] * 20
        assert bounded_queues(16)(mutable.freeze(), protocol) is not None

    def test_continuation_leak_detected(self):
        protocol = compile_mini()
        state = initial_global_state(protocol, 2, 1, lambda n: ())
        mutable = MutableState(state, 2, 1)
        mutable.record(0, 0)["state_args"] = ("oops",)
        message = no_parked_continuation_leak(mutable.freeze(), protocol)
        assert message is not None and "Home_Idle" in message

    def test_standard_suite_composition(self):
        assert len(standard_invariants(coherent=True)) == 4
        assert len(standard_invariants(coherent=False)) == 3


class TestDeterminism:
    def test_runs_are_reproducible(self):
        a = check("stache", reorder=1)
        b = check("stache", reorder=1)
        assert (a.states_explored, a.transitions, a.max_depth) == \
            (b.states_explored, b.transitions, b.max_depth)


class TestProgressChecking:
    """The liveness extension: every blocked thread can reach a wake-up."""

    def test_healthy_protocols_pass_progress(self):
        for name in ("stache", "stache_nack", "dash"):
            result = check(name, reorder=1, liveness=True)
            assert result.ok, (name, result.violation)

    def test_lost_retry_is_starvation_not_deadlock(self):
        source = load_protocol_source("stache_nack")
        retry = """  Message NACK_RO (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_RO_REQ, id);   -- retry
  End;"""
        assert retry in source
        broken = compile_source(
            source.replace(retry, """  Message NACK_RO (id : ID; Var info : INFO; src : NODE)
  Begin
  End;""", 1),
            initial_states=("Home_Idle", "Cache_Invalid"))
        # Without progress checking the safety checks all pass...
        safety_only = ModelChecker(broken, n_nodes=3, n_blocks=1,
                                   events=StacheEvents()).run()
        assert safety_only.ok
        # ...but the thread is silently lost, which progress catches.
        progress = ModelChecker(broken, n_nodes=3, n_blocks=1,
                                events=StacheEvents(),
                                liveness=True).run()
        assert not progress.ok
        assert progress.violation.kind == "starvation"
        assert "ever wakes" in progress.violation.message
        assert "<thread lost>" in progress.violation.trace

    def test_progress_does_not_change_safety_results(self):
        plain = check("stache", reorder=1)
        with_progress = check("stache", reorder=1, liveness=True)
        assert plain.states_explored == with_progress.states_explored
        assert plain.ok and with_progress.ok


class TestNackProtocol:
    def test_nack_protocol_verifies(self):
        for reorder in (0, 1):
            result = check("stache_nack", reorder=reorder)
            assert result.ok, result.violation

    def test_nacks_replace_queueing_in_transients(self):
        protocol = compile_named_protocol("stache_nack")
        await_put = protocol.states["Home_Await_Put"]
        # Requests have dedicated nack handlers there.
        assert "GET_RO_REQ" in await_put.handlers
        assert "GET_RW_REQ" in await_put.handlers
        assert "UPGRADE_REQ" in await_put.handlers

    def test_nack_simulation_matches_queueing_outcomes(self):
        from repro.tempest.machine import Machine, MachineConfig
        from helpers import random_sharing_programs

        def final_values(name, seed):
            programs = random_sharing_programs(3, 2, 10, seed=seed,
                                               log_reads=True)
            protocol = compile_named_protocol(name)
            machine = Machine(protocol, programs,
                              MachineConfig(n_nodes=3, n_blocks=2))
            machine.run()
            machine.assert_quiescent()
            machine.assert_coherent()
            return machine

        for seed in (3, 4):
            final_values("stache_nack", seed)
