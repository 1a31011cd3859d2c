"""Tests for the eviction variant (the Section 2 PutNoData scenario)."""

import pytest

from repro.protocols import compile_named_protocol
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.memory import AccessTag
from repro.tempest.network import NetworkConfig
from repro.verify import EvictEvents, ModelChecker


def run(programs, n_blocks=1, network=None):
    protocol = compile_named_protocol("stache_evict")
    config = MachineConfig(n_nodes=len(programs), n_blocks=n_blocks)
    if network is not None:
        config.network = network
    machine = Machine(protocol, programs, config)
    machine.run()
    machine.assert_quiescent()
    return machine


class TestEviction:
    def test_ro_eviction_returns_block_to_home(self):
        programs = [
            [("barrier",), ("barrier",)],
            [("read", 0), ("barrier",),
             ("event", "EVICT_FAULT", 0), ("barrier",)],
        ]
        machine = run(programs)
        home = machine.nodes[0].store.record(0)
        assert home.state_name == "Home_Idle"
        assert home.access is AccessTag.READ_WRITE
        assert machine.nodes[1].store.record(0).access is AccessTag.INVALID

    def test_dirty_eviction_carries_data_home(self):
        programs = [
            [("barrier",), ("read", 0, "log")],
            [("write", 0, 123), ("event", "EVICT_FAULT", 0), ("barrier",)],
        ]
        machine = run(programs)
        assert machine.nodes[0].observed == [(0, 123)]
        assert machine.nodes[0].store.record(0).state_name == "Home_Idle"

    def test_evict_then_reread(self):
        """The Section 2 sequence: return the copy, then re-request it."""
        programs = [
            [("write", 0, 9), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0),
             ("event", "EVICT_FAULT", 0),
             ("read", 0, "log"), ("barrier",)],
        ]
        machine = run(programs)
        assert machine.nodes[1].observed == [(0, 9)]
        home = machine.nodes[0].store.record(0)
        assert home.info["sharers"] == frozenset({1})

    def test_eviction_of_uncached_block_is_noop(self):
        programs = [
            [("barrier",)],
            [("event", "EVICT_FAULT", 0), ("barrier",)],
        ]
        machine = run(programs)
        assert machine.nodes[1].store.record(0).state_name == \
            "Cache_Invalid"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_evictions_under_jitter(self, seed):
        import random
        rng = random.Random(seed)
        programs = []
        for _node in range(3):
            program = []
            for _ in range(10):
                block = rng.randrange(2)
                roll = rng.random()
                if roll < 0.3:
                    program.append(("write", block, rng.randrange(50)))
                elif roll < 0.75:
                    program.append(("read", block))
                else:
                    program.append(("event", "EVICT_FAULT", block))
                program.append(("compute", rng.randrange(60)))
            program.append(("barrier",))
            programs.append(program)
        network = NetworkConfig(latency=70, jitter=280,
                                seed=seed)
        machine = run(programs, n_blocks=2, network=network)
        machine.assert_coherent()


class TestEvictionVerification:
    @pytest.mark.parametrize("nodes,addrs,reorder", [
        (2, 1, 0), (2, 1, 1), (3, 1, 0), (2, 2, 1), (2, 1, 2),
    ])
    def test_model_checks_clean(self, nodes, addrs, reorder):
        protocol = compile_named_protocol("stache_evict")
        result = ModelChecker(protocol, n_nodes=nodes, n_blocks=addrs,
                              reorder_bound=reorder,
                              events=EvictEvents(),
                              liveness=(nodes == 2)).run()
        assert result.ok, result.violation and result.violation.format_trace()

    def test_gratuitous_request_queueing_is_load_bearing(self):
        """Remove the Section 2 retained-request discipline and the
        checker immediately shows the gratuitous request failing."""
        from repro.compiler.pipeline import compile_source
        from repro.protocols import load_protocol_source

        source = load_protocol_source("stache_evict")
        marker = """    If (HasSharer(info, src)) Then
      -- Section 2's "seemingly gratuitous ReadRequest": the sender
      -- evicted its copy and re-requested, and this request overtook
      -- its PUT_NO_DATA.  It "must be retained and processed after the
      -- PutNoData message" -- so queue it.
      Enqueue(MessageTag, id, info, src);
    Else
      AddSharer(info, src);
      SendBlk(src, GET_RO_RESP, id);
    Endif;"""
        assert marker in source
        broken = source.replace(marker, """    If (HasSharer(info, src)) Then
      Error("gratuitous ReadRequest from a current sharer");
    Else
      AddSharer(info, src);
      SendBlk(src, GET_RO_RESP, id);
    Endif;""", 1)
        # Re-open the overtaking window: un-acknowledge the RO eviction.
        sync = """    Send(HomeNode(id), PUT_NO_DATA, id);
    AccessChange(id, Blk_Invalidate);
    Suspend(L, Cache_Await_EvictAck{L});
    SetState(info, Cache_Invalid{});
    WakeUp(id);"""
        assert sync in broken
        broken = broken.replace(sync, """    Send(HomeNode(id), PUT_NO_DATA, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Invalid{});
    WakeUp(id);""", 1)
        protocol = compile_source(
            broken, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=2, n_blocks=1,
                              reorder_bound=1, events=EvictEvents()).run()
        assert not result.ok
        assert "gratuitous" in result.violation.message
