"""Tests for the DASH-style protocol (Section 3's nested-suspend example)."""

import pytest

from repro.protocols import compile_named_protocol
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.memory import AccessTag
from repro.tempest.network import NetworkConfig
from repro.verify import ModelChecker, events_for_protocol


def run(programs, n_blocks=1, network=None):
    protocol = compile_named_protocol("dash")
    config = MachineConfig(n_nodes=len(programs), n_blocks=n_blocks)
    if network is not None:
        config.network = network
    machine = Machine(protocol, programs, config)
    result = machine.run()
    machine.assert_quiescent()
    return machine, result


class TestNestedSuspension:
    def test_write_miss_handler_has_nested_suspends(self):
        """The paper's Section 3 point: 'a subroutine called from a
        suspend can itself invoke another Suspend' -- the DASH write
        fault waits for the grant, then repeatedly for acks."""
        protocol = compile_named_protocol("dash")
        handler = protocol.handlers[("Cache_Invalid", "WR_FAULT")]
        assert len(handler.suspend_sites) == 2
        targets = [site.target.name for site in handler.suspend_sites]
        assert targets == ["Cache_Await_Grant", "Cache_Await_Acks"]

    def test_await_acks_is_shared(self):
        """One ack-collection subroutine state serves remote writers,
        upgraders, and the home's own writes."""
        protocol = compile_named_protocol("dash")
        users = {
            handler.qualified_name
            for handler in protocol.handlers.values()
            for site in handler.suspend_sites
            if site.target.name == "Cache_Await_Acks"
        }
        assert len(users) >= 4

    def test_writer_collects_acks_from_all_readers(self):
        # Three readers share the block; a fourth node writes: the
        # writer must receive three acks before completing.
        n_readers = 3
        programs = [[("barrier",), ("barrier",)]]           # home
        for _ in range(n_readers):
            programs.append([("read", 0), ("barrier",), ("barrier",)])
        programs.append([("barrier",), ("write", 0, 7), ("barrier",)])
        machine, result = run(programs)
        machine.assert_coherent()
        writer = machine.nodes[n_readers + 1]
        assert writer.store.record(0).access is AccessTag.READ_WRITE
        # INV_ACKs flowed to the writer, not the home.
        inv_acks_to_writer = sum(
            1 for node in machine.nodes
            if node.node_id != writer.node_id)
        assert writer.store.record(0).info["ackCount"] == 0
        for reader in machine.nodes[1:n_readers + 1]:
            assert reader.store.record(0).access is AccessTag.INVALID


class TestBehaviour:
    def test_value_propagation(self):
        programs = [
            [("barrier",), ("barrier",), ("read", 0, "log")],
            [("write", 0, 5), ("barrier",), ("barrier",)],
            [("barrier",), ("write", 0, 6), ("barrier",)],
        ]
        machine, _ = run(programs)
        assert machine.nodes[0].observed == [(0, 6)]

    def test_read_sharing(self):
        programs = [
            [("write", 0, 3), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0, "log"), ("barrier",)],
            [("barrier",), ("read", 0, "log"), ("barrier",)],
        ]
        machine, _ = run(programs)
        assert machine.nodes[1].observed == [(0, 3)]
        assert machine.nodes[2].observed == [(0, 3)]
        home = machine.nodes[0].store.record(0)
        assert home.state_name == "Home_RS"

    def test_home_write_collects_acks_itself(self):
        programs = [
            [("barrier",), ("write", 0, 9), ("barrier",)],
            [("read", 0), ("barrier",), ("barrier",), ("read", 0, "log")],
            [("read", 0), ("barrier",), ("barrier",)],
        ]
        machine, _ = run(programs)
        machine.assert_coherent()
        assert machine.nodes[1].observed == [(0, 9)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_correct_under_jitter(self, seed):
        import random
        rng = random.Random(seed)
        programs = []
        for node in range(4):
            program = []
            for _ in range(12):
                block = rng.randrange(2)
                if rng.random() < 0.4:
                    program.append(("write", block, rng.randrange(50)))
                else:
                    program.append(("read", block))
                program.append(("compute", rng.randrange(50)))
            program.append(("barrier",))
            programs.append(program)
        network = NetworkConfig(latency=60, jitter=250,
                                seed=seed)
        machine, _ = run(programs, n_blocks=2, network=network)
        machine.assert_coherent()


class TestVerification:
    @pytest.mark.parametrize("nodes,addrs,reorder", [
        (2, 1, 0), (2, 1, 1), (3, 1, 0), (2, 2, 1),
    ])
    def test_model_checks_clean(self, nodes, addrs, reorder):
        protocol = compile_named_protocol("dash")
        result = ModelChecker(protocol, n_nodes=nodes, n_blocks=addrs,
                              reorder_bound=reorder,
                              events=events_for_protocol("dash")).run()
        assert result.ok, result.violation and result.violation.format_trace()

    def test_overtaken_grant_retry_is_load_bearing(self):
        """Remove the dropped-grant retry and the checker reproduces the
        coherence violation it was added for."""
        from repro.compiler.pipeline import compile_source
        from repro.protocols import load_protocol_source

        source = load_protocol_source("dash")
        marker = """    If (dropped) Then
      -- An invalidation overtook this grant (model-checker finding):
      -- the data may already be stale and the home no longer lists us.
      -- Discard and retry the miss.
      dropped := False;
      Send(HomeNode(id), GET_RO_REQ, id);
    Else
      RecvData(id, Blk_Upgrade_RO);
      SetState(info, Cache_RO{});
      Resume(C);
    Endif;"""
        assert marker in source
        broken = source.replace(marker, """    RecvData(id, Blk_Upgrade_RO);
    SetState(info, Cache_RO{});
    Resume(C);""", 1)
        protocol = compile_source(
            broken, initial_states=("Home_Idle", "Cache_Invalid"))
        result = ModelChecker(protocol, n_nodes=2, n_blocks=1,
                              reorder_bound=1,
                              events=events_for_protocol("dash")).run()
        assert not result.ok
        assert "writer" in result.violation.message
