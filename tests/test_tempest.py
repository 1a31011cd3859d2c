"""Unit tests for the Tempest substrate: memory, network, machine."""

import sys

import pytest

from repro.compiler.pipeline import compile_source
from repro.lang.errors import RuntimeProtocolError
from repro.protocols import compile_named_protocol
from repro.runtime.context import Message, home_node
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.memory import (
    ACCESS_CHANGE_RESULT,
    AccessTag,
    fault_event_for,
)
from repro.tempest.network import Network, NetworkConfig
from repro.verify.checker import ModelChecker
from repro.verify.fingerprint import SymmetryCanonicalizer
from repro.workloads import gauss_programs

from helpers import MINI_SOURCE, compile_mini, random_sharing_programs


class TestAccessControl:
    @pytest.mark.parametrize("tag,is_write,expected", [
        (AccessTag.INVALID, False, "RD_FAULT"),
        (AccessTag.INVALID, True, "WR_FAULT"),
        (AccessTag.READ_ONLY, False, None),
        (AccessTag.READ_ONLY, True, "WR_RO_FAULT"),
        (AccessTag.READ_WRITE, False, None),
        (AccessTag.READ_WRITE, True, None),
    ])
    def test_fault_matrix(self, tag, is_write, expected):
        assert fault_event_for(tag, is_write) == expected

    def test_access_change_table_complete(self):
        assert set(ACCESS_CHANGE_RESULT) == {
            "Blk_Invalidate", "Blk_Upgrade_RO", "Blk_Upgrade_RW",
            "Blk_Downgrade_RO",
        }


class TestNetwork:
    def _msg(self, src=0, dst=1):
        return Message("PING", 0, src=src, dst=dst)

    def test_constant_latency(self):
        network = Network(NetworkConfig(latency=100, jitter=0))
        assert network.arrival_time(self._msg(), 50) == 150

    def test_fifo_clamping(self):
        network = Network(NetworkConfig(latency=100, jitter=0))
        first = network.arrival_time(self._msg(), 0)
        # A message sent later but that would arrive at the same time is
        # pushed behind the first.
        second = network.arrival_time(self._msg(), 0)
        assert second > first

    def test_fifo_is_per_channel(self):
        network = Network(NetworkConfig(latency=100, jitter=0))
        a = network.arrival_time(self._msg(0, 1), 0)
        b = network.arrival_time(self._msg(0, 2), 0)
        assert a == b  # different channels do not clamp each other

    def test_jitter_is_deterministic_per_seed(self):
        def arrivals(seed):
            network = Network(NetworkConfig(latency=10, jitter=50, seed=seed))
            return [network.arrival_time(self._msg(), t)
                    for t in range(10)]

        assert arrivals(1) == arrivals(1)
        assert arrivals(1) != arrivals(2)

    def test_jitter_can_reorder_without_fifo(self):
        network = Network(NetworkConfig(latency=10, jitter=200, seed=3))
        times = [network.arrival_time(self._msg(), t) for t in range(20)]
        assert any(b < a for a, b in zip(times, times[1:]))

    def test_message_count(self):
        network = Network(NetworkConfig())
        network.arrival_time(self._msg(), 0)
        network.arrival_time(self._msg(), 1)
        assert network.messages_carried == 2

    @pytest.mark.parametrize("config", [
        NetworkConfig(latency=100),
        NetworkConfig(latency=10, jitter=200, seed=3),
    ], ids=["fifo", "jitter"])
    def test_inject_times_messages_as_arrival_time_does(self, config):
        # Without a fault plan the machine computes arrivals inline: it
        # must queue each message where Network.arrival_time puts it.
        machine = Machine(compile_mini(), [[], [], []], MachineConfig(
            n_nodes=3, n_blocks=1, network=config))
        reference = Network(config)
        expected = []
        for send_time in range(0, 40, 3):
            for src in range(3):
                for dst in range(3):
                    message = self._msg(src, dst)
                    machine.inject(message, send_time)
                    expected.append(
                        reference.arrival_time(message, send_time))
        queued = sorted(machine._events, key=lambda event: event[1])
        assert [event[0] for event in queued] == expected
        assert (machine.network.messages_carried
                == reference.messages_carried == len(expected))


class TestMachine:
    def test_simple_token_passing(self):
        protocol = compile_mini()
        programs = [
            [("write", 0, 5), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0, "log"), ("barrier",)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        result = machine.run()
        machine.assert_quiescent()
        assert machine.nodes[1].observed == [(0, 5)]
        assert result.cycles > 0

    def test_wrong_program_count_rejected(self):
        protocol = compile_mini()
        with pytest.raises(ValueError, match="programs"):
            Machine(protocol, [[]], MachineConfig(n_nodes=2))

    def test_home_striping(self):
        protocol = compile_mini()
        machine = Machine(protocol, [[], [], []],
                          MachineConfig(n_nodes=3, n_blocks=6))
        assert machine.home_of(0) == 0
        assert machine.home_of(4) == 1
        assert machine.home_of(5) == 2

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5])
    def test_simulator_and_checker_share_the_home_rule(self, n_nodes):
        # The verified protocol is the executed one only if both engines
        # put every block's home on the same node.
        protocol = compile_mini()
        for n_blocks in range(1, 9):
            machine = Machine(protocol, [[]] * n_nodes, MachineConfig(
                n_nodes=n_nodes, n_blocks=n_blocks))
            checker = ModelChecker(protocol, n_nodes=n_nodes,
                                   n_blocks=n_blocks)
            homes = [home_node(block, n_nodes) for block in range(n_blocks)]
            assert [machine.home_of(b) for b in range(n_blocks)] == homes
            ctx = machine.nodes[0].ctx
            assert [ctx.home_node(b) for b in range(n_blocks)] == homes
            assert [checker.home_of(b) for b in range(n_blocks)] == homes
            canon = SymmetryCanonicalizer(protocol, n_nodes, n_blocks)
            assert canon.free_nodes == [
                node for node in range(n_nodes) if node not in homes]

    def test_handler_print_lands_in_printed(self):
        source = MINI_SOURCE.replace(
            "    Send(HomeNode(id), GET_REQ, id);\n",
            '    Print("rd", src);\n    Send(HomeNode(id), GET_REQ, id);\n',
            1)
        protocol = compile_source(
            source, initial_states=("Home_Idle", "Cache_Invalid"))
        machine = Machine(protocol, [[], [("read", 0)]],
                          MachineConfig(n_nodes=2, n_blocks=1))
        cycles = machine.run().cycles
        [(node, at, values)] = machine.printed
        assert (node, values) == (1, ("rd", 1))
        assert 0 < at < cycles

    def test_barriers_synchronise(self):
        protocol = compile_mini()
        programs = [
            [("compute", 10_000), ("barrier",)],
            [("compute", 5), ("barrier",)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        stats = machine.nodes[1].stats
        assert stats.barrier_wait_cycles >= 9_000

    def test_finished_nodes_leave_the_barrier_group(self):
        # Barriers synchronise the *active* nodes: once a node's program
        # ends, later barriers of the others do not wait for it.
        protocol = compile_mini()
        programs = [
            [("barrier",), ("barrier",)],
            [("barrier",)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        assert all(node.finished for node in machine.nodes)

    def test_barrier_group_is_the_unfinished_nodes(self):
        # Node 0 never starts and node 1 ends between the two barriers,
        # so the first barrier gathers three nodes and the second two.
        # Cycle counts as at commit 1b3fb9e, which rebuilt the list of
        # unfinished nodes at every arrival.
        programs = [
            [],
            [("compute", 300), ("barrier",), ("compute", 50)],
            [("compute", 100), ("barrier",), ("compute", 700),
             ("barrier",), ("read", 0)],
            [("compute", 40), ("barrier",), ("compute", 20), ("barrier",)],
        ]
        machine = Machine(compile_mini(), programs,
                          MachineConfig(n_nodes=4, n_blocks=1))
        assert machine.unfinished == 3
        assert machine.run().cycles == 2265
        assert machine.unfinished == 0
        stats = [node.stats for node in machine.nodes]
        assert [s.finish_time for s in stats] == [0, 350, 2265, 1000]
        # Released at 300 (node 1 arrives last), then at 1000 (node 2).
        assert [s.barrier_wait_cycles for s in stats] == [0, 0, 200, 940]

    @pytest.mark.parametrize("hits,finish,release", [(0, 10, 10), (5, 5, 10)])
    def test_a_finish_releases_the_barrier_it_was_awaited_at(
            self, hits, finish, release):
        # Node 0 reaches the barrier after ``hits`` local reads (2 cycles
        # each); node 1 ends its program at ``finish`` instead of
        # arriving.  Node 0 is released at the later of the two.
        programs = [[("read", 0)] * hits + [("barrier",), ("read", 0)],
                    [("compute", finish)]]
        machine = Machine(compile_mini(), programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        assert machine.run().cycles == release + 2
        stats = [node.stats for node in machine.nodes]
        assert [s.finish_time for s in stats] == [release + 2, finish]
        assert [s.barrier_wait_cycles for s in stats] == [
            release - 2 * hits, 0]

    def test_a_lone_unfinished_node_passes_its_barrier_at_once(self):
        machine = Machine(compile_mini(), [[], [("barrier",)], []],
                          MachineConfig(n_nodes=3, n_blocks=1))
        assert machine.run().cycles == 0
        assert machine.nodes[1].stats.barrier_wait_cycles == 0

    def test_event_op_blocks_until_wakeup(self):
        # GET_REQ is not an app event; use read faults instead: node 1
        # reads a block homed at 0, which requires a round trip.
        protocol = compile_mini()
        programs = [
            [],
            [("read", 0)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        stats = machine.nodes[1].stats
        assert stats.faults == 1
        assert stats.fault_wait_cycles > 0

    def test_fault_counts_and_hits(self):
        protocol = compile_mini()
        programs = [
            [],
            [("read", 0), ("read", 0), ("read", 0)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        stats = machine.nodes[1].stats
        assert stats.faults == 1          # only the first read misses
        assert stats.read_hits == 3       # all three complete

    def test_execution_time_is_max_over_nodes(self):
        protocol = compile_mini()
        programs = [[("compute", 123)], [("compute", 55_000)]]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        result = machine.run()
        assert result.cycles >= 55_000

    def test_livelock_guard(self):
        protocol = compile_mini()
        programs = random_sharing_programs(2, 1, 30, seed=5)
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1,
                                        max_events=3))
        with pytest.raises(RuntimeProtocolError, match="events"):
            machine.run()

    def test_data_transfer_carries_values(self):
        protocol = compile_mini()
        programs = [
            [("write", 0, 41), ("barrier",), ("barrier",),
             ("read", 0, "log")],
            [("barrier",), ("write", 0, 42), ("barrier",)],
        ]
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        machine.assert_quiescent()
        assert machine.nodes[0].observed == [(0, 42)]

    def test_assert_quiescent_detects_transient(self):
        protocol = compile_mini()
        machine = Machine(protocol, [[], []],
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        record = machine.nodes[0].store.record(0)
        record.state_name = "Home_Wait"
        with pytest.raises(AssertionError, match="transient"):
            machine.assert_quiescent()

    def test_assert_coherent_detects_two_writers(self):
        protocol = compile_mini()
        machine = Machine(protocol, [[], []],
                          MachineConfig(n_nodes=2, n_blocks=1))
        machine.run()
        machine.nodes[0].store.record(0)  # home record (READ_WRITE)
        machine.nodes[1].store.record(0).access = AccessTag.READ_WRITE
        with pytest.raises(AssertionError, match="writable"):
            machine.assert_coherent()

    def test_stats_aggregation(self):
        protocol = compile_mini()
        programs = random_sharing_programs(3, 2, 10, seed=6)
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=3, n_blocks=2))
        result = machine.run()
        stats = result.stats
        assert len(stats.nodes) == 3
        assert stats.messages == stats.counters.messages_sent
        assert 0.0 <= stats.fault_time_fraction <= 1.0
        assert "cycles=" in stats.summary()

    def test_deterministic_given_seed(self):
        def run_once():
            protocol = compile_mini()
            programs = random_sharing_programs(3, 2, 20, seed=7)
            machine = Machine(protocol, programs,
                              MachineConfig(n_nodes=3, n_blocks=2))
            return machine.run().cycles

        assert run_once() == run_once()


class TestSimulatedDataPresence:
    """The simulator's own data-presence rule: a cache gains a block's
    data only by RecvData, so an AccessChange that upgrades an invalid
    block fails the run -- unless the registry relaxes coherence."""

    RUNS = [(seed, jitter) for seed in range(4) for jitter in (0, 50)]

    @staticmethod
    def simulate(target, seed, jitter):
        from repro import api
        from repro.api import SimOptions
        from repro.workloads.table1 import mp3d_programs

        return api.simulate(target, programs=mp3d_programs(
            n_nodes=4, seed=seed), options=SimOptions(nodes=4, jitter=jitter))

    @pytest.mark.parametrize("seed,jitter", RUNS)
    def test_stache_upgrade_of_a_forgotten_sharer_fails(self, seed, jitter):
        # stache.tea:140, as the checker's TestDataPresence plants it:
        # the home grants write access to a cache it has invalidated.
        from repro.protocols import load_protocol_source

        source = load_protocol_source("stache")
        mutant = source.replace("      DelSharer(info, src);\n", "", 1)
        assert mutant != source
        with pytest.raises(RuntimeProtocolError, match=(
                r"AccessChange\(Blk_Upgrade_RW\) on block \d+ without data")):
            self.simulate(mutant, seed, jitter)

    @pytest.mark.parametrize("name", ["stache", "stache_sm", "stache_cas",
                                      "stache_evict", "stache_nack", "dash",
                                      "buffered_write"])
    def test_registered_protocols_keep_their_data(self, name):
        for seed, jitter in self.RUNS:
            assert self.simulate(name, seed, jitter).cycles > 0

    def test_buffered_write_is_exempt_by_its_registry_entry(self, monkeypatch):
        # Its buffered write takes access without a fetch: with the rule
        # forced on, the same run fails.
        from repro.tempest import node

        init = node.NodeContext.__init__

        def presence_on(ctx, owner):
            init(ctx, owner)
            ctx.data_presence = True

        monkeypatch.setattr(node.NodeContext, "__init__", presence_on)
        with pytest.raises(RuntimeProtocolError, match="without data"):
            self.simulate("buffered_write", 0, 0)


class TestPerMessagePath:
    # Python frames entered, counted by sys.setprofile, over a small
    # Table-1 gauss run once handlers read and write the block's info
    # dict directly: 1,843 calls for 132 handler dispatches, 114
    # protocol actions and 76 sends (1,909 while every info-field access
    # was a context call).  A frame added back per dispatch or per
    # action passes the 5 % allowed; one per send alone stays inside it.
    CALLS, DISPATCHES = 1843, 132

    def test_calls_per_dispatch_do_not_creep(self):
        protocol = compile_named_protocol("stache")
        programs = gauss_programs(n_nodes=8, iterations=4, seed=11)
        # The first run compiles the handlers the counted run executes.
        Machine(protocol, programs, MachineConfig(n_nodes=8)).run()
        machine = Machine(protocol, programs, MachineConfig(n_nodes=8))
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            result = machine.run()
        finally:
            sys.setprofile(None)
        dispatches = result.stats.counters.handler_dispatches
        assert dispatches == self.DISPATCHES
        assert calls / dispatches <= 1.05 * self.CALLS / self.DISPATCHES
