"""Scenario and property tests for the Stache protocol family."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols import compile_named_protocol
from repro.runtime.protocol import OptLevel
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.memory import AccessTag
from repro.tempest.network import NetworkConfig

from helpers import random_sharing_programs


def race_free_programs(n_nodes, n_blocks, phases, seed, reads_per_phase=2):
    """Deterministic-outcome programs: one writer per block per phase,
    reads strictly after the barrier.  Both protocol styles and all
    optimisation levels must observe identical values."""
    import random
    rng = random.Random(seed)
    programs = [[] for _ in range(n_nodes)]
    for phase in range(phases):
        writers = {block: rng.randrange(n_nodes) for block in range(n_blocks)}
        for node, program in enumerate(programs):
            for block, writer in writers.items():
                if writer == node:
                    program.append(("write", block, phase * 100 + block))
            program.append(("barrier",))
        for node, program in enumerate(programs):
            for _ in range(reads_per_phase):
                program.append(("read", rng.randrange(n_blocks), "log"))
            program.append(("barrier",))
    return programs


def run(protocol_name, programs, n_blocks=1, opt_level=OptLevel.O2,
        network=None, n_nodes=None):
    protocol = compile_named_protocol(protocol_name, opt_level=opt_level)
    config = MachineConfig(
        n_nodes=n_nodes if n_nodes is not None else len(programs),
        n_blocks=n_blocks)
    if network is not None:
        config.network = network
    machine = Machine(protocol, programs, config)
    result = machine.run()
    machine.assert_quiescent()
    return machine, result


class TestReadSharing:
    def test_multiple_readers_share(self):
        programs = [
            [("write", 0, 9), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0, "log"), ("barrier",)],
            [("barrier",), ("read", 0, "log"), ("barrier",)],
        ]
        machine, _ = run("stache", programs)
        assert machine.nodes[1].observed == [(0, 9)]
        assert machine.nodes[2].observed == [(0, 9)]
        # Both caches end up with read-only copies; home downgraded.
        assert machine.nodes[1].store.record(0).access is AccessTag.READ_ONLY
        assert machine.nodes[2].store.record(0).access is AccessTag.READ_ONLY
        assert machine.nodes[0].store.record(0).access is AccessTag.READ_ONLY
        home = machine.nodes[0].store.record(0)
        assert home.state_name == "Home_RS"
        assert home.info["sharers"] == frozenset({1, 2})

    def test_write_invalidates_readers(self):
        programs = [
            [("write", 0, 1), ("barrier",), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0), ("barrier",), ("barrier",)],
            [("barrier",), ("read", 0), ("barrier",),
             ("write", 0, 77), ("barrier",)],
        ]
        machine, _ = run("stache", programs)
        machine.assert_coherent()
        assert machine.nodes[1].store.record(0).access is AccessTag.INVALID
        assert machine.nodes[2].store.record(0).access \
            is AccessTag.READ_WRITE
        home = machine.nodes[0].store.record(0)
        assert home.state_name == "Home_Excl"
        assert home.info["owner"] == 2

    def test_upgrade_keeps_data(self):
        # Reader upgrades to writer without a data transfer.
        programs = [
            [("barrier",), ("barrier",), ("read", 0, "log")],
            [("read", 0), ("barrier",), ("write", 0, 5), ("barrier",)],
        ]
        machine, result = run("stache", programs)
        assert machine.nodes[0].observed == [(0, 5)]
        counters = result.stats.counters
        # The upgrade itself must not carry data (UPGRADE_ACK):
        # data messages are the initial GET_RO grant and the final recall.
        assert counters.data_messages_sent <= 3

    def test_home_write_invalidates_all(self):
        programs = [
            [("barrier",), ("write", 0, 3), ("barrier",)],
            [("read", 0), ("barrier",), ("barrier",), ("read", 0, "log")],
            [("read", 0), ("barrier",), ("barrier",)],
        ]
        machine, _ = run("stache", programs)
        assert machine.nodes[1].observed == [(0, 3)]
        machine.assert_coherent()


class TestWriteOwnership:
    def test_ownership_migrates(self):
        programs = [
            [("barrier",)] * 3,
            [("write", 0, 10), ("barrier",), ("barrier",), ("barrier",)],
            [("barrier",), ("write", 0, 20), ("barrier",), ("barrier",)],
            [("barrier",), ("barrier",), ("read", 0, "log"), ("barrier",)],
        ]
        machine, _ = run("stache", programs)
        assert machine.nodes[3].observed == [(0, 20)]

    def test_home_read_recalls_owner(self):
        programs = [
            [("barrier",), ("read", 0, "log"), ("barrier",)],
            [("write", 0, 30), ("barrier",), ("barrier",)],
        ]
        machine, _ = run("stache", programs)
        assert machine.nodes[0].observed == [(0, 30)]
        assert machine.nodes[0].store.record(0).state_name == "Home_Idle"


class TestBaselineEquivalence:
    """The state-machine Stache must be behaviourally identical on the
    wire to the continuation Stache."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_same_observed_values(self, seed):
        programs = race_free_programs(4, 4, 3, seed=seed)
        outcomes = []
        for name in ("stache", "stache_sm"):
            machine, _ = run(name, [list(p) for p in programs], n_blocks=4)
            machine.assert_coherent()
            observed = tuple(tuple(n.observed) for n in machine.nodes)
            outcomes.append(observed)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_same_message_counts_race_free(self, seed):
        programs = race_free_programs(3, 2, 3, seed=seed)
        counts = []
        for name in ("stache", "stache_sm"):
            _machine, result = run(name, [list(p) for p in programs],
                                   n_blocks=2)
            counts.append(result.stats.counters.messages_sent)
        assert counts[0] == counts[1]

    def test_opt_levels_agree_on_behaviour(self):
        programs = race_free_programs(3, 2, 3, seed=9)
        outcomes = set()
        for level in OptLevel:
            machine, _ = run("stache", [list(p) for p in programs],
                             n_blocks=2, opt_level=level)
            outcomes.add(tuple(tuple(n.observed) for n in machine.nodes))
        assert len(outcomes) == 1


class TestCostShape:
    """The Table 1 relationships between protocol versions."""

    def _cycles(self, name, level, programs, n_blocks):
        _machine, result = run(name, [list(p) for p in programs],
                               n_blocks=n_blocks, opt_level=level)
        return result

    def test_baseline_is_fastest(self):
        programs = random_sharing_programs(4, 4, 30, seed=21)
        base = self._cycles("stache_sm", OptLevel.O2, programs, 4)
        unopt = self._cycles("stache", OptLevel.O1, programs, 4)
        opt = self._cycles("stache", OptLevel.O2, programs, 4)
        assert base.cycles < unopt.cycles
        assert base.cycles < opt.cycles
        # And the overheads are moderate (paper: under ~20%).
        assert unopt.cycles < base.cycles * 1.35
        assert opt.cycles < base.cycles * 1.30

    def test_optimisation_reduces_allocations(self):
        programs = random_sharing_programs(4, 4, 30, seed=22)
        unopt = self._cycles("stache", OptLevel.O1, programs, 4)
        opt = self._cycles("stache", OptLevel.O2, programs, 4)
        assert opt.stats.counters.cont_allocs < \
            unopt.stats.counters.cont_allocs
        assert opt.stats.counters.static_cont_uses > 0
        assert opt.stats.counters.direct_resumes > 0

    def test_baseline_never_allocates_continuations(self):
        programs = random_sharing_programs(3, 2, 20, seed=23)
        result = self._cycles("stache_sm", OptLevel.O2, programs, 2)
        assert result.stats.counters.cont_allocs == 0
        assert result.stats.counters.suspends == 0


class TestReorderingTolerance:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_correct_under_network_jitter(self, seed):
        programs = random_sharing_programs(4, 3, 20, seed=seed,
                                           log_reads=True)
        network = NetworkConfig(latency=80, jitter=300,
                                seed=seed)
        machine, _ = run("stache", programs, n_blocks=3, network=network)
        machine.assert_coherent()

    def test_jitter_behaviour_matches_fifo_outcome_values(self):
        # Values observed may differ in order, but quiescent memory is
        # coherent and every barrier-separated phase sees a single value.
        programs = [
            [("write", 0, 1), ("barrier",), ("read", 0, "log")],
            [("barrier",), ("write", 0, 2), ("barrier",)],
        ]
        network = NetworkConfig(latency=50, jitter=400, seed=5)
        machine, _ = run("stache", programs, network=network)
        assert machine.nodes[0].observed[0][1] in (1, 2)


class TestCompareAndSwap:
    def test_single_cas_succeeds(self):
        programs = [
            [("write", 0, 5), ("barrier",), ("barrier",),
             ("read", 0, "log")],
            [("barrier",), ("event", "CAS_FAULT", 0, (0, 5, 6)),
             ("barrier",)],
        ]
        machine, _ = run("stache_cas", programs)
        assert machine.nodes[0].observed == [(0, 6)]
        assert machine.nodes[1].store.record(0).info["casResult"] is True

    def test_cas_fails_on_mismatch(self):
        programs = [
            [("write", 0, 5), ("barrier",), ("barrier",),
             ("read", 0, "log")],
            [("barrier",), ("event", "CAS_FAULT", 0, (0, 99, 6)),
             ("barrier",)],
        ]
        machine, _ = run("stache_cas", programs)
        assert machine.nodes[0].observed == [(0, 5)]
        assert machine.nodes[1].store.record(0).info["casResult"] is False

    @pytest.mark.parametrize("name", ["stache_cas", "stache_cas_sm"])
    def test_concurrent_cas_is_atomic(self, name):
        n_contenders = 4
        programs = [[("write", 0, 0), ("barrier",), ("barrier",),
                     ("read", 0, "log")]]
        for node in range(1, n_contenders + 1):
            programs.append([
                ("barrier",),
                ("event", "CAS_FAULT", 0, (0, 0, node)),
                ("barrier",),
            ])
        machine, _ = run(name, programs)
        machine.assert_coherent()
        winners = [
            node for node in range(1, n_contenders + 1)
            if machine.nodes[node].store.record(0).info["casResult"]
        ]
        assert len(winners) == 1
        assert machine.nodes[0].observed == [(0, winners[0])]

    def test_cas_on_owned_block(self):
        # The CAS issuer holds the writable copy; home must recall it
        # from the issuer itself (the Cache_Await_CAS PUT_REQ handler).
        programs = [
            [("barrier",), ("barrier",), ("read", 0, "log")],
            [("write", 0, 1), ("barrier",),
             ("event", "CAS_FAULT", 0, (0, 1, 2)), ("barrier",)],
        ]
        machine, _ = run("stache_cas", programs)
        assert machine.nodes[0].observed == [(0, 2)]


class TestBufferedWrite:
    def test_buffered_write_does_not_block(self):
        # A remote write completes long before its ownership round trip.
        slow = NetworkConfig(latency=5_000, jitter=0)
        programs = [
            [("barrier",)],
            [("write", 0, 1), ("compute", 10),
             ("event", "SYNC_FAULT", 0), ("barrier",)],
        ]
        machine, result = run("buffered_write", programs, network=slow)
        writer = machine.nodes[1].stats
        # The write itself completed with only the local fault overhead;
        # the wait happened at the sync point instead.
        assert writer.fault_wait_cycles >= 5_000  # sync waited
        assert result.cycles > 5_000

    def test_blocking_protocol_waits_at_the_write(self):
        slow = NetworkConfig(latency=5_000, jitter=0)
        programs = [
            [("barrier",)],
            [("write", 0, 1), ("compute", 10), ("barrier",)],
        ]
        machine, _ = run("stache", programs, network=slow)
        assert machine.nodes[1].stats.fault_wait_cycles >= 5_000

    def test_sync_propagates_value(self):
        programs = [
            [("barrier",), ("read", 0, "log")],
            [("write", 0, 88), ("event", "SYNC_FAULT", 0), ("barrier",)],
        ]
        machine, _ = run("buffered_write", programs)
        assert machine.nodes[0].observed == [(0, 88)]

    def test_overlap_beats_blocking_on_write_heavy_program(self):
        # Several independent buffered writes overlap their ownership
        # round trips; the blocking protocol pays each in full.
        def writer_program(with_sync):
            program = []
            for block in range(4):
                program.append(("write", block + 4, block))
                program.append(("compute", 50))
            if with_sync:
                for block in range(4):
                    program.append(("event", "SYNC_FAULT", block + 4))
            program.append(("barrier",))
            return program

        def total(name, with_sync):
            programs = [[("barrier",)], writer_program(with_sync)]
            _machine, result = run(name, programs, n_blocks=8,
                                   network=NetworkConfig(latency=2_000))
            return result.cycles

        assert total("buffered_write", True) < total("stache", False)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_random_programs_stay_coherent(seed):
    """Any random load/store program leaves memory coherent and quiescent."""
    programs = random_sharing_programs(3, 3, 12, seed=seed)
    machine, _ = run("stache", programs, n_blocks=3)
    machine.assert_coherent()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_property_baseline_equivalence(seed):
    """Teapot and hand-written Stache read the same values everywhere
    (on race-free programs, where the outcome is determined)."""
    programs = race_free_programs(3, 2, 2, seed=seed)
    results = []
    for name in ("stache", "stache_sm"):
        machine, _ = run(name, [list(p) for p in programs], n_blocks=2)
        results.append(tuple(tuple(n.observed) for n in machine.nodes))
    assert results[0] == results[1]
