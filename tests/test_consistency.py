"""Tests for value-level consistency checking over simulation logs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_barrier_consistency, check_read_values
from repro.protocols import compile_named_protocol
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.network import NetworkConfig


def phase_programs(n_nodes, n_blocks, phases, seed, lcm=False):
    """Race-free barrier-phased programs with logged reads."""
    import random
    rng = random.Random(seed)
    programs = [[] for _ in range(n_nodes)]
    for phase in range(phases):
        writers = {b: rng.randrange(n_nodes) for b in range(n_blocks)}
        for node, program in enumerate(programs):
            for block, writer in writers.items():
                if writer == node:
                    program.append(("write", block, phase * 10 + block + 1))
            program.append(("barrier",))
        for node, program in enumerate(programs):
            program.append(("read", rng.randrange(n_blocks), "log"))
            program.append(("barrier",))
    return programs


def run(name, programs, n_blocks, network=None):
    protocol = compile_named_protocol(name)
    config = MachineConfig(n_nodes=len(programs), n_blocks=n_blocks)
    if network:
        config.network = network
    machine = Machine(protocol, programs, config)
    machine.run()
    machine.assert_quiescent()
    return machine


class TestReadValues:
    def test_stache_reads_only_written_values(self):
        programs = phase_programs(3, 2, 3, seed=1)
        machine = run("stache", programs, 2)
        check_read_values(machine, programs).raise_if_failed()

    def test_detects_thin_air_values(self):
        programs = phase_programs(2, 1, 1, seed=2)
        machine = run("stache", programs, 1)
        machine.nodes[0].observed.append((0, 424242))
        report = check_read_values(machine, programs)
        assert not report.ok
        assert "never written" in report.violations[0]


class TestBarrierConsistency:
    @pytest.mark.parametrize("name", ["stache", "stache_sm", "dash",
                                      "stache_nack"])
    def test_blocking_protocols_are_phase_consistent(self, name):
        programs = phase_programs(3, 2, 3, seed=3)
        machine = run(name, [list(p) for p in programs], 2)
        check_barrier_consistency(machine, programs).raise_if_failed()

    def test_detects_stale_reads(self):
        programs = phase_programs(2, 1, 2, seed=4)
        machine = run("stache", programs, 1)
        # Corrupt an observation to an earlier phase's value.
        node = next(n for n in machine.nodes if n.observed)
        block, _value = node.observed[0]
        node.observed[0] = (block, 999)
        report = check_barrier_consistency(machine, programs)
        assert not report.ok

    def test_racy_programs_are_rejected(self):
        programs = [
            [("write", 0, 1), ("barrier",)],
            [("write", 0, 2), ("barrier",)],
        ]
        machine = run("stache", programs, 1)
        report = check_barrier_consistency(machine, programs)
        assert not report.ok
        assert "racy" in report.violations[0]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_consistent_under_network_jitter(self, seed):
        programs = phase_programs(3, 2, 2, seed=seed)
        network = NetworkConfig(latency=80, jitter=300,
                                seed=seed)
        machine = run("stache", [list(p) for p in programs], 2,
                      network=network)
        check_barrier_consistency(machine, programs).raise_if_failed()


@given(seed=st.integers(min_value=0, max_value=10_000),
       phases=st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_property_phase_consistency(seed, phases):
    """Race-free phased programs are barrier-consistent under Stache."""
    programs = phase_programs(3, 2, phases, seed=seed)
    machine = run("stache", [list(p) for p in programs], 2)
    check_barrier_consistency(machine, programs).raise_if_failed()
    check_read_values(machine, programs).raise_if_failed()
