"""Table 3: Protocol verification times.

The paper reports wall-clock seconds on a 66 MHz SparcStation for
Mur-phi runs over minimal configurations:

    Stache          2 nodes, 2 addresses, 1 reordering   4900 s
    Buffered-Write  2 nodes, 1 address,   1 reordering    302 s
    LCM simple      2 nodes, 1 address,   1 reordering  11515 s
    LCM MCC         2 nodes, 1 address,   1 reordering   5804 s (+8745)

Our checker regenerates the same experiment: the same configurations,
with states explored and wall time reported.  Shape preserved: LCM's
state space dwarfs Stache's at the same configuration ("hundreds of
times as many configurations" -- Section 7), reordering inflates every
space, and all four protocols verify clean.
"""

import pytest

from repro.protocols import PROTOCOLS, compile_named_protocol
from repro.verify import ModelChecker, ParallelChecker, events_for_protocol
from repro.verify.invariants import standard_invariants

# (label, protocol, nodes, addresses, reordering)
TABLE3_CONFIGS = [
    ("Stache", "stache", 2, 2, 1),
    ("Buffered-Write", "buffered_write", 2, 1, 1),
    ("LCM Simple", "lcm", 2, 1, 1),
    ("LCM MCC", "lcm_mcc", 2, 1, 1),
]


def verify(name, nodes, addrs, reorder, workers=0):
    protocol = compile_named_protocol(name)
    cls = ModelChecker if workers == 0 else ParallelChecker
    extra = {} if workers == 0 else {"workers": workers}
    checker = cls(
        protocol, n_nodes=nodes, n_blocks=addrs, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=PROTOCOLS[name].coherent),
        **extra)
    return checker.run()


@pytest.mark.parametrize("label,name,nodes,addrs,reorder", TABLE3_CONFIGS)
def test_table3_row(benchmark, report, label, name, nodes, addrs, reorder):
    result = benchmark.pedantic(verify, args=(name, nodes, addrs, reorder),
                                rounds=1, iterations=1)
    report(f"table3_{name}", [
        f"Table 3 row: {label}",
        f"configuration: {nodes} nodes, {addrs} address(es), "
        f"{reorder} reordering max",
        f"states explored: {result.states_explored}",
        f"transitions:     {result.transitions}",
        f"time taken:      {result.elapsed_seconds:.2f} s",
        f"verdict:         {'PASS' if result.ok else 'FAIL'}",
    ])
    assert result.ok, result.violation and result.violation.format_trace()
    assert not result.hit_state_limit


def test_table3_lcm_dwarfs_stache(benchmark, report):
    """Section 7's footnote: LCM's space is far larger than Stache's at
    the same configuration."""

    def measure():
        return (verify("stache", 2, 1, 1), verify("lcm", 2, 1, 1))

    stache, lcm = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = lcm.states_explored / stache.states_explored
    report("table3_ratio", [
        "LCM versus Stache state-space size (2 nodes, 1 address, "
        "1 reordering)",
        f"Stache: {stache.states_explored} states",
        f"LCM:    {lcm.states_explored} states",
        f"ratio:  {ratio:.1f}x (paper: 'hundreds of times' at full "
        "configuration)",
    ])
    assert ratio > 5.0


def test_table3_reordering_explodes_the_space(benchmark, report):
    """Table 3 footnote (a): out-of-order messages increase the number
    of states explored; unrestricted reordering was impractical."""

    def measure():
        return [verify("stache", 2, 1, k) for k in (0, 1, 2)]

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["State-space growth with the reordering bound (Stache, "
             "2 nodes, 1 address)"]
    for k, result in enumerate(results):
        lines.append(f"reorder={k}: {result.states_explored} states, "
                     f"{result.transitions} transitions")
    report("table3_reordering", lines)
    assert results[0].states_explored < results[1].states_explored
    assert results[1].states_explored <= results[2].states_explored


def test_table3_parallel_consistency(benchmark, report):
    """The sharded checker regenerates the Table 3 LCM MCC row exactly:
    same verdict and state count as the serial exploration, at any
    worker count."""

    def measure():
        return (verify("lcm_mcc", 2, 1, 1),
                verify("lcm_mcc", 2, 1, 1, workers=2))

    serial, sharded = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("table3_parallel", [
        "Table 3 row LCM MCC, serial versus 2-worker sharded exploration",
        f"serial:  {serial.states_explored} states, "
        f"{serial.transitions} transitions, {serial.elapsed_seconds:.2f} s",
        f"sharded: {sharded.states_explored} states, "
        f"{sharded.transitions} transitions, {sharded.elapsed_seconds:.2f} s",
        f"verdicts agree: {serial.ok == sharded.ok}",
    ])
    assert serial.ok and sharded.ok
    assert sharded.states_explored == serial.states_explored
    assert sharded.transitions == serial.transitions
    assert sharded.handler_fires == serial.handler_fires
