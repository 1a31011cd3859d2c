"""Figure 11: the LCM network-reordering problem.

"The cache side sends the home a BEGIN_LCM message indicating that it
is entering the LCM phase.  The message reaches the home after two
other messages" -- in-phase traffic overtakes the announcement, and the
home must queue it (the subroutine state's DEFAULT handler) rather than
reject it.

The benchmark reproduces the scenario two ways: exhaustively (model
checking with reordering enabled succeeds only because the queueing is
there) and concretely (a jittered-network simulation run).
"""

from repro.protocols import compile_named_protocol, load_protocol_source
from repro.compiler.pipeline import compile_source
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.network import NetworkConfig
from repro.verify import ModelChecker, events_for_protocol


def check_lcm(reorder):
    protocol = compile_named_protocol("lcm")
    return ModelChecker(protocol, n_nodes=2, n_blocks=1,
                        reorder_bound=reorder,
                        events=events_for_protocol("lcm")).run()


def test_fig11_reordering_is_handled(benchmark, report):
    def measure():
        return check_lcm(0), check_lcm(1)

    fifo, reordered = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("fig11_reordering", [
        "Figure 11: LCM under network reordering (2 nodes, 1 address)",
        f"FIFO network:       {fifo.states_explored} states -> "
        f"{'PASS' if fifo.ok else 'FAIL'}",
        f"1 reordering max:   {reordered.states_explored} states -> "
        f"{'PASS' if reordered.ok else 'FAIL'}",
        "",
        "The reordered space includes the Figure 11 interleaving "
        "(BEGIN_LCM overtaken by in-phase traffic); it passes because "
        "the early messages queue in the home's stable states.",
    ])
    assert fifo.ok and reordered.ok
    assert reordered.states_explored > fifo.states_explored


def test_fig11_queueing_is_load_bearing(benchmark, report):
    """Figure 11's mechanism is the subroutine state's DEFAULT handler
    queueing concurrent traffic ("Note the queuing of GET_RO_REQ").
    Switch Home_Await_BeginLCM's DEFAULT from Enqueue to Error and the
    checker finds the race immediately."""

    def break_it():
        source = load_protocol_source("lcm")
        marker = """State LCM.Home_Await_BeginLCM{C : CONT}
Begin
  Message BEGIN_LCM (id : ID; Var info : INFO; src : NODE)
  Begin
    numInPhase := numInPhase + 1;
    Send(src, BEGIN_LCM_ACK, id);
    Resume(C);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;
End;"""
        assert marker in source
        broken = source.replace(marker, marker.replace(
            """  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;""",
            """  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("unexpected %s while awaiting BEGIN_LCM",
          Msg_To_Str(MessageTag));
  End;"""), 1)
        protocol = compile_source(
            broken, initial_states=("Home_Idle", "Cache_Invalid"))
        return ModelChecker(protocol, n_nodes=2, n_blocks=1,
                            reorder_bound=1,
                            events=events_for_protocol("lcm")).run()

    result = benchmark.pedantic(break_it, rounds=1, iterations=1)
    lines = ["Figure 11 ablation: Home_Await_BeginLCM without queueing",
             result.summary()]
    if result.violation is not None:
        lines.append(result.violation.format_trace())
    report("fig11_ablation", lines)
    assert not result.ok
    assert result.violation.kind == "error"


def test_fig11_simulation_under_jitter(benchmark, report):
    """A concrete jittered run of the phase lifecycle never misbehaves."""

    def run_jittered():
        protocol = compile_named_protocol("lcm")
        outcomes = []
        for seed in range(8):
            programs = [
                [("barrier",),
                 ("event", "ENTER_LCM_FAULT", 0), ("barrier",),
                 ("event", "EXIT_LCM_FAULT", 0), ("barrier",),
                 ("read", 0, "log")],
                [("write", 0, 10), ("barrier",),
                 ("event", "ENTER_LCM_FAULT", 0), ("barrier",),
                 ("write", 0, 42),
                 ("event", "EXIT_LCM_FAULT", 0), ("barrier",)],
            ]
            config = MachineConfig(
                n_nodes=2, n_blocks=1,
                network=NetworkConfig(latency=100, jitter=400, seed=seed))
            machine = Machine(protocol, programs, config)
            machine.run()
            machine.assert_quiescent()
            outcomes.append(machine.nodes[0].observed[0][1])
        return outcomes

    outcomes = benchmark.pedantic(run_jittered, rounds=1, iterations=1)
    report("fig11_jitter", [
        "LCM phase lifecycle under 8 jittered-network seeds",
        f"reconciled values observed at home: {outcomes}",
    ])
    assert all(value == 42 for value in outcomes)
