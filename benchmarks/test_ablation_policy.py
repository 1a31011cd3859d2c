"""Ablation: the unintended-message policy (Section 2).

"Teapot offers all three options [auxiliary state, nacks, queueing],
but advocates queuing unexpected messages ... Nacks can lead to
deadlock, so they must be employed carefully."

This benchmark substantiates the advocacy: the same transient state,
with its DEFAULT handler switched between queueing, nacking, and
erroring, is model-checked.  Queueing passes; erroring fails on the
first benign race; and naive nacking floods the network with retries.
"""

from repro.compiler.pipeline import compile_source
from repro.protocols import load_protocol_source
from repro.verify import ModelChecker
from repro.verify.events import StacheEvents

QUEUE_DEFAULT = """State Stache.Home_Await_Put{C : CONT}
Begin
  Message PUT_RESP (id : ID; Var info : INFO; src : NODE)
  Begin
    RecvData(id, Blk_Upgrade_RW);
    owner := Nobody;
    Resume(C);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;
End;"""

ERROR_DEFAULT = QUEUE_DEFAULT.replace(
    """  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;""",
    """  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("unexpected %s while recalling", Msg_To_Str(MessageTag));
  End;""")


def check(source):
    protocol = compile_source(
        source, initial_states=("Home_Idle", "Cache_Invalid"))
    return ModelChecker(protocol, n_nodes=3, n_blocks=1, reorder_bound=0,
                        events=StacheEvents()).run()


def test_ablation_queue_vs_error(benchmark, report):
    def measure():
        base = load_protocol_source("stache")
        assert QUEUE_DEFAULT in base
        queueing = check(base)
        erroring = check(base.replace(QUEUE_DEFAULT, ERROR_DEFAULT, 1))
        return queueing, erroring

    queueing, erroring = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "Ablation: DEFAULT policy in Home_Await_Put (3 nodes, FIFO)",
        f"queue unexpected messages: "
        f"{'PASS' if queueing.ok else 'FAIL'} "
        f"({queueing.states_explored} states)",
        f"error on unexpected messages: "
        f"{'PASS' if erroring.ok else 'FAIL'} "
        f"({erroring.states_explored} states)",
    ]
    if erroring.violation is not None:
        lines.append("")
        lines.append("counterexample for the error policy:")
        lines.append(erroring.violation.format_trace())
    report("ablation_policy", lines)

    assert queueing.ok
    # A second request races the recall: benign, but fatal under the
    # error policy (exactly the Section 2 discussion).
    assert not erroring.ok
    assert erroring.violation.kind == "error"


def test_ablation_queue_records_are_bounded(benchmark, report):
    """Queueing is advocated but costs memory ("queuing requires
    additional memory"): measure queue-record traffic on a contended
    workload and confirm it stays bounded."""
    from repro.protocols import compile_named_protocol
    from repro.tempest.machine import Machine, MachineConfig

    def measure():
        import random
        rng = random.Random(99)
        programs = []
        for _node in range(8):
            program = []
            for _ in range(30):
                program.append(("write", 0, rng.randrange(100)))
                program.append(("compute", rng.randrange(30)))
            program.append(("barrier",))
            programs.append(program)
        protocol = compile_named_protocol("stache")
        machine = Machine(protocol, programs,
                          MachineConfig(n_nodes=8, n_blocks=1))
        result = machine.run()
        machine.assert_quiescent()
        return result

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    counters = result.stats.counters
    report("ablation_queue_memory", [
        "Queue-record traffic under heavy single-block write contention "
        "(8 nodes x 30 writes)",
        f"queue records allocated: {counters.queue_allocs}",
        f"queue records freed:     {counters.queue_frees}",
        f"messages sent:           {counters.messages_sent}",
    ])
    # Every deferred message is eventually redelivered: no leaks.
    assert counters.queue_allocs == counters.queue_frees
    assert counters.queue_allocs > 0


def test_ablation_nack_policy(benchmark, report):
    """The third policy: NACK-and-retry (stache_nack).

    Done carefully it verifies; drop the requester's retry and the
    checker shows the lost-request deadlock ("Nacks can lead to
    deadlock, so they must be employed carefully").  The price of the
    careful version is retry traffic, measured against queueing Stache
    on a contended workload.
    """
    import random

    from repro.compiler.pipeline import compile_source
    from repro.protocols import compile_named_protocol, \
        load_protocol_source
    from repro.tempest.machine import Machine, MachineConfig
    from repro.verify import ModelChecker
    from repro.verify.events import StacheEvents

    def measure():
        # 1. The careful nack protocol verifies -- including the
        #    progress (liveness) check, which carelessness fails.
        nack = compile_named_protocol("stache_nack")
        careful = ModelChecker(nack, n_nodes=3, n_blocks=1,
                               events=StacheEvents(),
                               liveness=True).run()

        # 2. Drop the read-retry: requests are lost, readers hang.
        source = load_protocol_source("stache_nack")
        retry = """  Message NACK_RO (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_RO_REQ, id);   -- retry
  End;"""
        assert retry in source
        broken = compile_source(
            source.replace(retry, """  Message NACK_RO (id : ID; Var info : INFO; src : NODE)
  Begin
    -- careless: give up instead of retrying
  End;""", 1),
            initial_states=("Home_Idle", "Cache_Invalid"))
        careless = ModelChecker(broken, n_nodes=3, n_blocks=1,
                                events=StacheEvents(),
                                liveness=True).run()

        # 3. Retry traffic under contention, versus queueing.
        rng = random.Random(7)
        programs = []
        for _node in range(6):
            program = []
            for _ in range(20):
                program.append(("write", 0, rng.randrange(100)))
                program.append(("compute", rng.randrange(40)))
            program.append(("barrier",))
            programs.append(program)

        def traffic(name):
            protocol = compile_named_protocol(name)
            machine = Machine(protocol, [list(p) for p in programs],
                              MachineConfig(n_nodes=6, n_blocks=1))
            result = machine.run()
            machine.assert_quiescent()
            return result.stats.counters

        queueing = traffic("stache")
        nacking = traffic("stache_nack")
        return careful, careless, queueing, nacking

    careful, careless, queueing, nacking = benchmark.pedantic(
        measure, rounds=1, iterations=1)

    lines = [
        "Ablation: the NACK policy (stache_nack)",
        f"careful (with retry):  "
        f"{'PASS' if careful.ok else 'FAIL'} "
        f"({careful.states_explored} states)",
        f"careless (no retry):   "
        f"{'PASS' if careless.ok else 'FAIL'} "
        f"({careless.violation.kind if careless.violation else ''})",
        "",
        "careless counterexample:",
        careless.violation.format_trace() if careless.violation else "",
        "",
        "traffic under 6-way write contention:",
        f"  queueing Stache: {queueing.messages_sent} messages, "
        f"{queueing.queue_allocs} queue records",
        f"  nacking Stache:  {nacking.messages_sent} messages "
        f"({nacking.nacks} nacks), {nacking.queue_allocs} queue records",
    ]
    report("ablation_nack", lines)

    assert careful.ok
    assert not careless.ok
    # The lost request starves the reader: a liveness failure, not a
    # global deadlock -- caught by the progress check.
    assert careless.violation.kind == "starvation"
    # Nacking trades queue memory for network traffic.
    assert nacking.messages_sent > queueing.messages_sent
    assert nacking.queue_allocs < queueing.queue_allocs
