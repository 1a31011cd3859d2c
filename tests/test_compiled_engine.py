"""The compiled engine against the reference interpreter.

The simulator and the checker execute the functions the Python back end
compiles (``CompiledEngine``); ``HandlerInterpreter`` is the readable
reference they must match.  This harness runs both under the checker
(every registered protocol) and under the simulator (Table-1 and Table-2
programs, plain and with faults plus the recovery watchdog) and requires
identical results down to the trace bytes.
"""

import io
import re

import pytest

from repro.backends import CompiledEngine, emit_python, python_backend
from repro.compiler.pipeline import compile_source
from repro.faults import FaultBudget, FaultPlan, FaultRule, RecoveryConfig
from repro.lang.errors import RuntimeProtocolError
from repro.obs import JsonlSink, Observer
from repro.protocols import (
    PROTOCOLS,
    compile_named_protocol,
    load_protocol_source,
)
from repro.runtime.context import CostModel
from repro.runtime.exec import MAX_OPS_PER_ACTION, HandlerInterpreter
from repro.runtime.protocol import OptLevel
from repro.tempest.machine import Machine, MachineConfig
from repro.verify import ModelChecker, checker, events_for_protocol
from repro.verify.invariants import standard_invariants
from repro.workloads import LCM_WORKLOADS, STACHE_WORKLOADS

from helpers import MINI_SOURCE, FakeContext
from reference_checker import record_expansions
from test_runtime import EXPR_TEMPLATE, run_body

ALL_NAMES = sorted(PROTOCOLS)
ENGINES = [HandlerInterpreter, CompiledEngine]


# ---------------------------------------------------------------------------
# (a) the checker
# ---------------------------------------------------------------------------


def explore(protocol, label, factory, **kwargs):
    """One exhaustive run; everything the two engines must agree on."""
    # Record every action afresh instead of replaying the effects an
    # earlier run in this process cached.
    checker._ENGINE_CACHES.clear()
    model_checker = ModelChecker(
        protocol, events=events_for_protocol(label),
        invariants=standard_invariants(
            coherent=not label.startswith("buffered")),
        interpreter_factory=factory, fingerprint_states=True, **kwargs)
    stream = record_expansions(model_checker)
    result = model_checker.run()
    violation = result.violation
    return {
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "handler_fires": dict(result.handler_fires),
        "invariant_evals": dict(result.invariant_evals),
        "violation": violation and (violation.kind, violation.message,
                                    tuple(violation.trace)),
        "fingerprints": stream,
    }


def assert_engines_explore_alike(protocol, label, **kwargs):
    reference = explore(protocol, label, HandlerInterpreter, **kwargs)
    compiled = explore(protocol, label, CompiledEngine, **kwargs)
    assert compiled == reference
    return compiled


@pytest.mark.parametrize("name", ALL_NAMES)
def test_checker_two_nodes_reordered_with_faults(name):
    assert_engines_explore_alike(
        compile_named_protocol(name), name, n_nodes=2, reorder_bound=1,
        fault_budget=FaultBudget(1, 1))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_checker_three_nodes(name):
    # The cap only bites on stache_cas, stache_cas_sm, lcm_mcc and
    # lcm_sm (up to 178k states uncapped, a minute between them).
    outcome = assert_engines_explore_alike(
        compile_named_protocol(name), name, n_nodes=3, max_states=20_000)
    assert outcome["violation"] is None


def _edited(name, *edits):
    source = MINI_SOURCE if name == "mini" else load_protocol_source(name)
    for old, new in edits:
        assert old in source
        source = source.replace(old, new, 1)
    return compile_source(
        source, initial_states=("Home_Idle", "Cache_Invalid"))


# The protocol bugs the other suites seed (test_checker, test_protocols_dash,
# test_protocols_evict), plus the model the registered lcm_mcc fails on:
# (id, protocol builder, events label, checker arguments).
SEEDED_BUGS = [
    ("missing-ack-wait",
     lambda: _edited("stache", ("While (pendingInv > 0) Do",
                                "While (pendingInv > 1) Do")),
     "stache", dict(n_nodes=3)),
    ("forgotten-sharer",
     lambda: _edited("stache", (
         "    AddSharer(info, src);\n"
         "    SendBlk(src, GET_RO_RESP, id);\n"
         "    AccessChange(id, Blk_Downgrade_RO);\n",
         "    SendBlk(src, GET_RO_RESP, id);\n"
         "    AccessChange(id, Blk_Downgrade_RO);\n")),
     "stache", dict(n_nodes=2)),
    ("rejected-invalidation",
     lambda: _edited("stache", (
         "  Message INV_REQ (id : ID; Var info : INFO; src : NODE)\n"
         "  Begin\n"
         "    AccessChange(id, Blk_Invalidate);\n"
         "    Send(HomeNode(id), INV_ACK, id);\n"
         "    SetState(info, Cache_Invalid{});\n"
         "  End;", "")),
     "stache", dict(n_nodes=2)),
    ("lost-wakeup",
     lambda: _edited(
         "mini",
         ("    Suspend(L, Cache_Wait{L});\n    WakeUp(id);\n",
          "    Suspend(L, Cache_Wait{L});\n"),
         ("      AccessChange(id, Blk_Upgrade_RW);\n"
          "    Endif;\n    WakeUp(id);\n",
          "      AccessChange(id, Blk_Upgrade_RW);\n    Endif;\n")),
     "stache", dict(n_nodes=2)),
    ("dash-overtaken-grant",
     lambda: _edited("dash", ("    If (dropped) Then\n      -- An inval",
                              "    If (False) Then\n      -- An inval")),
     "dash", dict(n_nodes=2, reorder_bound=1)),
    ("evict-gratuitous-request",
     lambda: _edited(
         "stache_evict",
         ("      -- PutNoData message\" -- so queue it.\n"
          "      Enqueue(MessageTag, id, info, src);\n",
          '      Error("gratuitous ReadRequest from a current sharer");\n'),
         ("    Send(HomeNode(id), PUT_NO_DATA, id);\n"
          "    AccessChange(id, Blk_Invalidate);\n"
          "    Suspend(L, Cache_Await_EvictAck{L});\n",
          "    Send(HomeNode(id), PUT_NO_DATA, id);\n"
          "    AccessChange(id, Blk_Invalidate);\n")),
     "stache_evict", dict(n_nodes=2, reorder_bound=1)),
    ("lcm-mcc-two-addresses",
     lambda: compile_named_protocol("lcm_mcc"),
     "lcm_mcc", dict(n_nodes=2, n_blocks=2, reorder_bound=1)),
]


@pytest.mark.parametrize("build,label,kwargs",
                         [bug[1:] for bug in SEEDED_BUGS],
                         ids=[bug[0] for bug in SEEDED_BUGS])
def test_seeded_bugs_fail_alike(build, label, kwargs):
    outcome = assert_engines_explore_alike(build(), label, **kwargs)
    assert not outcome["ok"] and outcome["violation"][2]


# ---------------------------------------------------------------------------
# (b) the simulator
# ---------------------------------------------------------------------------

STACHE_FAMILY = [name for name in ALL_NAMES if not name.startswith("lcm")]
LCM_FAMILY = [name for name in ALL_NAMES if name.startswith("lcm")]
SIM_CASES = (
    [(name, workload, STACHE_WORKLOADS[workload])
     for name in STACHE_FAMILY for workload in STACHE_WORKLOADS]
    + [(name, workload, LCM_WORKLOADS[workload])
       for name in LCM_FAMILY for workload in LCM_WORKLOADS])


def lossy_network():
    """A fresh (stateful) fault plan and the watchdog that survives it."""
    plan = FaultPlan(rules=(FaultRule("drop", rate=0.04),
                            FaultRule("dup", rate=0.04),
                            FaultRule("delay", rate=0.04, delay=700)),
                     seed=5, max_faults=8)
    return dict(faults=plan, recovery=RecoveryConfig(timeout=3000))


def simulate(protocol, programs, n_blocks, reference, observed=True,
             **config):
    """Run ``programs``; with ``reference`` every node's engine is
    swapped for the interpreter.  Returns all the run's observable
    results."""
    trace = io.StringIO()
    sink = JsonlSink(trace)
    machine = Machine(protocol, programs, MachineConfig(
        n_nodes=len(programs), n_blocks=n_blocks,
        observer=Observer(sink) if observed else None, **config))
    if reference:
        for node in machine.nodes:
            node.engine = HandlerInterpreter(protocol, node.ctx)
    error = None
    cycles = None
    try:
        cycles = machine.run().cycles
        machine.assert_quiescent()
    except (RuntimeProtocolError, AssertionError) as raised:
        error = f"{type(raised).__name__}: {raised}"
    sink.close()
    return {
        "error": error,
        "cycles": cycles,
        "counters": [vars(node.stats.counters) for node in machine.nodes],
        "finish_times": [node.stats.finish_time for node in machine.nodes],
        "observed": [node.observed for node in machine.nodes],
        "trace": trace.getvalue(),
    }


@pytest.mark.parametrize("lossy", [False, True], ids=["plain", "lossy"])
@pytest.mark.parametrize("name,workload,entry", SIM_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in SIM_CASES])
def test_simulator_runs_alike(name, workload, entry, lossy):
    factory, blocks_fn = entry
    protocol = compile_named_protocol(name)
    programs = [
        [("read", op[1], "log") if op[0] == "read" else op
         for op in program]
        for program in factory(n_nodes=4)]

    def run(reference):
        extra = lossy_network() if lossy else {}
        return simulate(protocol, programs, blocks_fn(4), reference,
                        **extra)

    compiled = run(False)
    assert compiled == run(True)
    assert compiled["trace"]
    if not lossy:
        assert compiled["error"] is None


@pytest.mark.parametrize("name", ["stache", "stache_sm", "lcm", "lcm_sm"])
def test_unobserved_simulator_runs_alike(name):
    """The ``obs is None`` path of both engines, which the traced runs
    above never take."""
    table = LCM_WORKLOADS if name.startswith("lcm") else STACHE_WORKLOADS
    protocol = compile_named_protocol(name)
    for factory, blocks_fn in table.values():
        programs = factory(n_nodes=4)
        compiled = simulate(protocol, programs, blocks_fn(4), False,
                            observed=False)
        assert compiled == simulate(protocol, programs, blocks_fn(4), True,
                                    observed=False)
        assert compiled["error"] is None and not compiled["trace"]


# ---------------------------------------------------------------------------
# (d) compiled code is shared between machines, cost values are not
# ---------------------------------------------------------------------------


def test_each_machine_is_charged_by_its_own_cost_model():
    protocol = compile_named_protocol("stache")
    factory, blocks_fn = STACHE_WORKLOADS["gauss"]
    programs = factory(n_nodes=4)
    pricey = CostModel(dispatch=61, indirect_call=27, statement=11, send=97,
                       send_data=151, access_change=43, recv_data=89,
                       cont_alloc=47, cont_free=23, save_restore_word=7,
                       resume=29, resume_direct=5, queue_alloc=37,
                       wakeup=67)

    def run(reference, **config):
        return simulate(protocol, programs, blocks_fn(4), reference,
                        **config)

    default = run(False)
    # A second machine in the same process, same compiled functions.
    repriced = run(False, costs=pricey)
    assert repriced == run(True, costs=pricey)
    assert repriced["cycles"] > default["cycles"]
    assert repriced["counters"] == default["counters"]
    # And the first machine's prices were not disturbed by the second's.
    assert run(False) == default == run(True)


# ---------------------------------------------------------------------------
# The emitted module is the executed code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_emitted_module_is_what_the_engine_compiles(name, monkeypatch):
    """``teapot compile --target python`` prints the header and exactly the
    per-handler texts the lazy path compiles, plus the table."""
    protocol = compile_source(
        load_protocol_source(name),
        initial_states=PROTOCOLS[name].initial_states)
    compiled_texts = []
    real_compile = compile

    def recording_compile(text, filename, mode):
        compiled_texts.append(text)
        return real_compile(text, filename, mode)

    monkeypatch.setattr(python_backend, "compile", recording_compile,
                        raising=False)
    keys = sorted(protocol.handlers)
    for key in keys:
        code = python_backend.compiled_handler(
            protocol, protocol.handlers[key])
        # A second request is a cache hit, not a second compilation.
        assert python_backend.compiled_handler(
            protocol, protocol.handlers[key]) is code
    monkeypatch.undo()

    assert len(compiled_texts) == 1 + len(keys)     # header + handlers
    table = "HANDLERS = {\n" + "".join(
        f"    ({state!r}, {message!r}): h_{state}__{message},\n"
        for state, message in keys) + "}\n"
    module = emit_python(protocol)
    assert module == "".join(compiled_texts) + table
    namespace = {}
    exec(compile(module, f"<{name}.py>", "exec"), namespace)
    assert sorted(namespace["HANDLERS"]) == keys


def test_handlers_compile_on_first_dispatch_only():
    protocol = compile_source(
        MINI_SOURCE, initial_states=("Home_Idle", "Cache_Invalid"))
    ctx = FakeContext(protocol)
    engine = CompiledEngine(protocol, ctx)
    code = python_backend._PROTOCOL_CODE[id(protocol)][1]
    assert not code.by_name
    ctx.deliver(engine, "GET_REQ", src=1)
    assert set(code.by_name) == {"Home_Idle.GET_REQ"}
    # A second engine over the same protocol shares the compiled code.
    other = CompiledEngine(protocol, FakeContext(protocol))
    other.ctx.deliver(other, "GET_REQ", src=1)
    assert set(code.by_name) == {"Home_Idle.GET_REQ"}


# ---------------------------------------------------------------------------
# One semantics: where the old generated path differed from the
# interpreter, the engine now behaves as the interpreter does
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_factory", ENGINES)
class TestOneSemantics:
    def test_modulo_by_zero_is_a_protocol_error(self, engine_factory):
        with pytest.raises(RuntimeProtocolError,
                           match="modulo by zero in protocol code"):
            run_body("count := 7 % (count - count);",
                     engine_factory=engine_factory)

    def test_logical_operators_yield_booleans(self, engine_factory):
        source = """
Module Support
Begin
  Function Truthy() : BOOL;
  Function Falsy() : BOOL;
End;
""" + EXPR_TEMPLATE.format(
            body="flag := Truthy() And Truthy();\n"
                 "    If (Falsy() Or Falsy()) Then count := 1; "
                 "Else count := 2; Endif;\n"
                 "    Print(Falsy() Or Truthy(), Truthy() And Falsy());",
            locals="", params="")
        protocol = compile_source(source, initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        # Support code answers with truthy / falsy non-booleans.
        ctx.support.update(Truthy=lambda: 5, Falsy=lambda: [])
        ctx.deliver(engine_factory(protocol, ctx), "M")
        assert ctx.info["flag"] is True
        assert ctx.info["count"] == 2
        assert ctx.printed == [(True, False)]

    def test_diverging_loop_trips_the_operation_guard(self, engine_factory):
        protocol = compile_source(
            EXPR_TEMPLATE.format(
                body="While (True) Do count := count + 1; End;",
                locals="", params=""),
            initial_states=("S", "S"))
        ctx = FakeContext(protocol, state=("S", ()))
        ctx.costs = costs = CostModel()
        with pytest.raises(RuntimeProtocolError) as raised:
            ctx.deliver(engine_factory(protocol, ctx), "M")
        assert str(raised.value) == (
            f"handler S.M exceeded {MAX_OPS_PER_ACTION} operations; "
            "diverging loop?")
        # The guard fires before the offending operation is charged.
        assert ctx.charged == (costs.dispatch + costs.indirect_call
                               + MAX_OPS_PER_ACTION * costs.statement)
        assert ctx.info["count"] == MAX_OPS_PER_ACTION // 2

    def test_unknown_state_message(self, engine_factory):
        with pytest.raises(RuntimeProtocolError) as raised:
            run_body("count := 1;", state=("Limbo", ()),
                     engine_factory=engine_factory)
        assert str(raised.value) == "block 0 is in unknown state 'Limbo'"

    def test_unexpected_message_text(self, engine_factory):
        with pytest.raises(RuntimeProtocolError) as raised:
            run_body("count := 1;", tag="OTHER",
                     engine_factory=engine_factory)
        assert str(raised.value) == (
            "unexpected message OTHER to state S (block 0, from node 1)")

    @pytest.mark.parametrize("expr,expected", [
        ("(0 - 7) / 2", -3),
        ("(0 - 7) % 2", -1),
        ("7 % (0 - 2)", 1),
        ("7 / (0 - 2)", -3),
        ("(0 - 7) / (0 - 2)", 3),
        # Through a float this reads 33333333333333332.
        ("100000000000000000 / 3", 33333333333333333),
        ("((0 - 7) / 2) * 2 + (0 - 7) % 2", -7),
        ("(7 / (0 - 2)) * (0 - 2) + 7 % (0 - 2)", 7),
    ])
    def test_division_truncates_modulo_follows(self, engine_factory, expr,
                                                expected):
        """The quotient truncates toward zero and the remainder takes
        the dividend's sign, as in the C the other back end prints."""
        ctx = run_body(f"count := {expr};", engine_factory=engine_factory)
        assert ctx.info["count"] == expected


def test_dispatch_errors_reach_violation_messages_unchanged():
    """The checker copies the dispatch error text into Violation.message:
    an undeliverable message reads the same under either engine."""
    source, dropped = re.subn(
        r"  Message DEFAULT \([^)]*\)\n  Begin\n    Error\(.*\n  End;\n", "",
        MINI_SOURCE)
    assert dropped == 3
    protocol = compile_source(
        source, initial_states=("Home_Idle", "Cache_Invalid"))
    outcome = assert_engines_explore_alike(
        protocol, "stache", n_nodes=2, fault_budget=FaultBudget(dup=1))
    kind, message, _trace = outcome["violation"]
    assert kind == "error"
    assert re.fullmatch(r"unexpected message \w+ to state \w+ "
                        r"\(block 0, from node \d\)", message)


# ---------------------------------------------------------------------------
# Coalesced charges: nothing that can read the clock can tell them from
# the interpreter's one-charge-per-operation
# ---------------------------------------------------------------------------

PRIME_COSTS = CostModel(
    dispatch=2, indirect_call=3, statement=5, send=7, send_data=11,
    msg_latency=13, access_change=17, recv_data=19, cont_alloc=23,
    cont_free=29, save_restore_word=31, resume=37, resume_direct=41,
    queue_alloc=43, queue_free=47, fault_trap=53, wakeup=59, read_hit=61,
    write_hit=67)


class ClockedContext(FakeContext):
    """Logs ``(method, cycles charged so far)`` at every context call
    that may read the clock -- all but ``get_info`` / ``set_info`` /
    ``home_node``, which no host gives a notion of time (and ``charge``
    itself) -- so any charge made on the wrong side of one shows."""

    CLOCKED = ("get_state", "set_state", "send", "access_change",
               "recv_data", "read_word", "write_word", "enqueue_current",
               "retry_queued", "wakeup", "error", "debug_print",
               "support_call", "support_const")

    def __init__(self, protocol, **kwargs):
        super().__init__(protocol, **kwargs)
        self.costs = PRIME_COSTS
        self.log = []


def _clocked(name):
    inner = getattr(FakeContext, name)

    def method(self, *args, **kwargs):
        self.log.append((name, self.charged))
        return inner(self, *args, **kwargs)
    return method


for _name in ClockedContext.CLOCKED:
    setattr(ClockedContext, _name, _clocked(_name))

CLOCKED_SOURCE = """
Module Support
Begin
  Function Pick(n : NODE) : NODE;
  Const LIMIT : INT;
End;

Protocol C
Begin
  Var count : INT;
  Var owner : NODE;
  Var sharers : SharerList;
  State S {};
  State W { c : CONT; base : INT } Transient;
  Message M;
  Message R;
  Message OUT;
End;

State C.S{}
Begin
  Message M (id : ID; Var info : INFO; src : NODE; word : INT)
  Var k : INT;
  Begin
    k := word + 1;
    count := count + k;
    Send(src, M, id, k + count);
    k := k * 2;
    AddSharer(info, src);
    AccessChange(id, Blk_Upgrade_RO);
    count := count + CountSharers(info);
    owner := HomeNode(id);
    SendBlk(Pick(src), OUT, id);
    SetState(info, S{});
    If (k > LIMIT) Then
      k := k - LIMIT;
    Endif;
    While (k < 40) Do
      k := k + 7;
      Print(k);
    End;
    Suspend(L, W{L, k});
    count := count + k;
    WakeUp(id);
    If (IsEmptySharers(info)) Then
      Enqueue(MessageTag, id, info, src);
    Endif;
  End;
End;

State C.W{c : CONT; base : INT}
Begin
  Message R (id : ID; Var info : INFO; src : NODE)
  Begin
    count := count + base;
    RecvData(id, Blk_Upgrade_RW);
    count := count + 1;
    Resume(c);
    count := count * 3;
    ClearSharers(info);
    SetState(info, S{});
  End;
End;
"""


def run_clocked(engine_factory, opt_level):
    protocol = compile_source(CLOCKED_SOURCE, opt_level=opt_level,
                              initial_states=("S", "S"))
    ctx = ClockedContext(protocol, state=("S", ()))
    ctx.support.update(Pick=lambda node: node + 1, LIMIT=3)
    engine = engine_factory(protocol, ctx)
    ctx.deliver(engine, "M", src=2, payload=(4,))
    ctx.deliver(engine, "R", src=3, data=(9, 9, 9, 9))
    return ctx


@pytest.mark.parametrize("opt_level", list(OptLevel), ids=lambda o: o.name)
def test_every_clock_reader_sees_the_interpreters_time(opt_level):
    reference = run_clocked(HandlerInterpreter, opt_level)
    compiled = run_clocked(CompiledEngine, opt_level)
    assert compiled.log == reference.log
    assert compiled.charged == reference.charged
    assert vars(compiled.counters) == vars(reference.counters)
    assert (compiled.state, compiled.info, compiled.sent, compiled.printed,
            compiled.access_changes, compiled.woken) == (
        reference.state, reference.info, reference.sent, reference.printed,
        reference.access_changes, reference.woken)
    # The body took every kind of step the rule names.
    assert {"send", "set_state", "access_change", "support_call",
            "support_const", "debug_print", "recv_data",
            "wakeup"} <= {name for name, _ in compiled.log}
    assert compiled.counters.suspends == compiled.counters.resumes == 1
    # And the compiled text did hold charges back (nothing above could
    # tell): three operations' worth ahead of the Send, a timed argument
    # splitting SendBlk's statement charge from its own.
    text = python_backend.emit_handler(
        compiled.protocol, compiled.protocol.handlers["S", "M"])
    assert "ctx.charge(3 * S + costs.send)\n" in text
    assert "ctx.charge(3 * S + costs.access_change)\n" in text
    assert ("ctx.charge(3 * S)\n"
            "            args = [ctx.support_call('Pick', [v_src]), 'OUT', "
            "v_id]\n"
            "            ctx.charge(costs.send_data)\n"
            "            BI_SendBlk(rt, args)\n") in text


@pytest.mark.parametrize("engine_factory", ENGINES)
@pytest.mark.parametrize("body,message", [
    ("owner := PopSharer(info);", "PopSharer on an empty sharer set"),
    ("count := MsgWord(count);",
     "MsgWord(2) out of range for payload ()"),
    ("count := 7 / (count - 2);", "division by zero in protocol code"),
    ("count := 7 % (count - 2);", "modulo by zero in protocol code"),
    ("owner := NthSharer(info, count);",
     "NthSharer(2) out of range for 0 sharers"),
    ('Error("stop at %s", count);', "stop at 2"),
])
def test_errors_after_uncharged_operations(engine_factory, body, message):
    """Two untimed operations are still owed when the third fails: the
    failure must find them charged, as under the interpreter."""
    protocol = compile_source(
        EXPR_TEMPLATE.format(
            body=f"count := 1;\n    count := count + 1;\n    {body}",
            locals="", params=""),
        initial_states=("S", "S"))
    ctx = ClockedContext(protocol, state=("S", ()))
    with pytest.raises(RuntimeProtocolError) as raised:
        ctx.deliver(engine_factory(protocol, ctx), "M")
    assert str(raised.value) == message
    costs = PRIME_COSTS
    assert ctx.charged == (costs.dispatch + costs.indirect_call
                           + 3 * costs.statement)
    assert ctx.log == [("get_state", 0), ("error", ctx.charged)]


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_operation_budget_spans_a_resumed_fragment(engine_factory):
    """The guard counts per action: a loop that diverges in a resumed
    fragment has the resuming handler's operations against it too."""
    protocol = compile_source("""
Protocol D
Begin
  Var count : INT;
  State S {};
  State W { c : CONT } Transient;
  Message M;
  Message R;
End;

State D.S{}
Begin
  Message M (id : ID; Var info : INFO; src : NODE)
  Begin
    Suspend(L, W{L});
    While (True) Do count := count + 1; End;
  End;
End;

State D.W{c : CONT}
Begin
  Message R (id : ID; Var info : INFO; src : NODE)
  Begin
    count := 0 - 1;
    Resume(c);
  End;
End;
""", initial_states=("S", "S"))
    ctx = ClockedContext(protocol, state=("S", ()))
    engine = engine_factory(protocol, ctx)
    ctx.deliver(engine, "M")
    ctx.charged = 0
    with pytest.raises(RuntimeProtocolError) as raised:
        ctx.deliver(engine, "R")
    assert str(raised.value) == (
        f"handler S.M exceeded {MAX_OPS_PER_ACTION} operations; "
        "diverging loop?")
    costs = PRIME_COSTS
    assert ctx.counters.direct_resumes == 1
    assert ctx.charged == (costs.dispatch + costs.indirect_call
                           + costs.resume_direct
                           + MAX_OPS_PER_ACTION * costs.statement)
    # R's two operations, then branch + assignment per iteration, the
    # last branch being operation MAX_OPS_PER_ACTION itself.
    assert ctx.info["count"] == -1 + (MAX_OPS_PER_ACTION - 2) // 2
