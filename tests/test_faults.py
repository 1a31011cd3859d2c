"""Tests for fault injection, timeout/retry recovery, and fault-bounded
model checking (docs/ROBUSTNESS.md).

Covers the four layers end to end: the :mod:`repro.faults` substrate
(plans, budgets, ledgers, JSON round trips), the Tempest integration
(drops deadlock, the watchdog recovers, duplicates are absorbed), the
checker's fault-bounded exploration (witnesses, replay validation,
serial/parallel agreement), and the CLI/trace surface.  The
determinism guards pin the headline safety property: the fault layer,
armed or absent, never perturbs a zero-fault run.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from reference_checker import ReferenceChecker, checker_for
from repro.api import (
    CheckOptions,
    FaultOptions,
    SimOptions,
    check,
    simulate,
)
from repro.cli import main
from repro.faults import (
    FaultBudget,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    RecoveryConfig,
    StallWindow,
)
from repro.lang.errors import RuntimeProtocolError
from repro.protocols import compile_named_protocol
from repro.runtime.context import Message
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.network import Network, NetworkConfig
from repro.verify.checker import ModelChecker, replay_labels
from repro.verify.fingerprint import (
    fingerprint,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.verify.model import initial_global_state
from repro.verify.parallel import ParallelChecker
from repro.workloads import gauss_programs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_JITTER_TRACE = os.path.join(
    GOLDEN_DIR, "stache_gauss_seed7_jitter40.trace.jsonl")


def drop_rule(**kwargs):
    return FaultRule(action="drop", **kwargs)


def run_gauss(protocol, n_nodes=2, faults=None, recovery=None,
              iterations=2, seed=3):
    config = MachineConfig(n_nodes=n_nodes, n_blocks=2 * n_nodes + 1,
                           faults=faults, recovery=recovery)
    machine = Machine(protocol, gauss_programs(
        n_nodes=n_nodes, iterations=iterations, blocks_per_node=2,
        seed=seed), config)
    result = machine.run()
    machine.assert_quiescent()
    return result


# ---------------------------------------------------------------------------
# The repro.faults substrate
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_scripted_occurrence_fires_exactly_once(self):
        plan = FaultPlan(rules=(drop_rule(tag="PING", occurrence=2),))
        msg = Message("PING", 0, src=0, dst=1)
        assert not plan.decide(msg, 0).drop      # first PING passes
        assert plan.decide(msg, 0).drop          # second is dropped
        assert not plan.decide(msg, 0).drop      # third passes again
        assert plan.injected == 1

    def test_rule_filters_by_signature(self):
        plan = FaultPlan(rules=(drop_rule(tag="A", src=0, dst=1, block=2,
                                          occurrence=1),))
        assert not plan.decide(Message("B", 2, src=0, dst=1), 0).drop
        assert not plan.decide(Message("A", 2, src=1, dst=0), 0).drop
        assert not plan.decide(Message("A", 3, src=0, dst=1), 0).drop
        assert plan.decide(Message("A", 2, src=0, dst=1), 0).drop

    def test_drop_beats_dup(self):
        plan = FaultPlan(rules=(drop_rule(occurrence=1),
                                FaultRule(action="dup", occurrence=1)))
        decision = plan.decide(Message("X", 0, src=0, dst=1), 0)
        assert decision.drop and not decision.duplicates

    def test_rate_rules_are_seed_deterministic(self):
        def decisions(seed):
            plan = FaultPlan(rules=(drop_rule(rate=0.5),), seed=seed)
            return [plan.decide(Message("X", 0, src=0, dst=1), t).drop
                    for t in range(64)]

        assert decisions(1) == decisions(1)
        assert decisions(1) != decisions(2)
        assert any(decisions(1)) and not all(decisions(1))

    def test_max_faults_caps_injection(self):
        plan = FaultPlan(rules=(drop_rule(rate=1.0),), max_faults=3)
        dropped = sum(
            plan.decide(Message("X", 0, src=0, dst=1), t).drop
            for t in range(10))
        assert dropped == 3
        assert plan.injected == 3

    def test_stall_window_defers_arrivals(self):
        plan = FaultPlan(stalls=(StallWindow(node=1, start=100, end=500),))
        assert plan.hold_until(1, 200) == 500
        assert plan.hold_until(1, 600) == 600    # after the window
        assert plan.hold_until(0, 200) == 200    # other node unaffected
        assert plan.ledger.stalls

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            rules=(drop_rule(tag="A", occurrence=2),
                   FaultRule(action="dup", rate=0.25, limit=3)),
            stalls=(StallWindow(node=0, start=10, end=20),),
            seed=9, max_faults=7)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded.rules == plan.rules
        assert loaded.stalls == plan.stalls
        assert loaded.seed == 9
        assert loaded.max_faults == 7

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other", "v": 1}))
        with pytest.raises(FaultPlanError):
            FaultPlan.load(str(path))

    def test_bad_rule_action_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultRule(action="reorder")

    def test_budget_parse(self):
        assert FaultBudget.parse("drop=1") == FaultBudget(drop=1)
        assert FaultBudget.parse("drop=2,dup=1") == FaultBudget(drop=2,
                                                                dup=1)
        with pytest.raises(FaultPlanError):
            FaultBudget.parse("drop=x")
        with pytest.raises(FaultPlanError):
            FaultBudget.parse("explode=1")


# ---------------------------------------------------------------------------
# Determinism guards: faults never perturb the jitter RNG
# ---------------------------------------------------------------------------

class TestDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 7)),
                    min_size=1, max_size=30),
           st.integers(0, 2**16))
    def test_fault_decisions_never_touch_jitter_rng(self, messages, seed):
        """The fault plan's RNG is private: deciding the fate of any
        message stream leaves the network delay RNG state untouched."""
        network = Network(NetworkConfig(jitter=40), plan=FaultPlan(
            rules=(drop_rule(rate=0.5),
                   FaultRule(action="dup", rate=0.5)),
            seed=seed))
        before = network._rng.getstate()
        for src, dst, block in messages:
            network.plan.decide(Message("X", block, src=src, dst=dst), 0)
        assert network._rng.getstate() == before

    def test_drop_consumes_arrival_time(self):
        """A dropped message is lost at the receiver, not at the sender:
        it still draws its jitter and advances FIFO clamping, so the
        surviving messages' timing matches the reliable run exactly."""
        def arrivals(plan):
            network = Network(NetworkConfig(jitter=40), plan=plan)
            out = []
            for index in range(8):
                msg = Message("X", 0, src=0, dst=1)
                deliveries = network.deliveries(msg, index * 10)
                out.append([t for t, _kind in deliveries])
            return out, network.messages_carried

        reliable, carried_r = arrivals(FaultPlan())
        lossy, carried_l = arrivals(
            FaultPlan(rules=(drop_rule(occurrence=3),)))
        assert lossy[2] == []                    # the third message died
        assert carried_r == carried_l            # but still drew its slot
        del reliable[2], lossy[2]
        assert reliable == lossy                 # everyone else unmoved

    def test_armed_idle_plan_keeps_cycles_identical(self):
        protocol = compile_named_protocol("stache")
        base = run_gauss(protocol)
        armed = run_gauss(protocol, faults=FaultPlan(),
                          recovery=RecoveryConfig())
        assert armed.cycles == base.cycles

    def test_zero_fault_jittered_trace_matches_golden(self, tmp_path):
        """`run --seed 7 --jitter 40` is byte-identical run to run --
        golden-pinned so the fault layer can never silently shift a
        reliable-network trace."""
        trace = tmp_path / "trace.jsonl"
        simulate("stache", workload="gauss", options=SimOptions(
            nodes=2, seed=7, jitter=40, trace=str(trace)))
        with open(GOLDEN_JITTER_TRACE, "rb") as handle:
            golden = handle.read()
        assert trace.read_bytes() == golden

    def test_zero_fault_fingerprints_unchanged(self):
        """GlobalState.faults=(0,0) adds nothing to the encoding, so
        fault-free fingerprints (and old checkpoints) are stable."""
        protocol = compile_named_protocol("stache")
        checker = ModelChecker(protocol)
        plain = initial_global_state(
            protocol, 2, 1, checker.home_of, checker.events.initial)
        budgeted = initial_global_state(
            protocol, 2, 1, checker.home_of, checker.events.initial,
            faults=(1, 0))
        assert plain.faults == (0, 0)
        assert fingerprint(plain) != fingerprint(budgeted)
        assert "faults" not in state_to_jsonable(plain)
        assert state_to_jsonable(budgeted)["faults"] == [1, 0]
        assert state_from_jsonable(
            state_to_jsonable(budgeted)).faults == (1, 0)


# ---------------------------------------------------------------------------
# Tempest: drops deadlock, the watchdog recovers
# ---------------------------------------------------------------------------

class TestSimulatorFaults:
    def test_drop_without_recovery_deadlocks(self):
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                          occurrence=1),))
        with pytest.raises(RuntimeProtocolError) as excinfo:
            run_gauss(protocol, faults=plan)
        report = str(excinfo.value)
        assert "deadlock: event queue drained" in report
        assert "blocked on block" in report
        assert "fault ledger: 1 dropped" in report

    def test_watchdog_recovers_from_drop(self):
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                          occurrence=1),))
        result = run_gauss(protocol, faults=plan,
                           recovery=RecoveryConfig(timeout=2000))
        counters = result.stats.counters
        assert counters.timeouts >= 1
        assert counters.retries >= 1
        assert plan.ledger.drops

    def test_dedup_absorbs_duplicates(self):
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(FaultRule(action="dup", tag="GET_RW_REQ",
                                          occurrence=1),))
        result = run_gauss(protocol, faults=plan,
                           recovery=RecoveryConfig())
        assert result.stats.counters.dups_absorbed >= 1

    def test_duplicate_without_recovery_breaks_protocol(self):
        """The control: protocol DEFAULT arms cannot absorb an at-least-
        once network, which is why the substrate dedup cache exists."""
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(FaultRule(action="dup", tag="GET_RW_REQ",
                                          occurrence=1),))
        with pytest.raises(RuntimeProtocolError):
            run_gauss(protocol, faults=plan)

    def test_retries_exhausted_is_reported(self):
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(drop_rule(tag="GET_RO_REQ", src=1,
                                          rate=1.0),))
        with pytest.raises(RuntimeProtocolError) as excinfo:
            run_gauss(protocol, faults=plan,
                      recovery=RecoveryConfig(timeout=500, backoff=1.0,
                                              max_retries=2))
        report = str(excinfo.value)
        assert "retries exhausted" in report
        assert "fault ledger" in report

    @pytest.mark.parametrize("protocol_name,workload", [
        ("stache", "gauss"),
        ("stache_nack", "gauss"),
        ("stache_sm", "gauss"),
    ])
    def test_fault_matrix_with_recovery(self, protocol_name, workload):
        """Representative protocol x fault-kind matrix: the watchdog
        layer survives scripted drops and duplicates alike."""
        protocol = compile_named_protocol(protocol_name)
        for rules in ((drop_rule(occurrence=3),),
                      (FaultRule(action="dup", occurrence=2),),
                      (drop_rule(occurrence=2),
                       FaultRule(action="dup", occurrence=4))):
            plan = FaultPlan(rules=rules)
            result = run_gauss(protocol, faults=plan,
                               recovery=RecoveryConfig(timeout=2000))
            assert result.cycles > 0

    def test_fault_events_are_traced(self, tmp_path):
        trace = tmp_path / "faulted.jsonl"
        options = SimOptions(
            nodes=2, trace=str(trace),
            faults=FaultOptions(plan=None, drop=0.0, watchdog=True))
        protocol = compile_named_protocol("stache")
        plan = FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                          occurrence=1),))
        from repro.obs import JsonlSink, Observer

        observer = Observer(JsonlSink(str(trace)))
        config = MachineConfig(n_nodes=2, n_blocks=5, faults=plan,
                               recovery=RecoveryConfig(timeout=2000),
                               observer=observer)
        machine = Machine(protocol, gauss_programs(
            n_nodes=2, iterations=2, blocks_per_node=2, seed=3), config)
        machine.run()
        observer.close()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {event["ev"] for event in events}
        assert {"net.drop", "timeout", "retry"} <= kinds
        for event in events:
            if event["ev"] in ("net.drop", "net.dup", "timeout", "retry"):
                assert event["v"] == 3
            else:
                assert event["v"] == 2
        # v3 kinds load through the analysis engine like any other.
        from repro.obs.analyze import load_trace

        loaded = load_trace(str(trace))
        assert loaded.indices("net.drop")
        assert "DROP" in loaded.describe(loaded.indices("net.drop")[0])


# ---------------------------------------------------------------------------
# Fault-bounded model checking
# ---------------------------------------------------------------------------

class TestCheckerFaults:
    @pytest.fixture(scope="class")
    def stache(self):
        return compile_named_protocol("stache")

    def test_zero_budget_matches_baseline(self, stache):
        base = ModelChecker(stache, n_nodes=2, n_blocks=1).run()
        zero = ModelChecker(stache, n_nodes=2, n_blocks=1,
                            fault_budget=FaultBudget()).run()
        assert zero.ok == base.ok
        assert zero.states_explored == base.states_explored
        assert zero.transitions == base.transitions

    def test_drop_budget_finds_deadlock_witness(self, stache):
        result = ModelChecker(stache, n_nodes=2, n_blocks=1,
                              fault_budget=FaultBudget(drop=1)).run()
        assert not result.ok
        assert result.violation.kind == "deadlock"
        assert result.fault_budget == (1, 0)
        schedule = result.violation.fault_schedule()
        assert len(schedule) == 1
        assert schedule[0]["action"] == "drop"
        # The witness replays deterministically from the labels alone.
        final = replay_labels(
            ModelChecker(stache, n_nodes=2, n_blocks=1,
                         fault_budget=FaultBudget(drop=1)),
            result.violation.trace)
        assert final.summary() == result.violation.state.summary()

    def test_witness_plan_reproduces_in_simulator(self, stache):
        """The checker's counterexample, exported as a fault plan,
        deadlocks the timed simulator; with the watchdog on, the same
        plan completes."""
        violation = ModelChecker(
            stache, n_nodes=2, n_blocks=1,
            fault_budget=FaultBudget(drop=1)).run().violation
        with pytest.raises(RuntimeProtocolError) as excinfo:
            run_gauss(stache, faults=violation.to_fault_plan())
        assert "fault ledger: 1 dropped" in str(excinfo.value)
        result = run_gauss(stache, faults=violation.to_fault_plan(),
                           recovery=RecoveryConfig(timeout=2000))
        assert result.stats.counters.retries >= 1

    def test_dup_budget_finds_error_witness(self, stache):
        result = ModelChecker(stache, n_nodes=2, n_blocks=1,
                              fault_budget=FaultBudget(dup=1)).run()
        assert not result.ok
        assert result.violation.kind == "error"
        assert result.violation.fault_schedule()[0]["action"] == "dup"

    def test_fingerprint_mode_replays_witness(self, stache):
        result = ModelChecker(stache, n_nodes=2, n_blocks=1,
                              fault_budget=FaultBudget(drop=1),
                              fingerprint_states=True).run()
        assert not result.ok
        assert result.violation.state is not None  # replay-validated

    def test_serial_and_parallel_agree_under_faults(self, stache):
        budget = FaultBudget(drop=1)
        parallel_runs = [
            ParallelChecker(stache, n_nodes=2, n_blocks=1, workers=w,
                            fault_budget=budget).run()
            for w in (1, 2, 3)
        ]
        serial = ModelChecker(stache, n_nodes=2, n_blocks=1,
                              fault_budget=budget,
                              fingerprint_states=True).run()
        assert not serial.ok and serial.violation.kind == "deadlock"
        reference = parallel_runs[0]
        for run in parallel_runs:
            assert not run.ok
            assert run.violation.kind == "deadlock"
            assert run.violation.trace == reference.violation.trace
            assert run.states_explored == reference.states_explored
            assert run.transitions == reference.transitions
            assert run.fault_budget == (1, 0)

    def test_violation_events_carry_fault_schedule(self, stache):
        violation = ModelChecker(
            stache, n_nodes=2, n_blocks=1,
            fault_budget=FaultBudget(drop=1)).run().violation
        events = violation.to_events()
        tail = events[-1]
        assert tail["ev"] == "violation"
        assert tail["v"] == 3
        assert tail["faults"][0]["action"] == "drop"
        steps = [event for event in events if event["ev"] == "checker_step"]
        assert all(event["v"] == 2 for event in steps)

    def test_api_check_passes_budget_through(self, stache):
        serial = check("stache", CheckOptions(
            faults=FaultBudget(drop=1)))
        assert not serial.ok and serial.fault_budget == (1, 0)
        parallel = check("stache", CheckOptions(
            faults=FaultBudget(drop=1), workers=2))
        assert not parallel.ok and parallel.fault_budget == (1, 0)

    def test_deadlock_needs_empty_channels(self, stache):
        """Fault transitions never fire on an empty network, so a
        drop-budget deadlock is a genuine all-quiet wedge, and the
        budget can go unspent on passing paths."""
        result = ModelChecker(stache, n_nodes=2, n_blocks=1,
                              fault_budget=FaultBudget(drop=1)).run()
        final = result.violation.state
        assert final.messages_in_flight() == 0

    # Pinned explored-space sizes under each fault budget, verified
    # identical on the engine and its test-side reference.  Fault
    # successors run through ``ModelChecker._faulted`` (two stored
    # slots), so any edit that perturbs the rebuilt state
    # -- or dedupes it differently -- shows up here as a count shift.
    FAULT_SPACE = {
        ("stache", (1, 0)): (False, 43, 77),
        ("stache", (0, 1)): (False, 45, 72),
        ("stache", (1, 1)): (False, 68, 123),
        ("lcm_mcc", (1, 0)): (False, 180, 390),
        ("lcm_mcc", (0, 1)): (False, 137, 300),
        ("lcm_mcc", (1, 1)): (False, 202, 488),
    }

    @pytest.mark.parametrize("name,budget", sorted(FAULT_SPACE))
    def test_fault_bounded_space_is_pinned(self, name, budget):
        expected = self.FAULT_SPACE[(name, budget)]
        for cls in (ModelChecker, ReferenceChecker):
            result = checker_for(cls, name,
                                 faults=FaultBudget(*budget)).run()
            assert (result.ok, result.states_explored,
                    result.transitions) == expected, cls


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCliFaults:
    def test_run_fault_deadlock_is_friendly(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                   occurrence=1),)).save(str(plan_path))
        code = main(["run", "stache", "gauss", "--nodes", "2",
                     "--fault-plan", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: simulation failed: deadlock" in captured.err
        assert "--watchdog" in captured.err

    def test_run_watchdog_recovers(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                   occurrence=1),)).save(str(plan_path))
        code = main(["run", "stache", "gauss", "--nodes", "2",
                     "--fault-plan", str(plan_path), "--watchdog"])
        captured = capsys.readouterr()
        assert code == 0
        assert "injected:   1 dropped" in captured.out
        assert "recovery:" in captured.out

    def test_verify_faults_writes_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "witness.json"
        code = main(["verify", "stache", "--faults", "drop=1",
                     "--fault-plan-out", str(plan_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "DEADLOCK" in captured.out
        assert "drop GET_RO_RESP" in captured.out
        loaded = FaultPlan.load(str(plan_path))
        assert loaded.rules[0].tag == "GET_RO_RESP"

    def test_verify_bad_faults_spec(self, capsys):
        code = main(["verify", "stache", "--faults", "banana=1"])
        assert code == 1
        assert "--faults" in capsys.readouterr().err

    def test_coverage_fault_only(self, capsys):
        code = main(["analyze", "coverage", "--verify", "stache",
                     "--faults", "dup=1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "arms reachable only under faults" in captured.out
        assert "[error guard]" in captured.out

    def test_run_metrics_show_retries(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        metrics_path = tmp_path / "metrics.json"
        FaultPlan(rules=(drop_rule(tag="GET_RO_RESP",
                                   occurrence=1),)).save(str(plan_path))
        assert main(["run", "stache", "gauss", "--nodes", "2",
                     "--fault-plan", str(plan_path), "--watchdog",
                     "--metrics", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics_path)]) == 0
        report = capsys.readouterr().out
        assert "retry" in report
        assert "retries=" in report
