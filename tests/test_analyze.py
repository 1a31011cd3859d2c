"""Tests for the trace-analysis engine (repro.obs.analyze).

Covers trace loading and schema validation, happens-before vector
clocks (property-tested over random workloads), the Figure-11 causal
renderer (golden output), critical-path fault attribution, handler
coverage from traces and checker explorations (including an
intentionally unreachable fixture arm), trace/coverage diffs, and the
``teapot analyze`` CLI.  Regenerate the causal golden with::

    PYTHONPATH=src python tests/test_analyze.py --regen
"""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import JsonlSink, Observer
from repro.obs.analyze import (
    Trace,
    TraceError,
    arm_universe,
    causal_chain,
    causal_edges,
    coverage_from_checker,
    coverage_from_trace,
    diff_coverage,
    diff_traces,
    fault_paths,
    format_causal,
    format_critical_path,
    happens_before,
    load_coverage,
    load_trace,
    vector_clocks,
)
from repro.compiler.ir import is_error_guard
from repro.compiler.pipeline import compile_source
from repro.protocols import compile_named_protocol
from repro.runtime.protocol import OptLevel
from repro.tempest.machine import Machine, MachineConfig
from repro.verify import ModelChecker
from repro.verify.events import StacheEvents
from repro.verify.invariants import standard_invariants

from helpers import MINI_SOURCE, compile_mini, random_sharing_programs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_TRACE = os.path.join(GOLDEN_DIR, "stache_2node.trace.jsonl")
GOLDEN_CAUSAL = os.path.join(GOLDEN_DIR, "stache_2node.causal.txt")

# Mini plus one handler no execution can reach: nothing ever sends
# PING, so coverage must flag Cache_Holding.PING as dead.
UNREACHABLE_SOURCE = MINI_SOURCE.replace(
    "  Message PUT_RESP;",
    "  Message PUT_RESP;\n  Message PING;",
).replace(
    """State Mini.Cache_Holding{}
Begin
""",
    """State Mini.Cache_Holding{}
Begin
  Message PING (id : ID; Var info : INFO; src : NODE)
  Begin
    owner := src;
  End;

""",
)


def trace_of(programs, n_nodes, n_blocks, protocol_name="stache"):
    """Run a Stache machine over ``programs``, returning (Trace, stats)."""
    protocol = compile_named_protocol(protocol_name)
    buffer = io.StringIO()
    config = MachineConfig(n_nodes=n_nodes, n_blocks=n_blocks,
                           observer=Observer(JsonlSink(buffer)))
    machine = Machine(protocol, programs, config)
    result = machine.run()
    events = [json.loads(line) for line in
              buffer.getvalue().splitlines()]
    return Trace(events, path="<memory>"), result.stats


def check_mini(n_nodes=2, n_blocks=1, reorder=0):
    mini = compile_mini()
    checker = ModelChecker(mini, n_nodes=n_nodes, n_blocks=n_blocks,
                           reorder_bound=reorder,
                           events=StacheEvents(),
                           invariants=standard_invariants(coherent=True))
    result = checker.run()
    assert result.ok
    return coverage_from_checker(mini, result)


def default_causal_target(trace):
    """Same anchor rule as the CLI: last error/nack/delivery."""
    return trace.indices("error", "nack", "deliver")[-1]


# ---------------------------------------------------------------------------
# Trace loading and schema validation


class TestTraceLoading:

    def test_golden_trace_loads(self):
        trace = load_trace(GOLDEN_TRACE)
        assert len(trace.events) > 0
        assert trace.n_nodes == 2
        assert all("v" in event for event in trace.events)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="no such file"):
            load_trace(str(tmp_path / "nope.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "send", "v": 2}\nnot json\n')
        with pytest.raises(TraceError, match=":2: not valid JSON"):
            load_trace(str(path))

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_unversioned_event_rejected(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text('{"ev": "send", "t": 0, "seq": 0}\n')
        with pytest.raises(TraceError, match="schema v1"):
            load_trace(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"ev": "send", "v": 99, "t": 0}\n')
        with pytest.raises(TraceError, match="99"):
            load_trace(str(path))

    def test_missing_ev_field(self, tmp_path):
        path = tmp_path / "noev.jsonl"
        path.write_text('{"t": 0, "v": 2}\n')
        with pytest.raises(TraceError, match="ev"):
            load_trace(str(path))

    def test_describe_covers_every_event(self):
        trace = load_trace(GOLDEN_TRACE)
        for index in range(len(trace.events)):
            assert trace.describe(index)


# ---------------------------------------------------------------------------
# Happens-before / vector clocks


def assert_edges_respect_clocks(trace):
    clocks = vector_clocks(trace)
    edges = causal_edges(trace)
    # A random program may produce no cross-node traffic at all; only
    # demand edges when the trace actually carried messages.
    if trace.indices("send"):
        assert edges, "expected at least one causal edge"
    for src, dst, _kind in edges:
        assert happens_before(clocks[src], clocks[dst]), (
            f"edge #{src} -> #{dst} violates the vector-clock order")
    return clocks


class TestHappensBefore:

    def test_golden_edges_respect_vector_clocks(self):
        trace = load_trace(GOLDEN_TRACE)
        clocks = assert_edges_respect_clocks(trace)
        # Sends precede their deliveries explicitly (the acceptance
        # property: every seq pair is ordered).
        for index in trace.indices("deliver"):
            send = trace.send_of_seq[trace.events[index]["seq"]]
            assert happens_before(clocks[send], clocks[index])

    def test_happens_before_is_irreflexive(self):
        trace = load_trace(GOLDEN_TRACE)
        clocks = vector_clocks(trace)
        for clock in clocks:
            assert not happens_before(clock, clock)

    def test_partial_order_has_concurrency(self):
        # Two nodes working independently must produce at least one
        # genuinely concurrent pair, or this is a total order and the
        # "partial" in the acceptance criterion is vacuous.
        trace = load_trace(GOLDEN_TRACE)
        clocks = vector_clocks(trace)
        concurrent = any(
            not happens_before(clocks[i], clocks[j])
            and not happens_before(clocks[j], clocks[i])
            for i in range(len(clocks))
            for j in range(i + 1, len(clocks)))
        assert concurrent

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 4))
    def test_random_trace_edges_respect_vector_clocks(self, seed,
                                                      n_nodes):
        programs = random_sharing_programs(n_nodes, n_blocks=2,
                                           ops_per_node=4, seed=seed)
        trace, _stats = trace_of(programs, n_nodes, n_blocks=2)
        assert_edges_respect_clocks(trace)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_causal_chain_edges_respect_clocks(self, seed):
        programs = random_sharing_programs(3, n_blocks=2,
                                           ops_per_node=4, seed=seed)
        trace, _stats = trace_of(programs, 3, n_blocks=2)
        clocks = vector_clocks(trace)
        target = default_causal_target(trace)
        members, edges = causal_chain(trace, target)
        assert target in members
        for src, dst, _kind in edges:
            assert happens_before(clocks[src], clocks[dst])


# ---------------------------------------------------------------------------
# Causal rendering (Figure 11)


class TestCausal:

    def test_golden_causal_output_is_byte_stable(self):
        trace = load_trace(GOLDEN_TRACE)
        rendered = format_causal(trace, default_causal_target(trace))
        with open(GOLDEN_CAUSAL) as handle:
            assert rendered == handle.read()

    def test_chain_edges_respect_vector_clocks(self):
        trace = load_trace(GOLDEN_TRACE)
        clocks = vector_clocks(trace)
        target = default_causal_target(trace)
        members, edges = causal_chain(trace, target)
        assert target in members
        for src, dst, _kind in edges:
            assert happens_before(clocks[src], clocks[dst])
        # Every chain member (except the target) reaches somewhere:
        # the chain is connected, not a bag of events.
        sources = {src for src, _dst, _kind in edges}
        for member in members:
            if member != target:
                assert member in sources

    def test_bad_target_raises(self):
        trace = load_trace(GOLDEN_TRACE)
        with pytest.raises(TraceError):
            causal_chain(trace, len(trace.events) + 5)

    def test_render_mentions_target(self):
        trace = load_trace(GOLDEN_TRACE)
        target = default_causal_target(trace)
        out = format_causal(trace, target)
        assert "<-- target" in out
        assert f"#{target}" in out


# ---------------------------------------------------------------------------
# Critical path


class TestCriticalPath:

    def test_segments_partition_each_fault_window(self):
        programs = random_sharing_programs(3, n_blocks=2,
                                           ops_per_node=5, seed=7)
        trace, _stats = trace_of(programs, 3, n_blocks=2)
        paths = fault_paths(trace)
        assert paths
        for path in paths:
            assert path.segments
            assert path.segments[0].start == path.start
            assert path.segments[-1].end == path.end
            for left, right in zip(path.segments, path.segments[1:]):
                assert left.end == right.start
            assert sum(s.cycles for s in path.segments) == path.wait

    def test_async_wait_matches_simulator_stats(self):
        # The decomposition must account for exactly the cycles the
        # simulator itself booked as fault-wait time, per node.
        programs = random_sharing_programs(3, n_blocks=2,
                                           ops_per_node=5, seed=11)
        trace, stats = trace_of(programs, 3, n_blocks=2)
        by_node = {}
        for path in fault_paths(trace):
            if not path.sync:
                by_node[path.node] = by_node.get(path.node, 0) + path.wait
        for node_stats in stats.nodes:
            assert by_node.get(node_stats.node, 0) == \
                node_stats.fault_wait_cycles

    def test_format_reports_fault_count(self):
        trace = load_trace(GOLDEN_TRACE)
        out = format_critical_path(trace, per_fault=2)
        assert out.startswith("critical path:")
        assert "fault_wait_cycles" in out

    def test_no_faults_is_fine(self):
        events = [{"ev": "send", "v": 2, "t": 0, "seq": 0, "src": 0,
                   "dst": 1, "tag": "X", "block": 0}]
        trace = Trace(events)
        assert fault_paths(trace) == []


# ---------------------------------------------------------------------------
# Coverage


class TestCoverage:

    def test_error_guard_detection(self):
        mini = compile_mini()
        guard = mini.handlers[("Home_Idle", "DEFAULT")]
        enqueue = mini.handlers[("Home_Wait", "DEFAULT")]
        assert is_error_guard(guard)
        assert not is_error_guard(enqueue)

    def test_mini_reaches_full_coverage_under_reordering(self):
        # The acceptance run: an exhaustive exploration that fires
        # every coverable arm (error guards excluded -- a passing
        # verification must never fire those).
        report = check_mini(n_nodes=2, n_blocks=1, reorder=1)
        assert report.fraction == 1.0
        assert report.unreached == []
        assert len(report.guards) == 3
        assert "100.0%" in report.headline()

    def test_mini_fifo_misses_the_enqueue_arms(self):
        # Under FIFO delivery the Transient-state Enqueue arms never
        # fire -- reordering is what makes them reachable, which is
        # precisely the paper's motivation for them.
        report = check_mini(n_nodes=2, n_blocks=1, reorder=0)
        assert report.unreached == ["Cache_Wait.DEFAULT",
                                    "Home_Wait.DEFAULT"]

    def test_unreachable_fixture_arm_is_flagged(self):
        protocol = compile_source(
            UNREACHABLE_SOURCE, opt_level=OptLevel.O2,
            initial_states=("Home_Idle", "Cache_Invalid"))
        arms, guards = arm_universe(protocol)
        assert "Cache_Holding.PING" in arms
        assert "Cache_Holding.PING" not in guards
        checker = ModelChecker(
            protocol, n_nodes=2, n_blocks=1, reorder_bound=1,
            events=StacheEvents(),
            invariants=standard_invariants(coherent=True))
        result = checker.run()
        assert result.ok
        report = coverage_from_checker(protocol, result)
        assert report.unreached == ["Cache_Holding.PING"]
        assert "Cache_Holding.PING" in report.summary_line()

    def test_stache_structurally_dead_home_fault_arms(self):
        # In Stache the home node always holds READ_WRITE while in
        # Home_Idle, so its own fault arms there can never fire; the
        # checker proves it by exhaustion.
        protocol = compile_named_protocol("stache")
        checker = ModelChecker(
            protocol, n_nodes=3, n_blocks=1, reorder_bound=1,
            events=StacheEvents(),
            invariants=standard_invariants(coherent=True))
        result = checker.run()
        assert result.ok
        report = coverage_from_checker(protocol, result)
        assert report.unreached == ["Home_Idle.RD_FAULT",
                                    "Home_Idle.WR_FAULT",
                                    "Home_Idle.WR_RO_FAULT"]

    def test_trace_coverage_counts_handler_entries(self):
        trace = load_trace(GOLDEN_TRACE)
        protocol = compile_named_protocol("stache")
        report = coverage_from_trace(trace, protocol)
        assert sum(report.fired.values()) == \
            len(trace.indices("handler_entry"))
        assert 0 < report.covered < len(report.arms)

    def test_trace_against_wrong_protocol(self):
        trace = load_trace(GOLDEN_TRACE)
        with pytest.raises(TraceError, match="wrong protocol"):
            coverage_from_trace(trace, compile_mini())

    def test_report_round_trips_through_json(self, tmp_path):
        report = check_mini(reorder=1)
        path = str(tmp_path / "cov.json")
        report.save(path)
        loaded = load_coverage(path)
        assert loaded.fired == report.fired
        assert loaded.arms == report.arms
        assert loaded.guards == report.guards
        assert loaded.config == {k: v for k, v in
                                 report.config.items()}

    def test_load_coverage_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "notcov.json"
        path.write_text('{"kind": "something-else", "version": 1}\n')
        with pytest.raises(TraceError, match="not a coverage report"):
            load_coverage(str(path))

    def test_load_coverage_friendly_errors(self, tmp_path):
        with pytest.raises(TraceError, match="no such file"):
            load_coverage(str(tmp_path / "nope.json"))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_coverage(str(empty))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TraceError, match="not valid JSON"):
            load_coverage(str(bad))


# ---------------------------------------------------------------------------
# Diff


class TestDiff:

    def test_trace_diffed_with_itself_shows_no_deltas(self):
        trace = load_trace(GOLDEN_TRACE)
        out = diff_traces(trace, trace)
        assert "+" not in out.replace("->", "")
        assert "events by kind:" in out

    def test_trace_diff_reports_deltas(self):
        a, _ = trace_of(random_sharing_programs(2, 2, 3, seed=1), 2, 2)
        b, _ = trace_of(random_sharing_programs(2, 2, 6, seed=1), 2, 2)
        out = diff_traces(a, b)
        assert "handler dispatches:" in out
        assert "+" in out

    def test_coverage_diff_shows_newly_covered(self):
        fifo = check_mini(reorder=0)
        reordered = check_mini(reorder=1)
        out = diff_coverage(fifo, reordered)
        assert "newly covered in B:" in out
        assert "Cache_Wait.DEFAULT" in out
        assert "Home_Wait.DEFAULT" in out

    def test_coverage_diff_same(self):
        report = check_mini(reorder=1)
        out = diff_coverage(report, report)
        assert "same arms covered in both" in out


# ---------------------------------------------------------------------------
# CLI


class TestAnalyzeCLI:

    def test_causal_matches_golden(self, capsys):
        assert main(["analyze", "causal", GOLDEN_TRACE]) == 0
        with open(GOLDEN_CAUSAL) as handle:
            assert capsys.readouterr().out == handle.read()

    def test_causal_explicit_event(self, capsys):
        trace = load_trace(GOLDEN_TRACE)
        target = trace.indices("deliver")[0]
        assert main(["analyze", "causal", GOLDEN_TRACE,
                     "--event", str(target)]) == 0
        assert "<-- target" in capsys.readouterr().out

    def test_causal_kind_anchor(self, capsys):
        assert main(["analyze", "causal", GOLDEN_TRACE,
                     "--kind", "fault_end"]) == 0
        assert "fault done" in capsys.readouterr().out

    def test_causal_missing_kind(self, capsys):
        assert main(["analyze", "causal", GOLDEN_TRACE,
                     "--kind", "nack"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_critical_path(self, capsys):
        assert main(["analyze", "critical-path", GOLDEN_TRACE,
                     "--per-fault", "1"]) == 0
        assert "critical path:" in capsys.readouterr().out

    def saved_mini_coverage(self, tmp_path, *flags):
        """`verify mini.tea ... --coverage-out`: the saved report's path."""
        tea = tmp_path / "mini.tea"
        tea.write_text(MINI_SOURCE)
        saved = str(tmp_path / "verified.json")
        assert main(["verify", str(tea), *flags,
                     "--coverage-out", saved]) == 0
        return saved

    def test_coverage_renders_saved_report(self, tmp_path, capsys):
        saved = self.saved_mini_coverage(tmp_path, "--reorder", "1")
        out_json = str(tmp_path / "cov.json")
        capsys.readouterr()
        assert main(["analyze", "coverage", saved, "--strict",
                     "-o", out_json]) == 0
        out = capsys.readouterr().out
        assert "handler coverage: 10/10 arms fired (100.0%)" in out
        assert "source: checker" in out
        assert load_coverage(out_json) == load_coverage(saved)

    def test_coverage_strict_fails_on_unreached(self, tmp_path,
                                                capsys):
        saved = self.saved_mini_coverage(tmp_path)
        capsys.readouterr()
        assert main(["analyze", "coverage", saved]) == 0
        assert main(["analyze", "coverage", saved, "--strict"]) == 1
        assert "never fired:" in capsys.readouterr().out

    def test_coverage_trace_needs_protocol(self, capsys):
        assert main(["analyze", "coverage", GOLDEN_TRACE]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {GOLDEN_TRACE}: a trace; analyze coverage "
                       "needs --protocol to know the arm universe\n")

    def test_coverage_of_golden_trace(self, capsys):
        assert main(["analyze", "coverage", GOLDEN_TRACE,
                     "--protocol", "stache"]) == 0
        assert "handler coverage:" in capsys.readouterr().out

    def test_coverage_refuses_other_artifacts(self, tmp_path, capsys):
        profile = str(tmp_path / "p.json")
        assert main(["verify", "stache", "--profile-out", profile]) == 0
        capsys.readouterr()
        assert main(["analyze", "coverage", profile]) == 1
        err = capsys.readouterr().err
        assert "a check-profile, not a coverage report" in err
        assert err.count("\n") == 1

    def test_diff_coverage_files(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        check_mini(reorder=0).save(a)
        check_mini(reorder=1).save(b)
        assert main(["analyze", "diff", a, b]) == 0
        assert "newly covered in B:" in capsys.readouterr().out

    def test_diff_traces_cli(self, capsys):
        assert main(["analyze", "diff", GOLDEN_TRACE,
                     GOLDEN_TRACE]) == 0
        assert "events by kind:" in capsys.readouterr().out

    def test_diff_mixed_kinds_rejected(self, tmp_path, capsys):
        cov = str(tmp_path / "a.json")
        check_mini(reorder=0).save(cov)
        assert main(["analyze", "diff", GOLDEN_TRACE, cov]) == 1
        assert "cannot diff" in capsys.readouterr().err

    def test_missing_trace_is_one_line_error(self, capsys):
        assert main(["analyze", "causal", "/no/such/file.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_trace_is_one_line_error(self, tmp_path,
                                               capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main(["analyze", "critical-path", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_verify_coverage_out(self, tmp_path, capsys):
        out_json = str(tmp_path / "cov.json")
        assert main(["verify", "stache", "--nodes", "2",
                     "--coverage-out", out_json]) == 0
        assert "handler coverage:" in capsys.readouterr().out
        report = load_coverage(out_json)
        assert report.protocol == "Stache"
        assert report.source == "checker"


class TestReportCLI:

    def test_report_missing_file(self, capsys):
        assert main(["report", "/no/such/metrics.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no such file" in err

    def test_report_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_report_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "JSON" in err

    def test_report_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('[1, 2, 3]')
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


def regenerate_golden():
    trace = load_trace(GOLDEN_TRACE)
    rendered = format_causal(trace, default_causal_target(trace))
    with open(GOLDEN_CAUSAL, "w") as handle:
        handle.write(rendered)
    print(f"wrote {GOLDEN_CAUSAL} "
          f"({len(rendered.splitlines())} lines)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate_golden()
    else:
        print("usage: python tests/test_analyze.py --regen")
