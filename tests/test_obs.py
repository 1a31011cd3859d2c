"""Tests for the observability subsystem (repro.obs).

Covers the sinks, the metrics registry, the Observer facade, the
simulator instrumentation (golden trace + cycle-identity properties),
the checker progress/trace-out plumbing, and the SimulationLimitError
satellite.  Regenerate the golden trace with::

    PYTHONPATH=src python tests/test_obs.py --regen
"""

import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.errors import RuntimeProtocolError, SimulationLimitError
from repro.obs import (
    ChromeTraceSink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Observer,
    TraceSink,
    format_metrics,
    open_sink,
)
from repro.obs.metrics import HandlerMetrics, N_BUCKETS, load_metrics
from repro.obs.sinks import (
    MIN_SCHEMA_VERSION,
    NULL_SINK,
    SCHEMA_VERSION,
    V_CORE,
)
from repro.protocols import compile_named_protocol
from repro.runtime.context import RuntimeCounters
from repro.tempest.machine import Machine, MachineConfig
from repro.tempest.stats import MachineStats, NodeStats
from repro.verify import ModelChecker, events_for_protocol
from repro.verify.invariants import standard_invariants

from helpers import random_sharing_programs

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_TRACE = os.path.join(GOLDEN_DIR, "stache_2node.trace.jsonl")
GOLDEN_CHROME = os.path.join(GOLDEN_DIR, "stache_2node.trace.chrome.json")

# The deterministic 2-node scenario behind the golden trace: node 0
# writes its home block then reads the remote one; node 1 mirrors it.
GOLDEN_PROGRAMS = [
    [("write", 0, 7), ("barrier",), ("read", 1), ("barrier",)],
    [("barrier",), ("read", 0), ("write", 1, 9), ("barrier",)],
]


def run_golden_scenario(sink, metrics=None):
    """Run the fixed 2-node Stache scenario under ``sink``."""
    protocol = compile_named_protocol("stache")
    config = MachineConfig(n_nodes=2, n_blocks=2,
                           observer=Observer(sink, metrics))
    machine = Machine(protocol, GOLDEN_PROGRAMS, config)
    return machine.run()


def run_gauss(protocol_name, n_nodes, observer=None):
    """One Table 1 gauss cell, optionally observed."""
    from repro.workloads import STACHE_WORKLOADS, run_workload

    factory, blocks_fn = STACHE_WORKLOADS["gauss"]
    protocol = compile_named_protocol(protocol_name)
    programs = factory(n_nodes=n_nodes)
    config = None
    if observer is not None:
        config = MachineConfig(n_nodes=n_nodes, n_blocks=blocks_fn(n_nodes),
                               observer=observer)
    return run_workload(protocol, "gauss", programs, blocks_fn(n_nodes),
                        config=config)


class TestSinks:
    def test_null_sink_is_falsy_and_silent(self):
        sink = NullSink()
        assert not sink
        sink.emit({"ev": "anything"})  # no-op, no error
        sink.close()
        assert isinstance(NULL_SINK, NullSink)

    def test_jsonl_sink_writes_one_object_per_line(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit({"ev": "send", "seq": 1})
        sink.emit({"ev": "deliver", "seq": 1, "reorder": False})
        sink.close()
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert sink.events_written == 2
        assert json.loads(lines[0]) == {"ev": "send", "seq": 1}
        assert json.loads(lines[1])["reorder"] is False

    def test_jsonl_sink_close_is_idempotent(self):
        sink = JsonlSink(io.StringIO())
        sink.close()
        sink.close()

    def test_sinks_are_context_managers(self):
        buffer = io.StringIO()
        with JsonlSink(buffer) as sink:
            sink.emit({"ev": "state"})
        assert buffer.getvalue().strip() == '{"ev":"state"}'

    def test_chrome_sink_output_is_valid_json(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        sink.emit({"ev": "handler_entry", "t": 0, "node": 0, "block": 0,
                   "state": "Home_Idle", "msg": "GET_RO", "src": 1})
        sink.emit({"ev": "handler_exit", "t": 40, "node": 0, "block": 0,
                   "state": "Home_Idle", "msg": "GET_RO", "start": 0,
                   "cycles": 40})
        sink.emit({"ev": "send", "t": 10, "seq": 1, "tag": "GET_RO_RESP",
                   "block": 0, "src": 0, "dst": 1, "data": True,
                   "arrival": 110})
        sink.emit({"ev": "fault_end", "t": 120, "node": 1, "block": 0,
                   "start": 5, "wait": 115})
        sink.close()
        rows = json.loads(buffer.getvalue())
        assert isinstance(rows, list) and rows
        for row in rows:
            assert {"ph", "pid", "tid"} <= set(row)
        slices = [r for r in rows if r["ph"] == "X"]
        assert {s["name"] for s in slices} == \
            {"Home_Idle.GET_RO", "fault wait b0"}
        # Protocol and app activity land on distinct per-node rows.
        meta = {r["args"]["name"] for r in rows if r["ph"] == "M"}
        assert "node 0 protocol" in meta and "node 1 app" in meta

    def test_chrome_sink_empty_trace_is_valid(self):
        buffer = io.StringIO()
        ChromeTraceSink(buffer).close()
        assert json.loads(buffer.getvalue()) == []

    def test_open_sink_dispatch(self, tmp_path):
        assert open_sink(None) is NULL_SINK
        jsonl = open_sink(str(tmp_path / "t.jsonl"), "jsonl")
        chrome = open_sink(str(tmp_path / "t.json"), "chrome")
        assert isinstance(jsonl, JsonlSink)
        assert isinstance(chrome, ChromeTraceSink)
        jsonl.close()
        chrome.close()
        with pytest.raises(ValueError, match="unknown trace format"):
            open_sink("x", "xml")

    def test_base_sink_requires_emit(self):
        with pytest.raises(NotImplementedError):
            TraceSink().emit({})


class TestMetrics:
    def test_handler_metrics_aggregation(self):
        metrics = HandlerMetrics()
        for cycles in (0, 1, 3, 100):
            metrics.record_dispatch(cycles)
        assert metrics.dispatches == 4
        assert metrics.cycles == 104
        assert metrics.min_cycles == 0
        assert metrics.max_cycles == 100
        assert metrics.mean_cycles == pytest.approx(26.0)
        assert metrics.hist[0] == 1          # zero-cycle dispatch
        assert metrics.hist[1] == 1          # 1 cycle
        assert metrics.hist[2] == 1          # 3 cycles -> bucket 2
        assert metrics.hist[(100).bit_length()] == 1
        assert sum(metrics.hist) == 4
        assert len(metrics.hist) == N_BUCKETS

    def test_histogram_clamps_huge_values(self):
        metrics = HandlerMetrics()
        metrics.record_dispatch(2 ** 40)
        assert metrics.hist[N_BUCKETS - 1] == 1

    def test_registry_round_trips_through_json(self, tmp_path):
        registry = MetricsRegistry("stache")
        registry.record_dispatch("Home_Idle", "GET_RO", 40)
        registry.record_suspend("Home_Idle", "GET_RO", static=True)
        registry.record_queue("Home_Wait", "PUT", depth=3)
        registry.gauge("execution_cycles", 1234)
        path = str(tmp_path / "metrics.json")
        registry.save(path)
        data = load_metrics(path)
        assert data == registry.to_json()
        assert data["protocol"] == "stache"
        by_name = {(h["state"], h["msg"]): h for h in data["handlers"]}
        assert by_name[("Home_Idle", "GET_RO")]["static_conts"] == 1
        assert by_name[("Home_Wait", "PUT")]["queue_hwm"] == 3
        report = format_metrics(data)
        assert "Home_Idle.GET_RO" in report
        assert "execution_cycles=1234" in report

    def test_handlers_export_sorted_by_cycles(self):
        registry = MetricsRegistry()
        registry.record_dispatch("A", "X", 10)
        registry.record_dispatch("B", "Y", 500)
        rows = registry.to_json()["handlers"]
        assert [r["state"] for r in rows] == ["B", "A"]

    def test_ingest_counters_is_pure_delegation(self):
        counters = RuntimeCounters()
        counters.cont_allocs = 7
        counters.messages_sent = 42
        registry = MetricsRegistry()
        registry.ingest_counters(counters)
        assert registry.totals["cont_allocs"] == 7
        assert registry.totals["messages_sent"] == 42
        assert set(registry.totals) == set(counters.__dataclass_fields__)

    def test_stats_write_metrics_matches_summary(self):
        result = run_golden_scenario(None, None)
        registry = MetricsRegistry("stache")
        result.stats.write_metrics(registry)
        assert registry.totals["messages_sent"] == \
            result.stats.counters.messages_sent
        assert registry.gauges["execution_cycles"] == \
            result.stats.execution_cycles


class TestObserver:
    def test_suspend_resume_share_continuation_identity(self):
        buffer = io.StringIO()
        obs = Observer(JsonlSink(buffer))
        obs.suspend(0, 1, "Home_Idle.GET_RW", 2, static=False,
                    saved=("owner",), to_state="Home_Wait", t=10)
        obs.resume(1, 1, "Home_Idle.GET_RW", 2, direct=True, t=50)
        obs.close()
        suspend, resume = map(json.loads, buffer.getvalue().splitlines())
        assert suspend["cont"] == resume["cont"] == "Home_Idle.GET_RW#2"
        assert suspend["saved"] == ["owner"]
        assert resume["direct"] is True

    def test_dispositions_attributed_to_current_handler(self):
        buffer = io.StringIO()
        metrics = MetricsRegistry()
        obs = Observer(JsonlSink(buffer), metrics)
        obs.handler_entry(0, 0, "Home_Wait", "GET_RO", src=1, t=0)
        obs.queue_defer(0, 0, "GET_RO", depth=2, t=5)
        obs.handler_exit(0, 0, "Home_Wait", "GET_RO", start=0, end=9)
        obs.nack(0, 0, "NACK", dst=1, t=20)  # outside any handler
        obs.close()
        events = [json.loads(line) for line in
                  buffer.getvalue().splitlines()]
        queue = next(e for e in events if e["ev"] == "queue")
        assert (queue["state"], queue["msg"]) == ("Home_Wait", "GET_RO")
        nack = next(e for e in events if e["ev"] == "nack")
        assert "state" not in nack
        handler = metrics.handler("Home_Wait", "GET_RO")
        assert handler.dispatches == 1 and handler.queue_allocs == 1

    def test_metrics_only_observer_needs_no_sink(self):
        metrics = MetricsRegistry()
        obs = Observer(None, metrics)
        obs.handler_entry(0, 0, "S", "M", src=0, t=0)
        obs.handler_exit(0, 0, "S", "M", start=0, end=12)
        obs.close()
        assert metrics.handler("S", "M").cycles == 12

    def test_active_reflects_enabled_channels(self):
        assert not Observer().active
        assert not Observer(NullSink()).active
        assert Observer(JsonlSink(io.StringIO())).active
        assert Observer(None, MetricsRegistry()).active

    def test_machine_drops_inactive_observer(self):
        """The NullSink fast path: an all-off Observer must not slow the
        run down, so the machine holds obs=None for it and every emit
        site takes the uninstrumented branch."""
        protocol = compile_named_protocol("stache")
        inert = Machine(protocol, GOLDEN_PROGRAMS,
                        MachineConfig(n_nodes=2, n_blocks=2,
                                      observer=Observer()))
        assert inert.obs is None
        assert all(node.ctx.obs is None for node in inert.nodes)
        live = Machine(protocol, GOLDEN_PROGRAMS,
                       MachineConfig(n_nodes=2, n_blocks=2,
                                     observer=Observer(
                                         JsonlSink(io.StringIO()))))
        assert live.obs is not None


class TestGoldenTrace:
    """The structured trace of a fixed 2-node Stache run, line for line.

    Regenerate with ``PYTHONPATH=src python tests/test_obs.py --regen``
    when the schema or the instrumentation points intentionally change.
    """

    def test_trace_matches_golden_file(self):
        buffer = io.StringIO()
        run_golden_scenario(JsonlSink(buffer))
        with open(GOLDEN_TRACE) as handle:
            golden = handle.read()
        assert buffer.getvalue() == golden

    def test_chrome_trace_matches_golden_file(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        run_golden_scenario(sink)
        sink.close()
        with open(GOLDEN_CHROME) as handle:
            golden = handle.read()
        assert buffer.getvalue() == golden

    def test_every_event_is_schema_stamped(self):
        with open(GOLDEN_TRACE) as handle:
            events = [json.loads(line) for line in handle]
        # Core kinds are stamped with the version they last changed in
        # (v=2), which must sit inside the readable range.
        assert all(event["v"] == V_CORE for event in events)
        assert MIN_SCHEMA_VERSION <= V_CORE <= SCHEMA_VERSION

    def test_golden_trace_is_internally_consistent(self):
        with open(GOLDEN_TRACE) as handle:
            events = [json.loads(line) for line in handle]
        kinds = {event["ev"] for event in events}
        assert {"handler_entry", "handler_exit", "send", "deliver",
                "fault_begin", "fault_end", "state"} <= kinds
        # Every delivery matches an earlier send with the same seq.
        sends = {e["seq"] for e in events if e["ev"] == "send"}
        delivered = {e["seq"] for e in events if e["ev"] == "deliver"}
        assert delivered == sends
        # FIFO network: nothing is flagged reordered.
        assert not any(e["reorder"] for e in events
                       if e["ev"] == "deliver")
        # Fault windows are well formed.
        for event in events:
            if event["ev"] == "fault_end":
                assert event["wait"] == event["t"] - event["start"] >= 0
        # Timestamps never run backwards per node.
        last = {}
        for event in events:
            node = event.get("node")
            if node is None:
                continue
            assert event["t"] >= last.get(node, 0)
            last[node] = event["t"]


# Pre-obs Table 1 smoke numbers (captured on the seed revision before
# repro.obs existed): instrumented or not, these must not move.
TABLE1_BASELINES = [
    ("stache", "gauss", 4, 29660),
    ("stache", "gauss", 8, 36191),
    ("stache", "mp3d", 4, 46055),
    ("stache_sm", "gauss", 4, 27952),
]


class TestCycleIdentity:
    @pytest.mark.parametrize("protocol,workload,n_nodes,cycles",
                             TABLE1_BASELINES)
    def test_observed_runs_match_pre_obs_baselines(self, protocol, workload,
                                                   n_nodes, cycles):
        from repro.workloads import STACHE_WORKLOADS, run_workload

        factory, blocks_fn = STACHE_WORKLOADS[workload]
        compiled = compile_named_protocol(protocol)
        programs = factory(n_nodes=n_nodes)
        observer = Observer(JsonlSink(io.StringIO()), MetricsRegistry())
        config = MachineConfig(n_nodes=n_nodes, n_blocks=blocks_fn(n_nodes),
                               observer=observer)
        result = run_workload(compiled, workload, programs,
                              blocks_fn(n_nodes), config=config)
        assert result.cycles == cycles
        # Delegated totals agree with the stats the tables are built from.
        assert observer.metrics.totals["messages_sent"] == \
            result.stats.counters.messages_sent
        assert observer.metrics.gauges["execution_cycles"] == cycles

    def test_null_sink_run_is_bit_identical_to_unobserved(self):
        bare = run_gauss("stache", 4)
        null = run_gauss("stache", 4, observer=Observer())
        assert null.cycles == bare.cycles == 29660
        assert null.stats.summary() == bare.stats.summary()

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=10, deadline=None)
    def test_observation_never_perturbs_the_simulation(self, seed):
        """Unobserved, NullSink, and fully traced runs are identical."""
        protocol = compile_named_protocol("stache")
        programs = random_sharing_programs(3, 2, 8, seed=seed)
        summaries = []
        for observer in (None, Observer(),
                         Observer(JsonlSink(io.StringIO()),
                                  MetricsRegistry())):
            machine = Machine(protocol, programs,
                              MachineConfig(n_nodes=3, n_blocks=2,
                                            observer=observer))
            result = machine.run()
            summaries.append((result.cycles, result.stats.summary()))
        assert summaries[0] == summaries[1] == summaries[2]


class TestSimulationLimit:
    def test_limit_raises_dedicated_error_with_context(self):
        protocol = compile_named_protocol("stache")
        config = MachineConfig(n_nodes=2, n_blocks=2, max_events=5)
        machine = Machine(protocol, GOLDEN_PROGRAMS, config)
        with pytest.raises(SimulationLimitError) as excinfo:
            machine.run()
        message = str(excinfo.value)
        assert "exceeded 5 events" in message
        assert "at cycle" in message and "pending" in message

    def test_limit_error_is_a_runtime_protocol_error(self):
        # Existing handlers that catch RuntimeProtocolError keep working.
        assert issubclass(SimulationLimitError, RuntimeProtocolError)


class TestFaultTimeFraction:
    def test_uses_per_node_finish_time(self):
        stats = MachineStats(execution_cycles=1000)
        early = NodeStats(0, fault_wait_cycles=100, finish_time=200)
        late = NodeStats(1, fault_wait_cycles=100, finish_time=1000)
        stats.nodes = [early, late]
        # 100/200 and 100/1000, averaged -- not 200/2000 pooled.
        assert stats.fault_time_fraction == pytest.approx((0.5 + 0.1) / 2)

    def test_zero_run_time_contributes_zero(self):
        stats = MachineStats(execution_cycles=0)
        stats.nodes = [NodeStats(0, fault_wait_cycles=50, finish_time=0)]
        assert stats.fault_time_fraction == 0.0

    def test_no_nodes_is_zero(self):
        assert MachineStats().fault_time_fraction == 0.0


class TestCheckerObservability:
    def _checker(self, **kwargs):
        protocol = compile_named_protocol("stache")
        kwargs.setdefault("invariants", standard_invariants(coherent=True))
        return ModelChecker(
            protocol, n_nodes=2, n_blocks=1,
            events=events_for_protocol("stache"), **kwargs)

    def test_progress_stream_reports_rates_and_evals(self):
        stream = io.StringIO()
        result = self._checker(progress_stream=stream).run()
        assert result.ok
        lines = stream.getvalue().splitlines()
        # A sub-second run prints its first timeline point and its last.
        first, last = result.timeline[0], result.timeline[-1]
        assert len(lines) == 2
        assert lines[0].startswith(
            f"[verify Stache] states={first['states']} frontier=1 "
            "depth=0 transitions=0 inv_evals=3 ")
        assert lines[0].endswith(" ...")
        assert (f"states={result.states_explored} frontier=0 "
                f"depth={result.max_depth} "
                f"transitions={result.transitions} ") in lines[-1]
        assert last["states"] == result.states_explored
        assert all("states/s" in line for line in lines)
        assert lines[-1].endswith(" done")
        assert result.invariant_evals
        assert all(count >= result.states_explored
                   for count in result.invariant_evals.values())

    def test_violation_trace_out_writes_jsonl(self, tmp_path):
        def always_fails(state, protocol):
            return "forced violation"

        result = self._checker(invariants=[always_fails]).run()
        assert not result.ok
        path = str(tmp_path / "violation.jsonl")
        result.violation.write_trace(path)
        with open(path) as handle:
            events = [json.loads(line) for line in handle]
        assert events[-1]["ev"] == "violation"
        assert events[-1]["message"] == "forced violation"
        steps = [e for e in events if e["ev"] == "checker_step"]
        assert [e["step"] for e in steps] == \
            list(range(1, len(steps) + 1))


def regenerate_golden():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(GOLDEN_TRACE, "w") as handle:
        run_golden_scenario(JsonlSink(handle))
    with open(GOLDEN_TRACE) as handle:
        count = sum(1 for _line in handle)
    print(f"wrote {GOLDEN_TRACE} ({count} events)")
    with open(GOLDEN_CHROME, "w") as handle:
        sink = ChromeTraceSink(handle)
        run_golden_scenario(sink)
        sink.close()
    print(f"wrote {GOLDEN_CHROME}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate_golden()
    else:
        print(__doc__)
