"""Tests for the typed repro.api facade (and that the retired
deprecation shims stay retired)."""

import warnings

import pytest

from repro.api import (
    BudgetOptions,
    CheckOptions,
    CheckpointOptions,
    CompileOptions,
    SimOptions,
    check,
    compile_protocol,
    simulate,
)
from repro.runtime.protocol import CompiledProtocol
from repro.protocols import load_protocol_source


class TestCompileProtocol:
    def test_registered_name(self):
        protocol = compile_protocol("stache")
        assert isinstance(protocol, CompiledProtocol)
        assert protocol.name == "Stache"

    def test_raw_source(self):
        source = load_protocol_source("stache")
        protocol = compile_protocol(source)
        assert protocol.name == "Stache"

    def test_tea_file_path(self, tmp_path):
        path = tmp_path / "copy.tea"
        path.write_text(load_protocol_source("lcm"))
        protocol = compile_protocol(str(path))
        assert protocol.name == "LCM"

    def test_compiled_passthrough(self):
        protocol = compile_protocol("stache")
        assert compile_protocol(protocol) is protocol

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            compile_protocol(42)

    def test_options_are_frozen(self):
        options = CompileOptions()
        with pytest.raises(Exception):
            options.opt_level = None


class TestCheck:
    def test_serial_by_default(self):
        result = check("stache", CheckOptions(nodes=2, addresses=1,
                                              reorder=1))
        assert result.ok
        assert result.workers == 1
        assert result.exhausted

    def test_parallel_matches_serial(self):
        serial = check("lcm", CheckOptions(nodes=2, addresses=1, reorder=1))
        par = check("lcm", CheckOptions(nodes=2, addresses=1, reorder=1,
                                        workers=2))
        assert par.ok == serial.ok
        assert par.states_explored == serial.states_explored
        assert par.transitions == serial.transitions
        assert par.handler_fires == serial.handler_fires
        assert par.workers == 2

    def test_accepts_compiled_protocol(self):
        protocol = compile_protocol("stache")
        result = check(protocol, CheckOptions(nodes=2, addresses=1))
        assert result.ok

    def test_truncation_clears_exhausted(self):
        result = check("lcm", CheckOptions(nodes=2, addresses=1, reorder=1,
                                           max_states=50))
        assert result.hit_state_limit
        assert not result.exhausted

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            check("stache", CheckOptions(workers=-1))

    @pytest.mark.parametrize("name,value", [
        ("nodes", 0), ("addresses", 0), ("reorder", -1),
        ("channel_cap", 0)])
    def test_rejects_bad_topology(self, name, value):
        # reorder=-1 used to PASS with 3 states: no delivery was ever
        # enabled, a silently weaker model.  channel_cap=0 used to FAIL
        # with a <stuck> initial state: every empty channel already sat
        # at the cap, so no application rule was ever enabled.
        with pytest.raises(ValueError, match=f"CheckOptions.{name} must"):
            check("stache", CheckOptions(**{name: value}))

    @pytest.mark.parametrize("value", [
        0, -1, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["deadline_seconds", "max_rss_mb"])
    def test_rejects_budgets_that_never_fire(self, name, value):
        # nan <= 0 is false and so is elapsed >= nan: a NaN budget used
        # to run to completion as if it were unset.
        with pytest.raises(ValueError,
                           match=f"^BudgetOptions.{name} must be > 0$"):
            check("stache", CheckOptions(
                budget=BudgetOptions(**{name: value})))

    @pytest.mark.parametrize("group,name", [
        (CheckpointOptions, "interval_waves"),
        (CheckpointOptions, "interval_seconds"),
        (BudgetOptions, "max_visited_bytes")])
    def test_removed_option_fields_are_refused(self, group, name):
        # Snapshots pace themselves, and the memory budget is
        # BudgetOptions.max_rss_mb.
        with pytest.raises(TypeError, match=name):
            group(**{name: 1})

    def test_serial_checkpoint_supported(self, tmp_path):
        # Serial checkpointing: a truncated run writes a resumable
        # checkpoint; resuming reaches the uninterrupted state count.
        path = str(tmp_path / "c.json")
        full = check("lcm", CheckOptions(nodes=2, addresses=1, reorder=1))
        truncated = check(
            "lcm", CheckOptions(nodes=2, addresses=1, reorder=1,
                                max_states=50,
                                checkpoint=CheckpointOptions(out=path)))
        assert truncated.hit_state_limit
        resumed = check(
            "lcm", CheckOptions(nodes=2, addresses=1, reorder=1,
                                checkpoint=CheckpointOptions(resume=path)))
        assert resumed.states_explored == full.states_explored

    @pytest.mark.parametrize("mode,options", [
        ("workers", dict(workers=2)),
    ], ids=["workers"])
    def test_liveness_refuses_every_keyed_mode(self, tmp_path, monkeypatch,
                                                mode, options):
        # Liveness runs on the keys of every serial mode
        # (tests/golden/liveness_pins.json), and checkpoints carry its
        # graph (tests/test_cli.py::TestGraphResumes), but worker
        # processes do not record it: that is refused before any state
        # is explored, in one line that names both.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError) as caught:
            check("stache", CheckOptions(liveness=True, **options))
        message = str(caught.value)
        assert "liveness" in message and mode in message
        assert not any(other in message for other in (
            "fingerprints", "symmetry", "checkpoint", "workers")
            if other not in mode)
        assert "\n" not in message


class TestSimulate:
    def test_workload_run(self):
        result = simulate("stache", workload="gauss",
                          options=SimOptions(nodes=2))
        assert result.protocol_name.lower() == "stache"
        assert result.workload == "gauss"
        assert result.cycles > 0
        assert result.table_row is not None

    def test_raw_programs_run(self):
        programs = [
            [("write", 0, 1), ("barrier",)],
            [("barrier",), ("read", 0, "log")],
        ]
        result = simulate("stache", programs=programs,
                          options=SimOptions(blocks=1))
        assert result.machine is not None
        assert result.machine.nodes[1].observed == [(0, 1)]
        assert result.workload is None

    def test_requires_exactly_one_of_workload_and_programs(self):
        with pytest.raises(ValueError):
            simulate("stache")
        with pytest.raises(ValueError):
            simulate("stache", workload="gauss", programs=[[]])

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            simulate("stache", workload="no_such_workload")

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="SimOptions.nodes must"):
            simulate("stache", workload="gauss", options=SimOptions(nodes=0))

    @pytest.mark.parametrize("field,value", [
        ("blocks", 0), ("blocks", -1), ("jitter", -5)])
    @pytest.mark.parametrize("workload", [True, False],
                             ids=["workload", "programs"])
    def test_rejects_options_that_describe_no_machine(self, field, value,
                                                      workload):
        inputs = ({"workload": "gauss"} if workload
                  else {"programs": [[("read", 0, "log")]]})
        with pytest.raises(ValueError, match=f"SimOptions.{field} must"):
            simulate("stache", **inputs,
                     options=SimOptions(nodes=2, **{field: value}))

    def test_rejects_empty_programs(self):
        with pytest.raises(ValueError, match="one program per node"):
            simulate("stache", programs=[])

    def test_seed_reproducibility(self):
        opts = SimOptions(nodes=4, seed=7, jitter=50)
        first = simulate("stache", workload="gauss", options=opts)
        second = simulate("stache", workload="gauss", options=opts)
        assert first.cycles == second.cycles
        assert first.stats.counters.messages_sent == \
            second.stats.counters.messages_sent
        other = simulate("stache", workload="gauss",
                         options=SimOptions(nodes=4, seed=8, jitter=50))
        # A different seed gives a different (still valid) schedule.
        assert other.cycles != first.cycles

    def test_seeded_trace_is_reproducible(self, tmp_path):
        """The --seed satellite: jittered traces are replayable goldens."""
        traces = []
        for i in range(2):
            path = tmp_path / f"trace{i}.jsonl"
            simulate("stache", workload="gauss",
                     options=SimOptions(nodes=2, seed=99, jitter=30,
                                        trace=str(path)))
            traces.append(path.read_text())
        assert traces[0] == traces[1]
        assert traces[0].strip()


class TestDeprecationShims:
    @pytest.mark.parametrize("name", [
        "parse_program", "check_program", "compile_source", "Machine",
        "MachineConfig", "SimResult", "ModelChecker", "PROTOCOLS",
        "load_protocol_source", "compile_named_protocol",
    ])
    def test_old_top_level_names_are_gone(self, name):
        # The DeprecationWarning shims were retired in 2.0.0: machinery
        # classes live in their home modules only.
        import repro

        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert name not in repro.__all__

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_name

    def test_facade_names_do_not_warn(self):
        import repro

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert repro.compile_protocol is compile_protocol
            assert repro.check is check
            assert repro.simulate is simulate
        assert not caught


LAZY_PACKAGES = [
    "repro", "repro.verify", "repro.obs", "repro.obs.analyze",
    "repro.tempest", "repro.backends", "repro.analysis", "repro.workloads",
    "repro.runtime", "repro.compiler", "repro.lang",
]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_reexports_are_the_home_objects(package_name):
    """Every package re-exports lazily (PEP 562): each name in ``__all__``
    must still resolve to the very object a module below the package
    holds under that name -- never to a submodule that happens to share
    the name -- and ``dir()`` and ``import *`` must list what they
    always listed."""
    import importlib
    import pkgutil
    import types

    package = importlib.import_module(package_name)
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__,
                                          package_name + ".")]
    assert set(package.__all__) <= set(dir(package))
    star: dict = {}
    exec(f"from {package_name} import *", star)
    assert set(package.__all__) <= set(star)
    for name in package.__all__:
        value = getattr(package, name)
        assert not isinstance(value, types.ModuleType), name
        assert star[name] is value
        assert any(vars(module).get(name) is value
                   for module in modules), name
