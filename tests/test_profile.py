"""Tests for the exploration profiler (repro.obs.profile).

The profiler's contract has two halves:

1. **Off is free.**  A run with no profiler and a run with one armed
   explore the identical state space: verdict, state/transition/depth
   counts, handler fires, the exact fingerprint stream, and checkpoint
   bytes all match.  Pinned by golden comparisons and a hypothesis
   property.
2. **On is accountable.**  The recorded phase times partition wall
   time (serial) / worker busy time (parallel), per-worker busy +
   barrier-wait closes against the wave clock, and the artifact
   round-trips through JSON with schema validation.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    ArtifactOptions,
    CheckOptions,
    ReductionOptions,
    check,
)
from repro.cli import main
from repro.faults import FaultBudget
from repro.obs.analyze import TraceError
from repro.obs.profile import (
    PHASES,
    PROFILE_KIND,
    PROFILE_VERSION,
    CheckProfile,
    CheckProfiler,
    diff_profiles,
    format_profile,
    load_profile,
)
from repro.protocols import compile_named_protocol
from repro.verify import (
    ModelChecker,
    ParallelChecker,
    events_for_protocol,
)
from repro.verify.checker import _LabelledViolation
from repro.verify.invariants import standard_invariants

from reference_checker import record_expansions


def make_serial(name="stache", reorder=0, profiler=None, **kwargs):
    protocol = compile_named_protocol(name)
    return ModelChecker(
        protocol, n_nodes=2, n_blocks=1, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        profiler=profiler, **kwargs)


def make_parallel(name="stache", reorder=0, workers=2, profiler=None,
                  **kwargs):
    protocol = compile_named_protocol(name)
    return ParallelChecker(
        protocol, n_nodes=2, n_blocks=1, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        workers=workers, profiler=profiler, **kwargs)


def outcome(result):
    return (result.ok, result.states_explored, result.transitions,
            result.max_depth, result.handler_fires, result.invariant_evals)


class TestOffModeIsFree:
    """Armed vs. absent: everything but host wall time is identical."""

    def test_serial_outcome_identical(self):
        plain = make_serial(reorder=1).run()
        prof = make_serial(reorder=1, profiler=CheckProfiler()).run()
        assert outcome(plain) == outcome(prof)
        assert plain.profile is None
        assert prof.profile is not None

    def test_serial_fingerprint_stream_identical(self):
        plain_checker = make_serial(reorder=1, fingerprint_states=True)
        prof_checker = make_serial(reorder=1, fingerprint_states=True,
                                   profiler=CheckProfiler())
        plain_log = record_expansions(plain_checker)
        prof_log = record_expansions(prof_checker)
        plain = plain_checker.run()
        assert outcome(plain) == outcome(prof_checker.run())
        assert plain_log == prof_log          # same stream, same order
        assert len(plain_log) == plain.transitions

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_outcome_identical(self, workers):
        plain = make_parallel(reorder=1, workers=workers).run()
        prof = make_parallel(reorder=1, workers=workers,
                             profiler=CheckProfiler()).run()
        assert outcome(plain) == outcome(prof)
        assert prof.profile is not None

    def test_checkpoint_bytes_identical(self, tmp_path):
        """A truncated run writes the same checkpoint armed or not
        (only the wall-clock ``elapsed`` field may differ)."""
        def checkpoint(profiler, path):
            make_parallel("lcm_mcc", reorder=1, workers=2,
                          max_states=100, profiler=profiler,
                          checkpoint_out=str(path)).run()
            text = path.read_text()
            return re.sub(r'"elapsed":\s*[0-9.e-]+', '"elapsed":0', text)

        plain = checkpoint(None, tmp_path / "plain.json")
        prof = checkpoint(CheckProfiler(), tmp_path / "prof.json")
        assert plain == prof

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(["stache", "lcm", "lcm_mcc"]),
           reorder=st.integers(min_value=0, max_value=1),
           fingerprints=st.booleans())
    def test_property_armed_never_changes_exploration(
            self, name, reorder, fingerprints):
        plain = make_serial(name, reorder=reorder,
                            fingerprint_states=fingerprints).run()
        prof = make_serial(name, reorder=reorder,
                           fingerprint_states=fingerprints,
                           profiler=CheckProfiler()).run()
        assert outcome(plain) == outcome(prof)
        # The profile's timeline is the run's, point for point.
        assert prof.profile.timeline is prof.timeline

        def untimed(result):
            return [{k: v for k, v in point.items()
                     if k not in ("t", "states_per_s")}
                    for point in result.timeline]

        assert untimed(plain) == untimed(prof)


class TestPhaseAccounting:
    def test_serial_phases_partition_wall_time(self):
        result = make_serial("lcm_mcc", reorder=1,
                             profiler=CheckProfiler()).run()
        profile = result.profile
        assert set(profile.phases) == set(PHASES)
        assert all(seconds >= 0 for seconds in profile.phases.values())
        # "other" closes the partition: the phases sum to wall time.
        assert sum(profile.phases.values()) == pytest.approx(
            profile.wall_seconds, abs=1e-3)

    @pytest.mark.parametrize("options", [
        dict(fingerprints=True),
        dict(reduction=ReductionOptions(symmetry=True)),
        dict(faults=FaultBudget(drop=1)),
    ], ids=["fingerprints", "symmetry", "faults"])
    def test_every_mode_is_attributed_to_its_phases(self, options):
        # Every mode runs inside the one profiled loop; a mode with a
        # loop of its own would leave each phase but "other" at zero.
        result = check("lcm", CheckOptions(
            nodes=3, artifacts=ArtifactOptions(profile=True), **options))
        profile = result.profile
        for phase in ("successors", "visited", "invariants"):
            assert profile.phases[phase] > 0, phase
        assert profile.phases["other"] < 0.5 * profile.wall_seconds
        assert (profile.result["transitions"] == result.transitions
                == profile.timeline[-1]["transitions"])
        assert (profile.result["states"] == result.states_explored
                == profile.timeline[-1]["states"])

    def test_serial_dispatch_counts_match_handler_fires(self):
        result = make_serial("lcm_mcc", reorder=1,
                             profiler=CheckProfiler()).run()
        dispatched = sum(entry["count"]
                         for entry in result.profile.dispatch.values())
        assert dispatched == sum(result.handler_fires.values())

    def test_profiled_run_uses_the_action_effects_cache(self):
        # The profiler observes the engine users run: dispatches are
        # executed (and timed) once per cache miss, counted per fire.
        profiler = CheckProfiler()
        checker = make_serial("lcm_mcc", reorder=1, profiler=profiler)
        result = checker.run()
        executed = sum(count for count, _seconds
                       in profiler.dispatch.values())
        assert 0 < executed < sum(result.handler_fires.values())
        assert 0 < len(checker._action_cache) <= executed
        assert all(entry["seconds"] > 0
                   for entry in result.profile.dispatch.values())

    def test_profiled_repeat_times_every_dispatch(self):
        # Each run records its own action effects: a profiled check that
        # follows an unprofiled one of the same model still executes,
        # and times, a dispatch of every arm it fires.
        check("lcm", CheckOptions(nodes=3))
        result = check("lcm", CheckOptions(
            nodes=3, artifacts=ArtifactOptions(profile=True)))
        dispatch = result.profile.dispatch
        assert len(dispatch) == len(result.handler_fires) > 0
        assert all(entry["seconds"] > 0 for entry in dispatch.values())

    def test_serial_timeline_monotonic_and_final(self):
        result = make_serial("lcm_mcc", reorder=1,
                             profiler=CheckProfiler()).run()
        timeline = result.profile.timeline
        assert len(timeline) >= 2
        states = [point["states"] for point in timeline]
        assert states == sorted(states)
        assert states[-1] == result.states_explored
        assert timeline[-1]["frontier"] == 0

    def test_parallel_worker_accounting_sums(self):
        result = make_parallel("lcm_mcc", reorder=1, workers=2,
                               profiler=CheckProfiler()).run()
        profile = result.profile
        par = profile.parallel
        assert par is not None
        assert par["waves"] == len(par["per_wave"]) > 0
        # Each worker's busy + barrier-wait closes against the wave
        # clock, per wave and in total.
        for worker in par["workers"]:
            assert (worker["busy_seconds"] + worker["barrier_wait_seconds"]
                    == pytest.approx(par["wave_seconds_total"], abs=1e-3))
        # abs tolerance covers the independent 6-decimal rounding of
        # each per-worker figure vs. the rounded total.
        assert par["busy_seconds_total"] == pytest.approx(
            sum(w["busy_seconds"] for w in par["workers"]), abs=1e-5)
        # Compute phases partition total worker busy time.
        attributed = sum(seconds for name, seconds in profile.phases.items()
                         if name != "checkpoint_io")
        assert attributed == pytest.approx(
            par["busy_seconds_total"], abs=1e-3)
        # Both workers accepted work on this row.
        assert sum(w["accepted"] for w in par["workers"]) \
            == result.states_explored
        assert par["cross_shard"]["entries"] > 0
        assert par["cross_shard"]["bytes"] > 0

    def test_shared_fields_consistent_across_engines(self):
        profiles = {}
        for workers in (0, 1, 2, 3):
            result = check("lcm_mcc", CheckOptions(
                reorder=1, workers=workers,
                artifacts=ArtifactOptions(profile=True)))
            profile = result.profile
            assert profile.result["states"] == 789
            assert profile.result["transitions"] == 3172
            assert profile.result["max_depth"] == 24
            dispatched = {key: entry["count"]
                          for key, entry in profile.dispatch.items()}
            assert dispatched == result.handler_fires
            profiles[workers] = profile
        # The same states are expanded whatever the engine, so the
        # out-degree histogram and dispatch counts are engine-invariant.
        serial = profiles[0]
        for workers in (1, 2, 3):
            assert profiles[workers].out_degree == serial.out_degree
            assert {key: entry["count"]
                    for key, entry in profiles[workers].dispatch.items()} \
                == {key: entry["count"]
                    for key, entry in serial.dispatch.items()}

    def test_visited_collision_estimate(self):
        result = check("lcm_mcc", CheckOptions(
            reorder=1, workers=2,
            artifacts=ArtifactOptions(profile=True)))
        visited = result.profile.visited
        assert visited["mode"] == "fingerprint"
        assert visited["entries"] == 789
        assert visited["fingerprint_bits"] == 64
        assert 0 < visited["expected_collisions"] < 1e-9
        assert visited["container_bytes"] > 0


class TestArtifact:
    def build(self, tmp_path, **options):
        result = check("lcm_mcc", CheckOptions(
            reorder=1, artifacts=ArtifactOptions(profile=True),
            **options))
        path = tmp_path / "profile.json"
        result.profile.save(str(path))
        return result.profile, path

    def test_round_trip(self, tmp_path):
        profile, path = self.build(tmp_path)
        loaded = load_profile(str(path))
        assert loaded.to_json() == profile.to_json()
        payload = json.loads(path.read_text())
        assert payload["kind"] == PROFILE_KIND
        assert payload["version"] == PROFILE_VERSION

    def test_parallel_round_trip(self, tmp_path):
        profile, path = self.build(tmp_path, workers=2)
        loaded = load_profile(str(path))
        assert loaded.parallel == profile.parallel
        assert loaded.to_json() == profile.to_json()

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else", "version": 1}')
        with pytest.raises(TraceError, match="not a check profile"):
            load_profile(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"kind": PROFILE_KIND, "version": PROFILE_VERSION + 1}))
        with pytest.raises(TraceError, match="version"):
            load_profile(str(path))

    def test_friendly_load_errors(self, tmp_path):
        with pytest.raises(TraceError, match="no such file"):
            load_profile(str(tmp_path / "missing.json"))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_profile(str(empty))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        with pytest.raises(TraceError, match="not valid JSON"):
            load_profile(str(garbage))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(TraceError, match="not an object"):
            load_profile(str(array))

    def test_format_profile_renders(self, tmp_path):
        profile, _path = self.build(tmp_path, workers=2)
        text = format_profile(profile)
        assert "check profile: LCMMcc" in text
        assert "verdict: PASS" in text
        assert "phases (of worker busy time):" in text
        assert "parallel: " in text
        assert "cross-shard" in text

    def test_diff_profiles(self, tmp_path):
        serial, _ = self.build(tmp_path)
        parallel, _ = self.build(tmp_path, workers=2)
        text = diff_profiles(serial, parallel)
        assert "headline:" in text
        assert "states/s" in text
        assert "configurations differ" in text
        same = diff_profiles(serial, serial)
        assert "configurations differ" not in same


class TestCli:
    def test_verify_profile_out_and_render(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["verify", "lcm_mcc", "--reorder", "1",
                     "--profile-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert "wrote check profile" in captured.err
        assert main(["analyze", "check-profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "check profile: LCMMcc" in out
        assert "phases (of wall time):" in out
        assert "dispatch costs" in out

    def test_analyze_diff_profiles(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, workers in ((a, "0"), (b, "2")):
            assert main(["verify", "lcm_mcc", "--reorder", "1",
                         "--workers", workers,
                         "--profile-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "diff", str(a), str(b)]) == 0
        assert "states/s" in capsys.readouterr().out

    def test_profile_from_a_retired_mode_still_reads(self, tmp_path, capsys):
        # Written by `verify lcm_mcc --reorder 1 --por --profile-out`
        # before sleep-set POR was removed: its result and timeline carry
        # pruned-transition keys no later build writes, and are ignored.
        old = str(Path(__file__).parent / "golden" / "profile_por_parent.json")
        assert load_profile(old).result["pruned_transitions"] == 234
        assert main(["analyze", "check-profile", old]) == 0
        out = capsys.readouterr().out
        assert "check profile: LCMMcc" in out and "states=789" in out
        fresh = tmp_path / "fresh.json"
        assert main(["verify", "lcm_mcc", "--reorder", "1",
                     "--profile-out", str(fresh)]) == 0
        capsys.readouterr()
        assert main(["analyze", "diff", old, str(fresh)]) == 0
        captured = capsys.readouterr()
        assert "states/s" in captured.out and captured.err == ""

    def test_check_profile_friendly_errors(self, tmp_path, capsys):
        assert main(["analyze", "check-profile",
                     str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no such file" in err
        wrong = tmp_path / "metrics.json"
        wrong.write_text('{"kind": "teapot-coverage", "v": 1}')
        assert main(["analyze", "check-profile", str(wrong)]) == 1
        err = capsys.readouterr().err
        assert "not a check profile" in err
        assert err.count("\n") == 1      # one line, no traceback

    def test_diff_refuses_mixed_kinds(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        assert main(["verify", "lcm_mcc", "--reorder", "1",
                     "--profile-out", str(profile)]) == 0
        coverage = tmp_path / "cov.json"
        assert main(["verify", "lcm_mcc",
                     "--coverage-out", str(coverage)]) == 0
        capsys.readouterr()
        assert main(["analyze", "diff", str(profile), str(coverage)]) == 1
        assert "cannot diff" in capsys.readouterr().err


class TestProfilerUnit:
    def test_timed_passthrough(self):
        profiler = CheckProfiler()
        items = [("a", 1, 1), ("b", 2, 2)]
        assert list(profiler.timed(iter(items))) == items
        assert profiler.phases["successors"] > 0
        assert profiler.phases["visited"] > 0
        assert profiler.out_degree == {2: 1}

        def failing(kind):
            raise _LabelledViolation("<stuck>", "no rule enabled", kind)
            yield

        for kind in ("deadlock", "error"):
            with pytest.raises(_LabelledViolation):
                list(profiler.timed(failing(kind)))
        # A deadlocked state is expanded at out-degree 0; an error rule
        # cuts its state's expansion short, which is not counted.
        assert profiler.out_degree == {2: 1, 0: 1}

    def test_dispatch_skips_anonymous(self):
        profiler = CheckProfiler()
        profiler.add_dispatch(None, 1.0)
        assert profiler.dispatch == {}
        profiler.add_dispatch("Home.GET", 0.5)
        profiler.add_dispatch("Home.GET", 0.25)
        assert profiler.dispatch == {"Home.GET": [2, 0.75]}

    def test_merge_worker_accumulates(self):
        profiler = CheckProfiler()
        payload = {"phases": {"successors": 1.0},
                   "dispatch": {"Home.GET": [3, 0.5]},
                   "out_degree": {"2": 4},
                   "visited_entries": 10, "visited_bytes": 100}
        profiler.merge_worker(payload)
        profiler.merge_worker(payload)
        profiler.merge_worker(None)           # a worker with no profiler
        assert profiler.phases["successors"] == pytest.approx(2.0)
        assert profiler.dispatch["Home.GET"] == [6, 1.0]
        assert profiler.out_degree[2] == 8
        assert profiler.visited_stats["entries"] == 20

    def test_from_json_defaults_missing_fields(self):
        profile = CheckProfile.from_json(
            {"kind": PROFILE_KIND, "version": PROFILE_VERSION})
        assert profile.protocol == "?"
        assert profile.phases == {}
        assert profile.parallel is None
