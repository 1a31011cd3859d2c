"""Tests for state fingerprinting and the parallel checker."""

import base64
import json

import pytest

from repro.obs.profile import CheckProfiler
from repro.protocols import compile_named_protocol
from repro.verify import (
    FingerprintCollisionError,
    ModelChecker,
    ParallelChecker,
    TraceReplayError,
    replay_labels,
)
from repro.verify.events import events_for_protocol
from repro.verify.fingerprint import (
    StateCodecError,
    encode_state,
    fingerprint,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.verify.invariants import (
    bounded_channels,
    bounded_queues,
    single_writer,
)
from repro.verify.model import initial_global_state
from repro.verify.checkpoint import (
    CheckpointError,
    decode_checkpoint,
    load_checkpoint,
)

from helpers import check_setup


def make_serial(name, n_nodes=2, n_blocks=1, reorder=0, **kwargs):
    protocol = compile_named_protocol(name)
    return ModelChecker(
        protocol, n_nodes=n_nodes, n_blocks=n_blocks, reorder_bound=reorder,
        **check_setup(name), **kwargs)


def make_parallel(name, workers, n_nodes=2, n_blocks=1, reorder=0, **kwargs):
    protocol = compile_named_protocol(name)
    return ParallelChecker(
        protocol, n_nodes=n_nodes, n_blocks=n_blocks, reorder_bound=reorder,
        **check_setup(name), workers=workers, **kwargs)


def initial_state_of(name, n_nodes=2, n_blocks=1):
    checker = make_serial(name, n_nodes=n_nodes, n_blocks=n_blocks)
    return initial_global_state(
        checker.protocol, checker.n_nodes, checker.n_blocks,
        checker.events.initial)


class TestFingerprint:
    def test_stable_and_64_bit(self):
        state = initial_state_of("stache")
        fp = fingerprint(state)
        assert fp == fingerprint(state) == state.fingerprint()
        assert 0 <= fp < 2 ** 64

    def test_distinct_states_distinct_encodings(self):
        checker = make_serial("stache", reorder=1)
        checker._named_invariants = []
        state = initial_state_of("stache")
        encodings = {encode_state(state)}
        seen = {state}
        for _label, successor, *_move in checker._successors(state):
            if successor in seen:
                continue
            seen.add(successor)
            encoding = encode_state(successor)
            assert encoding not in encodings
            encodings.add(encoding)

    def test_encoding_rejects_unknown_types(self):
        with pytest.raises(StateCodecError):
            fp_input = bytearray()
            from repro.verify.fingerprint import _encode_value

            _encode_value(object(), fp_input)

    def test_json_codec_round_trips(self):
        for name in ("stache", "lcm"):
            state = initial_state_of(name)
            payload = state_to_jsonable(state)
            json.dumps(payload)  # must be pure JSON
            assert state_from_jsonable(payload) == state

    def test_json_codec_round_trips_mid_exploration_states(self):
        checker = make_serial("lcm", reorder=1)
        checker._named_invariants = []
        state = initial_state_of("lcm")
        for _ in range(6):
            _label, state, *_move = next(iter(checker._successors(state)))
            restored = state_from_jsonable(
                json.loads(json.dumps(state_to_jsonable(state))))
            assert restored == state
            assert fingerprint(restored) == fingerprint(state)


class TestSerialFingerprintMode:
    @pytest.mark.parametrize("name", ["stache", "lcm", "buffered_write"])
    def test_matches_full_state_mode(self, name):
        full = make_serial(name, reorder=1).run()
        compact = make_serial(name, reorder=1,
                              fingerprint_states=True).run()
        assert compact.ok == full.ok
        assert compact.states_explored == full.states_explored
        assert compact.transitions == full.transitions
        assert compact.max_depth == full.max_depth
        assert compact.handler_fires == full.handler_fires

    def test_violation_traces_replay(self):
        # lcm_mcc deadlocks at 2 nodes / 2 addresses / reorder 1.
        full = make_serial("lcm_mcc", n_blocks=2, reorder=1).run()
        compact = make_serial("lcm_mcc", n_blocks=2, reorder=1,
                              fingerprint_states=True).run()
        assert not full.ok and not compact.ok
        assert compact.violation.kind == full.violation.kind
        assert compact.violation.trace == full.violation.trace
        assert compact.violation.state is not None

    def test_combines_with_liveness(self):
        # Liveness reads the fingerprint keys: same verdict, same space.
        full = make_serial("stache_nack", reorder=1,
                           liveness=True).run()
        compact = make_serial("stache_nack", reorder=1,
                              fingerprint_states=True,
                              liveness=True).run()
        assert compact.ok and full.ok
        assert ((compact.states_explored, compact.transitions)
                == (full.states_explored, full.transitions))


class TestCollisionDetection:
    def test_corrupted_trace_fails_replay(self):
        checker = make_serial("lcm_mcc", n_blocks=2, reorder=1,
                              fingerprint_states=True)
        result = checker.run()
        violation = result.violation
        assert violation is not None
        # A genuine trace replays fine...
        checker.verify_violation(violation)
        # ...but a trace corrupted the way a fingerprint collision would
        # corrupt it (a wrong parent pointer = a wrong label somewhere)
        # is detected, not reported.
        corrupted = violation.trace[:1] + violation.trace[2:]
        violation.trace = corrupted
        with pytest.raises(FingerprintCollisionError):
            checker.verify_violation(violation)

    def test_replay_labels_rejects_unknown_label(self):
        checker = make_serial("stache")
        with pytest.raises(TraceReplayError):
            replay_labels(checker.fresh_clone(), ["no such rule"])

    def test_replay_labels_walks_a_real_trace(self):
        result = make_serial("lcm_mcc", n_blocks=2, reorder=1).run()
        final = replay_labels(make_serial("lcm_mcc", n_blocks=2, reorder=1),
                              result.violation.trace)
        assert final.summary() == result.violation.state.summary()


class TestParallelDeterminism:
    @pytest.mark.parametrize("name,reorder", [
        ("stache", 1), ("lcm", 1), ("buffered_write", 0),
    ])
    def test_worker_counts_agree_with_serial(self, name, reorder):
        serial = make_serial(name, reorder=reorder).run()
        for workers in (1, 2, 4):
            result = make_parallel(name, workers, reorder=reorder).run()
            assert result.ok == serial.ok
            assert result.states_explored == serial.states_explored
            assert result.transitions == serial.transitions
            assert result.max_depth == serial.max_depth
            assert result.handler_fires == serial.handler_fires
            assert result.invariant_evals == serial.invariant_evals
            assert result.workers == workers
            assert f"workers={workers}" in result.summary() or workers == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_share_the_expansion(self, workers):
        # A state may be expanded by any worker that proposed it, so the
        # one initial state does not leave every layer with one worker.
        result = ParallelChecker(
            compile_named_protocol("lcm"), n_nodes=3, **check_setup("lcm"),
            workers=workers, profiler=CheckProfiler()).run()
        expanded = [w["accepted"]
                    for w in result.profile.parallel["workers"]]
        assert sum(expanded) == result.states_explored == 7658
        assert min(expanded) >= 7658 / (2 * workers)

    @pytest.mark.parametrize("option,match", [
        ("liveness", "liveness checking .* is serial-only"),
    ])
    def test_serial_only_modes_are_refused(self, option, match):
        # Checker options pass through to the template, so the sharded
        # checker must refuse this itself, as api.check's callers see.
        with pytest.raises(ValueError, match=match):
            make_parallel("stache", 2, **{option: True})

    def test_violations_are_worker_count_independent(self):
        # Serial is the reference: every worker count reports its whole
        # violation, trace and end state included.
        serial = make_serial("lcm_mcc", n_blocks=2, reorder=1).run()
        assert not serial.ok
        expected = (serial.violation.kind, serial.violation.message,
                    serial.violation.trace, serial.violation.state)
        for workers in (1, 2, 4):
            result = make_parallel("lcm_mcc", workers, n_blocks=2,
                                   reorder=1).run()
            assert not result.ok
            # The trace was replay-validated internally; its end state
            # was attached by the replay.
            assert (result.violation.kind, result.violation.message,
                    result.violation.trace,
                    result.violation.state) == expected

    @pytest.mark.parametrize("name,invariants,transitions", [
        ("stache", [single_writer, bounded_channels(1), bounded_queues()],
         36),
        ("lcm", [bounded_queues(1), single_writer, bounded_channels()], 752),
    ])
    def test_a_violation_counts_the_serial_transitions(
            self, name, invariants, transitions):
        # A worker's repeats play back where its expansion met them, so
        # the transitions counted before the violating move are the
        # serial run's.
        counts = []
        for workers in (0, 2):
            protocol = compile_named_protocol(name)
            options = dict(n_nodes=3, n_blocks=1, reorder_bound=1,
                           events=events_for_protocol(name),
                           invariants=invariants)
            checker = (ParallelChecker(protocol, workers=workers, **options)
                       if workers else ModelChecker(protocol, **options))
            result = checker.run()
            assert not result.ok
            counts.append((result.transitions, result.states_explored,
                           result.violation.message))
        assert counts[0] == counts[1]
        assert counts[0][0] == transitions

    def test_reduced_violations_are_worker_count_independent(self):
        # Under symmetry a key is an orbit: a worker may expand only the
        # concrete state the loop took, or the trace stops replaying.
        serial = make_serial("lcm", n_nodes=3, symmetry=True,
                             fault_budget=(1, 0)).run()
        assert serial.violation.kind == "deadlock"
        for workers in (1, 2, 4):
            result = make_parallel("lcm", workers, n_nodes=3, symmetry=True,
                                   fault_budget=(1, 0)).run()
            assert (result.states_explored, result.violation.message,
                    result.violation.trace) == (
                serial.states_explored, serial.violation.message,
                serial.violation.trace)

    def test_truncation_is_flagged(self):
        serial = make_serial("lcm", reorder=1, max_states=100).run()
        for workers in (1, 2, 4):
            result = make_parallel("lcm", workers, reorder=1,
                                   max_states=100).run()
            assert result.ok
            assert result.hit_state_limit
            assert not result.exhausted
            assert "state limit" in result.summary()
            # The state cap stops a worker run where it stops serially.
            assert ((result.states_explored, result.transitions)
                    == (serial.states_explored, serial.transitions))


class TestCheckpointResume:
    def test_truncate_then_resume_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "check.json")
        full = make_parallel("lcm_mcc", 2, reorder=1).run()
        truncated = make_parallel("lcm_mcc", 2, reorder=1, max_states=100,
                                  checkpoint_out=path).run()
        assert not truncated.exhausted
        # Resume at a *different* worker count: shards are reassigned
        # by fingerprint, so any worker count can pick the run up.
        resumed = make_parallel("lcm_mcc", 4, reorder=1,
                                resume=path).run()
        assert resumed.ok == full.ok
        assert resumed.states_explored == full.states_explored
        assert resumed.transitions == full.transitions
        assert resumed.max_depth == full.max_depth
        assert resumed.handler_fires == full.handler_fires
        assert resumed.invariant_evals == full.invariant_evals

    def test_checkpoint_is_pickle_free_json(self, tmp_path):
        path = str(tmp_path / "check.json")
        make_parallel("stache", 2, reorder=1, max_states=20,
                      checkpoint_out=path).run()
        payload = load_checkpoint(path)
        assert payload["kind"] == "teapot-parallel-checkpoint"
        assert payload["protocol"] == "Stache"
        # Expanded states and a frontier, the record's arrays as base64
        # text, not binary: an 8-byte key per state.
        cut = decode_checkpoint(payload, {}, path)
        assert 0 < cut.expanded < len(cut.index)
        assert len(base64.b64decode(payload["keys"])) == 8 * len(cut.index)

    def test_resume_rejects_mismatched_config(self, tmp_path):
        path = str(tmp_path / "check.json")
        make_parallel("stache", 2, reorder=1, max_states=20,
                      checkpoint_out=path).run()
        with pytest.raises(CheckpointError):
            make_parallel("stache", 2, reorder=0, resume=path).run()
        with pytest.raises(CheckpointError):
            make_parallel("lcm", 2, reorder=1, resume=path).run()

    def test_load_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_checkpoint.json"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
