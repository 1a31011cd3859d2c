"""Resilient checking: worker-crash recovery, sealed checkpoints,
resource budgets, and graceful interruption.

The deterministic core of the chaos harness (``tools/chaos_check.py``),
gated in CI.  Contract under test:

* a SIGKILLed worker under ``on_worker_loss='degrade'`` re-shards the
  last completed wave onto the survivors and finishes with the exact
  undisturbed outcome;
* every corrupted checkpoint is refused with a one-line
  :class:`CheckpointError`, never a wrong answer;
* deadline/byte budgets stop gracefully with ``stop_reason`` set and a
  checkpoint that resumes to the exact uninterrupted result;
* SIGINT, on either engine, is acted on at the next clean cut: the run
  reports ``stop_reason='interrupted'``, leaves a checkpoint that
  resumes exactly when a path is set, and no worker process;
* a worker that stops answering (SIGSTOP) is a typed loss at every
  barrier, the counterexample's trace walk included.
"""

import json
import os
import signal

import pytest

from repro.protocols import compile_named_protocol
from repro.verify import (
    CheckpointError,
    ModelChecker,
    ParallelChecker,
    WorkerLostError,
    events_for_protocol,
    load_checkpoint,
)
from repro.verify.invariants import standard_invariants


def make_serial(name, n_nodes=2, n_blocks=1, reorder=0, **kwargs):
    protocol = compile_named_protocol(name)
    if kwargs.get("checkpoint_out") or kwargs.get("resume"):
        # The serial checkpoint format is fingerprint-keyed.
        kwargs.setdefault("fingerprint_states", True)
    return ModelChecker(
        protocol, n_nodes=n_nodes, n_blocks=n_blocks,
        reorder_bound=reorder, events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True), **kwargs)


def make_parallel(name, workers, n_nodes=2, n_blocks=1, reorder=0,
                  **kwargs):
    protocol = compile_named_protocol(name)
    return ParallelChecker(
        protocol, n_nodes=n_nodes, n_blocks=n_blocks,
        reorder_bound=reorder, events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True), workers=workers,
        **kwargs)


def outcome(result):
    fields = (result.ok, result.states_explored, result.transitions,
              result.max_depth, result.invariant_evals,
              result.handler_fires)
    if result.violation is None:
        return fields
    return fields + (result.violation.kind, result.violation.message,
                     tuple(result.violation.trace))


class KillWorker:
    """chaos_hook: signal one worker (SIGKILL unless ``sig`` says
    otherwise) the first time wave ``at`` starts."""

    def __init__(self, at, victim=0, sig=signal.SIGKILL):
        self.at = at
        self.victim = victim
        self.sig = sig
        self.fired = False

    def __call__(self, wave, procs):
        if self.fired or wave != self.at:
            return
        self.fired = True
        os.kill(procs[self.victim % len(procs)].pid, self.sig)


class TestWorkerLoss:
    # stache at reorder 0 explores 33 states over 10 waves; every wave
    # index is a distinct kill site for the consistent-cut recovery.
    @pytest.mark.parametrize("wave", list(range(10)))
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_kill_at_every_wave_recovers_exactly(self, workers, wave):
        baseline = outcome(make_parallel("stache", workers).run())
        disturbed = make_parallel(
            "stache", workers, on_worker_loss="degrade",
            chaos_hook=KillWorker(wave)).run()
        assert outcome(disturbed) == baseline
        assert disturbed.worker_losses == 1

    def test_kill_mid_failing_run_preserves_trace(self):
        baseline = make_parallel("lcm_mcc", 2, n_blocks=2,
                                 reorder=1).run()
        assert not baseline.ok
        disturbed = make_parallel(
            "lcm_mcc", 2, n_blocks=2, reorder=1,
            on_worker_loss="degrade", chaos_hook=KillWorker(3)).run()
        assert outcome(disturbed) == outcome(baseline)

    def test_fail_policy_raises_actionable_error(self):
        checker = make_parallel("stache", 2, chaos_hook=KillWorker(1))
        with pytest.raises(WorkerLostError, match="degrade"):
            checker.run()

    def test_losses_surface_in_result(self):
        result = make_parallel("stache", 3, on_worker_loss="degrade",
                               chaos_hook=KillWorker(2)).run()
        assert result.worker_losses == 1
        assert result.stop_reason is None
        assert result.exhausted


class TestCheckpointCorruption:
    @pytest.fixture()
    def checkpoint_blob(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_serial("lcm", reorder=1, fingerprint_states=True,
                    max_states=100, checkpoint_out=path).run()
        with open(path, "rb") as handle:
            return tmp_path, handle.read()

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(blob) // 2],
        lambda blob: blob[:-2],
        lambda blob: b"",
        lambda blob: bytes(range(256)) * 4,
        lambda blob: blob.replace(b"teapot-parallel-checkpoint",
                                  b"teapot-mystery-checkpoint", 1),
        lambda blob: blob.replace(b'"wave":', b'"wave":9990', 1),
    ], ids=["truncated_half", "truncated_tail", "empty", "binary",
            "wrong_kind", "edited_sealed_field"])
    def test_damage_is_refused_with_one_line_error(self, checkpoint_blob,
                                                   damage):
        tmp_path, blob = checkpoint_blob
        victim = str(tmp_path / "damaged.json")
        with open(victim, "wb") as handle:
            handle.write(damage(blob))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(victim)
        assert "\n" not in str(excinfo.value)

    def test_bitflip_anywhere_in_sealed_region_is_caught(
            self, checkpoint_blob):
        tmp_path, blob = checkpoint_blob
        victim = str(tmp_path / "flipped.json")
        # The seal and the volatile elapsed field are spliced onto the
        # tail of the file and are legitimately unsealed; everything
        # before the seal key is covered by the digest.
        sealed_end = blob.index(b'"seal":')
        for offset in range(10, sealed_end, max(1, sealed_end // 16)):
            flipped = bytearray(blob)
            flipped[offset] ^= 0x41
            with open(victim, "wb") as handle:
                handle.write(bytes(flipped))
            with pytest.raises(CheckpointError):
                load_checkpoint(victim)

    def test_resume_refuses_mismatched_config(self, checkpoint_blob):
        tmp_path, blob = checkpoint_blob
        path = str(tmp_path / "ck.json")
        with pytest.raises(CheckpointError, match="configuration"):
            make_serial("lcm", reorder=0, fingerprint_states=True,
                        resume=path).run()
        with pytest.raises(CheckpointError, match="configuration"):
            make_parallel("stache", 2, reorder=1, resume=path).run()


class TestBudgets:
    def test_serial_deadline_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()
        stopped = make_serial("lcm", reorder=1, checkpoint_out=path,
                              deadline_seconds=0.005).run()
        assert stopped.stop_reason == "deadline"
        assert not stopped.exhausted
        assert stopped.ok
        assert stopped.states_explored < full.states_explored
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)
        assert resumed.exhausted

    def test_serial_byte_cap_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()
        stopped = make_serial("lcm", reorder=1, checkpoint_out=path,
                              max_visited_bytes=4096).run()
        assert stopped.stop_reason == "memory"
        assert not stopped.exhausted
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)

    def test_parallel_deadline_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_parallel("lcm", 2, reorder=1).run()
        stopped = make_parallel("lcm", 2, reorder=1,
                                checkpoint_out=path,
                                deadline_seconds=0.01).run()
        assert stopped.stop_reason == "deadline"
        assert not stopped.exhausted
        resumed = make_parallel("lcm", 3, reorder=1, resume=path).run()
        assert outcome(resumed) == outcome(full)

    def test_parallel_byte_cap_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_parallel("lcm", 2, reorder=1).run()
        stopped = make_parallel("lcm", 2, reorder=1,
                                checkpoint_out=path,
                                max_visited_bytes=4096).run()
        assert stopped.stop_reason == "memory"
        resumed = make_parallel("lcm", 2, reorder=1, resume=path).run()
        assert outcome(resumed) == outcome(full)

    def test_budget_without_checkpoint_still_stops(self):
        result = make_serial("lcm", reorder=1, fingerprint_states=True,
                             deadline_seconds=0.005).run()
        assert result.stop_reason == "deadline"
        assert not result.exhausted


class TestSerialInterrupt:
    def test_sigint_drains_wave_and_checkpoints(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()

        # Deliver a real SIGINT mid-exploration via the progress hook.
        fired = []

        class InterruptStream:
            def write(self, _text):
                if not fired:
                    fired.append(True)
                    os.kill(os.getpid(), signal.SIGINT)

            def flush(self):
                pass

        stopped = make_serial("lcm", reorder=1, checkpoint_out=path,
                              progress_stream=InterruptStream(),
                              progress_every=50).run()
        assert fired
        assert stopped.stop_reason == "interrupted"
        assert not stopped.exhausted
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)


class InterruptMaster:
    """chaos_hook: one real SIGINT to this process -- the master -- as
    wave ``at`` starts.  Keeps the fleet it last saw."""

    def __init__(self, at):
        self.at = at
        self.procs = ()

    def __call__(self, wave, procs):
        self.procs = procs
        if wave == self.at:
            self.at = None
            os.kill(os.getpid(), signal.SIGINT)


class TestParallelInterrupt:
    # lcm at reorder 1 is 528 states over 23 waves.
    @pytest.mark.parametrize("policy", ["fail", "degrade"])
    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["no_path", "path"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sigint_stops_at_the_wave_boundary(self, tmp_path, workers,
                                               checkpointed, policy):
        path = str(tmp_path / "ck.json") if checkpointed else None
        hook = InterruptMaster(5)
        handler = signal.getsignal(signal.SIGINT)
        # At the parent commit the KeyboardInterrupt escaped run().
        stopped = make_parallel(
            "lcm", workers, reorder=1, checkpoint_out=path,
            on_worker_loss=policy, chaos_hook=hook).run()
        assert hook.at is None
        assert stopped.stop_reason == "interrupted"
        assert stopped.ok and not stopped.exhausted
        assert signal.getsignal(signal.SIGINT) is handler
        assert len(hook.procs) == workers
        assert not any(proc.is_alive() for proc in hook.procs)
        if not checkpointed:
            return
        full = outcome(make_serial("lcm", reorder=1,
                                   fingerprint_states=True).run())
        assert stopped.states_explored < full[1]
        assert outcome(make_serial("lcm", reorder=1,
                                   resume=path).run()) == full
        assert outcome(make_parallel("lcm", 5 - workers, reorder=1,
                                     resume=path).run()) == full


class TestStalledWorker:
    def test_mid_wave_stall_recovers_under_degrade(self):
        baseline = outcome(make_parallel("lcm", 2, reorder=1).run())
        disturbed = make_parallel(
            "lcm", 2, reorder=1, on_worker_loss="degrade",
            worker_stall_timeout=0.5,
            chaos_hook=KillWorker(3, sig=signal.SIGSTOP)).run()
        assert outcome(disturbed) == baseline
        assert disturbed.worker_losses == 1

    def test_stall_during_the_trace_walk_is_a_typed_loss(self):
        """Under ``fail`` the trace is walked through the owners; one
        that stops answering after the violating wave must raise like
        any other barrier (the parent blocked in ``recv`` for good)."""
        checker = make_parallel("lcm_mcc", 2, n_blocks=2, reorder=1,
                                worker_stall_timeout=0.5)
        fleet = signal_worker_at_verdict(checker, signal.SIGSTOP)

        def hung(_signum, _frame):
            raise TimeoutError("the trace walk hung on a stopped worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(WorkerLostError,
                               match=r"trace walk \(stalled >0\.5s\)"):
                checker.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for proc in fleet["procs"]:
                if proc.is_alive():     # only where the test has failed
                    proc.kill()
        assert not any(proc.is_alive() for proc in fleet["procs"])

    def test_loss_after_the_verdict_keeps_the_verdict(self):
        """Under ``degrade`` the trace comes from the mirror, so the
        loss shows at the ``finish`` barrier -- where it may cost
        artifacts, not the verdict.  (The parent recovered from a
        mirror already past the violating state and explored on to
        another deadlock, 7,418 states in instead of 1,000.)"""
        baseline = make_parallel("lcm_mcc", 2, n_blocks=2, reorder=1).run()
        checker = make_parallel("lcm_mcc", 2, n_blocks=2, reorder=1,
                                on_worker_loss="degrade")
        signal_worker_at_verdict(checker, signal.SIGKILL)
        assert outcome(checker.run()) == outcome(baseline)


def signal_worker_at_verdict(checker, sig):
    """Arrange for worker 0 to get ``sig`` once the violating wave has
    been judged: ``_trace_for``, the next thing the master does, is
    wrapped to send it first.  Returns a dict whose ``"procs"`` is the
    fleet (the ``chaos_hook`` hands it over)."""
    fleet = {}
    checker.chaos_hook = lambda _wave, procs: fleet.update(procs=procs)
    walk = checker._trace_for

    def signal_then_walk(*args, **kwargs):
        os.kill(fleet["procs"][0].pid, sig)
        return walk(*args, **kwargs)

    checker._trace_for = signal_then_walk
    return fleet


class TestCheckpointHygiene:
    def test_rotation_keeps_last_n(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    checkpoint_interval_waves=1,
                    checkpoint_keep_last=3, max_states=100).run()
        # At least the final write plus one rotated periodic write
        # (cost-based spacing may defer further periodic writes on a
        # run this small); never more than keep_last files; waves
        # monotone non-decreasing from oldest to newest.
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        assert not os.path.exists(path + ".3")
        waves = [load_checkpoint(path)["wave"],
                 load_checkpoint(path + ".1")["wave"]]
        if os.path.exists(path + ".2"):
            waves.append(load_checkpoint(path + ".2")["wave"])
        assert waves == sorted(waves, reverse=True)

    def test_no_partial_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    checkpoint_interval_waves=2, max_states=200).run()
        assert not os.path.exists(path + ".tmp")

    def test_checkpoint_is_sealed_json(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    max_states=100).run()
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["seal"]
        assert payload["kind"] == "teapot-parallel-checkpoint"

    def test_periodic_checkpoints_resume_to_same_result(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    checkpoint_interval_waves=2, max_states=300).run()
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)


class TestCrossEngineResume:
    def test_serial_checkpoint_resumes_in_parallel(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_parallel("lcm", 2, reorder=1).run()
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    max_states=200).run()
        resumed = make_parallel("lcm", 2, reorder=1, resume=path).run()
        assert outcome(resumed) == outcome(full)

    def test_parallel_checkpoint_resumes_serially(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()
        make_parallel("lcm", 2, reorder=1, max_states=200,
                      checkpoint_out=path).run()
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)
