"""Resilient checking: worker-loss detection, sealed checkpoints,
resource budgets, and graceful interruption.

Contract under test:

* a SIGKILLed worker is one :class:`WorkerLostError` at the next
  barrier, naming the worker, the barrier and the newest checkpoint
  the run wrote; no
  worker outlives the run, and the checkpoint resumes to the
  undisturbed outcome serially or at any worker count;
* every corrupted checkpoint is refused with a one-line
  :class:`CheckpointError`, never a wrong answer;
* deadline/RSS budgets stop gracefully with ``stop_reason`` set and a
  checkpoint that resumes to the exact uninterrupted result;
* SIGINT, on every run, is acted on at the next clean cut: the run
  reports ``stop_reason='interrupted'``, leaves a checkpoint that
  resumes exactly when a path is set, and no worker process.

The parallel cases disturb the fleet through :func:`before_expand`, a
seam on the one way the master talks to its workers.
"""

import base64
import itertools
import json
import os
import re
import signal
from array import array
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.cli import main
from repro.protocols import compile_named_protocol
from repro.verify import (
    CheckpointError,
    ModelChecker,
    ParallelChecker,
    WorkerLostError,
    events_for_protocol,
    load_checkpoint,
)
from repro.verify.checkpoint import write_checkpoint
from repro.verify.invariants import standard_invariants
from repro.verify.parallel import _Fleet


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


@contextmanager
def before_expand(hook):
    """Test seam on ``_Fleet.call_all``: inside the block,
    ``hook(wave, procs)`` runs before each ``expand`` barrier, ``wave``
    counting them from 0 (a fresh run's wave index)."""
    waves = itertools.count()
    call_all = _Fleet.call_all

    def seam(fleet, ops, phase):
        if phase == "expand":
            hook(next(waves), fleet.procs)
        return call_all(fleet, ops, phase)

    with mock.patch.object(_Fleet, "call_all", seam):
        yield


class KillWorker:
    """Hook: SIGKILL worker ``victim`` as wave ``at`` starts (never, for
    ``at=None``).  Keeps the fleet it last saw."""

    def __init__(self, at, victim=0):
        self.at = at
        self.victim = victim
        self.procs = ()

    def __call__(self, wave, procs):
        self.procs = procs
        if wave == self.at:
            self.kill()

    def kill(self):
        os.kill(self.procs[self.victim].pid, signal.SIGKILL)


def lost_line(phase, checkpoint):
    return (f"worker 0 died during {phase}; the newest checkpoint is "
            f"{checkpoint} (continue with --resume {checkpoint})")


class TestWorkerLoss:
    def test_loss_is_one_typed_error(self):
        hook = KillWorker(1)
        with before_expand(hook), pytest.raises(
                WorkerLostError, match=r"^worker 0 died during expand$"):
            make_parallel("stache", 2).run()
        assert not any(proc.is_alive() for proc in hook.procs)

    # stache at reorder 0 runs 10 expand barriers at every worker count;
    # each is a distinct moment for a worker to die, and the victim
    # rotates so the line must name the right one.
    @pytest.mark.parametrize("wave", list(range(10)))
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_kill_at_every_wave_is_one_typed_error(self, workers, wave):
        victim = wave % workers
        hook = KillWorker(wave, victim)
        with before_expand(hook), pytest.raises(WorkerLostError) as lost:
            make_parallel("stache", workers).run()
        assert str(lost.value) == f"worker {victim} died during expand"
        assert len(hook.procs) == workers
        assert not any(proc.is_alive() for proc in hook.procs)

    @pytest.mark.parametrize("keyword", [
        "on_worker_loss", "worker_stall_timeout", "chaos_hook"])
    def test_removed_recovery_keywords_are_refused(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            make_parallel("stache", 2, **{keyword: None})

    # lcm at reorder 1 is 528 states over 23 waves, one per BFS layer.
    # The first snapshot lands at the first cut (layer 0), as serially,
    # later ones as the policy's pacing allows.
    @pytest.mark.parametrize("wave", [5, 12, 20])
    def test_the_named_checkpoint_resumes_exactly(self, tmp_path, wave):
        path = str(tmp_path / "ck.json")
        hook = KillWorker(wave)
        with before_expand(hook), pytest.raises(WorkerLostError) as lost:
            make_parallel("lcm", 2, reorder=1, checkpoint_out=path).run()
        assert str(lost.value) == lost_line("expand", path)
        assert not any(proc.is_alive() for proc in hook.procs)
        assert 0 <= load_checkpoint(path)["depth"] <= wave
        full = outcome(make_serial("lcm", reorder=1,
                                   fingerprint_states=True).run())
        assert outcome(make_serial("lcm", reorder=1,
                                   resume=path).run()) == full
        for workers in (2, 3):
            assert outcome(make_parallel("lcm", workers, reorder=1,
                                         resume=path).run()) == full

    def test_cli_prints_one_line_and_leaves_a_resumable_checkpoint(
            self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        argv = ["verify", "lcm", "--reorder", "1", "--workers", "2"]
        assert main(argv) == 0
        verdict = re.search(r"PASS  states=\S+ transitions=\S+",
                            capsys.readouterr().out).group()
        hook = KillWorker(12)
        with before_expand(hook):
            status = main([*argv, "--checkpoint-out", path])
        out, err = capsys.readouterr()
        assert status == 1 and out == ""
        assert err == f"error: {lost_line('expand', path)}\n"
        assert not any(proc.is_alive() for proc in hook.procs)
        assert main([*argv, "--resume", path]) == 0
        assert verdict in capsys.readouterr().out


def edit_array(name, code, change):
    """An edit of a checkpoint payload's ``name`` array (type ``code``):
    decoded, changed in place by ``change``, encoded again."""
    def edit(payload):
        values = array(code, base64.b64decode(payload[name]))
        change(values)
        payload[name] = base64.b64encode(values).decode()
    return edit


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
        lambda blob: blob.replace(b'"transitions":',
                                  b'"transitions":9990', 1),
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

    # Re-sealed, so only decoding can catch each one.  A file written
    # in the ``written`` modes (the plain fixture's without) is resumed
    # in the ``reads`` ones: each of the explored graph's three parts a
    # mode reads must be in the file.
    @pytest.mark.parametrize("written,edit,reads,expected", [
        ({}, lambda payload: payload.pop("seal"), {},
         "checkpoint is missing the 'seal' field"),
        ({}, edit_array("keys", "Q", lambda keys: keys.__setitem__(
            -1, keys[0])), {},
         "a key is listed twice"),
        ({}, edit_array("parent", "q", lambda parent: parent.__setitem__(
            -1, len(parent) - 1)), {}, "a parent is not an earlier index"),
        ({}, edit_array("label", "I", lambda label: label.pop()), {},
         "its arrays are of unequal length"),
        ({}, lambda payload: None, {"liveness": True},
         "the checkpoint does not carry the explored graph"),
        ({"liveness": True}, lambda payload: None, {"atlas": True},
         "the checkpoint does not carry the edge labels and state vectors "
         "--atlas-out reads"),
        ({"atlas": True, "symmetry": True}, lambda payload: None,
         {"liveness": True, "symmetry": True},
         "the checkpoint does not carry the renamings --liveness "
         "--symmetry reads"),
        ({"liveness": True}, edit_array("offsets", "q", lambda offsets: (
            offsets.__setitem__(1, offsets[2] + 1))), {"liveness": True},
         "its offsets do not start at 0 and rise"),
        ({"liveness": True}, edit_array("targets", "I", lambda targets: (
            targets.__setitem__(0, 10 ** 6))), {"liveness": True},
         "an edge target is outside its record"),
        ({"atlas": True}, edit_array("vector", "I", lambda vector: (
            vector.pop())), {"atlas": True},
         "its arrays are of unequal length"),
        # Earlier builds stored the expanded rows' vectors only.
        ({"atlas": True}, lambda payload: edit_array(
            "vector", "I", lambda vector: vector.__delitem__(
                slice(payload["expanded"], None)))(payload), {"atlas": True},
         "its arrays are of unequal length"),
    ], ids=["no_seal", "repeated_key", "later_parent", "unequal_lengths",
            "liveness_from_plain", "atlas_from_liveness",
            "symmetric_liveness_from_atlas", "offsets_falling",
            "target_past_end", "short_vector", "expanded_rows_vector"])
    def test_v4_refusal_is_one_line(self, checkpoint_blob, capsys, written,
                                    edit, reads, expected):
        tmp_path, blob = checkpoint_blob
        if written:
            path = tmp_path / "written.json"
            make_serial("lcm", reorder=1, max_states=100,
                        checkpoint_out=str(path), **written).run()
            blob = path.read_bytes()
        payload = json.loads(blob)
        edit(payload)
        victim = str(tmp_path / "edited.json")
        if "seal" in payload:
            del payload["seal"]
            write_checkpoint(victim, payload)
        else:
            with open(victim, "w") as handle:
                json.dump(payload, handle)
        with pytest.raises(CheckpointError, match=re.escape(expected)):
            make_serial("lcm", reorder=1, resume=victim, **reads).run()
        flags = {"liveness": ["--liveness"], "symmetry": ["--symmetry"],
                 "atlas": ["--atlas-out", str(tmp_path / "atlas.json")]}
        assert main(["verify", "lcm", "--reorder", "1", "--resume", victim,
                     *(flag for mode in reads for flag in flags[mode])]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {victim}: ") and expected in err
        assert err.count("\n") == 1 and "states=" not in out


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

    # This process's peak RSS is far above 1 MB, so the cap fires at
    # the first cut; a run that grows into its cap is the subprocess
    # test in tests/test_cli.py.
    def test_serial_rss_cap_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()
        stopped = make_serial("lcm", reorder=1, checkpoint_out=path,
                              max_rss_mb=1).run()
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

    def test_parallel_rss_cap_truncates_and_resumes_exactly(
            self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = make_parallel("lcm", 2, reorder=1).run()
        stopped = make_parallel("lcm", 2, reorder=1,
                                checkpoint_out=path,
                                max_rss_mb=1).run()
        assert stopped.stop_reason == "memory"
        resumed = make_parallel("lcm", 2, reorder=1, resume=path).run()
        assert outcome(resumed) == outcome(full)

    def test_budget_without_checkpoint_still_stops(self):
        result = make_serial("lcm", reorder=1, fingerprint_states=True,
                             deadline_seconds=0.005).run()
        assert result.stop_reason == "deadline"
        assert not result.exhausted


class TestSerialInterrupt:
    # With or without a path, no KeyboardInterrupt escapes run().
    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["no_path", "path"])
    def test_sigint_stops_at_the_next_pop(self, tmp_path, checkpointed):
        path = str(tmp_path / "ck.json") if checkpointed else None
        full = make_serial("lcm", reorder=1,
                           fingerprint_states=True).run()

        # Deliver a real SIGINT mid-exploration via the progress hook:
        # the first progress line is the run's first timeline point.
        fired = []

        class InterruptStream:
            def write(self, _text):
                if not fired:
                    fired.append(True)
                    os.kill(os.getpid(), signal.SIGINT)

            def flush(self):
                pass

        handler = signal.getsignal(signal.SIGINT)
        stopped = make_serial("lcm", reorder=1, fingerprint_states=True,
                              checkpoint_out=path,
                              progress_stream=InterruptStream()).run()
        assert fired
        assert stopped.stop_reason == "interrupted"
        assert not stopped.exhausted
        assert stopped.states_explored < full.states_explored
        assert signal.getsignal(signal.SIGINT) is handler
        if not checkpointed:
            return
        resumed = make_serial("lcm", reorder=1, resume=path,
                              checkpoint_out=path).run()
        assert outcome(resumed) == outcome(full)


class InterruptMaster:
    """Hook: one real SIGINT to this process -- the master -- as wave
    ``at`` starts.  Keeps the fleet it last saw."""

    def __init__(self, at):
        self.at = at
        self.procs = ()

    def __call__(self, wave, procs):
        self.procs = procs
        if wave == self.at:
            self.at = None
            os.kill(os.getpid(), signal.SIGINT)


class TestParallelInterrupt:
    # lcm at reorder 1 is 528 states in 23 BFS layers, one expand
    # barrier each.
    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["no_path", "path"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sigint_stops_at_the_next_pop(self, tmp_path, workers,
                                          checkpointed):
        path = str(tmp_path / "ck.json") if checkpointed else None
        hook = InterruptMaster(5)
        handler = signal.getsignal(signal.SIGINT)
        with before_expand(hook):
            stopped = make_parallel("lcm", workers, reorder=1,
                                    checkpoint_out=path).run()
        assert hook.at is None
        assert stopped.stop_reason == "interrupted"
        assert stopped.ok and not stopped.exhausted
        assert signal.getsignal(signal.SIGINT) is handler
        assert len(hook.procs) == workers
        assert not any(proc.is_alive() for proc in hook.procs)
        # The signal landed in the barrier the first pop of layer 5
        # opened; the loop expanded that one state and stopped at the
        # next pop, as a serial run does: one state left the frontier
        # and its fresh successors joined both it and the visited set.
        *_, opened, final = stopped.timeline
        assert opened["depth"] == 5
        assert (final["states"] - opened["states"]
                == final["frontier"] - opened["frontier"] + 1)
        if not checkpointed:
            return
        full = outcome(make_serial("lcm", reorder=1,
                                   fingerprint_states=True).run())
        assert stopped.states_explored < full[1]
        assert outcome(make_serial("lcm", reorder=1,
                                   resume=path).run()) == full
        assert outcome(make_parallel("lcm", 5 - workers, reorder=1,
                                     resume=path).run()) == full


class TestCheckpointHygiene:
    # A snapshot costs 2 ms plus a price per visited state, and exploring
    # a state costs 30 us.  At 1 us a state snapshots go on all run, ever
    # further apart; at 3 us (10% of the exploration, lcm --nodes 3
    # --reorder 1's ratio) none can cost under 5% once the run has grown,
    # so they stop.  Spacing by the *last* write's cost instead would
    # spend 7.2% and 6.5% of these runs in 11 and 6 writes.
    @pytest.mark.parametrize("price,last", [(1e-6, 178_873), (3e-6, 1270)])
    def test_snapshots_hold_checkpoint_io_under_five_percent(
            self, monkeypatch, price, last):
        from types import SimpleNamespace

        from repro.verify import checkpoint

        clock = SimpleNamespace(now=0.0)
        clock.perf_counter = lambda: clock.now
        monkeypatch.setattr(checkpoint, "time", clock)
        policy = checkpoint.CutPolicy(SimpleNamespace(
            max_states=10 ** 9, deadline_seconds=None, max_rss_mb=None,
            checkpoint_out="ck.json", profiler=None, progress_stream=None),
            0.0)
        spent, at = [], []

        def write(_durable):
            spent.append(0.002 + price * states)
            at.append(states)
            clock.now += spent[-1]

        for states in range(1, 300_000):
            clock.now += 30e-6
            assert policy.at_cut(states, 0, 0, 0, False, write) is None
        assert at[0] == 1 and at[-1] == last
        assert sum(spent) <= clock.now / 20

    def test_no_partial_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_serial("lcm", reorder=1, checkpoint_out=path,
                    max_states=200).run()
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
                    max_states=300).run()
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
