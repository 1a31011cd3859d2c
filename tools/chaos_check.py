"""Chaos harness for the checker itself: kill, stall, and corrupt.

The resilience claims in docs/ROBUSTNESS.md are only claims until
something actually murders a worker mid-wave.  This harness disturbs
real checking runs and asserts the recovery contract:

* **kill** -- SIGKILL one worker at each sampled wave index, under
  ``on_worker_loss='degrade'``: the run must recover by re-sharding the
  last completed wave onto the survivors and finish with the *exact*
  undisturbed verdict, state count, transition count, and (for failing
  protocols) counterexample trace.
* **stall** -- SIGSTOP a worker so it goes silent without dying;
  ``worker_stall_timeout`` must declare it lost, kill it, and recover
  identically.
* **corrupt** -- take a genuine sealed checkpoint and damage it every
  way we can think of (bit flips, truncations, a seal-stripped edit,
  the wrong kind, binary garbage): every variant must fail with a
  one-line :class:`CheckpointError` -- a typed, actionable refusal,
  never a traceback and never a silently wrong resume.
* **interrupt** -- one SIGINT per run to a real ``teapot verify lcm
  --nodes 3 --workers 2``, the delay swept across the whole run, with
  and without ``--checkpoint-out``: wherever the signal finds the
  checker running, the run must exit 130 with the drained-wave note (or
  0 with the full verdict, when the wave it landed in was the last),
  print no traceback, and -- with a path -- leave a checkpoint that
  resumes to the pinned verdict.  Wherever it lands, the run must end
  and leave no process behind.
* **orphan** -- SIGKILL the master of a real parallel run: its workers
  must notice and leave within seconds.

Used by the non-gating ``chaos`` CI job.

Usage::

    PYTHONPATH=src python tools/chaos_check.py [-o CHAOS_CHECK.json]
        [--protocols stache,lcm,lcm_mcc] [--workers 2,3,4]
        [--kill-waves 0,2,5]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.ioutil import atomic_write_json  # noqa: E402
from repro.protocols import compile_named_protocol  # noqa: E402
from repro.verify import (  # noqa: E402
    CheckpointError,
    ModelChecker,
    ParallelChecker,
    events_for_protocol,
)
from repro.verify.invariants import standard_invariants  # noqa: E402

# Protocol -> checker configuration.  lcm_mcc at 2 blocks deadlocks,
# exercising recovery on a FAILing run (the trace must survive chaos).
CONFIGS = {
    "stache": {"n_nodes": 2, "n_blocks": 1, "reorder": 0},
    "lcm": {"n_nodes": 2, "n_blocks": 1, "reorder": 1},
    "lcm_mcc": {"n_nodes": 2, "n_blocks": 2, "reorder": 1},
}


def make_parallel(name: str, workers: int, **kwargs) -> ParallelChecker:
    config = CONFIGS[name]
    return ParallelChecker(
        compile_named_protocol(name),
        n_nodes=config["n_nodes"],
        n_blocks=config["n_blocks"],
        reorder_bound=config["reorder"],
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        workers=workers,
        **kwargs)


def outcome(result) -> dict:
    """The fields every disturbed run must reproduce exactly."""
    cell = {
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
    }
    if result.violation is not None:
        cell["violation_kind"] = result.violation.kind
        cell["violation_message"] = result.violation.message
        cell["trace"] = list(result.violation.trace)
    return cell


class KillAtWave:
    """SIGKILL worker ``victim`` the first time wave ``at`` starts."""

    def __init__(self, at: int, victim: int = 0):
        self.at = at
        self.victim = victim
        self.fired = False

    def __call__(self, wave: int, procs) -> None:
        if self.fired or wave != self.at:
            return
        self.fired = True
        target = procs[self.victim % len(procs)]
        if target.pid is not None:
            os.kill(target.pid, signal.SIGKILL)


class StallAtWave:
    """SIGSTOP a worker so it hangs silently instead of dying."""

    def __init__(self, at: int, victim: int = 0):
        self.at = at
        self.victim = victim
        self.fired = False

    def __call__(self, wave: int, procs) -> None:
        if self.fired or wave != self.at:
            return
        self.fired = True
        target = procs[self.victim % len(procs)]
        if target.pid is not None:
            os.kill(target.pid, signal.SIGSTOP)


def run_kill_cell(name: str, workers: int, wave: int,
                  baseline: dict) -> dict:
    checker = make_parallel(name, workers, on_worker_loss="degrade",
                            chaos_hook=KillAtWave(wave))
    started = time.perf_counter()
    result = checker.run()
    got = outcome(result)
    cell = {
        "verdict": "recovered" if got == baseline else "MISMATCH",
        "worker_losses": result.worker_losses,
        "seconds": round(time.perf_counter() - started, 3),
    }
    if got != baseline:
        cell["expected"] = baseline
        cell["got"] = got
    return cell


def run_stall_cell(name: str, workers: int, wave: int,
                   baseline: dict) -> dict:
    checker = make_parallel(name, workers, on_worker_loss="degrade",
                            worker_stall_timeout=2.0,
                            chaos_hook=StallAtWave(wave))
    started = time.perf_counter()
    result = checker.run()
    got = outcome(result)
    cell = {
        "verdict": "recovered" if got == baseline else "MISMATCH",
        "worker_losses": result.worker_losses,
        "seconds": round(time.perf_counter() - started, 3),
    }
    if got != baseline:
        cell["expected"] = baseline
        cell["got"] = got
    return cell


def corruption_variants(blob: bytes):
    """Every way we damage a checkpoint file, as (label, bytes)."""
    yield "truncated_half", blob[:len(blob) // 2]
    yield "truncated_one_byte", blob[:-2]
    yield "empty", b""
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x40
    yield "bitflip_middle", bytes(flipped)
    yield "binary_garbage", bytes(range(256)) * 4
    yield "wrong_kind", blob.replace(b"teapot-parallel-checkpoint",
                                     b"teapot-mystery-checkpoint", 1)
    # A legal-JSON edit of sealed content: the seal must catch it.
    yield "edited_field", blob.replace(b'"wave":', b'"wave": 999,'
                                       b' "wave_orig":', 1)


def run_corruption_matrix(tmpdir: str) -> dict:
    """A real checkpoint, damaged every way; each load must refuse
    with a one-line CheckpointError."""
    path = os.path.join(tmpdir, "chaos_ck.json")
    config = CONFIGS["lcm"]
    ModelChecker(
        compile_named_protocol("lcm"),
        n_nodes=config["n_nodes"], n_blocks=config["n_blocks"],
        reorder_bound=config["reorder"],
        events=events_for_protocol("lcm"),
        invariants=standard_invariants(coherent=True),
        fingerprint_states=True,
        max_states=100, checkpoint_out=path).run()
    with open(path, "rb") as handle:
        blob = handle.read()

    cells = {}
    for label, damaged in corruption_variants(blob):
        victim = os.path.join(tmpdir, f"chaos_ck_{label}.json")
        with open(victim, "wb") as handle:
            handle.write(damaged)
        checker = make_parallel("lcm", 2, resume=victim)
        try:
            checker.run()
        except CheckpointError as error:
            message = str(error)
            if "\n" in message:
                cells[label] = {"verdict": "MULTILINE",
                                "message": message}
            else:
                cells[label] = {"verdict": "refused", "message": message}
        except Exception as error:  # noqa: BLE001 -- report, don't die
            cells[label] = {"verdict": "WRONG_ERROR",
                            "message": f"{type(error).__name__}: {error}"}
        else:
            cells[label] = {"verdict": "ACCEPTED_CORRUPT"}
    return cells


# The interrupt sweep's run (bench's ``workers2_mid`` model, progress
# on so the harness can tell when the checker is running) and the
# verdict any resume of it must print.
SWEEP_ARGV = ["verify", "lcm", "--nodes", "3", "--workers", "2",
              "--progress", "--progress-every", "500"]
SWEEP_VERDICT = "PASS  states=7658 transitions=29216 depth=21"
SWEEP_DELAYS = 40


def start_teapot(argv, **popen) -> subprocess.Popen:
    """A real ``python -m repro.cli`` process leading its own session,
    so the session is exactly the process and its workers."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), start_new_session=True,
        **popen)


def session_empty(leader: subprocess.Popen, within: float) -> bool:
    """Whether the (reaped) ``leader``'s session empties within
    ``within`` seconds; whatever is left after that is killed."""
    deadline = time.monotonic() + within
    while True:
        try:
            os.killpg(leader.pid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            os.killpg(leader.pid, signal.SIGKILL)
            return False
        time.sleep(0.05)


def run_interrupt_cell(delay: float, checkpointed: bool,
                       tmpdir: str) -> dict:
    """One run, one SIGINT ``delay`` seconds after it was started."""
    path = os.path.join(tmpdir, "sweep_ck.json")
    if os.path.exists(path):
        os.remove(path)
    argv = SWEEP_ARGV + (["--checkpoint-out", path] if checkpointed else [])
    out_path = os.path.join(tmpdir, "sweep_out.txt")
    err_path = os.path.join(tmpdir, "sweep_err.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        run = start_teapot(argv, stdout=out, stderr=err)
        time.sleep(delay)
        with open(out_path) as out_now, open(err_path) as err_now:
            # In scope: ParallelChecker.run() is executing -- a progress
            # line is out, the verdict line is not.
            in_scope = ("[verify " in err_now.read()
                        and "states=" not in out_now.read())
        if run.poll() is None:
            os.kill(run.pid, signal.SIGINT)
        try:
            status = run.wait(timeout=60)
        except subprocess.TimeoutExpired:
            status = "hang"
            run.kill()
            run.wait()
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    problems = []
    if status == "hang":
        problems.append("hung")
    if not session_empty(run, within=5.0):
        problems.append("left a process behind")
    if "_worker_main" in stderr:
        problems.append("worker traceback")
    if "died during" in stderr:
        problems.append("false worker loss")
    if "checkpoint is at" in stderr and not os.path.exists(path):
        problems.append("names a checkpoint that is not on disk")
    if in_scope:
        if "Traceback" in stderr:
            problems.append("traceback")
        if status == 130:
            if "the completed wave was drained first" not in stderr:
                problems.append("exit 130 without the drained-wave note")
        elif status != 0 or SWEEP_VERDICT not in stdout:
            problems.append(f"exit {status}")
    if checkpointed and os.path.exists(path):
        resumed = start_teapot(
            ["verify", "lcm", "--nodes", "3", "--resume", path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        verdict, _ = resumed.communicate(timeout=120)
        if resumed.returncode != 0 or SWEEP_VERDICT not in verdict:
            problems.append("checkpoint does not resume to the verdict")
    return {"delay": round(delay, 3), "in_scope": in_scope,
            "status": status,
            "verdict": "ok" if not problems else "; ".join(problems)}


def run_interrupt_sweep(tmpdir: str) -> dict:
    """SWEEP_DELAYS evenly spaced delays across one undisturbed run's
    wall time, each with and without a checkpoint path."""
    started = time.perf_counter()
    start_teapot(SWEEP_ARGV, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL).wait(timeout=120)
    wall = time.perf_counter() - started
    cells = {}
    for checkpointed in (True, False):
        for step in range(1, SWEEP_DELAYS + 1):
            key = (f"sigint@{step}/{SWEEP_DELAYS} "
                   f"{'ckpt' if checkpointed else 'plain'}")
            cells[key] = run_interrupt_cell(
                wall * step / SWEEP_DELAYS, checkpointed, tmpdir)
    return cells


def run_orphan_cell() -> dict:
    """SIGKILL the master 1 s into a ~15 s parallel run; the workers
    must be gone within 5 s."""
    run = start_teapot(["verify", "lcm", "--nodes", "3", "--reorder", "1",
                        "--workers", "2"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    time.sleep(1.0)
    run.kill()
    run.wait()
    started = time.perf_counter()
    empty = session_empty(run, within=5.0)
    return {"verdict": "ok" if empty else "workers outlived the master",
            "seconds": round(time.perf_counter() - started, 3)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="CHAOS_CHECK.json")
    parser.add_argument("--protocols", default="stache,lcm,lcm_mcc",
                        help="comma-separated subset of "
                             f"{', '.join(CONFIGS)}")
    parser.add_argument("--workers", default="2,3,4",
                        help="comma-separated worker counts")
    parser.add_argument("--kill-waves", default="0,2,5",
                        help="wave indices at which to SIGKILL a worker")
    args = parser.parse_args()

    names = args.protocols.split(",")
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        raise SystemExit(f"unknown protocols: {', '.join(unknown)}")
    worker_counts = [int(w) for w in args.workers.split(",")]
    kill_waves = [int(w) for w in args.kill_waves.split(",")]

    failures = []
    report = {"benchmark": "chaos harness: kill/stall/corrupt/interrupt/"
                           "orphan the checker", "cells": {}}

    for name in names:
        baseline = outcome(make_parallel(name, 2).run())
        report["cells"][name] = {"baseline": baseline}
        for workers in worker_counts:
            for wave in kill_waves:
                key = f"kill@w{wave} x{workers}"
                cell = run_kill_cell(name, workers, wave, baseline)
                report["cells"][name][key] = cell
                if cell["verdict"] != "recovered":
                    failures.append(f"{name} {key}")
                print(f"{name:8s} {key:16s} {cell['verdict']} "
                      f"(losses={cell['worker_losses']}, "
                      f"{cell['seconds']}s)")
        key = "stall@w1 x2"
        cell = run_stall_cell(name, 2, 1, baseline)
        report["cells"][name][key] = cell
        if cell["verdict"] != "recovered":
            failures.append(f"{name} {key}")
        print(f"{name:8s} {key:16s} {cell['verdict']} "
              f"(losses={cell['worker_losses']}, {cell['seconds']}s)")

    with tempfile.TemporaryDirectory() as tmpdir:
        corruption = run_corruption_matrix(tmpdir)
    report["corruption"] = corruption
    for label, cell in corruption.items():
        if cell["verdict"] != "refused":
            failures.append(f"corrupt:{label} -> {cell['verdict']}")
        print(f"corrupt  {label:18s} {cell['verdict']}")

    with tempfile.TemporaryDirectory() as tmpdir:
        sweep = run_interrupt_sweep(tmpdir)
    report["interrupt"] = sweep
    for key, cell in sweep.items():
        if cell["verdict"] != "ok":
            failures.append(f"interrupt:{key} -> {cell['verdict']}")
    tally = {status: sum(1 for cell in sweep.values()
                         if cell["in_scope"] and cell["status"] == status)
             for status in (130, 0)}
    print(f"interrupt {len(sweep)} runs, "
          f"{sum(cell['in_scope'] for cell in sweep.values())} with the "
          f"checker running (exit 130: {tally[130]}, exit 0: {tally[0]}), "
          f"{sum(cell['verdict'] != 'ok' for cell in sweep.values())} wrong")

    report["orphan"] = orphan = run_orphan_cell()
    if orphan["verdict"] != "ok":
        failures.append(f"orphan -> {orphan['verdict']}")
    print(f"orphan   kill -9 master      {orphan['verdict']} "
          f"({orphan['seconds']}s)")

    report["failures"] = failures
    atomic_write_json(args.output, report, indent=2)
    print(f"wrote {args.output}")
    if failures:
        print(f"CHAOS FAILURES: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("chaos matrix green: every disturbed run recovered exactly; "
          "every corrupt checkpoint was refused with a one-line error; "
          "every interrupt stopped at a wave boundary; no worker "
          "outlived its master")
    return 0


if __name__ == "__main__":
    sys.exit(main())
