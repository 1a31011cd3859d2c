"""Interrupt sweep for the parallel checker.

One SIGINT per run to a real ``teapot verify lcm --nodes 3 --workers
2``, the delay swept across the whole run, with and without
``--checkpoint-out``: wherever the signal finds the checker running,
the run must exit 130 with the interrupt note (or 0 with the full
verdict, when the state it landed before was the last), print no traceback,
and -- with a path -- leave a checkpoint that resumes to the pinned
verdict.  Wherever it lands, the run must end and leave no process
behind.

Timing-sensitive (each cell is a fresh process and a wall-clock delay),
so it runs in the non-gating ``chaos`` CI job; the deterministic cases
are gated in ``tests/test_resilience.py`` and ``tests/test_cli.py``.

Usage::

    PYTHONPATH=src python tools/chaos_check.py [-o CHAOS_CHECK.json]
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

# The interrupt sweep's run (bench's ``workers2_mid`` model, progress
# on so the harness can tell when the checker is running) and the
# verdict any resume of it must print.
SWEEP_ARGV = ["verify", "lcm", "--nodes", "3", "--workers", "2",
              "--progress"]
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
    if "_serve" in stderr:
        problems.append("worker traceback")
    if "died during" in stderr:
        problems.append("false worker loss")
    if "checkpoint is at" in stderr and not os.path.exists(path):
        problems.append("names a checkpoint that is not on disk")
    if in_scope:
        if "Traceback" in stderr:
            problems.append("traceback")
        if status == 130:
            if "interrupted (SIGINT) at the next clean cut" not in stderr:
                problems.append("exit 130 without the interrupt note")
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="CHAOS_CHECK.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmpdir:
        sweep = run_interrupt_sweep(tmpdir)
    failures = [f"{key} -> {cell['verdict']}"
                for key, cell in sweep.items() if cell["verdict"] != "ok"]
    tally = {status: sum(1 for cell in sweep.values()
                         if cell["in_scope"] and cell["status"] == status)
             for status in (130, 0)}
    print(f"interrupt {len(sweep)} runs, "
          f"{sum(cell['in_scope'] for cell in sweep.values())} with the "
          f"checker running (exit 130: {tally[130]}, exit 0: {tally[0]}), "
          f"{len(failures)} wrong")

    atomic_write_json(args.output, {
        "benchmark": "chaos harness: a SIGINT swept across a parallel run",
        "interrupt": sweep, "failures": failures}, indent=2)
    print(f"wrote {args.output}")
    if failures:
        print(f"CHAOS FAILURES: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("every interrupt stopped at a clean cut and left no "
          "process behind")
    return 0


if __name__ == "__main__":
    sys.exit(main())
