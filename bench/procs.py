"""Child processes: spawn one, reap it with os.wait4, read what it said.

Every timed sample is a fresh child, one at a time.  wait4 gives CPU
time and peak RSS per child (descendants it waited for included), which
getrusage(RUSAGE_CHILDREN) could only give summed over all of them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# What every child is spawned with, relative to ROOT, its working
# directory.  Recorded in the results.
CHILD_ENV = {"PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 150

clock = time.perf_counter


class ChildFailed(RuntimeError):
    """A child.py job exited non-zero."""


@dataclass
class Exit:
    """One reaped child."""

    returncode: int
    wall_s: float            # spawn -> exit
    cpu_s: float             # user + sys, waited-for descendants included
    peak_rss_mb: float       # ru_maxrss: the largest single process
    t_spawn: float
    t_exit: float
    stdout: str
    stderr: str


class Scratch:
    """The run's temporary directory, inside the checkout."""

    def __init__(self):
        self.path = OUT / f"tmp-{os.getpid()}"
        self._files = 0

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)

    def file(self, suffix: str) -> Path:
        self._files += 1
        return self.path / f"{self._files:04d}{suffix}"


def run_child(argv: list[str], scratch: Scratch) -> Exit:
    out_path, err_path = scratch.file(".out"), scratch.file(".err")
    env = dict(os.environ, **CHILD_ENV)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t_spawn = clock()
        # Its own session, so a timeout can take its workers down too.
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [proc.pid])
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)    # nothing it started may outlive it
    return Exit(returncode=proc.returncode, wall_s=t_exit - t_spawn,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024,
                t_spawn=t_spawn, t_exit=t_exit,
                stdout=out_path.read_text(), stderr=err_path.read_text())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Reply:
    """What came back from one child.py job."""

    result: dict
    exit: Exit
    spans: list
    t_last: float            # the child's clock just before it shut down

    def span(self, name: str) -> dict:
        return next(span for span in self.spans if span["name"] == name)


def run_job(job: dict, scratch: Scratch, tracer: Tracer | None = None,
            span_name: str | None = None) -> Reply:
    """Run one child.py job.  With a tracer, the child records spans, its
    process becomes a span, and the spans it recorded are adopted under
    it.  Raises ChildFailed when the child exits non-zero."""
    path = scratch.file(".job.json")
    path.write_text(json.dumps(dict(job, spans=tracer is not None)))
    exit_ = run_child([sys.executable, "bench/child.py", str(path)], scratch)
    if tracer is not None:
        process = tracer.add(span_name or f"process.{job['job']}",
                             exit_.t_spawn, exit_.t_exit)
    if exit_.returncode != 0:
        raise ChildFailed(f"child job {job['job']} exited "
                          f"{exit_.returncode}: {exit_.stderr[-1000:]}")
    told = json.loads(exit_.stdout.splitlines()[-1])
    if tracer is not None:
        tracer.adopt(told["spans"], process)
    return Reply(told["result"], exit_, told["spans"], told["t_last"])
