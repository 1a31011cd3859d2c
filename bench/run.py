"""The repo's benchmark: compiler, checker and simulator, cold process.

    python bench/run.py [--workload W] [--seed N] [--seconds S] [--trace]

prints every metric by name with its unit, checks every sample against
the pinned answers in workloads.py, and exits non-zero on a mismatch.
Every timed sample is a fresh child process, one at a time; see
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from metrics import (
    CONTRACT_END_TO_END,
    END_TO_END,
    EXACT_PER_LAYER,
    PER_LAYER,
    UNPACED,
)
from procs import (
    CHILD_ENV,
    ROOT,
    ChildFailed,
    Exit,
    Scratch,
    clock,
    run_child,
    run_job,
)
from workloads import (
    BY_NAME,
    RUN_SECONDS,
    SIM_ANSWERS,
    WORKLOADS,
)

TRAJECTORY = ROOT / "bench" / "trajectory.jsonl"
# The warm-up is short, so a checker run sets up several times and
# reports the median; a simulator set-up runs the reference flavor for
# seconds, so once is enough.
VERIFY_SETUP_REPEATS = 3
SMOKE_SAMPLES = 2
LOAD_WARNING = 0.5

# The pace probe: a fixed pure-Python spin in a fresh child, run before
# and after every sample.  This host alternates between speeds ~45% apart
# in phases of 5 s to minutes (a neighbour on the core); the probe slows
# down with the samples (correlation 0.85), so dividing a sample's time
# by the pace around it takes most of that out: over 380 cold_small
# samples cut into runs of 18, the run medians spread 6.8% raw and 1.7%
# paced (README.md, "Noise").
PROBE = [sys.executable, "-c", "x = 0\nfor i in range(400000): x += i * i"]
# What one probe takes on a quiet core of the host the benchmark was
# defined on.  Paced seconds are seconds at this pace.
REFERENCE_PROBE_S = 0.045
PROBES_PER_PACE = 3

VERDICT = re.compile(
    r"PASS  states=(?P<states>\d+) transitions=(?P<transitions>\d+)"
    r"(?: canonical-states=(?P<canonical>\d+))? depth=(?P<depth>\d+) ")


class Run:
    """One invocation of one workload: set-up, samples, their checks."""

    def __init__(self, workload, seed: int, seconds: float, smoke: bool,
                 scratch: Scratch):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.answers: dict = {}      # the counts every sample agreed on
        self.inputs: dict = {}       # what set-up hands to the samples

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> float:
        """Prepare the samples' inputs; returns setup_s."""
        if self.workload.kind == "sim":
            started = clock()
            self._setup_sim()
            return clock() - started
        rounds = []
        for _ in range(VERIFY_SETUP_REPEATS):
            started = clock()
            # One untimed invocation fills the .pyc files.
            warm = run_child(BY_NAME["cold_small"].command(), self.scratch)
            if warm.returncode != 0:
                self.errors.append(
                    f"warm-up exited {warm.returncode}: {warm.stderr[-500:]}")
            rounds.append(clock() - started)
        return statistics.median(rounds)

    def pace(self) -> float:
        """How slowly the host runs right now: 1.0 is the reference."""
        return statistics.median(
            run_child(PROBE, self.scratch).wall_s
            for _ in range(PROBES_PER_PACE)) / REFERENCE_PROBE_S

    def generate(self, size: dict) -> tuple[Path, int]:
        """Programs from the seed, written where a child can load them.
        The child never sees the seed."""
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import repro.workloads as generators
        finally:
            sys.path.pop(0)
        programs = getattr(generators, self.workload.generator)(
            seed=self.seed, **size)
        path = self.scratch.file(".programs.pkl")
        with open(path, "wb") as handle:
            pickle.dump(programs, handle)
        return path, sum(len(program) for program in programs)

    def _setup_sim(self) -> None:
        workload = self.workload
        started = clock()
        path, ops = self.generate(
            workload.smoke_size if self.smoke else workload.size)
        self.inputs = {"programs": str(path), "ops": ops,
                       "build_s": clock() - started, "reference": {}}
        # The reference flavor on the same programs; this also fills the
        # .pyc files before anything is timed.
        try:
            self.inputs["reference"] = run_job(
                self.sim_job(workload.reference), self.scratch).result
        except ChildFailed as error:
            self.errors.append(f"reference run: {error}")

    def sim_job(self, protocol: str) -> dict:
        return {"job": "sim", "workload": self.workload.name,
                "protocol": protocol, "programs": self.inputs["programs"]}

    # -- samples -----------------------------------------------------------------

    def sample(self, tracer=None) -> Exit | None:
        """One cold child, checked; None when it failed."""
        if self.workload.kind == "verify":
            exit_ = run_child(self.workload.command(), self.scratch)
            if tracer is not None:
                tracer.add("sample.untraced", exit_.t_spawn, exit_.t_exit)
            found = VERDICT.search(exit_.stdout)
            if exit_.returncode != 0 or not found:
                self.count(None, f"sample exited {exit_.returncode}: "
                           f"{(exit_.stderr or exit_.stdout)[-500:]}")
                return None
            answers = {key: int(value)
                       for key, value in found.groupdict().items() if value}
        else:
            try:
                reply = run_job(self.sim_job(self.workload.protocol),
                                self.scratch)
            except ChildFailed as error:
                self.count(None, str(error))
                return None
            exit_ = reply.exit
            if tracer is not None:
                tracer.add("sample.untraced", exit_.t_spawn, exit_.t_exit)
            answers = {key: reply.result[key] for key in SIM_ANSWERS}
        return exit_ if self.count(answers) else None

    def count(self, answers: dict | None, error: str | None = None) -> bool:
        """Count one sample as attempted, and as failed unless its answers
        are right: pinned answers where they apply, determinism always,
        and for the simulator wire identity with the reference flavor."""
        self.attempted += 1
        before = len(self.errors)
        if answers is None:
            self.errors.append(error)
        else:
            if self.workload.kind == "sim":
                reference = self.inputs["reference"]
                for key in ("messages", "dispatches"):
                    if reference.get(key) != answers[key]:
                        self.errors.append(
                            f"{key}: {answers[key]} but the reference "
                            f"flavor has {reference.get(key)}")
            for key, value in self.pinned().items():
                if answers.get(key) != value:
                    self.errors.append(
                        f"{key}: got {answers.get(key)}, pinned {value}")
            if self.answers and answers != self.answers:
                self.errors.append(
                    f"samples disagree: {answers} after {self.answers}")
            self.answers = self.answers or answers
        if len(self.errors) > before:
            self.failed += 1
            return False
        return True

    def pinned(self) -> dict:
        """The answers fixed in workloads.py, where they apply."""
        workload = self.workload
        if workload.kind == "verify":
            return workload.pins
        if self.smoke or self.seed != workload.seed:
            return {}
        return {key: value for key, value in workload.pins.items()
                if key != "reference_cycles"}

    def sim_metrics(self) -> dict:
        """Simulated time of the Teapot flavor, and its overhead over the
        hand-written state machine on the same programs."""
        reference = self.inputs["reference"].get("cycles")
        pinned = self.workload.pins["reference_cycles"]
        if self.pinned() and reference != pinned:
            self.errors.append(
                f"reference cycles: got {reference}, pinned {pinned}")
        cycles = self.answers.get("cycles")
        if not cycles or not reference:
            return {}
        return {"sim_cycles": cycles,
                "teapot_overhead_pct":
                    100.0 * (cycles - reference) / reference}

    # -- the untraced run --------------------------------------------------------

    def end_to_end(self) -> dict:
        """Set up, then sample until the time is up.  Timings are paced:
        each is divided by the host's pace around it."""
        before = self.pace()
        setup_raw = self.setup()
        after = self.pace()
        values = {"setup_s": 2 * setup_raw / (before + after)}
        paces, walls, cpus, exits = [after], [], [], []
        started = clock()
        while True:
            exit_ = self.sample()
            before, after = after, self.pace()
            if exit_ is not None:
                pace = (before + after) / 2
                paces.append(after)
                exits.append(exit_)
                walls.append(exit_.wall_s / pace)
                cpus.append(exit_.cpu_s / pace)
            if self.smoke:
                if self.attempted >= SMOKE_SAMPLES:
                    break
            elif clock() - started >= self.seconds:
                break
        if exits:
            values["wall_s"] = statistics.median(walls)
            values["cpu_s"] = statistics.median(cpus)
            values["peak_rss_mb"] = statistics.median(
                exit_.peak_rss_mb for exit_ in exits)
            values["wall_raw_s"] = statistics.median(
                exit_.wall_s for exit_ in exits)
            values["cpu_raw_s"] = statistics.median(
                exit_.cpu_s for exit_ in exits)
        values["setup_raw_s"] = setup_raw
        values["host_pace"] = statistics.median(paces)
        if self.workload.kind == "sim":
            values.update(self.sim_metrics())
        values["failed_share"] = self.failed / self.attempted
        return values


# -- running, printing, recording ------------------------------------------------

UNITS = {**{metric.name: metric.unit for metric in [*END_TO_END, *PER_LAYER]},
         **UNPACED}


def run_workload(workload, args) -> dict:
    seed = workload.seed if args.seed is None else args.seed
    with Scratch() as scratch:
        run = Run(workload, seed, args.seconds, args.smoke, scratch)
        values = layers.per_layer(run) if args.trace else run.end_to_end()
    measured = sorted(values)
    if args.trace:
        # The driver wants every per-layer name on every workload; a
        # layer this workload's trace does not measure reads 0.
        values = {metric.name: values.get(metric.name, 0)
                  for metric in PER_LAYER}
    else:
        for metric in END_TO_END:
            if workload.kind in metric.kinds and metric.name not in values:
                run.errors.append(f"{metric.name} could not be measured")
    return {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "attempted": run.attempted, "failed": run.failed,
        "correct": not run.errors, "errors": run.errors,
        "measured": measured, "answers": run.answers,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def print_result(result: dict) -> None:
    passed = result["attempted"] - result["failed"]
    print(f"workload {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  samples={result['attempted']}")
    for name in result["measured"]:
        metric = result["metrics"][name]
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = (f"  (median of {passed})" if name in
                ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s", "cpu_raw_s")
                else "")
        print(f"  {name:<40} {shown:>14} {metric['unit']}{note}")
    for error in result["errors"]:
        print(f"  MISMATCH: {error}")


def contract_result(result: dict) -> dict:
    """What the driver reads from the last line: these four keys.  An
    untraced run reports the metrics every workload has."""
    metrics = result["metrics"]
    if not result["trace"]:
        metrics = {name: metrics[name] for name in CONTRACT_END_TO_END
                   if name in metrics}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def host_record() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                               cwd=ROOT, capture_output=True, text=True)
        if found.returncode == 0:
            rev = found.stdout.strip()
    return {"rev": rev, "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "child_env": CHILD_ENV, "load1_start": os.getloadavg()[0]}


def append_trajectory(host: dict, results: list[dict], seconds) -> None:
    line = {"host": host, "run_seconds": seconds, "workloads": {
        result["workload"]: {
            "seed": result["seed"], "samples": result["attempted"],
            **{name: metric["value"]
               for name, metric in result["metrics"].items()}}
        for result in results}}
    with open(TRAJECTORY, "a") as handle:
        handle.write(json.dumps(line) + "\n")


def check_repeat(workloads, args) -> int:
    """A/A: run each workload twice.  The two runs must agree within each
    end-to-end metric's own bound, and exactly where a metric is exact.
    A metric that cannot meet its bound is ungateable; the bound stays."""
    status = 0
    bounds = {metric.name: metric.bound for metric in END_TO_END}
    for workload in workloads:
        first, second = (run_workload(workload, args) for _ in range(2))
        print_result(second)
        complaints = []
        if not (first["correct"] and second["correct"]):
            complaints.append("a run was not correct")
        if first["answers"] != second["answers"]:
            complaints.append(f"NOT EXACT: answers {first['answers']} then "
                              f"{second['answers']}")
        for name in first["measured"]:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if args.trace:
                if name in EXACT_PER_LAYER and a != b:
                    complaints.append(f"NOT EXACT: {name} {a} then {b}")
            elif name in bounds:
                low = min(a, b)
                differs = abs(a - b) / low if low else float(a != b)
                print(f"  A/A {name:<36} {a:.6g} then {b:.6g}: differs "
                      f"{differs:.1%}, bound {bounds[name]:.0%}")
                if differs > bounds[name]:
                    complaints.append(
                        ("UNGATEABLE" if bounds[name] else "NOT EXACT")
                        + f": {name} differs {differs:.1%}")
        for complaint in complaints:
            print(f"  {complaint}")
        status = status or int(bool(complaints))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="one workload (default: all eight)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the program generators and the state "
                             "sample (default: the pinned seeds)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run keeps taking samples")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="print per-layer metrics and write span files")
    parser.add_argument("--smoke", action="store_true",
                        help="two samples per run, tiny simulator programs")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run each workload twice and compare")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: src/repro is missing; run from a checkout of "
              "the repo", file=sys.stderr)
        return 2
    workloads = [BY_NAME[args.workload]] if args.workload else WORKLOADS
    host = host_record()
    if host["load1_start"] > LOAD_WARNING:
        print(f"warning: 1-min load average is {host['load1_start']:.2f}; "
              "timings will be noisy", file=sys.stderr)
    if args.check_repeat:
        return check_repeat(workloads, args)

    results = []
    for workload in workloads:
        results.append(run_workload(workload, args))
        print_result(results[-1])
    host["load1_end"] = os.getloadavg()[0]
    print("host " + json.dumps(host))
    if not (args.workload or args.trace or args.smoke):
        append_trajectory(host, results, args.seconds)
    if args.workload:
        print(json.dumps(contract_result(results[0])))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {r["workload"]: contract_result(r)
                          for r in results}}))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
