"""The traced run: per-layer metrics of one workload.

Every layer is timed from outside, in fresh children, around calls into
its public functions (child.py).  The run's spans go to
bench/out/trace-<workload>.json.  Which layers a workload's trace
measures follows which end-to-end number they should move; README.md has
the table.
"""

from __future__ import annotations

import random
import statistics
import sys

from procs import OUT, ChildFailed, Reply, run_child, run_job
from spans import Tracer
from workloads import SAMPLE_MODEL, SAMPLE_SIZE, SIM_ANSWERS


def per_layer(run) -> dict:
    trace = Trace(run)
    with trace.tracer.span(f"run.{run.workload.name}"):
        try:
            trace.measure()
        except ChildFailed as error:
            run.errors.append(str(error))
    OUT.mkdir(parents=True, exist_ok=True)
    trace.tracer.save(OUT / f"trace-{run.workload.name}.json")
    return trace.values


class Trace:
    def __init__(self, run):
        self.run = run
        self.workload = run.workload
        self.tracer = Tracer(run.workload.name)
        self.values: dict = {}

    def job(self, job: dict, span_name: str | None = None) -> Reply:
        return run_job(dict(job, workload=self.workload.name),
                       self.run.scratch, self.tracer, span_name)

    def twin(self, workload, **extra) -> Reply:
        """The traced twin of `teapot verify`: the same import, compile,
        check and coverage report through the public API, under spans."""
        options = {**workload.check_options(), **extra.pop("options", {})}
        return self.job({"job": "verify", "protocol": workload.protocol,
                         "options": options, **extra}, "process.twin")

    def measure(self) -> None:
        run, values, tracer = self.run, self.values, self.tracer
        with tracer.span("setup"):
            run.setup()
        with tracer.span("cli.interp_start"):
            starts = [run_child([sys.executable, "-c", "pass"],
                                run.scratch).wall_s for _ in range(3)]
        with tracer.span("cli.import"):
            importing = run_child([sys.executable, "-c", "import repro.cli"],
                                  run.scratch).wall_s
        values["cli.interp_start_s"] = statistics.median(starts)
        values["cli.import_s"] = importing - values["cli.interp_start_s"]

        untraced = run.sample(tracer)
        if self.workload.kind == "verify":
            twin = self.twin(self.workload, warm=True)
            told = twin.result
            answers = {key: told[key]
                       for key in ("states", "transitions", "depth")}
            if told["canonical"] is not None:
                answers["canonical"] = told["canonical"]
            if not told["ok"]:
                answers["verdict"] = "not a full PASS"
            engine = twin.span("verify.checker.explore_cold")
        else:
            twin = self.job(run.sim_job(self.workload.protocol),
                            "process.twin")
            told = twin.result
            answers = {key: told[key] for key in SIM_ANSWERS}
            engine = twin.span("tempest.run")
        if not run.count(answers):
            return
        # The warm repeat is not part of what the untraced sample does.
        extra = twin.t_last - told["t_reported"]
        if untraced is not None:
            values["trace_overhead_pct"] = 100.0 * (
                twin.exit.wall_s - extra - untraced.wall_s) / untraced.wall_s
        values["cli.post_explore_s"] = (
            twin.exit.t_exit - engine["end"] - extra)
        for name in ("api.compile_cold", "api.compile_cached"):
            span = twin.span(name)
            values[f"{name}_s"] = span["end"] - span["start"]
        if self.workload.kind == "verify":
            self.checker(told)
        else:
            self.tempest(told)
        layers = getattr(self, self.workload.name, None)
        if layers is not None:
            layers(twin)

    # -- every checker workload --------------------------------------------------

    def checker(self, told: dict) -> None:
        cold, warm = told["elapsed"], told["warm_elapsed"]
        self.values.update({
            "checker.explore_cold_s": cold,
            # What the old BENCH_*.json files reported: a second call in
            # the same process replays the successor memo.
            "checker.explore_warm_s": warm,
            "checker.memo_warm_ratio": cold / warm,
            "checker.states": told["states"],
            "checker.transitions": told["transitions"],
            "checker.max_depth": told["depth"],
            "checker.states_per_s": told["states"] / cold,
            "checker.handler_fires": told["handler_fires"],
            "checker.invariant_evals": told["invariant_evals"],
            "checker.canonical_states": told["canonical"] or 0,
        })

    # -- every simulator workload ------------------------------------------------

    def tempest(self, told: dict) -> None:
        values = self.values
        values["tempest.run_s"] = told["run_s"]
        values["tempest.ns_per_dispatch"] = (
            1e9 * told["run_s"] / told["dispatches"])
        values["tempest.dispatches_per_s"] = told["dispatches"] / told["run_s"]
        for key in ("dispatches", "messages", "cont_allocs", "queue_allocs",
                    "static_cont_uses", "fault_time_fraction"):
            values[f"tempest.{key}"] = told[key]
        for key, value in self.run.sim_metrics().items():
            values[f"tempest.{key}"] = value
        values["workloads.build_s"] = self.run.inputs["build_s"]
        values["workloads.ops"] = self.run.inputs["ops"]

    # -- layers only one workload's trace measures; named after it ---------------

    def cold_small(self, twin: Reply) -> None:
        """lang, compiler, backends: the front end moves this wall_s."""
        self.values.update(self.job(
            {"job": "frontend", "passes": 1 if self.run.smoke else 3}).result)

    def serial_mid(self, twin: Reply) -> None:
        """The layers measured on the base model itself: fingerprint and
        invariants over a state sample, checkpoint I/O, observer prices."""
        values, model = self.values, SAMPLE_MODEL
        common = {"protocol": model.protocol, "nodes": model.nodes,
                  "reorder": model.reorder}
        # The seed picks which reachable states; the child gets indices.
        indices = random.Random(self.run.seed).sample(
            range(model.pins["states"]), SAMPLE_SIZE)
        values.update(self.job(
            {"job": "states", "indices": indices, **common}).result)
        values.update(self.job(
            {"job": "checkpoint", "max_states": model.pins["states"] // 2,
             "dir": str(self.run.scratch.path), **common}).result)
        unarmed = twin.result["elapsed"]
        profiled = self.twin(model, artifact="profile").result
        values["obs.profile_price_ratio"] = profiled["elapsed"] / unarmed
        phases = profiled["phases"]
        total = sum(phases.values())
        for phase in ("successors", "invariants", "fingerprint", "visited"):
            values[f"obs.profile.{phase}_share"] = phases[phase] / total
        values["obs.profile.other_share"] = (
            phases["other"] + phases["checkpoint_io"]) / total
        mapped = self.twin(model, artifact="atlas").result
        values["obs.atlas_price_ratio"] = mapped["elapsed"] / unarmed

    def fingerprint_mid(self, twin: Reply) -> None:
        base = self.twin(SAMPLE_MODEL).result
        self.values["fingerprint.mode_price_ratio"] = (
            twin.result["elapsed"] / base["elapsed"])

    def symmetry_mid(self, twin: Reply) -> None:
        base = self.twin(SAMPLE_MODEL).result
        self.values["fingerprint.symmetry_price_ratio"] = (
            twin.result["elapsed"] / base["elapsed"])
        self.values["fingerprint.symmetry_state_ratio"] = (
            twin.result["states"] / base["states"])

    def workers2_mid(self, twin: Reply) -> None:
        values = self.values
        base = self.twin(SAMPLE_MODEL)
        values["parallel.explore_w2_s"] = twin.result["elapsed"]
        values["parallel.speedup_w2"] = (
            base.result["elapsed"] / twin.result["elapsed"])
        values["parallel.cpu_ratio_w2"] = twin.exit.cpu_s / base.exit.cpu_s
        values["parallel.explore_w1_s"] = self.twin(
            self.workload, options={"workers": 1}).result["elapsed"]
        profiled = self.twin(self.workload, artifact="profile").result
        values["parallel.barrier_wait_share"] = profiled["barrier_wait_share"]
        values["parallel.cross_shard_bytes"] = profiled["cross_shard_bytes"]

    def sim_gauss32(self, twin: Reply) -> None:
        """What arming the simulator's observers costs, on a fifth of the
        iterations so that three more children fit in the run."""
        run = self.run
        size = dict(self.workload.smoke_size if run.smoke
                    else self.workload.size)
        size["iterations"] = max(2, size["iterations"] // 5)
        path, _ = run.generate(size)
        seconds = {}
        for armed in ("plain", "sim_trace", "sim_metrics"):
            job = dict(run.sim_job(self.workload.protocol),
                       programs=str(path))
            if armed != "plain":
                job[armed] = str(run.scratch.file(f".{armed}.json"))
            seconds[armed] = self.job(job, f"process.{armed}").result["run_s"]
        for armed in ("sim_trace", "sim_metrics"):
            self.values[f"obs.{armed}_price_ratio"] = (
                seconds[armed] / seconds["plain"])
