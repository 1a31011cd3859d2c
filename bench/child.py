"""What runs inside a fresh child process: `python bench/child.py JOB.json`.

This is the only file of the benchmark that calls into repro (run.py
imports repro.workloads to generate programs, nothing else).  Layers are
timed from outside, around calls into their public functions.  The last
line of standard output is one JSON object: the job's result, the spans
recorded, and `t_last`, the clock just before the interpreter starts to
shut down, from which the parent measures teardown.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import sys
import time
from collections import Counter

from spans import NullTracer, Tracer

clock = time.perf_counter


def job_verify(job, tracer):
    """The traced twin of `python -m repro.cli verify`: the same import,
    compile, check and coverage report, each under a span."""
    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401  (what `-m repro.cli` pays)
        from repro import api
    name = job["protocol"]
    options = dict(job["options"])
    symmetry = options.pop("symmetry", False)
    artifact = job.get("artifact")
    check_options = api.CheckOptions(
        **options,
        reduction=api.ReductionOptions(symmetry=symmetry),
        artifacts=api.ArtifactOptions(profile=artifact == "profile",
                                      atlas=artifact == "atlas"))
    with tracer.span("api.compile_cold"):
        protocol = api.compile_protocol(name)
    with tracer.span("api.compile_cached"):
        api.compile_protocol(name)
    with tracer.span("verify.checker.explore_cold"):
        result = api.check(name, check_options)
    with tracer.span("cli.coverage"):
        from repro.obs.analyze import coverage_from_checker

        coverage = coverage_from_checker(protocol, result).summary_line()
    out = {
        "ok": result.ok and result.exhausted,
        "states": result.states_explored,
        "transitions": result.transitions,
        "depth": result.max_depth,
        "canonical": result.canonical_states,
        "elapsed": result.elapsed_seconds,
        "handler_fires": sum(result.handler_fires.values()),
        "invariant_evals": sum(result.invariant_evals.values()),
        "coverage": coverage,
        "t_reported": clock(),
    }
    if result.profile is not None:
        profile = result.profile
        out["phases"] = profile.phases
        if profile.parallel is not None:
            workers = profile.parallel["workers"]
            waiting = sum(w["barrier_wait_seconds"] for w in workers)
            busy = sum(w["busy_seconds"] for w in workers)
            out["barrier_wait_share"] = waiting / (waiting + busy)
            out["cross_shard_bytes"] = profile.parallel["cross_shard"]["bytes"]
    if job.get("warm"):
        with tracer.span("verify.checker.explore_warm"):
            out["warm_elapsed"] = api.check(
                name, check_options).elapsed_seconds
    return out


def job_sim(job, tracer):
    with tracer.span("tempest.import"):
        from repro import api
    with tracer.span("workloads.load"):
        with open(job["programs"], "rb") as handle:
            programs = pickle.load(handle)   # written by our own parent
    name = job["protocol"]
    with tracer.span("api.compile_cold"):
        api.compile_protocol(name)
    with tracer.span("api.compile_cached"):
        api.compile_protocol(name)
    options = api.SimOptions(trace=job.get("sim_trace"),
                             metrics=job.get("sim_metrics"))
    started = clock()
    with tracer.span("tempest.run"):
        result = api.simulate(name, programs=programs, options=options)
    run_s = clock() - started
    with tracer.span("tempest.quiescent"):
        result.machine.assert_quiescent()
    counters = result.stats.counters
    return {
        "cycles": result.cycles,
        "dispatches": counters.handler_dispatches,
        "messages": result.stats.messages,
        "cont_allocs": counters.cont_allocs,
        "queue_allocs": counters.queue_allocs,
        "static_cont_uses": counters.static_cont_uses,
        "fault_time_fraction": result.fault_time_fraction,
        "run_s": run_s,
        "t_reported": clock(),
    }


def job_frontend(job, tracer):
    """lang, compiler and backends over the registered .tea sources."""
    from repro import api
    from repro.backends import emit_c, emit_murphi, emit_python
    from repro.compiler.constcont import apply_constcont
    from repro.compiler.liveness import apply_liveness
    from repro.compiler.lower import lower_program
    from repro.lang.lexer import tokenize
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program
    from repro.protocols import PROTOCOLS, load_protocol_source

    sources = {name: load_protocol_source(name) for name in PROTOCOLS}
    passes = []
    for _ in range(job["passes"]):
        seconds, counts = Counter(), Counter()   # of this pass

        def timed(span_name, function, *args):
            with tracer.span(span_name) as span:
                value = function(*args)
            seconds[span_name] += span["end"] - span["start"]
            return value

        with tracer.span("frontend.pass"):
            for name, source in sources.items():
                counts["lang.tokens"] += len(
                    timed("lang.tokenize", tokenize, source))
                program = timed("lang.parse", parse_program, source)
                checked = timed("lang.typecheck", check_program, program)
                handlers = timed("compiler.lower", lower_program, checked)
                timed("compiler.liveness",
                      lambda: [apply_liveness(h) for h in handlers.values()])
                flow = timed("compiler.constcont", apply_constcont,
                             checked, handlers)
                counts["compiler.handlers"] += len(handlers)
                counts["compiler.basic_blocks"] += sum(
                    len(h.blocks) for h in handlers.values())
                counts["compiler.suspend_sites"] += sum(
                    len(h.suspend_sites) for h in handlers.values())
                counts["compiler.static_sites"] += flow.static_sites
                counts["compiler.inlined_resumes"] += flow.inlined_resumes
                protocol = api.compile_protocol(name)
                for target, emit in (("python", emit_python), ("c", emit_c),
                                     ("murphi", emit_murphi)):
                    text = timed(f"backends.emit_{target}", emit, protocol)
                    counts[f"backends.{target}_bytes"] += len(text.encode())
        passes.append(seconds)
    out = {f"{name}_s": statistics.median(p[name] for p in passes)
           for name in passes[0]}
    # parse_program tokenizes its source again; take that share out so
    # the two rows add up.
    out["lang.parse_s"] -= out["lang.tokenize_s"]
    out.update(counts)
    out["lang.source_bytes"] = sum(len(s.encode()) for s in sources.values())
    out["lang.tokens_per_s"] = out["lang.tokens"] / out["lang.tokenize_s"]
    return out


def _sample_states(job, tracer):
    """Rebuild the picked reachable states through public calls: an
    atlas-armed check gives the (src, dst, label) edges, a breadth-first
    tree over them gives each picked state a label path, and replay_step
    walks the tree from the initial state."""
    from repro import api
    from repro.verify import ModelChecker, replay_labels
    from repro.verify.checker import replay_step
    from repro.verify.events import events_for_protocol
    from repro.verify.fingerprint import fingerprint
    from repro.verify.invariants import standard_invariants

    name, nodes, reorder = job["protocol"], job["nodes"], job["reorder"]
    with tracer.span("sample.atlas_check"):
        atlas = api.check(name, api.CheckOptions(
            nodes=nodes, reorder=reorder,
            artifacts=api.ArtifactOptions(atlas=True))).atlas
    with tracer.span("sample.replay"):
        ordered = sorted(atlas.states)
        picked = {ordered[index] for index in job["indices"]}
        depth = {fp: note["depth"] for fp, note in atlas.states.items()}
        parent = {}
        for src, dst, *_rest, label in atlas.edges:
            if dst not in parent and depth[dst] == depth[src] + 1:
                parent[dst] = (src, label)
        children: dict[str, list] = {}
        needed = set()
        for fp in picked:
            while fp in parent and fp not in needed:
                needed.add(fp)
                src, label = parent[fp]
                children.setdefault(src, []).append((label, fp))
                fp = src
        protocol = api.compile_protocol(name)
        invariants = standard_invariants(coherent=True)
        checker = ModelChecker(
            protocol, n_nodes=nodes, n_blocks=1, reorder_bound=reorder,
            events=events_for_protocol(name), invariants=invariants)
        (root,) = (fp for fp, d in depth.items() if d == 0)
        states = []
        stack = [(root, replay_labels(checker, []))]
        while stack:
            fp, state = stack.pop()
            if fp in picked:
                if f"{fingerprint(state):016x}" != fp:
                    raise AssertionError(f"replayed state is not {fp}")
                states.append(state)
            for label, child in children.get(fp, ()):
                stack.append((child, replay_step(checker, state, label)))
    if len(states) != len(picked):
        raise AssertionError(
            f"rebuilt {len(states)} of {len(picked)} picked states")
    return protocol, invariants, states


def job_states(job, tracer):
    """verify.fingerprint and verify.invariants over the state sample."""
    from repro.verify.fingerprint import (
        SymmetryCanonicalizer,
        encode_state,
        fingerprint,
        state_from_jsonable,
        state_to_jsonable,
    )

    protocol, invariants, states = _sample_states(job, tracer)
    canon = SymmetryCanonicalizer(protocol, job["nodes"], 1, perm_cap=None)

    def ns_per_state(span_name, function):
        rounds = []
        for _ in range(3):
            with tracer.span(span_name) as span:
                for state in states:
                    function(state)
            rounds.append(span["end"] - span["start"])
        return 1e9 * statistics.median(rounds) / len(states)

    encode = ns_per_state("verify.fingerprint.encode", encode_state)
    digest = ns_per_state("verify.fingerprint.fingerprint", fingerprint)
    return {
        "fingerprint.encode_ns_per_state": encode,
        "fingerprint.bytes_per_state": statistics.fmean(
            len(encode_state(state)) for state in states),
        # fingerprint() is encode + digest; the digest is the difference.
        "fingerprint.hash_ns_per_state": digest - encode,
        "fingerprint.canonical_ns_per_state": ns_per_state(
            "verify.fingerprint.canonical", canon.canonical_fingerprint),
        "fingerprint.permutations": canon.permutations,
        "fingerprint.codec_roundtrip_ns_per_state": ns_per_state(
            "verify.fingerprint.codec",
            lambda state: state_from_jsonable(state_to_jsonable(state))),
        "invariants.ns_per_state": ns_per_state(
            "verify.invariants",
            lambda state: [check(state, protocol) for check in invariants]),
    }


def job_checkpoint(job, tracer):
    """verify.checkpoint on the checkpoint a truncated run leaves."""
    from repro import api
    from repro.verify.checkpoint import load_checkpoint, write_checkpoint

    path = os.path.join(job["dir"], "truncated.ckpt.json")
    with tracer.span("checkpoint.truncated_check"):
        result = api.check(job["protocol"], api.CheckOptions(
            nodes=job["nodes"], reorder=job["reorder"],
            max_states=job["max_states"],
            checkpoint=api.CheckpointOptions(out=path)))
    if result.exhausted:
        raise AssertionError("the run was meant to stop at max_states")
    loads, writes = [], []
    copy = os.path.join(job["dir"], "rewritten.ckpt.json")
    for _ in range(3):
        with tracer.span("verify.checkpoint.load") as span:
            payload = load_checkpoint(path)
        loads.append(span["end"] - span["start"])
        with tracer.span("verify.checkpoint.write") as span:
            write_checkpoint(copy, payload)
        writes.append(span["end"] - span["start"])
    return {"checkpoint.load_s": statistics.median(loads),
            "checkpoint.write_s": statistics.median(writes),
            "checkpoint.bytes": os.path.getsize(copy)}


JOBS = {"verify": job_verify, "sim": job_sim, "frontend": job_frontend,
        "states": job_states, "checkpoint": job_checkpoint}


def main(argv):
    with open(argv[1]) as handle:
        job = json.load(handle)
    tracer = Tracer(job["workload"]) if job["spans"] else NullTracer()
    with tracer.span(f"child.{job['job']}"):
        result = JOBS[job["job"]](job, tracer)
    print(json.dumps({"result": result, "spans": list(tracer.spans),
                      "t_last": clock()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
