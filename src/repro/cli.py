"""The ``teapot`` command-line interface.

Subcommands::

    teapot check <file.tea>              parse and type-check
    teapot compile <file.tea> [--target python|c|murphi] [-O{0,1,2}]
    teapot fmt <file.tea> [-i]           canonical pretty-printing
    teapot info <file.tea>               compiled-protocol summary
    teapot verify <name|file.tea> [...]  model-check (--progress reporting,
                                         --liveness starvation check,
                                         --trace-out counterexample JSONL)
    teapot run <name|file.tea> <workload>  simulate a Table 1/2 workload
                                         (--trace/--trace-format/--metrics)
    teapot report <metrics.json>         pretty-print a metrics export
    teapot analyze causal <trace>        causal chain ending at an event
    teapot analyze critical-path <trace> per-fault wait decomposition
    teapot analyze coverage <file>       handler coverage of a saved report
                                         or a trace
    teapot analyze check-profile <p>     render a verify --profile-out file
    teapot analyze atlas <atlas>         render a verify --atlas-out file
    teapot analyze diff <a> <b>          compare traces/coverage/profiles/
                                         atlases
    teapot graph <name|file.tea>         state graph (text or dot)
    teapot list                          registered protocols
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import api
from repro.api import CheckOptions, CompileOptions, FaultOptions, SimOptions
from repro.ioutil import atomic_write_text, check_output_paths, read_source
from repro.lang.errors import (
    RuntimeProtocolError,
    TeapotError,
    format_error_with_context,
)
from repro.runtime.protocol import OptLevel
from repro.protocols import PROTOCOLS

# A subcommand imports what it runs, inside its function: every
# invocation is a fresh process, and the parser, the checkers, the
# simulator and the back ends together cost more to import than a small
# run takes (DESIGN.md, "Cold start").


def _load(target: str, opt_level: OptLevel):
    """Compile a registered protocol name or a .tea file path."""
    return api.compile_protocol(target, CompileOptions(opt_level=opt_level))


def _opt_level(args) -> OptLevel:
    return OptLevel(args.O)


def _add_opt_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-O", type=int, choices=(0, 1, 2), default=2,
                        help="0: no optimisation (save the whole frame); "
                             "1: live-variable analysis only; 2: liveness "
                             "+ constant continuations (default)")


def _count(text: str, floor: int = 0) -> int:
    """``--per-fault N`` / ``--max-depth D``: an integer >= ``floor``."""
    if not text.isdecimal() or int(text) < floor:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {floor}, got {text!r}")
    return int(text)


def _top(text: str) -> int:
    """``--top N``: a row count, so an integer >= 1."""
    return _count(text, 1)


def _parse_checked(path: str):
    """check/fmt: the file's checked program, or None after printing
    the front end's error with its source line."""
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import check_program

    _data, source = read_source(path)
    try:
        program = parse_program(source, path)
        check_program(program)
    except TeapotError as error:
        print(format_error_with_context(error, source), file=sys.stderr)
        return None
    return program


def cmd_check(args) -> int:
    if _parse_checked(args.file) is None:
        return 1
    print(f"{args.file}: OK")
    return 0


def cmd_compile(args) -> int:
    from repro import backends

    check_output_paths(TeapotError, args.output)
    protocol = _load(args.file, _opt_level(args))
    # The package resolves the name lazily: only that back end loads.
    text = getattr(backends, f"emit_{args.target}")(protocol)
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text, end="")
    return 0


def cmd_fmt(args) -> int:
    from repro.lang.pretty import format_program

    program = _parse_checked(args.file)
    if program is None:
        return 1
    text = format_program(program)
    if args.in_place:
        atomic_write_text(args.file, text)
        print(f"formatted {args.file}")
    else:
        print(text, end="")
    return 0


def cmd_info(args) -> int:
    protocol = _load(args.file, _opt_level(args))
    print(protocol.describe())
    return 0


def _parse_fault_budget(spec) -> "FaultBudget | None":
    if not spec:
        return None
    from repro.faults import FaultBudget, FaultPlanError

    try:
        return FaultBudget.parse(spec)
    except (FaultPlanError, ValueError) as error:
        raise TeapotError(f"--faults {spec!r}: {error}") from None


def cmd_verify(args) -> int:
    from repro import verify

    # Before exploring, not after; --checkpoint-out is api.check's to
    # refuse (API callers set it too).
    check_output_paths(TeapotError, args.profile_out, args.atlas_out,
                       args.coverage_out, args.trace_out, args.fault_plan_out)
    protocol = _load(args.protocol, _opt_level(args))
    options = CheckOptions(
        nodes=args.nodes,
        addresses=args.addresses,
        reorder=args.reorder,
        max_states=args.max_states,
        workers=args.workers,
        liveness=args.liveness,
        fingerprints=args.fingerprints,
        reduction=api.ReductionOptions(symmetry=args.symmetry),
        progress=sys.stderr if args.progress else None,
        checkpoint=api.CheckpointOptions(
            out=args.checkpoint_out,
            resume=args.resume,
            keep_last=args.checkpoint_keep),
        budget=api.BudgetOptions(deadline_seconds=args.deadline,
                                 max_rss_mb=args.max_rss_mb),
        faults=_parse_fault_budget(args.faults),
        artifacts=api.ArtifactOptions(profile=bool(args.profile_out),
                                      atlas=bool(args.atlas_out)),
    )
    try:
        result = api.check(protocol, options)
    except (verify.CheckpointError, verify.WorkerLostError,
            ValueError) as error:
        # Bad checkpoint files, dead workers and rejected option
        # combinations are outcomes, not crashes: one readable line, no
        # traceback.  (The classes are looked up when an exception gets
        # here, so a run that raises nothing never imports
        # verify.parallel for WorkerLostError.)
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(result.summary())
    stop = result.stop_reason
    # Starvation is judged over the whole explored graph, so a run that
    # ends early never asks it.
    skipped = ("; the starvation check (--liveness) did not run"
               if args.liveness and not result.exhausted else "")
    if stop is not None:
        reason = {
            "interrupted": "interrupted (SIGINT) at the next clean cut",
            "deadline": f"wall-clock budget reached "
                        f"(--deadline {args.deadline})",
            "memory": "peak RSS budget reached "
                      f"(--max-rss-mb {args.max_rss_mb})",
        }.get(stop, stop)
        note = f"note: stopped early: {reason}{skipped}"
        if args.checkpoint_out:
            note += (f"; a resumable checkpoint is at "
                     f"{args.checkpoint_out} (continue with --resume "
                     f"{args.checkpoint_out})")
        print(note, file=sys.stderr)
        if stop == "interrupted":
            return 130
    elif not result.exhausted:
        note = (f"note: exploration truncated at "
                f"{result.states_explored} states "
                f"(--max-states {args.max_states}): PASS covers only "
                f"the explored prefix, not the full state space{skipped}")
        if args.checkpoint_out:
            note += f"; resume with --resume {args.checkpoint_out}"
        print(note)
    from repro.obs.analyze import coverage_from_checker

    coverage = coverage_from_checker(protocol, result)
    print(coverage.summary_line())
    if args.coverage_out:
        coverage.save(args.coverage_out)
        print(f"wrote coverage report to {args.coverage_out}",
              file=sys.stderr)
    if args.profile_out and result.profile is not None:
        result.profile.save(args.profile_out)
        print(f"wrote check profile to {args.profile_out} "
              f"(render with `teapot analyze check-profile "
              f"{args.profile_out}`)", file=sys.stderr)
    if args.atlas_out and result.atlas is not None:
        result.atlas.save(args.atlas_out)
        print(f"wrote state atlas to {args.atlas_out} (render with "
              f"`teapot analyze atlas {args.atlas_out}`)", file=sys.stderr)
    if args.progress and result.invariant_evals:
        evals = "  ".join(f"{name}={count}" for name, count
                          in result.invariant_evals.items())
        print(f"invariant evaluations: {evals}", file=sys.stderr)
    if result.violation is not None:
        print(result.violation.format_trace())
        if args.trace_out:
            result.violation.write_trace(args.trace_out)
            print(f"wrote counterexample trace to {args.trace_out}",
                  file=sys.stderr)
        if args.fault_plan_out:
            schedule = result.violation.fault_schedule()
            if schedule:
                result.violation.to_fault_plan().save(args.fault_plan_out)
                print(f"wrote fault plan to {args.fault_plan_out} "
                      f"(replay with `teapot run ... --fault-plan "
                      f"{args.fault_plan_out}`)", file=sys.stderr)
            else:
                print("no faults on the counterexample path; "
                      "no fault plan written", file=sys.stderr)
        return 1
    return 0


def _fault_options(args) -> "FaultOptions | None":
    """run's fault flags -> a FaultOptions record (None when all off)."""
    if not (args.fault_plan or args.drop or args.dup or args.watchdog):
        return None
    return FaultOptions(
        drop=args.drop,
        dup=args.dup,
        seed=args.fault_seed,
        plan=args.fault_plan,
        watchdog=args.watchdog,
    )


def cmd_run(args) -> int:
    protocol = _load(args.protocol, _opt_level(args))
    faults = _fault_options(args)
    options = SimOptions(
        nodes=args.nodes,
        seed=args.seed,
        jitter=args.jitter,
        trace=args.trace,
        trace_format=args.trace_format,
        metrics=args.metrics,
        faults=faults,
    )
    try:
        result = api.simulate(protocol, workload=args.workload,
                              options=options)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (RuntimeProtocolError, AssertionError) as error:
        # A failed run (deadlock, event-budget exhaustion, non-quiescent
        # finish) is an outcome, not a crash: one readable report and a
        # nonzero exit instead of a traceback.
        print(f"error: simulation failed: {error}", file=sys.stderr)
        if faults is not None and not args.watchdog:
            print("hint: faults were injected without the recovery "
                  "layer; retry with --watchdog", file=sys.stderr)
        return 1
    if args.trace:
        print(f"wrote {args.trace_format} trace to {args.trace}",
              file=sys.stderr)
    if args.metrics:
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    counters = result.stats.counters
    network = (f", seed={args.seed}, jitter={args.jitter}"
               if args.jitter or args.seed is not None else "")
    print(f"workload:   {args.workload} on {args.nodes} nodes{network}")
    print(f"protocol:   {protocol.name} "
          f"(opt={protocol.opt_level.name}, flavor={protocol.flavor.value})")
    print(f"cycles:     {result.cycles}")
    print(f"messages:   {result.stats.messages} "
          f"({counters.data_messages_sent} with data)")
    print(f"faults:     {result.stats.total_faults}")
    print(f"allocs:     {counters.cont_allocs} continuation records, "
          f"{counters.queue_allocs} queue records")
    print(f"fault time: {result.fault_time_fraction:.0%}")
    if result.fault_plan is not None:
        print(f"injected:   {result.fault_plan.ledger.summary()}")
    if faults is not None and args.watchdog:
        print(f"recovery:   {counters.timeouts} timeouts, "
              f"{counters.retries} retries, "
              f"{counters.dups_absorbed} duplicates absorbed")
    return 0


def cmd_report(args) -> int:
    from repro.obs.metrics import format_metrics, load_metrics

    payload = load_metrics(args.file)
    try:
        print(format_metrics(payload))
    except (KeyError, TypeError, AttributeError):
        raise TeapotError(
            f"{args.file}: not a metrics export (unexpected shape); "
            "expected a `run --metrics` file") from None
    return 0


def cmd_analyze_causal(args) -> int:
    from repro.obs.analyze import TraceError, format_causal, load_trace

    trace = load_trace(args.trace)
    if args.event is not None:
        target = args.event
    else:
        kinds = ((args.kind,) if args.kind
                 else ("error", "nack", "deliver"))
        candidates = trace.indices(*kinds)
        if not candidates:
            raise TraceError(
                f"{args.trace}: no {'/'.join(kinds)} events to anchor "
                "the chain (pick one with --event N)")
        target = candidates[-1]
    print(format_causal(trace, target), end="")
    return 0


def cmd_analyze_critpath(args) -> int:
    from repro.obs.analyze import format_critical_path, load_trace

    print(format_critical_path(load_trace(args.trace),
                               per_fault=args.per_fault), end="")
    return 0


def cmd_analyze_coverage(args) -> int:
    from repro.obs.analyze import TraceError, coverage_from_trace

    check_output_paths(TeapotError, args.output)
    kind, report = _read_artifact(args.file)
    if kind == "trace":
        if not args.protocol:
            raise TraceError(
                f"{args.file}: a trace; analyze coverage needs --protocol "
                "to know the arm universe")
        report = coverage_from_trace(report, _load(args.protocol,
                                                   OptLevel.O2))
    elif kind != "coverage":
        raise TraceError(
            f"{args.file}: a {kind}, not a coverage report (`verify "
            "--coverage-out`) or a trace (`run --trace`)")
    print(report.format(), end="")
    if args.output:
        report.save(args.output)
        print(f"wrote coverage report to {args.output}", file=sys.stderr)
    if args.strict and report.unreached:
        return 1
    return 0


def cmd_analyze_check_profile(args) -> int:
    from repro.obs.profile import format_profile, load_profile

    print(format_profile(load_profile(args.profile), top=args.top),
          end="")
    return 0


def cmd_analyze_atlas(args) -> int:
    from repro.verify.atlas import (
        atlas_to_dot,
        atlas_to_graphml,
        format_atlas,
        load_atlas,
    )

    if not (args.dot or args.graphml) and (
            args.max_depth is not None or args.protocol_state is not None):
        args.usage_error("--max-depth and --protocol-state filter an "
                         "export: add --dot or --graphml")
    atlas = load_atlas(args.atlas)
    if args.protocol_state not in (None, *atlas.state_meta):
        raise TeapotError(
            f"{args.atlas}: {atlas.protocol} has no protocol state "
            f"{args.protocol_state!r}")
    if args.dot or args.graphml:
        render = atlas_to_dot if args.dot else atlas_to_graphml
        print(render(atlas, max_depth=args.max_depth,
                     protocol_state=args.protocol_state))
        return 0
    print(format_atlas(atlas, top=args.top), end="")
    return 0


def _read_artifact(path: str):
    """An analyze input as (kind, object), by its payload's kind: a
    coverage report, check profile or state atlas -- or a JSONL trace,
    which is no single JSON object and carries none."""
    from repro.ioutil import parse_json_object, read_text
    from repro.obs.analyze import Trace, TraceError
    from repro.obs.analyze.coverage import COVERAGE_KIND, CoverageReport
    from repro.obs.analyze.trace import parse_events
    from repro.obs.profile import PROFILE_KIND, CheckProfile
    from repro.verify.atlas import ATLAS_KIND, StateAtlas

    text = read_text(path, TraceError)
    try:
        payload = parse_json_object(text, path, TraceError, "artifact")
    except TraceError:
        payload = {}        # the trace loader says what is wrong
    kind = payload.get("kind")
    if not (isinstance(kind, str) and kind.startswith("teapot-")):
        return "trace", Trace(parse_events(text, path), path)
    kinds = {COVERAGE_KIND: CoverageReport, PROFILE_KIND: CheckProfile,
             ATLAS_KIND: StateAtlas}
    if kind not in kinds:
        raise TraceError(
            f"{path}: unrecognised artifact kind {kind!r}; analyze reads "
            "traces, coverage reports, check profiles, and state atlases")
    return kind.removeprefix("teapot-"), kinds[kind].from_json(payload, path)


def cmd_analyze_diff(args) -> int:
    from repro.obs.analyze import TraceError, diff_coverage, diff_traces
    from repro.obs.profile import diff_profiles
    from repro.verify.atlas import diff_atlases

    diffs = {"trace": diff_traces, "coverage": diff_coverage,
             "check-profile": diff_profiles, "state-atlas": diff_atlases}
    (kind_a, a), (kind_b, b) = _read_artifact(args.a), _read_artifact(args.b)
    if kind_a != kind_b:
        raise TraceError(
            f"cannot diff a {kind_a} ({args.a}) against a {kind_b} "
            f"({args.b})")
    print(diffs[kind_a](a, b), end="")
    return 0


def cmd_graph(args) -> int:
    from repro.analysis.stategraph import build_state_graph

    protocol = _load(args.protocol, OptLevel.O2)
    graph = build_state_graph(protocol)
    if args.side:
        graph = graph.restricted_to(args.side)
    if args.contract:
        graph = graph.contracted()
    if args.dot:
        print(graph.to_dot())
    else:
        print(graph.summary())
        for transition in graph.transitions:
            print(f"  {transition}")
    return 0


def cmd_list(args) -> int:
    for name, entry in sorted(PROTOCOLS.items()):
        print(f"{name:16s} {entry.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teapot",
        description="Teapot: a language for writing memory coherence "
                    "protocols (PLDI 1996 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("check", help="parse and type-check a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = subparsers.add_parser("compile", help="generate code")
    p.add_argument("file", help="registered protocol name or .tea path")
    p.add_argument("--target", choices=("python", "c", "murphi"),
                   default="c")
    p.add_argument("-o", "--output")
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_compile)

    p = subparsers.add_parser(
        "fmt", help="pretty-print a protocol to canonical form")
    p.add_argument("file")
    p.add_argument("-i", "--in-place", action="store_true")
    p.set_defaults(fn=cmd_fmt)

    p = subparsers.add_parser("info", help="compiled-protocol summary")
    p.add_argument("file")
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_info)

    p = subparsers.add_parser("verify", help="model-check a protocol")
    p.add_argument("protocol")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--addresses", type=int, default=1)
    p.add_argument("--reorder", type=int, default=0,
                   help="network reordering bound (0 = FIFO)")
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--progress", action="store_true",
                   help="print states/sec progress lines (with frontier/"
                        "visited sizes and invariant evaluation counts) "
                        "to stderr while exploring, one per BFS layer "
                        "at most about once a second")
    p.add_argument("--liveness", action="store_true",
                   help="also check liveness: every blocked thread can "
                        "reach a wake-up (catches starvation); serial, in "
                        "any reduction mode, not with checkpoints")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="explore with N shard-owning worker processes "
                        "(0 = serial, the default); verdict and state "
                        "count are identical at any worker count")
    p.add_argument("--fingerprints", action="store_true",
                   help="serial hash compaction: key the visited set by "
                        "64-bit state fingerprints (an order of "
                        "magnitude less memory; violation traces are "
                        "replay-validated against collisions)")
    p.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="symmetry reduction: explore one representative "
                        "per orbit under free-caching-node permutation "
                        "(canonical fingerprints; implies hash "
                        "compaction; counterexamples stay concrete and "
                        "replay unreduced); sound for safety and "
                        "--liveness")
    p.add_argument("--checkpoint-out", metavar="PATH",
                   help="write a sealed, resumable JSON checkpoint if "
                        "the run truncates at --max-states, hits a "
                        "--deadline/--max-rss-mb budget, or is "
                        "interrupted, and snapshots while it runs, "
                        "paced to under 5%% of wall time (serial or "
                        "--workers; writes are atomic and "
                        "BLAKE2b-sealed)")
    p.add_argument("--resume", metavar="PATH",
                   help="continue from a checkpoint (written serially "
                        "or at any worker count; the final verdict and "
                        "state count match an uninterrupted run)")
    p.add_argument("--checkpoint-keep", type=int, default=1,
                   metavar="N",
                   help="keep the last N checkpoints, rotating older "
                        "ones to PATH.1, PATH.2, ... (default 1)")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget: stop gracefully after this "
                        "many seconds at the next clean cut, write "
                        "any --checkpoint-out, and report "
                        "stop_reason=deadline instead of dying mid-run")
    p.add_argument("--max-rss-mb", type=float, default=None,
                   metavar="MB",
                   help="memory budget: stop gracefully once the peak "
                        "resident set (ru_maxrss, read once per BFS "
                        "layer; with --workers the master's plus the "
                        "workers') exceeds MB (same graceful path as "
                        "--deadline)")
    p.add_argument("--faults", metavar="SPEC",
                   help="fault-bounded exploration: also drop/duplicate "
                        "in-flight messages, up to a per-path budget "
                        "(e.g. drop=1 or drop=1,dup=1); a protocol that "
                        "passes fault-free but FAILs here needs the "
                        "recovery layer (see docs/ROBUSTNESS.md)")
    p.add_argument("--fault-plan-out", metavar="PATH",
                   help="with --faults: save the counterexample's fault "
                        "schedule as a plan JSON replayable via "
                        "`teapot run --fault-plan`")
    p.add_argument("--trace-out", metavar="PATH",
                   help="dump any counterexample trace as JSONL events")
    p.add_argument("--coverage-out", metavar="PATH",
                   help="write the handler-coverage report as JSON "
                        "(compare runs with `teapot analyze diff`)")
    p.add_argument("--profile-out", metavar="PATH",
                   help="profile the exploration hot loop and write the "
                        "check-profile JSON (render with `teapot analyze "
                        "check-profile`, compare with `teapot analyze "
                        "diff`); off = zero overhead")
    p.add_argument("--atlas-out", metavar="PATH",
                   help="record every explored state and transition and "
                        "write the state-atlas JSON (render with "
                        "`teapot analyze atlas`: SCC/deadlock-basin "
                        "structure, depth profile, residence "
                        "heatmap); off = zero overhead")
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = subparsers.add_parser(
        "run", help="simulate a registered workload under a protocol")
    p.add_argument("protocol")
    p.add_argument("workload", help="gauss|appbt|shallow|mp3d|"
                                    "adaptive|stencil|unstruct")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="seed the network delay RNG so jittered "
                        "(reordered) runs are reproducible "
                        "(default 12345; fault-free runs at the same "
                        "seed/jitter are byte-identical)")
    p.add_argument("--jitter", type=int, default=0, metavar="CYCLES",
                   help="max random extra network latency; > 0 drops "
                        "per-channel FIFO, exercising reordering")
    p.add_argument("--fault-plan", metavar="PATH",
                   help="inject faults from a saved plan JSON (e.g. one "
                        "exported by `teapot verify --fault-plan-out`); "
                        "overrides --drop/--dup")
    p.add_argument("--drop", type=float, default=0.0, metavar="P",
                   help="drop each message with probability P "
                        "(deterministic from --fault-seed)")
    p.add_argument("--dup", type=float, default=0.0, metavar="P",
                   help="duplicate each message with probability P")
    p.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="fault RNG seed, independent of --seed (the "
                        "delay RNG never sees fault decisions)")
    p.add_argument("--watchdog", action="store_true",
                   help="enable the timeout/retry/dedup recovery layer "
                        "(fixed timing, see docs/ROBUSTNESS.md); without "
                        "it a dropped message typically deadlocks the run")
    p.add_argument("--trace", metavar="PATH",
                   help="write a structured event trace of the run")
    p.add_argument("--trace-format", choices=("jsonl", "chrome"),
                   default="jsonl",
                   help="jsonl: one event per line; chrome: trace_event "
                        "JSON for chrome://tracing / Perfetto")
    p.add_argument("--metrics", metavar="PATH",
                   help="write per-handler metrics JSON "
                        "(pretty-print with `teapot report`)")
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_run)

    p = subparsers.add_parser(
        "report", help="pretty-print a metrics JSON from `run --metrics`")
    p.add_argument("file")
    p.set_defaults(fn=cmd_report)

    p = subparsers.add_parser(
        "analyze", help="ask questions of a JSONL trace "
                        "(see docs/OBSERVABILITY.md)")
    analyses = p.add_subparsers(dest="analysis", required=True)

    q = analyses.add_parser(
        "causal", help="happens-before chain ending at an event, "
                       "rendered as per-node lanes (Figure 11)")
    q.add_argument("trace", help="JSONL trace from run --trace")
    q.add_argument("--event", type=int, metavar="N",
                   help="target event by 0-based line index "
                        "(default: last error/nack/delivery)")
    q.add_argument("--kind", metavar="KIND",
                   help="anchor at the last event of this kind "
                        "(e.g. error, nack, deliver, fault_end)")
    q.set_defaults(fn=cmd_analyze_causal)

    q = analyses.add_parser(
        "critical-path", help="per-fault wait decomposition: which "
                              "handler/queue/network leg each fault's "
                              "latency was spent in")
    q.add_argument("trace", help="JSONL trace from run --trace")
    q.add_argument("--per-fault", type=_count, default=0, metavar="N",
                   help="also expand the N longest-waiting faults")
    q.set_defaults(fn=cmd_analyze_critpath)

    q = analyses.add_parser(
        "coverage", help="render handler coverage: a saved report "
                         "(`verify --coverage-out`) or a trace's")
    q.add_argument("file", help="coverage report JSON or JSONL trace")
    q.add_argument("--protocol", metavar="NAME|FILE",
                   help="with a trace: the protocol defining the arm "
                        "universe")
    q.add_argument("-o", "--output", metavar="PATH",
                   help="also save the report as JSON (for diff)")
    q.add_argument("--strict", action="store_true",
                   help="exit 1 if any coverable arm never fired")
    q.set_defaults(fn=cmd_analyze_coverage)

    q = analyses.add_parser(
        "check-profile", help="render a `verify --profile-out` export: "
                              "phase attribution, top dispatch costs, "
                              "timeline, parallel imbalance")
    q.add_argument("profile", help="JSON file from verify --profile-out")
    q.add_argument("--top", type=_top, default=10, metavar="N",
                   help="rows in the dispatch-cost table (default 10)")
    q.set_defaults(fn=cmd_analyze_check_profile)

    q = analyses.add_parser(
        "atlas", help="render a `verify --atlas-out` export: SCCs and "
                      "deadlock basins, depth/degree profiles and the "
                      "residence heatmap; or export the explored graph "
                      "as DOT/GraphML")
    q.add_argument("atlas", help="JSON file from verify --atlas-out")
    q.add_argument("--top", type=_top, default=10, metavar="N",
                   help="rows in the report tables (default 10)")
    export = q.add_mutually_exclusive_group()
    export.add_argument("--dot", action="store_true",
                        help="emit the *explored* global state graph as "
                             "Graphviz instead of the report (for the "
                             "syntactic per-machine graph, see `teapot "
                             "graph --dot`)")
    export.add_argument("--graphml", action="store_true",
                        help="emit the explored graph as GraphML instead "
                             "of the report")
    q.add_argument("--max-depth", type=_count, default=None, metavar="D",
                   help="export filter: only states at BFS depth <= D")
    q.add_argument("--protocol-state", metavar="NAME",
                   help="export filter: only states where some node is "
                        "in this protocol state (e.g. Home_Excl)")
    q.set_defaults(fn=cmd_analyze_atlas, usage_error=q.error)

    q = analyses.add_parser(
        "diff", help="compare two traces, coverage reports, check "
                     "profiles, or state atlases")
    q.add_argument("a")
    q.add_argument("b")
    q.set_defaults(fn=cmd_analyze_diff)

    p = subparsers.add_parser("graph", help="print the state graph")
    p.add_argument("protocol")
    p.add_argument("--side", help="restrict to a state-name prefix "
                                  "(e.g. Home_)")
    p.add_argument("--contract", action="store_true",
                   help="contract transient states (the idealized machine)")
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz (the *syntactic* per-machine "
                        "graph; for the explored global state space, "
                        "see `teapot analyze atlas --dot`)")
    p.set_defaults(fn=cmd_graph)

    p = subparsers.add_parser("list", help="list registered protocols")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        # Inside the try: a reader that went away is found out here at
        # the latest, not by whoever flushes after us.
        sys.stdout.flush()
        return status
    except (TeapotError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reader went away (e.g. `teapot report ... | head`): exit
        # quietly.  Point stdout at devnull so the final flush does not
        # raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def entry() -> None:
    """The process entry point of ``python -m repro.cli`` and of the
    ``teapot`` script: :func:`main`, then exit without finalising the
    interpreter.  A checker run leaves hundreds of thousands of interned
    states, effects and encodings behind, and freeing them one by one
    took most of a second after the verdict was already printed
    (`verify lcm --nodes 3 --reorder 1`: 0.8-0.9 s of 14-15 s).  Nothing
    is owed at that point: every artifact is written and closed inside
    its subcommand, worker processes are killed and joined by the
    checker on every way out of a run, and the two streams are flushed
    here.  An exception out of ``main`` (Ctrl-C outside a checker run,
    argparse's SystemExit, a bug) never reaches ``os._exit`` and exits
    the ordinary way."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
