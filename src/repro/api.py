"""The typed programmatic facade: compile, check, simulate.

Everything the ``teapot`` CLI can do is available here as three
functions over three frozen option records::

    from repro.api import CheckOptions, check, compile_protocol, simulate

    protocol = compile_protocol("stache")
    result = check(protocol, CheckOptions(nodes=2, reorder=1))
    row = simulate("stache", workload="gauss")

``compile_protocol`` accepts a registered protocol name, a path to a
``.tea`` file, raw Teapot source text (anything containing a newline),
or an already-compiled :class:`~repro.runtime.protocol.CompiledProtocol`
(returned unchanged), so the other entry points compose: ``check`` and
``simulate`` take the same ``target`` union.  Whatever form the target
takes, ``check`` explores it with the event loop and invariants of the
registry entry whose source declares it
(:func:`~repro.protocols.entry_declaring`); an unregistered protocol
gets the Stache loop and all three invariants.

``check`` dispatches on :attr:`CheckOptions.workers`: ``0`` (the
default) runs the in-process serial
:class:`~repro.verify.checker.ModelChecker`; ``>= 1`` runs the same
search with its states expanded in that many worker processes
(:class:`~repro.verify.parallel.ParallelChecker`).  Both return the same
:class:`~repro.verify.checker.CheckResult`.

The option records are frozen on purpose: a configuration is a value
you can build once, share, and trust not to drift mid-run.  Derive
variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Optional, Union

from repro import _lazy_exports
from repro.compile_cache import compile_file
from repro.ioutil import check_output_paths
from repro.protocols import PROTOCOLS, compile_named_protocol, entry_declaring
from repro.runtime.protocol import CompiledProtocol, Flavor, OptLevel

# Each entry point imports its machinery when called (the front end, the
# checkers, the simulator): a process runs one of them, and every
# `teapot` invocation is a new process (DESIGN.md, "Cold start").
if TYPE_CHECKING:
    from repro.faults import FaultBudget, FaultPlan
    from repro.tempest.machine import Machine
    from repro.tempest.stats import MachineStats
    from repro.verify.checker import CheckResult
    from repro.verify.events import EventGenerator

Target = Union[str, CompiledProtocol]

# The fault types, for API callers; only a run with faults imports them.
__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.faults": ("FaultBudget", "FaultPlan", "FaultRule"),
})


@dataclass(frozen=True)
class CompileOptions:
    """How to turn a target into a :class:`CompiledProtocol`."""

    opt_level: OptLevel = OptLevel.O2
    # None = the registry's flavor for named protocols, TEAPOT otherwise.
    flavor: Optional[Flavor] = None
    # Initial (cache, home) state names for raw source without them.
    initial_states: Optional[tuple[str, str]] = None
    filename: str = "<string>"


@dataclass(frozen=True)
class FaultOptions:
    """Fault injection and recovery for :func:`simulate`.

    Builds a rate-based :class:`~repro.faults.FaultPlan` (every message
    is independently dropped/duplicated with the given probability,
    from ``seed``) unless ``plan`` points at a saved JSON plan -- e.g.
    one exported from a checker counterexample via
    ``Violation.to_fault_plan().save(path)`` -- in which case the plan
    file wins and the rates are ignored.  ``watchdog=True`` layers the
    timeout/retry/dedup recovery protocol on top, at the constants in
    :mod:`repro.tempest.node` (see docs/ROBUSTNESS.md); without it a
    dropped message typically deadlocks the run, by design.
    """

    drop: float = 0.0          # per-message drop probability
    dup: float = 0.0           # per-message duplication probability
    seed: int = 0              # fault RNG seed (independent of --seed)
    plan: Optional[str] = None  # path to a teapot-fault-plan JSON file
    watchdog: bool = False     # enable the timeout/retry recovery layer

    def build_plan(self) -> Optional[FaultPlan]:
        from repro.faults import FaultPlan, FaultRule

        if self.plan is not None:
            return FaultPlan.load(self.plan)
        rules = []
        if self.drop:
            rules.append(FaultRule(action="drop", rate=self.drop))
        if self.dup:
            rules.append(FaultRule(action="dup", rate=self.dup))
        if not rules:
            return None
        return FaultPlan(rules=tuple(rules), seed=self.seed)


@dataclass(frozen=True)
class ReductionOptions:
    """State-space reduction (docs/VERIFICATION.md, "State-space
    reduction").

    ``symmetry`` canonicalizes every state under permutation of the
    free (non-home) caching nodes before the visited-set lookup, so one
    representative per orbit is explored; counterexample traces stay
    concrete and replay on an unreduced checker.  It is sound for
    safety checking and for ``liveness``, which then runs over (orbit
    representative, node) pairs.
    """

    symmetry: bool = False


@dataclass(frozen=True)
class CheckpointOptions:
    """Resumable JSON checkpoints, on either engine (docs/ROBUSTNESS.md,
    "Resilient checking").

    ``out`` names where a sealed checkpoint goes: durably whenever the
    run stops early -- ``max_states`` truncation, a resource budget, or
    an interrupt -- and, while it runs, as snapshots at clean cuts paced
    to under 5% of wall time, so a killed run leaves one too.
    ``resume`` continues from one (written at any worker count, serial
    included; the formats are identical), and ``keep_last`` rotates
    that many most-recent files (``out``, ``out.1``, ...)."""

    out: Optional[str] = None
    resume: Optional[str] = None
    keep_last: int = 1


@dataclass(frozen=True)
class BudgetOptions:
    """Resource budgets for a check (docs/ROBUSTNESS.md).

    When a budget trips, the run stops at its next clean cut (before
    the loop's next pop, at any worker count), writes a checkpoint if ``CheckpointOptions.out`` is set,
    and returns with ``CheckResult.stop_reason`` of ``"deadline"`` or
    ``"memory"`` and ``exhausted=False`` -- never a wrong verdict.
    ``deadline_seconds`` bounds this process's wall-clock time;
    ``max_rss_mb`` caps the peak resident set in MB (``ru_maxrss``, read
    at most once per BFS layer, so a run can overshoot by what one layer
    allocates; with workers the master's plus each worker's as of its
    last reply, where pages a forked worker shares with the master count
    twice).  A budget is a finite number > 0."""

    deadline_seconds: Optional[float] = None
    max_rss_mb: Optional[float] = None


@dataclass(frozen=True)
class ArtifactOptions:
    """Optional run artifacts attached to the :class:`CheckResult`.

    ``profile`` arms an exploration profiler (repro.obs.profile) and
    attaches a CheckProfile to ``CheckResult.profile``; ``atlas``
    attaches the explored state graph (repro.verify.atlas) as
    ``CheckResult.atlas``, exactly: every visited state and explored
    transition, bounded by the run's own bounds.  Read off the graph
    ``liveness`` reads, it refuses ``workers`` and ``resume`` too.  Both
    are observably free when off: the checkers run their uninstrumented
    code paths.
    """

    profile: bool = False
    atlas: bool = False


@dataclass(frozen=True)
class CheckOptions:
    """Model-checking configuration (one Table 3 cell).

    The auxiliary knobs live in grouped sub-records -- ``reduction``,
    ``checkpoint``, ``budget``, ``artifacts`` -- each a frozen
    dataclass of its own.  ``progress`` is a stream: every run records a
    timeline (``CheckResult.timeline``), and with a stream its points
    are printed there as progress lines, about one a second (the CLI's
    ``--progress`` passes stderr); None keeps the run quiet.
    """

    nodes: int = 2
    addresses: int = 1
    reorder: int = 0
    max_states: int = 2_000_000
    # 0 = serial in-process checker; >= 1 = that many worker processes.
    workers: int = 0
    # Liveness (starvation) checking; serial-only, needs the full graph.
    liveness: bool = False
    # None = the registry's setting for the protocol (buffered-write
    # relaxes coherence).
    coherent: Optional[bool] = None
    channel_cap: int = 4
    # Serial hash compaction: key the visited set by 64-bit fingerprints.
    # The parallel checker always fingerprints, as does symmetry
    # reduction (the orbit quotient is keyed by canonical fingerprint).
    fingerprints: bool = False
    # Grouped sub-options.
    reduction: ReductionOptions = ReductionOptions()
    progress: Optional[IO] = None
    checkpoint: CheckpointOptions = CheckpointOptions()
    budget: BudgetOptions = BudgetOptions()
    artifacts: ArtifactOptions = ArtifactOptions()
    # None = the event loop the registry declares for the protocol.
    events: Optional[EventGenerator] = None
    # Fault-bounded exploration: in every state the checker may also
    # drop or duplicate any in-flight message, up to this per-path
    # budget.  None = classic fault-free checking.
    faults: Optional[FaultBudget] = None
    compile: CompileOptions = CompileOptions()


@dataclass(frozen=True)
class SimOptions:
    """Simulator configuration (Table 1/2 runs)."""

    nodes: int = 16
    # None = the workload's conventional block count.
    blocks: Optional[int] = None
    # Network: seed the delay RNG (None = the default seed, 12345 --
    # every zero-fault run at the same seed/jitter is byte-identical,
    # which the golden-trace tests enforce) and allow up to ``jitter``
    # cycles of random extra latency.  jitter > 0 drops per-channel
    # FIFO, so reordering is reproducible from the seed alone.
    seed: Optional[int] = None
    jitter: int = 0
    trace: Optional[str] = None
    trace_format: str = "jsonl"
    metrics: Optional[str] = None
    # Fault injection and the timeout/retry recovery layer; None keeps
    # the network perfectly reliable (and the run byte-identical to
    # builds without the fault subsystem).
    faults: Optional[FaultOptions] = None
    compile: CompileOptions = CompileOptions()


@dataclass
class SimulateResult:
    """Outcome of :func:`simulate`."""

    protocol_name: str
    workload: Optional[str]
    cycles: int
    stats: MachineStats
    # The machine itself, for inspection beyond the aggregate stats
    # (e.g. per-node observed values in the examples).
    machine: Optional[Machine] = None
    # The Table 1/2 row, when a registered workload was run.
    table_row: Optional[object] = None
    # The fault plan the run executed under (its ledger records every
    # injected fault); None for reliable-network runs.
    fault_plan: Optional[FaultPlan] = None

    @property
    def fault_time_fraction(self) -> float:
        return self.stats.fault_time_fraction


def compile_protocol(target: Target,
                     options: CompileOptions = CompileOptions(),
                     ) -> CompiledProtocol:
    """Compile a registered name, ``.tea`` path, or source text.

    Already-compiled protocols pass through unchanged.  A string with a
    newline is treated as source text; otherwise it must be a registered
    protocol name (see ``teapot list``) or a path to a ``.tea`` file.
    """
    if isinstance(target, CompiledProtocol):
        return target
    if not isinstance(target, str):
        raise TypeError(
            f"target must be a protocol name, .tea path, source text, or "
            f"CompiledProtocol, not {type(target).__name__}")
    if "\n" in target:
        # Source text always runs the front end: it has no file for a
        # cache entry to sit beside.
        from repro.compiler.pipeline import compile_source

        return compile_source(
            target, opt_level=options.opt_level,
            flavor=options.flavor or Flavor.TEAPOT,
            initial_states=options.initial_states,
            filename=options.filename)
    if target in PROTOCOLS:
        return compile_named_protocol(
            target, opt_level=options.opt_level, flavor=options.flavor)
    return compile_file(target, options.opt_level,
                        options.flavor or Flavor.TEAPOT,
                        options.initial_states)


def check(target: Target,
          options: CheckOptions = CheckOptions()) -> CheckResult:
    """Model-check a protocol; serial or parallel per ``options.workers``."""
    from repro.verify.checker import ModelChecker, SymmetryError
    from repro.verify.events import StacheEvents, events_for_protocol
    from repro.verify.invariants import standard_invariants

    protocol = compile_protocol(target, options.compile)
    # The check setup belongs to the registry entry whose source declares
    # this protocol, however the target was given (name, path, source
    # text, compiled object, an edited copy of a registered source); an
    # unregistered protocol gets the Stache loop and all three invariants.
    entry = entry_declaring(protocol.name)
    events = options.events
    if events is None:
        events = events_for_protocol(entry.name) if entry else StacheEvents()
    coherent = options.coherent
    if coherent is None:
        coherent = entry is None or entry.coherent
    invariants = standard_invariants(coherent=coherent)
    reduction = options.reduction
    checkpointing = bool(options.checkpoint.out
                         or options.checkpoint.resume)
    for name, floor in (("nodes", 1), ("addresses", 1), ("reorder", 0),
                        ("workers", 0), ("channel_cap", 1),
                        ("max_states", 1)):
        if getattr(options, name) < floor:
            raise ValueError(f"CheckOptions.{name} must be >= {floor}")
    if options.checkpoint.keep_last < 1:
        raise ValueError("CheckpointOptions.keep_last must be >= 1")
    for name in ("deadline_seconds", "max_rss_mb"):
        budget = getattr(options.budget, name)
        # A NaN or infinite budget compares false with every reading,
        # so it would never fire: only a finite number > 0 is one.
        if budget is not None and not 0 < budget < math.inf:
            raise ValueError(f"BudgetOptions.{name} must be > 0")
    # A deadline run that cannot write its checkpoint at the cut has
    # lost the exploration: refuse before the first state.
    check_output_paths(ValueError, options.checkpoint.out)

    def run_once(symmetry: bool) -> CheckResult:
        # The profiler is a stateful accumulator; each attempt gets a
        # fresh one so a symmetry-certification fallback rerun does not
        # double-record.
        profiler = None
        if options.artifacts.profile:
            from repro.obs.profile import CheckProfiler

            profiler = CheckProfiler()
        shared = dict(
            n_nodes=options.nodes,
            n_blocks=options.addresses,
            reorder_bound=options.reorder,
            events=events,
            invariants=invariants,
            max_states=options.max_states,
            channel_cap=options.channel_cap,
            progress_stream=options.progress,
            fault_budget=options.faults,
            profiler=profiler,
            atlas=options.artifacts.atlas,
            symmetry=symmetry,
            liveness=options.liveness,
            checkpoint_out=options.checkpoint.out,
            resume=options.checkpoint.resume,
            checkpoint_keep_last=options.checkpoint.keep_last,
            deadline_seconds=options.budget.deadline_seconds,
            max_rss_mb=options.budget.max_rss_mb,
        )
        if options.workers == 0:
            return ModelChecker(
                protocol,
                # Serial checkpoints key the visited set by fingerprint,
                # so checkpointing implies hash compaction.
                fingerprint_states=(options.fingerprints
                                    or checkpointing),
                **shared,
            ).run()
        # The worker checker refuses the serial-only liveness check
        # and atlas itself.
        from repro.verify.parallel import ParallelChecker

        return ParallelChecker(
            protocol, workers=options.workers, **shared).run()

    if not reduction.symmetry:
        return run_once(False)
    try:
        return run_once(True)
    except SymmetryError as error:
        # A recorded action (or a node's application choices) failed
        # symmetry certification: the model makes a node-identity-
        # dependent choice, so quotienting would be unsound.  Warn and
        # fall back to the exact, unreduced exploration.
        warnings.warn(
            f"{error}; re-running without symmetry reduction",
            RuntimeWarning, stacklevel=2)
        return run_once(False)


def simulate(target: Target,
             workload: Optional[str] = None,
             programs: Optional[list] = None,
             options: SimOptions = SimOptions()) -> SimulateResult:
    """Simulate a registered workload, or caller-supplied programs.

    Exactly one of ``workload`` (a name from
    :data:`repro.workloads.STACHE_WORKLOADS` /
    :data:`~repro.workloads.LCM_WORKLOADS`) and ``programs`` (a list of
    per-node thread programs, one per node) must be given.
    """
    from repro.tempest.machine import Machine, MachineConfig
    from repro.tempest.network import NetworkConfig
    from repro.workloads import LCM_WORKLOADS, STACHE_WORKLOADS, run_workload

    if (workload is None) == (programs is None):
        raise ValueError("pass exactly one of workload= or programs=")
    # Each refusal is an input that describes no machine.
    if workload is not None and options.nodes < 1:
        raise ValueError("SimOptions.nodes must be >= 1")
    if programs is not None and not programs:
        raise ValueError("programs= must hold one program per node")
    if options.blocks is not None and options.blocks < 1:
        raise ValueError("SimOptions.blocks must be >= 1")
    if options.jitter < 0:
        raise ValueError("SimOptions.jitter must be >= 0")
    protocol = compile_protocol(target, options.compile)

    n_nodes = options.nodes
    if workload is not None:
        table = {**STACHE_WORKLOADS, **LCM_WORKLOADS}
        if workload not in table:
            raise ValueError(
                f"unknown workload {workload!r}; known: "
                + ", ".join(sorted(table)))
        factory, blocks_fn = table[workload]
        programs = factory(n_nodes=n_nodes)
        n_blocks = options.blocks or blocks_fn(n_nodes)
    else:
        n_nodes = len(programs)
        n_blocks = options.blocks or 64

    network = NetworkConfig(
        jitter=options.jitter,
        seed=options.seed if options.seed is not None else 12345,
    )
    check_output_paths(ValueError, options.trace, options.metrics)
    observer = None
    registry = None
    if options.trace or options.metrics:
        from repro.obs import MetricsRegistry, Observer, open_sink

        if options.metrics:
            registry = MetricsRegistry(protocol.name)
        observer = Observer(open_sink(options.trace, options.trace_format),
                            registry)
    faults = options.faults
    fault_plan = faults.build_plan() if faults is not None else None
    config = MachineConfig(n_nodes=n_nodes, n_blocks=n_blocks,
                           network=network, observer=observer,
                           faults=fault_plan,
                           watchdog=faults is not None and faults.watchdog)
    try:
        if workload is not None:
            row = run_workload(protocol, workload, programs, n_blocks,
                               config=config)
            result = SimulateResult(
                protocol_name=protocol.name, workload=workload,
                cycles=row.cycles, stats=row.stats, table_row=row,
                fault_plan=fault_plan)
        else:
            machine = Machine(protocol, programs, config)
            sim = machine.run()
            result = SimulateResult(
                protocol_name=protocol.name, workload=None,
                cycles=sim.cycles, stats=sim.stats, machine=machine,
                fault_plan=fault_plan)
    finally:
        if observer is not None:
            observer.close()
    if registry is not None:
        registry.save(options.metrics)
    return result
