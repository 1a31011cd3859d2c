"""The breadth-first state-space exploration engine.

Mirrors Mur-phi's behaviour as used in the paper: explore all possible
interleavings of protocol events (application-issued loads/stores/
operations and message deliveries, the latter with bounded reordering),
check invariants in every state, and produce a counterexample trace on
failure.  Exploration is exhaustive up to ``max_states``.
"""

from __future__ import annotations

import re
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, NamedTuple, Optional

from repro.runtime.context import Message, home_node
from repro.runtime.engine import CompiledEngine
from repro.runtime.protocol import CompiledProtocol
from repro.verify.checkpoint import (
    Cut,
    CutPolicy,
    flag_sigint,
    replay_frontier,
    starting_cut,
    visited_container_bytes,
)
from repro.verify.events import EventGenerator, StacheEvents
from repro.verify.fingerprint import (
    SLOT_TERMS,
    SymmetryCanonicalizer,
    fingerprint,
)
from repro.verify.invariants import Invariant, standard_invariants
from repro.verify.model import (
    APP_IDS,
    APPENDED,
    APPS,
    CHANNEL_LEN,
    MESSAGE_IDS,
    MESSAGES,
    Memo,
    QUEUE_LEN,
    REMOVED,
    VIEWS,
    ActionContext,
    ActionEffects,
    ActionScratch,
    AppView,
    CheckerViolation,
    GlobalState,
    fault_for_access,
    initial_global_state,
)

# Sentinel: "leave the app generator alone" for _build_successor.
_KEEP_GEN = object()

# The effects of an action that touched nothing (an application hit:
# only the event generator advances).
_NO_EFFECTS = ActionEffects((), (), None, (), None)

_DEADLOCK_MESSAGE = ("no rule enabled: all nodes blocked and no messages "
                     "in flight")

# (access tag value, "read" | "write") -> the fault that access raises,
# or None: the hot loop asks per application choice.
_ACCESS_FAULTS = Memo(lambda key: fault_for_access(key[0], key[1] == "write"))

# (node, tag, block, payload) -> id of the message an application
# operation hands its own node.
_OP_MESSAGES = Memo(lambda key: MESSAGE_IDS[Message(
    key[1], key[2], src=key[0], dst=key[0], payload=key[3])])


class TraceReplayError(Exception):
    """A counterexample trace did not replay from the initial state."""


class FingerprintCollisionError(TraceReplayError):
    """A fingerprint collision corrupted the violation path.

    Raised when a trace reconstructed from fingerprint-keyed parent
    pointers fails replay validation.  The exploration's state count may
    also be an undercount; rerun without fingerprinting (or with more
    fingerprint bits) to get an exact answer.
    """


class SymmetryError(RuntimeError):
    """The protocol failed the symmetry-reduction certification.

    Symmetry reduction is exact only when the transition relation
    commutes with the node-permutation group: the successors of a
    renamed state must be the renamed successors.  Murphi's
    scalarset type discipline proves that statically; Teapot has no
    such discipline, and builtins like ``PopSharer``/``NthSharer``
    return ``min``/*n*-th of a sharer set -- a deterministic choice no
    function can make permutation-equivariant (for the swap fixing a
    two-element set, the image of the choice would have to be the
    other element).  Usually the choice washes out (pop-all
    invalidation loops reach the same state in any order), but a
    protocol that acts on the *identity* of one popped sharer --
    lcm_mcc's copy-forward delegation, say -- genuinely is not
    node-symmetric, and quotienting it would silently skip reachable
    orbits.  So a reduced run certifies the assumption where it records
    an action (and a node's application choices): each renamed image
    must do the renamed thing (``ModelChecker._certify``).  Every move
    out of a renamed state is the renamed input of a move out of the
    state, so certified actions and choices make each state's successors
    equivariant.  This error is raised at the first image that disagrees;
    ``api.check`` responds by rerunning the model unreduced.
    """


def _asymmetric(what: str, mapping: tuple) -> SymmetryError:
    return SymmetryError(
        f"symmetry certification failed: {what} under node permutation "
        f"{mapping}.  The model makes a node-asymmetric choice (e.g. "
        "PopSharer/NthSharer acting on the identity of one specific "
        "sharer, or events offered to some nodes only), so symmetry "
        "reduction would silently skip reachable states")


# The rule labels: a delivery or an injected fault names its message,
# "deliver|drop|dup TAG s->d[i] blk=B" (_message_label); an application
# rule, as the event generators spell it, is "n{node}: {op} b{block}".
_LABEL = re.compile(r"^(?:(deliver|drop|dup) (\S+) (\d+)->(\d+)\[(\d+)\] "
                    r"blk=(\d+)|n(\d+): (.+?) b(\d+))$")


class Label(NamedTuple):
    """A rule label read back (:func:`parse_label`)."""

    kind: str                # "deliver" | "drop" | "dup" | "app" | "other"
    tag: str                 # message tag, application op, or the label
    src: Optional[int]       # sender (an application rule's node)
    dst: Optional[int]       # receiver (the same node)
    index: Optional[int]     # position in the channel
    block: Optional[int]


def _message_label(kind: str, message: Message, src: int, dst: int,
                   index: int) -> str:
    return (f"{kind} {message.tag} {src}->{dst}[{index}] "
            f"blk={message.block}")


def parse_label(label: str) -> Label:
    """The one reading of a rule label; a marker such as ``<initial>``
    is kind ``other``."""
    match = _LABEL.match(label)
    if match is None:
        return Label("other", label, None, None, None, None)
    kind, tag, src, dst, index, block, node, op, at = match.groups()
    if kind is None:
        node = int(node)
        return Label("app", op, node, node, None, int(at))
    return Label(kind, tag, int(src), int(dst), int(index), int(block))


@dataclass
class Violation:
    """A safety violation with its counterexample trace."""

    kind: str           # "error" | "deadlock" | "invariant" | "starvation"
    message: str
    trace: list[str]    # rule labels from the initial state
    state: Optional[GlobalState] = None

    def format_trace(self) -> str:
        lines = [f"{self.kind.upper()}: {self.message}", "trace:"]
        for step, label in enumerate(self.trace, 1):
            lines.append(f"  {step:3d}. {label}")
        if self.state is not None:
            lines.append(f"final state: {self.state.summary()}")
        return "\n".join(lines)

    def fault_schedule(self) -> list[dict]:
        """The fault transitions along the trace, in order: one dict per
        injected drop/dup with its step number and message signature."""
        return [{"step": step, "action": rule.kind, "tag": rule.tag,
                 "src": rule.src, "dst": rule.dst, "index": rule.index,
                 "block": rule.block}
                for step, rule in enumerate(map(parse_label, self.trace), 1)
                if rule.kind in ("drop", "dup")]

    def to_fault_plan(self):
        """A scripted :class:`repro.faults.FaultPlan` approximating this
        counterexample's fault schedule, for ``teapot run --fault-plan``
        replay: the k-th fault with a given (action, tag, src, dst,
        block) signature becomes an occurrence-k rule.  (The simulator's
        timing differs from the checker's interleaving, so the plan
        pins *which* message is hit, not the exact step.)"""
        from repro.faults import FaultPlan, FaultRule

        seen: dict[tuple, int] = {}
        rules = []
        for entry in self.fault_schedule():
            signature = (entry["action"], entry["tag"], entry["src"],
                         entry["dst"], entry["block"])
            seen[signature] = seen.get(signature, 0) + 1
            rules.append(FaultRule(
                action=entry["action"], tag=entry["tag"],
                src=entry["src"], dst=entry["dst"], block=entry["block"],
                occurrence=seen[signature]))
        return FaultPlan(rules=rules)

    def to_events(self) -> list[dict]:
        """The counterexample as structured trace events (the same JSONL
        schema simulator traces use -- see :mod:`repro.obs.sinks`)."""
        from repro.obs.sinks import V_CORE, V_FAULTS

        events: list[dict] = [
            {"ev": "checker_step", "v": V_CORE,
             "step": step, "label": label}
            for step, label in enumerate(self.trace, 1)
        ]
        schedule = self.fault_schedule()
        tail = {"ev": "violation",
                "v": V_FAULTS if schedule else V_CORE,
                "kind": self.kind, "message": self.message}
        if self.state is not None:
            tail["state"] = self.state.summary()
        if schedule:
            tail["faults"] = schedule
        events.append(tail)
        return events

    def write_trace(self, path: str) -> None:
        """Dump the counterexample as JSONL (``--trace-out``)."""
        from repro.obs import JsonlSink

        sink = JsonlSink(path)
        try:
            for event in self.to_events():
                sink.emit(event)
        finally:
            sink.close()


@dataclass
class CheckResult:
    """Outcome of a model-checking run (Table 3's raw material)."""

    protocol_name: str
    ok: bool
    states_explored: int
    transitions: int
    max_depth: int
    elapsed_seconds: float
    violation: Optional[Violation] = None
    n_nodes: int = 2
    n_blocks: int = 1
    reorder_bound: int = 0
    hit_state_limit: bool = False
    # Per-invariant evaluation counts (invariant name -> evaluations).
    invariant_evals: dict = field(default_factory=dict)
    # Per-handler fire counts over the whole exploration:
    # "State.MESSAGE" -> number of dispatches (initial deliveries plus
    # queue redeliveries).  Raw material for `teapot analyze coverage`.
    handler_fires: dict = field(default_factory=dict)
    # False when max_states truncated the search: ok=True then means
    # "no violation within the explored prefix", not a verdict.
    exhausted: bool = True
    # How many worker processes explored (1 = the serial checker).
    workers: int = 1
    # The fault budget (drops, dups) the exploration was allowed to
    # spend on each path; (0, 0) is classic fault-free checking.
    fault_budget: tuple = (0, 0)
    # When the run was profiled: the CheckProfile artifact
    # (repro.obs.profile), else None.
    profile: Optional[object] = None
    # When the run recorded an atlas: the StateAtlas artifact
    # (repro.verify.atlas, read off the run's KeyGraph), else None.
    atlas: Optional[object] = None
    # Reduction telemetry: with symmetry reduction on, the number of
    # orbit representatives explored (equals states_explored -- the
    # visited set *is* canonical); None when symmetry was off.
    canonical_states: Optional[int] = None
    # Why the run stopped before exhausting the space: "deadline" /
    # "memory" (BudgetOptions), "interrupted" (Ctrl-C, acted on at the
    # next clean cut), or None for a normal completion / plain max_states
    # truncation.  A set stop_reason implies exhausted=False and, when
    # checkpointing was configured, a resumable checkpoint on disk.
    stop_reason: Optional[str] = None
    # The run's timeline (checkpoint.CutPolicy): one point -- t (the
    # whole run's seconds), states, frontier, depth, transitions,
    # states_per_s -- at the first cut of every BFS layer (parallel:
    # wave), then the final one at the result's counts.
    timeline: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if self.hit_state_limit:
            status += " (state limit reached)"
        if self.stop_reason is not None:
            status += f" (stopped: {self.stop_reason})"
        workers = f", workers={self.workers}" if self.workers > 1 else ""
        faults = ""
        if self.fault_budget != (0, 0):
            faults = (f", faults=drop:{self.fault_budget[0]}"
                      f"+dup:{self.fault_budget[1]}")
        reduction = ""
        if self.canonical_states is not None:
            reduction = f" canonical-states={self.canonical_states}"
        return (
            f"{self.protocol_name}: {status}  states={self.states_explored} "
            f"transitions={self.transitions}{reduction} "
            f"depth={self.max_depth} "
            f"time={self.elapsed_seconds:.2f}s "
            f"(nodes={self.n_nodes}, addrs={self.n_blocks}, "
            f"reorder={self.reorder_bound}{workers}{faults})"
        )


def refuse_graph_modes(*, workers: int = 0, liveness: bool = False,
                       atlas: bool = False, checkpoint_out=None, resume=None,
                       **_options) -> None:
    """Refuse, in one line, liveness checking or the state atlas where
    the explored graph (starvation.KeyGraph) would not be one process's
    record of one whole run: with workers, or resumed (or, for
    liveness, written) across a checkpoint, which carries no edges."""
    mode = "liveness checking" if liveness else "the state atlas"
    if (liveness or atlas) and workers:
        raise ValueError(f"{mode} reads the graph one process explored and "
                         "is serial-only (CheckOptions.workers must be 0)")
    if liveness and (checkpoint_out or resume) or atlas and resume:
        keyed = "checkpoint/resume" if liveness else "resume"
        raise ValueError(f"{mode} cannot run with {keyed}: a checkpoint "
                         "does not carry the explored graph")


class ModelChecker:
    """Exhaustively checks a compiled protocol.

    Parameters mirror Table 3's configurations: number of nodes, number
    of shared addresses, and the network reordering bound (0 = FIFO
    channels; k allows a message to be delivered ahead of up to k
    earlier messages on its channel).  ``liveness`` and ``atlas`` read
    the one graph the run records (:func:`refuse_graph_modes`).
    """

    def __init__(
        self,
        protocol: CompiledProtocol,
        n_nodes: int = 2,
        n_blocks: int = 1,
        reorder_bound: int = 0,
        events: Optional[EventGenerator] = None,
        invariants: Optional[list[Invariant]] = None,
        max_states: int = 2_000_000,
        channel_cap: int = 4,
        interpreter_factory=CompiledEngine,
        liveness: bool = False,
        progress_stream: Optional[IO] = None,
        fingerprint_states: bool = False,
        fault_budget=None,
        profiler=None,
        atlas: bool = False,
        symmetry: bool = False,
        checkpoint_out: Optional[str] = None,
        resume: Optional[str] = None,
        checkpoint_keep_last: int = 1,
        deadline_seconds: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
    ):
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.n_blocks = n_blocks
        self.reorder_bound = reorder_bound
        self.events = events if events is not None else StacheEvents()
        self.invariants = (
            invariants if invariants is not None else standard_invariants())
        self.max_states = max_states
        # The execution engine, built per recorded action: the Python
        # back end's compiled handlers -- the functions the simulator
        # executes.  The test suite passes the reference
        # HandlerInterpreter here for behavioural-equivalence checks.
        self.interpreter_factory = interpreter_factory
        # Application rules are disabled while any channel holds this
        # many messages -- the standard Mur-phi idiom for keeping a model
        # with non-blocking operations finite.  Deliveries are never
        # gated, so this cannot introduce spurious deadlocks.
        self.channel_cap = channel_cap
        # Liveness checking (an extension beyond the paper's
        # safety checks): record the explored graph over the run's own
        # keys and verify that from every reachable state, every blocked
        # thread can still reach a state where it runs again
        # (repro.verify.starvation).  Catches starvation bugs -- e.g. a
        # nacked request that is never retried -- that no safety
        # invariant sees.  The checkpoint format carries no edges.
        self.liveness = liveness
        # The state atlas (repro.verify.atlas), read off the same graph
        # at the end of the run.
        self.atlas = atlas
        refuse_graph_modes(liveness=liveness, atlas=atlas,
                           checkpoint_out=checkpoint_out, resume=resume)
        # Progress lines: when a stream is given, the run's timeline
        # points are printed there as they are taken, at most about one
        # a second (checkpoint.CutPolicy), so long runs are diagnosable
        # while they execute.
        self.progress_stream = progress_stream
        # Hash compaction: key the visited set (and parent pointers) by
        # 64-bit fingerprints instead of whole states.  Memory per
        # visited state drops by an order of magnitude; any violation
        # trace is replay-validated to guard against collisions (see
        # repro.verify.fingerprint).
        self.fingerprint_states = fingerprint_states
        self.fingerprint_fn = fingerprint
        # Symmetry reduction: key the visited set by the minimum
        # fingerprint over the home-fixing free-node permutation group
        # (see repro.verify.fingerprint.SymmetryCanonicalizer), so one
        # representative per orbit is explored.  Exploration itself
        # stays concrete -- successors of the first-discovered
        # representative -- so the parent-pointer chain is a real path
        # from the initial state and every witness trace replays on an
        # unreduced checker as-is (fresh_clone drops reduction flags).
        self.symmetry = symmetry
        if symmetry:
            # (Memoised by state, which hashes in C: a repeat is one
            # dict hit.)
            self._canon = SymmetryCanonicalizer(protocol, n_nodes, n_blocks)
            self.fingerprint_fn = Memo(
                self._canon.canonical_fingerprint).__getitem__
            # Canonical keys are ints in every serial mode; violations
            # get the same replay validation fingerprint mode has.
            self.fingerprint_states = True
        else:
            self._canon = None
        # Liveness under symmetry also reads each state's argmin renaming
        # (starvation.KeyGraph), memoised with its key.
        self._renaming = None
        if symmetry and liveness:
            least = Memo(lambda state: self._canon.least(
                state, fingerprint(state)))
            self.fingerprint_fn = lambda state: least[state][0]
            self._renaming = lambda state: least[state][1]
        # Where the visited key is the state's own fingerprint (not a
        # minimum over renamings) a successor's is its parent's with the
        # terms of the slots the move stored swapped: the per-slot term
        # tables, and the XOR of the swapped terms that whatever built
        # the last successor left for _expand (None: left nothing).
        self._slot_terms = (SLOT_TERMS[n_nodes, n_blocks]
                            if self.fingerprint_states and not symmetry
                            else None)
        self._delta: Optional[int] = None
        # Fault-bounded exploration: in addition to every delivery, the
        # checker may *drop* or *duplicate* any in-flight message, up to
        # the budget.  Accepts a FaultBudget or a (drops, dups) tuple;
        # None / (0, 0) disables fault transitions entirely.
        if fault_budget is None:
            self.fault_budget = (0, 0)
        elif hasattr(fault_budget, "as_tuple"):     # a FaultBudget
            self.fault_budget = fault_budget.as_tuple()
        else:
            self.fault_budget = tuple(fault_budget)
        # Exploration profiling (repro.obs.profile.CheckProfiler), or
        # None.  The profiler is a pure observer: armed, it wraps the
        # same expand loop (see _expand) and the fingerprint function
        # and only reads clocks -- verdicts, state counts, fingerprints,
        # and checkpoints are identical either way (tests/test_profile.py).
        self.profiler = profiler
        if profiler is not None:
            self.fingerprint_fn = profiler.timed_phase(
                "fingerprint", self.fingerprint_fn)
        # Checkpointing (checkpoint.CutPolicy) in the parallel checker's
        # v2 format, so a serial checkpoint resumes at any worker count
        # and vice versa; the format is fingerprint-keyed.
        self.checkpoint_out = checkpoint_out
        self.resume = resume
        self.checkpoint_keep_last = checkpoint_keep_last
        if (checkpoint_out or resume) and not self.fingerprint_states:
            raise ValueError(
                "serial checkpoint/resume requires fingerprint_states="
                "True (the checkpoint format is fingerprint-keyed)")
        # Resource budgets (checkpoint.CutPolicy): wall-clock seconds
        # and peak RSS in MB.
        self.deadline_seconds = deadline_seconds
        self.max_rss_mb = max_rss_mb
        # Where a state's app and channel ids start (GlobalState's
        # layout) and the slot past its last channel:
        self._app0 = n_nodes * n_blocks
        self._chan0 = self._app0 + n_nodes
        self._end = self._chan0 + n_nodes * n_nodes
        # (state_name, tag) -> handler-fire key or None, so recording an
        # action stops re-resolving DEFAULT dispatch per dispatch:
        self._fire_keys = Memo(self._fire_key)
        # (node, app id) -> the event-generator choices open to that
        # application status (none while it is blocked):
        self._choice_cache = Memo(self._choices)
        # (channel slot, channel id, index) -> that delivery's (label,
        # dst, block, message id, channel id afterwards):
        self._delivery_cache = Memo(self._delivery)
        # The run counters and the named invariant suite:
        self._begin_run()

    def home_of(self, block: int) -> int:
        return home_node(block, self.n_nodes)

    # -- rule application ---------------------------------------------------
    #
    # The engine never deep-copies a state.  One atomic action is a
    # deterministic function of (node, the acting block's view, the
    # message, the node's blocked-on marker): every read a handler can
    # make goes through the ProtocolContext block-record accessors on the
    # current message's block, and every write lands on the acting node
    # (see ActionScratch).  So the checker journals an action once in a
    # copy-on-first-touch journal (ActionScratch + ActionContext),
    # distils it to an ActionEffects, and caches it under that 4-tuple
    # (as ids: four small ints); subsequent expansions replay the effects
    # as one id stored per touched slot of a copy of the parent's ids --
    # no decoding, no handler dispatch, no full-state freeze.  (The
    # copy-the-world path this replaced is the differential oracle,
    # tests/reference_checker.py.)

    def _action_effects(self, state: GlobalState, node: int, block: int,
                        mid: int, blocked_before) -> ActionEffects:
        """Cached outcome of dispatching message ``mid`` (about
        ``block``) on ``node``; bumps ``handler_fires`` by the recorded
        fire sequence, as executing the action would."""
        key = (node, state[node * self.n_blocks + block], mid,
               blocked_before)
        cache = self._action_cache
        effects = cache.get(key)
        if effects is None:
            effects = self._record_action(state, node, MESSAGES[mid],
                                          blocked_before, self.profiler)
            if self._canon is None:
                cache[key] = effects
            else:
                cache.update(self._certify(state, key, effects))
        fires = self._handler_fires
        for fire in effects.fires:
            fires[fire] = fires.get(fire, 0) + 1
        return effects

    def _certify(self, state: GlobalState, key: tuple,
                 effects: ActionEffects) -> dict:
        """Certify a freshly recorded action under each renaming in the
        group: recorded from the renamed state, the renamed action must
        raise as it does, fire the same arms and build the renamed
        successor -- the same views, blocked-on marker and sends in
        order per channel (a pop-all loop's order *across* channels,
        ``min(sharers)`` first, is no renaming's).  Returns the action
        and its images, certified by group closure, for the cache;
        image recordings count no fires and no profiler time."""
        canon = self._canon
        certified = {key: effects}
        for mapping in canon.perms:
            image = canon.rename_action(key, mapping)
            renamed = canon.permute(state, mapping)
            theirs = certified.get(image)
            if theirs is None:
                theirs = certified[image] = self._record_action(
                    renamed, image[0], MESSAGES[image[2]], key[3])
            if ((effects.error is None, effects.fires, canon.permute(
                    self._build_successor(state, key[0], effects), mapping))
                    != (theirs.error is None, theirs.fires,
                        self._build_successor(renamed, image[0], theirs))):
                raise _asymmetric(
                    f"{MESSAGES[key[2]].tag} on node {key[0]} in state "
                    f"{VIEWS[key[1]].state_name} and its image differ",
                    mapping)
        return certified

    def _record_action(self, state: GlobalState, node: int,
                       message: Message, blocked_before,
                       prof=None) -> ActionEffects:
        """Journal one atomic action (dispatch plus queue redelivery),
        timing each dispatch on ``prof`` when one is given."""
        scratch = ActionScratch(state, node)
        scratch.blocked_on = blocked_before
        ctx = ActionContext(self.protocol, scratch, self.home_of)
        interp = self.interpreter_factory(self.protocol, ctx)
        fires: list = []
        try:
            record = scratch.record(message.block)
            batch = [message]   # then the deferred queue, while it retries
            while batch:
                record["state_changed"] = False
                for delivered in batch:
                    key = self._fire_keys[record["state_name"],
                                          delivered.tag]
                    if key is not None:
                        fires.append(key)
                    ctx.begin(delivered)
                    if prof is None:
                        interp.dispatch()
                    else:
                        t0 = time.perf_counter()
                        interp.dispatch()
                        prof.add_dispatch(key, time.perf_counter() - t0)
                batch = []
                if record["state_changed"] and record["queue"]:
                    batch, record["queue"] = record["queue"], []
        except CheckerViolation as violation:
            return ActionEffects((), (), blocked_before, tuple(fires),
                                 violation.message)
        return ActionEffects(
            scratch.changed_views(), tuple(scratch.sends),
            scratch.blocked_on, tuple(fires), None,
            (node * self.n_blocks, self._chan0 + node * self.n_nodes))

    def _build_successor(self, state: GlobalState, node: int,
                         effects: ActionEffects, gen=_KEEP_GEN,
                         removed=None) -> GlobalState:
        """Replay recorded effects onto ``state``: copy its ids and
        store one per slot the action touched.  ``removed`` is the
        delivered message's ``(channel slot, channel id afterwards, the
        XOR of the two's terms)`` from :meth:`_delivery`."""
        ids = list(state)
        for slot, vid in effects.views:
            ids[slot] = vid
        at = self._app0 + node
        app = APPS[ids[at]]
        new_gen = app.gen if gen is _KEEP_GEN else gen
        if new_gen != app.gen or effects.blocked_after != app.blocked_on:
            key = (effects.blocked_after, new_gen)
            # An equal plain tuple finds an AppView's id; only a new
            # status builds the record.
            aid = APP_IDS.get(key)
            ids[at] = APP_IDS[AppView(*key)] if aid is None else aid
        if removed is not None:
            # Before the sends: an action may refill the very channel it
            # was delivered from (a node messaging itself).
            ids[removed[0]] = removed[1]
        for slot, mid in effects.sends:
            ids[slot] = APPENDED[ids[slot], mid]
        terms = self._slot_terms
        if terms is not None:
            # Each stored slot's old term out and new term in, once a
            # slot (a refilled channel is not as the delivery left it).
            delta = 0
            if removed is not None and ids[removed[0]] == removed[1]:
                delta = removed[2]
            if ids[at] != state[at]:
                delta ^= terms[at][state[at]] ^ terms[at][ids[at]]
            for slot, vid in effects.views:
                delta ^= terms[slot][state[slot]] ^ terms[slot][vid]
            for slot in effects.sent:
                delta ^= terms[slot][state[slot]] ^ terms[slot][ids[slot]]
            self._delta = delta
        return tuple.__new__(GlobalState, ids)

    def _congested(self, state: GlobalState) -> bool:
        """Whether any channel or deferred queue sits at the channel
        cap: asked once per expanded state, answered from the per-id
        length tables."""
        cap = self.channel_cap
        return (max(map(QUEUE_LEN.__getitem__, state[:self._app0])) >= cap
                or max(map(CHANNEL_LEN.__getitem__,
                           state[self._chan0:self._end])) >= cap)

    def _apply_app_op(self, state: GlobalState, node: int, op: tuple,
                      new_gen: tuple) -> Optional[GlobalState]:
        """Issue an application operation; returns the successor state."""
        kind = op[0]
        if kind in ("read", "write"):
            block = op[1]
            access = VIEWS[state[node * self.n_blocks + block]].access
            tag = _ACCESS_FAULTS[access, kind]
            if tag is None:
                # Hit: only the generator advanced.  With an unchanged
                # generator the successor IS the parent (a self-loop).
                if new_gen == APPS[state[self._app0 + node]].gen:
                    self._delta = 0
                    return state
                return self._build_successor(state, node, _NO_EFFECTS,
                                             new_gen)
            payload = ()
        else:  # program event (CAS, sync, LCM enter/exit, ...)
            tag, block = op[1], op[2]
            payload = op[3] if len(op) > 3 else ()
        effects = self._action_effects(
            state, node, block, _OP_MESSAGES[node, tag, block, payload],
            block)
        if effects.error is not None:
            raise CheckerViolation(effects.error)
        return self._build_successor(state, node, effects, new_gen)

    def _delivery(self, key: tuple) -> tuple:
        slot, cid, index = key
        src, dst = divmod(slot - self._chan0, self.n_nodes)
        after, mid = REMOVED[cid, index]
        message = MESSAGES[mid]
        terms = self._slot_terms
        swap = 0 if terms is None else terms[slot][cid] ^ terms[slot][after]
        return (_message_label("deliver", message, src, dst, index), dst,
                message.block, mid, (slot, after, swap))

    def _choices(self, key: tuple) -> tuple:
        node, app = key[0], APPS[key[1]]
        if app.blocked_on is not None:
            return ()
        canon = self._canon
        for mapping in canon.perms if canon is not None else ():
            # Certified like an action: renamed node, renamed moves.
            if (self._outline_choices(node, app.gen, mapping)
                    != self._outline_choices(mapping[node], app.gen,
                                             canon.identity)):
                raise _asymmetric(f"the application choices of nodes "
                                  f"{node} and {mapping[node]} differ",
                                  mapping)
        return tuple(self.events.choices(app.gen, node, self.n_blocks))

    def _outline_choices(self, node: int, gen: tuple,
                         mapping: tuple) -> Counter:
        """``node``'s application choices renamed by ``mapping``: reads
        and writes as they are, events by their (node-naming) messages."""
        outline: Counter = Counter()
        for choice in self.events.choices(gen, node, self.n_blocks):
            op = choice.op
            if op[0] not in ("read", "write"):
                op = self._canon.rename_message(_OP_MESSAGES[
                    node, op[1], op[2], op[3] if len(op) > 3 else ()],
                    mapping)
            outline[op, choice.new_gen] += 1
        return outline

    def _successors(self, state: GlobalState):
        """Yield (label, successor) pairs for the moves out of ``state``;
        a protocol error surfaces as :class:`_LabelledViolation`.

        The one enumeration of a state's moves -- application choices
        while uncongested, then deliveries inside the reorder window,
        then fault transitions -- behind exploration and trace replay."""
        app0 = self._app0
        # Application events (gated while the network or a deferred queue
        # is congested, to keep the model finite -- see channel_cap).
        if not self._congested(state):
            choices = self._choice_cache
            for node in range(self.n_nodes):
                for choice in choices[node, state[app0 + node]]:
                    try:
                        successor = self._apply_app_op(
                            state, node, choice.op, choice.new_gen)
                    except CheckerViolation as violation:
                        raise _LabelledViolation(choice.label,
                                                 violation.message)
                    yield choice.label, successor
        # Message deliveries (with bounded reordering).
        window = self.reorder_bound + 1
        deliveries = self._delivery_cache
        for slot in range(self._chan0, self._end):
            cid = state[slot]
            if not cid:
                continue
            for index in range(min(CHANNEL_LEN[cid], window)):
                label, dst, block, mid, removed = deliveries[slot, cid, index]
                effects = self._action_effects(
                    state, dst, block, mid,
                    APPS[state[app0 + dst]].blocked_on)
                if effects.error is not None:
                    raise _LabelledViolation(label, effects.error)
                yield label, self._build_successor(state, dst, effects,
                                                   removed=removed)
        if state[-4] or state[-3]:
            yield from self._fault_successors(state)

    def _fire_key(self, at: tuple) -> Optional[str]:
        """Coverage accounting: the arm key (``"State.MESSAGE"``) of the
        handler that runs for tag ``at[1]`` in state ``at[0]``, resolving
        DEFAULT fallback exactly like the engine's dispatch does -- or
        None.  Initial dispatches and queue redeliveries both count."""
        state = self.protocol.states.get(at[0])
        return state.dispatch(at[1]) if state is not None else None

    def _fault_successors(self, state: GlobalState):
        """Fault transitions: lose or duplicate any in-flight message,
        while budget remains.  Pure edits of two slots, a channel and a
        budget -- no handler runs -- so they cannot raise.  Note these
        never fire on an empty network, so fault budgets cannot mask a
        real deadlock (a state with all nodes blocked and no messages in
        flight still has no successor)."""
        terms = self._slot_terms
        for slot in range(self._chan0, self._end):
            src, dst = divmod(slot - self._chan0, self.n_nodes)
            cid = state[slot]
            for index in range(CHANNEL_LEN[cid]):
                dropped, mid = REMOVED[cid, index]
                message = MESSAGES[mid]
                for kind, budget in (("drop", -4), ("dup", -3)):
                    if not state[budget]:
                        continue
                    ids = list(state)
                    ids[slot] = (dropped if kind == "drop"
                                 else APPENDED[cid, mid])
                    ids[budget] -= 1
                    if terms is not None:
                        self._delta = (
                            terms[slot][cid] ^ terms[slot][ids[slot]]
                            ^ terms[budget][state[budget]]
                            ^ terms[budget][ids[budget]])
                    yield (_message_label(kind, message, src, dst, index),
                           tuple.__new__(GlobalState, ids))

    # -- search -------------------------------------------------------------

    def _begin_run(self) -> None:
        """Reset the per-run counters and bind the invariant suite.
        Also runs at construction, so a fresh checker (a replay clone,
        the parallel template) can step and judge states at once."""
        # (node, view id, message id, blocked_on) -> the ActionEffects
        # this run recorded (under symmetry, certified with its images):
        # every run records its own and drops them when it ends.
        self._action_cache = {}
        self._invariant_evals = {}
        self._handler_fires = {}
        self._max_depth = 0
        self._named_invariants = [
            (self._invariant_name(invariant), invariant)
            for invariant in self.invariants
        ]

    def initial_state(self) -> GlobalState:
        return initial_global_state(
            self.protocol, self.n_nodes, self.n_blocks,
            self.events.initial, faults=self.fault_budget)

    def _result(self, *, ok: bool, states: int, transitions: int,
                max_depth: int, elapsed: float, invariant_evals: dict,
                handler_fires: dict, violation: Optional[Violation] = None,
                stopped: Optional[str] = None, **extra) -> CheckResult:
        """Every CheckResult is built here, so the configuration-derived
        fields and the ``exhausted`` / ``canonical_states`` rules have
        one definition.  ``stopped``: why the search ended early --
        ``state_limit`` (a plain ``max_states`` truncation) or a
        ``stop_reason``.  The parallel master calls this on its template
        (with ``workers`` in ``extra``)."""
        hit_limit = stopped == "state_limit"
        return CheckResult(
            protocol_name=self.protocol.name, ok=ok, states_explored=states,
            transitions=transitions, max_depth=max_depth,
            elapsed_seconds=elapsed, violation=violation,
            n_nodes=self.n_nodes, n_blocks=self.n_blocks,
            reorder_bound=self.reorder_bound, hit_state_limit=hit_limit,
            invariant_evals=dict(invariant_evals),
            handler_fires=dict(handler_fires),
            exhausted=stopped is None,
            fault_budget=self.fault_budget,
            canonical_states=states if self.symmetry else None,
            stop_reason=None if hit_limit else stopped, **extra)

    def run(self) -> CheckResult:
        """Breadth-first exploration from the initial state (or from a
        resumed checkpoint's frontier)."""
        # SIGINT is flagged, not raised: the policy acts on it at the
        # next frontier pop (checkpoint.CutPolicy).
        with flag_sigint() as interrupt_cell:
            return self._run_bfs(interrupt_cell)

    # -- the exploration parts ----------------------------------------------

    def _expand(self, state: GlobalState, key):
        """The expand step: an iterator of ``(label, successor, successor
        key)`` for every transition out of ``state`` (whose own key is
        ``key``).

        Every mode explores the same transition system because this is
        the one definition of expanding a state: the serial loop and the
        parallel worker both iterate it and own only what they do with
        the triples (dedupe, parent pointers, acceptance or routing).
        Successors come from :meth:`_successors`; an armed profiler
        wraps the same iterator (``CheckProfiler.timed``).  An error
        rule surfaces as the enumerator's :class:`_LabelledViolation`
        (kind ``error``); a state with no enabled move raises one of
        kind ``deadlock``."""
        fp = self.fingerprint_fn if self.fingerprint_states else None

        def moves():
            # The triples are the enumerator's pairs plus the key, this
            # state's with the swapped terms where the builder left them.
            out_degree = 0
            self._delta = None
            for label, successor in self._successors(state):
                out_degree += 1
                if fp is None:
                    yield label, successor, successor
                    continue
                delta, self._delta = self._delta, None
                yield label, successor, (fp(successor) if delta is None
                                         else key ^ delta)
            if not out_degree:
                raise _LabelledViolation("<stuck>", _DEADLOCK_MESSAGE,
                                         "deadlock")

        prof = self.profiler
        return moves() if prof is None else prof.timed(moves())

    def _accept(self, state: GlobalState, depth: int) -> Optional[str]:
        """The accept step: ``state`` joins the explored set at
        ``depth``.  Tracks the run's maximum depth and runs the (timed)
        invariant suite; returns the first failed invariant's message,
        or None.  The caller owns the containers -- visited set, parent
        pointers, frontier, recorded graph."""
        if depth > self._max_depth:
            self._max_depth = depth
        prof = self.profiler
        if prof is None:
            return self._check_invariants(state)
        t0 = time.perf_counter()
        message = self._check_invariants(state)
        prof.add_phase("invariants", time.perf_counter() - t0)
        return message

    def _finish(self, violation: Optional[Violation], *,
                policy: CutPolicy, frontier: int, progress_extra: str = "",
                **counts) -> CheckResult:
        """The end of every run: replay-validate a counterexample built
        from fingerprints, take the timeline's final point (and progress
        line) from ``policy``, and build the :class:`CheckResult`
        (``counts`` are :meth:`_result`'s keywords; ``elapsed`` includes
        a resumed checkpoint's) with the profile.  The parallel master
        calls this on its template."""
        if (violation is not None and self.fingerprint_states
                and violation.kind != "starvation"):
            # Collision guard: the trace came from fingerprint-keyed
            # parent pointers; make sure it actually replays (_starvation
            # replayed its own witness).
            self.verify_violation(violation)
        timeline = policy.finish(
            counts["states"], frontier, counts["max_depth"],
            counts["transitions"], counts["invariant_evals"],
            counts["elapsed"], progress_extra)
        result = self._result(ok=violation is None, violation=violation,
                              timeline=timeline, **counts)
        if self.profiler is not None:
            result.profile = self.profiler.build(result)
        return result

    def _run_bfs(self, interrupt_cell) -> CheckResult:
        start_time = time.perf_counter()
        prof = self.profiler
        self._begin_run()
        # Every run starts from a cut: a resumed checkpoint's, or the
        # trivial one whose frontier is the initial state.
        cut = starting_cut(self)
        # Asked at every clean cut; it keeps the run's clock and timeline.
        policy = CutPolicy(self, start_time, cut.elapsed)
        transitions = cut.transitions
        self._max_depth = cut.max_depth
        self._invariant_evals = cut.invariant_evals
        self._handler_fires = cut.handler_fires
        # The visited set and parent pointers are keyed either by the
        # state itself or, in fingerprint mode, by its 64-bit digest.
        visited: set = cut.visited
        parents: dict = cut.parents
        seeds = replay_frontier(self, parents, cut.frontier, cut.states,
                                self.resume)
        # (state, key, depth) entries: accepted, awaiting expansion.
        frontier: deque = deque()
        # The explored graph over these same keys, for liveness (with
        # renamings under symmetry) and the atlas (with each edge's
        # label and each state's block views and fault budget).
        graph = None
        if self.liveness or self.atlas:
            from repro.verify.starvation import KeyGraph
            graph = KeyGraph(
                [self._canon.identity, *self._canon.perms]
                if self.liveness and self._canon else None,
                labelled=self.atlas)
        renaming = self._renaming or (lambda _state: None)
        note = ((lambda state: state[:self._app0] + state[-4:-2])
                if self.atlas else (lambda _state: None))
        stopped: Optional[str] = None    # see _result

        def finish(violation: Optional[Violation] = None) -> CheckResult:
            if prof is not None:
                prof.set_visited(
                    entries=len(visited),
                    mode=("fingerprint" if self.fingerprint_states
                          else "state"),
                    container_bytes=visited_container_bytes(
                        visited, parents))
            result = self._finish(
                violation, policy=policy, states=len(visited),
                frontier=len(frontier), transitions=transitions,
                max_depth=self._max_depth, elapsed=policy.elapsed(),
                invariant_evals=self._invariant_evals,
                handler_fires=self._handler_fires, stopped=stopped)
            if self.atlas:
                from repro.verify.atlas import build_atlas
                result.atlas = build_atlas(result, graph, self.protocol)
            return result

        def trace_to(key, last_label: str) -> list[str]:
            return self._trace_via_parents(key, parents) + [last_label]

        def take(state, key, pkey, label, d) -> Optional[str]:
            """Take a fresh state into the search: bookkeeping, the accept
            step and, unless an invariant failed, a frontier slot."""
            visited.add(key)
            parents[key] = (pkey, label)
            if graph is not None:
                graph.state(key, sum(
                    1 << node for node, aid in enumerate(
                        state[self._app0:self._chan0])
                    if APPS[aid].blocked_on is not None), renaming(state),
                    note(state))
            message = self._accept(state, d)
            if message is None:
                frontier.append((state, key, d))
            return message

        # Seeds are taken exactly as the loop takes every later state.
        # A checkpoint frontier is pre-acceptance in the on-disk format
        # (the decoder already picked each state's canonical parent
        # edge), so its invariants run here, as the parallel start op
        # runs them.
        seed_violations: list = []
        for key, (pkey, label, d) in cut.frontier.items():
            message = take(seeds[key], key, pkey, label, d)
            if message is not None:
                seed_violations.append((d, message, key, seeds[key]))
        if seed_violations:
            # Same canonical choice the parallel master makes: the
            # minimum (depth, message, fingerprint) violation, so the
            # verdict is engine- and worker-count independent.
            d, message, key, state = min(seed_violations,
                                         key=lambda v: v[:3])
            return finish(Violation(
                "invariant", message,
                self._trace_via_parents(key, parents) or ["<initial>"],
                state))

        def write_ckpt(durable: bool) -> None:
            pending = {key: (*parents[key], d) for _state, key, d in frontier}
            # Frontier states are accepted (and invariant-checked) in
            # this loop but pre-acceptance in the on-disk format; every
            # accepted passing state contributed exactly one evaluation
            # per invariant, so subtracting the frontier size converts
            # the counters to the cut's pre-acceptance semantics.  The
            # live containers hold the frontier too; the encoder skips it.
            Cut(wave=frontier[0][2], transitions=transitions,
                max_depth=self._max_depth, elapsed=policy.elapsed(),
                invariant_evals={
                    name: max(0, count - len(pending))
                    for name, count in self._invariant_evals.items()},
                handler_fires=self._handler_fires, visited=visited,
                parents=parents, frontier=pending, states={},
                ).write(self, durable)

        # The top of the loop is a clean cut (see CutPolicy): every
        # non-frontier visited state is fully expanded.
        evals = self._invariant_evals
        while frontier:
            stopped = policy.at_cut(len(visited), len(frontier),
                                    frontier[0][2], transitions, evals,
                                    interrupt_cell[0], write_ckpt)
            if stopped is not None:
                return finish()
            state, key, d = frontier.popleft()
            violation = None
            try:
                for label, successor, succ_key in self._expand(state, key):
                    transitions += 1
                    if graph is not None:
                        graph.edge(succ_key, renaming(successor), label)
                    if succ_key in visited:
                        continue
                    message = take(successor, succ_key, key, label, d + 1)
                    if message is not None:
                        violation = Violation("invariant", message,
                                              trace_to(key, label), successor)
                        break
            except _LabelledViolation as found:
                violation = Violation(found.kind, found.message,
                                      trace_to(key, found.label), state)
            # Cut short by a violation or not, the state was expanded.
            if graph is not None:
                graph.end()
            if violation is not None:
                return finish(violation)

        stuck = graph.stuck(self.n_nodes) if self.liveness else None
        return finish(stuck and self._starvation(*stuck, graph, parents))

    # -- trace replay -------------------------------------------------------

    def fresh_clone(self) -> "ModelChecker":
        """A checker with the same configuration but pristine counters
        (replays must not inflate this run's coverage numbers)."""
        return type(self)(
            self.protocol, n_nodes=self.n_nodes, n_blocks=self.n_blocks,
            reorder_bound=self.reorder_bound, events=self.events,
            invariants=self.invariants, max_states=self.max_states,
            channel_cap=self.channel_cap,
            interpreter_factory=self.interpreter_factory,
            fault_budget=self.fault_budget)

    def verify_violation(self, violation: Violation) -> GlobalState:
        """Replay-validate a counterexample built from fingerprints.

        Re-executes the label sequence from the initial state and checks
        the claimed violation actually occurs at its end.  Returns the
        final replayed state; raises :class:`FingerprintCollisionError`
        if the trace diverges (the signature of a fingerprint collision
        having corrupted the parent pointers)."""
        replayer = self.fresh_clone()
        try:
            final = replay_labels(replayer, violation.trace)
        except TraceReplayError as error:
            raise FingerprintCollisionError(
                f"counterexample failed replay validation: {error}; "
                "a fingerprint collision corrupted the violation path"
            ) from None
        if violation.kind == "invariant":
            if replayer._check_invariants(final) is None:
                raise FingerprintCollisionError(
                    "replayed end state satisfies every invariant; a "
                    "fingerprint collision corrupted the violation path")
        if violation.state is None:
            violation.state = final
        return final

    def _starvation(self, node: int, index: int, graph,
                    parents) -> Violation:
        """The verdict for the analysis's stuck ``(node, index)``: the
        trace to that key by its parent pointers.  A keyed witness is
        replayed (the collision guard) to the state whose named node
        must be blocked."""
        key = next(islice(graph.index, index, None))
        trace = self._trace_via_parents(key, parents) + ["<thread lost>"]
        witness = (self.verify_violation(Violation("starvation", "", trace))
                   if self.fingerprint_states else key)
        blocked_on = witness.apps[node].blocked_on
        if blocked_on is None:
            raise FingerprintCollisionError(
                f"replayed starvation witness runs node {node}; a "
                "fingerprint collision corrupted the explored graph")
        return Violation(
            "starvation", f"node {node} is blocked on block {blocked_on} "
            "and no reachable continuation of the run ever wakes it",
            trace, witness)

    @staticmethod
    def _trace_via_parents(state, parents) -> list[str]:
        labels: list[str] = []
        cursor = state
        while cursor is not None:
            parent, label = parents[cursor]
            if parent is not None:
                labels.append(label)
            cursor = parent
        labels.reverse()
        return labels

    @staticmethod
    def _invariant_name(invariant: Invariant) -> str:
        # Closure-produced invariants (bounded_queues().check) report
        # their factory's name; plain functions their own.
        qualname = getattr(invariant, "__qualname__", None)
        if qualname:
            return qualname.split(".")[0]
        return type(invariant).__name__

    def _check_invariants(self, state: GlobalState) -> Optional[str]:
        evals = self._invariant_evals
        for name, invariant in self._named_invariants:
            evals[name] = evals.get(name, 0) + 1
            message = invariant(state, self.protocol)
            if message is not None:
                return message
        return None


def replay_labels(checker: ModelChecker, labels: list) -> GlobalState:
    """Deterministically re-execute a rule-label sequence.

    Walks the trace from the initial state, one :func:`replay_step` per
    label.  ``<initial>``/``<stuck>``/``<thread lost>`` markers are
    skipped; a final label that names an error rule is confirmed by the
    error it raises.  Raises :class:`TraceReplayError` (prefixed
    ``step N:``) when a step fails -- on a fingerprint-reconstructed
    trace that means a collision."""
    state = checker.initial_state()
    for step, label in enumerate(labels, 1):
        if label in ("<initial>", "<stuck>", "<thread lost>"):
            continue
        try:
            state = replay_step(checker, state, label)
        except TraceReplayError as error:
            fired = error.__cause__
            if (fired is not None and fired.label == label
                    and step == len(labels)):
                return state  # the trace's final error rule, confirmed
            raise TraceReplayError(f"step {step}: {error}") from None
    return state


def replay_step(checker: ModelChecker, state: GlobalState,
                label: str) -> GlobalState:
    """One deterministic replay step: the successor of ``state`` whose
    rule label is ``label``.

    :func:`replay_labels` is a loop over this; the memoized chain
    replays (checkpoint frontier reconstruction) call it per edge below
    a cached ancestor instead of re-walking whole chains.  Raises
    :class:`TraceReplayError` when no successor carries the label or an
    error rule fires first (chained as ``__cause__``) -- either means
    the chain does not belong to this protocol build."""
    try:
        for candidate, successor in checker._successors(state):
            if candidate == label:
                return successor
    except _LabelledViolation as labelled:
        raise TraceReplayError(
            f"rule {labelled.label!r} raised {labelled.message!r} "
            f"while looking for {label!r}") from labelled
    raise TraceReplayError(f"no successor labelled {label!r}")


class _LabelledViolation(Exception):
    """Internal: a CheckerViolation tagged with the rule that raised it
    (kind ``error``), or the expand step's deadlock report."""

    def __init__(self, label: str, message: str, kind: str = "error"):
        super().__init__(message)
        self.label = label
        self.message = message
        self.kind = kind
