"""The breadth-first state-space exploration engine.

Mirrors Mur-phi's behaviour as used in the paper: explore all possible
interleavings of protocol events (application-issued loads/stores/
operations and message deliveries, the latter with bounded reordering),
check invariants in every state, and produce a counterexample trace on
failure.  Exploration is exhaustive up to ``max_states``.
"""

from __future__ import annotations

import re
import sys
import time
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from operator import itemgetter
from typing import IO, NamedTuple, Optional

from repro.runtime.context import Message, home_node
from repro.runtime.engine import CompiledEngine
from repro.runtime.protocol import CompiledProtocol
from repro.verify.checkpoint import (
    Cut,
    CutPolicy,
    flag_sigint,
    peak_rss_mb,
    replay_frontier,
    starting_cut,
)
from repro.verify.events import EventGenerator, StacheEvents
from repro.verify.fingerprint import SLOT_TERMS, fingerprint
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
    commutes with the node-permutation group.  Murphi's scalarset types
    prove that statically; Teapot has none, and ``PopSharer``/
    ``NthSharer`` return ``min``/*n*-th of a sharer set, a choice no
    function can make permutation-equivariant.  Usually it washes out
    (pop-all loops reach the same state in any order), but a protocol
    acting on the *identity* of one popped sharer (lcm_mcc's
    copy-forward delegation) is not node-symmetric, and quotienting it
    would skip reachable orbits.  So a reduced run certifies each
    action and each node's application choices where it records them:
    every renamed image must do the renamed thing
    (``ModelChecker._certify``), which makes each state's successors
    equivariant.  Raised at the first image that disagrees;
    ``api.check`` then reruns the model unreduced.
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
    # Invariant name -> the states it judged (run or passed by facts).
    invariant_evals: dict = field(default_factory=dict)
    # "State.MESSAGE" -> dispatches (deliveries plus queue redeliveries)
    # over the whole exploration, for `teapot analyze coverage`.
    handler_fires: dict = field(default_factory=dict)
    # False when max_states truncated the search: ok=True then means
    # "no violation within the explored prefix", not a verdict.
    exhausted: bool = True
    # How many worker processes explored (1 = the serial checker).
    workers: int = 1
    # The (drops, dups) each path may spend; (0, 0) is fault-free.
    fault_budget: tuple = (0, 0)
    # A profiled run's CheckProfile (repro.obs.profile), else None.
    profile: Optional[object] = None
    # A recorded atlas (repro.verify.atlas, off the run's Cut), else None.
    atlas: Optional[object] = None
    # Under symmetry, the orbit representatives explored (equals
    # states_explored: the visited set *is* canonical), else None.
    canonical_states: Optional[int] = None
    # Why the run stopped early: "deadline" / "memory" (BudgetOptions),
    # "interrupted" (Ctrl-C, at the next clean cut), or None (done, or
    # plain max_states truncation).  A set stop_reason implies
    # exhausted=False and, with checkpointing, a checkpoint to resume.
    stop_reason: Optional[str] = None
    # The run's timeline (checkpoint.CutPolicy): a point -- t (the whole
    # run's seconds), states, frontier, depth, transitions, states_per_s
    # -- at the first cut of every BFS layer, then the final counts.
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


class ModelChecker:
    """Exhaustively checks a compiled protocol.

    Parameters mirror Table 3's configurations: number of nodes, number
    of shared addresses, and the network reordering bound (0 = FIFO
    channels; k allows a message to be delivered ahead of up to k
    earlier messages on its channel).  ``liveness`` and ``atlas`` read
    the graph the run records in its one record (checkpoint.Cut).
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
        # The engine built per recorded action: the compiled handlers
        # the simulator executes (tests pass the HandlerInterpreter).
        self.interpreter_factory = interpreter_factory
        # Application rules are disabled while any channel holds this
        # many messages -- the standard Mur-phi idiom for keeping a model
        # with non-blocking operations finite.  Deliveries are never
        # gated, so this cannot introduce spurious deadlocks.
        self.channel_cap = channel_cap
        # Liveness (beyond the paper): record the explored graph over
        # the run's keys and verify every blocked thread can still run
        # again from every reachable state (repro.verify.starvation),
        # e.g. a nacked request never retried.
        self.liveness = liveness
        # The state atlas (repro.verify.atlas), read off the same graph
        # at the end of the run.
        self.atlas = atlas
        # Progress lines: the run's timeline points, printed there as
        # they are taken, about one a second (checkpoint.CutPolicy).
        self.progress_stream = progress_stream
        # Hash compaction: key the visited set (the run's key index) by
        # 64-bit fingerprints (repro.verify.fingerprint); a violation
        # trace is replay-validated against collisions.
        self.fingerprint_states = fingerprint_states
        self.fingerprint_fn = fingerprint
        # Symmetry reduction: key the visited set by the minimum
        # fingerprint over the home-fixing node permutations
        # (symmetry.SymmetryCanonicalizer), one representative per
        # orbit.  Exploration stays concrete, so parent chains are real
        # paths and witnesses replay unreduced (fresh_clone).
        self.symmetry = symmetry
        if symmetry:
            from repro.verify.symmetry import SymmetryCanonicalizer

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
        # (Cut.canonical), memoised with its key, by its position in the
        # group (None, the state itself, is the identity's).
        self._renaming = self._group = None
        if symmetry and liveness:
            least = Memo(lambda state: self._canon.least(
                state, fingerprint(state)))
            self._group = [self._canon.identity, *self._canon.perms]
            position = {None: 0, **{g: k for k, g in enumerate(self._group)}}
            self.fingerprint_fn = lambda state: least[state][0]
            self._renaming = lambda state: position[least[state][1]]
        # Where the visited key is the state's own fingerprint (not a
        # minimum over renamings) a successor's is its parent's with the
        # terms of the slots the move stored swapped: the per-slot term
        # tables, which the successor builder XORs into its key delta.
        self._slot_terms = (SLOT_TERMS[n_nodes, n_blocks]
                            if self.fingerprint_states and not symmetry
                            else None)
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
        # None: a pure observer that wraps the expand step's iterator
        # and the fingerprint function and only reads clocks.
        self.profiler = profiler
        if profiler is not None:
            self.fingerprint_fn = profiler.timed_phase(
                "fingerprint", self.fingerprint_fn)
        # Checkpointing (checkpoint.CutPolicy): a checkpoint resumes at
        # any worker count or serially; the format is fingerprint-keyed.
        self.checkpoint_out = checkpoint_out
        self.resume = resume
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
        # View / channel id -> the suite's facts there (invariants.py);
        # (channel id, message id) -> (id sent on, whether a fact changed).
        facts = self._facts = [inv.facts(protocol) for inv in self.invariants
                               if hasattr(inv, "facts")]
        views = [view for view, _channel in facts if view]
        chans = [channel for _view, channel in facts if channel]
        self._view_facts = Memo(lambda vid: tuple([f(vid) for f in views]))
        self._channel_facts = cf = Memo(
            lambda cid: tuple([f(cid) for f in chans]))
        self._appended = Memo(lambda key: (APPENDED[key],
                                           cf[key[0]] != cf[APPENDED[key]]))
        # Each channel slot with its sender and receiver, in state order:
        self._channel_slots = [(slot, *divmod(slot - self._chan0, n_nodes))
                               for slot in range(self._chan0, self._end)]
        # The run counters and the named invariant suite:
        self._begin_run()

    def home_of(self, block: int) -> int:
        return home_node(block, self.n_nodes)

    # -- rule application ---------------------------------------------------
    #
    # One atomic action is a deterministic function of (node, the acting
    # block's view, the message, the node's blocked-on marker): a handler
    # reads and writes the acting node's records only (ActionScratch).
    # So the checker journals an action once (ActionScratch +
    # ActionContext), distils it to an ActionEffects cached under that
    # 4-tuple of ids, with the invariant verdict of the views it writes.
    # A move is a template over those effects, tabled per run under the
    # ids it reads (_successors), and played (_play) as one id stored per
    # patched slot of a copy of the parent's ids, plus its sends.  (The
    # copy-the-world path this replaced is the differential oracle,
    # tests/reference_checker.py.)

    def _action_effects(self, state: GlobalState, node: int, block: int,
                        mid: int, blocked_before) -> ActionEffects:
        """Cached outcome of dispatching message ``mid`` (about
        ``block``) on ``node``; :meth:`_play` counts its fires."""
        key = (node, state[node * self.n_blocks + block], mid,
               blocked_before)
        effects = self._action_cache.get(key)
        if effects is None:
            effects = self._record_action(state, node, MESSAGES[mid],
                                          blocked_before, self.profiler)
            self._action_cache.update(
                {key: effects} if self._canon is None
                else self._certify(state, key, effects))
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
            ours = effects.error is None and canon.permute(
                self._replayed(state, key[0], effects), mapping)
            if (ours, effects.fires) != (theirs.error is None and (
                    self._replayed(renamed, image[0], theirs)), theirs.fires):
                raise _asymmetric(
                    f"{MESSAGES[key[2]].tag} on node {key[0]} in state "
                    f"{VIEWS[key[1]].state_name} and its image differ",
                    mapping)
        return certified

    def _replayed(self, state: GlobalState, node: int,
                  effects: ActionEffects) -> GlobalState:
        """``state`` after ``node`` did the error-free ``effects``."""
        gen = APPS[state[self._app0 + node]].gen
        return next(self._play(
            state, [self._template(state, node, effects, gen)], {}))[1]

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
                    state_name = record["state_name"]
                    key = self._fire_keys[state_name, delivered.tag]
                    if key is not None:
                        fires.append(key)
                    ctx.begin(delivered)
                    if prof is None:
                        interp.dispatch(state_name, record["state_args"])
                    else:
                        t0 = time.perf_counter()
                        interp.dispatch(state_name, record["state_args"])
                        prof.add_dispatch(key, time.perf_counter() - t0)
                batch = []
                if record["state_changed"] and record["queue"]:
                    batch, record["queue"] = record["queue"], []
        except CheckerViolation as violation:
            return ActionEffects((), (), blocked_before, tuple(fires),
                                 violation.message)
        effects = ActionEffects(
            scratch.changed_views(), tuple(scratch.sends),
            scratch.blocked_on, tuple(fires), None,
            (node * self.n_blocks, self._chan0 + node * self.n_nodes))
        # The verdict, once per entry (its key holds the old view id):
        facts = self._view_facts
        effects.judge = any(facts[state[slot]] != facts[vid]
                            for slot, vid in effects.views)
        return effects

    def _template(self, state: GlobalState, node: int,
                  effects: ActionEffects, gen: tuple, label=None,
                  popped=None) -> tuple:
        """The move ``effects`` make on ``node`` out of ``state`` (or any
        state with its ids at the slots the move reads): ``(label, fires,
        error, patch, sends, sent slots, judge, key delta)``.  The patch
        stores the written views, the app status after (generator
        ``gen``) and ``popped``: (channel slot, channel id after)."""
        patch, judge = list(effects.views), effects.judge
        at = self._app0 + node
        app = APPS[state[at]]
        if gen != app.gen or effects.blocked_after != app.blocked_on:
            key = (effects.blocked_after, gen)
            # An equal plain tuple finds an AppView's id; only a new
            # status builds the record.
            aid = APP_IDS.get(key)
            patch.append((at, APP_IDS[AppView(*key)] if aid is None else aid))
        if popped is not None:
            # Before the sends: an action may refill the very channel it
            # was delivered from (a node messaging itself).
            patch.append(popped)
            facts = self._channel_facts
            judge = judge or facts[state[popped[0]]] != facts[popped[1]]
        terms, delta = self._slot_terms, None
        if terms is not None:
            # Each stored slot's old term out and new term in, once a
            # slot: a channel the sends refill is swapped where they are.
            delta = 0
            for slot, ident in patch:
                if slot not in effects.sent:
                    delta ^= terms[slot][state[slot]] ^ terms[slot][ident]
        return (label, effects.fires, effects.error, tuple(patch),
                effects.sends, effects.sent, judge, delta)

    def _play(self, state: GlobalState, templates, fires: dict):
        """The one successor builder: yield each template's move out of
        ``state``, its fires counted into ``fires``, its error raised."""
        terms, appended = self._slot_terms, self._appended
        for label, fired, error, patch, sends, sent, judge, delta \
                in templates:
            for fire in fired:
                fires[fire] = fires.get(fire, 0) + 1
            if error is not None:
                raise _LabelledViolation(label, error)
            if not patch and not sends:     # a hit leaving the generator
                yield label, state, delta, judge
                continue
            ids = list(state)
            for slot, ident in patch:
                ids[slot] = ident
            for slot, mid in sends:
                ids[slot], grew = appended[ids[slot], mid]
                judge = judge or grew
            if sent and terms is not None:
                for slot in sent:
                    delta ^= terms[slot][state[slot]] ^ terms[slot][ids[slot]]
            yield label, tuple.__new__(GlobalState, ids), delta, judge

    def _app_moves_of(self, state: GlobalState, node: int) -> tuple:
        """The application table's entry for ``node`` in ``state``: the
        templates of its choices (none while it is blocked)."""
        templates = []
        for choice in self._choice_cache[node, state[self._app0 + node]]:
            op = choice.op
            if op[0] in ("read", "write"):
                block, payload = op[1], ()
                tag = _ACCESS_FAULTS[VIEWS[
                    state[node * self.n_blocks + block]].access, op[0]]
            else:  # program event (CAS, sync, LCM enter/exit, ...)
                tag, block = op[1], op[2]
                payload = op[3] if len(op) > 3 else ()
            # A hit: only the generator advances.  With an unchanged
            # generator the successor IS the parent (a self-loop).
            effects = _NO_EFFECTS if tag is None else self._action_effects(
                state, node, block, _OP_MESSAGES[node, tag, block, payload],
                block)
            templates.append(self._template(state, node, effects,
                                            choice.new_gen, choice.label))
        return tuple(templates)

    def _deliveries_of(self, state: GlobalState, slot: int, src: int,
                       dst: int) -> tuple:
        """The delivery table's entry for ``state``'s channel ``slot``:
        whether it sits at the cap, and the reorder window's templates."""
        cid, app = state[slot], APPS[state[self._app0 + dst]]
        templates = []
        for index in range(min(CHANNEL_LEN[cid], self.reorder_bound + 1)):
            after, mid = REMOVED[cid, index]
            message = MESSAGES[mid]
            effects = self._action_effects(state, dst, message.block, mid,
                                           app.blocked_on)
            # (One string per label, whatever receiver the entry is for.)
            templates.append(self._template(
                state, dst, effects, app.gen, sys.intern(_message_label(
                    "deliver", message, src, dst, index)), (slot, after)))
        return CHANNEL_LEN[cid] >= self.channel_cap, tuple(templates)

    def _faults_of(self, state: GlobalState) -> list:
        """Fault transitions: lose or duplicate any in-flight message,
        while budget remains.  Pure edits of two slots, a channel and a
        budget -- no handler runs -- so they cannot raise.  Note these
        never fire on an empty network, so fault budgets cannot mask a
        real deadlock (a state with all nodes blocked and no messages in
        flight still has no successor)."""
        terms, facts, delta, templates = (self._slot_terms,
                                          self._channel_facts, None, [])
        for slot, src, dst in self._channel_slots:
            cid = state[slot]
            for index in range(CHANNEL_LEN[cid]):
                dropped, mid = REMOVED[cid, index]
                for kind, budget in (("drop", -4), ("dup", -3)):
                    if not state[budget]:
                        continue
                    after = dropped if kind == "drop" else APPENDED[cid, mid]
                    spent = state[budget] - 1
                    if terms is not None:
                        delta = (terms[slot][cid] ^ terms[slot][after]
                                 ^ terms[budget][state[budget]]
                                 ^ terms[budget][spent])
                    templates.append((
                        _message_label(kind, MESSAGES[mid], src, dst, index),
                        (), None, ((slot, after), (budget, spent)), (), (),
                        facts[cid] != facts[after], delta))
        return templates

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
        """Yield ``(label, successor, key delta, judge)`` for the moves
        out of ``state`` (:meth:`_play`); a protocol error surfaces as
        :class:`_LabelledViolation`.

        The one enumeration of a state's moves -- application choices
        while uncongested, then deliveries inside the reorder window,
        then fault transitions -- behind exploration and trace replay."""
        app0, chan0, blocks = self._app0, self._chan0, self.n_blocks
        # Each node's key, (node, app id, its view ids):
        nodes = list(zip(range(self.n_nodes), state[app0:chan0], *[
            state[block:app0:blocks] for block in range(blocks)]))
        # Application events are gated while a deferred queue or (as its
        # delivery entry says) a channel sits at the cap, to keep the
        # model finite -- see channel_cap.
        congested = max(map(QUEUE_LEN.__getitem__,
                            state[:app0])) >= self.channel_cap
        groups, table = [], self._delivery_moves
        for slot, src, dst in compress(self._channel_slots,
                                       state[chan0:self._end]):
            key = (slot, state[slot]) + nodes[dst]
            entry = table.get(key)
            if entry is None:
                entry = table[key] = self._deliveries_of(state, slot, src,
                                                         dst)
            congested = congested or entry[0]
            groups.append(entry[1])
        if not congested:
            table = self._app_moves
            for node, key in enumerate(nodes):
                group = table.get(key)
                if group is None:
                    group = table[key] = self._app_moves_of(state, node)
                groups.insert(node, group)
        if state[-4] or state[-3]:
            groups.append(self._faults_of(state))
        yield from self._play(state, chain.from_iterable(groups),
                              self._handler_fires)

    def _fire_key(self, at: tuple) -> Optional[str]:
        """Coverage accounting: the arm key (``"State.MESSAGE"``) of the
        handler that runs for tag ``at[1]`` in state ``at[0]``, resolving
        DEFAULT fallback exactly like the engine's dispatch does -- or
        None.  Initial dispatches and queue redeliveries both count."""
        state = self.protocol.states.get(at[0])
        return state.dispatch(at[1]) if state is not None else None

    # -- search -------------------------------------------------------------

    def _begin_run(self) -> None:
        """Reset the per-run counters and bind the invariant suite.
        Also runs at construction, so a fresh checker (a replay clone)
        can step and judge states at once."""
        # (node, view id, message id, blocked_on) -> the ActionEffects
        # this run recorded (under symmetry, certified with its images),
        # and the move tables over them (_successors): every run records
        # its own and drops them when it ends.
        self._action_cache, self._app_moves, self._delivery_moves = {}, {}, {}
        self._handler_fires = {}
        self._max_depth = 0
        # (name, invariant, whether it has facts): a successor whose
        # written slots kept every fact is judged by the others only.
        self._named_invariants = [
            (self._invariant_name(invariant), invariant,
             hasattr(invariant, "facts")) for invariant in self.invariants]

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
        ``stop_reason``; ``extra`` are further fields (``workers``)."""
        hit_limit = stopped == "state_limit"
        return CheckResult(
            protocol_name=self.protocol.name, ok=ok, states_explored=states,
            transitions=transitions, max_depth=max_depth,
            elapsed_seconds=elapsed, violation=violation,
            n_nodes=self.n_nodes, n_blocks=self.n_blocks,
            reorder_bound=self.reorder_bound, hit_state_limit=hit_limit,
            invariant_evals=invariant_evals,
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
        """The expand step, the moves the loop iterates out of ``state``
        (keyed ``key``): :meth:`_successors`, wrapped by an armed
        profiler (``CheckProfiler.timed``); a worker runs it too."""
        moves = self._successors(state)
        return moves if self.profiler is None else self.profiler.timed(moves)

    def _accept(self, state: GlobalState, key, depth: int,
                judge=True) -> Optional[str]:
        """The accept step: ``state``, keyed ``key``, joins the explored
        set at ``depth``.  Tracks the maximum depth and runs the (timed)
        invariant suite -- in full where ``judge`` (a fact changed at a
        slot the move wrote; a seed), else those without facts; returns
        the first failure's message, or None.  The caller owns the
        containers: the record of visited keys, frontier, graph."""
        if depth > self._max_depth:
            self._max_depth = depth
        prof = self.profiler
        if prof is None:
            return self._check_invariants(state, judge)
        prof.full_suites += judge or not self._facts
        t0 = time.perf_counter()
        message = self._check_invariants(state, judge)
        prof.add_phase("invariants", time.perf_counter() - t0)
        return message

    def _rss_mb(self) -> float:
        """The peak RSS the memory budget holds the run to."""
        return peak_rss_mb()

    def _finish(self, violation: Optional[Violation], *,
                policy: CutPolicy, frontier: int, **counts) -> CheckResult:
        """The end of every run: replay-validate a counterexample built
        from fingerprints, take the timeline's final point (and progress
        line) from ``policy``, and build the :class:`CheckResult` and its
        evaluation counts (``counts`` are :meth:`_result`'s keywords;
        ``elapsed`` includes a resumed checkpoint's) with the profile."""
        if (violation is not None and self.fingerprint_states
                and violation.kind != "starvation"):
            # Collision guard: the trace came from fingerprint-keyed
            # parent indices; make sure it actually replays (_starvation
            # replayed its own witness).
            self.verify_violation(violation)
        evals = self._invariant_counts(counts["states"], violation)
        timeline = policy.finish(
            counts["states"], frontier, counts["max_depth"],
            counts["transitions"], sum(evals.values()), counts["elapsed"])
        result = self._result(ok=violation is None, violation=violation,
                              timeline=timeline, invariant_evals=evals,
                              **counts)
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
        policy = self._policy = CutPolicy(self, start_time, cut.elapsed)
        transitions = cut.transitions
        self._handler_fires = cut.handler_fires
        # The run explores into the cut's one record: its index (each key
        # -- the state itself or, in fingerprint mode, its 64-bit digest
        # -- to its acceptance index) is the visited set, and per index
        # it holds the parent's index and the edge's label id.
        index, parent_of, label_of, labels = (cut.index, cut.parent,
                                              cut.label, cut.labels)
        setdefault = index.setdefault
        seeds = replay_frontier(self, cut, self.resume)
        # (state, key, index, depth) entries: accepted, to be expanded.
        frontier: deque = deque()
        # The explored graph, in the record's arrays over these same
        # indices (Cut; starting_cut armed those the run reads).
        graph = cut if cut.offsets is not None else None
        fp = self.fingerprint_fn if self.fingerprint_states else None
        # A state's vector id: its block views' protocol states,
        # node-major, then its fault budget (the slots after the queues').
        vector = Memo(lambda note: cut.vectors.setdefault((*(
            VIEWS[view].state_name for view in note[:-2]), *note[-2:]),
            len(cut.vectors)))
        stopped: Optional[str] = None    # see _result

        def at_cut(first: int) -> Cut:
            # The record now, its frontier the index suffix from
            # ``first``, at most two layers deep; the deeper one starts
            # at ``deeper``.
            d = frontier[0][3] if frontier else self._max_depth
            deeper = first + bisect_right(frontier, d, key=itemgetter(3))
            return replace(cut, transitions=transitions,
                           elapsed=policy.elapsed(),
                           handler_fires=self._handler_fires,
                           expanded=first, depth=d, deeper=deeper)

        def finish(violation: Optional[Violation] = None) -> CheckResult:
            if prof is not None:
                prof.set_visited(
                    entries=len(index),
                    mode=("fingerprint" if self.fingerprint_states
                          else "state"),
                    # The record's containers (the budget measures RSS):
                    container_bytes=sum(map(sys.getsizeof, (
                        index, parent_of, label_of, labels))))
            result = self._finish(
                violation, policy=policy, states=len(index),
                frontier=len(frontier), transitions=transitions,
                max_depth=self._max_depth, elapsed=policy.elapsed(),
                handler_fires=self._handler_fires, stopped=stopped)
            if self.atlas:
                from repro.verify.atlas import StateAtlas
                result.atlas = StateAtlas.of_run(
                    self, result, at_cut(len(graph.offsets) - 1))
            return result

        def take(state, key, at, d, judge=True) -> Optional[str]:
            """Take a recorded state into the search: its graph row, the
            accept step and, unless an invariant failed, a frontier slot."""
            if graph is not None:
                graph.blocked.append(sum(
                    1 << node for node, aid in enumerate(
                        state[self._app0:self._chan0])
                    if APPS[aid].blocked_on is not None))
                if graph.canonical is not None:
                    graph.canonical.append(self._renaming(state))
                # (A resumed frontier's vectors are on file already.)
                if graph.vector is not None and at == len(graph.vector):
                    graph.vector.append(
                        vector[state[:self._app0] + state[-4:-2]])
            message = self._accept(state, key, d, judge)
            if message is None:
                frontier.append((state, key, at, d))
            return message

        # Seeds are taken exactly as the loop takes every later state:
        # a checkpoint frontier is pre-acceptance on disk, so its
        # invariants run (and its deepest row sets the depth) here.
        for key, state in seeds.items():
            at = index[key]
            message = take(state, key, at, cut.depth + (at >= cut.deeper))
            if message is not None:
                return finish(Violation(
                    "invariant", message, cut.trace(at) or ["<initial>"],
                    state))
        fresh = len(index)      # the index the next new key gets

        def write_ckpt(durable: bool) -> None:
            at_cut(frontier[0][2]).write(self, durable)

        # The top of the loop is a clean cut (see CutPolicy): every
        # non-frontier visited state is fully expanded.
        while frontier:
            stopped = policy.at_cut(len(index), len(frontier),
                                    frontier[0][3], transitions,
                                    interrupt_cell[0], write_ckpt)
            if stopped is not None:
                return finish()
            state, key, here, d = frontier.popleft()
            violation, before = None, transitions
            try:
                for label, successor, delta, judge in self._expand(state, key):
                    transitions += 1
                    # The state, its parent's key with the move's delta,
                    # or its fingerprint from scratch:
                    succ_key = (successor if fp is None else fp(successor)
                                if delta is None else key ^ delta)
                    at = setdefault(succ_key, fresh)
                    if graph is not None:
                        graph.targets.append(at)
                        if graph.renaming is not None:
                            graph.renaming.append(self._renaming(successor))
                        if graph.edge_label is not None:
                            graph.edge_label.append(
                                labels.setdefault(label, len(labels)))
                    if at < fresh:
                        continue
                    fresh += 1
                    parent_of.append(here)
                    label_of.append(labels.setdefault(label, len(labels)))
                    message = take(successor, succ_key, at, d + 1, judge)
                    if message is not None:
                        violation = Violation(
                            "invariant", message, cut.trace(here) + [label],
                            successor)
                        break
                if transitions == before:
                    violation = Violation("deadlock", _DEADLOCK_MESSAGE,
                                          cut.trace(here) + ["<stuck>"], state)
            except _LabelledViolation as found:
                violation = Violation("error", found.message,
                                      cut.trace(here) + [found.label],
                                      state)
            # Cut short by a violation or not, the state was expanded.
            if graph is not None:
                graph.offsets.append(len(graph.targets))
            if violation is not None:
                return finish(violation)

        stuck = None
        if self.liveness:
            from repro.verify import starvation
            stuck = starvation.stuck_thread(
                self.n_nodes, cut.blocked, cut.offsets, cut.targets,
                cut.renaming, self._group, cut.canonical)
        return finish(stuck and self._starvation(*stuck, cut))

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
        having corrupted the parent indices)."""
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

    def _starvation(self, node: int, at: int, cut: Cut) -> Violation:
        """The verdict for the analysis's stuck ``(node, index)``: the
        trace to index ``at`` by its parent indices, replayed (for a
        keyed run, the collision guard) to the state whose named node
        must be blocked."""
        trace = cut.trace(at) + ["<thread lost>"]
        witness = self.verify_violation(Violation("starvation", "", trace))
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
    def _invariant_name(invariant: Invariant) -> str:
        # Closure-produced invariants (bounded_queues().check) report
        # their factory's name; plain functions their own.
        qualname = getattr(invariant, "__qualname__", None)
        if qualname:
            return qualname.split(".")[0]
        return type(invariant).__name__

    def _invariant_counts(self, states: int,
                          violation: Optional[Violation]) -> dict:
        """``CheckResult.invariant_evals``: each of the ``states``
        accepted states was judged by the suite in order (an invariant
        that passes by facts counts too), up to the invariant a failing
        state failed, found again on the violation's state."""
        failing = violation and violation.kind == "invariant" and (
            violation.state)
        evals: dict = {}
        for name, invariant, _facts in self._named_invariants:
            evals[name] = evals.get(name, 0) + states
            if failing and invariant(failing, self.protocol) is not None:
                failing, states = None, states - 1
        return evals

    def _check_invariants(self, state: GlobalState,
                          full=True) -> Optional[str]:
        """The suite in order, up to the first failure's message (or
        None); unless ``full``, those with facts pass unrun."""
        for _name, invariant, has_facts in self._named_invariants:
            if full or not has_facts:
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
        for candidate, successor, *_move in checker._successors(state):
            if candidate == label:
                return successor
    except _LabelledViolation as labelled:
        raise TraceReplayError(
            f"rule {labelled.label!r} raised {labelled.message!r} "
            f"while looking for {label!r}") from labelled
    raise TraceReplayError(f"no successor labelled {label!r}")


class _LabelledViolation(Exception):
    """Internal: a CheckerViolation tagged with the rule that raised it."""

    def __init__(self, label: str, message: str):
        super().__init__(message)
        self.label = label
        self.message = message

    def __reduce__(self):
        return type(self), (self.label, self.message)
