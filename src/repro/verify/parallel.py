"""Sharded parallel breadth-first model checking.

The serial :class:`~repro.verify.checker.ModelChecker` explores one BFS
layer at a time on one core, holding every visited state in memory.
:class:`ParallelChecker` hash-partitions the state space across N worker
processes: each worker *owns* the shard of states whose 64-bit
fingerprint satisfies ``fp % workers == worker_id``, and only the owner
ever stores, dedupes, invariant-checks, or records parent pointers for
a state.  The exploration semantics are the serial checker's by
construction: a worker is a fully configured ``ModelChecker`` (the
*template*) running that class's expand and accept steps on its shard,
and the master stops the run by the same
:class:`~repro.verify.checkpoint.CutPolicy` and ends it in the same
finish step.  This module adds only the protocol *among* the workers.

Exploration proceeds in deterministic cycles (one cycle = one BFS
layer) of *barriers*: the master sends every worker one op and reads
one reply each (:meth:`_Fleet.call_all`, the only way the two sides
talk).  Unlike the first-generation engine, which shipped every
successor *state* to its owner through the master, the frontier
exchange is fingerprint-only.  The ops, and what each reply carries:

``start``    Once per fleet: the worker loads its shard of the starting
             cut, stages its frontier's spelled-out edges and adopts
             the frontier states.  Reply: as ``adopt``.
``expand``   Expands its accepted states, keeping the successors in a
             local *stash*.  Reply: metadata records ``(fp, parent_fp,
             label, depth)`` batched per owner -- no full state crosses
             a pipe here -- and, in this reply alone, all the master
             counts or judges: the violations, transitions, invariant
             evaluations and handler fires since the last expand reply,
             and the shard's size and depth and the worker's peak RSS.
``ingest``   The owner dedupes the metadata routed to it against its
             visited set: fresh own-generated states resolve from the
             stash at once, foreign ones are *staged*.  Reply: the
             fingerprints needed, per sender.
``fetch``    Serves needed states from the stash -- only states that
             survived owner-side dedupe are ever serialized.
``adopt``    Accepts the delivered states (visited set, parent pointer,
             invariant suite) into the next ready set.  Reply: busy
             seconds, as from every timed op.
``parent``   One hop of a counterexample's trace walk: the parent edge.
``collect``  For a checkpoint: the shard's visited set and parent
             edges, nothing else.
``finish``   The run is over: the worker's profile payload.

Determinism: the set of states in BFS layer *k* is a property of the
protocol, not of the partitioning, and every visited state is expanded
exactly once -- so verdict, reachable-state count, transition count, and
``handler_fires`` coverage are identical at any worker count.  When a
layer surfaces violations (invariant failures at acceptance, errors and
deadlocks at expansion), every worker still finishes the layer and the
master picks the canonical minimum by ``(depth, kind, message, label,
fingerprint)``, so the reported violation is worker-count independent
too.  Parent pointers are canonical as well: a state discovered by
several parents in one wave takes the minimum ``(depth, parent fp,
label)`` edge -- senders keep the per-sender minimum during expansion and
owners take the minimum over the wave's proposals, so the winning edge
is the global minimum over every discovering edge, a pure function of
the state graph rather than of partitioning or arrival order.  Depth
comes first because a wave is not always one BFS layer: a serial
checkpoint cut mid-layer resumes with states of two depths in its first
wave, and the shallower edge is the one BFS takes.  The
counterexample trace is rebuilt by walking the sharded parent
pointers (one owner query per hop) and then replay-validated against a
fresh serial checker; a fingerprint collision that corrupted the path
raises :class:`~repro.verify.checker.FingerprintCollisionError` instead
of reporting a bogus trace.

Checkpoints are pure JSON (no pickles; see
:mod:`repro.verify.fingerprint` for the state codec) and are written at
layer boundaries when the policy stops the run there (``max_states``, a
resource budget, Ctrl-C) or a snapshot is due.  Each is the
master's :class:`~repro.verify.checkpoint.Cut` written out (sealed,
atomic, rotated: :mod:`repro.verify.checkpoint`), its containers the
owners' after one ``collect`` barrier.  Its frontier is the routed
proposals, folded to one edge per state, their states stored by
reference (the parent-label chain), in the v2 format the serial checker
writes too: entries are keyed by fingerprint and a checkpoint written
at one worker count can be resumed at any other -- or by the serial
checker.

Worker supervision: every barrier exchange polls the worker pipes with
liveness checks instead of blocking on ``recv``, so a worker that died
(``kill -9``, the OOM killer) raises :class:`WorkerLostError` at the
barrier -- the counterexample's trace walk included -- instead of
hanging it.  The error is one line naming the worker, the barrier and,
when this run wrote one, the newest checkpoint.  The master keeps no
copy of the exploration: that checkpoint is the way back, resumed at
any worker count or serially.

Ctrl-C is not an exception here.  The master flags SIGINT for the life
of its fleets (:func:`~repro.verify.checkpoint.flag_sigint`; workers
ignore it), so nothing asynchronous lands inside a message -- no
half-sent op re-sent, no consumed reply awaited again -- and acts on
the flag only where it asks ``CutPolicy.at_cut``: the next wave boundary,
as the serial loop does at its next pop.  The run stops there, with or
without a checkpoint path; a second Ctrl-C is not special.

No process outlives the run.  Leaving the fleet's ``with`` block, by
any way out, kills and joins whatever was spawned.  A master that dies
without leaving it (``kill -9``) is noticed: each worker closes the
copies of the master's pipe ends it inherited through ``fork``, so the
death ends the file under its next ``recv`` (or breaks the pipe under
its ``send``) and it returns.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from contextlib import AbstractContextManager
from dataclasses import replace
from itertools import chain
from typing import Optional

from repro.runtime.protocol import CompiledProtocol
from repro.verify.checker import (
    CheckResult,
    ModelChecker,
    SymmetryError,
    Violation,
    _LabelledViolation,
    refuse_graph_modes,
)
from repro.verify.checkpoint import (
    CheckpointError,
    Cut,
    CutPolicy,
    flag_sigint,
    load_checkpoint,
    min_edge_fold,
    peak_rss_mb,
    replay_frontier,
    starting_cut,
    visited_container_bytes,
)

__all__ = [
    "CheckpointError",
    "ParallelChecker",
    "WorkerLostError",
    "load_checkpoint",
]

# How long a worker pipe may stay silent before the master re-checks the
# worker process is alive.  Small enough that a SIGKILLed worker is
# noticed within a fraction of a second, large enough to stay off the
# hot path (a reply normally arrives long before the first poll lapses).
_LIVENESS_POLL_SECONDS = 0.05

# Fresh worker processes are retried this many times with exponential
# backoff before the spawn is declared failed (transient EAGAIN /
# fork-bomb-limiter conditions clear quickly or not at all).
_SPAWN_ATTEMPTS = 3


def _add_counts(total: dict, part: dict) -> None:
    for name, count in part.items():
        total[name] = total.get(name, 0) + count


# Violation kinds sort alphabetically, which happens to put "deadlock"
# before "error" before "invariant"; the rank only needs to be total and
# worker-count independent, not meaningful.
def _violation_rank(record):
    kind, message, depth, fp, label = record
    return (depth, kind, message, label or "", fp)


def _worker_rates(replies) -> str:
    """The progress line's per-worker suffix: each worker's accepted
    states per busy second over the last expand."""
    return " [" + " ".join(
        f"w{i}={reply['accepted'] / reply['seconds']:.0f}/s"
        if reply["seconds"] > 0 else f"w{i}=idle"
        for i, reply in enumerate(replies)) + "]"


class WorkerLostError(RuntimeError):
    """A worker process died, or could not be spawned: the run is over,
    and the newest checkpoint it wrote, if any, is where a rerun
    resumes."""


def _worker_main(conn, master_ends, worker_id: int, n_workers: int,
                 checker: ModelChecker) -> None:
    """One shard owner: the serial checker on a shard, plus a transport.
    Expansion and acceptance are ``checker``'s ``_expand`` / ``_accept``;
    this function owns the sharding -- the shard's visited set, parent
    pointers, send dedupe, stash and minimum-edge proposals.

    Runs a small command loop over a duplex pipe; the master is the only
    peer.  SIGINT is ignored so Ctrl-C reaches only the master, which
    finishes the layer and checkpoints before shutting workers down.
    ``master_ends`` -- the master's ends of this worker's pipe and of
    its elder siblings', inherited through ``fork`` -- are closed, so
    that the master's death closes the last copy (module docstring).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in master_ends:
        end.close()
    checker._begin_run()

    visited: set[int] = set()          # fps of states this shard owns
    parents: dict[int, tuple] = {}     # fp -> (parent fp | None, label)
    known: set[int] = set()            # every fp seen/routed (send dedupe)
    ready: list = []                   # (fp, state, depth) awaiting expansion
    staged: dict = {}                  # fp -> (pfp, label, depth) pre-fetch
    stash: dict = {}                   # fp -> state, last expansion's sends
    violations: list = []              # found since the last expand reply

    def accept(sfp, state, pfp, label, depth) -> None:
        """Take ownership of a fresh state: bookkeeping, the checker's
        accept step, and a slot in the next ready set."""
        visited.add(sfp)
        known.add(sfp)
        parents[sfp] = (pfp, label)
        message = checker._accept(state, depth)
        if message is not None:
            violations.append(("invariant", message, depth, sfp, None))
        ready.append((sfp, state, depth))

    while True:
        try:
            op, *args = conn.recv()
        except (EOFError, OSError):
            return                            # the master is gone
        started = time.perf_counter()

        if op == "start":                     # this shard of the fleet's
            fps, edges, staged, entries = args    # starting cut
            visited.update(fps)
            known.update(fps)
            parents.update(edges)
            # The frontier (the initial state, or a resumed
            # checkpoint's) arrives as full states with their
            # canonical edges spelled out: staged, they are adopted
            # exactly as every later layer's fetched states are.
            op, args = "adopt", (entries,)

        if op == "adopt":                     # fetched foreign states
            for sfp, state in args[0]:
                accept(sfp, state, *staged.pop(sfp))
            reply = {"seconds": time.perf_counter() - started}

        elif op == "ingest":                  # metadata candidates
            need: dict = {}
            # All of the wave's proposals for this shard arrive in one
            # batch, so the owner-side minimum edge -- combined with the
            # sender-side minimum kept during expansion -- is the global
            # minimum over every discovering edge.
            for sfp, pfp, label, depth, sender in min_edge_fold(
                    args[0], visited).values():
                if sender == worker_id:
                    # Own successor: the state never left this process.
                    accept(sfp, stash[sfp], pfp, label, depth)
                else:
                    staged[sfp] = (pfp, label, depth)
                    need.setdefault(sender, []).append(sfp)
            reply = {"need": need, "seconds": time.perf_counter() - started}

        elif op == "fetch":                   # serve states from the stash
            reply = [stash[fp] for fp in args[0]]    # in request order

        elif op == "expand":
            tasks, ready = ready, []
            stash = {}
            # fp -> (parent fp, label, depth), in first-generation order
            proposals: dict = {}
            outbox: dict = {}
            transitions = 0
            symmetry_error = None
            for sfp, state, depth in tasks:
                try:
                    for label, successor, fp in checker._expand(state, sfp):
                        transitions += 1
                        if fp in stash:
                            # Rediscovered within this wave: keep the
                            # minimum edge so this sender's proposal is
                            # its minimum over all generating edges.
                            # The stashed state moves with the edge --
                            # under symmetry reduction two edges into
                            # the same fingerprint can produce distinct
                            # concrete orbit members, and the stored
                            # state must be the winning edge's successor
                            # or the replayed trace diverges.
                            pfp, plabel, pdepth = proposals[fp]
                            if (depth + 1, sfp, label) < (pdepth, pfp,
                                                          plabel):
                                proposals[fp] = (sfp, label, depth + 1)
                                stash[fp] = successor
                        elif fp not in known:
                            known.add(fp)
                            stash[fp] = successor
                            proposals[fp] = (sfp, label, depth + 1)
                except _LabelledViolation as found:
                    # The serial loop returns on its first violation;
                    # a worker finishes the wave and the master picks
                    # the canonical minimum.
                    violations.append((found.kind, found.message, depth,
                                       sfp, found.label))
                except SymmetryError as error:
                    # The wave finishes normally either way so
                    # accounting stays consistent; the master raises on
                    # the reply.
                    if symmetry_error is None:
                        symmetry_error = str(error)
            for fp, proposal in proposals.items():
                outbox.setdefault(fp % n_workers, []).append((fp, *proposal))
            # Everything the master counts or judges rides this reply
            # and no other: every stop it makes (a verdict, a
            # checkpoint) follows an expand barrier, so what it has
            # summed is final whenever it is read.
            reply = {
                "accepted": len(tasks),
                "outbox": outbox,
                "violations": violations,
                "symmetry_error": symmetry_error,
                "transitions": transitions,
                "invariant_evals": checker._invariant_evals,
                "handler_fires": checker._handler_fires,
                "visited": len(visited),
                "max_depth": checker._max_depth,
                # For the memory budget.
                "rss_mb": peak_rss_mb(),
                "seconds": time.perf_counter() - started,
            }
            violations = []
            checker._invariant_evals, checker._handler_fires = {}, {}

        elif op == "parent":                  # one hop of a trace walk
            reply = parents.get(args[0])

        elif op == "collect":                 # checkpoint contribution
            reply = (visited, parents)

        elif op == "finish":                  # hand over the profile
            reply = None
            if checker.profiler is not None:
                checker.profiler.set_visited(
                    entries=len(visited), mode="fingerprint",
                    container_bytes=visited_container_bytes(
                        visited, parents))
                reply = checker.profiler.worker_payload()

        try:
            conn.send(reply)
        except OSError:
            return                            # the master is gone


class _Fleet(AbstractContextManager):
    """The worker processes of one run and the one way the master talks
    to them.  A context manager: :meth:`start`, called inside the block,
    spawns the workers, and whatever ends the block -- a result, a lost
    worker, a spawn that failed partway -- kills and joins every process
    started and closes every pipe, so no way out (and no ``os._exit``
    after it) leaves a worker behind."""

    def __init__(self, template: ModelChecker, n: int):
        self.template = template
        self.n = n
        self.conns: list = []
        self.procs: list = []
        # The newest checkpoint the run wrote, named when a worker dies.
        self.checkpoint: Optional[str] = None

    def __exit__(self, *_exc) -> None:
        for proc in self.procs:
            if proc.is_alive():
                # SIGKILL, not SIGTERM: a worker has nothing to clean
                # up, and a stopped one would leave SIGTERM pending.
                proc.kill()
        for proc in self.procs:
            proc.join(timeout=10)
        for conn in self.conns:
            conn.close()

    def start(self, ops) -> list:
        """Spawn the ``n`` workers and run the fleet's first barrier:
        ``ops[i]`` is worker i's ``start`` op."""
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-Linux fallback
            ctx = multiprocessing.get_context("spawn")
        for i in range(self.n):
            self._spawn(ctx, i)
        return self.call_all(ops, "start")

    def _spawn(self, ctx, i: int) -> None:
        """Start worker ``i``, retrying transient spawn failures with
        exponential backoff."""
        for attempt in range(_SPAWN_ATTEMPTS):
            try:
                master_end, worker_end = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, daemon=True,
                    args=(worker_end, [*self.conns, master_end], i, self.n,
                          self.template))
                proc.start()
                break
            except OSError as error:  # pragma: no cover - env-dependent
                last_error = error
                time.sleep(0.05 * 2 ** attempt)
        else:  # pragma: no cover
            raise WorkerLostError(
                f"could not spawn worker {i} after {_SPAWN_ATTEMPTS} "
                f"attempts: {last_error}")
        worker_end.close()
        self.conns.append(master_end)
        self.procs.append(proc)

    def call_all(self, ops, phase: str) -> list:
        """Send ``ops[i]`` to worker i (None skips) and collect one
        reply each, polling with liveness checks so a dead worker raises
        :class:`WorkerLostError` instead of hanging the barrier.  The
        master flags SIGINT, so nothing asynchronous lands in here:
        every message is sent once, every reply read once, and the
        master always reaches the next layer boundary with consistent
        worker state."""
        for i, op in enumerate(ops):
            if op is None:
                continue
            if not self.procs[i].is_alive():
                raise self._lost(i, phase)
            try:
                self.conns[i].send(op)
            except OSError:
                raise self._lost(i, phase) from None
        replies: list = [None] * self.n
        for i, conn in enumerate(self.conns):
            while ops[i] is not None:
                try:
                    if conn.poll(_LIVENESS_POLL_SECONDS):
                        replies[i] = conn.recv()
                        break
                except (EOFError, OSError):
                    raise self._lost(i, phase) from None
                if not self.procs[i].is_alive():
                    raise self._lost(i, phase)
        return replies

    def _lost(self, i: int, phase: str) -> WorkerLostError:
        """The one line a dead worker ends the run with."""
        message = f"worker {i} died during {phase}"
        if self.checkpoint is not None:
            message += (f"; the newest checkpoint is {self.checkpoint} "
                        f"(continue with --resume {self.checkpoint})")
        return WorkerLostError(message)


class ParallelChecker:
    """Hash-partitioned parallel model checker.

    ``ParallelChecker(protocol, workers=N, **checker_options)``: the
    checker options -- topology, events, invariants, ``max_states``,
    fault budget, ``symmetry``, progress stream, profiler,
    ``checkpoint_out`` / ``resume`` / ``checkpoint_keep_last``,
    ``deadline_seconds`` / ``max_rss_mb`` -- are
    :class:`~repro.verify.checker.ModelChecker`'s, declared there once
    and passed through to the template (whose settings the master reads
    back).  The visited set is always fingerprint-keyed
    (``fingerprint_states`` is not accepted), and the serial-only
    ``liveness`` and ``atlas``, which read one process's graph, are
    refused.  The constructor's one keyword of its own is ``workers``,
    the number of shard-owning processes.

    ``run()`` returns the same :class:`CheckResult`; on passing runs the
    state count, transition count, depth, and coverage maps match the
    serial checker exactly.  The state cap, budgets and Ctrl-C stop the
    run at the next wave boundary (so a truncated run can hold more
    states than a serial one).  The memory budget is the master's peak
    RSS plus every worker's: pages a forked worker still shares with the
    master count in both, so the cap errs early.  A dead worker raises
    :class:`WorkerLostError`.  No way out of ``run()`` leaves a worker
    process behind.  Requires the ``fork`` start method (worker checkers
    inherit closures the ``spawn`` pickler cannot carry).
    """

    def __init__(self, protocol: CompiledProtocol, *, workers: int,
                 **checker_options):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        refuse_graph_modes(workers=workers, **checker_options)
        self.workers = workers
        # The template's profiler is the master's: forked workers
        # inherit copies of it but accumulate into their own process
        # memory, shipping phase sums back in the finish reply.
        # Symmetry canonicalization lives entirely in the template's
        # fingerprint_fn: workers shard and dedupe by canonical
        # fingerprint, so the orbit quotient falls out of the existing
        # exchange protocol with no new message kinds.
        self._template = ModelChecker(protocol, fingerprint_states=True,
                                      **checker_options)

    # -- trace reconstruction -----------------------------------------------

    def _trace_for(self, fleet: _Fleet, record) -> Violation:
        kind, message, depth, fp, extra_label = record
        labels: list[str] = []
        cursor = fp
        while cursor is not None:
            # One supervised barrier per hop, like every other op: an
            # owner that died is a typed loss.
            ops: list = [None] * fleet.n
            ops[cursor % fleet.n] = ("parent", cursor)
            entry = fleet.call_all(ops, "trace walk")[cursor % fleet.n]
            if entry is None:
                raise CheckpointError(
                    f"parent chain broken at fingerprint {cursor:016x}")
            pfp, label = entry
            if pfp is not None:
                labels.append(label)
            cursor = pfp
        labels.reverse()
        if extra_label is not None:
            labels.append(extra_label)  # the error rule, or "<stuck>"
        elif not labels:
            labels = ["<initial>"]     # invariant violated in the initial state
        return Violation(kind, message, labels)

    # -- the master loop ----------------------------------------------------

    def run(self) -> CheckResult:
        """Explore from the starting cut -- the initial state or a
        resumed checkpoint -- to the result.  Ctrl-C is flagged for the
        whole run and acted on at the next wave boundary."""
        template = self._template
        start = time.perf_counter()
        cut = starting_cut(template)
        policy = CutPolicy(template, start, cut.elapsed)
        with flag_sigint() as interrupted:
            return self._explore(cut, policy, interrupted)

    def _explore(self, cut: Cut, policy: CutPolicy,
                 interrupted) -> CheckResult:
        """Take the run from ``cut`` to its result on one fleet.

        ``cut`` carries the run: its counting fields move at every wave
        boundary, while its containers stay with the owners until a
        checkpoint collects them.  ``policy`` is asked at each boundary
        and keeps the whole run's clock."""
        template = self._template
        n = self.workers

        # Shard the cut: worker i starts from ("start", its visited
        # fingerprints, their edges, its frontier edges, its frontier
        # states).  The initial state arrives inline; a checkpoint
        # stores its frontier by reference, replayed from the parent
        # chains.
        starts: list = [("start", [], {}, {}, []) for _ in range(n)]
        for fp in cut.visited:
            starts[fp % n][1].append(fp)
        for fp, edge in cut.parents.items():
            starts[fp % n][2][fp] = edge
        states = replay_frontier(template, cut.parents, cut.frontier,
                                 cut.states, template.resume)
        for fp, edge in cut.frontier.items():
            starts[fp % n][3][fp] = edge
            starts[fp % n][4].append((fp, states[fp]))

        stopped: Optional[str] = None
        violation = None
        prof = template.profiler

        def record_wave(wave_no, wall, *ops) -> None:
            """One wave in the profile: a worker's busy time is summed
            over the replies of the ops the wave ran; its accepted
            count is the expand op's."""
            if prof is not None:
                prof.record_wave(wave_no, wall, [
                    {"id": i,
                     "busy_seconds": sum(replies[i]["seconds"]
                                         for replies in ops),
                     "accepted": sum(replies[i].get("accepted", 0)
                                     for replies in ops)}
                    for i in range(n)])

        with _Fleet(template, n) as fleet:
            def write(durable: bool) -> None:
                # For the write the owners' containers, which already
                # hold the old frontier, stand in for the master's --
                # the one barrier a checkpoint costs.
                shards = fleet.call_all([("collect",)] * n,
                                        "checkpoint collect")
                here = replace(
                    cut, frontier={},
                    visited=set().union(*(v for v, _edges in shards)),
                    parents={fp: edge for _v, edges in shards
                             for fp, edge in edges.items()})
                here.advance(chain.from_iterable(meta))
                here.write(template, durable)
                fleet.checkpoint = template.checkpoint_out

            # Start the fleet on the first layer: the initial state, or
            # a resumed checkpoint's frontier.  Acceptance (dedupe,
            # parent pointers, invariants) happens at the owner exactly
            # as it will for every later layer.
            start_began = time.perf_counter()
            start_replies = fleet.start(starts)
            record_wave(cut.wave, time.perf_counter() - start_began,
                        start_replies)

            while True:
                cycle_started = time.perf_counter()
                expand_replies = fleet.call_all([("expand",)] * n, "expand")
                expand_wall = time.perf_counter() - cycle_started

                # The layer boundary is a consistent cut: every accepted
                # state is expanded, every pending candidate is routed
                # metadata with its state stashed at the sender.  Bring
                # ``cut``'s counters to it -- the one place the workers'
                # counters reach the master.
                wave_no = cut.wave
                cut.wave += 1
                cut.elapsed = policy.elapsed()
                total_states = sum(r["visited"] for r in expand_replies)
                # Route successor metadata (fingerprints only; the
                # states wait in the sender stashes).
                meta: list[list] = [[] for _ in range(n)]
                for sender, reply in enumerate(expand_replies):
                    cut.transitions += reply["transitions"]
                    cut.max_depth = max(cut.max_depth, reply["max_depth"])
                    for field in ("invariant_evals", "handler_fires"):
                        _add_counts(getattr(cut, field), reply[field])
                    for owner, batch in reply["outbox"].items():
                        meta[owner].extend(
                            (fp, pfp, label, depth, sender)
                            for fp, pfp, label, depth in batch)
                        if prof is not None:
                            prof.add_cross_shard(
                                len(batch), len(pickle.dumps(batch)))
                frontier_size = sum(map(len, meta))

                violations = [v for r in expand_replies
                              for v in r["violations"]]
                symmetry_errors = [
                    r["symmetry_error"] for r in expand_replies
                    if r["symmetry_error"]]
                if violations:
                    violation = self._trace_for(
                        fleet, min(violations, key=_violation_rank))
                elif symmetry_errors:
                    # A concrete violation outranks a certification
                    # failure (FAIL verdicts are sound regardless of
                    # symmetry); with none this wave, a failed
                    # certification aborts the run -- leaving the
                    # ``with`` tears the workers down.
                    raise SymmetryError(min(symmetry_errors))
                elif frontier_size:
                    # The wave boundary is a clean cut, where the policy
                    # may stop (and checkpoint) the run.  Violations
                    # were ruled out first: the states that raised them
                    # are already visited, so a checkpoint taken instead
                    # of the verdict would lose them for good.  A run
                    # whose frontier emptied is exhausted, as serially.
                    stopped = policy.at_cut(
                        total_states, frontier_size, cut.wave,
                        cut.transitions, cut.invariant_evals,
                        interrupted[0], write,
                        sum(r["rss_mb"] for r in expand_replies),
                        _worker_rates(expand_replies))
                if violations or stopped is not None or frontier_size == 0:
                    record_wave(wave_no, expand_wall, expand_replies)
                    break

                # Owners dedupe the candidates; fresh own-shard states
                # resolve locally, foreign ones are staged per sender.
                ingest_replies = fleet.call_all(
                    [("ingest", meta[i]) for i in range(n)], "ingest")

                # Fetch only the states that survived dedupe, then hand
                # them to their owners.
                need_by_sender: list[list] = [[] for _ in range(n)]
                for owner, reply in enumerate(ingest_replies):
                    for sender, fps in reply["need"].items():
                        need_by_sender[sender].append((owner, fps))
                fetch_replies = fleet.call_all(
                    [("fetch", [fp for _owner, fps in needs for fp in fps])
                     if needs else None for needs in need_by_sender],
                    "fetch")
                adopt_batches: list[list] = [[] for _ in range(n)]
                for sender, needs in enumerate(need_by_sender):
                    # The reply lists the states in request order; each
                    # zip takes its owner's share off the front.
                    states = iter(fetch_replies[sender] or ())
                    for owner, fps in needs:
                        adopt_batches[owner].extend(zip(fps, states))
                if prof is not None:
                    for batch in adopt_batches:
                        if batch:
                            # Entries were already counted at routing;
                            # this adds the state-shipping bytes.
                            prof.add_cross_shard(0, len(pickle.dumps(batch)))
                adopt_replies = fleet.call_all(
                    [("adopt", adopt_batches[i]) for i in range(n)],
                    "adopt")
                record_wave(wave_no, time.perf_counter() - cycle_started,
                            expand_replies, ingest_replies, adopt_replies)

            for payload in fleet.call_all([("finish",)] * n, "finish"):
                if prof is not None:
                    prof.merge_worker(payload)

        return template._finish(
            violation, policy=policy, states=total_states,
            frontier=frontier_size, transitions=cut.transitions,
            max_depth=cut.max_depth, elapsed=policy.elapsed(),
            invariant_evals=cut.invariant_evals,
            handler_fires=cut.handler_fires, stopped=stopped,
            progress_extra=_worker_rates(expand_replies),
            workers=self.workers)
