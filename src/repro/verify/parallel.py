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
layer), but -- unlike the first-generation engine, which shipped every
successor *state* to its owner through the master -- the frontier
exchange is fingerprint-only:

1. ``expand``: each worker expands its accepted states, keeps the
   generated successor states in a local *stash*, and hands the master
   metadata records ``(fp, parent_fp, label, depth)`` batched per owner.
   Full states never cross a pipe at this point.
2. The master routes the metadata.  ``ingest``: each owner dedupes the
   candidates against its visited set; fresh own-generated states are
   resolved from the local stash immediately, foreign ones are *staged*
   and their fingerprints listed per sender.
3. ``fetch``/``adopt``: the master collects the needed states from the
   senders' stashes -- only states that survived owner-side dedupe are
   ever serialized -- and delivers them to their owners, which accept
   them (visited set, parent pointer, invariant suite) into the next
   ready set.

Determinism: the set of states in BFS layer *k* is a property of the
protocol, not of the partitioning, and every visited state is expanded
exactly once -- so verdict, reachable-state count, transition count, and
``handler_fires`` coverage are identical at any worker count.  When a
layer surfaces violations (invariant failures at acceptance, errors and
deadlocks at expansion), every worker still finishes the layer and the
master picks the canonical minimum by ``(depth, kind, message, label,
fingerprint)``, so the reported violation is worker-count independent
too.  Parent pointers are canonical as well: a state discovered by
several layer-*k* parents takes the minimum ``(parent fp, label)`` edge
-- senders keep the per-sender minimum during expansion and owners take
the minimum over the wave's proposals, so the winning edge is the global
minimum over every discovering edge, a pure function of the state graph
rather than of partitioning or arrival order.  The
counterexample trace is rebuilt by walking the sharded parent
pointers (one owner query per hop) and then replay-validated against a
fresh serial checker; a fingerprint collision that corrupted the path
raises :class:`~repro.verify.checker.FingerprintCollisionError` instead
of reporting a bogus trace.

Checkpoints are pure JSON (no pickles; see
:mod:`repro.verify.fingerprint` for the state codec) and are written at
layer boundaries when the policy stops the run there (``max_states``, a
resource budget, Ctrl-C) or a periodic interval elapses.  Writes are
sealed, atomic and rotated (:mod:`repro.verify.checkpoint`).  The
frontier in a checkpoint is the routed proposals, their states stored
by reference (the parent-label chain), so the on-disk format is
unchanged from version 1: entries are keyed by fingerprint and a
checkpoint written at one worker count can be resumed at any other --
or by the serial checker.

Worker supervision: every barrier exchange polls the worker pipes with
liveness checks instead of blocking on ``recv``, so a SIGKILLed (or,
with ``worker_stall_timeout``, a wedged) worker surfaces as a typed
loss instead of a hang.  Under ``on_worker_loss="fail"`` (the default)
the loss raises :class:`WorkerLostError`.  Under ``"degrade"`` the
master additionally maintains a *mirror* of the exploration at each
wave barrier -- the synchronous cut where every accepted state is
expanded and every pending candidate is routed metadata -- and recovers
by tearing the fleet down, re-sharding the mirror onto one fewer
worker, reconstructing the pending frontier states by replaying their
canonical parent-label chains, and re-entering the loop.  Because the
cut is consistent and the exchange is deterministic, the recovered run
reaches the identical verdict, state count, transition count, coverage
maps, and counterexample trace as an undisturbed run; only the
observability artifacts (profile, atlas) degrade to best-effort.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import defaultdict
from typing import Optional

from repro.runtime.protocol import CompiledProtocol
from repro.verify.checker import (
    CheckResult,
    ModelChecker,
    SymmetryError,
    Violation,
    _LabelledViolation,
)
from repro.verify.checkpoint import (
    CheckpointError,
    CutPolicy,
    config_echo,
    encode_checkpoint,
    load_checkpoint,
    min_edge_fold,
    replay_frontier,
    starting_cut,
    visited_container_bytes,
    write_checkpoint,
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
        if reply and reply["seconds"] > 0 else f"w{i}=idle"
        for i, reply in enumerate(replies)) + "]"


class WorkerLostError(RuntimeError):
    """A worker process died (or stalled past ``worker_stall_timeout``)
    and the run was configured with ``on_worker_loss="fail"``, or the
    degrade policy ran out of recovery attempts."""


class _WorkerLost(Exception):
    """Internal: a worker went silent mid-barrier.  Caught by the
    master's recovery loop, never escapes :meth:`ParallelChecker.run`."""

    def __init__(self, worker_id: int, phase: str):
        self.worker_id = worker_id
        self.phase = phase
        super().__init__(f"worker {worker_id} lost during {phase}")


def _worker_main(conn, worker_id: int, n_workers: int,
                 checker: ModelChecker) -> None:
    """One shard owner: the serial checker on a shard, plus a transport.
    Expansion and acceptance are ``checker``'s ``_expand`` / ``_accept``;
    this function owns the sharding -- the shard's visited set, parent
    pointers, send dedupe, stash and minimum-edge proposals.

    Runs a small command loop over a duplex pipe; the master is the only
    peer.  SIGINT is ignored so Ctrl-C reaches only the master, which
    finishes the layer and checkpoints before shutting workers down.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    checker._begin_run()

    visited: set[int] = set()          # fps of states this shard owns
    parents: dict[int, tuple] = {}     # fp -> (parent fp | None, label)
    known: set[int] = set()            # every fp seen/routed (send dedupe)
    ready: list = []                   # (fp, state, depth) awaiting expansion
    staged: dict = {}                  # fp -> (pfp, label, depth) pre-fetch
    stash: dict = {}                   # fp -> state, last expansion's sends
    transitions = 0

    def accept(sfp, state, pfp, label, depth, violations) -> None:
        """Take ownership of a fresh state: bookkeeping, the checker's
        accept step, and a slot in the next ready set."""
        visited.add(sfp)
        known.add(sfp)
        parents[sfp] = (pfp, label)
        message = checker._accept(state, sfp, depth)
        if message is not None:
            violations.append(("invariant", message, depth, sfp, None))
        ready.append((sfp, state, depth))

    def accepted_reply(violations, started) -> tuple:
        return ("done", {
            "visited": len(visited),
            "max_depth": checker._max_depth,
            "violations": violations,
            "seconds": time.perf_counter() - started,
        })

    while True:
        command = conn.recv()
        op = command[0]

        if op == "load":                      # resume: restore this shard
            _, fps, loaded_parents = command
            visited.update(fps)
            known.update(fps)
            parents.update(loaded_parents)
            conn.send(("loaded", len(visited)))

        elif op == "seed":                    # full-state candidates
            _, entries = command              # (initial state or a resumed
            started = time.perf_counter()     # checkpoint frontier)
            violations: list = []
            for sfp, pfp, label, depth, state in min_edge_fold(
                    entries, visited).values():
                accept(sfp, state, pfp, label, depth, violations)
            conn.send(accepted_reply(violations, started))

        elif op == "ingest":                  # metadata candidates
            _, entries = command
            started = time.perf_counter()
            violations = []
            need: dict = defaultdict(list)
            # All of the wave's proposals for this shard arrive in one
            # batch, so the owner-side minimum edge -- combined with the
            # sender-side minimum kept during expansion -- is the global
            # minimum over every discovering edge.
            for sfp, pfp, label, depth, sender in min_edge_fold(
                    entries, visited).values():
                if sender == worker_id:
                    # Own successor: the state never left this process.
                    accept(sfp, stash[sfp], pfp, label, depth, violations)
                else:
                    staged[sfp] = (pfp, label, depth)
                    need[sender].append(sfp)
            conn.send(("done", {
                "need": dict(need),
                "violations": violations,
                "seconds": time.perf_counter() - started,
            }))

        elif op == "fetch":                   # serve states from the stash
            _, wanted = command
            conn.send(("states", [(fp, stash[fp]) for fp in wanted]))

        elif op == "adopt":                   # fetched foreign states
            _, entries = command
            started = time.perf_counter()
            violations = []
            for sfp, state in entries:
                pfp, label, depth = staged.pop(sfp)
                accept(sfp, state, pfp, label, depth, violations)
            conn.send(accepted_reply(violations, started))

        elif op == "expand":
            _, wave_no = command
            started = time.perf_counter()
            tasks, ready = ready, []
            stash = {}
            # fp -> (parent fp, label, depth), in first-generation order
            proposals: dict = {}
            outbox: dict = defaultdict(list)
            violations = []
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
                            proposal = proposals[fp]
                            if (sfp, label) < (proposal[0], proposal[1]):
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
                outbox[fp % n_workers].append((fp, *proposal))
            conn.send(("done", {
                "wave": wave_no,
                "accepted": len(tasks),
                "transitions": transitions,
                "outbox": dict(outbox),
                "violations": violations,
                "symmetry_error": symmetry_error,
                "inv_evals": sum(checker._invariant_evals.values()),
                # Cumulative per-name maps and the shard's container
                # bytes ride on every expand reply: the master needs
                # them to snapshot a consistent cut (degrade-mode
                # mirror) and to enforce the visited-byte budget.
                "inv_detail": dict(checker._invariant_evals),
                "fire_detail": dict(checker._handler_fires),
                "visited_bytes": visited_container_bytes(visited, parents),
                "seconds": time.perf_counter() - started,
            }))

        elif op == "parent":                  # one hop of a trace walk
            conn.send(("parent", parents.get(command[1])))

        elif op == "collect":                 # checkpoint contribution
            conn.send(("state", {
                "visited": list(visited),
                "parents": {fp: list(entry)
                            for fp, entry in parents.items()},
                "handler_fires": dict(checker._handler_fires),
                "invariant_evals": dict(checker._invariant_evals),
            }))

        elif op == "finish":
            profile_payload = None
            if checker.profiler is not None:
                checker.profiler.set_visited(
                    entries=len(visited), mode="fingerprint",
                    container_bytes=visited_container_bytes(
                        visited, parents))
                profile_payload = checker.profiler.worker_payload()
            conn.send(("stats", {
                "handler_fires": dict(checker._handler_fires),
                "invariant_evals": dict(checker._invariant_evals),
                "profile": profile_payload,
                "atlas": (checker.atlas.payload()
                          if checker.atlas is not None else None),
            }))
            conn.close()
            return


class ParallelChecker:
    """Hash-partitioned parallel model checker.

    ``ParallelChecker(protocol, workers=N, **checker_options)``: the
    checker options -- topology, events, invariants, ``max_states``,
    fault budget, ``symmetry``, progress stream, observers,
    ``checkpoint_out`` / ``resume`` / the periodic-interval knobs,
    ``deadline_seconds`` / ``max_visited_bytes`` -- are
    :class:`~repro.verify.checker.ModelChecker`'s, declared there once
    and passed through to the template (whose settings the master reads
    back).  The visited set is always fingerprint-keyed
    (``fingerprint_states`` is not accepted), and the serial-only modes
    ``por`` and ``check_progress`` are refused.

    The constructor's own keywords are the fleet's: ``workers`` (the
    number of shard-owning processes), ``on_worker_loss`` and
    ``worker_stall_timeout`` (the supervision policy, see the module
    docstring: ``"fail"`` raises :class:`WorkerLostError`, ``"degrade"``
    re-shards onto one fewer worker; a worker silent for the timeout
    during a barrier is SIGKILLed and counted lost), and ``chaos_hook``
    (testing: called as ``hook(wave_no, procs)`` before each wave so
    fault-injection harnesses can disturb the fleet deterministically).

    ``run()`` returns the same :class:`CheckResult`; on passing runs the
    state count, transition count, depth, and coverage maps match the
    serial checker exactly.  Budgets and Ctrl-C stop the run at the next
    wave boundary with ``stop_reason`` set and a resumable checkpoint
    written.  Requires the ``fork`` start method (worker checkers
    inherit closures the ``spawn`` pickler cannot carry).
    """

    def __init__(self, protocol: CompiledProtocol, *,
                 workers: Optional[int] = None,
                 on_worker_loss: str = "fail",
                 worker_stall_timeout: Optional[float] = None,
                 chaos_hook=None, **checker_options):
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if on_worker_loss not in ("fail", "degrade"):
            raise ValueError(
                f"on_worker_loss must be 'fail' or 'degrade', "
                f"got {on_worker_loss!r}")
        if checker_options.get("check_progress"):
            raise ValueError(
                "liveness checking needs the full state graph and is "
                "serial-only (CheckOptions.workers must be 0)")
        if checker_options.get("por"):
            raise ValueError(
                "partial-order reduction is serial-only: sleep sets need "
                "globally ordered re-arrival bookkeeping the sharded "
                "checker does not do (CheckOptions.workers must be 0)")
        self.workers = workers
        self.on_worker_loss = on_worker_loss
        self.worker_stall_timeout = worker_stall_timeout
        self.chaos_hook = chaos_hook
        # The template's profiler and atlas recorder are the master's:
        # forked workers inherit copies of the same objects but
        # accumulate into their own process memory, shipping totals
        # (phase sums; bottom-k sketches, whose merge is exactly the
        # global sketch) back in the finish reply -- so the built
        # artifacts are identical at any worker count.
        # Symmetry canonicalization lives entirely in the template's
        # fingerprint_fn: workers shard and dedupe by canonical
        # fingerprint, so the orbit quotient falls out of the existing
        # exchange protocol with no new message kinds.
        self._template = ModelChecker(protocol, fingerprint_states=True,
                                      **checker_options)

    # -- checkpoint plumbing ------------------------------------------------

    def _write_checkpoint(self, shards, meta, wave, baseline, transitions,
                          max_depth, elapsed, durable: bool) -> None:
        """Checkpoint the cut at a wave boundary from the workers'
        ``collect`` replies (``shards``) and the routed ``meta``."""
        template = self._template
        invariant_evals = dict(baseline["invariant_evals"])
        handler_fires = dict(baseline["handler_fires"])
        for shard in shards:
            _add_counts(invariant_evals, shard["invariant_evals"])
            _add_counts(handler_fires, shard["handler_fires"])
        write_checkpoint(template.checkpoint_out, encode_checkpoint(
            config_echo(template),
            wave=wave,
            transitions=transitions,
            max_depth=max_depth,
            elapsed=elapsed,
            invariant_evals=invariant_evals,
            handler_fires=handler_fires,
            visited=(fp for shard in shards for fp in shard["visited"]),
            parents=(item for shard in shards
                     for item in shard["parents"].items()),
            # Every routed proposal, one per sending shard: the
            # candidates are pre-acceptance, their states waiting in
            # the sender stashes.
            frontier=(record[:4] for batch in meta for record in batch)),
            template.checkpoint_keep_last, durable=durable)

    # -- degrade-mode mirror ------------------------------------------------

    def _advance_mirror(self, mirror, meta, wave, transitions, max_depth,
                        baseline, expand_replies, start) -> None:
        """Snapshot the consistent cut at this wave barrier.

        Called right after routing: every previously pending state has
        now been accepted and expanded (fold it into the mirror's
        visited set), and ``meta`` holds the next wave's candidates.
        The owner-side minimum-edge rule is applied here exactly as the
        owners will apply it at ingest, so the mirror's parent edges
        are the same canonical spanning tree the workers build."""
        mirror["visited"].update(mirror["pending"])
        mirror["pending_states"] = {}
        pending = mirror["pending"] = {
            fp: (pfp, label, depth)
            for fp, pfp, label, depth, _sender in min_edge_fold(
                (record for batch in meta for record in batch),
                mirror["visited"]).values()}
        for fp, (pfp, label, _depth) in pending.items():
            mirror["parents"][fp] = (pfp, label)
        mirror["wave"] = wave
        mirror["transitions"] = transitions
        mirror["max_depth"] = max_depth
        mirror["elapsed_at_cut"] = (mirror["elapsed"]
                                    + (time.perf_counter() - start))
        invariant_evals = dict(baseline["invariant_evals"])
        handler_fires = dict(baseline["handler_fires"])
        for reply in expand_replies:
            if reply:
                _add_counts(invariant_evals, reply["inv_detail"])
                _add_counts(handler_fires, reply["fire_detail"])
        mirror["invariant_evals"] = invariant_evals
        mirror["handler_fires"] = handler_fires

    # -- trace reconstruction -----------------------------------------------

    def _trace_for(self, conns, record, n: int, mirror=None) -> Violation:
        kind, message, depth, fp, extra_label = record
        labels: list[str] = []
        cursor = fp
        while cursor is not None:
            if mirror is not None:
                # Degrade mode: walk the master's mirror instead of
                # querying the (possibly already disturbed) workers --
                # trace construction itself must survive a loss.  The
                # mirror's edges are the same canonical minimum the
                # owners stored, so the trace is identical.
                entry = mirror["parents"].get(cursor)
            else:
                conn = conns[cursor % n]
                try:
                    conn.send(("parent", cursor))
                    _, entry = conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    raise _WorkerLost(cursor % n, "trace walk") from None
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
        """Explore, supervising the worker fleet.

        Worker losses surface here: under ``on_worker_loss="fail"`` the
        first loss raises :class:`WorkerLostError`; under ``"degrade"``
        the run restarts from the mirror's last consistent cut on one
        fewer worker, and -- if losses keep coming past the recovery
        budget -- salvages a checkpoint and returns a truncated result
        with ``stop_reason="worker_lost"``."""
        template = self._template
        start = time.perf_counter()

        cut = starting_cut(template)
        mirror = {
            "visited": cut.visited, "parents": cut.parents,
            "pending": cut.frontier, "pending_states": cut.states,
            "wave": cut.wave, "transitions": cut.transitions,
            "max_depth": cut.max_depth,
            "invariant_evals": cut.invariant_evals,
            "handler_fires": cut.handler_fires,
            "elapsed": cut.elapsed, "elapsed_at_cut": cut.elapsed,
        }
        for fp, (pfp, label, _depth) in mirror["pending"].items():
            mirror["parents"][fp] = (pfp, label)

        n = self.workers
        worker_losses = 0
        # Each loss sheds a worker; allow a few extra attempts at the
        # one-worker floor before declaring the environment hostile.
        max_recoveries = self.workers + 4
        last_loss: Optional[_WorkerLost] = None
        while True:
            try:
                return self._explore(n, mirror, start, worker_losses)
            except WorkerLostError:
                if last_loss is None:
                    raise     # could not even start the first fleet
                return self._salvage(mirror, start, worker_losses)
            except _WorkerLost as loss:
                last_loss = loss
                worker_losses += 1
                if self.on_worker_loss != "degrade":
                    raise WorkerLostError(
                        f"worker {loss.worker_id} died during "
                        f"{loss.phase}; rerun with "
                        f"on_worker_loss='degrade' (CLI: --on-worker-loss "
                        f"degrade) to re-shard onto the survivors and "
                        f"continue") from None
                if worker_losses > max_recoveries:
                    return self._salvage(mirror, start, worker_losses)
                n = max(1, n - 1)

    def _salvage(self, mirror, start, worker_losses: int) -> CheckResult:
        """Recovery budget exhausted: persist the mirror's cut and
        return what was soundly explored up to it.  The checkpoint is
        built purely from the mirror -- the worker fleet is no longer
        trustworthy."""
        template = self._template
        pending = mirror["pending"]
        if template.checkpoint_out:
            write_checkpoint(template.checkpoint_out, encode_checkpoint(
                config_echo(template),
                wave=mirror["wave"],
                transitions=mirror["transitions"],
                max_depth=mirror["max_depth"],
                elapsed=mirror["elapsed_at_cut"],
                invariant_evals=dict(mirror["invariant_evals"]),
                handler_fires=dict(mirror["handler_fires"]),
                visited=mirror["visited"],
                parents=(item for item in mirror["parents"].items()
                         if item[0] not in pending),
                frontier=((fp, *record)
                          for fp, record in pending.items())),
                template.checkpoint_keep_last)
        return template._result(
            ok=True, states=len(mirror["visited"]),
            transitions=mirror["transitions"],
            max_depth=mirror["max_depth"],
            elapsed=mirror["elapsed"] + (time.perf_counter() - start),
            stopped="worker_lost",
            invariant_evals=mirror["invariant_evals"],
            handler_fires=mirror["handler_fires"],
            workers=self.workers, worker_losses=worker_losses)

    def _spawn_worker(self, ctx, i: int, n: int):
        """Start one worker process, retrying transient spawn failures
        with exponential backoff."""
        last_error = None
        for attempt in range(_SPAWN_ATTEMPTS):
            if attempt:
                time.sleep(0.05 * (2 ** (attempt - 1)))
            try:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker_main,
                                   args=(child_conn, i, n, self._template),
                                   daemon=True)
                proc.start()
                child_conn.close()
                return parent_conn, proc
            except OSError as error:  # pragma: no cover - env-dependent
                last_error = error
        raise WorkerLostError(
            f"could not spawn worker {i} after {_SPAWN_ATTEMPTS} "
            f"attempts: {last_error}")

    def _explore(self, n: int, mirror, start, worker_losses: int
                 ) -> CheckResult:
        template = self._template
        track = self.on_worker_loss == "degrade"

        baseline = {key: (dict(mirror[key]) if isinstance(mirror[key], dict)
                          else mirror[key])
                    for key in ("wave", "transitions", "max_depth",
                                "elapsed", "invariant_evals",
                                "handler_fires")}
        pending = mirror["pending"]
        loads: list[tuple[list, dict]] = [([], {}) for _ in range(n)]
        for fp in mirror["visited"]:
            loads[fp % n][0].append(fp)
        for fp, entry in mirror["parents"].items():
            if fp in pending:
                continue
            loads[fp % n][1][fp] = entry
        # The seed wave's states are kept in the mirror directly (they
        # arrived as full states); later waves' states lived only in
        # the lost workers' stashes, and a checkpoint stores them by
        # reference -- both are replayed from their parent chains.
        pending_states = replay_frontier(
            template, mirror["parents"], pending,
            mirror["pending_states"], template.resume or "recovery mirror")
        seeds: list[list] = [[] for _ in range(n)]
        for fp, (pfp, label, depth) in pending.items():
            seeds[fp % n].append(
                (fp, pfp, label, depth, pending_states[fp]))

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-Linux fallback
            ctx = multiprocessing.get_context("spawn")

        conns = []
        procs = []
        for i in range(n):
            parent_conn, proc = self._spawn_worker(ctx, i, n)
            conns.append(parent_conn)
            procs.append(proc)

        interrupted = False

        def call_all(ops, phase: str):
            """Send ``ops[i]`` to worker i (None skips) and collect one
            reply each, polling with liveness checks so a dead or
            wedged worker raises :class:`_WorkerLost` instead of
            hanging the barrier.  A Ctrl-C mid-phase flags
            ``interrupted`` and still drains the phase, so the master
            always reaches the next layer boundary with consistent
            worker state."""
            nonlocal interrupted
            replies: list = [None] * n
            got = [False] * n
            sent = [False] * n
            waited = [0.0] * n
            while True:
                try:
                    for i, conn in enumerate(conns):
                        if ops[i] is None or sent[i]:
                            continue
                        if not procs[i].is_alive():
                            raise _WorkerLost(i, phase)
                        try:
                            conn.send(ops[i])
                        except (BrokenPipeError, OSError):
                            raise _WorkerLost(i, phase) from None
                        sent[i] = True
                    for i, conn in enumerate(conns):
                        if ops[i] is None or got[i]:
                            continue
                        while not got[i]:
                            try:
                                if conn.poll(_LIVENESS_POLL_SECONDS):
                                    replies[i] = conn.recv()[1]
                                    got[i] = True
                                    break
                            except (EOFError, OSError):
                                raise _WorkerLost(i, phase) from None
                            waited[i] += _LIVENESS_POLL_SECONDS
                            if not procs[i].is_alive():
                                raise _WorkerLost(i, phase)
                            if (self.worker_stall_timeout is not None
                                    and waited[i]
                                    >= self.worker_stall_timeout):
                                procs[i].kill()
                                raise _WorkerLost(
                                    i, f"{phase} (stalled "
                                    f">{self.worker_stall_timeout:g}s)")
                    return replies
                except KeyboardInterrupt:
                    interrupted = True

        try:
            if mirror["visited"]:
                call_all([("load", loads[i][0], loads[i][1])
                          for i in range(n)], "load")

            wave = baseline["wave"]
            transitions = baseline["transitions"]
            max_depth = baseline["max_depth"]
            stopped: Optional[str] = None
            violation_record = None
            prof = template.profiler
            if prof is not None:
                prof.begin()

            def elapsed() -> float:
                return baseline["elapsed"] + (time.perf_counter() - start)

            def record_wave(wave_no, wall, *ops) -> None:
                """One wave in the profile: a worker's busy time is
                summed over the replies of the ops the wave ran; its
                accepted count is the expand op's."""
                if prof is not None:
                    prof.record_wave(wave_no, wall, [
                        {"id": i,
                         "busy_seconds": sum(
                             (replies[i]["seconds"]
                              for replies in ops if replies[i]), 0.0),
                         "accepted": sum(
                             replies[i].get("accepted", 0)
                             for replies in ops if replies[i])}
                        for i in range(n)])

            # Seed the first layer: the initial state, or a resumed
            # checkpoint's frontier.  Acceptance (dedupe, parent
            # pointers, invariants) happens at the owner exactly as it
            # will for every later layer.
            seed_started = time.perf_counter()
            seed_replies = call_all([("seed", seeds[i]) for i in range(n)],
                                    "seed")
            total_states = sum(r["visited"] for r in seed_replies if r)
            max_depth = max([max_depth] + [r["max_depth"]
                                           for r in seed_replies if r])
            pending_violations = [v for r in seed_replies if r
                                  for v in r["violations"]]
            record_wave(wave, time.perf_counter() - seed_started,
                        seed_replies)

            last_bucket = total_states // template.progress_every
            policy = CutPolicy(template, start, baseline["wave"])

            while True:
                cycle_started = time.perf_counter()

                if self.chaos_hook is not None:
                    # Fault-injection point for the chaos harness: the
                    # hook may SIGKILL/SIGSTOP workers; the next barrier
                    # detects the damage through the liveness polls.
                    self.chaos_hook(wave, procs)

                wave_no = wave
                expand_replies = call_all([("expand", wave_no)] * n,
                                          "expand")
                wave += 1
                expand_wall = time.perf_counter() - cycle_started
                transitions = baseline["transitions"] + sum(
                    r["transitions"] for r in expand_replies if r)

                # Route successor metadata (fingerprints only; the
                # states wait in the sender stashes).
                meta: list[list] = [[] for _ in range(n)]
                frontier_size = 0
                for sender, reply in enumerate(expand_replies):
                    if not reply:
                        continue
                    for owner, batch in reply["outbox"].items():
                        meta[owner].extend(
                            (fp, pfp, label, depth, sender)
                            for fp, pfp, label, depth in batch)
                        frontier_size += len(batch)
                        if prof is not None:
                            prof.add_cross_shard(
                                len(batch), len(pickle.dumps(batch)))

                if prof is not None:
                    prof.sample(total_states, frontier_size, max_depth,
                                transitions)
                if (template.progress_stream is not None
                        and total_states // template.progress_every
                        > last_bucket):
                    last_bucket = total_states // template.progress_every
                    template._report_progress(
                        total_states, frontier_size, max_depth,
                        transitions, elapsed(),
                        sum(baseline["invariant_evals"].values())
                        + sum(r["inv_evals"] for r in expand_replies if r),
                        extra=_worker_rates(expand_replies))

                if track:
                    # The layer boundary is a consistent cut: every
                    # accepted state is expanded, every pending
                    # candidate is in ``meta`` with its state stashed
                    # at the sender.  Snapshot it so a later worker
                    # loss can recover exactly here.
                    self._advance_mirror(
                        mirror, meta, wave, transitions, max_depth,
                        baseline, expand_replies, start)

                violations = pending_violations + [
                    v for r in expand_replies if r for v in r["violations"]]
                if violations:
                    violation_record = min(violations, key=_violation_rank)
                    record_wave(wave_no, expand_wall, expand_replies)
                    break
                # A concrete violation outranks a certification failure
                # (FAIL verdicts are sound regardless of symmetry); with
                # none this wave, a failed certification aborts the run
                # -- the enclosing ``finally`` tears the workers down.
                symmetry_errors = [
                    r["symmetry_error"] for r in expand_replies
                    if r and r.get("symmetry_error")]
                if symmetry_errors:
                    raise SymmetryError(min(symmetry_errors))
                # The wave boundary is a clean cut, where the policy
                # may stop (and checkpoint) the run.  Violations were
                # ruled out first: the states that raised them are
                # already visited, so a checkpoint taken instead of the
                # verdict would lose them for good.
                def write(durable: bool) -> None:
                    self._write_checkpoint(
                        call_all([("collect",)] * n, "checkpoint collect"),
                        meta, wave, baseline, transitions, max_depth,
                        elapsed(), durable)

                stopped = policy.stop(
                    total_states, interrupted,
                    lambda: sum(r["visited_bytes"]
                                for r in expand_replies if r), write)
                if stopped is not None or frontier_size == 0:
                    record_wave(wave_no, expand_wall, expand_replies)
                    break
                policy.write_if_due(wave, write)

                # Owners dedupe the candidates; fresh own-shard states
                # resolve locally, foreign ones are staged per sender.
                ingest_replies = call_all(
                    [("ingest", meta[i]) for i in range(n)], "ingest")

                # Fetch only the states that survived dedupe, then hand
                # them to their owners.
                need_by_sender: list[list] = [[] for _ in range(n)]
                for owner, reply in enumerate(ingest_replies):
                    if not reply:
                        continue
                    for sender, fps in reply["need"].items():
                        need_by_sender[sender].append((owner, fps))
                fetch_ops: list = [
                    ("fetch", [fp for _owner, fps in need_by_sender[i]
                               for fp in fps])
                    if need_by_sender[i] else None
                    for i in range(n)]
                fetch_replies = call_all(fetch_ops, "fetch")
                adopt_batches: list[list] = [[] for _ in range(n)]
                for sender in range(n):
                    if fetch_ops[sender] is None or not fetch_replies[sender]:
                        continue
                    fetched = dict(fetch_replies[sender])
                    for owner, fps in need_by_sender[sender]:
                        adopt_batches[owner].extend(
                            (fp, fetched[fp]) for fp in fps)
                if prof is not None:
                    for batch in adopt_batches:
                        if batch:
                            # Entries were already counted at routing;
                            # this adds the state-shipping bytes.
                            prof.add_cross_shard(0, len(pickle.dumps(batch)))
                adopt_replies = call_all(
                    [("adopt", adopt_batches[i]) for i in range(n)],
                    "adopt")

                total_states = sum(r["visited"] for r in adopt_replies if r)
                max_depth = max([max_depth] + [r["max_depth"]
                                               for r in adopt_replies if r])
                pending_violations = (
                    [v for r in ingest_replies if r
                     for v in r["violations"]]
                    + [v for r in adopt_replies if r
                       for v in r["violations"]])
                record_wave(wave_no, time.perf_counter() - cycle_started,
                            expand_replies, ingest_replies, adopt_replies)

            violation = None
            if violation_record is not None:
                violation = self._trace_for(
                    conns, violation_record, n,
                    mirror=mirror if track else None)

            invariant_evals = dict(baseline["invariant_evals"])
            handler_fires = dict(baseline["handler_fires"])
            finish_replies = call_all([("finish",)] * n, "finish")
            for stats in finish_replies:
                if not stats:
                    continue
                _add_counts(invariant_evals, stats["invariant_evals"])
                _add_counts(handler_fires, stats["handler_fires"])
                if prof is not None:
                    prof.merge_worker(stats.get("profile"))
                if template.atlas is not None:
                    template.atlas.merge(stats.get("atlas"))
            for proc in procs:
                proc.join(timeout=30)

            return template._finish(
                violation, states=total_states, frontier=0,
                transitions=transitions, max_depth=max_depth,
                elapsed=elapsed(), invariant_evals=invariant_evals,
                handler_fires=handler_fires, stopped=stopped,
                progress_extra=_worker_rates(expand_replies),
                workers=self.workers, worker_losses=worker_losses)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=10)
            for conn in conns:
                conn.close()
