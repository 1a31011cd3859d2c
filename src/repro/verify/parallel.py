"""Parallel expansion for the one breadth-first search.

:class:`ParallelChecker` is the serial
:class:`~repro.verify.checker.ModelChecker` -- its loop, its stop and
snapshot policy (:class:`~repro.verify.checkpoint.CutPolicy`), its
checkpoint writer and its trace walk -- with the expand and accept
steps overridden so that N forked worker processes expand states and
judge their successors.  The master keeps the visited set, the parent
pointers and the frontier, by key; the workers keep the states.

**Dispatch.**  When the loop pops a state whose expansion the master
does not hold, the master sends every pending frontier key (one BFS
layer), in frontier order, to a worker that holds that state, in one
``expand`` barrier (:meth:`_Fleet.call_all`); :meth:`_dispatch` says
which.  A worker expands its states in order with the serial expand
step, proposes each successor key once (its own seen set), runs the
serial accept step on what it proposes, with the move's judge flag, and
stashes the successor, until the next dispatch.  Its reply gives, per
state: the ``(repeats, label, key, verdict)`` list (the repeats met
since the previous proposal; the verdict is the accept step's failure
message, or None), the repeats after the last proposal, the handler
fires, and any error or symmetry failure at its position.

**Play-back.**  The master's expand step hands a reply to the loop in
move order: each proposal, judged by its proposer and verdict, after
the repeats that came before it, each as a move to the expanded state's
own key (a key this worker proposed before, visited by now, as the
expanded state is), then the trailing repeats, then the error.  Its
accept step queues the key.  So the verdict, counts, coverage,
counterexample trace, the state count of a run stopped by
``max_states``, a budget or Ctrl-C, and every checkpoint are the serial
run's at any worker count.  Only keys, labels and verdicts cross a
pipe; a state only as a seed (the initial state, a resumed frontier).

**Supervision.**  A barrier polls the pipes with liveness checks, so a
dead worker raises :class:`WorkerLostError` -- one line naming it, the
barrier and, when this run wrote one, the newest checkpoint, the way
back -- instead of hanging the run.  Workers ignore SIGINT; the master
takes it as every run does (:func:`~repro.verify.checkpoint.flag_sigint`).
Leaving the fleet's ``with`` block kills and joins every worker, and a
master killed outside it is noticed by its workers: each closed the
copies of the master's pipe ends it inherited through ``fork``, so the
death ends the file under its next ``recv``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from contextlib import AbstractContextManager

from repro.runtime.protocol import CompiledProtocol
from repro.verify.checker import (
    CheckResult,
    ModelChecker,
    SymmetryError,
    _LabelledViolation,
    refuse_graph_modes,
)
from repro.verify.checkpoint import (
    CheckpointError,
    load_checkpoint,
    peak_rss_mb,
)

__all__ = ["CheckpointError", "ParallelChecker", "WorkerLostError",
           "load_checkpoint"]

# How long a worker pipe may stay silent before the master re-checks the
# worker is alive: a dead one is noticed within a fraction of a second.
_LIVENESS_POLL_SECONDS = 0.05

# Spawns retried, with exponential backoff, before one is declared
# failed (transient EAGAIN conditions clear quickly or not at all).
_SPAWN_ATTEMPTS = 3


class WorkerLostError(RuntimeError):
    """A worker process died, or could not be spawned: the run is over,
    and the newest checkpoint it wrote, if any, is where a rerun
    resumes."""


class _Fleet(AbstractContextManager):
    """The worker processes of one run and the one way the master talks
    to them.  A context manager: :meth:`start`, called inside the
    block, spawns the workers, and whatever ends the block kills and
    joins every process started and closes every pipe, so no way out
    (and no ``os._exit`` after it) leaves a worker behind."""

    def __init__(self, checker: "ParallelChecker"):
        self.checker = checker
        self.conns: list = []
        self.procs: list = []
        self.traffic = 0        # pickled bytes both ways, for the profile

    def __exit__(self, *_exc) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.kill()     # SIGKILL: a stopped one would sit on SIGTERM
        for proc in self.procs:
            proc.join(timeout=10)
        for conn in self.conns:
            conn.close()

    def start(self, n: int) -> None:
        """Spawn ``n`` workers, retrying transient spawn failures with
        exponential backoff."""
        ctx = multiprocessing.get_context("fork")
        for i in range(n):
            for attempt in range(_SPAWN_ATTEMPTS):
                try:
                    master_end, worker_end = ctx.Pipe()
                    proc = ctx.Process(
                        target=self.checker._serve, daemon=True,
                        args=(worker_end, [*self.conns, master_end]))
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

    def call_all(self, ops: list, phase: str) -> list:
        """Send ``ops[i]`` to worker i and collect one reply each,
        polling with liveness checks so a dead worker raises
        :class:`WorkerLostError` instead of hanging the barrier.  The
        master flags SIGINT, so nothing asynchronous lands in here:
        every message is sent once, every reply read once."""
        for i, op in enumerate(ops):
            if not self.procs[i].is_alive():
                raise self._lost(i, phase)
            payload = pickle.dumps(op)
            self.traffic += len(payload)
            try:
                self.conns[i].send_bytes(payload)
            except OSError:
                raise self._lost(i, phase) from None
        replies = []
        for i, conn in enumerate(self.conns):
            while True:
                try:
                    if conn.poll(_LIVENESS_POLL_SECONDS):
                        payload = conn.recv_bytes()
                        break
                except (EOFError, OSError):
                    raise self._lost(i, phase) from None
                if not self.procs[i].is_alive():
                    raise self._lost(i, phase)
            self.traffic += len(payload)
            replies.append(pickle.loads(payload))
        return replies

    def _lost(self, i: int, phase: str) -> WorkerLostError:
        """The one line a dead worker ends the run with."""
        message = f"worker {i} died during {phase}"
        written = self.checker._policy.written
        if written is not None:
            message += (f"; the newest checkpoint is {written} "
                        f"(continue with --resume {written})")
        return WorkerLostError(message)


class ParallelChecker(ModelChecker):
    """The serial checker with its expand and accept steps run by
    ``workers`` forked processes (module docstring; ``fork`` only; one
    by default, as :meth:`fresh_clone` builds a replayer), its other
    options :class:`~repro.verify.checker.ModelChecker`'s.  It is always
    fingerprint-keyed and refuses ``liveness`` and ``atlas``.  ``run()``
    returns the serial run's :class:`CheckResult`, ``workers`` set.  The
    memory budget adds each worker's peak RSS as of its last reply
    (pages it shares with the master count twice)."""

    def __init__(self, protocol: CompiledProtocol, *, workers: int = 1,
                 **checker_options):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        refuse_graph_modes(workers=workers, **checker_options)
        super().__init__(protocol, fingerprint_states=True,
                         **checker_options)
        self.workers = workers

    def run(self) -> CheckResult:
        # key -> (worker, proposals, repeats, fires, error), not yet
        # played back; (key, worker | seed state), not yet dispatched;
        # key -> the workers that proposed it in the last wave.
        self._expanded, self._pending, self._holders = {}, [], {}
        self._shared = False
        self._worker_rss = [0.0] * self.workers
        with _Fleet(self) as self._fleet:
            return super().run()

    def _expand(self, state, key):
        if key not in self._expanded:
            self._dispatch()
        worker, proposals, repeats, fires, error = self._expanded.pop(key)
        handler_fires = self._handler_fires
        for fire, count in fires.items():
            handler_fires[fire] = handler_fires.get(fire, 0) + count
        moves = repeats
        for before, label, succ_key, verdict in proposals:
            yield from [(None, None, 0, None)] * before
            yield label, None, key ^ succ_key, (worker, verdict)
            moves += before + 1
        yield from [(None, None, 0, None)] * repeats
        if error is not None:
            raise error
        if self.profiler is not None:     # as the serial expand step does
            self.profiler.add_out_degree(moves)

    def _accept(self, state, key, depth: int, judge=True):
        if state is not None:                 # a seed, judged here
            held, message = state, super()._accept(state, key, depth, judge)
        else:
            if depth > self._max_depth:
                self._max_depth = depth
            held, message = judge             # see _expand
        if message is None:
            self._pending.append((key, held))
        return message

    def _dispatch(self) -> None:
        """One ``expand`` barrier: each pending entry to the least loaded
        worker that holds its state, the fewest-holder entries first.
        Every proposer of the last wave holds a state; under symmetry,
        only the one the loop took holds the concrete state its parent
        chain names, unless every worker expanded the same states.
        Seeds go round-robin, or to all while fewer than the workers."""
        n, pending, holders = self.workers, self._pending, self._holders
        self._pending, self._holders = [], {}
        seeds = [entry for entry in pending if not isinstance(entry[1], int)]
        plays = {key: i % n for i, (key, _state) in enumerate(seeds)}
        load = [0] * n
        for key, held in sorted(pending, key=lambda entry: len(
                holders.get(entry[0], ()))):
            if key not in plays:
                plays[key] = min(holders[key] if self._canon is None
                                 or self._shared else [held],
                                 key=load.__getitem__)
                load[plays[key]] += 1
        batches: list = [[] for _ in range(n)]
        self._shared = 0 < len(seeds) < n
        for key, held in pending:
            if isinstance(held, int):
                batches[plays[key]].append((key, None))
            else:
                for worker in range(n) if self._shared else [plays[key]]:
                    batches[worker].append((key, held))
        fleet, prof = self._fleet, self.profiler
        if not fleet.procs:
            fleet.start(n)
        began, traffic = time.perf_counter(), fleet.traffic
        replies = fleet.call_all([("expand", batch) for batch in batches],
                                 "expand")
        played = [0] * n
        for worker, (batch, reply) in enumerate(zip(batches, replies)):
            self._worker_rss[worker] = reply["rss_mb"]
            for (key, _state), expansion in zip(batch, reply["expanded"]):
                if plays[key] == worker:
                    self._expanded[key] = (worker, *expansion)
                    played[worker] += 1
                for _before, _label, succ_key, _verdict in expansion[0]:
                    self._holders.setdefault(succ_key, []).append(worker)
        if prof is not None:
            prof.record_wave(time.perf_counter() - began, [
                {"id": worker, "busy_seconds": reply["seconds"],
                 "accepted": played[worker]}
                for worker, reply in enumerate(replies)])
            prof.add_cross_shard(
                sum(len(expansion[0]) for reply in replies
                    for expansion in reply["expanded"]),
                fleet.traffic - traffic)

    def _rss_mb(self) -> float:
        return super()._rss_mb() + sum(self._worker_rss)

    def _finish(self, violation, **counts) -> CheckResult:
        if self.profiler is not None and self._fleet.procs:
            for payload in self._fleet.call_all(
                    [("finish",)] * self.workers, "finish"):
                self.profiler.merge_worker(payload)
        return super()._finish(violation, workers=self.workers, **counts)

    # -- a worker -----------------------------------------------------------

    def _serve(self, conn, master_ends) -> None:
        """A worker's life: this checker, forked, running the serial
        expand and accept steps on the states it is sent, SIGINT ignored,
        the master's pipe ends closed (its death then closes the last)."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for end in master_ends:
            end.close()
        if self.profiler is not None:   # forked with the master's counts
            self.profiler.__init__()
        expand, accept = super()._expand, super()._accept
        seen: set = set()      # every key this worker proposed
        stash: dict = {}       # key -> state, the last dispatch's proposals
        while True:
            try:
                op, *args = conn.recv()
            except (EOFError, OSError):
                return                        # the master is gone
            started = time.perf_counter()
            if op == "finish":
                reply = self.profiler.worker_payload()
            else:
                batch = [(key, stash[key] if state is None else state)
                         for key, state in args[0]]
                stash, expanded = {}, []
                for key, state in batch:
                    self._handler_fires = fires = {}
                    proposals, repeats, error = [], 0, None
                    try:
                        for label, successor, delta, judge in expand(
                                state, key):
                            succ_key = (self.fingerprint_fn(successor)
                                        if delta is None else key ^ delta)
                            if succ_key in seen:
                                repeats += 1
                                continue
                            seen.add(succ_key)
                            stash[succ_key] = successor
                            proposals.append((repeats, label, succ_key,
                                              accept(successor, succ_key, 0,
                                                     judge)))
                            repeats = 0
                    except (_LabelledViolation, SymmetryError) as stop:
                        error = stop
                    expanded.append((proposals, repeats, fires, error))
                reply = {"expanded": expanded, "rss_mb": peak_rss_mb(),
                         "seconds": time.perf_counter() - started}
            try:
                conn.send(reply)
            except OSError:
                return                        # the master is gone
