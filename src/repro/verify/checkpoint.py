"""The checkpoint format, shared by both checking engines.

A checkpoint is pure JSON (kind ``teapot-parallel-checkpoint``, v2 --
the name is historical; the serial checker writes and resumes the same
format; v1 had the same shape but keyed states by a BLAKE2b over the
whole encoding, so its keys mean nothing to this build and a v1 file is
refused).  This module is the single owner of that format -- a
:class:`Cut` is the exploration at a clean cut, every writer goes
through :meth:`Cut.write`, every resume through
:func:`decode_checkpoint` and :func:`replay_frontier` -- and of the
on-disk concerns both engines share:

* **Atomic writes** -- every checkpoint goes through
  :func:`repro.ioutil.atomic_write_text` (tmp + fsync + rename), so a
  crash mid-write can never leave a parseable-but-partial file.
* **A payload seal** -- a BLAKE2b digest over the canonical JSON of the
  payload (excluding the ``seal`` field itself and the volatile
  ``elapsed`` wall-clock, which legitimately differs between otherwise
  identical runs).  :func:`load_checkpoint` verifies it, turning
  bit-flips and truncation into a one-line :class:`CheckpointError`
  instead of a resumed-from-garbage run.  (A payload with no ``seal``
  key loads unverified.)
* **Rotation** -- ``keep_last`` > 1 shifts ``path`` -> ``path.1`` ->
  ``path.2`` ... before each write, keeping a bounded history of the
  newest checkpoints.
* **Config echo** -- the configuration fingerprint embedded in every
  checkpoint so a resume against a different protocol/topology fails
  loudly rather than exploring nonsense.
* **The stop/checkpoint policy** -- :class:`CutPolicy`, asked at every
  clean cut by both engines, and :func:`flag_sigint`, the one way
  either engine takes a Ctrl-C.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.ioutil import atomic_write_text, check_envelope, read_json
from repro.verify.fingerprint import state_from_jsonable

CHECKPOINT_KIND = "teapot-parallel-checkpoint"
CHECKPOINT_VERSION = 2

# A cut's counting fields, by their names in a Cut and on disk.
_COUNTED = ("wave", "transitions", "max_depth", "elapsed",
            "invariant_evals", "handler_fires")

# Keys excluded from the seal: the seal itself, and the one field two
# byte-identical explorations legitimately disagree on (wall time).
_UNSEALED_KEYS = ("seal", "elapsed")

# Periodic checkpoints self-limit: a scheduled write is deferred until
# the time since the last write is at least this multiple of that
# write's measured cost, capping checkpoint time at <= 1/(1+ratio) =
# 5% of wall regardless of state-space size or filesystem speed --
# half the 10% budget the CI bench gate enforces, so the measured
# overhead clears the gate even under scheduling noise.  The interval
# flags are therefore a request, not a promise of cadence; a slow disk
# widens the spacing instead of stalling the search.
PERIODIC_SPACING_RATIO = 19.0


def visited_container_bytes(visited, parents) -> int:
    """The checkers' visited-set memory estimate: container overhead of
    the visited set plus the parent-pointer table.  One definition,
    three consumers: the profiler's ``visited_bytes`` stat, the serial
    checker's ``BudgetOptions.max_visited_bytes`` cap (the ``memory``
    stop of :class:`CutPolicy`), and the parallel workers' per-shard
    byte reports the master sums for the same cap."""
    return sys.getsizeof(visited) + sys.getsizeof(parents)


class CheckpointError(ValueError):
    """A checkpoint file is malformed, corrupt, or belongs to another
    run."""


class CutPolicy:
    """When a run stops at, or periodically checkpoints, a clean cut:
    a point where every visited state is either fully expanded or
    waiting unexpanded in the frontier, so a checkpoint taken there
    resumes to the exact uninterrupted result.  The serial checker
    reaches one before each frontier pop, the parallel master at each
    wave boundary, and both ask this object -- the one definition of
    the state cap, Ctrl-C, the deadline, the visited-byte budget and the
    periodic cadence.  ``checker`` is the serial checker (or parallel
    template) whose settings apply, ``start`` the ``perf_counter``
    reading the deadline counts from, ``wave`` the cut the run starts
    at."""

    def __init__(self, checker, start: float, wave: int):
        self.checker = checker
        self.start = start
        # Whether any stop but the state cap can fire: the serial
        # checker asks per popped state only when armed, so unarmed
        # runs execute the loop the hot path always ran.
        self.armed = (checker.checkpoint_out is not None
                      or checker.deadline_seconds is not None
                      or checker.max_visited_bytes is not None)
        self._last_wave = wave
        self._last_time = time.perf_counter()
        self._last_cost = 0.0

    def stop(self, states: int, interrupted: bool, visited_bytes,
             write) -> "str | None":
        """Why the run stops at this cut, or None: ``state_limit``
        (a plain ``max_states`` truncation, not a
        ``CheckResult.stop_reason``), ``interrupted``, ``deadline`` or
        ``memory`` (``visited_bytes()`` is the visited set's size).  A
        stop checkpoints the cut durably through ``write(durable)``, the
        engine's writer, when a checkpoint path is configured."""
        checker = self.checker
        if states >= checker.max_states:
            reason = "state_limit"
        elif interrupted:
            reason = "interrupted"
        elif (checker.deadline_seconds is not None
              and time.perf_counter() - self.start
              >= checker.deadline_seconds):
            reason = "deadline"
        elif (checker.max_visited_bytes is not None
              and visited_bytes() > checker.max_visited_bytes):
            reason = "memory"
        else:
            return None
        if checker.checkpoint_out is not None:
            self._write(write, True)
        return reason

    def write_if_due(self, wave: int, write) -> None:
        """Checkpoint a cut the run continues from, when a periodic
        write is due.  Periodic writes skip the fsync: their loss
        window is the next interval, and a durable write still lands at
        every stop.  The spacing guard self-limits checkpoint time to a
        bounded wall-time fraction (see PERIODIC_SPACING_RATIO)."""
        waves = self.checker.checkpoint_interval_waves
        seconds = self.checker.checkpoint_interval_seconds
        if self.checker.checkpoint_out is None or not (waves or seconds):
            return
        now = time.perf_counter()
        since = now - self._last_time
        if (since < PERIODIC_SPACING_RATIO * self._last_cost
                or not ((waves and wave - self._last_wave >= waves)
                        or (seconds and since >= seconds))):
            return
        self._last_cost = self._write(write, False)
        self._last_wave = wave
        self._last_time = time.perf_counter()

    def _write(self, write, durable: bool) -> float:
        """Run the engine's writer, timed as ``checkpoint_io``."""
        started = time.perf_counter()
        write(durable)
        cost = time.perf_counter() - started
        if self.checker.profiler is not None:
            self.checker.profiler.add_phase("checkpoint_io", cost)
        return cost


@contextmanager
def flag_sigint(wanted: bool = True):
    """Ctrl-C as both engines take it.  For the life of the block
    SIGINT sets the yielded ``cell[0]`` instead of raising, so no
    ``KeyboardInterrupt`` can land inside a state's expansion or a
    message to a worker; the run acts on the flag only where it asks
    :meth:`CutPolicy.stop`, its next clean cut, and a second Ctrl-C just
    sets it again.  Unless ``wanted``, and off the main thread (which
    alone may install a handler), the cell stays False and SIGINT
    raises as usual."""
    cell = [False]
    if not (wanted
            and threading.current_thread() is threading.main_thread()):
        yield cell
        return

    def flag(_signum, _frame):
        cell[0] = True

    previous = signal.signal(signal.SIGINT, flag)
    try:
        yield cell
    finally:
        signal.signal(signal.SIGINT, previous)


def _canonical_and_seal(payload: dict) -> tuple:
    """The payload's canonical JSON (sorted keys, compact separators,
    the unsealed fields excluded) and its BLAKE2b digest."""
    body = {key: value for key, value in payload.items()
            if key not in _UNSEALED_KEYS}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return canonical, hashlib.blake2b(canonical.encode(),
                                      digest_size=16).hexdigest()


def write_checkpoint(path: str, payload: dict, keep_last: int = 1,
                     durable: bool = True) -> None:
    """Seal and atomically write a checkpoint, rotating prior files.

    With ``keep_last=N`` the previous checkpoint survives as
    ``path.1`` (and older ones as ``path.2`` ... ``path.N-1``).

    The payload is serialized exactly once: the canonical JSON the seal
    is computed over *is* the file body, with the unsealed fields
    (``seal``, ``elapsed``) spliced onto the end.  Periodic checkpoints
    fire many times per run, and serializing a large visited set twice
    (once to seal, once to write) was the single biggest cost.

    ``durable=False`` skips the fsync (rename atomicity is kept):
    right for *periodic* checkpoints, whose loss window is the next
    interval; final and stop-reason checkpoints should stay durable."""
    keep_last = max(1, int(keep_last))
    for age in range(keep_last - 1, 0, -1):
        older = path if age == 1 else f"{path}.{age - 1}"
        if os.path.exists(older):
            os.replace(older, f"{path}.{age}")
    canonical, seal = _canonical_and_seal(payload)
    tail = f',"seal":{json.dumps(seal)}'
    if "elapsed" in payload:
        tail += f',"elapsed":{json.dumps(payload["elapsed"])}'
    atomic_write_text(path, f"{canonical[:-1]}{tail}}}\n", fsync=durable)


def load_checkpoint(path: str) -> dict:
    """Read, seal-verify, and structurally validate a checkpoint.

    Every failure mode is a one-line :class:`CheckpointError`: not
    JSON (truncated or binary-corrupted), wrong kind, unknown version,
    or a seal mismatch (bit-flipped payload)."""
    payload = check_envelope(
        read_json(path, CheckpointError, "checkpoint"), path,
        CheckpointError, "checkpoint", "verify --checkpoint-out",
        CHECKPOINT_KIND, CHECKPOINT_VERSION, version_key="v")
    stored_seal = payload.get("seal")
    if stored_seal is not None:
        computed = _canonical_and_seal(payload)[1]
        if stored_seal != computed:
            raise CheckpointError(
                f"{path}: seal mismatch (stored {stored_seal[:12]}..., "
                f"computed {computed[:12]}...); the checkpoint was "
                "corrupted or edited after it was written")
    for key in (*_COUNTED, "visited", "parents", "frontier"):
        if key not in payload:
            raise CheckpointError(
                f"{path}: checkpoint is missing the {key!r} field")
    return payload


def config_echo(checker) -> dict:
    """The configuration fingerprint embedded in every checkpoint.

    ``checker`` is a serial :class:`~repro.verify.checker.ModelChecker`
    (the parallel engine passes its template, which carries the same
    fields)."""
    echo = {
        "protocol": checker.protocol.name,
        "n_nodes": checker.n_nodes,
        "n_blocks": checker.n_blocks,
        "reorder_bound": checker.reorder_bound,
        "channel_cap": checker.channel_cap,
        "events": type(checker.events).__name__,
    }
    # Included only when nonzero so fault-free checkpoints written
    # before fault budgets existed still validate against the same
    # configuration today.
    if checker.fault_budget != (0, 0):
        echo["faults"] = list(checker.fault_budget)
    # Same back-compat shape: a symmetry-reduced run's visited set is
    # keyed by canonical fingerprints, so its checkpoints must never
    # resume an unreduced run (or vice versa).
    if checker.symmetry:
        echo["symmetry"] = True
    return echo


# Echo keys that are present only when their feature is on.  A resume
# must compare them whenever *either* side carries one: a checkpoint
# with ``symmetry`` resumed by a run without it would dedupe concrete
# states against canonical fingerprints and silently skip states.
_OPTIONAL_ECHO_KEYS = ("faults", "symmetry")


def _hex(fp) -> "str | None":
    return None if fp is None else f"{fp:016x}"


def _unhex(text) -> "int | None":
    return None if text is None else int(text, 16)


def min_edge_fold(records, visited) -> dict:
    """The canonical parent edge for each freshly proposed state.

    ``records`` are ``(fp, parent fp, label, depth, ...)`` proposals.
    States already in ``visited`` are dropped; a state proposed by
    several edges keeps the record with the minimum ``(depth, parent fp,
    label)`` (a missing parent sorts first), so the spanning tree is a
    pure function of the state graph -- independent of partitioning,
    arrival order, and of where a run was cut and resumed, even mid-layer
    (the shallowest edge is BFS's).  Returns ``{fp: record}`` in
    first-proposal order."""
    best: dict = {}
    for record in records:
        fp = record[0]
        if fp in visited:
            continue
        current = best.get(fp)
        if current is None or _edge(record) < _edge(current):
            best[fp] = record
    return best


def _edge(record) -> tuple:
    return (record[3], record[1] if record[1] is not None else -1,
            record[2] or "")


@dataclass
class Cut:
    """The exploration at a clean cut: ``visited`` is fully expanded,
    ``frontier`` waits unaccepted (before dedupe and invariants, one
    canonical edge per state), the counters are what reaching the cut
    cost.  A run starts from one (:func:`starting_cut`: a decoded
    checkpoint or the initial state), the parallel master carries one
    from wave to wave (:meth:`advance`), and every checkpoint of either
    engine is one written out (:meth:`write`).  Fingerprints are ints."""

    wave: int
    transitions: int
    max_depth: int
    elapsed: float
    invariant_evals: dict
    handler_fires: dict
    visited: set
    parents: dict    # fp -> (parent fp | None, label), expanded states
    frontier: dict   # fp -> (parent fp | None, label, depth), unaccepted
    states: dict     # fp -> concrete frontier state, where stored inline

    def advance(self, proposals) -> None:
        """Move the containers to the next cut in place: the old
        frontier, accepted and expanded, joins ``visited`` and its edges
        ``parents``; the ``(fp, parent fp, label, depth, ...)``
        ``proposals`` its expansion routed, folded as their owners will
        fold them (:func:`min_edge_fold`), are the new frontier, their
        states held elsewhere.  The counting fields are the caller's."""
        self.visited.update(self.frontier)
        for fp, (pfp, label, _depth) in self.frontier.items():
            self.parents[fp] = (pfp, label)
        self.frontier = {
            fp: (pfp, label, depth) for fp, pfp, label, depth, *_rest
            in min_edge_fold(proposals, self.visited).values()}
        self.states = {}

    def encode(self, echo: dict) -> dict:
        """The v2 payload.  ``visited`` and ``parents`` may be a
        writer's live containers, already holding the frontier (the
        serial loop accepts a state when it queues it): frontier keys
        are skipped there, so no writer copies a container to drop them."""
        frontier = self.frontier
        return {
            **echo,
            "kind": CHECKPOINT_KIND,
            "v": CHECKPOINT_VERSION,
            **{key: getattr(self, key) for key in _COUNTED},
            "visited": [f"{fp:016x}" for fp in self.visited
                        if fp not in frontier],
            "parents": {f"{fp:016x}": [_hex(pfp), label]
                        for fp, (pfp, label) in self.parents.items()
                        if fp not in frontier},
            # Frontier states are stored by reference (null state slot):
            # the (parent fp, label) chain reconstructs each one at resume
            # by replay.  Serializing thousands of concrete frontier states
            # made every periodic write O(frontier x state size) -- the
            # dominant cost of checkpointing; the chain reference is a few
            # bytes.
            "frontier": [[f"{fp:016x}", None, _hex(pfp), label, depth]
                         for fp, (pfp, label, depth) in frontier.items()],
        }

    def write(self, checker, durable: bool = True) -> None:
        """Write this cut as ``checker``'s checkpoint (its path,
        rotation depth and configuration echo): the one writer behind
        every checkpoint of either engine."""
        write_checkpoint(checker.checkpoint_out,
                         self.encode(config_echo(checker)),
                         checker.checkpoint_keep_last, durable=durable)


def decode_checkpoint(payload: dict, echo: dict, path: str) -> Cut:
    """Validate a loaded payload against the resuming run's ``echo`` and
    decode it.  A configuration mismatch is a one-line
    :class:`CheckpointError`."""
    keys = list(echo) + [key for key in _OPTIONAL_ECHO_KEYS
                         if key in payload and key not in echo]
    diffs = ", ".join(
        f"{key}: checkpoint={payload.get(key)!r} run={echo.get(key)!r}"
        for key in keys if payload.get(key) != echo.get(key))
    if diffs:
        raise CheckpointError(
            f"{path}: checkpoint is for a different configuration "
            f"({diffs})")
    visited = {int(fp, 16) for fp in payload["visited"]}
    # The frontier is pre-acceptance in the on-disk format: a state may
    # be proposed by several senders, or already be visited at its owner.
    frontier = min_edge_fold(
        ((int(fp, 16), _unhex(pfp), label, depth, state)
         for fp, state, pfp, label, depth in payload["frontier"]),
        visited)
    return Cut(
        wave=payload["wave"],
        transitions=payload["transitions"],
        max_depth=payload["max_depth"],
        elapsed=payload["elapsed"],
        invariant_evals=dict(payload["invariant_evals"]),
        handler_fires=dict(payload["handler_fires"]),
        visited=visited,
        parents={int(fp, 16): (_unhex(pfp), label)
                 for fp, (pfp, label) in payload["parents"].items()},
        frontier={fp: (pfp, label, depth)
                  for fp, pfp, label, depth, _state in frontier.values()},
        states={fp: state_from_jsonable(record[4])
                for fp, record in frontier.items()
                if record[4] is not None})


def starting_cut(checker) -> Cut:
    """The cut ``checker``'s run starts from: its decoded ``resume``
    checkpoint, or the trivial cut whose frontier is the initial state
    -- so a fresh run and a resumed one enter the search the same way."""
    if checker.resume:
        return decode_checkpoint(load_checkpoint(checker.resume),
                                 config_echo(checker), checker.resume)
    initial = checker.initial_state()
    key = (checker.fingerprint_fn(initial) if checker.fingerprint_states
           else initial)
    return Cut(wave=0, transitions=0, max_depth=0, elapsed=0.0,
               invariant_evals={}, handler_fires={}, visited=set(),
               parents={}, frontier={key: (None, "<initial>", 0)},
               states={key: initial})


def replay_frontier(checker, parents: dict, frontier: dict, states: dict,
                    where: str) -> dict:
    """Concrete states for frontier records stored by reference.

    ``frontier`` maps fp -> ``(parent fp, label, ...)``, ``parents``
    holds the expanded states' edges, and ``states`` the frontier states
    already on hand; the rest are rebuilt by replaying each record's
    parent-label chain from the initial state -- the same deterministic
    replay that validates counterexample traces, so a chain that fails
    to replay is a real integrity error.  ``checker`` is the resuming
    run's serial checker (or the parallel template)."""
    from repro.verify.checker import TraceReplayError, replay_step

    replayer = checker.fresh_clone()
    found = dict(states)
    # Sibling frontier states share almost their whole chain, so
    # replayed ancestors are cached by fingerprint: each chain replays
    # only the suffix below its deepest cached one (None roots them all).
    cache: dict = {None: checker.initial_state()}
    for fp, record in frontier.items():
        if fp in found:
            continue
        chain = [(fp, record[0], record[1])]
        cursor = record[0]
        while cursor not in cache:
            try:
                up, label = parents[cursor]
            except KeyError:
                raise CheckpointError(
                    f"{where}: frontier state {fp:016x} has a broken "
                    f"parent chain (missing ancestor {cursor:016x})"
                ) from None
            chain.append((cursor, up, label))
            cursor = up
        state = cache[cursor]
        for node_fp, up, label in reversed(chain):
            if up is not None:      # the root's edge is a marker, not a rule
                try:
                    state = replay_step(replayer, state, label)
                except TraceReplayError as error:
                    raise CheckpointError(
                        f"{where}: frontier replay failed ({error}); the "
                        "checkpoint does not match this protocol build"
                    ) from None
            cache[node_fp] = state
        found[fp] = state
    return found
