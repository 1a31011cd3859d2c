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

* **Atomic, streamed writes** -- every checkpoint goes through
  :func:`repro.ioutil.atomic_write_text` (tmp + fsync + rename) a batch
  of states at a time, so a crash mid-write can never leave a
  parseable-but-partial file, nor a write hold the whole encoding.
* **A payload seal** -- a BLAKE2b digest over the canonical JSON of the
  payload (excluding the ``seal`` field itself and the volatile
  ``elapsed`` wall-clock).  :func:`load_checkpoint` verifies it, turning
  bit-flips and truncation into a one-line :class:`CheckpointError`.
  (A payload with no ``seal`` key loads unverified.)
* **Rotation** -- ``keep_last`` > 1 shifts ``path`` -> ``path.1`` ->
  ``path.2`` ... before each write, keeping a bounded history of the
  newest checkpoints.
* **Config echo** -- the configuration fingerprint embedded in every
  checkpoint so a resume against a different protocol/topology fails
  loudly rather than exploring nonsense.
* **The stop/checkpoint policy** -- :class:`CutPolicy`, asked at every
  clean cut of every run, and :func:`flag_sigint`, the one way any run
  takes a Ctrl-C.  The policy also keeps the run's clock and timeline,
  which progress lines print.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from types import GeneratorType

from _blake2 import blake2b     # hashlib's, without its OpenSSL load

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

# A checkpointed run paces its own snapshots: one is due at a clean cut
# once the time since the last write is at least this multiple of what
# the new one should cost (the last one's, grown with the visited set),
# so checkpoint I/O stays under 1/(1+ratio) = 5% of wall time whatever
# the state-space size or filesystem speed.  A slow disk widens the
# spacing instead of stalling the search; where a write costs more than
# 1/ratio of the exploration since the last, none is due again.  The
# first cut is due at once (no write has a cost yet), so a run killed
# early still leaves a checkpoint.
PERIODIC_SPACING_RATIO = 19.0

# Progress lines print the run's timeline: its first point, its last,
# and in between a point at least this many seconds after the last line.
PROGRESS_SPACING_SECONDS = 1.0


def visited_container_bytes(visited, parents) -> int:
    """The profiler's ``visited_bytes`` stat: the container overhead of
    the visited set and parent table (the memory budget measures RSS)."""
    return sys.getsizeof(visited) + sys.getsizeof(parents)


def peak_rss_mb() -> float:
    """This process's peak resident set in MB: ``ru_maxrss`` (KiB on
    Linux), the number ``bench/`` reports as ``peak_rss_mb``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CheckpointError(ValueError):
    """A checkpoint file is malformed, corrupt, or another run's."""


class CutPolicy:
    """When a run stops at, or snapshots, a clean cut: a point where
    every visited state is fully expanded or waits unexpanded in the
    frontier, so a checkpoint taken there resumes to the exact
    uninterrupted result.  Every run asks at every one (serially before
    each pop, in parallel at each wave boundary): the one definition of
    the state cap, Ctrl-C, the deadline, the memory budget, the
    snapshot cadence -- and of the run's timeline, one point at the
    first cut of every BFS layer or wave plus a final one
    (:meth:`finish`), the points ``--progress`` prints and the profile
    keeps.  ``checker`` (or the parallel template) holds the settings,
    ``start`` is when this process's clock (the deadline's) started and
    ``elapsed`` what a resumed checkpoint had already spent: the run's
    clock (:meth:`elapsed`) spans both."""

    def __init__(self, checker, start: float, elapsed: float = 0.0):
        self.checker = checker
        self.start = start
        self.timeline: list[dict] = []
        self._origin = start - elapsed
        self._max_states = checker.max_states
        self._deadline = checker.deadline_seconds
        self._max_rss_mb = checker.max_rss_mb
        self._path = checker.checkpoint_out
        self._depth = None          # the layer of the last point
        self._printed = None        # the last point printed
        self._last_time = time.perf_counter()
        self._last = (0, 0.0)       # the last snapshot's (states, cost)
        self._per_state = 0.0       # the cost of a state, between the two

    def elapsed(self) -> float:
        """The whole run's time so far, a resumed checkpoint's included."""
        return time.perf_counter() - self._origin

    def at_cut(self, states: int, frontier: int, depth: int,
               transitions: int, evals: dict, interrupted: bool, write,
               others_rss_mb: float = 0.0, extra: str = "") -> "str | None":
        """Why the run stops at this cut, or None: ``state_limit`` (a
        plain ``max_states`` truncation, not a
        ``CheckResult.stop_reason``), ``interrupted``, ``deadline`` or
        ``memory`` -- this process's peak RSS, read once per layer, plus
        ``others_rss_mb`` (the parallel workers') past the budget.
        ``depth`` is the layer (wave) the cut opens; the first cut at a
        new one adds a timeline point of ``states``, ``frontier`` and
        ``transitions`` (``evals``, the invariant evaluation counts, and
        ``extra``, a suffix, are for its progress line).  With a
        checkpoint path the cut is written through ``write(durable)``,
        the engine's writer: durably at a stop, otherwise when a
        snapshot is due (:meth:`_due`)."""
        new_layer = depth != self._depth
        if new_layer:
            self._depth = depth
            self._point(states, frontier, depth, transitions,
                        self.elapsed(), evals, extra)
        if states >= self._max_states:
            reason = "state_limit"
        elif interrupted:
            reason = "interrupted"
        elif (self._deadline is not None
              and time.perf_counter() - self.start >= self._deadline):
            reason = "deadline"
        elif (self._max_rss_mb is not None and new_layer
              and peak_rss_mb() + others_rss_mb > self._max_rss_mb):
            reason = "memory"
        else:
            if self._path is not None and self._due(states):
                cost = self._write(write, False)
                if 0 < self._last[0] < states:
                    self._per_state = max(0.0, (cost - self._last[1])
                                          / (states - self._last[0]))
                self._last = (states, cost)
                self._last_time = time.perf_counter()
            return None
        if self._path is not None:
            self._write(write, True)
        return reason

    def finish(self, states: int, frontier: int, depth: int,
               transitions: int, evals: dict, elapsed: float,
               extra: str = "") -> list:
        """The run's final point, at the result's counts and ``elapsed``
        (so its rate is the result's); returns the timeline."""
        self._point(states, frontier, depth, transitions, elapsed, evals,
                    extra, final=True)
        return self.timeline

    def _point(self, states: int, frontier: int, depth: int,
               transitions: int, t: float, evals: dict, extra: str,
               final: bool = False) -> None:
        """Add a timeline point; print it as a progress line when it is
        the first, the last, or PROGRESS_SPACING_SECONDS after the last
        line printed."""
        point = {"t": round(t, 6), "states": states, "frontier": frontier,
                 "depth": depth, "transitions": transitions,
                 "states_per_s": round(states / t, 1) if t > 0 else 0.0}
        self.timeline.append(point)
        stream = self.checker.progress_stream
        last = self._printed
        if stream is None or not (
                final or last is None
                or point["t"] - last["t"] >= PROGRESS_SPACING_SECONDS):
            return
        self._printed = point
        rate = states / t if t > 0 else float(states)
        detail = ""
        if last is not None and point["t"] > last["t"]:
            # The rolling rate: over the points since the last line.
            rolling = (states - last["states"]) / (point["t"] - last["t"])
            detail = f" (rolling {rolling:.0f}/s"
            if not final and 0 < rolling and states < self._max_states:
                # A ceiling: a frontier that empties sooner ends sooner.
                eta = (self._max_states - states) / rolling
                detail += f", eta<={_fmt_eta(eta)} to state cap"
            detail += ")"
        print(f"[verify {self.checker.protocol.name}] states={states} "
              f"frontier={frontier} depth={depth} "
              f"transitions={transitions} inv_evals={sum(evals.values())} "
              f"{rate:.0f} states/s{detail}{extra} "
              f"{'done' if final else '...'}", file=stream, flush=True)

    def _due(self, states: int) -> bool:
        """Whether this cut gets a snapshot (non-durable): once the time
        since the last write is PERIODIC_SPACING_RATIO times what this
        one should cost -- the last one's, plus the states since at the
        cost per state between the last two."""
        estimate = self._last[1] + self._per_state * (states - self._last[0])
        return (time.perf_counter() - self._last_time
                >= PERIODIC_SPACING_RATIO * estimate)

    def _write(self, write, durable: bool) -> float:
        """Run the engine's writer, timed as ``checkpoint_io``."""
        started = time.perf_counter()
        write(durable)
        cost = time.perf_counter() - started
        if self.checker.profiler is not None:
            self.checker.profiler.add_phase("checkpoint_io", cost)
        return cost


def _fmt_eta(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


@contextmanager
def flag_sigint():
    """Ctrl-C as every run takes it: for the life of the block SIGINT
    sets the yielded ``cell[0]`` instead of raising, so no
    ``KeyboardInterrupt`` lands inside an expansion or a worker message;
    the run acts on it at its next :meth:`CutPolicy.at_cut`.  Off the
    main thread (which alone may install a handler) SIGINT raises."""
    cell = [False]
    if threading.current_thread() is not threading.main_thread():
        yield cell
        return

    def flag(_signum, _frame):
        cell[0] = True

    previous = signal.signal(signal.SIGINT, flag)
    try:
        yield cell
    finally:
        signal.signal(signal.SIGINT, previous)


def _sealed_text(payload: dict, seal):
    """The file text of ``payload`` in pieces: its canonical JSON (sorted
    keys, compact separators, no unsealed fields) fed to the BLAKE2b
    ``seal`` as it goes, then the seal and ``elapsed``.  A generator
    value yields its own encoding (:func:`_json_batches`)."""
    opening = "{"
    for key in sorted(payload.keys() - set(_UNSEALED_KEYS)):
        value = payload[key]
        for piece in chain([f"{opening}{json.dumps(key)}:"], value
                           if isinstance(value, GeneratorType) else
                           [json.dumps(value, sort_keys=True,
                                       separators=(",", ":"))]):
            seal.update(piece.encode())
            yield piece
        opening = ","
    seal.update(b"}")
    yield f',"seal":"{seal.hexdigest()}"'
    if "elapsed" in payload:
        yield f',"elapsed":{json.dumps(payload["elapsed"])}'
    yield "}\n"


def _json_batches(brackets: str, encode, items):
    """A JSON array or object (``brackets`` ``"[]"`` / ``"{}"``) of
    ``items``, 4,096 at a time, ``encode(batch)`` the list or dict of
    their entries."""
    items = iter(items)
    yield brackets[0]
    comma = ""
    while batch := list(islice(items, 4096)):
        yield comma + json.dumps(encode(batch), separators=(",", ":"))[1:-1]
        comma = ","
    yield brackets[1]


def write_checkpoint(path: str, payload: dict, keep_last: int = 1,
                     durable: bool = True) -> None:
    """Seal and atomically write a checkpoint, rotating prior files.

    With ``keep_last=N`` the previous checkpoint survives as
    ``path.1`` (and older ones as ``path.2`` ... ``path.N-1``).

    The canonical JSON the seal is computed over *is* the file body,
    streamed (:func:`_sealed_text`).  ``durable=False`` skips the fsync
    (rename atomicity is kept), for snapshots."""
    keep_last = max(1, int(keep_last))
    for age in range(keep_last - 1, 0, -1):
        older = path if age == 1 else f"{path}.{age - 1}"
        if os.path.exists(older):
            os.replace(older, f"{path}.{age}")
    atomic_write_text(path, _sealed_text(payload, blake2b(
        digest_size=16)), fsync=durable)


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
        seal = blake2b(digest_size=16)
        deque(_sealed_text(payload, seal), maxlen=0)
        computed = seal.hexdigest()
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
        """The v2 payload, its containers as generators of their JSON
        (:func:`_json_batches`).  ``visited`` and ``parents`` may be a
        writer's live containers, already holding the frontier (the
        serial loop accepts a state when it queues it): frontier keys
        are skipped there, so no writer copies a container."""
        frontier, parents = self.frontier, self.parents
        return {
            **echo,
            "kind": CHECKPOINT_KIND,
            "v": CHECKPOINT_VERSION,
            **{key: getattr(self, key) for key in _COUNTED},
            "visited": _json_batches(
                "[]", lambda fps: [f"{fp:016x}" for fp in fps],
                (fp for fp in self.visited if fp not in frontier)),
            # Sorted as the seal's canonical JSON sorts keys: 64-bit
            # fingerprints' 16-digit hex sorts as the ints do.
            "parents": _json_batches(
                "{}", lambda fps: {f"{fp:016x}": [_hex(pfp), label]
                                   for fp in fps
                                   for pfp, label in [parents[fp]]},
                sorted(fp for fp in parents if fp not in frontier)),
            # Frontier states are stored by reference (null state slot):
            # the (parent fp, label) chain rebuilds each one at resume by
            # replay, a few bytes where the state would be hundreds.
            "frontier": _json_batches(
                "[]", lambda rows: [[f"{fp:016x}", None, _hex(pfp), label,
                                     depth]
                                    for fp, (pfp, label, depth) in rows],
                frontier.items()),
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
