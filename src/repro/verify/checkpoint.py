"""The checkpoint format, one for every run at any worker count.

A checkpoint is JSON (kind ``teapot-parallel-checkpoint``, v4 -- the
name is historical) holding a :class:`Cut` in the form the run keeps
it: the visited keys in acceptance order, each index's parent index and
label id -- three arrays, each stored as base64 of its little-endian
bytes -- the label table, how many indices were expanded (the frontier
is the rest), the two numbers that give every frontier row's depth,
the configuration echo and the cut's ``transitions``, ``elapsed`` and
``handler_fires`` (and any explored graph's rows; the ``--atlas-out``
file is the run's final cut, with a sealed header of its own); the
rest (the state count, the depth, the invariant evaluations) follows.  v1
keyed states by a BLAKE2b over the whole encoding, v2 carried fields no
resume read and v3 wrote a JSON row per state, so all three are
refused.  This module is the single owner of that format -- a
:class:`Cut` is the exploration at a clean cut, every writer encodes
through :meth:`Cut.encode` (a run's checkpoints through
:meth:`Cut.write`), every resume through
:func:`decode_checkpoint` and :func:`replay_frontier` -- and of the
on-disk concerns every run shares:

* **Atomic writes** -- every checkpoint goes through
  :func:`repro.ioutil.atomic_write_text` (tmp + fsync + rename), so a
  crash mid-write can never leave a parseable-but-partial file.
* **A payload seal** -- a BLAKE2b digest over the canonical JSON of the
  payload (excluding the ``seal`` field itself and the volatile
  ``elapsed`` wall-clock).  :func:`load_checkpoint` requires and
  verifies it, turning bit-flips and truncation into a one-line
  :class:`CheckpointError`.
* **Config echo** -- the configuration fingerprint embedded in every
  checkpoint so a resume against a different protocol/topology fails
  loudly rather than exploring nonsense.
* **The stop/checkpoint policy** -- :class:`CutPolicy`, asked at every
  clean cut of every run, and :func:`flag_sigint`, the one way any run
  takes a Ctrl-C.  The policy also keeps the run's clock and timeline,
  which progress lines print.
"""

from __future__ import annotations

import resource
import signal
import sys
import threading
import time
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import ge, gt

from _blake2 import blake2b     # hashlib's, without its OpenSSL load

from repro.ioutil import atomic_write_text, check_envelope, read_json

CHECKPOINT_KIND = "teapot-parallel-checkpoint"
CHECKPOINT_VERSION = 4

# A cut's counting fields, by their names in a Cut and on disk.
_COUNTED = ("transitions", "elapsed", "handler_fires")

# A cut's arrays on disk, by name, type code and length (one per index,
# per expanded row, per row plus one, per edge): the keys (``Cut.index``'s
# in index order), ``Cut.parent`` and ``Cut.label``, then the explored
# graph's, in the parts liveness or the atlas, liveness under symmetry
# and the atlas read.  A vector is stored per index, the frontier's too:
# the atlas file is the run's final cut.
_ARRAYS = (("keys", "Q", "n"), ("parent", "q", "n"), ("label", "I", "n"))
_GRAPH = (("the explored graph --liveness and --atlas-out read",
           ("offsets", "q", "ends"), ("targets", "I", "edges"),
           ("blocked", "q", "expanded")),
          ("the renamings --liveness --symmetry reads",
           ("renaming", "H", "edges"), ("canonical", "H", "expanded")),
          ("the edge labels and state vectors --atlas-out reads",
           ("edge_label", "I", "edges"), ("vector", "I", "n")))
_ALL = sum((arrays for _part, *arrays in _GRAPH), list(_ARRAYS))
_CODES = {name: code for name, code, _size in _ALL}
_CHUNK = 3 << 19    # the bytes an array is written in: 3 and 8 divide it

# Where a cut's frontier starts and what depths it spans (Cut).
_FRONTIER = ("expanded", "depth", "deeper")

# The arrays are stored little-endian; a big-endian host swaps them.
_SWAP = sys.byteorder == "big"

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
    uninterrupted result.  Every run asks before each pop, at any
    worker count: the one definition of the state cap, Ctrl-C, the
    deadline, the memory budget, the snapshot cadence -- and of the
    run's timeline, one point at the first cut of every BFS layer plus
    a final one (:meth:`finish`), the points ``--progress`` prints and
    the profile keeps.  ``checker`` holds the settings, ``start`` is
    when this process's clock (the deadline's) started and ``elapsed``
    what a resumed checkpoint had already spent: the run's clock
    (:meth:`elapsed`) spans both.  ``written`` is the newest checkpoint
    the run wrote, or None."""

    def __init__(self, checker, start: float, elapsed: float = 0.0):
        self.checker = checker
        self.start = start
        self.timeline: list[dict] = []
        self._origin = start - elapsed
        self._max_states = checker.max_states
        self._deadline = checker.deadline_seconds
        self._max_rss_mb = checker.max_rss_mb
        self._path = checker.checkpoint_out
        self.written = None
        self._depth = None          # the layer of the last point
        self._printed = None        # the last point printed
        self._last_time = time.perf_counter()
        self._last = (0, 0.0)       # the last snapshot's (states, cost)
        self._per_state = 0.0       # the cost of a state, between the two

    def elapsed(self) -> float:
        """The whole run's time so far, a resumed checkpoint's included."""
        return time.perf_counter() - self._origin

    def at_cut(self, states: int, frontier: int, depth: int,
               transitions: int, interrupted: bool,
               write) -> "str | None":
        """Why the run stops at this cut, or None: ``state_limit`` (a
        plain ``max_states`` truncation, not a
        ``CheckResult.stop_reason``), ``interrupted``, ``deadline`` or
        ``memory`` -- the checker's peak RSS (``_rss_mb``), read once per
        layer, past the budget.  ``depth`` is the layer the cut opens;
        the first cut at a new one adds a timeline point of ``states``,
        ``frontier`` and ``transitions``.  With a
        checkpoint path the cut is written through ``write(durable)``,
        the run's writer: durably at a stop, otherwise when a snapshot
        is due (:meth:`_due`)."""
        new_layer = depth != self._depth
        if new_layer:
            self._depth = depth
            self._point(states, frontier, depth, transitions,
                        self.elapsed())
        if states >= self._max_states:
            reason = "state_limit"
        elif interrupted:
            reason = "interrupted"
        elif (self._deadline is not None
              and time.perf_counter() - self.start >= self._deadline):
            reason = "deadline"
        elif (self._max_rss_mb is not None and new_layer
              and self.checker._rss_mb() > self._max_rss_mb):
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
               transitions: int, evals: int, elapsed: float) -> list:
        """The run's final point, at the result's counts, invariant
        evaluations and ``elapsed`` (so its rate is the result's);
        returns the timeline."""
        self._point(states, frontier, depth, transitions, elapsed, evals)
        return self.timeline

    def _point(self, states: int, frontier: int, depth: int,
               transitions: int, t: float, final_evals=None) -> None:
        """Add a timeline point; print it as a progress line when it is
        the first, the last (the one with ``final_evals``), or
        PROGRESS_SPACING_SECONDS after the last line printed.  Before
        the last, every state was judged by the whole suite."""
        final = final_evals is not None
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
        evals = (final_evals if final
                 else states * len(self.checker.invariants))
        print(f"[verify {self.checker.protocol.name}] states={states} "
              f"frontier={frontier} depth={depth} "
              f"transitions={transitions} inv_evals={evals} "
              f"{rate:.0f} states/s{detail} "
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
        """Run the run's writer, timed as ``checkpoint_io``."""
        started = time.perf_counter()
        write(durable)
        cost = time.perf_counter() - started
        self.written = self._path
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


def _base64(values, count: int):
    """Base64 of the first ``count`` items of ``values`` (an array, or an
    iterator of keys stored as 'Q'), little-endian, a chunk at a time."""
    import base64

    step = _CHUNK // getattr(values, "itemsize", 8)
    for at in range(0, count, step):
        chunk = (memoryview(values)[at:min(at + step, count)]
                 if isinstance(values, array)
                 else array("Q", islice(values, step)))
        if _SWAP:       # swap a copy
            chunk = array(getattr(chunk, "format", "Q"), chunk)
            chunk.byteswap()
        yield base64.b64encode(chunk)


def _sealed_text(payload: dict, seal):
    """The file's bytes for ``payload`` in pieces: its canonical JSON
    (sorted keys, compact separators, no unsealed fields) fed to the
    BLAKE2b ``seal`` as it goes, then the seal and ``elapsed``.  A piece
    is one key, one value or one chunk of a :func:`_base64` stream."""
    import json     # here, not at the top: a plain verify writes no checkpoint

    opening = "{"
    for key in sorted(payload.keys() - set(_UNSEALED_KEYS)):
        value = payload[key]
        value = (chain((b'"',), value, (b'"',)) if key in _CODES
                 and not isinstance(value, str) else (json.dumps(
                     value, sort_keys=True, separators=(",", ":")).encode(),))
        for piece in chain((f"{opening}{json.dumps(key)}:".encode(),), value):
            seal.update(piece)
            yield piece
        opening = ","
    seal.update(b"}")
    yield f',"seal":"{seal.hexdigest()}"'.encode()
    if "elapsed" in payload:
        yield f',"elapsed":{json.dumps(payload["elapsed"])}'.encode()
    yield b"}\n"


def write_checkpoint(path: str, payload: dict, durable: bool = True) -> None:
    """Seal and atomically write a checkpoint: the canonical JSON the
    seal is computed over *is* the file body (:func:`_sealed_text`).
    ``durable=False`` skips the fsync (rename atomicity is kept), for
    snapshots."""
    atomic_write_text(path, _sealed_text(payload, blake2b(digest_size=16)),
                      fsync=durable)


def load_checkpoint(path: str, payload: dict | None = None) -> dict:
    """Read (unless ``payload``, the file's JSON object, is given),
    seal-verify, and structurally validate a checkpoint.

    Every failure mode is a one-line :class:`CheckpointError`: not
    JSON (truncated or binary-corrupted), wrong kind, unknown version,
    a missing field (the seal included), or a seal mismatch (bit-flipped
    payload)."""
    if payload is None:
        payload = read_json(path, CheckpointError, "checkpoint")
    check_envelope(
        payload, path,
        CheckpointError, "checkpoint", "verify --checkpoint-out",
        CHECKPOINT_KIND, CHECKPOINT_VERSION, version_key="v")
    for key in ("seal", *_COUNTED, "keys", "parent", "label", "labels",
                *_FRONTIER):
        if key not in payload:
            raise CheckpointError(
                f"{path}: checkpoint is missing the {key!r} field")
    seal = blake2b(digest_size=16)
    deque(_sealed_text(payload, seal), maxlen=0)
    stored, computed = payload["seal"], seal.hexdigest()
    if stored != computed:
        raise CheckpointError(
            f"{path}: seal mismatch (stored {str(stored)[:12]}..., "
            f"computed {computed[:12]}...); the checkpoint was "
            "corrupted or edited after it was written")
    return payload


def config_echo(checker) -> dict:
    """The configuration fingerprint embedded in every checkpoint.

    ``checker`` is the run's :class:`~repro.verify.checker.ModelChecker`.
    A symmetry-reduced run's visited set is keyed by canonical
    fingerprints, so its checkpoints must never resume an unreduced run
    (or vice versa)."""
    return {
        "protocol": checker.protocol.name,
        "n_nodes": checker.n_nodes,
        "n_blocks": checker.n_blocks,
        "reorder_bound": checker.reorder_bound,
        "channel_cap": checker.channel_cap,
        "events": type(checker.events).__name__,
        "faults": list(checker.fault_budget),
        "symmetry": checker.symmetry,
    }


@dataclass
class Cut:
    """The exploration at a clean cut, and the one record of what a run
    explored: a run starts from a cut (:func:`starting_cut`: a decoded
    checkpoint or the initial state) and explores into its containers,
    and every checkpoint is one written out (:meth:`write`).

    ``index`` maps each visited key to its index: it is the visited set,
    the frontier included, in acceptance order.  Per index, ``parent``
    holds the parent's index (-1: the root) and ``label`` the id of the
    edge's label in ``labels``, the run's distinct labels (label -> id).
    BFS expands states in acceptance order, so the first ``expanded``
    indices are expanded and the rest, the frontier, wait unaccepted
    (before invariants): at ``depth`` before index ``deeper``, one
    deeper from it.  The counters are what reaching the cut cost.
    Checkpoint keys are fingerprints (64-bit ints).  The explored graph's
    arrays are None unless the run reads them (:func:`starting_cut`):
    expanded index ``k``'s edges are ``offsets[k]:offsets[k + 1]`` into
    ``targets``, ``edge_label`` (ids in ``labels``) and ``renaming`` (the
    group position taking a successor onto its canonical image, as
    ``canonical[t]`` takes index ``t``'s state); per index, ``blocked``
    masks the nodes blocked there and ``vector`` is an id in ``vectors``
    (per-node protocol-state names, node-major, then drops and dups)."""

    transitions: int = 0
    elapsed: float = 0.0
    handler_fires: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    parent: array = field(default_factory=lambda: array("q"))
    label: array = field(default_factory=lambda: array("I"))
    labels: dict = field(default_factory=dict)
    expanded: int = 0
    depth: int = 0
    deeper: int = 0
    offsets: array | None = None
    targets: array | None = None
    blocked: array | None = None
    renaming: array | None = None
    canonical: array | None = None
    edge_label: array | None = None
    vector: array | None = None
    vectors: dict | None = None

    def add(self, key, parent: int, label: str) -> None:
        """Record ``key``, reached from index ``parent`` by ``label``."""
        self.index[key] = len(self.index)
        self.parent.append(parent)
        self.label.append(self.labels.setdefault(label, len(self.labels)))

    def trace(self, at: int) -> list[str]:
        """The rule labels from the root to index ``at``."""
        names, trace = list(self.labels), []
        while self.parent[at] >= 0:
            trace.append(names[self.label[at]])
            at = self.parent[at]
        return trace[::-1]

    def encode(self, echo: dict, keys=None) -> dict:
        """The v4 payload, its arrays as :func:`_base64` streams: the
        keys in index order (``keys``, where they are not ints: their
        fingerprints), and the graph's rows."""
        n = self.expanded
        size = {"n": len(self.index), "expanded": n, "ends": n + 1,
                "edges": self.offsets[n] if self.offsets is not None else 0}
        arrays = {**vars(self), "keys": iter(self.index) if keys is None
                  else keys}
        return {
            **echo,
            "kind": CHECKPOINT_KIND,
            "v": CHECKPOINT_VERSION,
            **{key: getattr(self, key) for key in (*_COUNTED, *_FRONTIER)},
            **{name: _base64(arrays[name], size[kind])
               for name, _code, kind in _ALL if arrays[name] is not None},
            "labels": list(self.labels),
            **({} if self.vectors is None else {"vectors": [*self.vectors]}),
        }

    def write(self, checker, durable: bool = True) -> None:
        """Write this cut as ``checker``'s checkpoint (its path and
        configuration echo): the one writer behind every checkpoint."""
        write_checkpoint(checker.checkpoint_out,
                         self.encode(config_echo(checker)), durable)


def decode_checkpoint(payload: dict, echo: dict, path: str) -> Cut:
    """Validate a loaded payload against the resuming run's ``echo`` and
    decode it: a configuration mismatch, an array that is not base64 and
    each fault of the record below is a one-line :class:`CheckpointError`."""
    import base64

    diffs = ", ".join(
        f"{key}: checkpoint={payload.get(key)!r} run={value!r}"
        for key, value in echo.items() if payload.get(key) != value)
    if diffs:
        raise CheckpointError(
            f"{path}: checkpoint is for a different configuration "
            f"({diffs})")
    arrays = {}
    for name in _CODES.keys() & payload.keys():     # the graph's if read
        code = _CODES[name]
        values = array(code)
        try:
            values.frombytes(base64.b64decode(payload[name], validate=True))
        except (TypeError, ValueError):
            raise CheckpointError(f"{path}: the {name!r} field is not "
                                  f"base64 of {code!r} items") from None
        if _SWAP:
            values.byteswap()
        arrays[name] = values
    keys, parent, label = arrays.pop("keys"), arrays["parent"], arrays["label"]
    n, names, table = len(keys), payload["labels"], payload.get("vectors", ())
    index = dict(zip(keys, range(n)))
    try:
        labels = dict(zip(names, range(len(names))))
        vectors = dict(zip(map(tuple, table), range(len(table))))
    except TypeError:       # an entry that is a list, or not a list
        raise CheckpointError(f"{path}: checkpoint is corrupt: its label "
                              "or vector table is malformed") from None
    expanded, depth, deeper = (payload[key] for key in _FRONTIER)
    offsets = arrays.get("offsets") or array("q", [0])
    size = {"n": n, "expanded": expanded, "ends": expanded + 1,
            "edges": offsets[-1]}
    for wrong, what in (
            (not 0 <= expanded <= deeper <= n,
             "its frontier is outside its record"),
            (any(len(arrays[name]) != size[kind]
                 for name, _code, kind in _ALL if name in arrays),
             "its arrays are of unequal length"),
            (len(index) < n, "a key is listed twice"),
            (min(parent, default=-1) < -1 or any(map(ge, parent, range(n))),
             "a parent is not an earlier index"),
            (len(labels) < len(names) or max(label, default=0) >= len(names)
             or max(arrays.get("edge_label", ()), default=-1) >= len(names),
             "a label id is out of range"),
            (len(vectors) < len(table)
             or max(arrays.get("vector", ()), default=-1) >= len(vectors),
             "a vector id is out of range"),
            (offsets[0] != 0
             or any(map(gt, offsets, islice(offsets, 1, None))),
             "its offsets do not start at 0 and rise"),
            (max(arrays.get("targets", ()), default=-1) >= n,
             "an edge target is outside its record")):
        if wrong:
            raise CheckpointError(f"{path}: checkpoint is corrupt: {what}")
    return Cut(transitions=payload["transitions"], elapsed=payload["elapsed"],
               handler_fires=dict(payload["handler_fires"]), index=index,
               labels=labels, expanded=expanded, depth=depth, deeper=deeper,
               **arrays, vectors=vectors if "vector" in arrays else None)


def starting_cut(checker) -> Cut:
    """The cut ``checker``'s run starts from: its decoded ``resume``
    checkpoint, or the trivial cut whose frontier is the initial state
    -- so a fresh run and a resumed one enter the search the same way.
    The graph arrays the run reads are armed, the rest dropped: a fresh
    run's empty, a resumed one's from its file, which must have them."""
    path = checker.resume
    if path:
        payload = load_checkpoint(path)
        if not payload.get("atlas", {}).get("ok", True):
            raise CheckpointError(f"{path}: the run that wrote it stopped "
                                  "at a violation; there is nothing to resume")
        cut = decode_checkpoint(payload, config_echo(checker), path)
    else:
        initial = checker.initial_state()
        cut = Cut(deeper=1)
        cut.add(checker.fingerprint_fn(initial) if checker.fingerprint_states
                else initial, -1, "<initial>")
    live, atlas = checker.liveness, checker.atlas
    for (part, *arrays), reads in zip(_GRAPH, (
            live or atlas, live and checker.symmetry, atlas)):
        for name, code, _size in arrays:
            values = getattr(cut, name)
            if reads and values is None and path:
                raise CheckpointError(
                    f"{path}: the checkpoint does not carry {part}")
            if reads and values is None:
                values = array(code, [0] * (name == "offsets"))
            setattr(cut, name, values if reads else None)
    cut.vectors = None if cut.vector is None else cut.vectors or {}
    return cut


def replay_frontier(checker, cut: Cut, where: str) -> dict:
    """Concrete states for ``cut``'s frontier keys, in index order, which
    a checkpoint stores by reference: each is rebuilt by replaying its
    parent-label chain from the initial state -- the same deterministic
    replay that validates counterexample traces, so a chain that fails
    to replay is a real integrity error.  ``checker`` is the resuming
    run's checker."""
    from repro.verify.checker import TraceReplayError, replay_step

    parent, label, names = cut.parent, cut.label, list(cut.labels)
    replayer, found = None, {}
    # Sibling frontier states share almost their whole chain, so
    # replayed ancestors are cached by index: each chain replays only
    # the suffix below its deepest cached one (-1 roots them all).
    cache: dict = {-1: checker.initial_state()}
    for key, at in islice(cut.index.items(), cut.expanded, None):
        chain = []
        while at not in cache:
            chain.append(at)
            at = parent[at]
        state = cache[at]
        for at in reversed(chain):
            if parent[at] >= 0:     # the root's edge is a marker, not a rule
                replayer = replayer or checker.fresh_clone()
                try:
                    state = replay_step(replayer, state, names[label[at]])
                except TraceReplayError as error:
                    raise CheckpointError(
                        f"{where}: frontier replay failed ({error}); the "
                        "checkpoint does not match this protocol build"
                    ) from None
            cache[at] = state
        found[key] = state
    return found
