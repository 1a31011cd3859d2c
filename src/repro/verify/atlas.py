"""The state-space atlas: what the explored graph *looks like*.

Symmetry reduction is a bet about the *structure* of the reachable
state space: that most states are node-permutations of each other.
This module is the measurement layer that turns the bet into numbers, the
same way :mod:`repro.obs.profile` did for hot-loop time:

- :class:`AtlasRecorder` -- the armed recorder both checkers thread
  through their hot loops.  It streams every explored transition
  ``(src_fingerprint, dst_fingerprint, label)`` and annotates every
  visited state (BFS depth, per-node protocol-state vector, network and
  deferred-queue occupancy, nonzero fault budget, symmetry-orbit key).
- :class:`StateAtlas` -- the schema-versioned JSON artifact (kind
  ``teapot-state-atlas`` v1; ``teapot verify --atlas-out``), rendered by
  ``teapot analyze atlas``, diffable with ``teapot analyze diff``, and
  exportable as filtered DOT/GraphML for small configs.
- analysis -- SCC decomposition with terminal-SCC (deadlock-basin)
  identification, depth/diameter profile, in/out-degree distributions,
  a per-(node, protocol-state) residence heatmap split
  transient-vs-stable, and the **symmetry-orbit estimator** (states
  canonicalized under caching-node permutation, reusing
  :mod:`repro.verify.fingerprint`'s canonical encoding).

Sampling must not break engine invariance.  Above the caps a classic
reservoir would keep an arrival-order-dependent sample -- and arrival
order differs per worker count -- so the recorder keeps a *bottom-k
sketch* instead: the k records with the smallest content digests.
Fingerprints are uniform, so bottom-k is an unbiased uniform sample,
it is order-independent, and merging per-worker bottom-k sketches
yields exactly the global bottom-k.  A completed exploration therefore
produces the identical atlas at any worker count, truncated or not.

The orbit key is computed by the *production* symmetry canonicalizer
(:class:`repro.verify.fingerprint.SymmetryCanonicalizer` -- the same
complete typed remap ``CheckOptions.reduction.symmetry`` explores
under), so the atlas's estimated collapse ratio and the reduced run's
achieved ratio agree exactly on exhausted explorations
(``tools/state_atlas.py`` cross-checks them).  The one estimation
concession is the permutation cap: beyond ``DEFAULT_PERM_CAP`` free
permutations the sketch considers a prefix of the group and the ratio
becomes approximate; nothing is pruned by it here, so a capped map can
only misestimate the ratio, never corrupt a verdict.

Like the profiler, the recorder is a pure observer: absent (the
default) the checkers run the exact code they always ran -- verdicts,
fingerprint streams, and checkpoint bytes are byte-identical
(``tests/test_atlas.py`` pins this); armed, it never influences
exploration order or results.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Optional

from repro.ioutil import atomic_write_json, check_envelope, read_json
from repro.obs.analyze.trace import TraceError
from repro.verify.checker import parse_label
from repro.verify.fingerprint import (
    DEFAULT_PERM_CAP,
    SymmetryCanonicalizer,
    fingerprint,
)
from repro.verify.model import GlobalState

ATLAS_KIND = "teapot-state-atlas"
ATLAS_VERSION = 1

# Bottom-k sketch caps: exact below, uniform-sampled (with logged
# truncation) above.  A 3-node reordered exploration of the largest
# registered protocol exceeds these; Table-3-sized configs do not.
DEFAULT_STATE_CAP = 100_000
DEFAULT_EDGE_CAP = 250_000


class _BottomK:
    """The k entries with the smallest integer keys, mergeable.

    Keys here are 64-bit BLAKE2b digests, i.e. uniform, so "smallest k"
    is an unbiased uniform sample that does not depend on insertion
    order -- the property that keeps truncated atlases identical across
    engines and worker counts (a classic RNG reservoir would not be).
    """

    __slots__ = ("cap", "entries", "_heap", "seen")

    def __init__(self, cap: int):
        self.cap = max(1, int(cap))
        self.entries: dict[int, object] = {}
        self._heap: list[int] = []      # negated keys: a max-heap
        self.seen = 0

    def offer(self, key: int, value_fn) -> bool:
        """Count one observation and keep it if its key qualifies.
        ``value_fn`` is only called when the entry is kept."""
        self.seen += 1
        return self._insert(key, value_fn)

    def _insert(self, key: int, value_fn) -> bool:
        if key in self.entries:
            return False
        if len(self.entries) < self.cap:
            heapq.heappush(self._heap, -key)
        elif key >= -self._heap[0]:
            return False
        else:
            del self.entries[-heapq.heapreplace(self._heap, -key)]
        self.entries[key] = value_fn() if callable(value_fn) else value_fn
        return True

    def merge(self, seen: int, items) -> None:
        """Fold another sketch's (seen count, kept items) in; the merge
        of per-worker bottom-k sketches is exactly the global bottom-k."""
        self.seen += seen
        for key, value in items:
            self._insert(int(key), value)

    @property
    def truncated(self) -> bool:
        return self.seen > len(self.entries)


def _edge_digest(src_fp: int, dst_fp: int, label: str) -> int:
    """Content digest keying the edge sketch (order-independent)."""
    return int.from_bytes(
        blake2b(src_fp.to_bytes(8, "big") + dst_fp.to_bytes(8, "big")
                + label.encode("utf-8"), digest_size=8).digest(), "big")


class AtlasRecorder:
    """Armed recorder for one exploration run (see module docstring).

    The checkers call :meth:`visit`/:meth:`expand`/:meth:`edge` only
    when a recorder was passed; where a 64-bit fingerprint is already
    on hand (fingerprint mode, the parallel engine) they pass it so the
    recorder never recomputes one it can reuse.  For the parallel
    engine, forked workers inherit the template's recorder, accumulate
    privately, and ship :meth:`payload` back in the finish reply for
    :meth:`merge` on the master.
    """

    def __init__(self, state_cap: int = DEFAULT_STATE_CAP,
                 edge_cap: int = DEFAULT_EDGE_CAP):
        self.state_cap = state_cap
        self.edge_cap = edge_cap
        self._states = _BottomK(state_cap)
        self._edges = _BottomK(edge_cap)
        self._canon: Optional[SymmetryCanonicalizer] = None
        self._state_meta: dict[str, dict] = {}
        self._src_fp: Optional[int] = None
        # When the engine runs without hash compaction it has no
        # fingerprint to pass, and every state reaches us several
        # times (once visited, once per incoming edge, once expanded).
        # Hashing is the dominant recording cost, so compute each
        # state's fingerprint exactly once.  GlobalState is frozen and
        # hashable; the engine's visited set already keeps every state
        # alive, so this adds one dict slot per state, not a copy.
        self._fp_cache: dict = {}

    # -- recording (checker-facing) -----------------------------------------

    def bind(self, protocol, n_nodes: int, n_blocks: int) -> None:
        """Attach the protocol config (idempotent; called at run start
        by whichever engine owns this recorder)."""
        if self._canon is not None:
            return
        self._canon = SymmetryCanonicalizer(protocol, n_nodes, n_blocks,
                                            perm_cap=DEFAULT_PERM_CAP)
        self._state_meta = {
            name: {"transient": bool(info.transient)}
            for name, info in protocol.states.items()}

    def _fp_of(self, state: GlobalState, fp: Optional[int]) -> int:
        if fp is not None:
            return fp
        cached = self._fp_cache.get(state)
        if cached is None:
            cached = self._fp_cache[state] = fingerprint(state)
        return cached

    def visit(self, state: GlobalState, depth: int,
              fp: Optional[int] = None) -> int:
        """Record a newly visited state with its BFS depth."""
        fp = self._fp_of(state, fp)
        self._states.offer(fp, lambda: self._annotate(state, depth, fp))
        return fp

    def expand(self, state: GlobalState, fp: Optional[int] = None) -> None:
        """Set the source of the :meth:`edge` calls that follow."""
        self._src_fp = self._fp_of(state, fp)

    def edge(self, label: str, successor: GlobalState,
             fp: Optional[int] = None) -> int:
        """Record one transition out of the current source; returns the
        successor's fingerprint so callers can reuse it."""
        fp = self._fp_of(successor, fp)
        src = self._src_fp
        record = (src, fp, label)
        self._edges.offer(_edge_digest(src, fp, label), record)
        return fp

    def _annotate(self, state: GlobalState, depth: int, fp: int) -> dict:
        annotation = {
            "depth": depth,
            "vector": [[view.state_name for view in node_blocks]
                       for node_blocks in state.blocks],
            "inflight": state.messages_in_flight(),
            "queued": sum(len(view.queue)
                          for node_blocks in state.blocks
                          for view in node_blocks),
            "orbit": self._canon.orbit_fingerprint(state, fp),
        }
        if state.faults != (0, 0):
            annotation["faults"] = list(state.faults)
        return annotation

    # -- parallel plumbing --------------------------------------------------

    def payload(self) -> dict:
        """This (worker-side) recorder's sketches, for the finish reply."""
        return {
            "states_seen": self._states.seen,
            "states": list(self._states.entries.items()),
            "edges_seen": self._edges.seen,
            "edges": list(self._edges.entries.items()),
        }

    def merge(self, payload: Optional[dict]) -> None:
        """Fold one worker's sketches into this master recorder."""
        if not payload:
            return
        self._states.merge(payload["states_seen"], payload["states"])
        self._edges.merge(payload["edges_seen"], payload["edges"])

    # -- building the artifact ----------------------------------------------

    @property
    def truncated(self) -> bool:
        return self._states.truncated or self._edges.truncated

    def build(self, result) -> "StateAtlas":
        """Finalize into a :class:`StateAtlas` for a finished
        :class:`~repro.verify.checker.CheckResult`."""
        states = {}
        for fp in sorted(self._states.entries):
            annotation = dict(self._states.entries[fp])
            annotation["orbit"] = f"{annotation['orbit']:016x}"
            states[f"{fp:016x}"] = annotation
        edges = []
        for src, dst, label in self._edges.entries.values():
            kind, tag, sender, receiver, _index, block = parse_label(label)
            edges.append([f"{src:016x}", f"{dst:016x}", tag, sender,
                          receiver, kind, block, label])
        edges.sort(key=lambda record: (record[0], record[1], record[7]))
        canon = self._canon
        return StateAtlas(
            protocol=result.protocol_name,
            nodes=result.n_nodes,
            addresses=result.n_blocks,
            reorder=result.reorder_bound,
            workers=result.workers,
            result={
                "ok": result.ok,
                "states": result.states_explored,
                "transitions": result.transitions,
                "max_depth": result.max_depth,
                "exhausted": result.exhausted,
            },
            truncation={
                "states_seen": self._states.seen,
                "states_kept": len(self._states.entries),
                "edges_seen": self._edges.seen,
                "edges_kept": len(self._edges.entries),
                "sampled": self.truncated,
            },
            orbit={
                "method": canon.method if canon else "identity",
                "free_nodes": list(canon.free_nodes) if canon else [],
                "permutations": canon.permutations if canon else 1,
            },
            state_meta=dict(self._state_meta),
            states=states,
            edges=edges,
            fault_budget=tuple(result.fault_budget),
        )


@dataclass(eq=False)
class StateAtlas:
    """The schema-versioned JSON atlas artifact; the fields are the
    payload's keys after the ``kind``/``version`` header, in order."""

    protocol: str = "?"
    nodes: int = 0
    addresses: int = 0
    reorder: int = 0
    workers: int = 0
    result: dict = field(default_factory=dict)
    truncation: dict = field(default_factory=dict)
    orbit: dict = field(default_factory=dict)
    state_meta: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)   # fp hex -> annotation
    # Each edge: [src, dst, tag, sender, receiver, kind, block, label].
    edges: list = field(default_factory=list)
    fault_budget: tuple = (0, 0)        # omitted from fault-free atlases

    def __post_init__(self):
        self.fault_budget = tuple(self.fault_budget)

    @property
    def sampled(self) -> bool:
        return bool(self.truncation.get("sampled"))

    def config_line(self) -> str:
        engine = ("serial" if self.workers <= 1
                  else f"{self.workers} workers")
        text = (f"{self.protocol}  (nodes={self.nodes} "
                f"addresses={self.addresses} reorder={self.reorder} "
                f"engine={engine}")
        if self.fault_budget != (0, 0):
            text += (f" faults=drop:{self.fault_budget[0]}"
                     f"+dup:{self.fault_budget[1]}")
        return text + ")"

    def to_json(self) -> dict:
        payload = {"kind": ATLAS_KIND, "version": ATLAS_VERSION,
                   **vars(self), "fault_budget": list(self.fault_budget)}
        if self.fault_budget == (0, 0):
            del payload["fault_budget"]
        return payload

    def save(self, path: str) -> None:
        # Compact separators: an atlas can hold 10^5 edges.
        atomic_write_json(path, self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: dict, path: str = "<atlas>") -> "StateAtlas":
        check_envelope(payload, path, TraceError, "state atlas",
                       "verify --atlas-out", ATLAS_KIND, ATLAS_VERSION)
        return cls(**{name: payload[name] for name in cls.__dataclass_fields__
                      if name in payload})


def load_atlas(path: str) -> StateAtlas:
    """Read a saved state atlas, with friendly one-line errors."""
    return StateAtlas.from_json(
        read_json(path, TraceError, "state atlas"), path)


# -- structural analysis --------------------------------------------------------

def scc_decomposition(atlas: StateAtlas) -> list[list[str]]:
    """Strongly connected components of the kept subgraph (iterative
    Tarjan; returned in reverse topological order, members sorted)."""
    nodes = set(atlas.states)
    adjacency: dict[str, list[str]] = defaultdict(list)
    for record in atlas.edges:
        if record[0] in nodes and record[1] in nodes:
            adjacency[record[0]].append(record[1])

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work: list[list] = [[root, 0]]
        while work:
            node, _ = work[-1]
            if work[-1][1] == 0 and node not in index:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = adjacency.get(node, ())
            while work[-1][1] < len(successors):
                successor = successors[work[-1][1]]
                work[-1][1] += 1
                if successor not in index:
                    work.append([successor, 0])
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def analyze_structure(atlas: StateAtlas) -> dict:
    """SCC/terminal/deadlock/degree/depth summary of the kept graph.

    A *terminal* SCC has no edge leaving it: once entered, the run
    stays there forever, so terminal SCCs are the exploration's
    deadlock basins (singleton, no successors) and recurrent classes
    (everything else).  On a sampled atlas these are properties of the
    kept subgraph, flagged as such by the caller.
    """
    nodes = set(atlas.states)
    out_degree = {node: 0 for node in nodes}
    in_degree = {node: 0 for node in nodes}
    for record in atlas.edges:
        if record[0] in nodes:
            out_degree[record[0]] += 1
        if record[1] in nodes:
            in_degree[record[1]] += 1

    sccs = scc_decomposition(atlas)
    component_of = {member: i for i, component in enumerate(sccs)
                    for member in component}
    has_exit = [False] * len(sccs)
    for record in atlas.edges:
        src, dst = record[0], record[1]
        if src in component_of and dst in component_of:
            if component_of[src] != component_of[dst]:
                has_exit[component_of[src]] = True
    terminal = [sccs[i] for i in range(len(sccs)) if not has_exit[i]]
    deadlocks = sorted(node for node, degree in out_degree.items()
                       if degree == 0)

    depths = defaultdict(int)
    for annotation in atlas.states.values():
        depths[annotation["depth"]] += 1
    depth_profile = [depths[d] for d in range(max(depths) + 1)] \
        if depths else []

    def histogram(degrees: dict) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for degree in degrees.values():
            out[degree] += 1
        return dict(sorted(out.items()))

    def mean(degrees: dict) -> float:
        return (sum(degrees.values()) / len(degrees)) if degrees else 0.0

    return {
        "sccs": len(sccs),
        "largest_scc": max((len(c) for c in sccs), default=0),
        "terminal_sccs": len(terminal),
        "terminal_sizes": sorted((len(c) for c in terminal), reverse=True),
        "terminal_members": terminal,
        "deadlock_states": deadlocks,
        "out_degree": {"mean": mean(out_degree),
                       "max": max(out_degree.values(), default=0),
                       "histogram": histogram(out_degree)},
        "in_degree": {"mean": mean(in_degree),
                      "max": max(in_degree.values(), default=0),
                      "histogram": histogram(in_degree)},
        "diameter": max(depths) if depths else 0,
        "depth_profile": depth_profile,
    }


def residence_heatmap(atlas: StateAtlas) -> dict:
    """Per-(node, protocol-state) residence counts over kept states,
    split transient vs stable via the embedded state metadata."""
    counts: dict[tuple[int, str], int] = defaultdict(int)
    for annotation in atlas.states.values():
        for node, names in enumerate(annotation["vector"]):
            for name in names:
                counts[(node, name)] += 1
    transient = {name for name, meta in atlas.state_meta.items()
                 if meta.get("transient")}
    by_state: dict[str, list[int]] = {}
    for (node, name), count in counts.items():
        row = by_state.setdefault(name, [0] * atlas.nodes)
        row[node] = count
    total = len(atlas.states)
    transient_residence = sum(
        count for (node, name), count in counts.items()
        if name in transient)
    all_residence = sum(counts.values()) or 1
    return {
        "states": total,
        "rows": dict(sorted(by_state.items())),
        "transient_states": sorted(transient),
        "transient_fraction": transient_residence / all_residence,
    }


def orbit_summary(atlas: StateAtlas) -> dict:
    """The symmetry-orbit estimate: distinct orbit keys over kept
    states and the collapse ratio a symmetry reduction could reach."""
    orbits: dict[str, int] = defaultdict(int)
    for annotation in atlas.states.values():
        orbits[annotation["orbit"]] += 1
    states = len(atlas.states)
    count = len(orbits)
    return {
        "states": states,
        "orbits": count,
        "ratio": (states / count) if count else 1.0,
        "largest_orbit": max(orbits.values(), default=0),
        "method": atlas.orbit.get("method", "identity"),
        "free_nodes": atlas.orbit.get("free_nodes", []),
        "permutations": atlas.orbit.get("permutations", 1),
    }


# -- rendering ------------------------------------------------------------------

def format_atlas(atlas: StateAtlas, top: int = 10) -> str:
    """The ``teapot analyze atlas`` structural report."""
    result = atlas.result
    verdict = "PASS" if result.get("ok") else "FAIL"
    if not result.get("exhausted", True):
        verdict += " (state limit reached)"
    lines = [
        f"state atlas: {atlas.config_line()}",
        f"verdict: {verdict}  states={result.get('states')} "
        f"transitions={result.get('transitions')} "
        f"depth={result.get('max_depth')}",
    ]
    trunc = atlas.truncation
    if atlas.sampled:
        lines.append(
            f"coverage: SAMPLED -- kept {trunc.get('states_kept')}/"
            f"{trunc.get('states_seen')} states, "
            f"{trunc.get('edges_kept')}/{trunc.get('edges_seen')} edges "
            "(bottom-k by digest; structural numbers below describe the "
            "kept subgraph)")
    else:
        lines.append(
            f"coverage: exact -- {trunc.get('states_kept')} states, "
            f"{trunc.get('edges_kept')} edges recorded")

    structure = analyze_structure(atlas)
    profile = structure["depth_profile"]
    if profile:
        peak = max(profile)
        lines.append(
            f"depth: diameter={structure['diameter']}, frontier width "
            f"peaks at {peak} (depth {profile.index(peak)})")
        shown = profile if len(profile) <= 2 * top else (
            profile[:2 * top - 1] + [profile[-1]])
        widths = " ".join(str(w) for w in shown[:2 * top - 1])
        if len(profile) > 2 * top:
            widths += f" ... {profile[-1]}"
        lines.append(f"  states per depth: {widths}")
    out_deg, in_deg = structure["out_degree"], structure["in_degree"]
    lines.append(
        f"degrees: out mean {out_deg['mean']:.2f} max {out_deg['max']}; "
        f"in mean {in_deg['mean']:.2f} max {in_deg['max']}")
    terminal_sizes = structure["terminal_sizes"]
    sizes = ", ".join(str(size) for size in terminal_sizes[:top])
    if len(terminal_sizes) > top:
        sizes += ", ..."
    lines.append(
        f"SCCs: {structure['sccs']} total (largest "
        f"{structure['largest_scc']} states); terminal "
        f"{structure['terminal_sccs']} [{sizes}]"
        " -- a terminal SCC is a basin the run can never leave")
    deadlocks = structure["deadlock_states"]
    if deadlocks:
        shown = " ".join(deadlocks[:top])
        lines.append(
            f"deadlock states (out-degree 0): {len(deadlocks)}: {shown}")
    else:
        lines.append("deadlock states (out-degree 0): none")

    heat = residence_heatmap(atlas)
    lines.append(
        f"residence heatmap (% of {heat['states']} kept states per "
        f"(node, protocol-state); * = transient):")
    header = "  " + " " * 26 + "".join(
        f"{'n' + str(node):>7s}" for node in range(atlas.nodes))
    lines.append(header)
    transient = set(heat["transient_states"])
    rows = sorted(heat["rows"].items(),
                  key=lambda item: -sum(item[1]))[:max(top, 4)]
    for name, row in rows:
        marker = "*" if name in transient else " "
        cells = "".join(
            f"{100 * count / heat['states']:6.1f}%" if heat["states"]
            else f"{0:6.1f}%" for count in row)
        lines.append(f"  {marker}{name:<25.25s}{cells}")
    if len(heat["rows"]) > len(rows):
        lines.append(f"  ... {len(heat['rows']) - len(rows)} more states")
    lines.append(
        f"  transient residence: {heat['transient_fraction']:.1%} of all "
        "(node, state) observations -- the FSM-to-PDA suspend states, "
        "measured")

    orbit = orbit_summary(atlas)
    lines.append(
        f"symmetry orbits (estimator): {orbit['states']} states -> "
        f"{orbit['orbits']} orbits, collapse ratio {orbit['ratio']:.2f}x "
        f"(largest orbit {orbit['largest_orbit']}; "
        f"{orbit['permutations']} permutation(s) of free nodes "
        f"{orbit['free_nodes']}, method {orbit['method']})")
    if orbit["method"] == "identity":
        lines.append(
            "  note: fewer than two permutable (non-home) nodes at this "
            "config; every orbit is a singleton.  Re-run with --nodes 3 "
            "or more for a meaningful ratio.")
    return "\n".join(lines) + "\n"


def diff_atlases(a: StateAtlas, b: StateAtlas, top: int = 5) -> str:
    """Compare two atlases (``teapot analyze diff a b``): which states
    and edges appeared or vanished, plus structural deltas."""
    lines = [f"a: {a.config_line()}", f"b: {b.config_line()}"]
    if (a.protocol, a.nodes, a.addresses, a.reorder) != (
            b.protocol, b.nodes, b.addresses, b.reorder):
        lines.append("note: configurations differ; deltas compare "
                     "different explorations")
    if a.sampled or b.sampled:
        lines.append("note: at least one atlas is sampled; appeared/"
                     "vanished counts reflect the kept subgraphs")

    states_a, states_b = set(a.states), set(b.states)
    appeared = sorted(states_b - states_a)
    vanished = sorted(states_a - states_b)
    lines.append(
        f"states: {len(states_a)} -> {len(states_b)}  "
        f"(+{len(appeared)} appeared, -{len(vanished)} vanished)")

    def describe(atlas: StateAtlas, fp: str) -> str:
        annotation = atlas.states[fp]
        vector = " ".join(
            f"n{node}:" + "/".join(names)
            for node, names in enumerate(annotation["vector"]))
        return f"    {fp}  depth={annotation['depth']}  {vector}"

    for label, fps, atlas in (("appeared", appeared, b),
                              ("vanished", vanished, a)):
        for fp in fps[:top]:
            lines.append(describe(atlas, fp))
        if len(fps) > top:
            lines.append(f"    ... {len(fps) - top} more {label}")

    edges_a = {tuple(record[:2]) + (record[7],) for record in a.edges}
    edges_b = {tuple(record[:2]) + (record[7],) for record in b.edges}
    lines.append(
        f"edges: {len(edges_a)} -> {len(edges_b)}  "
        f"(+{len(edges_b - edges_a)} appeared, "
        f"-{len(edges_a - edges_b)} vanished)")

    orbit_a, orbit_b = orbit_summary(a), orbit_summary(b)
    lines.append(
        f"orbits: {orbit_a['orbits']} -> {orbit_b['orbits']}  "
        f"(collapse ratio {orbit_a['ratio']:.2f}x -> "
        f"{orbit_b['ratio']:.2f}x)")
    structure_a, structure_b = analyze_structure(a), analyze_structure(b)
    lines.append(
        f"terminal SCCs: {structure_a['terminal_sccs']} -> "
        f"{structure_b['terminal_sccs']}; deadlock states "
        f"{len(structure_a['deadlock_states'])} -> "
        f"{len(structure_b['deadlock_states'])}; diameter "
        f"{structure_a['diameter']} -> {structure_b['diameter']}")
    return "\n".join(lines) + "\n"


# -- graph export ---------------------------------------------------------------

def _filtered_states(atlas: StateAtlas, max_depth: Optional[int] = None,
                     protocol_state: Optional[str] = None) -> dict:
    kept = {}
    for fp, annotation in atlas.states.items():
        if max_depth is not None and annotation["depth"] > max_depth:
            continue
        if protocol_state is not None and not any(
                name == protocol_state
                for names in annotation["vector"] for name in names):
            continue
        kept[fp] = annotation
    return kept


def _vector_label(annotation: dict) -> str:
    return " | ".join(
        "/".join(names) for names in annotation["vector"])


def _export_graph(atlas: StateAtlas, max_depth: Optional[int],
                  protocol_state: Optional[str], collapse_orbits: bool):
    """The (nodes, edges) the DOT and GraphML exports share."""
    kept = _filtered_states(atlas, max_depth, protocol_state)
    transient = {name for name, meta in atlas.state_meta.items()
                 if meta.get("transient")}

    def is_transient(annotation: dict) -> bool:
        return any(name in transient
                   for names in annotation["vector"] for name in names)

    if collapse_orbits:
        groups: dict[str, list[str]] = defaultdict(list)
        for fp in sorted(kept):
            groups[kept[fp]["orbit"]].append(fp)
        orbit_of = {fp: orbit for orbit, fps in groups.items()
                    for fp in fps}
        nodes = []
        for orbit, fps in sorted(groups.items()):
            representative = kept[min(fps)]
            label = _vector_label(representative)
            if len(fps) > 1:
                label += f"  (x{len(fps)})"
            nodes.append((orbit, {
                "label": label,
                "depth": min(kept[fp]["depth"] for fp in fps),
                "size": len(fps),
                "shape": "box" if is_transient(representative)
                else "ellipse",
            }))
        seen = set()
        edges = []
        for record in atlas.edges:
            src, dst = record[0], record[1]
            if src not in orbit_of or dst not in orbit_of:
                continue
            key = (orbit_of[src], orbit_of[dst], record[2], record[5])
            if key in seen or key[0] == key[1]:
                continue
            seen.add(key)
            attrs = {"label": record[2], "kind": record[5]}
            if record[5] in ("drop", "dup"):
                attrs["style"] = "dashed"
            edges.append((key[0], key[1], attrs))
        return nodes, edges

    nodes = []
    for fp in sorted(kept):
        annotation = kept[fp]
        attrs = {
            "label": f"d{annotation['depth']}  {_vector_label(annotation)}",
            "depth": annotation["depth"],
            "orbit": annotation["orbit"],
            "shape": "box" if is_transient(annotation) else "ellipse",
        }
        if annotation["depth"] == 0:
            attrs["peripheries"] = 2
        nodes.append((fp, attrs))
    edges = []
    for record in atlas.edges:
        if record[0] not in kept or record[1] not in kept:
            continue
        attrs = {"label": record[2], "kind": record[5]}
        if record[5] in ("drop", "dup"):
            attrs["style"] = "dashed"
        edges.append((record[0], record[1], attrs))
    return nodes, edges


def atlas_to_dot(atlas: StateAtlas, max_depth: Optional[int] = None,
                 protocol_state: Optional[str] = None,
                 collapse_orbits: bool = False) -> str:
    """Filtered Graphviz export of the explored graph (small configs)."""
    from repro.analysis.graphio import dot_graph

    nodes, edges = _export_graph(atlas, max_depth, protocol_state,
                                 collapse_orbits)
    return dot_graph(f"{atlas.protocol} atlas", nodes, edges,
                     extra_lines=("node [fontsize=10];",))


def atlas_to_graphml(atlas: StateAtlas, max_depth: Optional[int] = None,
                     protocol_state: Optional[str] = None,
                     collapse_orbits: bool = False) -> str:
    """Filtered GraphML export (yEd / Gephi / NetworkX importable)."""
    from repro.analysis.graphio import graphml_graph

    nodes, edges = _export_graph(atlas, max_depth, protocol_state,
                                 collapse_orbits)
    return graphml_graph(f"{atlas.protocol} atlas", nodes, edges)
