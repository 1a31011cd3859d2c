"""The state-space atlas: what the explored graph *looks like*.

This module is the measurement layer for the explored graph's
structure, the same way :mod:`repro.obs.profile` is for hot-loop time:

- :func:`build_atlas` -- reads the atlas off the graph a serial run
  records over the indices of its visited keys, in its one record
  (:class:`repro.verify.checkpoint.Cut`, the graph ``--liveness``
  reads): every explored transition and every visited state's BFS
  depth, per-node protocol-state vector and nonzero fault budget.
- :class:`StateAtlas` -- the schema-versioned JSON artifact (kind
  ``teapot-state-atlas`` v3; ``teapot verify --atlas-out``), rendered by
  ``teapot analyze atlas``, diffable with ``teapot analyze diff``, and
  exportable as filtered DOT/GraphML for small configs.
- analysis -- SCC decomposition by the Tarjan the starvation check
  runs (:func:`repro.verify.starvation.components`) with terminal-SCC
  (deadlock-basin) identification, depth/diameter profile, in/out-degree
  distributions and a per-(node, protocol-state) residence heatmap
  split transient-vs-stable.

The atlas is exact at every size and estimates no symmetry collapse
(``verify --symmetry`` measures it).  ``--max-states`` and
``--max-rss-mb`` bound it as they bound the exploration; a state that
was visited but never expanded -- the frontier of a bounded or failing
run -- carries ``"frontier": true`` and is never counted a deadlock.
Like liveness it reads the graph one process records (serial-only),
which checkpoints carry.  Armed, it never changes exploration order or
results; unarmed, the record keeps no edge labels or vectors
(``tests/test_atlas.py`` pins both).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.ioutil import atomic_write_json, check_envelope, read_json
from repro.obs.analyze.trace import TraceError
from repro.verify.checker import parse_label
from repro.verify.fingerprint import fingerprint
from repro.verify.starvation import components

ATLAS_KIND = "teapot-state-atlas"
ATLAS_VERSION = 3


def build_atlas(result, cut, protocol) -> "StateAtlas":
    """The :class:`StateAtlas` of a finished serial run's ``result``,
    read off the graph its record ``cut`` holds (checkpoint.Cut), over
    its visited keys in acceptance order: a state is named by its key's
    hex (a full-state key is fingerprinted here), its depth is its
    parent's plus one, and the rows never expanded are the frontier."""
    names = [f"{key if isinstance(key, int) else fingerprint(key):016x}"
             for key in cut.index]
    depth = array("I")
    for parent in cut.parent:
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
    # Each distinct vector -- protocol-state names, node-major, then the
    # fault budget -- once, shared by the states carrying it.
    width = result.n_blocks
    vectors = [([list(entry[at:at + width]) for at in range(
        0, len(entry) - 2, width)], entry[-2:]) for entry in cut.vectors]
    expanded = len(cut.offsets) - 1
    states = {}
    for k, name in enumerate(names):
        vector, faults = vectors[cut.vector[k]]
        annotation = {"depth": depth[k], "vector": vector}
        if faults != (0, 0):
            annotation["faults"] = list(faults)
        if k >= expanded:
            annotation["frontier"] = True
        states[name] = annotation
    offsets, targets, labels = cut.offsets, cut.targets, list(cut.labels)
    # Fixed-width hex sorts as the fingerprints do; an edge sorts by
    # (src, dst, label), its own fields in order.
    edges = sorted([names[k], names[targets[e]], labels[cut.edge_label[e]]]
                   for k in range(expanded)
                   for e in range(offsets[k], offsets[k + 1]))
    return StateAtlas(
        protocol=result.protocol_name, nodes=result.n_nodes,
        addresses=width, reorder=result.reorder_bound,
        workers=result.workers,
        result={"ok": result.ok, "states": result.states_explored,
                "transitions": result.transitions,
                "max_depth": result.max_depth,
                "exhausted": result.exhausted},
        state_meta={name: {"transient": bool(info.transient)}
                    for name, info in protocol.states.items()},
        states={name: states[name] for name in sorted(states)},
        edges=edges, fault_budget=tuple(result.fault_budget))


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
    state_meta: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)   # fp hex -> annotation
    # Each edge: [src, dst, label]; parse_label reads the label.
    edges: list = field(default_factory=list)
    fault_budget: tuple = (0, 0)        # omitted from fault-free atlases

    def __post_init__(self):
        self.fault_budget = tuple(self.fault_budget)

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
    """Strongly connected components of the recorded graph, in reverse
    topological order, members sorted: :func:`components` over the
    states in name order, each one's edges in record order."""
    names = sorted(atlas.states)
    number = {name: k for k, name in enumerate(names)}
    rows: list[list[int]] = [[] for _ in names]
    for record in atlas.edges:
        if record[0] in number and record[1] in number:
            rows[number[record[0]]].append(number[record[1]])
    offsets, targets = array("I", [0]), array("I")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return [[names[k] for k in sorted(members)]
            for members in components(offsets, targets)]


def analyze_structure(atlas: StateAtlas) -> dict:
    """SCC/terminal/deadlock/degree/depth summary of the recorded graph.

    A *terminal* SCC has no edge leaving it: once entered, the run
    stays there forever, so terminal SCCs are the exploration's
    deadlock basins (singleton, no successors) and recurrent classes
    (everything else).  An unexpanded ``frontier`` state has no
    recorded successors because it was never expanded, not because it
    has none: it is neither a deadlock nor a terminal SCC.
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
        # An edge out of the recorded states (to a successor a bounded
        # parallel run routed but never accepted) leaves its SCC too.
        if src in component_of and component_of[src] != component_of.get(
                dst):
            has_exit[component_of[src]] = True
    frontier = {node for node, annotation in atlas.states.items()
                if annotation.get("frontier")}
    # A frontier state has no out-edges, so its SCC is itself alone.
    terminal = [sccs[i] for i in range(len(sccs))
                if not has_exit[i] and sccs[i][0] not in frontier]
    deadlocks = sorted(node for node, degree in out_degree.items()
                       if degree == 0 and node not in frontier)

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
        "frontier_states": len(frontier),
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
    """Per-(node, protocol-state) residence counts over recorded states,
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
    lines.append(
        f"coverage: exact -- {len(atlas.states)} states, "
        f"{len(atlas.edges)} edges recorded")

    structure = analyze_structure(atlas)
    profile = structure["depth_profile"]
    if profile:
        peak = max(profile)
        lines.append(
            f"depth: diameter={structure['diameter']}, frontier width "
            f"peaks at {peak} (depth {profile.index(peak)})")
        if len(profile) <= 2 * top:
            widths = " ".join(map(str, profile))
        else:
            widths = (" ".join(map(str, profile[:2 * top - 1]))
                      + f" ... {profile[-1]}")
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
    if structure["frontier_states"]:
        lines.append(
            f"unexpanded frontier: {structure['frontier_states']}")

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
    return "\n".join(lines) + "\n"


def diff_atlases(a: StateAtlas, b: StateAtlas, top: int = 5) -> str:
    """Compare two atlases (``teapot analyze diff a b``): which states
    and edges appeared or vanished, plus structural deltas."""
    lines = [f"a: {a.config_line()}", f"b: {b.config_line()}"]
    if (a.protocol, a.nodes, a.addresses, a.reorder) != (
            b.protocol, b.nodes, b.addresses, b.reorder):
        lines.append("note: configurations differ; deltas compare "
                     "different explorations")

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

    edges_a = set(map(tuple, a.edges))
    edges_b = set(map(tuple, b.edges))
    lines.append(
        f"edges: {len(edges_a)} -> {len(edges_b)}  "
        f"(+{len(edges_b - edges_a)} appeared, "
        f"-{len(edges_a - edges_b)} vanished)")

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


def _export_graph(atlas: StateAtlas, max_depth: Optional[int],
                  protocol_state: Optional[str]):
    """The (nodes, edges) the DOT and GraphML exports share."""
    kept = _filtered_states(atlas, max_depth, protocol_state)
    transient = {name for name, meta in atlas.state_meta.items()
                 if meta.get("transient")}

    def is_transient(annotation: dict) -> bool:
        return any(name in transient
                   for names in annotation["vector"] for name in names)

    nodes = []
    for fp in sorted(kept):
        annotation = kept[fp]
        attrs = {
            "label": f"d{annotation['depth']}  " + " | ".join(
                "/".join(names) for names in annotation["vector"]),
            "depth": annotation["depth"],
            "shape": "box" if is_transient(annotation) else "ellipse",
        }
        if annotation["depth"] == 0:
            attrs["peripheries"] = 2
        nodes.append((fp, attrs))
    edges = []
    for record in atlas.edges:
        if record[0] not in kept or record[1] not in kept:
            continue
        kind, tag, *_rest = parse_label(record[2])
        attrs = {"label": tag, "kind": kind}
        if kind in ("drop", "dup"):
            attrs["style"] = "dashed"
        edges.append((record[0], record[1], attrs))
    return nodes, edges


def atlas_to_dot(atlas: StateAtlas, max_depth: Optional[int] = None,
                 protocol_state: Optional[str] = None) -> str:
    """Filtered Graphviz export of the explored graph (small configs)."""
    from repro.analysis.graphio import dot_graph

    nodes, edges = _export_graph(atlas, max_depth, protocol_state)
    return dot_graph(f"{atlas.protocol} atlas", nodes, edges,
                     extra_lines=("node [fontsize=10];",))


def atlas_to_graphml(atlas: StateAtlas, max_depth: Optional[int] = None,
                     protocol_state: Optional[str] = None) -> str:
    """Filtered GraphML export (yEd / Gephi / NetworkX importable)."""
    from repro.analysis.graphio import graphml_graph

    nodes, edges = _export_graph(atlas, max_depth, protocol_state)
    return graphml_graph(f"{atlas.protocol} atlas", nodes, edges)
