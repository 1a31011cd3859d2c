"""The state-space atlas: what the explored graph *looks like*.

``teapot verify --atlas-out`` arms the graph arrays of the serial run's
one record (:class:`repro.verify.checkpoint.Cut`: the graph liveness
reads, each edge's label id and each state's vector id) and writes its
final cut as a checkpoint, with a sealed ``atlas`` header of what only
the atlas reads: ``ok``, ``exhausted``, ``max_depth`` and each protocol
state's ``transient`` flag.  The analysis runs on the cut's integer
arrays, by the Tarjan the starvation check runs; a state is named by its
key's 16 hex digits only where one is printed.  The atlas is exact at
every size; a frontier state (never expanded) is never a deadlock.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property
from itertools import islice
from operator import sub

from repro.ioutil import check_envelope, read_json
from repro.obs.analyze.trace import TraceError
from repro.verify.checker import parse_label
from repro.verify.checkpoint import (
    CHECKPOINT_KIND, CHECKPOINT_VERSION, CheckpointError, config_echo,
    decode_checkpoint, load_checkpoint, write_checkpoint)
from repro.verify.fingerprint import fingerprint
from repro.verify.starvation import components

# The configuration a report prints, by its names in the echo.
_CONFIG = ("protocol", "n_nodes", "n_blocks", "reorder_bound", "faults")


class StateAtlas:
    """A finished serial run's configuration echo, ``atlas`` header and
    final cut; each per-state view is built when first read."""

    def __init__(self, echo: dict, header: dict, cut):
        self.echo, self.header, self.cut = echo, header, cut
        self.transient = {name for name, flag in header["transient"].items()
                          if flag}

    @classmethod
    def of_run(cls, checker, result, cut) -> "StateAtlas":
        states = checker.protocol.states.items()
        return cls(config_echo(checker), {
            "ok": result.ok, "exhausted": result.exhausted,
            "max_depth": result.max_depth, "transient": {
                name: bool(info.transient) for name, info in states}}, cut)

    @classmethod
    def read(cls, path: str, payload: dict | None = None) -> "StateAtlas":
        """The atlas a ``verify --atlas-out`` file holds (``payload``: its
        JSON object, if read already); each fault is one line."""
        if payload is None:
            payload = read_json(path, TraceError, "state atlas")
        check_envelope(payload, path, TraceError, "state atlas",
                       "verify --atlas-out", CHECKPOINT_KIND,
                       CHECKPOINT_VERSION, version_key="v")
        try:
            load_checkpoint(path, payload)
            if not {"atlas", "vector"} <= payload.keys():
                raise CheckpointError(
                    f"{path}: a checkpoint without the state atlas; write "
                    "one with `teapot verify --atlas-out`")
            cut = decode_checkpoint(payload, {}, path)
        except CheckpointError as error:
            raise TraceError(str(error)) from None
        return cls({k: payload[k] for k in _CONFIG}, payload["atlas"], cut)

    def save(self, path: str) -> None:
        """Write the cut as a sealed checkpoint, with the header."""
        write_checkpoint(path, {**self.cut.encode(self.echo, self.keys),
                                "atlas": self.header})

    def config_line(self) -> str:
        protocol, nodes, addresses, reorder, faults = map(self.echo.get,
                                                          _CONFIG)
        extra = " faults=drop:{}+dup:{}".format(*faults) if any(faults) else ""
        return (f"{protocol}  (nodes={nodes} addresses={addresses} "
                f"reorder={reorder} engine=serial{extra})")

    @cached_property
    def keys(self) -> array:
        """Each index's 64-bit key; a full-state key's fingerprint."""
        index = self.cut.index
        full = not isinstance(next(iter(index)), int)
        return array("Q", map(fingerprint, index) if full else index)

    @cached_property
    def depth(self) -> array:
        """Each index's BFS depth: its parent's plus one."""
        depth = array("I")
        for parent in self.cut.parent:
            depth.append(depth[parent] + 1 if parent >= 0 else 0)
        return depth

    @cached_property
    def offsets(self) -> array:
        """``cut.offsets`` with a row, empty, for each frontier index."""
        offsets = self.cut.offsets
        return offsets + offsets[-1:] * (len(self.depth) - len(offsets) + 1)

    @cached_property
    def vectors(self) -> list:
        """Per vector id: per-node protocol-state names, faults left."""
        width = self.echo["n_blocks"]
        return [([list(entry[at:at + width])
                  for at in range(0, len(entry) - 2, width)], entry[-2:])
                for entry in self.cut.vectors]

    def vector(self, k: int) -> list:
        return self.vectors[self.cut.vector[k]][0]

    def edge_list(self, kept=None) -> list:
        """The (src key, dst key, label) of each explored edge in record
        order, or of each between indices in ``kept``."""
        keys, offsets, targets = self.keys, self.offsets, self.cut.targets
        labels, edge_label = list(self.cut.labels), self.cut.edge_label
        return [(keys[k], keys[targets[e]], labels[edge_label[e]])
                for k in (range(len(keys)) if kept is None else kept)
                for e in range(offsets[k], offsets[k + 1])
                if kept is None or targets[e] in kept]

    @cached_property
    def states(self) -> dict:
        """name -> {"depth", "vector"[, "faults"][, "frontier"]}, in name
        order: the per-state view."""
        states = {}
        for k, key in enumerate(self.keys):
            vector, faults = self.vectors[self.cut.vector[k]]
            states[f"{key:016x}"] = {
                "depth": self.depth[k], "vector": vector,
                **({"faults": list(faults)} if any(faults) else {}),
                **({"frontier": True} if k >= self.cut.expanded else {})}
        return dict(sorted(states.items()))

    @cached_property
    def edges(self) -> list:
        """[src, dst, label] per explored edge, sorted: the edge view."""
        return [[f"{src:016x}", f"{dst:016x}", label]
                for src, dst, label in sorted(self.edge_list())]


# -- structural analysis --------------------------------------------------------

def analyze_structure(atlas: StateAtlas) -> dict:
    """SCC/terminal/deadlock/degree/depth summary of the recorded graph.
    A *terminal* SCC has no edge leaving it: a deadlock basin (one state,
    no successors) or a recurrent class the run never leaves.  A frontier
    state was never expanded: it is neither a deadlock nor terminal."""
    n, offsets, targets = len(atlas.depth), atlas.offsets, atlas.cut.targets
    expanded = atlas.cut.expanded
    in_count = Counter(targets)
    in_degree = Counter(in_count.values()) + Counter({0: n - len(in_count)})
    component = array("I", [0]) * n
    sizes, terminal = [], []
    for number, members in enumerate(components(offsets, targets), 1):
        for member in members:
            component[member] = number
        sizes.append(len(members))
        # A frontier state has no out-edges, so its SCC is itself alone.
        if members[0] < expanded and all(
                component[targets[e]] == number for member in members
                for e in range(offsets[member], offsets[member + 1])):
            terminal.append(len(members))
    depths = Counter(atlas.depth)
    diameter = max(depths)

    def degrees(histogram: Counter) -> dict:
        return {"mean": len(targets) / n, "max": max(histogram),
                "histogram": dict(sorted(histogram.items()))}

    return {
        "sccs": len(sizes),
        "largest_scc": max(sizes),
        "terminal_sccs": len(terminal),
        "terminal_sizes": sorted(terminal, reverse=True),
        "deadlock_states": [f"{key:016x}" for key in sorted(
            atlas.keys[k] for k in range(expanded)
            if offsets[k] == offsets[k + 1])],
        "frontier_states": n - expanded,
        "out_degree": degrees(Counter(map(sub, islice(offsets, 1, None),
                                          offsets))),
        "in_degree": degrees(in_degree),
        "diameter": diameter,
        "depth_profile": [depths[d] for d in range(diameter + 1)],
    }


def residence_heatmap(atlas: StateAtlas) -> dict:
    """Per-(node, protocol-state) residence counts over recorded states,
    split transient vs stable via the header's state flags."""
    counts: Counter = Counter()
    for vector, count in Counter(atlas.cut.vector).items():
        for node, names in enumerate(atlas.vectors[vector][0]):
            for name in names:
                counts[node, name] += count
    rows: dict[str, list[int]] = {}
    for (node, name), count in counts.items():
        rows.setdefault(name, [0] * atlas.echo["n_nodes"])[node] = count
    transient = atlas.transient
    return {
        "states": len(atlas.depth),
        "rows": dict(sorted(rows.items())),
        "transient_states": sorted(transient),
        "transient_fraction": sum(
            count for (_node, name), count in counts.items()
            if name in transient) / (sum(counts.values()) or 1),
    }


# -- rendering ------------------------------------------------------------------

def format_atlas(atlas: StateAtlas, top: int = 10) -> str:
    """The ``teapot analyze atlas`` structural report."""
    header, states = atlas.header, len(atlas.depth)
    verdict = ("PASS" if header["ok"] else "FAIL") + (
        "" if header["exhausted"] else " (state limit reached)")
    structure = analyze_structure(atlas)
    profile = structure["depth_profile"]
    peak = max(profile)
    widths = " ".join(map(str, profile if len(profile) <= 2 * top else [
        *profile[:2 * top - 1], "...", profile[-1]]))
    out_deg, in_deg = structure["out_degree"], structure["in_degree"]
    terminal_sizes = structure["terminal_sizes"]
    sizes = ", ".join(map(str, terminal_sizes[:top])) + (
        ", ..." if len(terminal_sizes) > top else "")
    deadlocks = structure["deadlock_states"]
    lines = [
        f"state atlas: {atlas.config_line()}",
        f"verdict: {verdict}  states={states} "
        f"transitions={atlas.cut.transitions} depth={header['max_depth']}",
        f"coverage: exact -- {states} states, {len(atlas.cut.targets)} "
        "edges recorded",
        f"depth: diameter={structure['diameter']}, frontier width peaks "
        f"at {peak} (depth {profile.index(peak)})",
        f"  states per depth: {widths}",
        f"degrees: out mean {out_deg['mean']:.2f} max {out_deg['max']}; "
        f"in mean {in_deg['mean']:.2f} max {in_deg['max']}",
        f"SCCs: {structure['sccs']} total (largest "
        f"{structure['largest_scc']} states); terminal "
        f"{structure['terminal_sccs']} [{sizes}]"
        " -- a terminal SCC is a basin the run can never leave",
        "deadlock states (out-degree 0): " + (
            f"{len(deadlocks)}: {' '.join(deadlocks[:top])}" if deadlocks
            else "none")]
    if structure["frontier_states"]:
        lines.append(f"unexpanded frontier: {structure['frontier_states']}")

    heat, nodes = residence_heatmap(atlas), range(atlas.echo["n_nodes"])
    lines += [f"residence heatmap (% of {states} kept states per "
              "(node, protocol-state); * = transient):",
              " " * 28 + "".join(f"{f'n{node}':>7s}" for node in nodes)]
    rows = sorted(heat["rows"].items(),
                  key=lambda item: -sum(item[1]))[:max(top, 4)]
    for name, row in rows:
        cells = "".join(f"{100 * count / states:6.1f}%" for count in row)
        lines.append(f"  {'*' if name in atlas.transient else ' '}"
                     f"{name:<25.25s}{cells}")
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
    if [a.echo[key] for key in _CONFIG[:4]] != [
            b.echo[key] for key in _CONFIG[:4]]:
        lines.append("note: configurations differ; deltas compare "
                     "different explorations")
    states_a, states_b = set(a.keys), set(b.keys)
    appeared, vanished = (sorted(states_b - states_a),
                          sorted(states_a - states_b))
    lines.append(
        f"states: {len(states_a)} -> {len(states_b)}  "
        f"(+{len(appeared)} appeared, -{len(vanished)} vanished)")
    for label, keys, atlas in (("appeared", appeared, b),
                               ("vanished", vanished, a)):
        for key in keys[:top]:
            k = atlas.keys.index(key)
            vector = " ".join(f"n{node}:" + "/".join(names)
                              for node, names in enumerate(atlas.vector(k)))
            lines.append(f"    {key:016x}  depth={atlas.depth[k]}  {vector}")
        if len(keys) > top:
            lines.append(f"    ... {len(keys) - top} more {label}")
    edges_a, edges_b = set(a.edge_list()), set(b.edge_list())
    lines.append(
        f"edges: {len(edges_a)} -> {len(edges_b)}  "
        f"(+{len(edges_b - edges_a)} appeared, "
        f"-{len(edges_a - edges_b)} vanished)")
    (terminal_a, dead_a, wide_a), (terminal_b, dead_b, wide_b) = (
        (s["terminal_sccs"], len(s["deadlock_states"]), s["diameter"])
        for s in map(analyze_structure, (a, b)))
    lines.append(f"terminal SCCs: {terminal_a} -> {terminal_b}; deadlock "
                 f"states {dead_a} -> {dead_b}; diameter {wide_a} -> "
                 f"{wide_b}")
    return "\n".join(lines) + "\n"


# -- graph export ---------------------------------------------------------------

def _export_graph(atlas: StateAtlas, max_depth: int | None,
                  protocol_state: str | None):
    """The (nodes, edges) the DOT and GraphML exports share, in name
    order: the states the filters keep, and the edges between them."""
    kept = {k for k in range(len(atlas.depth))
            if (max_depth is None or atlas.depth[k] <= max_depth)
            and (protocol_state is None or any(
                protocol_state in names for names in atlas.vector(k)))}
    nodes, edges = [], []
    for key, k in sorted((atlas.keys[k], k) for k in kept):
        vector, depth = atlas.vector(k), atlas.depth[k]
        nodes.append((f"{key:016x}", {
            "label": f"d{depth}  " + " | ".join(map("/".join, vector)),
            "depth": depth, "shape": "box" if any(map(
                atlas.transient.intersection, vector)) else "ellipse",
            **({"peripheries": 2} if depth == 0 else {})}))
    for src, dst, label in sorted(atlas.edge_list(kept)):
        kind, tag, *_rest = parse_label(label)
        edges.append((f"{src:016x}", f"{dst:016x}", {
            "label": tag, "kind": kind,
            **({"style": "dashed"} if kind in ("drop", "dup") else {})}))
    return nodes, edges


def atlas_to_dot(atlas: StateAtlas, max_depth: int | None = None,
                 protocol_state: str | None = None) -> str:
    """Filtered Graphviz export of the explored graph (small configs)."""
    from repro.analysis.graphio import dot_graph

    return dot_graph(f"{atlas.echo['protocol']} atlas", *_export_graph(
        atlas, max_depth, protocol_state), extra_lines=(
            "node [fontsize=10];",))


def atlas_to_graphml(atlas: StateAtlas, max_depth: int | None = None,
                     protocol_state: str | None = None) -> str:
    """Filtered GraphML export (yEd / Gephi / NetworkX importable)."""
    from repro.analysis.graphio import graphml_graph

    return graphml_graph(f"{atlas.echo['protocol']} atlas", *_export_graph(
        atlas, max_depth, protocol_state))
