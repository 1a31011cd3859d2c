"""Starvation analysis over the explored graph (``--liveness``).

From every reachable state, each node blocked there must reach a state
where it runs.  The exploration loop records the graph over the indices
of its one record of the keys it visited -- states, fingerprints, or
canonical fingerprints under symmetry (``checkpoint.Cut.index``, the
visited set) -- as arrays in acceptance order (:class:`KeyGraph`; the
state atlas, ``--atlas-out``, is read off the same record), and
:func:`stuck_thread` runs backward
reachability over (index, node) pairs.  Under symmetry each edge names
the renaming that maps its concrete successor's node ids onto those of
the orbit's explored representative; blocked-ness is equivariant under
a certified quotient, so a pair is stuck exactly when its concrete
counterparts are (docs/VERIFICATION.md, "Progress checking").
"""

from array import array


def stuck_thread(n_nodes: int, blocked, offsets, targets, renamings=None,
                 group=None):
    """The first ``(node, index)`` whose blocked thread no continuation
    of the run ever wakes, lowest node first, then lowest index; None
    when every thread can always run again.

    ``blocked[k]`` is the bitmask of the nodes blocked in state ``k``;
    state ``k``'s successors are ``targets[offsets[k]:offsets[k + 1]]``.
    With ``group`` (node renamings, each a tuple mapping old node to
    new), ``renamings[e]`` indexes edge ``e``'s; without, none renames."""
    size = len(blocked)
    width = 1 if group is None else len(group)
    # Predecessors in CSR form, a counting sort of the edges by target;
    # each entry is ``source * width + renaming``.
    starts = array("q", [0]) * (size + 1)
    for target in targets:
        starts[target + 1] += 1
    for k in range(size):
        starts[k + 1] += starts[k]
    fill = array("q", starts)
    preds = array("q", [0]) * len(targets)
    for source in range(size):
        base = source * width
        for edge in range(offsets[source], offsets[source + 1]):
            target = targets[edge]
            preds[fill[target]] = base + (renamings[edge] if group else 0)
            fill[target] += 1
    # inverse[g][j]: the successor's node that renaming g maps onto j.
    inverse = [[renaming.index(j) for j in range(n_nodes)]
               for renaming in (group or [tuple(range(n_nodes))])]
    # wakes[k * n_nodes + node]: node runs in k or in a state k reaches.
    wakes = bytearray(size * n_nodes)
    work = array("q")
    for k, mask in enumerate(blocked):
        for node in range(n_nodes):
            if not mask >> node & 1:
                wakes[k * n_nodes + node] = 1
                work.append(k * n_nodes + node)
    while work:
        k, node = divmod(work.pop(), n_nodes)
        for entry in preds[starts[k]:starts[k + 1]]:
            source, renaming = divmod(entry, width)
            pair = source * n_nodes + inverse[renaming][node]
            if not wakes[pair]:
                wakes[pair] = 1
                work.append(pair)
    for node in range(n_nodes):
        index = wakes[node::n_nodes].find(0)
        if index >= 0:
            return node, index
    return None


class KeyGraph:
    """The graph one run explores, over the acceptance indices of the
    run's record of its visited keys, as :func:`stuck_thread` and
    :func:`repro.verify.atlas.build_atlas` read it.

    The loop calls :meth:`state` as it accepts each key, :meth:`edge`
    with the target's index for each transition out of the state it
    expands and :meth:`end` after its last one; BFS expands in
    acceptance order, so the edges are CSR as they grow, and a state
    whose row :meth:`end` never closed was not expanded.  ``group``
    (symmetry) lists the node renamings, identity first; :meth:`state`
    and :meth:`edge` then name, by its position there, the one taking
    their state onto its orbit's canonical image.  ``labelled`` (the
    atlas) also keeps each edge's label and each state's ``note``, a
    tuple of ints of one width for every state, flat in ``notes``."""

    def __init__(self, group=None, labelled: bool = False):
        self.blocked = array("q")
        self.offsets = array("q", [0])
        self.targets = array("q")
        self.labels = [] if labelled else None
        self.notes = array("q") if labelled else None
        self.group = group
        self.renamings = None
        if group is not None:
            position = {g: k for k, g in enumerate(group)}
            self.renamings = array("B" if len(group) <= 256 else "H")
            self._canonical = array(self.renamings.typecode)  # per index
            # _relabel[a][b]: a successor whose canonical renaming is
            # group[b], onto a representative whose is group[a].
            self._relabel = [[position[tuple(map(rep.index, image))]
                              for image in group] for rep in group]

    def state(self, blocked: int, renaming: int = 0, note=()) -> None:
        self.blocked.append(blocked)
        if self.renamings is not None:
            self._canonical.append(renaming)
        if self.notes is not None:
            self.notes.extend(note)

    def edge(self, target: int, renaming: int = 0, label=None) -> None:
        self.targets.append(target)
        if self.renamings is not None:
            # A fresh target is this successor, accepted next.
            rep = (self._canonical[target]
                   if target < len(self._canonical) else renaming)
            self.renamings.append(self._relabel[rep][renaming])
        if self.labels is not None:
            self.labels.append(label)

    def end(self) -> None:
        self.offsets.append(len(self.targets))

    def stuck(self, n_nodes: int):
        return stuck_thread(n_nodes, self.blocked, self.offsets,
                            self.targets, self.renamings, self.group)
