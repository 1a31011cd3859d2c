"""Starvation analysis over the explored graph (``--liveness``): from
every reachable state, each node blocked there must reach a state where
it runs.  :func:`components`, the one SCC routine (the atlas's too),
completes components sinks first, so :func:`stuck_thread` folds one
final wake mask per component over the graph the run's record
(checkpoint.Cut) holds (docs/VERIFICATION.md, "Progress checking")."""

from array import array

from repro.verify.model import Memo

DONE = 0xFFFFFFFF       # above every visit number, mask and frame


def components(offsets, targets):
    """Tarjan's strongly connected components of the graph whose state
    ``k`` has successors ``targets[offsets[k]:offsets[k + 1]]``, rooted
    in index order, each state's edges in order.  Yields each one's
    members (its root, then the rest in visit order) sinks first."""
    number = array("I", [0]) * (len(offsets) - 1)  # visit order from 1
    low = array("I", number)
    path, stack = array("I"), array("I")  # (state, next edge); open states
    count = 0
    for root in range(len(number)):
        if number[root]:
            continue
        node, edge = root, offsets[root]
        while True:
            if edge == offsets[node]:                   # first visit
                count = number[node] = low[node] = count + 1
                stack.append(node)
            end, least = offsets[node + 1], low[node]
            while edge < end:
                seen = number[targets[edge]]
                if not seen:
                    break
                least = seen if seen < least else least
                edge += 1
            low[node] = least
            if edge < end:                              # descend
                path.extend((node, edge + 1))
                node, edge = targets[edge], offsets[targets[edge]]
                continue
            if least == number[node]:                   # its root: pop
                at = len(stack)
                while number[node] != DONE:
                    at -= 1
                    number[stack[at]] = DONE
                yield stack[at:]
                del stack[at:]
            if not path:
                break
            child, edge, node = node, path.pop(), path.pop()
            low[node] = min(low[node], low[child])


def stuck_thread(n_nodes: int, blocked, offsets, targets, renamings=None,
                 group=None, canonical=None):
    """The first ``(node, index)``, lowest node then index, whose blocked
    thread no continuation of the run wakes, else None.  ``blocked[k]``
    masks the nodes blocked in state ``k``; ``group`` (symmetry) lists
    renamings, identity first and closed under composition, and
    ``renamings[e]`` indexes the one edge ``e`` applies to node ids, or,
    given ``canonical``, the one taking its successor onto the canonical
    image ``canonical[k]`` takes state ``k`` onto: the two compose.
    Inside a component each edge's constraint is an equality: a member's
    mask is the component's one mask under the renaming its visit path
    composes (its frame), closed under those the other edges close."""
    group = group or [tuple(range(n_nodes))]
    at = {g: k for k, g in enumerate(group)}
    full = (1 << n_nodes) - 1
    # product[a][b]: group[a] after group[b]; pull[g][mask]: bit i is bit
    # g[i] of mask; step[f][g]: the frame across renaming g from frame f.
    product = [[at[tuple(a[j] for j in b)] for b in group] for a in group]
    inverse = [row.index(0) for row in product]
    pull = [Memo(lambda mask, g=g: sum((mask >> j & 1) << i for i, j in
                                       enumerate(g))) for g in group]
    step = [[row[g] for g in inverse] for row in product]
    # wake[k]: the nodes that run in state k or after it, DONE until its
    # component is; bit i of it is bit group[frame[k]][i] of the mask.
    wake = array("I", [DONE]) * len(blocked)
    frame = array("I", wake)
    for members in components(offsets, targets):
        mask, cycles = 0, set()
        frame[members[0]] = 0
        for source in members:
            own, row = full & ~blocked[source], step[frame[source]]
            for edge in range(offsets[source], offsets[source + 1]):
                target, g = targets[edge], renamings[edge] if renamings else 0
                if canonical:
                    g = product[inverse[canonical[target]]][g]
                if wake[target] != DONE:
                    own |= pull[g][wake[target]]
                elif frame[target] == DONE:
                    frame[target] = row[g]
                elif frame[target] != row[g]:
                    cycles.add(product[frame[target]][inverse[row[g]]])
            mask |= pull[inverse[frame[source]]][own]
        for _ in range(n_nodes):        # each pass adds a bit or none
            for g in cycles:
                mask |= pull[g][mask]
        for member in members:
            wake[member] = pull[frame[member]][mask]
    return min(((node, k) for k, mask in enumerate(wake) if mask != full
                for node in range(n_nodes) if not mask >> node & 1),
               default=None)
