"""Property tests for the engine's copy-on-first-touch journal.

Successor construction runs each action against an
:class:`~repro.verify.model.ActionScratch`: a per-action journal over a
frozen parent ``GlobalState``, built fresh for every recorded action.
Its soundness rests on two properties this file drives with hypothesis
across real reachable states:

- *the parent is inviolate*: no mutation sequence, frozen or not, may
  leak through the lazy copy-on-first-touch journal into the parent;
- *replay equals materialisation*: the checker's tuple-surgery replay of
  the distilled effects builds the successor the journal implies
  (:func:`freeze`, the slow reference below).
"""

from hypothesis import given, settings, strategies as st

from repro.protocols import compile_named_protocol
from repro.runtime.context import Message
from repro.tempest.memory import AccessTag
from repro.verify.checker import ModelChecker
from repro.verify.fingerprint import state_to_jsonable
from repro.verify.model import (
    ActionEffects,
    ActionScratch,
    AppView,
    GlobalState,
    initial_global_state,
)


def reachable(name, limit=40, reorder=1):
    """(checker, state) pairs from a shallow BFS of a real protocol."""
    checker = ModelChecker(compile_named_protocol(name), n_nodes=2,
                           n_blocks=1, reorder_bound=reorder)
    state = initial_global_state(
        checker.protocol, checker.n_nodes, checker.n_blocks,
        checker.events.initial, faults=checker.fault_budget)
    pool = [state]
    seen = {state}
    frontier = [state]
    while frontier and len(pool) < limit:
        next_frontier = []
        for current in frontier:
            try:
                successors = list(checker._successors(current))
            except Exception:
                continue
            for _label, successor, *_move in successors:
                if successor in seen:
                    continue
                seen.add(successor)
                pool.append(successor)
                next_frontier.append(successor)
                if len(pool) >= limit:
                    break
            if len(pool) >= limit:
                break
        frontier = next_frontier
    return [(checker, found) for found in pool]


POOL = reachable("stache") + reachable("lcm_mcc")

ACCESS = st.sampled_from([tag.value for tag in AccessTag])
BLOCKS = st.integers(min_value=0, max_value=0)       # pool is n_blocks=1
NODES = st.integers(min_value=0, max_value=1)        # pool is n_nodes=2
SCALARS = st.one_of(st.integers(min_value=-4, max_value=4),
                    st.sampled_from(["a", "b"]))

MESSAGES = st.builds(
    Message,
    tag=st.sampled_from(["REQ", "ACK", "INV", "DATA"]),
    block=BLOCKS, src=NODES, dst=NODES,
    payload=st.tuples(st.integers(min_value=0, max_value=3)))

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set_state"), BLOCKS,
                  st.sampled_from(["Home_Idle", "Cache_Invalid", "X_Test"]),
                  st.tuples(st.integers(min_value=0, max_value=3))),
        st.tuples(st.just("set_access"), BLOCKS, ACCESS),
        st.tuples(st.just("write_info"), BLOCKS,
                  st.sampled_from(["owner", "pending", "count"]), SCALARS),
        st.tuples(st.just("queue_push"), BLOCKS, MESSAGES),
        st.tuples(st.just("queue_pop"), BLOCKS),
        st.tuples(st.just("send"), MESSAGES),
        st.tuples(st.just("block_on"), st.one_of(st.none(), BLOCKS)),
    ),
    max_size=12)


def apply_op(scratch, op):
    kind = op[0]
    if kind == "set_state":
        record = scratch.record(op[1])
        record["state_name"] = op[2]
        record["state_args"] = op[3]
        record["state_changed"] = True
    elif kind == "set_access":
        scratch.record(op[1])["access"] = op[2]
    elif kind == "write_info":
        scratch.record(op[1])["info"][op[2]] = op[3]
    elif kind == "queue_push":
        scratch.record(op[1])["queue"].append(op[2])
    elif kind == "queue_pop":
        queue = scratch.record(op[1])["queue"]
        if queue:
            queue.pop(0)
    elif kind == "send":
        scratch.sends.append(op[1])
    elif kind == "block_on":
        scratch.blocked_on = op[1]


def freeze(scratch, parent) -> GlobalState:
    """The full successor state a journal over ``parent`` implies, built
    the slow way: the reference for the checker's incremental replay."""
    node = scratch.node
    blocks = parent.blocks
    changed = scratch.changed_views()
    if changed:
        row = list(blocks[node])
        for block, view in changed:
            row[block] = view
        blocks = blocks[:node] + (tuple(row),) + blocks[node + 1:]
    apps = parent.apps
    app = apps[node]
    if scratch.blocked_on != app.blocked_on:
        apps = apps[:node] + (
            AppView(scratch.blocked_on, app.gen),) + apps[node + 1:]
    channels = parent.channels
    if scratch.sends:
        appended: dict = {}
        for message in scratch.sends:
            appended.setdefault(message.dst, []).append(message)
        row = list(channels[node])
        for dst, extra in appended.items():
            row[dst] = row[dst] + tuple(extra)
        channels = channels[:node] + (tuple(row),) + channels[node + 1:]
    return GlobalState(blocks, apps, channels, parent.faults)


@settings(max_examples=80, deadline=None)
@given(index=st.integers(min_value=0, max_value=len(POOL) - 1),
       node=NODES, ops=OPS)
def test_mutations_never_leak_into_parent(index, node, ops):
    _checker, state = POOL[index]
    snapshot = state_to_jsonable(state)
    before_hash = hash(state)
    scratch = ActionScratch(state, node)
    for op in ops:
        apply_op(scratch, op)
    freeze(scratch, state)  # materializing the successor must not help
    assert state_to_jsonable(state) == snapshot
    assert hash(state) == before_hash


@settings(max_examples=80, deadline=None)
@given(index=st.integers(min_value=0, max_value=len(POOL) - 1),
       node=NODES, ops=OPS)
def test_freeze_matches_incremental_replay(index, node, ops):
    """:func:`freeze` (the slow reference) and the checker's tuple-surgery
    replay of the distilled effects, a move template played, must build
    the same successor."""
    checker, state = POOL[index]
    scratch = ActionScratch(state, node)
    for op in ops:
        apply_op(scratch, op)
    effects = ActionEffects(
        scratch.changed_views(), tuple(scratch.sends), scratch.blocked_on,
        (), None, (node * checker.n_blocks,
                   checker._chan0 + node * checker.n_nodes))
    frozen = freeze(scratch, state)
    replayed = checker._replayed(state, node, effects)
    assert replayed == frozen
    assert hash(replayed) == hash(frozen)
