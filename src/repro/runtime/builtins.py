"""Executable semantics of the prelude routines.

Each entry receives the running engine -- anything with ``.ctx`` (the
host :class:`~repro.runtime.context.ProtocolContext`) and ``.protocol``:
the compiled-handler engine the simulator and the checker run, or the
reference interpreter -- and the already-evaluated argument values.
``Suspend`` and ``Resume`` are not here: they need the activation
frame, so each engine handles them itself.
"""

from __future__ import annotations

from repro.runtime.protocol import NOBODY, StateValue


# -- integer division ---------------------------------------------------------
# C's pair, on integers only: the quotient truncates toward zero and the
# remainder takes the dividend's sign, so (a / b) * b + a % b = a.


def div(ctx, left, right):
    if right == 0:
        ctx.error("division by zero in protocol code")
        return 0
    quotient = abs(left) // abs(right)
    return quotient if (left < 0) == (right < 0) else -quotient


def mod(ctx, left, right):
    if right == 0:
        ctx.error("modulo by zero in protocol code")
        return 0
    return left - right * div(ctx, left, right)


# -- messaging ---------------------------------------------------------------


def bi_send(interp, args):
    dst, tag, block, *payload = args
    interp.ctx.send(int(dst), tag, block, tuple(payload), with_data=False)


def bi_send_blk(interp, args):
    dst, tag, block, *payload = args
    interp.ctx.send(int(dst), tag, block, tuple(payload), with_data=True)


def bi_nack(interp, args):
    dst, tag, block = args
    ctx = interp.ctx
    ctx.counters.nacks += 1
    obs = ctx.obs
    if obs is not None:
        obs.nack(ctx.node, block, tag, int(dst), ctx.now)
    ctx.send(int(dst), tag, block, (), with_data=False)


# -- block bookkeeping ---------------------------------------------------------


def bi_set_state(interp, args):
    _info, state_value = args
    if not isinstance(state_value, StateValue):
        interp.ctx.error(
            f"SetState expects a state constructor, got {state_value!r}")
        return
    interp.ctx.set_state(state_value.name, state_value.args)


def bi_access_change(interp, args):
    block, mode = args
    interp.ctx.access_change(block, mode)


def bi_recv_data(interp, args):
    block, mode = args
    interp.ctx.recv_data(block, mode)


def bi_read_word(interp, args):
    block, addr = args
    return interp.ctx.read_word(block, int(addr))


def bi_write_word(interp, args):
    block, addr, value = args
    interp.ctx.write_word(block, int(addr), value)


# -- deferral and control ---------------------------------------------------


def bi_enqueue(interp, args):
    # The arguments (MessageTag, id, info, src) are conventional; the
    # queued message is always the one being handled.
    interp.ctx.enqueue_current()


def bi_retry_queued(interp, args):
    # The conventional argument is the block's info record; the context
    # knows which block the action is positioned at.
    interp.ctx.retry_queued(interp.ctx.current_message.block)


def bi_wakeup(interp, args):
    (block,) = args
    interp.ctx.wakeup(block)


def bi_error(interp, args):
    fmt, *rest = args
    text = str(fmt)
    for value in rest:
        text = text.replace("%s", str(value), 1)
    interp.ctx.error(text)


# -- queries -------------------------------------------------------------------


def bi_home_node(interp, args):
    (block,) = args
    return interp.ctx.home_node(block)


def bi_is_home(interp, args):
    (block,) = args
    return interp.ctx.home_node(block) == interp.ctx.node


def bi_msg_to_str(interp, args):
    (tag,) = args
    return str(tag)


def bi_node_to_int(interp, args):
    (node,) = args
    return int(node)


def bi_int_to_node(interp, args):
    (value,) = args
    return int(value)


def bi_msg_word(interp, args):
    (index,) = args
    payload = interp.ctx.current_message.payload
    if not (0 <= int(index) < len(payload)):
        interp.ctx.error(
            f"MsgWord({index}) out of range for payload {payload!r}")
        return 0
    return payload[int(index)]


# -- sharer sets ----------------------------------------------------------------
# Each takes the block's info record (the handler's INFO) first; the type
# checker admits them only in a protocol with exactly one SharerList.


def bi_is_empty_sharers(interp, args):
    (info,) = args
    return len(info[interp.protocol.sharer_vars[0]]) == 0


def bi_count_sharers(interp, args):
    (info,) = args
    return len(info[interp.protocol.sharer_vars[0]])


def bi_has_sharer(interp, args):
    info, node = args
    return int(node) in info[interp.protocol.sharer_vars[0]]


def bi_pop_sharer(interp, args):
    (info,) = args
    var = interp.protocol.sharer_vars[0]
    sharers = info[var]
    if not sharers:
        interp.ctx.error("PopSharer on an empty sharer set")
        return NOBODY
    # Deterministic choice keeps simulation and model checking stable.
    node = min(sharers)
    info[var] = sharers - {node}
    return node


def bi_nth_sharer(interp, args):
    info, index = args
    sharers = sorted(info[interp.protocol.sharer_vars[0]])
    if not (0 <= int(index) < len(sharers)):
        interp.ctx.error(
            f"NthSharer({index}) out of range for {len(sharers)} sharers")
        return NOBODY
    return sharers[int(index)]


def bi_add_sharer(interp, args):
    info, node = args
    var = interp.protocol.sharer_vars[0]
    info[var] = info[var] | {int(node)}


def bi_del_sharer(interp, args):
    info, node = args
    var = interp.protocol.sharer_vars[0]
    info[var] = info[var] - {int(node)}


def bi_clear_sharers(interp, args):
    (info,) = args
    info[interp.protocol.sharer_vars[0]] = frozenset()


BUILTIN_IMPLS = {
    "Send": bi_send,
    "SendBlk": bi_send_blk,
    "Nack": bi_nack,
    "SetState": bi_set_state,
    "AccessChange": bi_access_change,
    "RecvData": bi_recv_data,
    "ReadWord": bi_read_word,
    "WriteWord": bi_write_word,
    "Enqueue": bi_enqueue,
    "RetryQueued": bi_retry_queued,
    "WakeUp": bi_wakeup,
    "Error": bi_error,
    "HomeNode": bi_home_node,
    "IsHome": bi_is_home,
    "Msg_To_Str": bi_msg_to_str,
    "NodeToInt": bi_node_to_int,
    "IntToNode": bi_int_to_node,
    "MsgWord": bi_msg_word,
    "IsEmptySharers": bi_is_empty_sharers,
    "CountSharers": bi_count_sharers,
    "HasSharer": bi_has_sharer,
    "PopSharer": bi_pop_sharer,
    "NthSharer": bi_nth_sharer,
    "AddSharer": bi_add_sharer,
    "DelSharer": bi_del_sharer,
    "ClearSharers": bi_clear_sharers,
}

# Per-builtin extra cycle charges (attribute names into CostModel),
# applied on top of the per-statement cost after the arguments are
# evaluated and before the routine runs.
BUILTIN_COSTS = {
    "Send": "send",
    "SendBlk": "send_data",
    "Nack": "send",
    "AccessChange": "access_change",
    "RecvData": "recv_data",
    "Enqueue": "queue_alloc",
    "WakeUp": "wakeup",
}
