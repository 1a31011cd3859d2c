"""A pure-JSON, pickle-free codec for checker states.

Tagged arrays keep tuples, sets, messages, and continuation records
apart from plain JSON lists; scalars pass through unchanged.  The
format is deliberately pickle-free so loading a state never executes
anything.  No command runs it (checkpoints store frontier states by
reference), so a run never imports this module;
:mod:`repro.verify.fingerprint` re-exports its two entry points lazily.
"""

from __future__ import annotations

from repro.runtime.context import Message
from repro.runtime.continuation import ContinuationRecord
from repro.verify.fingerprint import StateCodecError
from repro.verify.model import AppView, BlockView, GlobalState


def _to_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Message):          # a tuple too: before tuple
        return ["m", value.tag, value.block, value.src, value.dst,
                _to_jsonable(value.payload), _to_jsonable(value.data)]
    if isinstance(value, ContinuationRecord):  # a tuple too: before tuple
        return ["c", value.handler, value.site_id,
                _to_jsonable(value.saved), value.is_static]
    if isinstance(value, tuple):
        return ["t", [_to_jsonable(item) for item in value]]
    if isinstance(value, frozenset):
        items = [_to_jsonable(item) for item in value]
        items.sort(key=repr)
        return ["fs", items]
    raise StateCodecError(
        f"cannot serialise value of type {type(value).__name__}: {value!r}")


def _from_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    tag = value[0]
    if tag == "t":
        return tuple(_from_jsonable(item) for item in value[1])
    if tag == "fs":
        return frozenset(_from_jsonable(item) for item in value[1])
    if tag == "m":
        return Message(value[1], value[2], value[3], value[4],
                       payload=_from_jsonable(value[5]),
                       data=_from_jsonable(value[6]))
    if tag == "c":
        return ContinuationRecord(value[1], value[2],
                                  _from_jsonable(value[3]), value[4])
    raise StateCodecError(f"unknown codec tag {tag!r}")


def state_to_jsonable(state: GlobalState) -> dict:
    """A pure-JSON rendering of a state."""
    return {
        "blocks": [
            [
                {
                    "state": view.state_name,
                    "args": _to_jsonable(view.state_args),
                    "info": _to_jsonable(view.info),
                    "access": view.access,
                    "queue": _to_jsonable(view.queue),
                }
                for view in node_blocks
            ]
            for node_blocks in state.blocks
        ],
        "apps": [
            {"blocked_on": app.blocked_on, "gen": _to_jsonable(app.gen)}
            for app in state.apps
        ],
        "channels": [
            [_to_jsonable(channel) for channel in row]
            for row in state.channels
        ],
        # Fault budget is written only when nonzero: fault-free
        # states keep the pre-fault schema exactly.
        **({"faults": list(state.faults)}
           if state.faults != (0, 0) else {}),
    }


def state_from_jsonable(payload: dict) -> GlobalState:
    """Inverse of :func:`state_to_jsonable`."""
    return GlobalState(
        blocks=tuple(
            tuple(
                BlockView(
                    state_name=view["state"],
                    state_args=_from_jsonable(view["args"]),
                    info=_from_jsonable(view["info"]),
                    access=view["access"],
                    queue=_from_jsonable(view["queue"]),
                )
                for view in node_blocks
            )
            for node_blocks in payload["blocks"]
        ),
        apps=tuple(
            AppView(blocked_on=app["blocked_on"],
                    gen=_from_jsonable(app["gen"]))
            for app in payload["apps"]
        ),
        channels=tuple(
            tuple(_from_jsonable(channel) for channel in row)
            for row in payload["channels"]
        ),
        faults=tuple(payload.get("faults", (0, 0))),
    )
