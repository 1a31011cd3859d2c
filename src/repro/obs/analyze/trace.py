"""Loading a JSONL trace into an indexed event model.

A trace is the list of event dicts a :class:`~repro.obs.sinks.JsonlSink`
wrote, in emission order.  Emission order is the simulator's execution
order, so it is a valid topological order of the happens-before relation
(every cross edge -- send before deliver, suspend before resume, queue
before replay -- points backwards in file order); the analyses in this
package rely on that.

Every event must carry the schema-version field ``v`` inside the range
[:data:`~repro.obs.sinks.MIN_SCHEMA_VERSION`,
:data:`~repro.obs.sinks.SCHEMA_VERSION`] (each kind is stamped with the
version in which it last changed); traces from other builds are
rejected with a :class:`TraceError` asking for regeneration rather than
silently misread.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.ioutil import read_text
from repro.lang.errors import TeapotError
from repro.obs.sinks import MIN_SCHEMA_VERSION, SCHEMA_VERSION


class TraceError(TeapotError):
    """A trace file is missing, empty, malformed, or wrong-schema."""


# Event kinds located on a node timeline, and the field that names the
# node.  send happens on the sender; deliver on the receiver.  Checker
# events (checker_step, violation) have no timeline location.
_LOCATION_FIELD = {
    "handler_entry": "node",
    "handler_exit": "node",
    "suspend": "node",
    "resume": "node",
    "send": "src",
    "deliver": "dst",
    "fault_begin": "node",
    "fault_end": "node",
    "state": "node",
    "queue": "node",
    "replay": "node",
    "nack": "node",
    "error": "node",
    "net.drop": "src",
    "net.dup": "src",
    "retry": "node",
    "timeout": "node",
}


def parse_events(text: str, path: str) -> list[dict]:
    """Validate the JSONL trace ``text`` read from ``path``."""
    events: list[dict] = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceError(
                f"{path}:{lineno}: not valid JSON ({error.msg}); "
                "expected one event object per line") from None
        if not isinstance(event, dict) or "ev" not in event:
            raise TraceError(
                f"{path}:{lineno}: not a trace event (no 'ev' field)")
        version = event.get("v")
        if version is None:
            raise TraceError(
                f"{path}:{lineno}: unversioned event (schema v1?); "
                "regenerate the trace with this build's --trace")
        if not (MIN_SCHEMA_VERSION <= version <= SCHEMA_VERSION):
            raise TraceError(
                f"{path}:{lineno}: schema version {version}, but this "
                f"build reads versions {MIN_SCHEMA_VERSION}.."
                f"{SCHEMA_VERSION}")
        events.append(event)
    if not events:
        raise TraceError(f"{path}: empty trace (no events)")
    return events


class Trace:
    """An indexed trace: events plus the pairings the analyses need.

    Indexes (all built eagerly; traces are small relative to the runs
    that made them):

    - ``send_of_seq`` / ``deliver_of_seq``: message seq -> event index.
    - ``resume_of`` / ``suspend_of``: suspend index <-> resume index,
      paired per (node, block, cont) in FIFO order.
    - ``queue_of_replay``: replay index -> the queue event it redelivers,
      paired per (node, block, tag) in FIFO order.
    - ``fault_pairs``: (fault_begin index, fault_end index) per node in
      order (one outstanding fault per node at a time).
    - ``handler_spans``: (handler_entry index, handler_exit index) per
      node in order (handlers never nest on a node).
    """

    def __init__(self, events: list[dict], path: str = "<trace>"):
        self.events = events
        self.path = path
        self.send_of_seq: dict[int, int] = {}
        self.deliver_of_seq: dict[int, int] = {}
        self.resume_of: dict[int, int] = {}
        self.suspend_of: dict[int, int] = {}
        self.queue_of_replay: dict[int, int] = {}
        self.fault_pairs: list[tuple[int, Optional[int]]] = []
        self.handler_spans: list[tuple[int, Optional[int]]] = []
        self._build()

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def location(self, index: int) -> Optional[int]:
        """The node whose timeline event ``index`` belongs to."""
        event = self.events[index]
        f = _LOCATION_FIELD.get(event["ev"])
        return event[f] if f is not None else None

    @property
    def n_nodes(self) -> int:
        best = -1
        for index in range(len(self.events)):
            loc = self.location(index)
            if loc is not None and loc > best:
                best = loc
        return best + 1

    # -- index construction ------------------------------------------------

    def _build(self) -> None:
        pending_suspends: dict[tuple, list[int]] = {}
        pending_queues: dict[tuple, list[int]] = {}
        open_fault: dict[int, int] = {}
        open_handler: dict[int, int] = {}
        fault_slot: dict[int, int] = {}
        handler_slot: dict[int, int] = {}
        for index, event in enumerate(self.events):
            kind = event["ev"]
            if kind == "send":
                self.send_of_seq[event["seq"]] = index
            elif kind == "deliver":
                self.deliver_of_seq[event["seq"]] = index
            elif kind == "suspend":
                key = (event["node"], event["block"], event["cont"])
                pending_suspends.setdefault(key, []).append(index)
            elif kind == "resume":
                key = (event["node"], event["block"], event["cont"])
                stack = pending_suspends.get(key)
                if stack:
                    suspend_index = stack.pop(0)
                    self.suspend_of[index] = suspend_index
                    self.resume_of[suspend_index] = index
            elif kind == "queue":
                key = (event["node"], event["block"], event["tag"])
                pending_queues.setdefault(key, []).append(index)
            elif kind == "replay":
                key = (event["node"], event["block"], event["tag"])
                stack = pending_queues.get(key)
                if stack:
                    self.queue_of_replay[index] = stack.pop(0)
            elif kind == "fault_begin":
                node = event["node"]
                fault_slot[node] = len(self.fault_pairs)
                open_fault[node] = index
                self.fault_pairs.append((index, None))
            elif kind == "fault_end":
                node = event["node"]
                if node in open_fault:
                    slot = fault_slot.pop(node)
                    begin = open_fault.pop(node)
                    self.fault_pairs[slot] = (begin, index)
            elif kind == "handler_entry":
                node = event["node"]
                handler_slot[node] = len(self.handler_spans)
                open_handler[node] = index
                self.handler_spans.append((index, None))
            elif kind == "handler_exit":
                node = event["node"]
                if node in open_handler:
                    slot = handler_slot.pop(node)
                    open_handler.pop(node)
                    self.handler_spans[slot] = (
                        self.handler_spans[slot][0], index)

    # -- queries -----------------------------------------------------------

    def indices(self, *kinds: str) -> list[int]:
        wanted = set(kinds)
        return [i for i, e in enumerate(self.events) if e["ev"] in wanted]

    def describe(self, index: int) -> str:
        """One compact human line for an event (used by renderers)."""
        e = self.events[index]
        kind = e["ev"]
        if kind == "handler_entry":
            return f"[ {e['state']}.{e['msg']} b{e['block']}"
        if kind == "handler_exit":
            return f"] {e['state']}.{e['msg']} ({e['cycles']}cy)"
        if kind == "send":
            data = "+data " if e["data"] else ""
            return (f"send #{e['seq']} {e['tag']} b{e['block']} "
                    f"{data}-> n{e['dst']}")
        if kind == "deliver":
            flag = " (reordered)" if e.get("reorder") else ""
            return (f"recv #{e['seq']} {e['tag']} b{e['block']} "
                    f"<- n{e['src']}{flag}")
        if kind == "suspend":
            return f"suspend {e['cont']} -> {e['to']}"
        if kind == "resume":
            flag = " (direct)" if e.get("direct") else ""
            return f"resume {e['cont']}{flag}"
        if kind == "queue":
            return f"defer {e['tag']} (depth {e['depth']})"
        if kind == "replay":
            return f"replay {e['tag']} b{e['block']}"
        if kind == "state":
            return f"state {e['from']} -> {e['to']}"
        if kind == "fault_begin":
            return f"fault {e['tag']} b{e['block']}"
        if kind == "fault_end":
            return f"fault done b{e['block']} (wait {e['wait']})"
        if kind == "nack":
            return f"nack {e['tag']} -> n{e['dst']}"
        if kind == "error":
            return f"error: {e['text']}"
        if kind == "net.drop":
            return f"DROP {e['tag']} b{e['block']} -> n{e['dst']}"
        if kind == "net.dup":
            return f"DUP #{e['seq']} {e['tag']} b{e['block']} -> n{e['dst']}"
        if kind == "retry":
            return (f"retry {e['tag']} b{e['block']} -> n{e['dst']} "
                    f"(attempt {e['attempt']})")
        if kind == "timeout":
            return (f"timeout b{e['block']} after {e['waited']}cy "
                    f"(attempt {e['attempt']})")
        return kind


def load_trace(path: str) -> Trace:
    """Load and index one JSONL trace."""
    return Trace(parse_events(read_text(path, TraceError), path), path)
