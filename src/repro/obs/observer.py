"""The Observer facade: the one object instrumented code talks to.

Hosts (the simulator machine, node contexts, the handler engine)
hold either ``None`` -- observability off, the default -- or an
:class:`Observer` bundling a trace sink and an optional metrics
registry.  Every instrumentation site is a single ``obs is None``
test away from the uninstrumented path, and inside the Observer each
channel is skipped independently (``NullSink`` is falsy), so tracing
and metrics can be enabled separately.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, V_CORE, V_FAULTS, TraceSink


class Observer:
    """Routes structured events to a sink and aggregates to a registry."""

    def __init__(self, sink: Optional[TraceSink] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.sink = NULL_SINK if sink is None else sink
        self.metrics = metrics
        self._send_seq = 0
        # The (state, message) of the handler currently executing; used
        # to attribute queue/nack/error dispositions.  Protocol actions
        # are atomic, so one slot suffices even with many nodes.
        self._current: Optional[tuple[str, str]] = None

    @property
    def active(self) -> bool:
        """False when every channel is off (null sink, no metrics).

        Hosts may drop an inactive Observer entirely and run the
        uninstrumented ``obs is None`` fast path instead.
        """
        return bool(self.sink) or self.metrics is not None

    def close(self) -> None:
        self.sink.close()

    # -- handler lifecycle -------------------------------------------------

    def handler_entry(self, node: int, block: int, state: str, msg: str,
                      src: int, t: int) -> None:
        self._current = (state, msg)
        if self.sink:
            self.sink.emit({"ev": "handler_entry", "v": V_CORE,
                            "t": t, "node": node, "block": block, "state": state, "msg": msg,
                            "src": src})

    def handler_exit(self, node: int, block: int, state: str, msg: str,
                     start: int, end: int) -> None:
        self._current = None
        if self.metrics is not None:
            self.metrics.record_dispatch(state, msg, end - start)
        if self.sink:
            self.sink.emit({"ev": "handler_exit", "v": V_CORE,
                            "t": end, "node": node, "block": block, "state": state, "msg": msg,
                            "start": start, "cycles": end - start})

    # -- continuations -----------------------------------------------------

    def suspend(self, node: int, block: int, handler: str, site: int,
                static: bool, saved: tuple, to_state: str, t: int) -> None:
        state, _, msg = handler.partition(".")
        if self.metrics is not None:
            self.metrics.record_suspend(state, msg, static)
        if self.sink:
            self.sink.emit({"ev": "suspend", "v": V_CORE, "t": t,
                            "node": node,
                            "block": block, "handler": handler,
                            "site": site, "cont": f"{handler}#{site}",
                            "static": static, "saved": list(saved),
                            "to": to_state})

    def resume(self, node: int, block: int, handler: str, site: int,
               direct: bool, t: int) -> None:
        state, _, msg = handler.partition(".")
        if self.metrics is not None:
            self.metrics.record_resume(state, msg)
        if self.sink:
            self.sink.emit({"ev": "resume", "v": V_CORE, "t": t,
                            "node": node,
                            "block": block, "handler": handler,
                            "site": site, "cont": f"{handler}#{site}",
                            "direct": direct})

    # -- messages ----------------------------------------------------------

    def next_send_seq(self) -> int:
        self._send_seq += 1
        return self._send_seq

    def send(self, seq: int, tag: str, block: int, src: int, dst: int,
             with_data: bool, t: int, arrival: int) -> None:
        if self.sink:
            self.sink.emit({"ev": "send", "v": V_CORE, "t": t,
                            "seq": seq, "tag": tag,
                            "block": block, "src": src, "dst": dst,
                            "data": with_data, "arrival": arrival})

    def deliver(self, seq: int, tag: str, block: int, src: int, dst: int,
                t: int, reorder: bool) -> None:
        if self.sink:
            self.sink.emit({"ev": "deliver", "v": V_CORE, "t": t,
                            "seq": seq,
                            "tag": tag, "block": block, "src": src,
                            "dst": dst, "reorder": reorder})

    # -- fault injection and recovery (schema v3 kinds) --------------------

    def net_drop(self, tag: str, block: int, src: int, dst: int,
                 t: int) -> None:
        """The fault plan dropped a message at send time (no matching
        send/deliver pair will appear)."""
        if self.sink:
            self.sink.emit({"ev": "net.drop", "v": V_FAULTS, "t": t,
                            "tag": tag, "block": block, "src": src,
                            "dst": dst})

    def net_dup(self, seq: int, tag: str, block: int, src: int, dst: int,
                t: int, arrival: int) -> None:
        """An extra copy scheduled by the fault plan; its deliver event
        carries this seq, which no send event carries."""
        if self.sink:
            self.sink.emit({"ev": "net.dup", "v": V_FAULTS, "t": t,
                            "seq": seq, "tag": tag, "block": block,
                            "src": src, "dst": dst, "arrival": arrival})

    def retry(self, node: int, block: int, tag: str, dst: int,
              attempt: int, t: int, state: Optional[str] = None) -> None:
        """The watchdog re-injected one captured request message."""
        if self.metrics is not None and state is not None:
            self.metrics.record_retry(state, tag)
        if self.sink:
            event = {"ev": "retry", "v": V_FAULTS, "t": t, "node": node,
                     "block": block, "tag": tag, "dst": dst,
                     "attempt": attempt}
            if state is not None:
                event["state"] = state
            self.sink.emit(event)

    def timeout(self, node: int, block: int, attempt: int, waited: int,
                t: int) -> None:
        """A blocked access fault's watchdog timer expired."""
        if self.sink:
            self.sink.emit({"ev": "timeout", "v": V_FAULTS, "t": t,
                            "node": node, "block": block,
                            "attempt": attempt, "waited": waited})

    # -- faults ------------------------------------------------------------

    def fault_begin(self, node: int, block: int, tag: str, t: int) -> None:
        if self.sink:
            self.sink.emit({"ev": "fault_begin", "v": V_CORE,
                            "t": t, "node": node,
                            "block": block, "tag": tag})

    def fault_end(self, node: int, block: int, start: int, t: int,
                  sync: bool = False) -> None:
        if self.sink:
            self.sink.emit({"ev": "fault_end", "v": V_CORE,
                            "t": t, "node": node,
                            "block": block, "start": start,
                            "wait": t - start, "sync": sync})

    # -- state and dispositions --------------------------------------------

    def state_change(self, node: int, block: int, old: str, new: str,
                     args: tuple, t: int) -> None:
        if self.sink:
            event = {"ev": "state", "v": V_CORE, "t": t,
                     "node": node, "block": block,
                     "from": old, "to": new}
            if args:
                event["args"] = [repr(a) for a in args]
            self.sink.emit(event)

    def queue_defer(self, node: int, block: int, tag: str, depth: int,
                    t: int) -> None:
        current = self._current
        if self.metrics is not None and current is not None:
            self.metrics.record_queue(current[0], current[1], depth)
        if self.sink:
            event = {"ev": "queue", "v": V_CORE, "t": t,
                     "node": node, "block": block,
                     "tag": tag, "depth": depth}
            self._attribute(event)
            self.sink.emit(event)

    def queue_replay(self, node: int, block: int, tag: str, src: int,
                     t: int) -> None:
        """A deferred message leaves the block's queue for redelivery.

        Emitted between the handler whose state change re-enabled the
        queue and the handler the replayed message dispatches to; the
        causal analysis pairs it with the earlier ``queue`` event so a
        chain survives the defer/redeliver hop.
        """
        if self.sink:
            self.sink.emit({"ev": "replay", "v": V_CORE, "t": t,
                            "node": node, "block": block,
                            "tag": tag, "src": src})

    def nack(self, node: int, block: int, tag: str, dst: int,
             t: int) -> None:
        if self.sink:
            event = {"ev": "nack", "v": V_CORE, "t": t,
                     "node": node, "block": block,
                     "tag": tag, "dst": dst}
            self._attribute(event)
            self.sink.emit(event)

    def error(self, node: int, text: str, t: int) -> None:
        if self.sink:
            event = {"ev": "error", "v": V_CORE, "t": t,
                     "node": node, "text": text}
            self._attribute(event)
            self.sink.emit(event)

    def _attribute(self, event: dict) -> None:
        if self._current is not None:
            event["state"], event["msg"] = self._current
