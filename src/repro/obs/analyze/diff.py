"""Comparing two traces, or two coverage reports.

The paper's comparisons are always pairwise -- stache vs stache_nack,
optimised vs unoptimised, FIFO vs reordering -- so ``diff`` renders the
deltas that matter between two runs of the same workload: event volume
by kind, handler dispatch mix, message mix, reorderings, suspends split
static/heap, and end-of-run time.
"""

from __future__ import annotations

from repro.obs.analyze.coverage import CoverageReport
from repro.obs.analyze.trace import Trace


def _counts_by(trace: Trace, key_of) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in trace.events:
        key = key_of(event)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


def _delta_table(title: str, a: dict[str, int], b: dict[str, int],
                 lines: list[str]) -> None:
    keys = sorted(set(a) | set(b))
    if not keys:
        return
    lines.append(f"{title}:")
    for key in keys:
        left, right = a.get(key, 0), b.get(key, 0)
        delta = right - left
        mark = f"{delta:+d}" if delta else "="
        lines.append(f"  {key:40s} {left:>8} -> {right:<8} {mark}")


def diff_traces(a: Trace, b: Trace) -> str:
    """Human-readable delta between two traces (A -> B)."""
    lines = [
        f"A: {a.path}  ({len(a.events)} events)",
        f"B: {b.path}  ({len(b.events)} events)",
        "",
    ]

    def max_t(trace: Trace) -> int:
        return max((e.get("t", 0) for e in trace.events), default=0)

    def scalar(label: str, left, right) -> None:
        delta = right - left
        mark = f"{delta:+d}" if delta else "="
        lines.append(f"  {label:40s} {left:>8} -> {right:<8} {mark}")

    lines.append("totals:")
    scalar("events", len(a.events), len(b.events))
    scalar("last timestamp", max_t(a), max_t(b))
    scalar("reordered deliveries",
           sum(1 for e in a.events
               if e["ev"] == "deliver" and e.get("reorder")),
           sum(1 for e in b.events
               if e["ev"] == "deliver" and e.get("reorder")))
    scalar("static suspends",
           sum(1 for e in a.events
               if e["ev"] == "suspend" and e.get("static")),
           sum(1 for e in b.events
               if e["ev"] == "suspend" and e.get("static")))
    scalar("heap suspends",
           sum(1 for e in a.events
               if e["ev"] == "suspend" and not e.get("static")),
           sum(1 for e in b.events
               if e["ev"] == "suspend" and not e.get("static")))
    lines.append("")

    _delta_table("events by kind",
                 _counts_by(a, lambda e: e["ev"]),
                 _counts_by(b, lambda e: e["ev"]), lines)
    lines.append("")

    def handler_key(event: dict):
        if event["ev"] == "handler_entry":
            return f"{event['state']}.{event['msg']}"
        return None

    _delta_table("handler dispatches",
                 _counts_by(a, handler_key),
                 _counts_by(b, handler_key), lines)
    lines.append("")

    def send_key(event: dict):
        return event["tag"] if event["ev"] == "send" else None

    _delta_table("messages sent by tag",
                 _counts_by(a, send_key),
                 _counts_by(b, send_key), lines)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def diff_coverage(a: CoverageReport, b: CoverageReport) -> str:
    """Delta between two coverage reports (A -> B)."""
    lines = [
        f"A: {a.protocol} ({a.source}) "
        f"{a.covered}/{len(a.arms)} arms",
        f"B: {b.protocol} ({b.source}) "
        f"{b.covered}/{len(b.arms)} arms",
        "",
    ]
    # An error guard is never in the denominator, but one that fires only
    # in B -- a fault budget tripped it, say -- is code B newly reaches.
    gained = sorted([*(set(a.unreached) - set(b.unreached)),
                     *(f"{guard}  [error guard]" for guard in b.guards
                       if b.fired.get(guard) and not a.fired.get(guard))])
    lost = sorted(set(b.unreached) - set(a.unreached))
    if gained:
        lines.append("newly covered in B:")
        lines.extend(f"  {arm}" for arm in gained)
    if lost:
        lines.append("no longer covered in B:")
        lines.extend(f"  {arm}" for arm in lost)
    if not gained and not lost:
        lines.append("same arms covered in both")
    lines.append("")
    _delta_table("fires per arm", a.fired, b.fired, lines)
    return "\n".join(line.rstrip() for line in lines) + "\n"
