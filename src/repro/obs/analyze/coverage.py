"""Handler-coverage: which (state, message) arms a run actually fired.

Two sources feed the same report: a simulator trace (counting
``handler_entry`` events) and a checker exploration (the per-arm fire
counts :class:`~repro.verify.checker.ModelChecker` accumulates across
every dispatch, including queue redeliveries).  An arm that never fires
under an *exhaustive* exploration is dead code -- exactly the Section 7
assurance the paper claims from model checking, inverted: the checker
not only found no bad transition, it exercised every good one.

Error guards -- DEFAULT (or explicit) handlers whose entire body is an
``Error`` call -- are excluded from the denominator: they exist to make
unexpected messages loud, so a passing verification *must* never fire
them.  They are listed separately so they stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import ICall
from repro.ioutil import atomic_write_json, check_envelope, read_json
from repro.obs.analyze.trace import Trace, TraceError
from repro.runtime.protocol import CompiledProtocol

# On-disk format marker for saved coverage reports (analyze coverage -o,
# analyze diff).  Independent of the trace SCHEMA_VERSION.
COVERAGE_KIND = "teapot-coverage"
COVERAGE_VERSION = 1


def is_error_guard(handler) -> bool:
    """True when the handler's whole body is a single ``Error`` call."""
    entry = handler.blocks[handler.entry]
    if len(entry.ops) != 1 or entry.successors():
        return False
    op = entry.ops[0]
    return isinstance(op, ICall) and op.name == "Error"


def arm_universe(protocol: CompiledProtocol
                 ) -> tuple[list[str], list[str]]:
    """(coverable arms, error guards), each as sorted "State.MSG" keys."""
    arms: list[str] = []
    guards: list[str] = []
    for (state_name, message_name), handler in protocol.handlers.items():
        key = f"{state_name}.{message_name}"
        (guards if is_error_guard(handler) else arms).append(key)
    return sorted(arms), sorted(guards)


@dataclass
class CoverageReport:
    """Per-arm fire counts against a protocol's full arm universe."""

    protocol: str = "?"
    source: str = "?"               # e.g. "trace:run.jsonl" or "checker"
    config: dict = field(default_factory=dict)
    fired: dict = field(default_factory=dict)   # "State.MSG" -> count
    arms: list = field(default_factory=list)    # coverable universe
    guards: list = field(default_factory=list)  # excluded error guards

    @property
    def unreached(self) -> list[str]:
        return [arm for arm in self.arms if not self.fired.get(arm)]

    @property
    def covered(self) -> int:
        return sum(1 for arm in self.arms if self.fired.get(arm))

    @property
    def fraction(self) -> float:
        return self.covered / len(self.arms) if self.arms else 1.0

    def headline(self) -> str:
        line = (f"handler coverage: {self.covered}/{len(self.arms)} arms "
                f"fired ({self.fraction:.1%})")
        if self.guards:
            line += f"; {len(self.guards)} error guards excluded"
        return line

    def summary_line(self) -> str:
        line = self.headline()
        unreached = self.unreached
        if 0 < len(unreached) <= 8:
            line += "; never fired: " + ", ".join(unreached)
        elif unreached:
            line += f"; {len(unreached)} arms never fired"
        return line

    def format(self) -> str:
        lines = [
            f"protocol: {self.protocol}  (source: {self.source}"
            + "".join(f" {k}={v}" for k, v in sorted(self.config.items()))
            + ")",
            self.headline(),
        ]
        unreached = self.unreached
        if unreached:
            lines.append("never fired:")
            lines.extend(f"  {arm}" for arm in unreached)
        fired = [(arm, self.fired[arm]) for arm in self.arms
                 if self.fired.get(arm)]
        # Guards should never fire; if one did (a failing run's trace,
        # say), surface it loudly rather than hiding it.
        fired += [(guard, self.fired[guard]) for guard in self.guards
                  if self.fired.get(guard)]
        if fired:
            lines.append("fires per arm:")
            for arm, count in sorted(fired,
                                     key=lambda item: (-item[1], item[0])):
                marker = "  [error guard!]" if arm in self.guards else ""
                lines.append(f"  {arm:40s} {count:>8}{marker}")
        return "\n".join(lines) + "\n"

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": COVERAGE_KIND, "version": COVERAGE_VERSION,
                **vars(self)}

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: dict, path: str = "<coverage>"
                  ) -> "CoverageReport":
        check_envelope(payload, path, TraceError, "coverage report",
                       "verify --coverage-out", COVERAGE_KIND, COVERAGE_VERSION)
        return cls(**{name: payload[name] for name in cls.__dataclass_fields__
                      if name in payload})


def load_coverage(path: str) -> CoverageReport:
    """Read a saved coverage report, with friendly errors."""
    return CoverageReport.from_json(
        read_json(path, TraceError, "coverage report"), path)


def coverage_from_trace(trace: Trace,
                        protocol: CompiledProtocol) -> CoverageReport:
    """Count each handler_entry of a simulator trace against the arms."""
    arms, guards = arm_universe(protocol)
    known = set(arms) | set(guards)
    fired: dict[str, int] = {}
    for index in trace.indices("handler_entry"):
        event = trace.events[index]
        key = f"{event['state']}.{event['msg']}"
        if key not in known:
            raise TraceError(
                f"{trace.path}: trace fires {key}, which protocol "
                f"{protocol.name} does not define -- wrong protocol?")
        fired[key] = fired.get(key, 0) + 1
    return CoverageReport(
        protocol=protocol.name,
        source=f"trace:{trace.path}",
        fired=fired,
        arms=arms,
        guards=guards,
    )


def coverage_from_checker(protocol: CompiledProtocol, result
                          ) -> CoverageReport:
    """Wrap a CheckResult's fire counts (its ``handler_fires`` field)."""
    arms, guards = arm_universe(protocol)
    config = {
        "nodes": result.n_nodes,
        "addrs": result.n_blocks,
        "reorder": result.reorder_bound,
        "states": result.states_explored,
    }
    budget = getattr(result, "fault_budget", (0, 0))
    if budget != (0, 0):
        config["faults"] = f"drop={budget[0]},dup={budget[1]}"
    return CoverageReport(
        protocol=protocol.name,
        source="checker",
        config=config,
        fired=dict(result.handler_fires),
        arms=arms,
        guards=guards,
    )


def fault_only_arms(base: CoverageReport,
                    faulted: CoverageReport) -> list[str]:
    """Arms (including error guards) that fired under a fault budget but
    never in the fault-free exploration -- code that exists purely to
    handle lossy/duplicating networks, or guards a fault can trip."""
    if base.protocol != faulted.protocol:
        raise TraceError(
            f"cannot compare coverage of {base.protocol} against "
            f"{faulted.protocol}")
    return sorted(
        arm for arm, count in faulted.fired.items()
        if count and not base.fired.get(arm))


def format_fault_only(base: CoverageReport, faulted: CoverageReport,
                      budget: str) -> str:
    """Human-readable fault-only coverage comparison."""
    only = fault_only_arms(base, faulted)
    lines = [
        f"protocol: {base.protocol}",
        f"fault-free exploration: {base.headline()}",
        f"under {budget}: {faulted.headline()}",
    ]
    if only:
        lines.append(f"arms reachable only under faults ({len(only)}):")
        for arm in only:
            marker = "  [error guard]" if arm in faulted.guards else ""
            lines.append(f"  {arm}{marker}")
    else:
        lines.append("no arm fired under faults that the fault-free "
                     "exploration missed")
    return "\n".join(lines) + "\n"
