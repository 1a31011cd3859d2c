"""Deterministic fault injection: lossy, duplicating, stalling networks.

Section 2 motivates Teapot with the failure-shaped corner cases that
kill hand-written protocols -- reordered, unexpected, and
dropped-then-retried messages.  This module supplies the missing
adversary: a :class:`FaultPlan` decides, per message, whether the
network drops it, duplicates it, or delays it, plus per-node
:class:`StallWindow` intervals during which a node's incoming
deliveries are held.  Every decision is drawn from the plan's *own*
seeded RNG stream, never from the network's jitter RNG, so a plan whose
rules fire does not perturb the delay sequence of the messages that do
get through -- and a run with faults disabled is byte-identical to one
without this module loaded at all.

Two rule styles compose:

- *scripted*: ``FaultRule(action="drop", tag="INV_ACK", occurrence=1)``
  fires on exactly the first matching message -- how checker
  counterexamples are replayed in the simulator
  (``teapot run --fault-plan``).
- *rate-based*: ``FaultRule(action="dup", rate=0.01)`` fires on a
  matching message with the given probability, deterministically under
  the plan's seed.

:class:`FaultBudget` is the model checker's view of the same adversary:
instead of a schedule it carries *budgets* (how many drops/duplicates
the exploration may spend), and the checker explores every way of
spending them.

:class:`RecoveryConfig` configures the Tempest node layer's answer: a
watchdog that re-issues an outstanding access fault's request messages
with exponential backoff, and an at-least-once dedup layer that absorbs
duplicate deliveries by replaying the outputs of the first delivery.
See docs/ROBUSTNESS.md for the full model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.ioutil import atomic_write_json, check_envelope, read_json

FAULT_ACTIONS = ("drop", "dup", "delay")

PLAN_KIND = "teapot-fault-plan"
PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan (or its JSON form) is malformed."""


@dataclass(frozen=True)
class FaultRule:
    """One match-and-act rule.

    ``None`` match fields are wildcards.  ``occurrence=k`` makes the
    rule scripted: it fires on exactly the k-th matching message
    (1-based) and never again.  Without ``occurrence``, the rule fires
    on each matching message with probability ``rate``, up to ``limit``
    total firings (``None`` = unlimited).
    """

    action: str                      # "drop" | "dup" | "delay"
    tag: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    block: Optional[int] = None
    occurrence: Optional[int] = None
    rate: float = 1.0
    delay: int = 0                   # extra cycles, for action="delay"
    limit: Optional[int] = None

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {', '.join(FAULT_ACTIONS)})")
        if not (0.0 <= self.rate <= 1.0):
            raise FaultPlanError(f"rate must be in [0, 1], got {self.rate}")
        if self.occurrence is not None and self.occurrence < 1:
            raise FaultPlanError("occurrence is 1-based")

    def matches(self, message) -> bool:
        return ((self.tag is None or self.tag == message.tag)
                and (self.src is None or self.src == message.src)
                and (self.dst is None or self.dst == message.dst)
                and (self.block is None or self.block == message.block))


@dataclass(frozen=True)
class StallWindow:
    """Node ``node`` accepts no deliveries during [start, end) cycles;
    arrivals inside the window are held until ``end``."""

    node: int
    start: int
    end: int

    def __post_init__(self):
        if self.end <= self.start:
            raise FaultPlanError(
                f"empty stall window [{self.start}, {self.end})")


@dataclass(frozen=True)
class FaultDecision:
    """What the plan chose for one message."""

    drop: bool = False
    duplicates: int = 0
    extra_delay: int = 0


NO_FAULT = FaultDecision()


@dataclass
class FaultLedger:
    """Every fault the plan actually injected, in injection order.

    The deadlock reporter prints this so a wedged run names the faults
    that wedged it.
    """

    drops: list = field(default_factory=list)      # (t, tag, src, dst, block)
    dups: list = field(default_factory=list)
    delays: list = field(default_factory=list)     # (..., extra)
    stalls: list = field(default_factory=list)     # (t, node, held_until)

    @property
    def total(self) -> int:
        return (len(self.drops) + len(self.dups) + len(self.delays)
                + len(self.stalls))

    def summary(self) -> str:
        if not self.total:
            return "no faults injected"
        parts = []
        if self.drops:
            parts.append(f"{len(self.drops)} dropped "
                         "(" + ", ".join(
                             f"{tag} {src}->{dst} blk={blk} t={t}"
                             for t, tag, src, dst, blk in self.drops[:4])
                         + (", ..." if len(self.drops) > 4 else "") + ")")
        if self.dups:
            parts.append(f"{len(self.dups)} duplicated")
        if self.delays:
            parts.append(f"{len(self.delays)} delayed")
        if self.stalls:
            parts.append(f"{len(self.stalls)} held by stall windows")
        return "; ".join(parts)


class FaultPlan:
    """A seeded, deterministic schedule of network faults.

    ``decide`` consumes only the plan's private RNG; the network's
    jitter RNG is untouched by any fault decision.  ``max_faults``
    bounds the total number of injected faults (drops + dups + delays),
    so rate-based plans cannot starve a retrying protocol forever.
    """

    def __init__(self, rules=(), stalls=(), seed: int = 0,
                 max_faults: Optional[int] = None):
        self.rules = tuple(rules)
        self.stalls = tuple(stalls)
        self.seed = seed
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self._matches = [0] * len(self.rules)   # messages matched per rule
        self._fired = [0] * len(self.rules)     # times each rule fired
        self.injected = 0                       # drops + dups + delays
        self.ledger = FaultLedger()

    # -- decision -----------------------------------------------------------

    def _rule_fires(self, index: int, rule: FaultRule) -> bool:
        self._matches[index] += 1
        if self.max_faults is not None and self.injected >= self.max_faults:
            return False
        if rule.occurrence is not None:
            return self._matches[index] == rule.occurrence
        if rule.limit is not None and self._fired[index] >= rule.limit:
            return False
        if rule.rate >= 1.0:
            return True
        return self._rng.random() < rule.rate

    def decide(self, message, send_time: int) -> FaultDecision:
        """The fault outcome for one message send.  First matching-and-
        firing rule of each action kind applies; drop beats dup: a
        dropped message is never also duplicated or delayed, and dup/
        delay rules do not see (or count) messages a drop rule killed.
        """
        if not self.rules:
            return NO_FAULT
        entry = (send_time, message.tag, message.src, message.dst,
                 message.block)
        for index, rule in enumerate(self.rules):
            if rule.action != "drop" or not rule.matches(message):
                continue
            if self._rule_fires(index, rule):
                self._fired[index] += 1
                self.injected += 1
                self.ledger.drops.append(entry)
                return FaultDecision(drop=True, duplicates=0,
                                     extra_delay=0)
        duplicates = 0
        extra_delay = 0
        for index, rule in enumerate(self.rules):
            if rule.action == "drop" or not rule.matches(message):
                continue
            if not self._rule_fires(index, rule):
                continue
            self._fired[index] += 1
            self.injected += 1
            if rule.action == "dup":
                duplicates += 1
                self.ledger.dups.append(entry)
            else:
                extra_delay += rule.delay
                self.ledger.delays.append(entry + (rule.delay,))
        if not (duplicates or extra_delay):
            return NO_FAULT
        return FaultDecision(drop=False, duplicates=duplicates,
                             extra_delay=extra_delay)

    def hold_until(self, node: int, arrival: int) -> int:
        """Defer ``arrival`` past any stall window covering it."""
        held = arrival
        for window in self.stalls:
            if window.node == node and window.start <= held < window.end:
                held = window.end
        if held != arrival:
            self.ledger.stalls.append((arrival, node, held))
        return held

    # -- JSON round-trip ----------------------------------------------------

    def to_json(self) -> dict:
        rules = []
        for rule in self.rules:
            entry = {"action": rule.action}
            for name in ("tag", "src", "dst", "block", "occurrence",
                         "limit"):
                value = getattr(rule, name)
                if value is not None:
                    entry[name] = value
            if rule.rate != 1.0:
                entry["rate"] = rule.rate
            if rule.delay:
                entry["delay"] = rule.delay
            rules.append(entry)
        payload = {
            "kind": PLAN_KIND,
            "v": PLAN_VERSION,
            "seed": self.seed,
            "rules": rules,
        }
        if self.stalls:
            payload["stalls"] = [
                {"node": w.node, "start": w.start, "end": w.end}
                for w in self.stalls
            ]
        if self.max_faults is not None:
            payload["max_faults"] = self.max_faults
        return payload

    @classmethod
    def from_json(cls, payload: dict, path: str = "<plan>") -> "FaultPlan":
        check_envelope(payload, path, FaultPlanError, "fault plan",
                       "verify --fault-plan-out", PLAN_KIND, PLAN_VERSION, "v")
        try:
            rules = tuple(
                FaultRule(**entry) for entry in payload.get("rules", ()))
            stalls = tuple(
                StallWindow(**entry) for entry in payload.get("stalls", ()))
        except TypeError as error:
            raise FaultPlanError(f"{path}: bad rule field ({error})") from None
        return cls(rules=rules, stalls=stalls,
                   seed=payload.get("seed", 0),
                   max_faults=payload.get("max_faults"))

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        return cls.from_json(read_json(path, FaultPlanError, "fault plan"),
                             path)


@dataclass(frozen=True)
class FaultBudget:
    """The checker's fault adversary: how many faults of each kind the
    exploration may spend along any one path (Section 7's reordering
    bound, extended to loss and duplication)."""

    drop: int = 0
    dup: int = 0

    def __post_init__(self):
        if self.drop < 0 or self.dup < 0:
            raise FaultPlanError("fault budgets must be >= 0")

    @property
    def total(self) -> int:
        return self.drop + self.dup

    def as_tuple(self) -> tuple:
        return (self.drop, self.dup)

    @classmethod
    def parse(cls, spec: str) -> "FaultBudget":
        """Parse a CLI spec like ``drop=1,dup=1`` (either key optional)."""
        budget = {"drop": 0, "dup": 0}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or key not in budget:
                raise FaultPlanError(
                    f"bad fault budget {part!r} (expected drop=N or dup=N)")
            try:
                budget[key] = int(value)
            except ValueError:
                raise FaultPlanError(
                    f"bad fault budget count {value!r}") from None
        return cls(**budget)


@dataclass(frozen=True)
class RecoveryConfig:
    """The node layer's timeout/retry/dedup answer to a lossy network.

    An application thread blocked on an access fault for ``timeout``
    cycles has its captured request messages re-injected (same wire
    sequence numbers); each further retry waits ``backoff`` times
    longer, up to ``max_retries`` attempts.  With ``dedup`` on, a
    delivery whose ``(src, seq)`` was already processed is absorbed and
    the outputs of the first processing are re-sent instead, so
    retries are idempotent end to end.
    """

    timeout: int = 4000
    backoff: float = 2.0
    max_retries: int = 5
    dedup: bool = True
    dedup_cache: int = 65536         # max remembered (src, seq) entries

    def __post_init__(self):
        if self.timeout <= 0:
            raise FaultPlanError("recovery timeout must be positive")
        if self.backoff < 1.0:
            raise FaultPlanError("recovery backoff must be >= 1")
        if self.max_retries < 0:
            raise FaultPlanError("max_retries must be >= 0")
