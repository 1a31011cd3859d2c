"""The interconnection network: latency, and optional message reordering.

Section 2 highlights that "message reordering in a network further adds
to the complexity" of protocols; Section 7 limits the amount of
reordering when model checking.  The simulated network supports both
regimes: FIFO channels (per src->dst pair) and bounded random reordering
driven by a seeded RNG, so simulations are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.runtime.context import Message


@dataclass
class NetworkConfig:
    latency: int = 220       # base transit cycles
    jitter: int = 0          # max extra random delay; 0: FIFO channels
    seed: int = 12345


class Network:
    """Computes arrival times; the machine's event queue does delivery.

    With a :class:`repro.faults.FaultPlan` attached the network becomes
    lossy: ``deliveries`` consults the plan (whose decisions come from
    the plan's own RNG, never this network's jitter RNG) and may drop,
    duplicate, delay, or stall-defer each message.  Without a plan,
    ``arrival_time`` is the whole story and behaviour is bit-for-bit
    what it was before fault injection existed; the machine's
    ``inject``, which every message passes, runs it inline then.
    """

    def __init__(self, config: NetworkConfig, plan=None):
        self.config = config
        self.plan = plan
        self._rng = random.Random(config.seed)
        # Last scheduled arrival per (src, dst), for FIFO clamping.
        self._last_arrival: dict[tuple[int, int], int] = {}
        self.messages_carried = 0

    def arrival_time(self, message: Message, send_time: int) -> int:
        """When ``message``, injected at ``send_time``, reaches its target."""
        arrival = send_time + self.config.latency
        if self.config.jitter > 0:
            arrival += self._rng.randrange(self.config.jitter + 1)
        else:
            channel = (message.src, message.dst)
            clamp = self._last_arrival.get(channel, 0) + 1
            if clamp > arrival:
                arrival = clamp
            self._last_arrival[channel] = arrival
        self.messages_carried += 1
        return arrival

    def deliveries(self, message: Message, send_time: int) -> list:
        """Fault-aware arrivals for one send: ``[(arrival, kind)]`` with
        kind ``"deliver"`` or ``"dup"``; an empty list means dropped.

        A dropped message still travels the wire (it consumes a jitter
        draw or advances the FIFO clamp) -- it is lost at the receiver,
        so the timing of every *other* message is unchanged whether or
        not the drop happened.
        """
        plan = self.plan
        decision = plan.decide(message, send_time)
        arrival = self.arrival_time(message, send_time)
        if decision.drop:
            return []
        arrival = plan.hold_until(message.dst, arrival + decision.extra_delay)
        out = [(arrival, "deliver")]
        for _ in range(decision.duplicates):
            dup_arrival = plan.hold_until(
                message.dst, self.arrival_time(message, send_time))
            out.append((dup_arrival, "dup"))
        return out
