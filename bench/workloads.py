"""The eight workloads, why each is here, and their pinned answers.

One *run* is one invocation of one workload; one *sample* is one fresh
child process.  The pins fix determinism, not truth: there is no
Mur-phi or hardware reference in this repo (see README.md).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

# How long one run samples, unless --seconds says otherwise.
RUN_SECONDS = 8
# Nobody tunes against this one; later claims are re-checked on it.
HELD_BACK_SEED = 1996


@dataclass(frozen=True)
class VerifyWorkload:
    """Samples are `python -m repro.cli verify <protocol> <flags>`."""

    name: str
    why: str
    protocol: str
    nodes: int
    reorder: int = 0
    fingerprints: bool = False
    symmetry: bool = False
    workers: int = 0
    # Expected verdict line: states, transitions, depth and, under
    # symmetry, canonical states.
    pins: dict = field(default_factory=dict)
    # The checker is exhaustive, so the seed only picks the state sample
    # of the traced run.
    seed: int = 0
    kind: str = "verify"

    def check_options(self) -> dict:
        """Keyword arguments the traced twin passes to api.CheckOptions."""
        return {"nodes": self.nodes, "reorder": self.reorder,
                "fingerprints": self.fingerprints,
                "symmetry": self.symmetry, "workers": self.workers}

    def command(self) -> list[str]:
        args = [sys.executable, "-m", "repro.cli", "verify", self.protocol,
                "--nodes", str(self.nodes)]
        if self.reorder:
            args += ["--reorder", str(self.reorder)]
        if self.fingerprints:
            args.append("--fingerprints")
        if self.symmetry:
            args.append("--symmetry")
        if self.workers:
            args += ["--workers", str(self.workers)]
        return args


@dataclass(frozen=True)
class SimWorkload:
    """Samples call repro.api.simulate(protocol, programs=...) on programs
    the parent generated from the seed; `reference` is the hand-written
    state-machine flavor the overhead is measured against."""

    name: str
    why: str
    protocol: str
    reference: str
    generator: str            # a function of repro.workloads
    size: dict                # its keyword arguments, seed excluded
    smoke_size: dict
    seed: int                 # the default seed, the one with pinned answers
    pins: dict = field(default_factory=dict)
    kind: str = "sim"


# What every sample of a simulator workload must agree on.
SIM_ANSWERS = ("cycles", "dispatches", "messages", "cont_allocs",
               "queue_allocs", "static_cont_uses", "fault_time_fraction")

# The model every mode's price is read against.
_MID = {"protocol": "lcm", "nodes": 3}
_MID_PINS = {"states": 7658, "transitions": 29216, "depth": 21}

WORKLOADS = [
    VerifyWorkload(
        "cold_small",
        "789-state model: start-up and front end are ~85% of the work, so "
        "lazy-import or compile-cache work shows here and exploration work "
        "must not",
        protocol="lcm_mcc", nodes=2, reorder=1,
        pins={"states": 789, "transitions": 3172, "depth": 24}),
    VerifyWorkload(
        "serial_mid",
        "7,658 states, full-state visited set, no optional mode: the base "
        "row each mode's price is read against",
        **_MID, pins=_MID_PINS),
    VerifyWorkload(
        "serial_large",
        "112,723 states: exploration is >80% of the work, the working set "
        "exceeds the intern/memo caches, and teardown after time= is visible",
        protocol="lcm", nodes=3, reorder=1,
        pins={"states": 112723, "transitions": 582132, "depth": 41}),
    VerifyWorkload(
        "fingerprint_mid",
        "serial_mid with --fingerprints: visited set keyed by BLAKE2b over "
        "a full re-encode; incremental fingerprints must move this row only",
        **_MID, fingerprints=True, pins=_MID_PINS),
    VerifyWorkload(
        "symmetry_mid",
        "serial_mid with --symmetry: canonicalisation and per-state "
        "certification dominate; the gate is reduced wall < full wall",
        **_MID, symmetry=True,
        pins={"states": 3882, "transitions": 14899, "depth": 21,
              "canonical": 3882}),
    VerifyWorkload(
        "workers2_mid",
        "serial_mid with --workers 2: exchange and IPC, the one contended "
        "case and the only workload where wall_s and cpu_s differ",
        **_MID, workers=2, pins=_MID_PINS),
    SimWorkload(
        "sim_gauss32",
        "Table-1 gauss on 32 nodes, iterations x250: simulator host speed, "
        "heavy on continuation allocation and queueing",
        protocol="stache", reference="stache_sm",
        generator="gauss_programs",
        size={"n_nodes": 32, "iterations": 1500},
        smoke_size={"n_nodes": 32, "iterations": 6}, seed=11,
        pins={"cycles": 36298681, "dispatches": 275760,
              "messages": 184140, "cont_allocs": 42660,
              "queue_allocs": 43590, "reference_cycles": 28294149}),
    SimWorkload(
        "sim_stencil32",
        "Table-2 stencil on 32 nodes: same event loop, other protocol, zero "
        "continuation or queue records; the bypass row for those changes",
        protocol="lcm", reference="lcm_sm",
        generator="stencil_programs",
        size={"n_nodes": 32, "phases": 600},
        smoke_size={"n_nodes": 32, "phases": 4}, seed=22,
        pins={"cycles": 3193618, "dispatches": 230272,
              "messages": 153472, "cont_allocs": 0, "queue_allocs": 0,
              "reference_cycles": 2997280}),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}

# The traced run's state sample: 2,000 of serial_mid's reachable states.
SAMPLE_MODEL = BY_NAME["serial_mid"]
SAMPLE_SIZE = 2000
