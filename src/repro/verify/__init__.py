"""Explicit-state model checking of compiled Teapot protocols.

The paper compiles one Teapot source to both executable code and Mur-phi
input, then model-checks by exhaustive state-space exploration
(Section 7).  Mur-phi itself is not available offline, so this package
implements the same class of checker from scratch: breadth-first
exploration of all interleavings of protocol events and (boundedly
reordered) message deliveries, checking that no handler raises an error,
that no unexpected message arrives, that the system cannot deadlock, and
that the single-writer/multiple-reader invariant holds.  Violations come
with a full event trace, like Mur-phi's counterexamples.

Crucially -- and this is the paper's point -- the checker consumes the
*same* :class:`~repro.runtime.protocol.CompiledProtocol` the simulator
executes, by calling the same compiled handler functions.  The verified
artifact is the executed artifact.

Two engines share that exploration semantics:
:class:`~repro.verify.checker.ModelChecker` (serial, optionally
hash-compacted via :mod:`repro.verify.fingerprint`) and
:class:`~repro.verify.parallel.ParallelChecker` (the state space
hash-partitioned across worker processes, with checkpoint/resume).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.verify.atlas": ("StateAtlas",),
    "repro.verify.checker": ("CheckResult", "FingerprintCollisionError",
                             "ModelChecker", "SymmetryError",
                             "TraceReplayError", "Violation",
                             "replay_labels"),
    "repro.verify.checkpoint": ("CheckpointError", "load_checkpoint"),
    "repro.verify.parallel": ("ParallelChecker", "WorkerLostError"),
    "repro.verify.events": ("CasEvents", "EventGenerator", "EvictEvents",
                            "BufferedWriteEvents", "LcmEvents",
                            "StacheEvents", "events_for_protocol"),
})

__all__ = [
    "ModelChecker",
    "ParallelChecker",
    "CheckResult",
    "Violation",
    "TraceReplayError",
    "FingerprintCollisionError",
    "SymmetryError",
    "replay_labels",
    "CheckpointError",
    "WorkerLostError",
    "load_checkpoint",
    "StateAtlas",
    "EventGenerator",
    "StacheEvents",
    "CasEvents",
    "EvictEvents",
    "BufferedWriteEvents",
    "LcmEvents",
    "events_for_protocol",
]
