"""Differential harness: the legacy engine is the fast engine's oracle.

The exploration hot path was rewritten from freeze-per-successor
(``MutableState`` -> mutate -> ``freeze()``) to mutate-and-undo journals
with interned states and memoized action effects.  The legacy path is
kept in-tree (``engine="legacy"``) precisely so this harness can pin the
two engines against each other: verdict, state count, transition count,
depth, handler coverage, invariant evaluations, violation traces, atlas
fingerprint streams, and checkpoint bytes must all be identical, for
every registered protocol, serial and at every worker count.
"""

import json

import pytest

from repro import api
from repro.faults import FaultBudget
from repro.protocols import PROTOCOLS

ALL_NAMES = sorted(PROTOCOLS)


def outcome(result):
    """Everything the two engines must agree on, comparable."""
    violation = None
    if result.violation is not None:
        violation = (result.violation.kind, result.violation.message,
                     tuple(result.violation.trace))
    return {
        "ok": result.ok,
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "handler_fires": dict(result.handler_fires),
        "invariant_evals": dict(result.invariant_evals),
        "violation": violation,
    }


def check(name, engine, workers=0, **kwargs):
    return api.check(name, api.CheckOptions(
        workers=workers, engine=engine, **kwargs))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_serial_engines_agree(name):
    legacy = check(name, "legacy", reorder=1)
    fast = check(name, "fast", reorder=1)
    assert outcome(fast) == outcome(legacy)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_second_in_process_run_equals_first(name):
    """The first run records action effects, a repeat replays them (and
    finds every state interned): counts and coverage must not notice."""
    from repro.verify import checker

    checker._ENGINE_CACHES.clear()
    first = check(name, "fast", reorder=1)
    assert outcome(check(name, "fast", reorder=1)) == outcome(first)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_parallel_engines_agree(name, workers):
    legacy = check(name, "legacy", workers=workers)
    fast = check(name, "fast", workers=workers)
    assert outcome(fast) == outcome(legacy)
    # And the parallel run agrees with the serial fast engine.
    assert outcome(fast) == outcome(check(name, "fast"))


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_violation_traces_agree(workers):
    """lcm_mcc with two addresses at reorder 1 fails; the counterexample
    must not depend on the engine (worker-count independence is
    test_parallel's job)."""
    legacy = check("lcm_mcc", "legacy", addresses=2, reorder=1,
                   workers=workers)
    fast = check("lcm_mcc", "fast", addresses=2, reorder=1,
                 workers=workers)
    assert not fast.ok and not legacy.ok
    assert outcome(fast) == outcome(legacy)


@pytest.mark.parametrize("name", ["stache", "lcm_mcc"])
def test_atlas_fingerprint_streams_agree(name):
    legacy = check(name, "legacy", reorder=1,
                   artifacts=api.ArtifactOptions(atlas=True))
    fast = check(name, "fast", reorder=1,
                 artifacts=api.ArtifactOptions(atlas=True))
    assert fast.atlas is not None and legacy.atlas is not None
    assert fast.atlas.states == legacy.atlas.states
    assert fast.atlas.edges == legacy.atlas.edges


@pytest.mark.parametrize("engine_pair",
                         [("legacy", "fast")], ids=["legacy-vs-fast"])
def test_checkpoint_bytes_agree(tmp_path, engine_pair):
    """A truncated parallel run checkpoints the same visited set,
    parent pointers, and frontier under either engine; only the elapsed
    wall time may differ."""
    payloads = []
    for engine in engine_pair:
        path = tmp_path / f"{engine}.json"
        result = check("lcm_mcc", engine, reorder=1, workers=2,
                       max_states=100,
                       checkpoint=api.CheckpointOptions(out=str(path)))
        assert result.hit_state_limit
        with open(path) as handle:
            payload = json.load(handle)
        payload["elapsed"] = None
        payloads.append(payload)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("budget",
                         [FaultBudget(drop=1), FaultBudget(dup=1),
                          FaultBudget(drop=1, dup=1)],
                         ids=["drop1", "dup1", "drop1dup1"])
def test_fault_bounded_engines_agree(budget):
    """Fault transitions exercise the channel-matrix edit path (the
    single-row rebuild); both engines must explore the same space."""
    legacy = check("stache", "legacy", faults=budget)
    fast = check("stache", "fast", faults=budget)
    assert outcome(fast) == outcome(legacy)
