"""Differential harness: the test-side reference checker is the
engine's oracle.

``src/`` has one successor engine (copy-on-first-touch journals,
interned substructures, memoized action effects).  The copy-the-world
path it replaced lives in ``tests/reference_checker.py`` so this harness
can pin the two against each other: verdict, state count, transition
count, depth, handler coverage, invariant evaluations, violation traces,
atlas fingerprint streams, and checkpoint payloads must all be
identical, for every registered protocol.  The reference runs serially;
the parallel loop treats the successor function as a black box, so each
worker count is pinned against the serial engine instead.
"""

import functools
import json

import pytest

from reference_checker import ENGINES, ReferenceChecker, checker_for
from repro import api
from repro.faults import FaultBudget
from repro.protocols import PROTOCOLS
from repro.verify.checker import ModelChecker, replay_labels

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


@functools.lru_cache(maxsize=None)
def serial_outcome(cls, name, reorder):
    return outcome(checker_for(cls, name, reorder=reorder).run())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_serial_engines_agree(name):
    for reorder in (0, 1):
        assert (serial_outcome(ModelChecker, name, reorder)
                == serial_outcome(ReferenceChecker, name, reorder))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_second_in_process_run_equals_first(name):
    """A repeat records its action effects again and finds every state
    interned: counts and coverage must not notice."""
    first = api.check(name, api.CheckOptions(reorder=1))
    assert (outcome(api.check(name, api.CheckOptions(reorder=1)))
            == outcome(first))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_parallel_engines_agree(name, workers):
    """Every worker count agrees with the serial engine, which
    ``test_serial_engines_agree`` holds to the reference (and
    ``api.check``'s defaults to ``checker_for``'s)."""
    parallel = api.check(name, api.CheckOptions(workers=workers))
    assert outcome(parallel) == serial_outcome(ModelChecker, name, 0)


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_violation_traces_agree(workers):
    """lcm_mcc with two addresses at reorder 1 fails.  The serial
    counterexample must not depend on the engine; at every worker count
    (which may report another deadlock -- worker-count independence is
    test_parallel's job) the reported trace must replay on the reference
    to the reported state, and the reference must find it stuck too."""
    found = api.check("lcm_mcc", api.CheckOptions(
        addresses=2, reorder=1, workers=workers))
    reference = checker_for(ReferenceChecker, "lcm_mcc", addresses=2,
                            reorder=1)
    assert not found.ok and found.violation.kind == "deadlock"
    if workers == 0:
        assert outcome(found) == outcome(reference.run())
    final = replay_labels(reference, found.violation.trace)
    assert final == found.violation.state
    assert list(reference._successors(final)) == []


@pytest.mark.parametrize("name", ["stache", "lcm_mcc"])
def test_atlas_fingerprint_streams_agree(name):
    reference, fast = (
        checker_for(cls, name, reorder=1, atlas=True).run()
        for cls in (ReferenceChecker, ModelChecker))
    assert fast.atlas is not None and reference.atlas is not None
    assert fast.atlas.states == reference.atlas.states
    assert fast.atlas.edges == reference.atlas.edges


@pytest.mark.parametrize("engine_pair",
                         [("legacy", "fast")], ids=["legacy-vs-fast"])
def test_checkpoint_bytes_agree(tmp_path, engine_pair):
    """A truncated run checkpoints the same visited set, parent
    pointers, and frontier under either engine; only the elapsed wall
    time may differ."""
    payloads = []
    for engine in engine_pair:
        path = tmp_path / f"{engine}.json"
        result = checker_for(
            ENGINES[engine], "lcm_mcc", reorder=1, max_states=100,
            fingerprint_states=True, checkpoint_out=str(path)).run()
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
    reference, fast = (
        outcome(checker_for(cls, "stache", faults=budget).run())
        for cls in (ReferenceChecker, ModelChecker))
    assert fast == reference
