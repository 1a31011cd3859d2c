"""The locality oracle: judging a successor on the slots its move wrote
gives every outcome the whole suite gives.

The standard invariants declare per-id facts (``invariants.py``), and
the checker runs them on a successor only where a fact at a slot its
move wrote changed.  The same invariants wrapped as plain functions
have no facts, so they run on every state.  Both runs must agree on the
state and transition counts, the per-invariant evaluation counts, the
handler fires and the violation -- its kind, message, trace and state
-- for every protocol, under lowered bounds that make the queue and
channel facts fail, and with the column fact of ``single_writer``
switched on for Buffered-Write, which breaks it.
"""

from __future__ import annotations

from functools import partial

import pytest

from helpers import check_setup
from repro import api
from repro.protocols import (
    PROTOCOLS,
    compile_named_protocol,
    load_protocol_source,
)
from repro.verify.checker import ModelChecker
from repro.verify.events import events_for_protocol
from repro.verify.invariants import (
    bounded_channels,
    bounded_queues,
    single_writer,
    standard_invariants,
)

ALL_NAMES = sorted(PROTOCOLS)

# The suites each protocol runs, by name: its registry suite, and one
# bound alone, lowered until it bites.
SUITES = {
    "default": lambda name: check_setup(name)["invariants"],
    "channels<=1": lambda name: [bounded_channels(1)],
    "channels<=2": lambda name: [bounded_channels(2)],
    "queues<=0": lambda name: [bounded_queues(0)],
    "queues<=1": lambda name: [bounded_queues(1)],
}


def factless(invariant):
    """``invariant`` as a plain function of the same name: no facts, so
    the checker runs it on every state."""
    def plain(state, protocol):
        return invariant(state, protocol)

    plain.__qualname__ = ModelChecker._invariant_name(invariant)
    return plain


def outcome(checker: ModelChecker) -> dict:
    result = checker.run()
    violation = result.violation
    return {
        "states": result.states_explored,
        "transitions": result.transitions,
        "invariant_evals": result.invariant_evals,
        "handler_fires": result.handler_fires,
        "violation": violation and (violation.kind, violation.message,
                                    violation.trace, violation.state),
    }


def checker(name: str, invariants, reorder: int = 0,
            protocol=None) -> ModelChecker:
    """``name`` (or ``protocol``, checked as ``name``) at 3 nodes."""
    return ModelChecker(
        protocol or compile_named_protocol(name), n_nodes=3,
        reorder_bound=reorder, events=events_for_protocol(name),
        invariants=invariants, max_states=20_000)


def assert_judged_alike(make, invariants) -> dict:
    """``make(invariants)`` run with the suite, then with the suite
    wrapped as plain functions: the outcomes must be equal."""
    local = outcome(make(invariants))
    full = outcome(make([factless(invariant) for invariant in invariants]))
    assert local == full
    return local


@pytest.mark.parametrize("name", ALL_NAMES)
def test_slot_judging_matches_the_whole_suite(name):
    violations = 0
    for reorder in (0, 1):
        for suite in SUITES.values():
            judged = assert_judged_alike(
                partial(checker, name, reorder=reorder), suite(name))
            violations += judged["violation"] is not None
    # The lowered bounds must bite, or the comparison shows nothing.
    assert violations >= 2


def test_the_column_fact_fails_where_coherence_is_relaxed():
    """Buffered-Write with single_writer switched on: the column of a
    block grows a second writer, which only the whole column shows."""
    judged = assert_judged_alike(partial(checker, "buffered_write", reorder=1),
                                 standard_invariants(coherent=True))
    kind, message, _trace, _state = judged["violation"]
    assert kind == "invariant" and "multiple writers" in message


def test_a_dropped_resume_is_judged_alike():
    """A stache mutant without the home's Resume after PUT_RESP: the
    parked continuation is never resumed (a deadlock, not a leak: the
    type checker keeps CONT parameters on transient states)."""
    source = load_protocol_source("stache")
    mutant = source.replace("    owner := Nobody;\n    Resume(C);\n",
                            "    owner := Nobody;\n", 1)
    assert mutant != source
    judged = assert_judged_alike(
        partial(checker, "stache", protocol=api.compile_protocol(mutant)),
        standard_invariants())
    assert judged["violation"][0] == "deadlock"
