"""Reduction differential harness: symmetry and hash compaction never
change a verdict.

Symmetry reduction explores concrete states but dedupes on the minimum
fingerprint over the home-fixing free-node permutation group; hash
compaction (``fingerprints``) dedupes on each state's own 64-bit
fingerprint.  Both are sound *reductions* at these sizes, not
approximations, so the contract this file pins is absolute: for every
registered protocol, the reduced and unreduced checkers return the same
verdict, and any reduced-run counterexample replays step-for-step on a
fresh unreduced checker -- serial and (symmetry) at workers 1-3, with
and without fault budgets.

The three protocols whose 3-node spaces run to 100k+ states
(``lcm_sm``, ``stache_cas``, ``stache_cas_sm``) are swept at the
2-node/reorder-1 configuration instead: the permutation group there is
trivial, which still pins the reduced code path to byte-identical
behaviour, while the ten 3-node rows exercise a real quotient.

One registered protocol is genuinely *not* node-symmetric: lcm_mcc's
GET_LCM_COPY_REQ handler delegates copy-serving to ``PopSharer``'s
pick of one holder -- ``min(sharers)``, a choice no function can make
permutation-equivariant.  The checker certifies every action it
records, and every node's application choices, against their renamed
images (``ModelChecker._certify``); it catches this and ``api.check``
falls back to the exact unreduced exploration with a RuntimeWarning.
This file pins the fallback, that the other twelve protocols certify
clean, and that an asymmetric event generator is caught too.
"""

import io
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import (
    ArtifactOptions,
    CheckOptions,
    CheckpointOptions,
    ReductionOptions,
)
from repro.faults import FaultBudget
from repro.protocols import PROTOCOLS
from repro.verify.checker import ModelChecker, replay_labels
from repro.verify.events import StacheEvents
from repro.verify.fingerprint import SymmetryCanonicalizer, fingerprint
from repro.verify.model import initial_global_state

from helpers import check_setup

ALL_NAMES = sorted(PROTOCOLS)

# 3 nodes is the smallest configuration with interchangeable caching
# nodes; the three protocols too large to exhaust there in test time
# run at the default 2 nodes with reordering instead (trivial group).
LARGE = {"lcm_sm", "stache_cas", "stache_cas_sm"}
SWEEP = {name: (dict(reorder=1) if name in LARGE else dict(nodes=3))
         for name in ALL_NAMES}

# Protocols the symmetry certification rejects (node-asymmetric
# choices); api.check warns and reruns these unreduced, so their
# "reduced" outcome is the exact unreduced exploration.
FALLBACK = {"lcm_mcc"}


def check(name, *, reduction=None, **kwargs):
    options = CheckOptions(
        reduction=reduction or ReductionOptions(), **kwargs)
    return api.check(name, options)


_BASE = {}


def base_outcome(name):
    """The unreduced serial verdict at the sweep config, computed once.

    The engine differential harness already pins parallel == serial for
    the unreduced checker, so every reduced run -- serial or parallel --
    is compared against this single oracle.
    """
    if name not in _BASE:
        _BASE[name] = check(name, **SWEEP[name])
    return _BASE[name]


_SYMMETRIC = {}


def symmetric_outcome(name):
    """The serial symmetry-reduced outcome at the sweep config, computed
    once: the serial test asserts on it and every worker count of the
    parallel test compares against it."""
    if name not in _SYMMETRIC:
        _SYMMETRIC[name] = check(
            name, reduction=ReductionOptions(symmetry=True), **SWEEP[name])
    return _SYMMETRIC[name]


def replayer(name, *, nodes=2, addresses=1, reorder=0, faults=None):
    """A fresh serial *unreduced* checker mirroring ``api.check``'s
    configuration, for replaying reduced-run counterexamples."""
    return ModelChecker(
        api.compile_protocol(name),
        n_nodes=nodes, n_blocks=addresses, reorder_bound=reorder,
        **check_setup(name), fault_budget=faults)


def assert_same_verdict(name, reduced, base, **replay_config):
    assert reduced.ok == base.ok
    if not base.ok:
        assert reduced.violation is not None
        assert reduced.violation.kind == base.violation.kind
        # The reduced trace is a path of *concrete* states (symmetry
        # dedupes on canonical fingerprints but stores and expands real
        # orbit members), so it must replay on an unreduced checker.
        replay_labels(replayer(name, **replay_config),
                      reduced.violation.trace)


# ---------------------------------------------------------------------------
# Symmetry differential: all protocols, workers 0-3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_symmetry_serial_verdicts_agree(name):
    base = base_outcome(name)
    if name in FALLBACK:
        with pytest.warns(RuntimeWarning,
                          match="symmetry certification failed"):
            reduced = check(name, reduction=ReductionOptions(symmetry=True),
                            **SWEEP[name])
        # Certification caught the asymmetric choice; the rerun is the
        # exact unreduced exploration, counters and all.
        assert reduced.canonical_states is None
        assert reduced.states_explored == base.states_explored
        assert reduced.transitions == base.transitions
        assert reduced.handler_fires == base.handler_fires
        assert_same_verdict(name, reduced, base, **SWEEP[name])
        return
    reduced = symmetric_outcome(name)
    assert_same_verdict(name, reduced, base, **SWEEP[name])
    assert reduced.canonical_states == reduced.states_explored
    assert reduced.states_explored <= base.states_explored
    # Quotient reachability preserves the transition *relation* on
    # orbits: every unreduced edge maps to a canonical edge.
    assert reduced.transitions <= base.transitions
    assert reduced.handler_fires.keys() == base.handler_fires.keys()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_symmetry_parallel_verdicts_agree(name, workers):
    base = base_outcome(name)
    if name in FALLBACK:
        # The worker-side certification reports through the expand
        # reply; the master raises and api.check falls back to an
        # unreduced *parallel* run, which the engine differential
        # harness already pins equal to serial.
        with pytest.warns(RuntimeWarning,
                          match="symmetry certification failed"):
            reduced = check(name, workers=workers,
                            reduction=ReductionOptions(symmetry=True),
                            **SWEEP[name])
        assert reduced.canonical_states is None
        assert reduced.states_explored == base.states_explored
        assert_same_verdict(name, reduced, base, **SWEEP[name])
        return
    reduced = check(name, workers=workers,
                    reduction=ReductionOptions(symmetry=True),
                    **SWEEP[name])
    assert_same_verdict(name, reduced, base, **SWEEP[name])
    # Canonical fingerprints shard deterministically, so the reduced
    # state count is worker-count independent.
    serial = symmetric_outcome(name)
    assert reduced.states_explored == serial.states_explored
    assert reduced.transitions == serial.transitions
    assert reduced.handler_fires == serial.handler_fires


# Per-arm fires of ``stache --nodes 3 --reorder 1 --symmetry``: the
# dispatches of its explored transitions, 2,841 in all.  A certification
# recording counted in would raise some arm above its pin.
STACHE_R1_SYMMETRY_FIRES = {
    "Cache_Inv_To_RO.DEFAULT": 48, "Cache_Inv_To_RO.GET_RO_RESP": 104,
    "Cache_Inv_To_RW.DEFAULT": 33, "Cache_Inv_To_RW.GET_RW_RESP": 70,
    "Cache_Invalid.RD_FAULT": 153, "Cache_Invalid.WR_FAULT": 153,
    "Cache_RO.INV_REQ": 96, "Cache_RO.WR_RO_FAULT": 56,
    "Cache_RO_To_RW.DEFAULT": 66, "Cache_RO_To_RW.GET_RW_RESP": 70,
    "Cache_RO_To_RW.INV_REQ": 111, "Cache_RO_To_RW.UPGRADE_ACK": 70,
    "Cache_RW.PUT_REQ": 132, "Home_Await_InvAck.DEFAULT": 312,
    "Home_Await_InvAck.INV_ACK": 381, "Home_Await_Put.DEFAULT": 334,
    "Home_Await_Put.PUT_RESP": 195, "Home_Excl.GET_RO_REQ": 33,
    "Home_Excl.GET_RW_REQ": 33, "Home_Excl.RD_FAULT": 33,
    "Home_Excl.UPGRADE_REQ": 21, "Home_Excl.WR_FAULT": 33,
    "Home_Excl.WR_RO_FAULT": 31, "Home_Idle.GET_RO_REQ": 69,
    "Home_Idle.GET_RW_REQ": 69, "Home_Idle.UPGRADE_REQ": 48,
    "Home_RS.GET_RO_REQ": 17, "Home_RS.GET_RW_REQ": 17,
    "Home_RS.RD_FAULT": 6, "Home_RS.UPGRADE_REQ": 18,
    "Home_RS.WR_FAULT": 6, "Home_RS.WR_RO_FAULT": 23,
}


@pytest.mark.parametrize("workers", [0, 2])
def test_symmetry_certification_is_not_coverage(workers):
    """Certification records each action's renamed images off the
    books: a ``--symmetry`` run's per-arm counts are its explored
    transitions' dispatches alone, and the profile's dispatch table
    counts exactly those fires."""
    certified = check("stache", nodes=3, reorder=1, workers=workers,
                      reduction=ReductionOptions(symmetry=True),
                      artifacts=ArtifactOptions(profile=True))
    assert certified.states_explored == 938
    assert certified.handler_fires == STACHE_R1_SYMMETRY_FIRES
    assert {arm: entry["count"]
            for arm, entry in certified.profile.dispatch.items()
            } == certified.handler_fires


# ---------------------------------------------------------------------------
# Hash-compaction differential: serial, all protocols
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fingerprints_agree_and_preserve_the_exploration(name):
    base = base_outcome(name)
    compact = check(name, fingerprints=True, **SWEEP[name])
    assert_same_verdict(name, compact, base, **SWEEP[name])
    # Keys are the states' own fingerprints, collision-free at these
    # sizes: the same states, edges and dispatches, in the same order.
    assert compact.states_explored == base.states_explored
    assert compact.transitions == base.transitions
    assert compact.max_depth == base.max_depth
    assert compact.handler_fires == base.handler_fires
    assert compact.canonical_states is None


# ---------------------------------------------------------------------------
# Fault budgets: violations stay reachable under reduction
# ---------------------------------------------------------------------------


FAULT_CASES = [("stache", FaultBudget(drop=1)),
               ("stache", FaultBudget(dup=1)),
               ("lcm_mcc", FaultBudget(drop=1))]


@pytest.mark.parametrize("name,budget", FAULT_CASES,
                         ids=[f"{n}-{b.drop}d{b.dup}u"
                              for n, b in FAULT_CASES])
@pytest.mark.parametrize("reduction", [
    dict(reduction=ReductionOptions(symmetry=True)),
    dict(fingerprints=True),
], ids=["sym", "fp"])
def test_fault_budget_violations_survive_reduction(name, budget, reduction):
    base = check(name, nodes=3, faults=budget)
    reduced = check(name, nodes=3, faults=budget, **reduction)
    assert_same_verdict(name, reduced, base, nodes=3, faults=budget)
    assert reduced.fault_budget == base.fault_budget


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fault_budget_symmetry_parallel(workers):
    base = check("stache", nodes=3, faults=FaultBudget(drop=1))
    reduced = check("stache", nodes=3, faults=FaultBudget(drop=1),
                    workers=workers,
                    reduction=ReductionOptions(symmetry=True))
    assert_same_verdict("stache", reduced, base, nodes=3,
                        faults=FaultBudget(drop=1))


# ---------------------------------------------------------------------------
# Pinned collapse: the quotient is deterministic, so exact counts hold
# ---------------------------------------------------------------------------


# (full states, canonical states) at 3 nodes / 1 address / FIFO -- the
# same rows STATE_ATLAS.json records.  A shift here means either the
# successor relation changed (full count) or the canonicalizer's orbit
# partition changed (canonical count).
PINNED = {
    "buffered_write": (2136, 1077),
    "dash": (1431, 722),
    "stache": (847, 430),
    "stache_evict": (1904, 962),
    "stache_nack": (1032, 525),
    "stache_sm": (2085, 1049),
    "lcm": (7658, 3882),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_collapse_counts(name):
    full_expected, reduced_expected = PINNED[name]
    full = check(name, nodes=3)
    reduced = check(name, nodes=3,
                    reduction=ReductionOptions(symmetry=True))
    assert full.states_explored == full_expected
    assert reduced.states_explored == reduced_expected
    ratio = full.states_explored / reduced.states_explored
    floor = 1.9 if name.endswith("_sm") else 1.4
    assert ratio >= floor


@pytest.mark.parametrize("name,states", [("stache", 47), ("stache_sm", 35)])
def test_trivial_group_collapses_nothing(name, states):
    """One home and one caching node leave nothing to permute: every
    orbit is a singleton, so the quotient is the full exploration."""
    full = check(name, nodes=2, reorder=1)
    reduced = check(name, nodes=2, reorder=1,
                    reduction=ReductionOptions(symmetry=True))
    assert (reduced.canonical_states == reduced.states_explored
            == full.states_explored == states)
    assert reduced.transitions == full.transitions
    assert reduced.handler_fires == full.handler_fires


# ---------------------------------------------------------------------------
# Symmetry certification: the non-symmetric protocol is caught, not
# silently mis-quotiented
# ---------------------------------------------------------------------------


def test_certification_raises_on_asymmetric_protocol():
    """lcm_mcc's PopSharer delegation picks ``min(sharers)`` -- a
    node-identity-dependent choice.  Quotienting it would silently skip
    reachable orbits (the asymmetric pick means some orbit members'
    successors land in orbits the representative's never reach), so the
    raw checker must refuse rather than return an undercount -- also
    after an unreduced run of the same model, since every run records
    (and a reduced one certifies) its own action effects."""
    from repro.verify.checker import SymmetryError

    checker = replayer("lcm_mcc", nodes=3)
    assert checker.run().ok
    checker_sym = ModelChecker(
        checker.protocol, n_nodes=3, n_blocks=1, **check_setup("lcm_mcc"),
        symmetry=True)
    with pytest.raises(SymmetryError, match="PopSharer") as caught:
        checker_sym.run()
    # The action that failed: its message tag, node and the renaming.
    assert re.match(r"symmetry certification failed: [A-Z_]+ on node \d "
                    r"in state \w+ and its image differ under node "
                    r"permutation \(0, 2, 1\)", str(caught.value))


class NodeTwoNeverWrites(StacheEvents):
    """Loads and stores, except that node 2 issues no stores: no renaming
    that moves node 2 maps the event loop onto itself."""

    def choices(self, gen, node, n_blocks):
        return [choice for choice in super().choices(gen, node, n_blocks)
                if node != 2 or choice.op[0] != "write"]


@pytest.mark.parametrize("name,states", [("stache", 249), ("dash", 348)])
def test_certification_catches_an_asymmetric_event_loop(name, states):
    events = NodeTwoNeverWrites()
    with pytest.warns(RuntimeWarning, match="symmetry certification failed"):
        reduced = check(name, nodes=3, events=events,
                        reduction=ReductionOptions(symmetry=True))
    assert reduced.canonical_states is None
    assert (reduced.states_explored
            == check(name, nodes=3, events=events).states_explored
            == states)


@pytest.mark.parametrize("name,canonical", [("stache", 3549),
                                            ("stache_nack", 3242)])
def test_certification_holds_for_a_group_of_six(name, canonical):
    """Four nodes leave three free, so six renamings: images under
    3-cycles, not only swaps, must agree."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = check(name, nodes=4,
                        reduction=ReductionOptions(symmetry=True))
    assert reduced.canonical_states == reduced.states_explored == canonical


def test_certification_fallback_is_exact():
    """The api-level fallback for lcm_mcc reproduces the unreduced
    exploration bit-for-bit (pinned at the STATE_ATLAS row)."""
    with pytest.warns(RuntimeWarning, match="re-running without"):
        reduced = check("lcm_mcc", nodes=3,
                        reduction=ReductionOptions(symmetry=True))
    assert reduced.states_explored == 23911
    assert reduced.canonical_states is None
    assert reduced.ok


# ---------------------------------------------------------------------------
# Canonicalizer properties (hypothesis over reachable states)
# ---------------------------------------------------------------------------


def _reachable_states(name, cap=200):
    checker = replayer(name, nodes=3)
    initial = initial_global_state(
        checker.protocol, checker.n_nodes, checker.n_blocks,
        checker.events.initial)
    seen, frontier, order = {initial}, [initial], [initial]
    while frontier and len(order) < cap:
        state = frontier.pop(0)
        for _, successor in checker._successors(state):
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
                frontier.append(successor)
    return checker, order[:cap]


_CHECKER, _STATES = _reachable_states("stache")
_CANON = SymmetryCanonicalizer(_CHECKER.protocol, 3, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=len(_STATES) - 1))
def test_canonical_state_is_idempotent(index):
    state = _STATES[index]
    canonical = _CANON.canonical_state(state)
    assert _CANON.canonical_state(canonical) == canonical
    assert (_CANON.canonical_fingerprint(canonical)
            == _CANON.canonical_fingerprint(state))
    assert fingerprint(canonical) == _CANON.canonical_fingerprint(state)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=len(_STATES) - 1),
       st.integers(min_value=0))
def test_canonical_fingerprint_is_permutation_invariant(index, which):
    state = _STATES[index]
    mapping = _CANON.perms[which % len(_CANON.perms)]
    permuted = _CANON.permute(state, mapping)
    assert (_CANON.canonical_fingerprint(permuted)
            == _CANON.canonical_fingerprint(state))
    assert (_CANON.canonical_state(permuted)
            == _CANON.canonical_state(state))


# ---------------------------------------------------------------------------
# Mode errors and result surfacing
# ---------------------------------------------------------------------------


def test_summary_reports_reduction_counters():
    reduced = check("stache", nodes=3,
                    reduction=ReductionOptions(symmetry=True))
    assert "canonical-states=430" in reduced.summary()
    plain = check("stache")
    assert "canonical-states" not in plain.summary()
    assert plain.canonical_states is None


# ---------------------------------------------------------------------------
# Grouped options API: shims, warnings, replace()
# ---------------------------------------------------------------------------


RETIRED_FLAT_KWARGS = {
    "progress_every": 5, "progress_stream": io.StringIO(),
    "checkpoint_out": "a.json", "resume": "b.json", "profile": True,
    "profile_sample_every": 10, "atlas": True, "atlas_state_cap": 10,
    "atlas_edge_cap": 10,
}


@pytest.mark.parametrize("kwarg", sorted(RETIRED_FLAT_KWARGS))
def test_retired_flat_kwargs_raise_type_error(kwarg):
    # The pre-grouping spellings were shims for two rounds; 2.0.0
    # removed them, so a stale call fails loudly at construction.
    with pytest.raises(TypeError, match=kwarg):
        CheckOptions(**{kwarg: RETIRED_FLAT_KWARGS[kwarg]})
    assert not hasattr(CheckOptions(), kwarg)


def test_progress_is_a_stream():
    # CheckOptions.progress is where progress lines go (the CLI passes
    # stderr); None, the default, prints nothing.  Either way the run
    # records its timeline.
    stream = io.StringIO()
    loud = check("stache", progress=stream)
    quiet = check("stache")
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[verify Stache] states=1 ")
    assert lines[-1].endswith(" done")
    assert len(quiet.timeline) == len(loud.timeline) >= 2


def test_check_options_field_count():
    # Nine hidden shim fields went away, then ``engine``, then the
    # worker-loss policy and stall timeout; nothing was added.
    assert len(fields(CheckOptions)) == 17


def test_grouped_options_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        options = CheckOptions(
            reduction=ReductionOptions(symmetry=True),
            checkpoint=CheckpointOptions(out="c.json"),
            artifacts=ArtifactOptions(profile=True))
    assert options.reduction.symmetry
    assert options.checkpoint.out == "c.json"


def test_replace_does_not_rewarn():
    options = CheckOptions(artifacts=ArtifactOptions(profile=True),
                           checkpoint=CheckpointOptions(out="c.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derived = replace(options, nodes=3)
    assert derived.artifacts == ArtifactOptions(profile=True)
    assert derived.checkpoint == CheckpointOptions(out="c.json")
    assert derived.nodes == 3
    assert replace(derived, nodes=options.nodes) == options


def test_option_groups_are_frozen_values():
    group = ReductionOptions(symmetry=True)
    with pytest.raises(FrozenInstanceError):
        group.symmetry = False
    assert replace(group, symmetry=False) == ReductionOptions()
    assert [f.name for f in fields(ReductionOptions)] == ["symmetry"]
    assert [f.name for f in fields(ArtifactOptions)] == ["profile", "atlas"]
