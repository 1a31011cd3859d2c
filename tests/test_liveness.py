"""Liveness (``--liveness``) on the keys every serial mode already has.

The starvation check reads the graph a run explored over that run's own
keys -- whole states, fingerprints, or canonical fingerprints under
symmetry reduction (``repro.verify.starvation``).  Pinned here:

* ``tests/golden/liveness_pins.json`` (recorded by the commit that still
  kept a concrete-state graph; see tests/golden/README): plain and
  fingerprint runs reproduce every row byte for byte, and symmetry runs
  reach the same verdict over the state count symmetry explores without
  liveness;
* the analysis function on hand-built graphs, and against the backward
  reachability it replaced (``reference_checker.backward_stuck_thread``)
  on random ones;
* the starvation witness ``lcm_mcc`` reaches at 3 nodes;
* a keyed witness that does not replay to a blocked node is a collision;
* a run that stops early says the starvation check did not run.
"""

import json
import warnings
from array import array
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import api
from repro.api import CheckOptions, ReductionOptions
from repro.cli import main
from repro.protocols import load_protocol_source
from repro.verify import starvation
from repro.verify.checker import FingerprintCollisionError
from repro.verify.starvation import components, stuck_thread

from reference_checker import backward_stuck_thread

PINS = json.loads(
    (Path(__file__).parent / "golden" / "liveness_pins.json").read_text())


@lru_cache(maxsize=None)
def target(row: str):
    """A pin row's protocol: a registered name, or ``stache.tea:N``,
    stache with line N deleted."""
    if ":" not in row:
        return row
    lines = load_protocol_source("stache").splitlines(keepends=True)
    line = int(row.split(":")[1])
    return api.compile_protocol("".join(lines[:line - 1] + lines[line:]))


def run(row: str, **options):
    pin = PINS[row]
    with warnings.catch_warnings():
        # A protocol failing symmetry certification reruns unreduced.
        warnings.simplefilter("ignore", RuntimeWarning)
        return api.check(target(row), CheckOptions(
            nodes=pin["nodes"], addresses=pin["addresses"],
            reorder=pin["reorder"], **options))


def as_row(row: str, result) -> dict:
    violation = result.violation
    return {
        **{key: PINS[row][key] for key in ("nodes", "addresses", "reorder")},
        "verdict": "PASS" if result.ok else "FAIL",
        "kind": violation and violation.kind,
        "message": violation and violation.message,
        "trace": violation and list(violation.trace),
        "states": result.states_explored,
        "transitions": result.transitions,
        "depth": result.max_depth,
    }


@pytest.mark.parametrize("row", sorted(PINS))
@pytest.mark.parametrize("fingerprints", [False, True],
                         ids=["plain", "fingerprints"])
def test_pinned_rows_reproduce(row, fingerprints):
    result = run(row, liveness=True, fingerprints=fingerprints)
    assert as_row(row, result) == PINS[row]


@pytest.mark.parametrize("row", sorted(PINS))
def test_symmetry_reaches_the_pinned_verdict(row):
    symmetric = ReductionOptions(symmetry=True)
    result = run(row, liveness=True, reduction=symmetric)
    pin = PINS[row]
    assert (result.ok, result.violation and result.violation.kind) == (
        pin["verdict"] == "PASS", pin["kind"])
    assert (result.states_explored
            == run(row, reduction=symmetric).states_explored)


def test_the_pins_hold_the_starvation_kills():
    # 13 line deletions in stache.tea that pass safety checking and
    # strand a thread; the dropped DelSharer at line 140 survives both
    # and is killed by data presence (tests/test_checker.py).
    kinds = {row: PINS[row]["kind"] for row in PINS if ":" in row}
    assert kinds.pop("stache.tea:140") == "error"
    assert len(kinds) == 13 and set(kinds.values()) == {"starvation"}


# -- the analysis on hand-built graphs ----------------------------------------

def graph(*successors):
    """CSR arrays for a graph given as one successor list per state."""
    offsets, targets = array("q", [0]), array("I")
    for out in successors:
        targets.extend(out)
        offsets.append(len(targets))
    return offsets, targets


SWAP = [(0, 1), (1, 0)]


def test_a_blocked_self_loop_is_stuck():
    # 0 -> 1, and 1 (node 0 blocked) only loops on itself.
    assert stuck_thread(1, array("q", [0, 1]), *graph([1], [1])) == (0, 1)


def test_a_cycle_that_never_wakes_is_stuck():
    # 1 <-> 2 with node 1 blocked throughout; node 0 always runs.
    blocked = array("q", [0, 2, 2])
    assert stuck_thread(2, blocked, *graph([1], [2], [1])) == (1, 1)


def test_a_wakeup_through_a_renaming_edge():
    # State 1 blocks node 0 forever and runs node 1.  Node 0 of state 0
    # lands there blocked, unless the edge renames it to node 1.
    blocked = array("q", [1, 1])
    offsets, targets = graph([1], [1])
    assert stuck_thread(2, blocked, offsets, targets) == (0, 0)
    assert stuck_thread(2, blocked, offsets, targets,
                        array("B", [1, 0]), SWAP) == (0, 1)
    # With state 1 running node 0 instead, the swap is what strands it.
    blocked = array("q", [1, 2])
    assert stuck_thread(2, blocked, offsets, targets) == (1, 1)
    assert stuck_thread(2, blocked, offsets, targets,
                        array("B", [1, 0]), SWAP) == (0, 0)


def test_the_lowest_stuck_index_is_reported():
    # 0 fans out to a waking branch (1 -> 4) and two stuck sinks (2, 3).
    blocked = array("q", [0, 1, 1, 1, 0])
    assert stuck_thread(1, blocked,
                        *graph([1, 3, 2], [4], [2], [3], [4])) == (0, 2)
    assert stuck_thread(1, array("q", [0, 1, 0]),
                        *graph([1], [2], [2])) is None


def test_a_renaming_cycle_inside_one_component():
    # One state blocks node 0 and runs node 1; its only edge loops back.
    # Across the swap, node 0's thread comes back as node 1, which runs.
    blocked = array("q", [1])
    offsets, targets = graph([0])
    assert stuck_thread(2, blocked, offsets, targets,
                        array("B", [1]), SWAP) is None
    assert stuck_thread(2, blocked, offsets, targets,
                        array("B", [0]), SWAP) == (0, 0)


def test_components_come_sinks_first_root_first():
    # 0 <-> 1 -> 2 -> 2, and 3 -> 0.
    found = [list(members) for members in components(
        *graph([1], [0, 2], [2], [0]))]
    assert found == [[2], [0, 1], [3]]


@st.composite
def random_graphs(draw):
    """Up to 4 nodes over up to 5 states; the renamings, when drawn,
    are the full group and each edge names one at random."""
    n_nodes, size = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    blocked = array("q", draw(st.lists(
        st.integers(0, (1 << n_nodes) - 1), min_size=size, max_size=size)))
    offsets, targets = graph(*draw(st.lists(
        st.lists(st.integers(0, size - 1), max_size=3),
        min_size=size, max_size=size)))
    if not draw(st.booleans()):
        return n_nodes, blocked, offsets, targets, None, None
    group = list(permutations(range(n_nodes)))
    renamings = array("B", draw(st.lists(
        st.integers(0, len(group) - 1),
        min_size=len(targets), max_size=len(targets))))
    return n_nodes, blocked, offsets, targets, renamings, group


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_the_component_pass_agrees_with_backward_reachability(case):
    assert stuck_thread(*case) == backward_stuck_thread(*case)


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.data())
def test_canonical_renamings_compose_to_the_edge_ones(case, data):
    """A run's record keeps each successor's renaming onto its canonical
    image and each state's (Cut.renaming, Cut.canonical): given both,
    the pass applies the edge renaming they compose to."""
    n_nodes, blocked, offsets, targets, renamings, group = case
    assume(group is not None)
    canonical = array("H", data.draw(st.lists(
        st.integers(0, len(group) - 1),
        min_size=len(blocked), max_size=len(blocked))))
    position = {g: k for k, g in enumerate(group)}
    # The edge renames by canonical[t]'s inverse after the successor's.
    successors = array("H", (
        position[tuple(group[canonical[t]][j] for j in group[g])]
        for t, g in zip(targets, renamings)))
    assert stuck_thread(n_nodes, blocked, offsets, targets, successors,
                        group, canonical) == stuck_thread(*case)


@pytest.mark.parametrize("symmetry", [False, True],
                         ids=["plain", "symmetry"])
def test_the_lcm_mcc_starvation_witness(symmetry):
    # lcm_mcc fails symmetry certification, so --symmetry reruns it
    # unreduced and reaches the same witness.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = api.check("lcm_mcc", CheckOptions(
            nodes=3, reorder=0, liveness=True,
            reduction=ReductionOptions(symmetry=symmetry)))
    violation = result.violation
    assert (result.ok, violation.kind, result.states_explored) == (
        False, "starvation", 23_911)
    assert violation.message.startswith("node 1 is blocked")
    assert violation.trace[-1] == "<thread lost>"


# -- keyed witnesses and early stops ------------------------------------------

def test_a_keyed_witness_that_runs_its_node_is_a_collision(monkeypatch):
    # The analysis names the initial state, where every node runs: the
    # replayed witness disagrees, as after a fingerprint collision.
    monkeypatch.setattr(starvation, "stuck_thread",
                        lambda *_graph: (0, 0))
    with pytest.raises(FingerprintCollisionError, match="runs node 0"):
        api.check("stache", CheckOptions(liveness=True, fingerprints=True))


@pytest.mark.parametrize("argv", [
    ["--max-states", "500"],
    ["--deadline", "0.000001"],
], ids=["truncated", "stopped"])
def test_an_early_stop_says_liveness_did_not_run(argv, capsys):
    assert main(["verify", "stache_nack", "--nodes", "3", "--liveness",
                 *argv]) == 0
    out, err = capsys.readouterr()
    assert "PASS" in out
    assert "the starvation check (--liveness) did not run" in out + err
