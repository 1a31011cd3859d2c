"""One exploration loop, one checkpoint codec.

Every mode explores through ``ModelChecker.run()``'s loop and every
checkpoint goes through ``repro.verify.checkpoint``'s one encoder /
decoder / frontier replayer.  This file pins what that unification must
not move:

* the mode pin table: 13 protocols x {plain, fingerprints, symmetry,
  faults}, violation traces included (where a change to the unreduced
  engine shows first);
* one cut written three ways (serial, ``workers=2``, and a
  ``workers=2`` run that lost a worker after writing) decodes to the
  same exploration state;
* the codec round-trips in index order at a cost that does not grow
  with the cut, and reports a corrupt record in one line;
* the committed v4 checkpoint is written as it was and resumes on both
  engines, and earlier versions are refused;
* a checkpoint never resumes under a different reduction/fault
  configuration;
* every run records one timeline at its clean cuts, whatever it
  observes, and progress lines print its points.
"""

import cProfile
import hashlib
import io
import json
import re
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import (
    BudgetOptions,
    CheckOptions,
    CheckpointOptions,
    ReductionOptions,
)
from repro.compiler.pipeline import compile_source
from repro.faults import FaultBudget
from repro.obs.profile import CheckProfiler
from repro.runtime.context import Message
from repro.verify import CheckpointError, WorkerLostError, load_checkpoint
from repro.verify.checkpoint import (
    CHECKPOINT_VERSION,
    Cut,
    CutPolicy,
    config_echo,
    decode_checkpoint,
    replay_frontier,
    write_checkpoint,
)
from repro.verify import checkpoint, model
from repro.verify.checker import (
    _OP_MESSAGES,
    ModelChecker,
    _LabelledViolation,
    parse_label,
)
from repro.verify.fingerprint import SymmetryCanonicalizer, fingerprint
from repro.verify.model import (
    ActionEffects,
    AppView,
    BlockView,
    GlobalState,
)
from helpers import check_setup
from reference_checker import ReferenceChecker, checker_for, reachable
from test_resilience import (
    KillWorker,
    before_expand,
    edit_array,
    make_parallel,
    make_serial,
    outcome,
)

GOLDEN = Path(__file__).parent / "golden"

# ---------------------------------------------------------------------------
# (i) mode pin table, recorded at a fixed commit (tests/golden/README)
# ---------------------------------------------------------------------------

MODE_PINS = json.loads((GOLDEN / "mode_pins.json").read_text())
MODES = {
    "plain": {},
    "fingerprints": {"fingerprints": True},
    "symmetry": {},
    "faults": {"faults": FaultBudget(1, 1)},
}


@pytest.mark.parametrize("row", sorted(MODE_PINS))
def test_mode_pin_table(row):
    name, mode = row.split("/")
    with warnings.catch_warnings():
        # lcm_mcc fails symmetry certification and reruns unreduced.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = api.check(name, CheckOptions(
            nodes=3, max_states=8000,
            reduction=ReductionOptions(symmetry=mode == "symmetry"),
            **MODES[mode]))
    got = {"states": result.states_explored,
           "transitions": result.transitions,
           "max_depth": result.max_depth, "ok": result.ok,
           "hit_state_limit": result.hit_state_limit}
    if result.violation is not None:
        got["violation"] = [result.violation.kind, result.violation.message,
                            list(result.violation.trace)]
    assert got == MODE_PINS[row]


# ---------------------------------------------------------------------------
# (ii) one cut, three writers
# ---------------------------------------------------------------------------

# lcm at reorder 1 is 528 states over 23 waves.  Each writer below
# snapshots wave 12 and no other cut, so that snapshot is the only
# checkpoint an exhaustive run leaves (one that exhausts writes none at
# the end).
CUT_WAVE = 12


@contextmanager
def snapshot_only_at(wave):
    """Inside the block a run's one snapshot is the first clean cut of
    ``wave`` (the policy's pacing, patched)."""
    at_cut, written = CutPolicy.at_cut, []

    def snapshot_at_wave(policy, states, frontier, at, transitions,
                         interrupted, write, *rest):
        if at == wave and not written:
            written.append(at)
            policy._write(write, False)
        return at_cut(policy, states, frontier, at, transitions,
                      interrupted, write, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CutPolicy, "_due", lambda _policy, _states: False)
        patch.setattr(CutPolicy, "at_cut", snapshot_at_wave)
        yield


@pytest.fixture(scope="module")
def three_cuts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cuts")
    paths = {who: str(root / f"{who}.json")
             for who in ("serial", "workers2", "killed")}
    with snapshot_only_at(CUT_WAVE):
        make_serial("lcm", reorder=1, checkpoint_out=paths["serial"]).run()
    with snapshot_only_at(CUT_WAVE):
        make_parallel("lcm", 2, reorder=1,
                      checkpoint_out=paths["workers2"]).run()
    # A worker dies as the wave after the write starts: the run ends in
    # one error line naming the file, and the write is what it leaves.
    with snapshot_only_at(CUT_WAVE), before_expand(KillWorker(CUT_WAVE)), \
            pytest.raises(WorkerLostError, match=re.escape(paths["killed"])):
        make_parallel("lcm", 2, reorder=1,
                      checkpoint_out=paths["killed"]).run()
    return paths


def test_three_writers_agree_on_one_cut(three_cuts):
    payloads = {who: load_checkpoint(path)
                for who, path in three_cuts.items()}
    echo = config_echo(make_serial("lcm", reorder=1))
    cuts = {who: decode_checkpoint(payload, echo, who)
            for who, payload in payloads.items()}
    serial, workers2, killed = (cuts[who] for who in (
        "serial", "workers2", "killed"))
    for payload in payloads.values():
        assert payload["v"] == 4
        assert payload["depth"] == CUT_WAVE     # the cut's layer first
    # A run that loses a worker after its write leaves the cut an
    # undisturbed run writes there.
    assert workers2 == Cut(**{**vars(killed), "elapsed": workers2.elapsed})
    # A worker run writes its cut with the serial writer, at the
    # serial run's cut: only the wall-clock field differs.
    assert serial == Cut(**{**vars(workers2), "elapsed": serial.elapsed})
    # The files hold the keys in index order: all three runs accepted
    # the states in the same order.
    for payload in payloads.values():
        del payload["elapsed"]
    assert payloads["serial"] == payloads["workers2"] == payloads["killed"]


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("who", ["serial", "workers2", "killed"])
def test_every_writer_resumes_on_every_engine(three_cuts, who, workers):
    full = make_serial("lcm", reorder=1, fingerprint_states=True).run()
    if workers:
        resumed = make_parallel("lcm", workers, reorder=1,
                                resume=three_cuts[who]).run()
    else:
        resumed = make_serial("lcm", reorder=1,
                              resume=three_cuts[who]).run()
    assert outcome(resumed) == outcome(full)


@pytest.mark.parametrize("workers", [0, 2])
def test_mid_layer_serial_cut_resumes_at_bfs_depth(tmp_path, workers):
    """A serial run stopped by ``max_states`` stops mid-layer, so its
    frontier holds states of two depths; resumed in parallel they are one
    wave, and a state both depths reach must take the shallower edge or
    the reported depth comes out one too deep."""
    path = str(tmp_path / "ck.json")
    api.check("lcm", CheckOptions(nodes=3, max_states=3000,
                                  checkpoint=CheckpointOptions(out=path)))
    cut = decode_checkpoint(load_checkpoint(path), {}, path)
    assert cut.expanded < cut.deeper < len(cut.index)   # two depths
    resumed = api.check("lcm", CheckOptions(
        nodes=3, workers=workers, checkpoint=CheckpointOptions(resume=path)))
    assert (resumed.states_explored, resumed.transitions,
            resumed.max_depth) == (7658, 29216, 21)


def test_every_serial_run_truncates_at_the_same_cut(tmp_path):
    """One state-cap rule: whatever else is set, a serial run stops at
    the first clean cut at or past ``max_states``.  A plain run, a keyed
    one, one with a deadline that never fires and a checkpointed one
    agree, and the checkpoint resumes to the full count."""
    path = str(tmp_path / "ck.json")
    runs = {
        "plain": {},
        "fingerprints": {"fingerprints": True},
        "deadline": {"budget": BudgetOptions(deadline_seconds=600)},
        "checkpoint": {"checkpoint": CheckpointOptions(out=path)},
    }

    def line(**options):
        result = api.check("lcm", CheckOptions(nodes=3, max_states=3000,
                                              **options))
        return (result.states_explored, result.transitions,
                result.max_depth, result.hit_state_limit)

    assert {name: line(**options) for name, options in runs.items()} == {
        name: (3002, 10083, 10, True) for name in runs}
    resumed = api.check("lcm", CheckOptions(
        nodes=3, checkpoint=CheckpointOptions(resume=path)))
    assert (resumed.states_explored, resumed.transitions) == (7658, 29216)
    symmetry = ReductionOptions(symmetry=True)
    assert line(reduction=symmetry) == line(
        reduction=symmetry, budget=BudgetOptions(deadline_seconds=600))


# ---------------------------------------------------------------------------
# (iii) the codec
# ---------------------------------------------------------------------------

ECHO = {"protocol": "P", "n_nodes": 2, "n_blocks": 1, "reorder_bound": 0,
        "channel_cap": 4, "events": "StacheEvents"}


def encode(cut):
    """``cut``'s payload as a loader sees it: the text the writer writes
    (its arrays are streams until then), parsed."""
    return json.loads(b"".join(checkpoint._sealed_text(
        cut.encode(ECHO), hashlib.blake2b(digest_size=16))))


def cut_of(edges, **fields):
    """A cut recording ``edges``, ``(key, parent index, label)`` in
    index order, with ``fields`` (the frontier's and the counters)."""
    cut = Cut(**fields)
    for key, parent, label in edges:
        cut.add(key, parent, label)
    return cut


def sample_cut():
    # Keys out of numeric order, as a run accepts them; a frontier of
    # two depths; the graph's three expanded rows, every array armed,
    # and every index's vector.
    return cut_of([(1, -1, "<initial>"), (2 ** 64 - 1, 0, "a"), (2, 0, "b"),
                   (9, 1, "c"), (7, 2, "d"), (8, 2, "a")],
                  expanded=3, depth=1, deeper=5, transitions=17,
                  elapsed=0.25, handler_fires={"Home_Idle.GET": 2},
                  offsets=array("q", [0, 2, 4, 7]),
                  targets=array("I", [1, 2, 3, 0, 4, 5, 2]),
                  blocked=array("q", [0, 1, 2]),
                  renaming=array("H", [0, 0, 1, 0, 0, 0, 1]),
                  canonical=array("H", [0, 1, 0]),
                  edge_label=array("I", [1, 2, 3, 2, 4, 1, 2]),
                  vector=array("I", [0, 1, 0, 1, 1, 0]),
                  vectors={("I", "S", 0, 0): 0, ("S", "I", 1, 0): 1})


def test_cut_keeps_each_label_once_and_traces_by_index():
    """The record stores a label id per state, each distinct label once,
    and walks parent indices back to the root."""
    cut = cut_of([(10, -1, "<initial>"), (11, 0, "a"), (12, 0, "b"),
                  (13, 1, "b"), (14, 3, "a")])
    assert cut.index == {10: 0, 11: 1, 12: 2, 13: 3, 14: 4}
    assert list(cut.labels) == ["<initial>", "a", "b"]
    assert list(cut.parent) == [-1, 0, 0, 1, 3]
    assert list(cut.label) == [0, 1, 2, 2, 1]
    assert cut.trace(0) == []
    assert cut.trace(2) == ["b"]
    assert cut.trace(4) == ["a", "b", "a"]


def test_codec_round_trips(tmp_path):
    cut = sample_cut()
    assert decode_checkpoint(encode(cut), ECHO, "mem") == cut
    path = str(tmp_path / "ck.json")
    write_checkpoint(path, encode(cut))
    decoded = decode_checkpoint(load_checkpoint(path), ECHO, path)
    assert decoded == cut
    # Dicts compare unordered: the decoded cut keeps the writer's order.
    assert list(decoded.index) == list(cut.index)
    assert list(decoded.labels) == list(cut.labels)
    assert CHECKPOINT_VERSION == 4


def test_codec_cost_does_not_grow_with_the_cut(tmp_path):
    """Encoding and decoding are array calls, so cProfile counts as many
    calls for a 10,000-state cut as for a 1,000-state one."""
    def calls(n):
        cut = cut_of([(1, -1, "<initial>"), *(
            (key, key - 2, f"r{key % 7}") for key in range(2, n + 1))],
            expanded=n // 2, depth=3, deeper=n * 3 // 4)
        path = str(tmp_path / f"{n}.json")
        counts = []
        for step in (lambda: write_checkpoint(path, cut.encode(ECHO)),
                     lambda: decode_checkpoint(load_checkpoint(path), ECHO,
                                               path)):
            profiler = cProfile.Profile()
            profiler.runcall(step)
            counts.append(sum(entry.callcount
                              for entry in profiler.getstats()))
        return counts

    calls(1000)     # the codec's first imports
    assert calls(1000) == calls(10_000)


# The record's refusals a re-sealed file reaches through `--resume`
# (a repeated key, a later parent, unequal lengths) are
# tests/test_resilience.py's; these are the rest.
@pytest.mark.parametrize("edit,expected", [
    (lambda payload: payload.update(keys="not base64!"),
     "the 'keys' field is not base64"),
    (lambda payload: payload.update(parent="AAAA"),    # 3 of 8 bytes
     "the 'parent' field is not base64"),
    (edit_array("parent", "q", lambda parent: parent.__setitem__(0, -2)),
     "a parent is not an earlier index"),
    (edit_array("label", "I", lambda label: label.__setitem__(0, 5)),
     "a label id is out of range"),
    (lambda payload: payload["labels"].__setitem__(2, "a"),
     "a label id is out of range"),
    (lambda payload: payload.update(deeper=7),
     "its frontier is outside its record"),
    (lambda payload: payload.update(expanded=6),
     "its frontier is outside its record"),
    (edit_array("offsets", "q", lambda offsets: offsets.__setitem__(0, 1)),
     "its offsets do not start at 0 and rise"),
    (edit_array("offsets", "q", lambda offsets: offsets.__setitem__(2, 1)),
     "its offsets do not start at 0 and rise"),
    (edit_array("targets", "I", lambda targets: targets.__setitem__(3, 6)),
     "an edge target is outside its record"),
    (edit_array("blocked", "q", lambda blocked: blocked.append(0)),
     "its arrays are of unequal length"),
    (edit_array("renaming", "H", lambda renaming: renaming.pop()),
     "its arrays are of unequal length"),
    (edit_array("edge_label", "I", lambda label: label.__setitem__(0, 5)),
     "a label id is out of range"),
    (edit_array("vector", "I", lambda vector: vector.__setitem__(2, 2)),
     "a vector id is out of range"),
    (lambda payload: payload["vectors"].append(payload["vectors"][0]),
     "a vector id is out of range"),
    (lambda payload: payload["labels"].__setitem__(1, ["a"]),
     "its label or vector table is malformed"),
    (lambda payload: payload["vectors"].__setitem__(0, 7),
     "its label or vector table is malformed"),
], ids=["base64", "partial_item", "negative_parent", "label_id",
        "repeated_label", "deeper_past_end", "expanded_past_deeper",
        "offsets_from_one", "offsets_falling", "target_past_end",
        "long_state_array", "short_edge_array", "edge_label_id",
        "vector_id", "repeated_vector", "list_label", "scalar_vector"])
def test_corrupt_record_is_a_one_line_error(edit, expected):
    payload = encode(sample_cut())
    edit(payload)
    with pytest.raises(CheckpointError) as caught:
        decode_checkpoint(payload, ECHO, "ck.json")
    message = str(caught.value)
    assert "\n" not in message
    assert message.startswith("ck.json: ") and expected in message


def test_foreign_chain_is_a_one_line_error():
    checker = make_serial("stache")
    with pytest.raises(CheckpointError) as caught:
        replay_frontier(checker, cut_of(
            [(7, -1, "<initial>"), (8, 0, "no such rule")], deeper=1),
            "ck.json")
    assert "\n" not in str(caught.value)
    assert "does not match this protocol build" in str(caught.value)


# ---------------------------------------------------------------------------
# (iv) committed checkpoints: the previous formats are refused, v4 is
# written as its golden was
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_earlier_checkpoint_versions_are_refused(workers, version):
    """v1 keyed states by a digest of the whole encoding (resuming one
    would dedupe against keys no state of this build has); v2 carried
    fields no resume reads and a frontier that may list a state twice;
    v3 wrote a JSON row per state."""
    path = str(GOLDEN / f"checkpoint_v{version}_parent.json")
    make = (partial(make_parallel, "lcm", workers) if workers
            else partial(make_serial, "lcm"))
    with pytest.raises(CheckpointError) as caught:
        make(reorder=1, resume=path).run()
    assert str(caught.value) == (
        f"{path}: checkpoint version {version}, expected 4 -- regenerate "
        "with `verify --checkpoint-out`")


def test_v4_checkpoint_is_written_as_the_parent_wrote_it(tmp_path):
    """checkpoint_v4_parent.json (tests/golden/README): the same command
    writes the same payload, bar the wall clock (so the seal agrees
    too)."""
    golden = str(GOLDEN / "checkpoint_v4_parent.json")
    path = str(tmp_path / "ck.json")
    api.check("lcm", CheckOptions(nodes=3, fingerprints=True,
                                  max_states=3000,
                                  checkpoint=CheckpointOptions(out=path)))
    ours, theirs = load_checkpoint(path), load_checkpoint(golden)
    del ours["elapsed"], theirs["elapsed"]
    assert ours == theirs


@pytest.mark.parametrize("workers", [0, 2])
def test_v4_golden_resumes_to_the_full_count(workers):
    """Either engine decodes the golden into its record and replays its
    frontier to the uninterrupted run's counts."""
    golden = str(GOLDEN / "checkpoint_v4_parent.json")
    resumed = api.check("lcm", CheckOptions(
        nodes=3, workers=workers,
        checkpoint=CheckpointOptions(resume=golden)))
    assert resumed.ok and resumed.exhausted
    assert (resumed.states_explored, resumed.transitions) == (7658, 29216)


@pytest.mark.parametrize("workers", [0, 2])
def test_resumed_progress_rate_spans_the_whole_run(tmp_path, workers):
    """``states`` in a progress line includes the checkpoint's visited
    set, so the rate divides by the whole run's time: the final line's
    rate is the result's states over the result's elapsed seconds."""
    path = str(tmp_path / "ck.json")
    make_serial("lcm", reorder=1, max_states=300,
                checkpoint_out=path).run()
    # Pretend the first leg took a minute (``elapsed`` is outside the
    # seal): a rate over the resuming process's time alone is then off
    # by orders of magnitude, whatever the host speed.
    payload = json.loads(Path(path).read_text())
    payload["elapsed"] = 60.0
    Path(path).write_text(json.dumps(payload))
    stream = io.StringIO()
    make = (partial(make_parallel, "lcm", workers) if workers
            else partial(make_serial, "lcm"))
    resumed = make(reorder=1, resume=path, progress_stream=stream).run()
    assert resumed.exhausted and resumed.elapsed_seconds > 60.0
    final = stream.getvalue().splitlines()[-1]
    assert final.endswith(" done")
    rate = resumed.states_explored / resumed.elapsed_seconds
    assert f" {rate:.0f} states/s" in final
    # One clock: the timeline (the profile's) reads the same rate.
    assert resumed.timeline[-1]["states_per_s"] == round(rate, 1)
    assert all(point["t"] > 60.0 for point in resumed.timeline)


# ---------------------------------------------------------------------------
# One run timeline: a point at the first cut of every layer (wave)
# ---------------------------------------------------------------------------


def untimed(timeline):
    """The points less their clock readings (``t``, ``states_per_s``)."""
    return [{key: value for key, value in point.items()
             if key not in ("t", "states_per_s")} for point in timeline]


@pytest.fixture(scope="module")
def lcm_timelines():
    """``verify lcm --nodes 3`` plain, keyed, profiled and atlas-armed."""
    return {name: api.check("lcm", CheckOptions(nodes=3, **options))
            for name, options in {
                "plain": {},
                "fingerprints": {"fingerprints": True},
                "profiled": {"artifacts": api.ArtifactOptions(profile=True)},
                "atlas": {"artifacts": api.ArtifactOptions(atlas=True)},
            }.items()}


def test_timeline_point_rules(lcm_timelines):
    result = lcm_timelines["plain"]
    timeline = result.timeline
    last = timeline[-1]
    assert (last["states"], last["transitions"], last["depth"],
            last["frontier"]) == (result.states_explored, result.transitions,
                                  result.max_depth, 0)
    for key in ("states", "transitions", "t"):
        values = [point[key] for point in timeline]
        assert values == sorted(values), key
    # One point per BFS layer, the initial state's first, then the final.
    assert [point["depth"] for point in timeline[:-1]] == list(
        range(result.max_depth + 1))
    assert timeline[0] == {**timeline[0], "states": 1, "frontier": 1,
                           "transitions": 0}


def test_timeline_is_the_same_whatever_observes_the_run(lcm_timelines):
    plain = untimed(lcm_timelines["plain"].timeline)
    for name, result in lcm_timelines.items():
        assert untimed(result.timeline) == plain, name
    profiled = lcm_timelines["profiled"]
    assert profiled.profile.timeline is profiled.timeline


def test_resumed_timeline_continues_the_uninterrupted_one(tmp_path,
                                                          lcm_timelines):
    path = str(tmp_path / "ck.json")
    api.check("lcm", CheckOptions(nodes=3, max_states=3000,
                                  checkpoint=CheckpointOptions(out=path)))
    saved = load_checkpoint(path)
    resumed = api.check("lcm", CheckOptions(
        nodes=3, checkpoint=CheckpointOptions(resume=path)))
    # The resumed run's first point opens its resume layer (mid-layer,
    # so its counts are the cut's); from the next layer on its points
    # are the uninterrupted run's, on the whole run's clock.
    first, layer = resumed.timeline[0], saved["depth"]
    assert first["depth"] == layer
    assert first["t"] >= saved["elapsed"]
    full = untimed(lcm_timelines["plain"].timeline)
    assert untimed(resumed.timeline)[1:] == full[layer + 1:]


def test_parallel_timeline_has_one_point_per_wave(lcm_timelines):
    """A worker run records the serial run's timeline -- a point at the
    first cut of every BFS layer, plus the final one -- and dispatches
    each layer to its workers in one wave."""
    serial = lcm_timelines["plain"].timeline
    result = api.check("lcm", CheckOptions(
        nodes=3, workers=2, artifacts=api.ArtifactOptions(profile=True)))
    assert untimed(result.timeline) == untimed(serial)
    assert len(result.timeline) - 1 == result.profile.parallel["waves"]


@pytest.mark.parametrize("spacing", [0.0, "quarter", float("inf")])
def test_progress_lines_are_spaced_by_the_timeline_clock(monkeypatch,
                                                         spacing):
    """A point is printed when it is the first, the last, or at least
    PROGRESS_SPACING_SECONDS after the last line printed."""
    stream = io.StringIO()
    if spacing == "quarter":
        # A spacing inside this run, so some points print and some not.
        probe = make_serial("lcm", n_nodes=3).run()
        spacing = probe.timeline[-1]["t"] / 4
    monkeypatch.setattr(checkpoint, "PROGRESS_SPACING_SECONDS", spacing)
    result = make_serial("lcm", n_nodes=3, progress_stream=stream).run()
    timeline = result.timeline
    expected = []
    for point in timeline:
        if (not expected or point is timeline[-1]
                or point["t"] - expected[-1]["t"] >= spacing):
            expected.append(point)
    lines = stream.getvalue().splitlines()
    assert [int(re.search(r"states=(\d+)", line).group(1))
            for line in lines] == [point["states"] for point in expected]
    assert all(line.endswith(" ...") for line in lines[:-1])
    assert lines[-1].endswith(" done")
    if spacing == 0.0:
        assert len(lines) == len(timeline)
    if spacing == float("inf"):
        assert len(lines) == 2


# ---------------------------------------------------------------------------
# Resume never crosses a reduction / fault configuration
# ---------------------------------------------------------------------------

FLAGS = {
    "symmetry": ({"reduction": ReductionOptions(symmetry=True)},
                 "symmetry: checkpoint=True run=False",
                 "symmetry: checkpoint=False run=True"),
    "faults": ({"faults": FaultBudget(1, 0)},
               "faults: checkpoint=[1, 0] run=[0, 0]",
               "faults: checkpoint=[0, 0] run=[1, 0]"),
}


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_resume_refuses_other_reduction_or_fault_config(tmp_path, flag,
                                                        workers):
    extra, with_to_without, without_to_with = FLAGS[flag]

    def run(path_key, **options):
        return api.check("lcm", CheckOptions(
            nodes=3, workers=workers, max_states=300,
            checkpoint=CheckpointOptions(**path_key), **options))

    with_flag = str(tmp_path / "with.json")
    without_flag = str(tmp_path / "without.json")
    run({"out": with_flag}, **extra)
    run({"out": without_flag})
    for path, options, expected in (
            (with_flag, {}, with_to_without),
            (without_flag, extra, without_to_with)):
        with pytest.raises(CheckpointError) as caught:
            run({"resume": path}, **options)
        assert expected in str(caught.value)
        assert "\n" not in str(caught.value)
    # The matching configuration still resumes.
    assert run({"resume": with_flag}, **extra).states_explored >= 300


# ---------------------------------------------------------------------------
# (vi) the engine's process-global tables grow with distinct components (and
#      the effects table with states), never with transitions
# ---------------------------------------------------------------------------


def test_engine_tables_hold_no_per_transition_entries():
    protocol = api.compile_protocol("lcm", CheckOptions().compile)

    def table_sizes():
        return [len(table) for table in (
            model.VIEWS, model.APPS, model.CHANNELS, model.MESSAGES,
            model.APPENDED, model.REMOVED)]

    def run(**options):
        # The run's own effects cache, which a symmetry-reduced run fills
        # with certified entries.
        model_checker = ModelChecker(protocol, n_nodes=3,
                                     **check_setup("lcm"), **options)
        result = model_checker.run()
        assert result.transitions > 3 * result.states_explored
        # Effects per action, move templates per ids a node's moves read:
        for table in (model_checker._action_cache,
                      model_checker._app_moves,
                      model_checker._delivery_moves):
            assert 0 < len(table) <= result.states_explored
        return result.states_explored

    concrete_states = run()
    # One entry per distinct component: each id decodes to the value it
    # was assigned for, and the length tables say what they index.
    for values, ids in ((model.VIEWS, model.VIEW_IDS),
                        (model.APPS, model.APP_IDS),
                        (model.CHANNELS, model.CHANNEL_IDS),
                        (model.MESSAGES, model.MESSAGE_IDS)):
        assert len(values) == len(ids) == len(set(values))
        assert all(ids[value] == ident for ident, value in enumerate(values))
    assert model.CHANNELS[0] == ()
    assert model.QUEUE_LEN == [len(view.queue) for view in model.VIEWS]
    assert model.CHANNEL_LEN == [len(channel) for channel in model.CHANNELS]
    # The channel-edit memos are keyed by (channel, message) and
    # (channel, index), so distinct channels bound them.
    assert 0 < len(model.APPENDED) <= len(model.CHANNELS) * len(model.MESSAGES)
    assert 0 < len(model.REMOVED) <= (len(model.CHANNELS)
                                      * max(model.CHANNEL_LEN))
    # A repeat of the run meets nothing new, keyed by state or by
    # fingerprint; neither does the symmetry-reduced run, whose renamed
    # components are other reachable components of a symmetric protocol.
    sizes = table_sizes()
    assert run() == run(fingerprint_states=True) == concrete_states
    assert run(symmetry=True) < concrete_states
    assert table_sizes() == sizes


def test_move_tables_record_what_the_engine_recorded():
    """The move tables sit over the action-effects cache and record
    through it: a run records the same actions, and executes (and
    times) the same dispatches, as recording per move did -- keyed by
    state, by fingerprint or by orbit."""
    protocol = api.compile_protocol("lcm", CheckOptions().compile)
    for options, states, executed in (({}, 7658, 1563),
                                      ({"fingerprint_states": True}, 7658,
                                       1563),
                                      ({"symmetry": True}, 3882, 786)):
        profiler = CheckProfiler()
        checker = ModelChecker(protocol, n_nodes=3, profiler=profiler,
                               **check_setup("lcm"), **options)
        result = checker.run()
        assert result.states_explored == states
        assert len(checker._action_cache) == 945
        assert sum(count for count, _seconds
                   in profiler.dispatch.values()) == executed
        assert {key: entry["count"] for key, entry
                in result.profile.dispatch.items()} == result.handler_fires


@pytest.mark.parametrize("symmetry", [False, True])
def test_a_congested_state_builds_no_application_moves(symmetry):
    """At the cap, application moves are gated before their table is
    read: a congested state records, and certifies, deliveries only."""
    congested = [state for state in reachable(checker_for(
        ModelChecker, "stache", nodes=3, channel_cap=1), 200)
        if state.messages_in_flight()]
    assert congested
    checker = checker_for(ModelChecker, "stache", nodes=3, channel_cap=1,
                          symmetry=symmetry)
    for state in congested:
        labels = [label for label, *_move in checker._successors(state)]
        assert labels and all(label.startswith("deliver")
                              for label in labels)
    assert checker._app_moves == {} and len(checker._choice_cache) == 0
    assert checker._delivery_moves and checker._action_cache
    assert not ({mid for _node, _view, mid, _blocked in checker._action_cache}
                & set(_OP_MESSAGES.values()))


# ---------------------------------------------------------------------------
# (vii) the state records: a flat tuple of component ids, keyword-
#       constructible, and the congestion gate is a recount
# ---------------------------------------------------------------------------

CAP = 2
N = 3
_MSG = partial(Message, "REQ", 0)
_FILL = st.integers(min_value=0, max_value=CAP + 1)


def _channel(src, dst, length):
    return tuple(_MSG(src=src, dst=dst, payload=(i,)) for i in range(length))


def _view(queue_len):
    return BlockView("Cache_Invalid", (), (), "inv",
                     _channel(0, 0, queue_len))


class _Inert:
    """An engine whose handlers do nothing: a delivery only takes its
    message out of the channel, an application miss only blocks."""

    def __init__(self, _protocol, _ctx):
        pass

    def dispatch(self, _state_name, _state_args):
        pass


@settings(max_examples=200, deadline=None)
@given(fills=st.lists(_FILL, min_size=N * N, max_size=N * N),
       queues=st.lists(_FILL, min_size=N, max_size=N),
       node=st.integers(0, N - 1), queue_after=st.none() | _FILL,
       send_to=st.lists(st.integers(0, N - 1), max_size=3),
       remove=st.none() | st.tuples(st.integers(0, N - 1),
                                    st.integers(0, CAP)))
def test_application_moves_exactly_where_the_recount_is_zero(
        fills, queues, node, queue_after, send_to, remove):
    """Every way a channel or queue can cross ``channel_cap`` in one
    action -- the delivered message leaving a full channel, sends
    refilling that same channel (``node`` to itself), two sends to one
    destination, a deferred queue growing or draining past the cap --
    and on both sides of it: a move template played builds the expected
    successor, its key delta is the one between the two fingerprints,
    and ``_successors`` offers application moves exactly where a
    recount over the decoded lists finds nothing at the cap (and every
    delivery either way)."""
    checker = ModelChecker(api.compile_protocol("stache"), n_nodes=N,
                           channel_cap=CAP, fingerprint_states=True,
                           interpreter_factory=_Inert)
    parent = GlobalState(
        blocks=tuple((_view(queues[n]),) for n in range(N)),
        apps=tuple(AppView(None, ()) for _ in range(N)),
        channels=tuple(tuple(_channel(s, d, fills[s * N + d])
                             for d in range(N)) for s in range(N)))
    expected = [[list(channel) for channel in row] for row in parent.channels]
    popped = None
    if remove is not None and remove[1] < len(parent.channels[remove[0]][node]):
        slot = N * (1 + 1 + remove[0]) + node
        after, mid = model.REMOVED[parent[slot], remove[1]]
        popped = (slot, after)
        taken = expected[remove[0]][node].pop(remove[1])
        assert model.MESSAGES[mid] == taken
    sends = tuple(_MSG(src=node, dst=dst, payload=(9,)) for dst in send_to)
    for message in sends:
        expected[node][message.dst].append(message)
    views = () if queue_after is None else ((0, _view(queue_after)),)
    effects = ActionEffects(views, sends, None, (), None,
                            (node, N * (1 + 1 + node)))
    template = checker._template(parent, node, effects, (), "move", popped)
    [(_label, successor, delta, _judge)] = checker._play(
        parent, [template], {})
    assert successor.channels == tuple(
        tuple(tuple(channel) for channel in row) for row in expected)
    if queue_after is not None:
        assert len(successor.blocks[node][0].queue) == queue_after
    # The same stores, as the key delta the template carries with them.
    assert fingerprint(parent) ^ delta == fingerprint(successor)

    def recount(state):
        return (sum(len(channel) >= CAP
                    for row in state.channels for channel in row)
                + sum(len(row[0].queue) >= CAP for row in state.blocks))

    for state in (parent, successor):
        kinds = Counter(parse_label(label).kind
                        for label, *_move in checker._successors(state))
        assert (kinds["app"] > 0) == (recount(state) == 0)
        assert kinds["deliver"] == sum(
            1 for row in state.channels for channel in row if channel)


def test_state_records_take_keywords_and_print_their_fields():
    # (Values no other test's components equal: ids are assigned by
    # ``==``, under which 0 is False and 1 is True.)
    view = BlockView(state_name="Home_Idle", state_args=(7,),
                     info=(("owner", 5),), access="ReadWrite", queue=())
    app = AppView(blocked_on=None, gen=(3, 4))
    state = GlobalState(blocks=((view,),), apps=(app,), channels=(((),),),
                        faults=(1, 0))
    assert repr(view) == ("BlockView(state_name='Home_Idle', "
                          "state_args=(7,), info=(('owner', 5),), "
                          "access='ReadWrite', queue=())")
    assert repr(app) == "AppView(blocked_on=None, gen=(3, 4))"
    assert repr(state) == (f"GlobalState(blocks=(({view!r},),), "
                           f"apps=({app!r},), channels=(((),),), "
                           "faults=(1, 0))")
    assert GlobalState(((view,),), (app,), (((),),)).faults == (0, 0)
    assert state == GlobalState(((BlockView("Home_Idle", (7,),
                                            (("owner", 5),), "ReadWrite",
                                            ()),),),
                                (AppView(None, (3, 4)),), (((),),), (1, 0))
    assert view != app and state != view
    # The state itself is the ids: view, app, channel (0 = empty), then
    # drops, dups, n_nodes, n_blocks; hash and equality are tuple's own.
    assert isinstance(state, tuple) and len(state) == 3 + 4
    assert all(type(ident) is int for ident in state)
    assert tuple(state) == (model.VIEW_IDS[view], model.APP_IDS[app], 0,
                            1, 0, 1, 1)
    assert GlobalState.__hash__ is tuple.__hash__
    assert GlobalState.__eq__ is tuple.__eq__
    assert (state.blocks, state.apps, state.channels, state.faults) == (
        ((view,),), (app,), (((),),), (1, 0))
    assert type(state.blocks[0][0]) is BlockView
    assert type(state.apps[0]) is AppView


@pytest.mark.parametrize("record", [
    BlockView("Home_Idle", (), (), "ReadWrite", ()),
    AppView(None, ()),
    GlobalState((), (), ()),
], ids=lambda record: type(record).__name__)
def test_state_records_grow_no_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.memo = 1
    with pytest.raises(AttributeError):
        object.__setattr__(record, "_fingerprint", 1)


# ---------------------------------------------------------------------------
# (viii) ids against decoded records: re-interning is the identity, the
#        engine's successors are the reference's, renaming is a group action
# ---------------------------------------------------------------------------

# No registered protocol sends a message to the node it runs on; this
# one does nothing else.  A faulting cache node PINGs itself, the PING's
# handler PONGs on the same channel it was delivered from.
_LOOP_SOURCE = """
Protocol Loop
Begin
  State Home_Idle {};
  State Cache_Invalid {};
  Message PING;
  Message PONG;
End;

State Loop.Home_Idle{}
Begin
  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("invalid msg %s to Home_Idle", Msg_To_Str(MessageTag));
  End;
End;

State Loop.Cache_Invalid{}
Begin
  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(MyNode, PING, id);
  End;

  Message WR_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(MyNode, PING, id);
    Send(MyNode, PING, id);
  End;

  Message PING (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(MyNode, PONG, id);
  End;

  Message PONG (id : ID; Var info : INFO; src : NODE)
  Begin
    WakeUp(id);
  End;
End;
"""
_LOOP = compile_source(_LOOP_SOURCE,
                       initial_states=("Home_Idle", "Cache_Invalid"))

# (fast checker, reference checker, reachable states): 3 nodes, reorder
# 1, with and without a fault budget (so drop/dup moves are in the pool).
_POOLS = [
    (fast, ReferenceChecker(_LOOP, n_nodes=3, reorder_bound=1),
     reachable(fast, 150))
    for fast in [ModelChecker(_LOOP, n_nodes=3, reorder_bound=1)]] + [
    (fast, checker_for(ReferenceChecker, name, nodes=3, reorder=1,
                       faults=budget), reachable(fast, 150))
    for name in ("stache", "lcm", "lcm_mcc")
    for budget in (None, FaultBudget(drop=1, dup=1))
    for fast in [checker_for(ModelChecker, name, nodes=3, reorder=1,
                             faults=budget)]]
_DRAW = st.tuples(st.integers(0, len(_POOLS) - 1), st.integers(min_value=0))


def _moves(successors):
    """The (label, successor) pairs of the moves a generator yields, and
    the label of the error rule that ended it (None when it ran out)."""
    moves = []
    try:
        for move in successors:
            moves.append(move[:2])
    except _LabelledViolation as error:
        return moves, (error.label, error.message)
    return moves, None


def _decoded(state):
    return state.blocks, state.apps, state.channels, state.faults


@settings(max_examples=150, deadline=None)
@given(_DRAW)
def test_interning_the_decoded_fields_gives_the_same_ids(draw):
    _fast, _reference, states = _POOLS[draw[0]]
    state = states[draw[1] % len(states)]
    again = GlobalState(*_decoded(state))
    assert again == state and tuple(again) == tuple(state)
    assert hash(again) == hash(state) and again in {state}
    assert len(state) == 3 * 1 + 3 + 3 * 3 + 4
    assert all(type(ident) is int for ident in state)


@settings(max_examples=150, deadline=None)
@given(_DRAW)
def test_engine_successors_decode_to_the_references(draw):
    fast, reference, states = _POOLS[draw[0]]
    state = states[draw[1] % len(states)]
    mine, my_error = _moves(fast._successors(state))
    theirs, their_error = _moves(
        reference._successors(GlobalState(*_decoded(state))))
    assert my_error == their_error
    assert [label for label, _ in mine] == [label for label, _ in theirs]
    for (label, successor), (_label, expected) in zip(mine, theirs):
        assert _decoded(successor) == _decoded(expected), label
        assert successor == expected and tuple(successor) == tuple(expected)


def _kinds_of_keyed_moves(checker) -> set:
    """Run ``checker`` holding the key of every move its expand step
    yields -- its parent's with the move's key delta -- to the
    successor's fingerprint; the kinds of move that were seen."""
    expand, kinds = checker._expand, set()

    def checking(state, key):
        for move in expand(state, key):
            label, successor, delta, _judge = move
            succ_key = key ^ delta
            assert succ_key == fingerprint(successor), label
            kinds.add(label.split()[0])
            if successor is state:
                assert succ_key == key
                kinds.add("self-loop")
            if label.startswith("deliver PING"):
                node = int(label.split()[2][0])     # "n->n[i]"
                if successor.channel(node, node):
                    kinds.add("refill")
            yield move

    checker._expand = checking
    assert checker.run().ok
    return kinds


@pytest.mark.parametrize("reorder", [0, 1])
def test_self_sends_self_loops_and_faults_carry_their_key(reorder):
    """Incremental keys at the edges: the fixture's PONG refills the
    channel its PING was just taken from, a repeated read hit leaves the
    state as it is (delta 0), and drop/dup store a channel and a budget
    slot -- on FIFO and on reordering channels."""
    kinds = _kinds_of_keyed_moves(ModelChecker(
        _LOOP, n_nodes=2, reorder_bound=reorder, fingerprint_states=True,
        fault_budget=(1, 1)))
    assert kinds >= {"deliver", "refill", "drop", "dup"}
    assert "self-loop" in _kinds_of_keyed_moves(checker_for(
        ModelChecker, "stache", nodes=2, fingerprint_states=True))


def test_successor_pool_covers_every_kind_of_channel_edit():
    """What the property above has to have seen to mean anything: drop
    and dup moves, and a delivery out of a node's channel to itself
    whose handler sends on that same channel (remove, then append)."""
    labels, refilled = set(), 0
    for fast, _reference, states in _POOLS:
        for state in states:
            for label, successor in _moves(fast._successors(state))[0]:
                kind, _tag, route, *_ = label.split() + [""]
                labels.add(kind)
                src, _, rest = route.partition("->")
                if kind == "deliver" and rest.split("[")[0] == src:
                    node = int(src)
                    refilled += (len(successor.channel(node, node))
                                 >= len(state.channel(node, node)))
    assert {"deliver", "drop", "dup"} <= labels
    assert refilled > 0


_SYM = checker_for(ModelChecker, "stache", nodes=4)
_SYM_STATES = reachable(_SYM, 300)
_CANON = SymmetryCanonicalizer(_SYM.protocol, 4, 1, perm_cap=None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(_SYM_STATES) - 1))
def test_renaming_is_a_group_action_on_id_tuples(index):
    state = _SYM_STATES[index]
    identity = tuple(range(4))
    group = [identity, *_CANON.perms]
    assert len(group) == 6
    key = _CANON.canonical_fingerprint(state)
    assert _CANON.permute(state, identity) == state
    for mapping in group:
        inverse = tuple(sorted(range(4), key=mapping.__getitem__))
        assert inverse in group
        image = _CANON.permute(state, mapping)
        assert type(image) is GlobalState and len(image) == len(state)
        assert _CANON.permute(image, inverse) == state
        assert _CANON.canonical_fingerprint(image) == key
        assert GlobalState(*_decoded(image)) == image
