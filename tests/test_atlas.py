"""Tests for the state-space atlas (repro.verify.atlas).

The atlas contract has three legs:

1. **Off is free.**  A run with the atlas armed and one without
   explore the identical state space: verdict, counts, handler fires,
   the exact fingerprint stream, and the checkpoint's record all match
   (an armed checkpoint adds the graph; the plain one's bytes stay).
2. **Exact and pinned.**  The atlas is the serial run's final record
   (checkpoint.Cut) plus a small header, written as a checkpoint: it
   holds every visited state and every explored transition, and its
   renderings are pinned on three configurations.  Like liveness it
   reads the graph one process records, so ``--workers`` is refused
   (``test_cli.py::TestRefusedModes``), and a resumed run writes the
   uninterrupted run's atlas (``test_cli.py::TestGraphResumes``).
3. **The analysis is right.**  SCC/terminal/deadlock structure, the
   depth profile and the residence heatmap are pinned on graphs small
   enough to verify by hand.
"""

import hashlib
import json
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArtifactOptions, CheckOptions, ReductionOptions, check
from repro.cli import main
from repro.faults import FaultBudget
from repro.obs.analyze import TraceError
from repro.protocols import PROTOCOLS, compile_named_protocol
from repro.verify import ModelChecker, events_for_protocol
from repro.verify.atlas import (
    StateAtlas,
    analyze_structure,
    atlas_to_dot,
    atlas_to_graphml,
    diff_atlases,
    format_atlas,
    residence_heatmap,
)
from repro.verify.checker import Label, parse_label
from repro.verify.checkpoint import (
    CHECKPOINT_KIND,
    Cut,
    decode_checkpoint,
    load_checkpoint,
)
from repro.verify.fingerprint import SymmetryCanonicalizer, fingerprint
from repro.verify.invariants import standard_invariants
from repro.verify.model import initial_global_state

from reference_checker import record_expansions


def make_serial(name="stache", nodes=2, reorder=0, atlas=False, **kwargs):
    protocol = compile_named_protocol(name)
    return ModelChecker(
        protocol, n_nodes=nodes, n_blocks=1, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        atlas=atlas, **kwargs)


# sha256 of the plain checkpoint test_armed_checkpoint_adds_only_the_graph
# writes, "elapsed" zeroed: the bytes the unarmed layout has written
# since checkpoint v4.
PLAIN_CHECKPOINT = (
    "30d49d5be0d8a0709c39776b153fe8094eb2250dda3efca511a235b54078a232")


def outcome(result):
    return (result.ok, result.states_explored, result.transitions,
            result.max_depth, result.handler_fires, result.invariant_evals)


class TestOffModeIsFree:
    """Armed vs. absent: everything but host wall time is identical."""

    def test_serial_outcome_identical(self):
        plain = make_serial(reorder=1).run()
        armed = make_serial(reorder=1, atlas=True).run()
        assert outcome(plain) == outcome(armed)
        assert plain.atlas is None
        assert armed.atlas is not None

    def test_serial_fingerprint_stream_identical(self):
        plain_checker = make_serial(reorder=1, fingerprint_states=True)
        armed_checker = make_serial(reorder=1, fingerprint_states=True,
                                   atlas=True)
        plain_log = record_expansions(plain_checker)
        armed_log = record_expansions(armed_checker)
        plain = plain_checker.run()
        assert outcome(plain) == outcome(armed_checker.run())
        assert plain_log == armed_log          # same stream, same order
        assert len(plain_log) == plain.transitions

    def test_armed_checkpoint_adds_only_the_graph(self, tmp_path):
        """The plain file's bytes are those the unarmed layout always
        wrote (pinned, bar the wall clock); the armed file decodes to
        the same keys, parents, labels and counters, plus the graph of
        its expanded rows."""
        def checkpoint(atlas):
            path = str(tmp_path / f"{atlas}.json")
            make_serial("lcm_mcc", reorder=1, max_states=100, atlas=atlas,
                        fingerprint_states=True, checkpoint_out=path).run()
            return path

        def record(cut):
            names = list(cut.labels)
            return (list(cut.index), list(cut.parent),
                    [names[k] for k in cut.label], cut.transitions,
                    cut.handler_fires, cut.expanded, cut.depth, cut.deeper)

        plain_path = checkpoint(False)
        with open(plain_path) as handle:
            text = re.sub(r'"elapsed":\s*[0-9.e-]+', '"elapsed":0',
                          handle.read())
        assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_CHECKPOINT
        plain, armed = (decode_checkpoint(load_checkpoint(path), {}, path)
                        for path in (plain_path, checkpoint(True)))
        assert record(plain) == record(armed)
        assert plain.offsets is None and plain.vectors is None
        assert armed.renaming is None       # liveness under symmetry's
        assert len(armed.offsets) == armed.expanded + 1
        assert (len(armed.targets) == len(armed.edge_label)
                == armed.offsets[-1] == armed.transitions)
        assert len(armed.blocked) == armed.expanded
        assert len(armed.vector) == len(armed.index)     # the frontier's too
        assert max(armed.vector) < len(armed.vectors)

    @settings(max_examples=8, deadline=None)
    @given(reorder=st.integers(min_value=0, max_value=1),
           fingerprints=st.booleans(),
           max_states=st.integers(min_value=1, max_value=60))
    def test_property_armed_never_changes_exploration(
            self, reorder, fingerprints, max_states):
        plain = make_serial(reorder=reorder, max_states=max_states,
                            fingerprint_states=fingerprints).run()
        armed = make_serial(
            reorder=reorder, max_states=max_states,
            fingerprint_states=fingerprints, atlas=True).run()
        assert outcome(plain) == outcome(armed)


class TestExactRecording:
    def test_bounded_run_has_no_deadlock_or_basin(self):
        """A bounded run stops with states it never expanded: they are
        visited and carry ``frontier`` (as many as the last timeline
        point leaves to expand), and none is a deadlock state or a
        terminal SCC."""
        result = check("lcm", CheckOptions(
            nodes=3, max_states=2000,
            artifacts=ArtifactOptions(atlas=True)))
        assert not result.exhausted
        atlas = result.atlas
        assert len(atlas.states) == result.states_explored
        assert len(atlas.edges) == result.transitions
        frontier = {fp for fp, ann in atlas.states.items()
                    if ann.get("frontier")}
        assert len(frontier) == result.timeline[-1]["frontier"]
        assert not frontier & {record[0] for record in atlas.edges}
        structure = analyze_structure(atlas)
        assert structure["frontier_states"] == len(frontier)
        assert structure["deadlock_states"] == []
        assert structure["terminal_sccs"] == 0

    @pytest.mark.parametrize("options,report,dot,graphml", [
        (dict(nodes=2, reorder=1),
         "031782c62094ca2bb1e95ef1a91f2d7d12b2f76df4f5323980d9adf4c0d4e35b",
         "d0e317c78c60b8569d3cb3df3a0699570953d03ee86b620c821628f3e53afc86",
         "c52e58da9d314fd8b14d5fc2f4748f946bb436edf0a49be620da4b11e840cf73"),
        (dict(nodes=3, faults=FaultBudget(drop=1)),
         "fc1def39dde5a1a5f7c6883ef8673024522c02749c4fccde7761997723d5335b",
         "2d6ad8436b24d039f51f6491c06930a74fac927a4cfcac6658d1c471ac52034f",
         "518e906ccdb6a2d1301bdc94fcf6b8b66c3ad5fc306ccdc1ca7fbb1eb8596bd1"),
        (dict(nodes=3, liveness=True,
              reduction=ReductionOptions(symmetry=True)),
         "13b0149d5b25378970372a7843c6ec470ec0e50c734ef7eeb8900e703207f639",
         "0c9b6aaed245249f3c1f785503b1f468d6f6de4aa3a7a250ec022dfbcbb192f8",
         "c7ceddac6480951b5a40d76c9a50fd819b8ea2d9169baf47999a05fe6746eb6c"),
    ], ids=["reorder1", "drop1-frontier", "symmetry-liveness"])
    def test_renderings_pinned(self, options, report, dot, graphml,
                               tmp_path):
        """What a saved atlas renders, byte for byte -- the report and
        the whole DOT and GraphML exports -- for a passing run, a
        failing one with a frontier, and a canonical-keyed run whose
        graph liveness reads too."""
        path = str(tmp_path / "atlas.json")
        check("stache", CheckOptions(
            artifacts=ArtifactOptions(atlas=True), **options)).atlas.save(
                path)
        atlas = StateAtlas.read(path)
        for text, digest in ((format_atlas(atlas), report),
                             (atlas_to_dot(atlas), dot),
                             (atlas_to_graphml(atlas), graphml)):
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("options,structure,report", [
        (dict(nodes=2, reorder=1),
         "00dd53de53f7af1fbffb9b76e02ed94a4c05f68403e8c41313026f0b666f372a",
         "031782c62094ca2bb1e95ef1a91f2d7d12b2f76df4f5323980d9adf4c0d4e35b"),
        (dict(nodes=3, faults=FaultBudget(drop=1)),
         "28c9e65d1fcdf141857d300acd315dac2c88a90783f141d33750afad2a322c27",
         "fc1def39dde5a1a5f7c6883ef8673024522c02749c4fccde7761997723d5335b"),
        (dict(nodes=3, liveness=True,
              reduction=ReductionOptions(symmetry=True)),
         "7ef2e1d95db2ddb7d3fe753fe10a93e84407c147044af7a52ab83e4d2b78c363",
         "13b0149d5b25378970372a7843c6ec470ec0e50c734ef7eeb8900e703207f639"),
    ], ids=["reorder1", "drop1-frontier", "symmetry-liveness"])
    def test_structure_pinned(self, options, structure, report):
        """The analysis of the pinned runs, byte for byte: the structure
        summary and the rendered report (the failing run has 551
        components)."""
        atlas = check("stache", CheckOptions(
            artifacts=ArtifactOptions(atlas=True), **options)).atlas
        text = json.dumps(analyze_structure(atlas))
        assert hashlib.sha256(text.encode()).hexdigest() == structure
        text = format_atlas(atlas)
        assert hashlib.sha256(text.encode()).hexdigest() == report


class TestArtifact:
    def build(self, tmp_path, **options):
        result = check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True), **options))
        path = tmp_path / "atlas.json"
        result.atlas.save(str(path))
        return result.atlas, path

    def test_round_trip(self, tmp_path):
        """The file is a sealed checkpoint of the run's final cut plus
        the header: it reads back to the same cut and views, and a
        second save seals the same payload (``elapsed`` is unsealed)."""
        atlas, path = self.build(tmp_path)
        loaded = StateAtlas.read(str(path))
        assert loaded.header == atlas.header
        assert list(loaded.cut.index) == list(atlas.keys)
        for name in ("parent", "label", "offsets", "targets", "blocked",
                     "edge_label", "vector"):
            assert getattr(loaded.cut, name) == getattr(atlas.cut, name)
        assert (loaded.cut.labels, loaded.cut.vectors) == (
            atlas.cut.labels, atlas.cut.vectors)
        assert (loaded.states, loaded.edges) == (atlas.states, atlas.edges)
        payload = load_checkpoint(str(path))
        assert (payload["kind"], payload["v"]) == (CHECKPOINT_KIND, 4)
        again = tmp_path / "again.json"
        atlas.save(str(again))
        assert load_checkpoint(str(again))["seal"] == payload["seal"]

    def test_annotations_present(self, tmp_path):
        atlas, _path = self.build(tmp_path)
        for fp_hex, ann in atlas.states.items():
            assert len(fp_hex) == 16
            assert ann["depth"] >= 0
            assert len(ann["vector"]) == 3        # one row per node
            # Zero budget elided; an exhausted run has no frontier.
            assert set(ann) == {"depth", "vector"}
        roots = [a for a in atlas.states.values() if a["depth"] == 0]
        assert len(roots) == 1
        for record in atlas.edges:
            src, dst, label = record
            assert src in atlas.states and dst in atlas.states
            assert parse_label(label).kind in (
                "app", "deliver", "drop", "dup", "other")

    def test_fault_budget_annotations(self):
        result = check("stache", CheckOptions(
            reorder=0, artifacts=ArtifactOptions(atlas=True),
            faults=FaultBudget(drop=1)))
        assert not result.ok                      # drop=1 deadlocks stache
        atlas = result.atlas
        assert atlas is not None
        assert atlas.echo["faults"] == [1, 0]
        assert any("faults" in ann for ann in atlas.states.values())
        assert any(parse_label(record[2]).kind == "drop"
                   for record in atlas.edges)
        assert "FAIL" in format_atlas(atlas)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else", "version": 1}')
        with pytest.raises(TraceError, match="not a state atlas"):
            StateAtlas.read(str(path))

    @pytest.mark.parametrize("payload,needle", [
        ({"kind": "teapot-state-atlas", "version": 3},
         "not a state atlas (kind='teapot-state-atlas')"),
        ({"kind": CHECKPOINT_KIND, "v": 3},
         "state atlas version 3, expected 4"),
    ], ids=["json-v3", "checkpoint-v3"])
    def test_rejects_old_files_in_one_line(self, tmp_path, capsys, payload,
                                           needle):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", "atlas", str(path)]) == 1
        err = capsys.readouterr().err
        assert needle in err and "--atlas-out" in err
        assert err.count("\n") == 1

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": CHECKPOINT_KIND, "v": 5}))
        with pytest.raises(TraceError, match="version"):
            StateAtlas.read(str(path))

    def test_friendly_load_errors(self, tmp_path):
        with pytest.raises(TraceError, match="no such file"):
            StateAtlas.read(str(tmp_path / "missing.json"))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty"):
            StateAtlas.read(str(empty))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        with pytest.raises(TraceError, match="not valid JSON"):
            StateAtlas.read(str(garbage))
        array_file = tmp_path / "array.json"
        array_file.write_text("[1, 2]")
        with pytest.raises(TraceError, match="not an object"):
            StateAtlas.read(str(array_file))


class TestReaderRefusals:
    """Each file the atlas readers cannot use is one ``error:`` line,
    exit 1, no traceback."""

    @staticmethod
    def refused(capsys, argv, needle):
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert needle in err, err

    @pytest.mark.parametrize("flags", [[], ["--liveness"]],
                             ids=["plain", "liveness"])
    def test_checkpoint_without_the_atlas(self, tmp_path, capsys, flags):
        path = str(tmp_path / "ck.json")
        main(["verify", "stache", "--max-states", "20", *flags,
              "--checkpoint-out", path])
        self.refused(capsys, ["analyze", "atlas", path], "--atlas-out")

    def test_diff_against_a_plain_checkpoint_or_a_profile(self, tmp_path,
                                                          capsys):
        atlas, plain, profile = (str(tmp_path / name) for name in (
            "a.json", "ck.json", "p.json"))
        main(["verify", "stache", "--atlas-out", atlas,
              "--profile-out", profile])
        main(["verify", "stache", "--checkpoint-out", plain])
        self.refused(capsys, ["analyze", "diff", atlas, plain],
                     f"{plain}: a checkpoint without the state atlas")
        self.refused(capsys, ["analyze", "diff", atlas, profile],
                     "cannot diff a state-atlas")

    def test_truncated_or_bit_flipped(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        main(["verify", "stache", "--atlas-out", str(path)])
        blob = path.read_bytes()
        damaged = tmp_path / "damaged.json"
        damaged.write_bytes(blob[:len(blob) // 2])
        self.refused(capsys, ["analyze", "atlas", str(damaged)],
                     "not valid JSON")
        flipped = bytearray(blob)
        flipped[blob.index(b'"transient":') + 15] ^= 0x01
        damaged.write_bytes(bytes(flipped))
        self.refused(capsys, ["analyze", "atlas", str(damaged)],
                     "seal mismatch")


def synthetic_atlas(parents, edges=(), nodes=1, state_name="S"):
    """A hand-built atlas for pinning the structural analysis: state
    ``k`` has key ``k`` and parent index ``parents[k]`` (-1: a root),
    ``edges`` are (src, dst, label) by index, every state is expanded
    and every node is in ``state_name``."""
    n = len(parents)
    cut = Cut(expanded=n, deeper=n, offsets=array("q", [0]),
              targets=array("I"), edge_label=array("I"),
              blocked=array("q", [0]) * n, vector=array("I", [0]) * n,
              vectors={(state_name,) * nodes + (0, 0): 0})
    for k, parent in enumerate(parents):
        cut.add(k, parent, "<initial>")
    for k in range(n):
        for src, dst, label in edges:
            if src == k:
                cut.targets.append(dst)
                cut.edge_label.append(
                    cut.labels.setdefault(label, len(cut.labels)))
        cut.offsets.append(len(cut.targets))
    cut.transitions = len(cut.targets)
    echo = {"protocol": "Synthetic", "n_nodes": nodes, "n_blocks": 1,
            "reorder_bound": 0, "faults": [0, 0]}
    return StateAtlas(echo, {"ok": True, "exhausted": True, "max_depth": 0,
                             "transient": {state_name: False}}, cut)


class TestStructuralAnalysis:
    def test_scc_and_terminal_decomposition(self):
        # d -> a -> b -> c -> a (cycle), plus isolated e: by index d, e,
        # a, b, c.
        d, e, a, b, c = range(5)
        atlas = synthetic_atlas(
            [-1, -1, d, a, b],
            [(d, a, "n0: read b0"), (a, b, "n0: read b0"),
             (b, c, "n0: read b0"), (c, a, "n0: read b0")])
        structure = analyze_structure(atlas)
        assert structure["sccs"] == 3
        assert structure["largest_scc"] == 3
        # The cycle and the isolated state have no exits; d does.
        assert structure["terminal_sccs"] == 2
        assert sorted(structure["terminal_sizes"]) == [1, 3]
        assert structure["deadlock_states"] == [f"{e:016x}"]
        assert structure["diameter"] == 3
        assert structure["depth_profile"] == [2, 1, 1, 1]
        assert structure["out_degree"]["max"] == 1
        assert structure["in_degree"]["max"] == 2

    def test_passing_real_run_has_no_deadlocks(self):
        atlas = check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas
        structure = analyze_structure(atlas)
        # A protocol that passes deadlock checking: every state has a
        # successor, and the whole space drains back to idle (one SCC).
        assert structure["deadlock_states"] == []
        assert structure["sccs"] == 1
        assert structure["terminal_sccs"] == 1
        assert structure["diameter"] == atlas.header["max_depth"]
        assert sum(structure["depth_profile"]) == len(atlas.states)

    def test_residence_heatmap_transient_split(self):
        atlas = check("stache", CheckOptions(
            nodes=2, reorder=1,
            artifacts=ArtifactOptions(atlas=True))).atlas
        heat = residence_heatmap(atlas)
        assert heat["states"] == 47
        # Every kept state contributes one (node, state) observation
        # per node per block.
        assert sum(sum(row) for row in heat["rows"].values()) == 47 * 2
        assert "Cache_Inv_To_RO" in heat["transient_states"]
        assert 0 < heat["transient_fraction"] < 1


class TestCanonicalizer:
    def test_canonicalizer_homes_fixed(self):
        protocol = compile_named_protocol("stache")
        # One home and one caching node: nothing to permute.
        assert SymmetryCanonicalizer(protocol, 2, 1).perms == []
        canon = SymmetryCanonicalizer(protocol, 3, 1)
        assert canon.free_nodes == [1, 2]
        assert canon.perms == [(0, 2, 1)]
        # All three nodes homed: nothing is free to permute.
        homed = SymmetryCanonicalizer(protocol, 3, 3)
        assert homed.free_nodes == []
        assert homed.perms == []

    def test_permute_is_involution_on_swap(self):
        protocol = compile_named_protocol("stache")
        events = events_for_protocol("stache")
        state = initial_global_state(protocol, 3, 1, events.initial)
        canon = SymmetryCanonicalizer(protocol, 3, 1)
        mapping = canon.perms[0]                   # the 1<->2 swap
        swapped = canon.permute(state, mapping)
        assert canon.permute(swapped, mapping) == state
        # The initial state is symmetric: the swap fixes it.
        assert swapped == state
        assert canon.least(state, fingerprint(state)) \
            == (fingerprint(state), None)


class TestLabelParsing:
    @pytest.mark.parametrize("label,expected", [
        ("deliver GET 0->1[0] blk=0", ("deliver", "GET", 0, 1, 0, 0)),
        ("drop PUT_DATA 2->0[3] blk=1", ("drop", "PUT_DATA", 2, 0, 3, 1)),
        ("dup ACK 1->1[0] blk=2", ("dup", "ACK", 1, 1, 0, 2)),
        ("n0: read b0", ("app", "read", 0, 0, None, 0)),
        ("n2: lcm-write b1", ("app", "lcm-write", 2, 2, None, 1)),
        ("n1: cas b0", ("app", "cas", 1, 1, None, 0)),
        ("<initial>", ("other", "<initial>", None, None, None, None)),
    ])
    def test_parse(self, label, expected):
        assert parse_label(label) == Label(*expected)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_every_generated_label_parses(self, name):
        """The checker's one grammar reads back every label it and the
        event generators build: each edge of a faulted atlas is a
        delivery, a fault or an application rule, never ``other``."""
        atlas = check(name, CheckOptions(
            nodes=2, faults=FaultBudget(drop=1, dup=1),
            artifacts=ArtifactOptions(atlas=True))).atlas
        assert ({parse_label(edge[2]).kind for edge in atlas.edges}
                == {"deliver", "drop", "dup", "app"})


class TestExports:
    def build(self):
        return check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas

    def test_dot_full(self):
        atlas = self.build()
        text = atlas_to_dot(atlas)
        assert text.startswith('digraph "Stache atlas"')
        assert text.count(" -> ") == len(atlas.edges)
        assert "shape=box" in text                 # transient states
        assert "peripheries=2" in text             # the initial state

    def test_dot_depth_filter(self):
        atlas = self.build()
        shallow = atlas_to_dot(atlas, max_depth=2)
        assert 0 < shallow.count(" -> ") < len(atlas.edges)
        deep_states = [fp for fp, ann in atlas.states.items()
                       if ann["depth"] > 2]
        assert deep_states
        assert all(fp not in shallow for fp in deep_states)

    def test_dot_protocol_state_filter(self):
        atlas = self.build()
        excl = atlas_to_dot(atlas, protocol_state="Home_Excl")
        keep = [fp for fp, ann in atlas.states.items()
                if any("Home_Excl" in names for names in ann["vector"])]
        assert 0 < len(keep) < len(atlas.states)
        assert all(fp in excl for fp in keep)

    def test_graphml_well_formed(self):
        import xml.etree.ElementTree as ET

        atlas = self.build()
        text = atlas_to_graphml(atlas, max_depth=3)
        root = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph = root.find(f"{ns}graph")
        nodes = graph.findall(f"{ns}node")
        edges = graph.findall(f"{ns}edge")
        kept = {fp for fp, ann in atlas.states.items()
                if ann["depth"] <= 3}
        assert len(nodes) == len(kept)
        assert all(edge.get("source") in kept
                   and edge.get("target") in kept for edge in edges)


class TestDiff:
    def test_diff_atlases(self):
        fifo = check("stache", CheckOptions(
            nodes=2, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas
        reordered = check("stache", CheckOptions(
            nodes=2, reorder=1,
            artifacts=ArtifactOptions(atlas=True))).atlas
        text = diff_atlases(fifo, reordered)
        assert "states: 33 -> 47" in text
        assert "appeared" in text and "vanished" in text
        assert "terminal SCCs:" in text
        assert "configurations differ" in text
        same = diff_atlases(fifo, fifo)
        assert "(+0 appeared, -0 vanished)" in same
        assert "configurations differ" not in same


class TestFormat:
    def test_report_sections(self):
        atlas = check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas
        text = format_atlas(atlas)
        assert "state atlas: Stache" in text
        assert "verdict: PASS" in text
        assert "coverage: exact" in text
        assert "depth: diameter=16" in text
        assert "SCCs: 1 total" in text
        assert "deadlock states (out-degree 0): none" in text
        assert "residence heatmap" in text
        assert "transient residence:" in text
        assert "orbit" not in text
        assert "POR" not in text
        assert "unexpanded frontier" not in text

    def test_bounded_run_frontier_is_not_deadlock(self):
        """The unexpanded frontier of a ``--max-states`` run is
        reported as such, not as deadlock states."""
        atlas = check("stache_cas", CheckOptions(
            nodes=3, max_states=25_000,
            artifacts=ArtifactOptions(atlas=True))).atlas
        text = format_atlas(atlas)
        assert "coverage: exact -- 25000 states, 59085 edges" in text
        assert "deadlock states (out-degree 0): none\n" in text
        assert "unexpanded frontier: 3897\n" in text
        assert "; terminal 0 []" in text

    @pytest.mark.parametrize("layers,widths", [
        (20, " ".join(str(w) for w in range(1, 21))),
        (21, " ".join(str(w) for w in range(1, 20)) + " ... 21"),
    ])
    def test_depth_profile_keeps_last_layer(self, layers, widths):
        """Up to ``2 * top`` layers every width prints; past that the
        first ``2 * top - 1`` and then ``... last``."""
        # Layer d holds d + 1 states, so every width is distinct; each
        # one's parent is the first state of the layer above.
        parents = [-1]
        for d in range(1, layers):
            parents += [d * (d - 1) // 2] * (d + 1)
        text = format_atlas(synthetic_atlas(parents))
        assert f"  states per depth: {widths}\n" in text


class TestCli:
    def test_verify_atlas_out_and_render(self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--nodes", "3",
                     "--atlas-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert "wrote state atlas" in captured.err
        assert "teapot analyze atlas" in captured.err
        assert main(["analyze", "atlas", str(path)]) == 0
        out = capsys.readouterr().out
        assert "state atlas: Stache" in out
        assert "orbit" not in out

    def test_analyze_atlas_exports(self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--reorder", "1",
                     "--atlas-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "atlas", str(path), "--dot",
                     "--max-depth", "3"]) == 0
        assert capsys.readouterr().out.startswith('digraph "Stache')
        assert main(["analyze", "atlas", str(path), "--graphml"]) == 0
        assert "<graphml" in capsys.readouterr().out

    def test_atlas_on_failing_run(self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--faults", "drop=1",
                     "--atlas-out", str(path)]) == 1
        capsys.readouterr()
        assert main(["analyze", "atlas", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        # The one deadlock is the violation's state; the states the run
        # never expanded are the frontier, not deadlocks.
        violation = check("stache", CheckOptions(
            faults=FaultBudget(drop=1))).violation
        assert violation.kind == "deadlock"
        stuck = f"{fingerprint(violation.state):016x}"
        assert f"deadlock states (out-degree 0): 1: {stuck}\n" in out
        assert "unexpanded frontier: 15\n" in out

    def test_atlas_friendly_errors(self, tmp_path, capsys):
        assert main(["analyze", "atlas",
                     str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no such file" in err
        wrong = tmp_path / "profile.json"
        wrong.write_text('{"kind": "teapot-check-profile", "version": 1}')
        assert main(["analyze", "atlas", str(wrong)]) == 1
        err = capsys.readouterr().err
        assert "not a state atlas" in err
        assert err.count("\n") == 1        # one line, no traceback


class TestDiffKindSniffing:
    """`analyze diff` routes every artifact kind -- and fails in one
    friendly line on mixtures and strangers."""

    @pytest.fixture()
    def artifacts(self, tmp_path):
        coverage = tmp_path / "coverage.json"
        profile = tmp_path / "profile.json"
        atlas = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--reorder", "1",
                     "--coverage-out", str(coverage),
                     "--profile-out", str(profile),
                     "--atlas-out", str(atlas)]) == 0
        return {"coverage": coverage, "check-profile": profile,
                "state-atlas": atlas}

    @pytest.mark.parametrize("kind,needle", [
        ("coverage", "arms"),
        ("check-profile", "states/s"),
        ("state-atlas", "terminal SCCs:"),
    ])
    def test_same_kind_diffs(self, artifacts, capsys, kind, needle):
        path = str(artifacts[kind])
        capsys.readouterr()
        assert main(["analyze", "diff", path, path]) == 0
        assert needle in capsys.readouterr().out

    @pytest.mark.parametrize("a,b", [
        ("coverage", "check-profile"),
        ("coverage", "state-atlas"),
        ("check-profile", "state-atlas"),
    ])
    def test_mixed_kinds_refused(self, artifacts, capsys, a, b):
        capsys.readouterr()
        assert main(["analyze", "diff", str(artifacts[a]),
                     str(artifacts[b])]) == 1
        err = capsys.readouterr().err
        assert "cannot diff" in err
        assert a in err and b in err
        assert err.count("\n") == 1

    def test_unknown_teapot_kind_refused(self, tmp_path, capsys):
        stranger = tmp_path / "stranger.json"
        stranger.write_text('{"kind": "teapot-from-the-future", "v": 9}')
        other = tmp_path / "other.json"
        other.write_text('{"kind": "teapot-from-the-future", "v": 9}')
        assert main(["analyze", "diff", str(stranger), str(other)]) == 1
        err = capsys.readouterr().err
        assert "unrecognised artifact kind 'teapot-from-the-future'" in err
        assert err.count("\n") == 1
