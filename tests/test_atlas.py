"""Tests for the state-space atlas (repro.verify.atlas).

The atlas contract has three legs:

1. **Off is free.**  A run with the atlas armed and one without
   explore the identical state space: verdict, counts, handler fires,
   the exact fingerprint stream, and the checkpoint's record all match
   (an armed checkpoint adds the graph; the plain one's bytes stay).
2. **Exact and pinned.**  The atlas, read off the graph the serial run
   records in its one record (checkpoint.Cut), holds every visited
   state and every explored transition; its bytes are pinned on three
   configurations.  Like liveness it reads the graph one process
   records, so ``--workers`` is refused
   (``test_cli.py::TestRefusedModes``), and a resumed run writes the
   uninterrupted run's atlas (``test_cli.py::TestGraphResumes``).
3. **The analysis is right.**  SCC/terminal/deadlock structure, the
   depth profile and the residence heatmap are pinned on graphs small
   enough to verify by hand.
"""

import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArtifactOptions, CheckOptions, ReductionOptions, check
from repro.cli import main
from repro.faults import FaultBudget
from repro.obs.analyze import TraceError
from repro.protocols import PROTOCOLS, compile_named_protocol
from repro.verify import (
    ModelChecker,
    StateAtlas,
    events_for_protocol,
    load_atlas,
)
from repro.verify.atlas import (
    ATLAS_KIND,
    ATLAS_VERSION,
    analyze_structure,
    atlas_to_dot,
    atlas_to_graphml,
    diff_atlases,
    format_atlas,
    residence_heatmap,
    scc_decomposition,
)
from repro.verify.checker import Label, parse_label
from repro.verify.checkpoint import decode_checkpoint, load_checkpoint
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
        assert len(armed.blocked) == len(armed.vector) == armed.expanded
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

    @pytest.mark.parametrize("options,digest", [
        (dict(nodes=2, reorder=1),
         "7385a2223ead1576a65d3a32eca94ca38e480b0b7156c6dcc9ca52173e257757"),
        (dict(nodes=3, faults=FaultBudget(drop=1)),
         "739c2f046a4f930e8203aba44ac3d719c2e6a9c7e2057278fcbfc9a3d83dc7f2"),
        (dict(nodes=3, liveness=True,
              reduction=ReductionOptions(symmetry=True)),
         "967b03b4f0cee5ffe65689dbfecfe8998f5bf48c0e846d217e310a39b0ecbc52"),
    ], ids=["reorder1", "drop1-frontier", "symmetry-liveness"])
    def test_artifact_bytes_pinned(self, options, digest):
        """The whole v3 payload, byte for byte: a passing run, a
        failing one with a frontier, and a canonical-keyed run whose
        graph liveness reads too."""
        atlas = check("stache", CheckOptions(
            artifacts=ArtifactOptions(atlas=True), **options)).atlas
        text = json.dumps(atlas.to_json(), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("options,structure,report", [
        (dict(nodes=2, reorder=1),
         "72ad2f7ac085748db793bc64efb61f73841d13aa391026cdfbc58eedbdf29278",
         "031782c62094ca2bb1e95ef1a91f2d7d12b2f76df4f5323980d9adf4c0d4e35b"),
        (dict(nodes=3, faults=FaultBudget(drop=1)),
         "466bc870bc0d40fdd10f91b0bfc3e9c9a9afc07e02dce363d8fd36a32b50da4c",
         "fc1def39dde5a1a5f7c6883ef8673024522c02749c4fccde7761997723d5335b"),
        (dict(nodes=3, liveness=True,
              reduction=ReductionOptions(symmetry=True)),
         "ab3d5aa59cc25b1d21c6dcaa5ce3e921e06b07cae9b8b6645320d70b502c6f24",
         "13b0149d5b25378970372a7843c6ec470ec0e50c734ef7eeb8900e703207f639"),
    ], ids=["reorder1", "drop1-frontier", "symmetry-liveness"])
    def test_structure_pinned(self, options, structure, report):
        """The analysis of the pinned artifacts, byte for byte: the SCC
        order, ``terminal_members`` and the rendered report (the
        failing run has 551 components)."""
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
        atlas, path = self.build(tmp_path)
        loaded = load_atlas(str(path))
        assert loaded.to_json() == atlas.to_json()
        payload = json.loads(path.read_text())
        assert payload["kind"] == ATLAS_KIND
        assert payload["version"] == ATLAS_VERSION
        # The kind header sits in the first bytes for diff's sniffer.
        assert path.read_text(encoding="utf-8")[:40].find(ATLAS_KIND) > 0

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
        from repro.faults import FaultBudget

        result = check("stache", CheckOptions(
            reorder=0, artifacts=ArtifactOptions(atlas=True),
            faults=FaultBudget(drop=1)))
        assert not result.ok                      # drop=1 deadlocks stache
        atlas = result.atlas
        assert atlas is not None
        assert atlas.fault_budget == (1, 0)
        assert any("faults" in ann for ann in atlas.states.values())
        assert any(parse_label(record[2]).kind == "drop"
                   for record in atlas.edges)
        assert "FAIL" in format_atlas(atlas)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else", "version": 1}')
        with pytest.raises(TraceError, match="not a state atlas"):
            load_atlas(str(path))

    @pytest.mark.parametrize("version", [1, 2])
    def test_rejects_old_version_in_one_line(self, tmp_path, capsys,
                                             version):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps({"kind": ATLAS_KIND,
                                    "version": version}))
        assert main(["analyze", "atlas", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"state atlas version {version}, expected 3" in err
        assert err.count("\n") == 1

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"kind": ATLAS_KIND, "version": ATLAS_VERSION + 1}))
        with pytest.raises(TraceError, match="version"):
            load_atlas(str(path))

    def test_friendly_load_errors(self, tmp_path):
        with pytest.raises(TraceError, match="no such file"):
            load_atlas(str(tmp_path / "missing.json"))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_atlas(str(empty))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        with pytest.raises(TraceError, match="not valid JSON"):
            load_atlas(str(garbage))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(TraceError, match="not an object"):
            load_atlas(str(array))


def synthetic_atlas(depths, edges, nodes=1, state_name="S"):
    """A hand-built atlas over single-letter state ids for pinning the
    structural analysis: ``depths`` maps id -> BFS depth, ``edges`` is
    (src, dst, label) triples."""
    states = {}
    for ident, depth in depths.items():
        states[ident] = {"depth": depth,
                         "vector": [[state_name]] * nodes}
    records = [list(edge) for edge in edges]
    return StateAtlas(
        protocol="Synthetic", nodes=nodes, addresses=1, reorder=0,
        workers=1,
        result={"ok": True, "states": len(states),
                "transitions": len(records), "max_depth":
                max(depths.values(), default=0), "exhausted": True},
        state_meta={state_name: {"transient": False}},
        states=states, edges=records)


class TestStructuralAnalysis:
    def test_scc_and_terminal_decomposition(self):
        # d -> a -> b -> c -> a (cycle), plus isolated e.
        atlas = synthetic_atlas(
            {"a": 1, "b": 2, "c": 3, "d": 0, "e": 0},
            [("d", "a", "n0: read b0"), ("a", "b", "n0: read b0"),
             ("b", "c", "n0: read b0"), ("c", "a", "n0: read b0")])
        sccs = scc_decomposition(atlas)
        assert sorted(len(c) for c in sccs) == [1, 1, 3]
        structure = analyze_structure(atlas)
        assert structure["sccs"] == 3
        assert structure["largest_scc"] == 3
        # The cycle and the isolated state have no exits; d does.
        assert structure["terminal_sccs"] == 2
        assert sorted(structure["terminal_sizes"]) == [1, 3]
        assert structure["deadlock_states"] == ["e"]
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
        assert structure["diameter"] == atlas.result["max_depth"]
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
        # Layer d holds d + 1 states, so every width is distinct.
        depths = {f"{d}.{i}": d for d in range(layers) for i in range(d + 1)}
        text = format_atlas(synthetic_atlas(depths, []))
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
