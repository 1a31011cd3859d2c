"""Tests for the state-space atlas (repro.verify.atlas).

The atlas contract has three legs:

1. **Off is free.**  A run with no recorder and a run with one armed
   explore the identical state space: verdict, counts, handler fires,
   the exact fingerprint stream, and checkpoint bytes all match.
2. **Engine-invariant.**  A completed exploration produces the
   identical atlas -- node set, edge multiset, orbit keys -- at any
   worker count, with or without sketch truncation (bottom-k sampling
   is arrival-order independent and merges exactly).
3. **The analysis is right.**  SCC/terminal/deadlock structure, the
   residence heatmap, the orbit estimator, and the POR diamond check
   are pinned on graphs small enough to verify by hand.
"""

import json
import re
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArtifactOptions, CheckOptions, check
from repro.cli import main
from repro.faults import FaultBudget
from repro.obs.analyze import TraceError
from repro.protocols import PROTOCOLS, compile_named_protocol
from repro.verify import (
    AtlasRecorder,
    ModelChecker,
    ParallelChecker,
    StateAtlas,
    events_for_protocol,
    fingerprint,
    load_atlas,
)
from repro.verify.atlas import (
    ATLAS_KIND,
    ATLAS_VERSION,
    _BottomK,
    analyze_structure,
    atlas_to_dot,
    atlas_to_graphml,
    diff_atlases,
    format_atlas,
    orbit_summary,
    residence_heatmap,
    scc_decomposition,
)
from repro.verify.checker import Label, parse_label
from repro.verify.fingerprint import SymmetryCanonicalizer
from repro.verify.invariants import standard_invariants
from repro.verify.model import initial_global_state

from reference_checker import record_expansions


def make_serial(name="stache", nodes=2, reorder=0, atlas=None, **kwargs):
    protocol = compile_named_protocol(name)
    return ModelChecker(
        protocol, n_nodes=nodes, n_blocks=1, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        atlas=atlas, **kwargs)


def make_parallel(name="stache", nodes=2, reorder=0, workers=2,
                  atlas=None, **kwargs):
    protocol = compile_named_protocol(name)
    return ParallelChecker(
        protocol, n_nodes=nodes, n_blocks=1, reorder_bound=reorder,
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=True),
        workers=workers, atlas=atlas, **kwargs)


def outcome(result):
    return (result.ok, result.states_explored, result.transitions,
            result.max_depth, result.handler_fires, result.invariant_evals)


def atlas_key(atlas):
    """The identity the engine-invariance contract pins: node set,
    edge multiset, orbit multiset."""
    return (set(atlas.states),
            sorted(tuple(record) for record in atlas.edges),
            sorted(ann["orbit"] for ann in atlas.states.values()))


class TestOffModeIsFree:
    """Armed vs. absent: everything but host wall time is identical."""

    def test_serial_outcome_identical(self):
        plain = make_serial(reorder=1).run()
        armed = make_serial(reorder=1, atlas=AtlasRecorder()).run()
        assert outcome(plain) == outcome(armed)
        assert plain.atlas is None
        assert armed.atlas is not None

    def test_serial_fingerprint_stream_identical(self):
        plain_checker = make_serial(reorder=1, fingerprint_states=True)
        armed_checker = make_serial(reorder=1, fingerprint_states=True,
                                   atlas=AtlasRecorder())
        plain_log = record_expansions(plain_checker)
        armed_log = record_expansions(armed_checker)
        plain = plain_checker.run()
        assert outcome(plain) == outcome(armed_checker.run())
        assert plain_log == armed_log          # same stream, same order
        assert len(plain_log) == plain.transitions

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_outcome_identical(self, workers):
        plain = make_parallel(reorder=1, workers=workers).run()
        armed = make_parallel(reorder=1, workers=workers,
                              atlas=AtlasRecorder()).run()
        assert outcome(plain) == outcome(armed)
        assert armed.atlas is not None

    def test_checkpoint_bytes_identical(self, tmp_path):
        def checkpoint(atlas, path):
            make_parallel("lcm_mcc", reorder=1, workers=2,
                          max_states=100, atlas=atlas,
                          checkpoint_out=str(path)).run()
            text = path.read_text()
            return re.sub(r'"elapsed":\s*[0-9.e-]+', '"elapsed":0', text)

        plain = checkpoint(None, tmp_path / "plain.json")
        armed = checkpoint(AtlasRecorder(), tmp_path / "armed.json")
        assert plain == armed

    @settings(max_examples=8, deadline=None)
    @given(reorder=st.integers(min_value=0, max_value=1),
           fingerprints=st.booleans(),
           state_cap=st.integers(min_value=1, max_value=200),
           edge_cap=st.integers(min_value=1, max_value=200))
    def test_property_armed_never_changes_exploration(
            self, reorder, fingerprints, state_cap, edge_cap):
        plain = make_serial(reorder=reorder,
                            fingerprint_states=fingerprints).run()
        armed = make_serial(
            reorder=reorder, fingerprint_states=fingerprints,
            atlas=AtlasRecorder(state_cap=state_cap,
                                edge_cap=edge_cap)).run()
        assert outcome(plain) == outcome(armed)


# The seeded protocol/config matrix for the serial/parallel agreement
# property: small enough to explore at four worker counts per example.
_AGREEMENT_CONFIGS = [
    ("stache", 2, 0), ("stache", 2, 1), ("stache", 3, 0),
    ("stache_cas", 2, 0), ("stache_cas", 2, 1),
    ("lcm", 2, 0), ("lcm", 2, 1),
]


class TestEngineInvariance:
    @settings(max_examples=6, deadline=None)
    @given(config=st.sampled_from(_AGREEMENT_CONFIGS))
    def test_property_atlas_identical_across_worker_counts(self, config):
        name, nodes, reorder = config
        keys = {}
        for workers in (0, 1, 2, 3):
            result = check(name, CheckOptions(
                nodes=nodes, reorder=reorder, workers=workers,
                artifacts=ArtifactOptions(atlas=True)))
            assert result.ok
            assert not result.atlas.sampled
            keys[workers] = atlas_key(result.atlas)
        assert keys[0] == keys[1] == keys[2] == keys[3]

    def test_truncated_sample_identical_across_engines(self):
        """Bottom-k is order-independent and merges exactly, so even a
        *sampled* atlas is identical at any worker count."""
        keys = {}
        for workers in (0, 2, 3):
            make = (partial(make_parallel, workers=workers) if workers
                    else make_serial)
            atlas = make("stache", nodes=3, atlas=AtlasRecorder(
                state_cap=100, edge_cap=300)).run().atlas
            assert atlas.sampled
            assert atlas.truncation["states_kept"] == 100
            assert atlas.truncation["edges_kept"] == 300
            assert atlas.truncation["states_seen"] == 847
            assert atlas.truncation["edges_seen"] == 2122
            keys[workers] = atlas_key(atlas)
        assert keys[0] == keys[2] == keys[3]

    def test_full_artifact_identical_modulo_workers(self):
        serial = check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas.to_json()
        parallel = check("stache", CheckOptions(
            nodes=3, reorder=0, workers=2,
            artifacts=ArtifactOptions(atlas=True))).atlas.to_json()
        serial["workers"] = parallel["workers"]
        assert serial == parallel


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
            assert len(ann["orbit"]) == 16
            assert ann["inflight"] >= 0
            assert ann["queued"] >= 0
            assert "faults" not in ann            # zero budget elided
        roots = [a for a in atlas.states.values() if a["depth"] == 0]
        assert len(roots) == 1
        for record in atlas.edges:
            src, dst, tag, sender, receiver, kind, block, label = record
            assert src in atlas.states and dst in atlas.states
            assert kind in ("app", "deliver", "drop", "dup", "other")

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
        assert any(record[5] == "drop" for record in atlas.edges)
        assert "FAIL" in format_atlas(atlas)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something-else", "version": 1}')
        with pytest.raises(TraceError, match="not a state atlas"):
            load_atlas(str(path))

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


def synthetic_atlas(depths, edges, nodes=1, state_name="S",
                    orbits=None):
    """A hand-built atlas over single-letter state ids for pinning the
    structural analysis: ``depths`` maps id -> BFS depth, ``edges`` is
    (src, dst, label) triples."""
    states = {}
    for ident, depth in depths.items():
        states[ident] = {
            "depth": depth,
            "vector": [[state_name]] * nodes,
            "inflight": 0, "queued": 0,
            "orbit": (orbits or {}).get(ident, ident),
        }
    records = []
    for src, dst, label in edges:
        kind, tag, sender, receiver, _index, block = parse_label(label)
        records.append([src, dst, tag, sender, receiver, kind, block,
                        label])
    return StateAtlas(
        protocol="Synthetic", nodes=nodes, addresses=1, reorder=0,
        workers=1,
        result={"ok": True, "states": len(states),
                "transitions": len(records), "max_depth":
                max(depths.values(), default=0), "exhausted": True},
        truncation={"states_seen": len(states),
                    "states_kept": len(states),
                    "edges_seen": len(records),
                    "edges_kept": len(records), "sampled": False},
        orbit={"method": "identity", "free_nodes": [],
               "permutations": 1},
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


class TestOrbitEstimator:
    def test_two_nodes_identity(self):
        atlas = check("stache", CheckOptions(
            nodes=2, reorder=1,
            artifacts=ArtifactOptions(atlas=True))).atlas
        summary = orbit_summary(atlas)
        # With one home and one caching node there is nothing to
        # permute: every orbit is a singleton.
        assert summary["method"] == "identity"
        assert summary["ratio"] == 1.0
        assert summary["orbits"] == summary["states"] == 47

    def test_three_nodes_collapse(self):
        atlas = check("stache", CheckOptions(
            nodes=3, reorder=0,
            artifacts=ArtifactOptions(atlas=True))).atlas
        summary = orbit_summary(atlas)
        assert summary["method"] == "exact"
        assert summary["free_nodes"] == [1, 2]
        assert summary["permutations"] == 2
        # Nodes 1 and 2 are interchangeable, so a real collapse shows.
        assert summary["ratio"] > 1.4
        assert summary["largest_orbit"] == 2
        # Orbit keys are canonical fingerprints (min over the node
        # permutations); states sharing a key share an orbit, and the
        # counts reconcile.
        orbit_keys = [ann["orbit"] for ann in atlas.states.values()]
        assert all(len(key) == 16 for key in orbit_keys)
        assert len(set(orbit_keys)) == summary["orbits"]
        assert len(orbit_keys) == summary["states"] == 847

    def test_canonicalizer_homes_fixed(self):
        protocol = compile_named_protocol("stache")
        assert SymmetryCanonicalizer(protocol, 2, 1).method == "identity"
        canon = SymmetryCanonicalizer(protocol, 3, 1)
        assert canon.method == "exact"
        assert canon.free_nodes == [1, 2]
        assert len(canon.perms) == 1
        # All three nodes homed: nothing is free to permute.
        assert SymmetryCanonicalizer(protocol, 3, 3).method == "identity"

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
        assert canon.orbit_fingerprint(state, fingerprint(state)) \
            == fingerprint(state)


class TestBottomK:
    def test_keeps_smallest_keys(self):
        sketch = _BottomK(4)
        for key in (9, 3, 7, 1, 8, 5, 2, 6):
            sketch.offer(key, key * 10)
        assert sorted(sketch.entries) == [1, 2, 3, 5]
        assert sketch.entries[1] == 10
        assert sketch.seen == 8
        assert sketch.truncated

    def test_order_independent(self):
        keys = list(range(50))
        forward, backward = _BottomK(10), _BottomK(10)
        for key in keys:
            forward.offer(key, None)
        for key in reversed(keys):
            backward.offer(key, None)
        assert set(forward.entries) == set(backward.entries)

    def test_merge_equals_global(self):
        keys = [(i * 37) % 101 for i in range(101)]
        whole = _BottomK(12)
        left, right = _BottomK(12), _BottomK(12)
        for i, key in enumerate(keys):
            whole.offer(key, None)
            (left if i % 2 else right).offer(key, None)
        merged = _BottomK(12)
        merged.merge(left.seen, left.entries.items())
        merged.merge(right.seen, right.entries.items())
        assert set(merged.entries) == set(whole.entries)
        assert merged.seen == whole.seen

    def test_value_fn_lazy(self):
        sketch = _BottomK(1)
        calls = []
        sketch.offer(5, lambda: calls.append("kept"))
        sketch.offer(9, lambda: calls.append("rejected"))
        assert calls == ["kept"]


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
        assert not atlas.sampled
        assert ({edge[5] for edge in atlas.edges}
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

    def test_dot_collapse_orbits(self):
        atlas = self.build()
        collapsed = atlas_to_dot(atlas, collapse_orbits=True)
        n_orbits = len({ann["orbit"] for ann in atlas.states.values()})
        # One node line per orbit (each line ends with "];").
        assert collapsed.count("(x2)") > 0
        node_lines = [line for line in collapsed.splitlines()
                      if "label=" in line and "->" not in line]
        assert len(node_lines) == n_orbits

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
        assert "orbits:" in text
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
        assert "collapse ratio 1.97x" in text
        assert "POR" not in text

    def test_sampled_report_flags_truncation(self):
        atlas = make_serial("stache", nodes=3, atlas=AtlasRecorder(
            state_cap=50, edge_cap=100)).run().atlas
        text = format_atlas(atlas)
        assert "coverage: SAMPLED" in text
        assert "kept 50/847 states" in text

    def test_identity_config_notes_missing_symmetry(self):
        atlas = check("stache", CheckOptions(
            nodes=2, reorder=1,
            artifacts=ArtifactOptions(atlas=True))).atlas
        assert "fewer than two permutable" in format_atlas(atlas)


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
        assert "symmetry orbits (estimator):" in out

    def test_analyze_atlas_exports(self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--reorder", "1",
                     "--atlas-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "atlas", str(path), "--dot",
                     "--max-depth", "3"]) == 0
        assert capsys.readouterr().out.startswith('digraph "Stache')
        assert main(["analyze", "atlas", str(path), "--graphml",
                     "--collapse-orbits"]) == 0
        assert "<graphml" in capsys.readouterr().out

    def test_atlas_on_failing_run(self, tmp_path, capsys):
        path = tmp_path / "atlas.json"
        assert main(["verify", "stache", "--faults", "drop=1",
                     "--atlas-out", str(path)]) == 1
        capsys.readouterr()
        assert main(["analyze", "atlas", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "deadlock states (out-degree 0):" in out

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
        ("state-atlas", "orbits:"),
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
