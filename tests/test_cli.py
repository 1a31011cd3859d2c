"""Tests for the ``teapot`` command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.protocols import PROTOCOLS, load_protocol_source

from helpers import MINI_SOURCE


@pytest.fixture
def mini_file(tmp_path):
    path = tmp_path / "mini.tea"
    path.write_text(MINI_SOURCE)
    return str(path)


class TestCheck:
    def test_valid_file(self, mini_file, capsys):
        assert main(["check", mini_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tea"
        path.write_text("Protocol P Begin Message ; End;")
        assert main(["check", str(path)]) == 1
        assert "expected" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.tea"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_registered_name(self, name, capsys):
        # A name is its packaged source, as compile, verify and run
        # resolve it.
        assert main(["check", name]) == 0
        assert capsys.readouterr().out == f"{name}: OK\n"


class TestCompile:
    def test_compile_c_to_stdout(self, capsys):
        assert main(["compile", "stache", "--target", "c"]) == 0
        out = capsys.readouterr().out
        assert "#include" in out

    def test_compile_murphi_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "stache.m"
        assert main(["compile", "stache", "--target", "murphi",
                     "-o", str(out_path)]) == 0
        assert "Startstate" in out_path.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_compile_python(self, capsys):
        assert main(["compile", "stache", "--target", "python"]) == 0
        assert "HANDLERS" in capsys.readouterr().out

    def test_compile_tea_file(self, mini_file, capsys):
        assert main(["compile", mini_file, "--target", "c"]) == 0
        assert "STATE_Home_Idle" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,level", [
        (["-O0"], "O0"), (["-O1"], "O1"), (["-O2"], "O2"),
        (["-O", "1"], "O1"), ([], "O2"),
    ], ids=["-O0", "-O1", "-O2", "-O 1", "default"])
    def test_opt_level_flag(self, capsys, flags, level):
        assert main(["info", "stache", *flags]) == 0
        assert f"opt={level}" in capsys.readouterr().out


class TestVerify:
    def test_verify_registered_protocol(self, capsys):
        assert main(["verify", "stache", "--reorder", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_buffered_drops_coherence_invariant(self, capsys):
        assert main(["verify", "buffered_write"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_reports_violation(self, tmp_path, capsys):
        # Break both wakeups so every node can end up blocked: deadlock.
        source = MINI_SOURCE.replace(
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
    WakeUp(id);
  End;""",
            """  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
  End;""", 1)
        source = source.replace(
            """      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
    WakeUp(id);
  End;

  Message WR_FAULT""",
            """      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
  End;

  Message WR_FAULT""", 1)
        path = tmp_path / "buggy.tea"
        path.write_text(source)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "trace:" in out

    def test_symmetry_fallback_is_one_note_line(self, capsys):
        """lcm_mcc fails symmetry certification: the run says so in one
        note line (no warning's source path or category) and checks the
        model unreduced."""
        assert main(["verify", "lcm_mcc", "--nodes", "3",
                     "--symmetry"]) == 0
        out, err = capsys.readouterr()
        assert "states=23911 " in out
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(
            "note: symmetry certification failed: GET_LCM_COPY_REQ on "
            "node 0 ")
        assert lines[0].endswith("; re-running without symmetry reduction")
        assert "RuntimeWarning" not in err and ".py:" not in err


class TestBadTopology:
    """A node, address or reorder count outside the model's domain, or
    a budget that allows no run, is one ``error:`` line and exit status
    1 -- not a traceback, and not a PASS over a model in which nothing
    can be delivered or a run that stopped before it began."""

    # Where the refusal names the option's API field, not the flag.
    FIELDS = {"--max-states": "max_states", "--deadline": "deadline_seconds",
              "--max-rss-mb": "max_rss_mb"}

    @pytest.mark.parametrize("argv", [
        ["verify", "stache", "--nodes", "0"],
        ["verify", "stache", "--addresses", "0"],
        ["verify", "stache", "--reorder", "-1"],
        ["run", "stache", "gauss", "--nodes", "0"],
        ["run", "stache", "gauss", "--jitter", "-5"],
        ["verify", "stache", "--deadline", "-1"],
        ["verify", "stache", "--max-rss-mb", "-5"],
        ["verify", "stache", "--max-states", "0"],
        ["verify", "stache", "--deadline", "nan"],
        ["verify", "stache", "--max-rss-mb", "nan"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}"
       + ("-nan" if argv[-1] == "nan" else ""))
    def test_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        field = self.FIELDS.get(argv[-2], argv[-2][2:])
        # A count's floor is ">= N", a budget's "> 0".
        assert f"{field} must be >" in err


class TestGraphResumes:
    """A liveness or atlas run's checkpoints carry the explored graph: a
    run stopped at two --max-states cuts with --checkpoint-out and
    resumed to the end prints what the uninterrupted run prints (the
    verdict line bar time=, the witness trace) and writes its atlas."""

    @staticmethod
    def verify(capsys, argv):
        status = main(["verify", *argv])
        out, _err = capsys.readouterr()
        return status, re.sub(r" time=\S+", "", out)

    def resumed(self, tmp_path, capsys, argv, cuts):
        """``argv`` stopped at each of ``cuts`` and resumed to the end."""
        path = str(tmp_path / "ck.json")
        resume = []
        for cut in cuts:
            status, out = self.verify(capsys, [
                *argv, "--max-states", str(cut), "--checkpoint-out", path,
                *resume])
            assert status == 0 and "(state limit reached)" in out
            if "--liveness" in argv:
                assert ("the starvation check (--liveness) runs when the "
                        "resumed run completes") in out
            resume = ["--resume", path]
        return self.verify(capsys, [*argv, *resume])

    @pytest.mark.parametrize("argv,cuts,line", [
        ("lcm_mcc --nodes 3 --liveness", (5000, 15000),
         "FAIL  states=23911 "),
        ("lcm --nodes 3 --reorder 1 --liveness", (30000, 60000),
         "PASS  states=112723 transitions=582132 depth=41 "),
        ("lcm --nodes 3 --reorder 1 --liveness --symmetry", (20000, 40000),
         "PASS  states=56584 "),
    ], ids=["lcm_mcc", "lcm", "lcm-symmetry"])
    def test_liveness_resumes_to_the_uninterrupted_verdict(
            self, tmp_path, capsys, argv, cuts, line):
        whole = self.verify(capsys, argv.split())
        assert line in whole[1]
        assert self.resumed(tmp_path, capsys, argv.split(), cuts) == whole
        if "FAIL" in line:
            assert "STARVATION: node 1 is blocked" in whole[1]

    @staticmethod
    def seal_and_report(capsys, path):
        """An atlas file's seal (``elapsed`` is unsealed) and report."""
        from repro.verify.checkpoint import load_checkpoint

        assert main(["analyze", "atlas", path]) == 0
        return load_checkpoint(path)["seal"], capsys.readouterr().out

    def test_atlas_resumes_to_the_uninterrupted_seal(self, tmp_path,
                                                     capsys):
        argv = "stache --nodes 3 --reorder 1 --atlas-out".split()
        whole = self.verify(capsys, [*argv, str(tmp_path / "whole.json")])
        assert self.resumed(tmp_path, capsys, [
            *argv, str(tmp_path / "resumed.json")], (500, 1200)) == whole
        assert (self.seal_and_report(capsys, str(tmp_path / "whole.json"))
                == self.seal_and_report(capsys,
                                        str(tmp_path / "resumed.json")))

    @pytest.mark.parametrize("modes", [[], ["--symmetry", "--liveness"]],
                             ids=["plain", "symmetry-liveness"])
    def test_an_atlas_file_resumes(self, tmp_path, capsys, modes):
        """The atlas file is the run's final cut: a bounded run's
        resumes straight to the uninterrupted run's counts and seal,
        each frontier vector stored once."""
        argv = ["stache", "--nodes", "3", "--reorder", "1", *modes]
        paths = [str(tmp_path / name) for name in ("w.json", "r.json",
                                                   "r2.json")]
        whole = self.verify(capsys, [*argv, "--atlas-out", paths[0]])
        bounded = self.verify(capsys, [*argv, "--max-states", "800",
                                       "--atlas-out", paths[1]])
        assert "(state limit reached)" in bounded[1]
        assert self.verify(capsys, [*argv, "--resume", paths[1],
                                    "--atlas-out", paths[2]]) == whole
        assert (self.seal_and_report(capsys, paths[0])
                == self.seal_and_report(capsys, paths[2]))

    def test_a_failing_atlas_file_does_not_resume(self, tmp_path, capsys):
        """A failing run's file is no clean cut: the state it stopped in
        may be half expanded, so nothing resumes from it."""
        path = str(tmp_path / "a.json")
        assert main(["verify", "stache", "--faults", "drop=1",
                     "--atlas-out", path]) == 1
        capsys.readouterr()
        assert main(["verify", "stache", "--faults", "drop=1",
                     "--resume", path]) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: {path}: the run that wrote it stopped at a "
                       "violation; there is nothing to resume\n")
        assert "states=" not in out

    def test_a_resumed_cut_is_the_uninterrupted_one(self, tmp_path, capsys):
        """Every graph array armed (liveness under symmetry, the atlas):
        a cut reached through a resume is written as the uninterrupted
        run writes it, bar the wall clock."""
        from repro.verify.checkpoint import load_checkpoint

        argv = ["lcm", "--nodes", "3", "--liveness", "--symmetry",
                "--atlas-out", str(tmp_path / "a.json")]
        whole, legs = (str(tmp_path / name) for name in ("w.json", "l.json"))
        for tail in (["--max-states", "2500", "--checkpoint-out", whole],
                     ["--max-states", "1000", "--checkpoint-out", legs],
                     ["--max-states", "2500", "--checkpoint-out", legs,
                      "--resume", legs]):
            assert "(state limit reached)" in self.verify(
                capsys, [*argv, *tail])[1]
        payloads = [load_checkpoint(path) for path in (whole, legs)]
        for payload in payloads:
            del payload["elapsed"]
        assert payloads[0] == payloads[1]
        assert {"renaming", "canonical", "vector", "vectors"} <= set(
            payloads[0])


class TestRefusedModes:
    @pytest.mark.parametrize("flags,mode", [
        (["--workers", "2"], "workers"),
    ], ids=["workers"])
    def test_liveness_with_a_keyed_mode_is_one_error_line(
            self, tmp_path, monkeypatch, capsys, flags, mode):
        """Checkpoints carry the graph (TestGraphResumes); worker
        processes do not record it."""
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "stache", "--liveness", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "liveness" in err and mode in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,mode", [
        (["--workers", "2"], "workers"),
    ], ids=["workers"])
    def test_atlas_with_a_keyed_mode_is_one_error_line(
            self, tmp_path, monkeypatch, capsys, flags, mode):
        """The atlas reads the graph liveness reads, which one process
        records: the master of a worker run holds keys, not states."""
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "stache", "--nodes", "3",
                     "--atlas-out", "a.json", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "atlas" in err and mode in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,removed", [
        ("verify lcm --workers 2 --por", "--por"),
        ("verify lcm --workers 2 --on-worker-loss degrade",
         "--on-worker-loss degrade"),
        ("verify lcm --workers 2 --worker-stall-timeout 5",
         "--worker-stall-timeout 5"),
        # analyze coverage reads files; the checker is `verify`'s.
        ("analyze coverage --verify stache", "--verify"),
        ("analyze coverage --trace t.jsonl", "--trace"),
        # Snapshots pace themselves; the memory budget is --max-rss-mb.
        ("verify lcm --checkpoint-every-waves 4",
         "--checkpoint-every-waves 4"),
        ("verify lcm --checkpoint-every-seconds 5",
         "--checkpoint-every-seconds 5"),
        ("verify lcm --max-visited-bytes 4096", "--max-visited-bytes 4096"),
        # Progress lines print the run's timeline, about one a second.
        ("verify lcm --progress --progress-every 20", "--progress-every 20"),
        # The watchdog is a switch; its timing is constant.
        ("run stache gauss --timeout 1", "--timeout 1"),
        ("run stache gauss --backoff 1", "--backoff 1"),
        ("run stache gauss --retries 1", "--retries 1"),
        ("run stache gauss --max-faults 1", "--max-faults 1"),
        # The collapse is what `verify --symmetry` measures.
        ("analyze atlas a.json --collapse-orbits", "--collapse-orbits"),
    ], ids=["--por", "--on-worker-loss degrade", "--worker-stall-timeout 5",
            "coverage --verify", "coverage --trace",
            "--checkpoint-every-waves", "--checkpoint-every-seconds",
            "--max-visited-bytes", "--progress-every", "--timeout",
            "--backoff", "--retries", "--max-faults", "--collapse-orbits"])
    def test_removed_flag_is_a_usage_error(self, capsys, argv, removed):
        with pytest.raises(SystemExit) as caught:
            main(argv.split())
        assert caught.value.code == 2
        assert (f"unrecognized arguments: {removed}"
                in capsys.readouterr().err)

    def test_atlas_exports_are_exclusive(self, capsys):
        """One export per run: --dot with --graphml is a usage error,
        not DOT with --graphml ignored."""
        with pytest.raises(SystemExit) as caught:
            main(["analyze", "atlas", "a.json", "--dot", "--graphml"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert ("argument --graphml: not allowed with argument --dot"
                in err)

    @pytest.mark.parametrize("analysis", ["atlas", "check-profile"])
    @pytest.mark.parametrize("top", ["0", "-2", "x"])
    def test_top_below_one_is_a_usage_error(self, capsys, analysis, top):
        """``--top N`` counts report rows: fewer than one is refused
        before the artifact is read."""
        with pytest.raises(SystemExit) as caught:
            main(["analyze", analysis, "a.json", "--top", top])
        assert caught.value.code == 2
        assert (f"argument --top: expected an integer >= 1, got '{top}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        "critical-path t.jsonl --per-fault -1",
        "critical-path t.jsonl --per-fault x",
        "atlas a.json --dot --max-depth -1",
        "atlas a.json --graphml --max-depth 1.5",
    ])
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        """``--per-fault`` and ``--max-depth`` count faults and BFS
        layers: a negative count is refused before the file is read."""
        with pytest.raises(SystemExit) as caught:
            main(["analyze", *argv.split()])
        assert caught.value.code == 2
        flag, value = argv.split()[-2:]
        assert (f"argument {flag}: expected an integer >= 0, got '{value}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [
        ["--max-depth", "3"], ["--protocol-state", "Home_Excl"]])
    def test_atlas_filter_without_export_is_a_usage_error(self, capsys,
                                                          flags):
        """The filters narrow an export; without --dot or --graphml they
        are refused, not ignored while the full report prints."""
        with pytest.raises(SystemExit) as caught:
            main(["analyze", "atlas", "a.json", *flags])
        assert caught.value.code == 2
        assert "add --dot or --graphml" in capsys.readouterr().err

    def test_atlas_unknown_protocol_state_is_one_error_line(self, tmp_path,
                                                            capsys):
        path = tmp_path / "a.json"
        assert main(["verify", "stache", "--atlas-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "atlas", str(path), "--dot",
                     "--protocol-state", "NoSuchState"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no protocol state 'NoSuchState'" in err
        assert main(["analyze", "atlas", str(path), "--dot",
                     "--protocol-state", "Home_Excl"]) == 0
        assert "Home_Excl" in capsys.readouterr().out


class TestGraphAndList:
    def test_graph_text(self, capsys):
        assert main(["graph", "stache", "--side", "Home_"]) == 0
        out = capsys.readouterr().out
        assert "Home_Idle" in out

    def test_graph_contracted(self, capsys):
        assert main(["graph", "stache_sm", "--side", "Home_",
                     "--contract"]) == 0
        out = capsys.readouterr().out
        assert "3 states" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "stache", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("stache", "lcm", "buffered_write"):
            assert name in out

    def test_info(self, capsys):
        assert main(["info", "lcm"]) == 0
        out = capsys.readouterr().out
        assert "suspend sites" in out


class TestFmt:
    def test_fmt_outputs_canonical_form(self, mini_file, capsys):
        assert main(["fmt", mini_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Protocol Mini")
        # Canonical output re-parses and re-formats identically.
        from repro.lang.parser import parse_program
        from repro.lang.pretty import format_program
        assert format_program(parse_program(out)) == out

    def test_fmt_in_place(self, mini_file, capsys):
        assert main(["fmt", mini_file, "-i"]) == 0
        with open(mini_file) as handle:
            text = handle.read()
        assert text.startswith("Protocol Mini")
        assert "formatted" in capsys.readouterr().out

    def test_fmt_rejects_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.tea"
        path.write_text("Protocol ;")
        assert main(["fmt", str(path)]) == 1

    def test_fmt_registered_name(self, capsys):
        from repro.lang.parser import parse_program
        from repro.lang.pretty import format_program

        assert main(["fmt", "stache"]) == 0
        assert capsys.readouterr().out == format_program(
            parse_program(load_protocol_source("stache")))

    def test_fmt_in_place_refuses_a_registered_name(self, capsys):
        source = load_protocol_source("stache")
        assert main(["fmt", "stache", "--in-place"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stache: ")
        assert "in place" in captured.err
        assert captured.err.count("\n") == 1
        assert load_protocol_source("stache") == source


class TestVerifyParallelFlags:
    def test_workers_flag(self, capsys):
        assert main(["verify", "stache", "--reorder", "1",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "workers=2" in out

    def test_fingerprints_flag(self, capsys):
        assert main(["verify", "stache", "--reorder", "1",
                     "--fingerprints"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_truncation_note(self, capsys):
        assert main(["verify", "lcm", "--reorder", "1",
                     "--max-states", "50"]) == 0
        out = capsys.readouterr().out
        assert "exploration truncated" in out
        assert "--max-states" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "check.json")
        # Uninterrupted baseline at one worker.
        assert main(["verify", "lcm_mcc", "--reorder", "1",
                     "--workers", "1"]) == 0
        baseline = capsys.readouterr().out
        # Truncate, checkpoint, resume at a different worker count.
        assert main(["verify", "lcm_mcc", "--reorder", "1", "--workers", "2",
                     "--max-states", "100", "--checkpoint-out", path]) == 0
        truncated = capsys.readouterr().out
        assert "exploration truncated" in truncated
        assert "--resume" in truncated
        assert main(["verify", "lcm_mcc", "--reorder", "1", "--workers", "2",
                     "--resume", path]) == 0
        resumed = capsys.readouterr().out
        assert "PASS" in resumed
        # The resumed run reports the same final state count.
        import re
        count = lambda text: re.search(r"states=(\d+)", text).group(1)
        assert count(resumed) == count(baseline)


class TestRunSeedFlags:
    def test_seed_is_reproducible(self, capsys):
        args = ["run", "stache", "gauss", "--nodes", "4",
                "--seed", "9", "--jitter", "40"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "seed=9" in first
        assert "jitter=40" in first
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestUnreadableSource:
    """Every subcommand that reads a .tea file goes through one reader:
    a path that cannot be read or decoded is one ``error:`` line and
    exit status 1, never a traceback."""

    SUBCOMMANDS = ["check", "compile", "fmt", "info", "verify"]

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_directory(self, subcommand, tmp_path, capsys):
        assert main([subcommand, str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_not_utf8(self, subcommand, tmp_path, capsys):
        path = tmp_path / "latin1.tea"
        path.write_bytes(MINI_SOURCE.encode() + b"-- caf\xe9\n")
        assert main([subcommand, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text (")
        assert err.count("\n") == 1


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# Every command that reads a persisted artifact: argv around the path
# under test, and a payload of the right kind but a version from the
# future (None: the kind carries no version).
ARTIFACT_READERS = {
    "check-profile": (lambda p, good: ["analyze", "check-profile", p],
                      {"kind": "teapot-check-profile", "version": 99}),
    "atlas": (lambda p, good: ["analyze", "atlas", p],
              {"kind": "teapot-parallel-checkpoint", "v": 99}),
    "diff-a": (lambda p, good: ["analyze", "diff", p, good],
               {"kind": "teapot-coverage", "version": 99}),
    "diff-b": (lambda p, good: ["analyze", "diff", good, p],
               {"kind": "teapot-coverage", "version": 99}),
    "causal": (lambda p, good: ["analyze", "causal", p],
               {"ev": "send", "v": 99}),
    "critical-path": (lambda p, good: ["analyze", "critical-path", p],
                      {"ev": "send", "v": 99}),
    "coverage": (lambda p, good: ["analyze", "coverage", p],
                 {"kind": "teapot-coverage", "version": 99}),
    "coverage-trace": (lambda p, good: ["analyze", "coverage", p,
                                        "--protocol", "stache"],
                       {"ev": "send", "v": 99}),
    "report": (lambda p, good: ["report", p], None),
    "fault-plan": (lambda p, good: ["run", "stache", "gauss", "--nodes", "2",
                                    "--fault-plan", p],
                   {"kind": "teapot-fault-plan", "v": 99}),
    "resume": (lambda p, good: ["verify", "stache", "--resume", p],
               {"kind": "teapot-parallel-checkpoint", "v": 99}),
}

BAD_ARTIFACTS = {
    "missing": None,
    "directory": None,
    "not-utf8": b'{"kind": "caf\xe9"}\n',
    "empty": b"",
    "invalid-json": b"{nope\n",
    "json-array": b"[1, 2]\n",
    # No reader's kind, no trace event, no metrics row.
    "wrong-kind": b'{"kind": "teapot-stranger", "version": 1, "v": 1, '
                  b'"handlers": [1]}\n',
}


class TestUnreadableArtifact:
    """Every command that reads an artifact goes through one reader:
    whatever is wrong with the file is one ``error: <path>...`` line
    and exit status 1, never a traceback."""

    @pytest.mark.parametrize("damage", [*BAD_ARTIFACTS, "wrong-version"])
    @pytest.mark.parametrize("reader", ARTIFACT_READERS)
    def test_one_error_line(self, reader, damage, tmp_path, capsys):
        argv, future = ARTIFACT_READERS[reader]
        path = tmp_path / "artifact"
        if damage == "wrong-version":
            if future is None:
                pytest.skip("the kind carries no version")
            path.write_text(json.dumps(future))
        elif damage == "directory":
            path.mkdir()
        elif damage != "missing":
            path.write_bytes(BAD_ARTIFACTS[damage])
        good = os.path.join(GOLDEN, "coverage_v1_parent.json")
        assert main(argv(str(path), good)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        if damage == "wrong-version":
            assert "version" in err


class TestArtifactEnvelope:
    """What the writers put on disk: the bytes of each kind, that they
    load back, and that a failed write costs nothing."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        """kind -> (object with to_json/save, loader, json.dumps keywords)"""
        from repro import api
        from repro.faults import FaultPlan, FaultRule
        from repro.obs.analyze import coverage_from_checker, load_coverage
        from repro.obs.metrics import MetricsRegistry, load_metrics
        from repro.obs.profile import load_profile

        protocol = api.compile_protocol("lcm_mcc")
        result = api.check(protocol, api.CheckOptions(
            faults=api.FaultBudget(drop=1), workers=2,
            artifacts=api.ArtifactOptions(profile=True)))
        registry = MetricsRegistry("lcm_mcc")
        registry.record_dispatch("Home", "GET", 12)
        plan = FaultPlan(rules=(FaultRule(action="drop", tag="A"),), seed=3)
        return {
            "profile": (result.profile, load_profile, {"indent": 2}),
            "coverage": (coverage_from_checker(protocol, result),
                         load_coverage, {"indent": 2, "sort_keys": True}),
            "plan": (plan, FaultPlan.load, {"indent": 2, "sort_keys": True}),
            "metrics": (registry, load_metrics, {"indent": 2}),
        }

    @pytest.mark.parametrize(
        "kind", ["profile", "coverage", "plan", "metrics"])
    def test_save_bytes_and_round_trip(self, artifacts, kind, tmp_path):
        artifact, load, keywords = artifacts[kind]
        path = tmp_path / f"{kind}.json"
        artifact.save(str(path))
        payload = artifact.to_json()
        assert path.read_text() == json.dumps(payload, **keywords) + "\n"
        assert os.listdir(tmp_path) == [path.name]      # no .tmp left
        loaded = load(str(path))
        if kind == "metrics":       # no kind, no class: the dict itself
            assert loaded == payload
            return
        assert loaded.to_json() == payload
        assert list(payload)[0] == "kind"
        assert list(payload)[1] == ("v" if kind == "plan" else "version")
        if "sort_keys" not in keywords:
            assert path.read_text().lstrip("{ \n").startswith('"kind"')

    def test_checkpoint_round_trip(self, tmp_path, capsys):
        from repro.verify.checkpoint import load_checkpoint, write_checkpoint

        written = str(tmp_path / "written.json")
        assert main(["verify", "lcm", "--reorder", "1", "--max-states",
                     "100", "--checkpoint-out", written]) == 0
        capsys.readouterr()
        with open(written) as f:
            parent = json.load(f)
        (tmp_path / "out").mkdir()
        path = str(tmp_path / "out" / "ck.json")
        write_checkpoint(path, {k: v for k, v in parent.items()
                                if k != "seal"})
        assert load_checkpoint(path) == parent      # same seal, too
        assert os.listdir(tmp_path / "out") == ["ck.json"]

    def test_files_written_by_the_parent_commit_still_load(self):
        from repro.faults import FaultPlan
        from repro.obs.analyze import load_coverage

        plan = FaultPlan.load(os.path.join(GOLDEN,
                                           "fault_plan_v1_parent.json"))
        assert [rule.tag for rule in plan.rules] == ["GET_RO_RESP"]
        report = load_coverage(os.path.join(GOLDEN,
                                            "coverage_v1_parent.json"))
        assert report.protocol == "Stache" and report.covered == 24
        assert report.config["states"] == 47

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_checkpoint_is_refused_in_one_line(self, capsys,
                                                       version):
        """v1's keys are another fingerprint's, v2 holds fields no
        resume reads and v3 a JSON row per state: exit 1, both versions
        named, no traceback."""
        path = os.path.join(GOLDEN, f"checkpoint_v{version}_parent.json")
        assert main(["verify", "lcm", "--reorder", "1",
                     "--resume", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: checkpoint version {version}, expected 4 -- "
            "regenerate with `verify --checkpoint-out`\n")
        assert "states=" not in captured.out

    @pytest.mark.parametrize("failure", ["serialize", "write"])
    def test_failed_write_keeps_the_old_file(self, failure, tmp_path,
                                             monkeypatch):
        from repro import ioutil
        from repro.obs.analyze import CoverageReport

        path = tmp_path / "cov.json"
        CoverageReport(protocol="P", source="checker").save(str(path))
        before = path.read_bytes()
        report = CoverageReport(protocol="Q", source="checker")
        if failure == "serialize":
            report.config["unserializable"] = {1, 2}
            expected = TypeError
        else:
            def full_disk(_fd):
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(ioutil.os, "fsync", full_disk)
            expected = OSError
        with pytest.raises(expected):
            report.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cov.json"]


class TestOutputLocations:
    """A destination that cannot be written is refused before the run
    that would fill it, not after."""

    VERIFY_FLAGS = ["--checkpoint-out", "--profile-out", "--atlas-out",
                    "--coverage-out", "--trace-out", "--fault-plan-out"]

    @pytest.mark.parametrize("argv", [
        *(["verify", "lcm", "--reorder", "1", "--max-states", "200", flag]
          for flag in VERIFY_FLAGS),
        ["run", "stache", "gauss", "--nodes", "2", "--metrics"],
        ["run", "stache", "gauss", "--nodes", "2", "--trace"],
        ["analyze", "coverage",
         os.path.join(GOLDEN, "coverage_v1_parent.json"), "-o"],
        ["compile", "stache", "-o"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
    def test_missing_directory(self, argv, tmp_path, capsys):
        path = tmp_path / "nowhere" / "out.json"
        assert main([*argv, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""            # nothing was explored or simulated
        assert err == f"error: {path}: No such file or directory\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes anywhere")
    def test_unwritable_directory(self, tmp_path, capsys):
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o555)
        path = locked / "p.json"
        assert main(["verify", "stache", "--profile-out", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: Permission denied\n")

    @pytest.mark.parametrize("first,second", [
        ("--checkpoint-out", "--atlas-out"),
        ("--profile-out", "--coverage-out"),
        ("--trace-out", "--fault-plan-out"),
    ])
    def test_two_outputs_naming_one_file(self, tmp_path, monkeypatch,
                                         capsys, first, second):
        """One file for two outputs is refused before exploring, by its
        real path; resuming from the file a run writes is not."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["verify", "stache", "--nodes", "2", first, "f.json",
                     second, "d/../f.json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and list(tmp_path.iterdir()) == [tmp_path / "d"]
        assert err == (f"error: {first} and {second} name one file: "
                       "d/../f.json\n")
        assert main(["verify", "stache", "--max-states", "20",
                     "--checkpoint-out", "f.json"]) == 0
        assert main(["verify", "stache", "--resume", "f.json",
                     "--checkpoint-out", "f.json"]) == 0

    def test_a_directory_is_no_destination(self, tmp_path, capsys):
        assert main(["verify", "stache", "--atlas-out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}: Is a directory\n")

    def test_api_callers_get_a_value_error(self, tmp_path):
        from repro import api

        path = str(tmp_path / "nowhere" / "ck.json")
        with pytest.raises(ValueError, match="nowhere/ck.json: No such"):
            api.check("stache", api.CheckOptions(
                checkpoint=api.CheckpointOptions(out=path)))
        with pytest.raises(ValueError, match="nowhere/ck.json: No such"):
            api.simulate("stache", workload="gauss", options=api.SimOptions(
                nodes=2, metrics=path))

    def test_fmt_in_place_replaces_the_file_atomically(self, mini_file,
                                                       capsys):
        assert main(["fmt", mini_file]) == 0
        formatted = capsys.readouterr().out
        assert main(["fmt", mini_file, "-i"]) == 0
        with open(mini_file) as handle:
            assert handle.read() == formatted
        assert os.listdir(os.path.dirname(mini_file)) == ["mini.tea"]


SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _start_teapot(*argv, **popen):
    """A real ``python -m repro.cli`` process: it leaves through
    ``entry()``, which skips interpreter finalisation."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen)


def _teapot(*argv, **popen):
    """Run one to its end.  Returns the process (for its pid and
    status), its stdout and its stderr."""
    process = _start_teapot(*argv, **popen)
    out, err = process.communicate(timeout=120)
    return process, out, err


def _session_is_empty(leader, within=0.0):
    """Whether the session ``leader`` (a reaped process started with
    ``start_new_session``) led has no process left -- its pid is the
    group id, and an empty group is gone -- polling up to ``within``
    seconds.  Whatever is left is killed, so a failure leaks nothing."""
    deadline = time.monotonic() + within
    while True:
        try:
            os.killpg(leader.pid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            os.killpg(leader.pid, signal.SIGKILL)
            return False
        time.sleep(0.05)


class TestExitWithoutFinalisation:
    """``entry()`` ends the process with ``os._exit``.  Nothing may have
    been left to interpreter shutdown: every artifact complete on disk,
    every line of output delivered, no worker process outliving us."""

    def test_every_verify_artifact_is_complete(self, tmp_path):
        done, _out, err = _teapot(
            "verify", "stache", "--coverage-out", "c.json", "--profile-out",
            "p.json", "--atlas-out", "a.json", cwd=tmp_path)
        assert done.returncode == 0, err
        assert json.loads((tmp_path / "c.json").read_text())["fired"]
        assert json.loads((tmp_path / "p.json").read_text())["phases"]
        assert json.loads((tmp_path / "a.json").read_text())["atlas"]
        # The last stderr line is there too.
        assert "wrote state atlas to a.json" in err

        failed, out, _err = _teapot(
            "verify", "stache", "--faults", "drop=1", "--trace-out",
            "t.jsonl", "--fault-plan-out", "w.json", cwd=tmp_path)
        assert failed.returncode == 1
        events = [json.loads(line) for line in
                  (tmp_path / "t.jsonl").read_text().splitlines()]
        assert events[-1]["ev"] == "violation"
        assert json.loads((tmp_path / "w.json").read_text())["rules"]
        assert "DEADLOCK" in out

        cut, _out, err = _teapot("verify", "lcm", "--max-states", "100",
                                 "--checkpoint-out", "ck.json", cwd=tmp_path)
        assert cut.returncode == 0, err
        assert json.loads((tmp_path / "ck.json").read_text())["seal"]
        resumed, out, err = _teapot("verify", "lcm", "--resume", "ck.json",
                                    cwd=tmp_path)
        assert resumed.returncode == 0, err
        assert "PASS  states=" in out

    def test_run_artifacts_are_complete(self, tmp_path):
        done, _out, err = _teapot(
            "run", "stache", "gauss", "--nodes", "4", "--trace", "t.jsonl",
            "--metrics", "m.json", cwd=tmp_path)
        assert done.returncode == 0, err
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) > 100
        assert all(json.loads(line)["ev"] for line in lines)
        assert json.loads((tmp_path / "m.json").read_text())["handlers"]
        assert main(["analyze", "causal", str(tmp_path / "t.jsonl")]) == 0

    def test_piped_stdout_receives_every_line(self, capsys):
        assert main(["compile", "lcm", "--target", "c"]) == 0
        expected = capsys.readouterr().out
        assert len(expected) > 65536         # more than one pipe buffer
        piped, out, _err = _teapot("compile", "lcm", "--target", "c")
        assert piped.returncode == 0
        assert out == expected

    def test_status_and_stderr_survive(self, tmp_path):
        failed, out, err = _teapot("check", str(tmp_path / "missing.tea"))
        assert failed.returncode == 1
        assert out == ""
        assert err == (
            f"error: {tmp_path / 'missing.tea'}: No such file or directory\n")
        usage, _out, err = _teapot("verify")  # argparse exits the usual way
        assert usage.returncode == 2 and "usage:" in err

    def test_workers_leave_no_process_behind(self):
        # In its own session, so the group is exactly its descendants.
        done, out, err = _teapot("verify", "lcm_mcc", "--reorder", "1",
                                 "--workers", "2", start_new_session=True)
        assert done.returncode == 0, err
        assert "workers=2" in out
        assert _session_is_empty(done)

    @pytest.mark.parametrize("flags", [
        [], ["--checkpoint-out", "ck.json"],
        ["--workers", "2", "--checkpoint-out", "ck.json"],
    ], ids=["serial", "serial-checkpoint", "workers2-checkpoint"])
    def test_sigint_stops_at_a_clean_cut(self, tmp_path, flags):
        from repro.verify import load_checkpoint
        from repro.verify.checkpoint import decode_checkpoint

        run = _start_teapot(
            "verify", "lcm", "--nodes", "3", *flags, "--progress",
            cwd=tmp_path, start_new_session=True)
        first = run.stderr.readline()       # the checker is exploring
        os.killpg(run.pid, signal.SIGINT)   # Ctrl-C reaches the whole group
        out, err = run.communicate(timeout=120)
        assert first.startswith("[verify LCM] states=")
        assert run.returncode == 130, err
        assert "PASS (stopped: interrupted)" in out
        notes = [line for line in err.splitlines()
                 if line.startswith("note: ")]
        assert len(notes) == 1
        assert notes[0].startswith(
            "note: stopped early: interrupted (SIGINT) at the next clean "
            "cut")
        assert "Traceback" not in err
        assert _session_is_empty(run)
        if "--checkpoint-out" not in flags:
            assert list(tmp_path.iterdir()) == []
            return
        path = str(tmp_path / "ck.json")
        cut = decode_checkpoint(load_checkpoint(path), {}, path)
        assert 0 < cut.expanded < len(cut.index) < 7658
        resumed, out, err = _teapot("verify", "lcm", "--nodes", "3",
                                    "--resume", "ck.json", cwd=tmp_path)
        assert resumed.returncode == 0, err
        assert "PASS  states=7658 transitions=29216 depth=21" in out

    def test_a_killed_checkpointed_run_leaves_a_checkpoint(self, tmp_path):
        """``--checkpoint-out`` snapshots a run as it goes -- the first
        clean cut at once, later ones paced by their own cost -- so a run
        SIGKILLed mid-exploration leaves a checkpoint that resumes to the
        full verdict."""
        path = tmp_path / "ck.json"
        run = _start_teapot("verify", "lcm", "--nodes", "3",
                            "--checkpoint-out", "ck.json", cwd=tmp_path)
        deadline = time.monotonic() + 60
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        run.kill()
        run.communicate(timeout=30)
        assert run.returncode == -signal.SIGKILL
        resumed, out, err = _teapot("verify", "lcm", "--nodes", "3",
                                    "--resume", "ck.json", cwd=tmp_path)
        assert resumed.returncode == 0, err
        assert "PASS  states=7658 transitions=29216 depth=21" in out

    def test_rss_budget_stops_the_run_near_its_cap(self, tmp_path):
        """``--max-rss-mb`` bounds the peak resident set the kernel
        reports for the process, to within what one BFS layer allocates
        (checkpoint writes come on top: docs/ROBUSTNESS.md)."""
        # A launcher of its own, because a child's ru_maxrss starts at
        # the peak of the process it was spawned from, and this one's
        # is far above any cap here.  Its child's peak comes from
        # os.wait4: RUSAGE_CHILDREN is the maximum over every child.
        launcher = (
            "import os, subprocess, sys; run = subprocess.Popen("
            "sys.argv[1:]); _pid, status, usage = os.wait4(run.pid, 0); "
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")

        def peak(*argv):
            done = subprocess.run(
                [sys.executable, "-c", launcher, sys.executable, "-m",
                 "repro.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
                capture_output=True, text=True, cwd=tmp_path, timeout=120)
            *out, last = done.stdout.splitlines()
            status, kib = map(int, last.split())
            return status, "\n".join(out), done.stderr, kib / 1024

        *_, started = peak("verify", "lcm", "--max-states", "1")
        cap = round(started) + 15
        status, out, err, used = peak(
            "verify", "lcm", "--nodes", "3", "--reorder", "1",
            "--max-rss-mb", str(cap))
        assert status == 0, err
        assert "PASS (stopped: memory)" in out
        assert "peak RSS budget reached" in err
        # Read once per BFS layer (~3 MB past the cap, measured).
        assert cap < used <= cap + 8

    def test_workers_do_not_outlive_a_killed_master(self):
        # ~14 s of exploration; both workers are mid-wave at 1 s.
        run = _start_teapot("verify", "lcm", "--nodes", "3", "--reorder", "1",
                            "--workers", "2", start_new_session=True)
        time.sleep(1.0)
        run.kill()
        run.wait(timeout=30)
        # Each worker leaves at its next recv or send, a wave away at
        # most: a second or two here, allowed ten times that.  (At the
        # parent commit both slept on under init: each held a copy of
        # the master's end of its own pipe, so its recv never saw the
        # end of file.)
        assert _session_is_empty(run, within=20.0)
        run.communicate(timeout=30)          # both streams now end
