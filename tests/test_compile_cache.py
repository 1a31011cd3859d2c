"""The compile cache (``repro.compile_cache``): an entry read back from
disk must be indistinguishable from a fresh run of the front end,
anything but a complete first section under the right key must be a
silent miss, and a damaged IR section must be rebuilt, as silently, when
something asks for the IR.

Entries are written beside copies of the ``.tea`` files under
``tmp_path``; nothing here looks at, or depends on, the entries other
tests leave in ``src/repro/protocols/__pycache__/``.
"""

import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys

import pytest

from repro import compile_cache
from repro.backends import emit_c, emit_murphi, emit_python
from repro.cli import main
from repro.compile_cache import compile_file
from repro.compiler import pipeline
from repro.protocols import PROTOCOLS, source_path
from repro.runtime.exec import HandlerInterpreter
from repro.runtime.protocol import Flavor, OptLevel, ProtocolIR
from repro.workloads import LCM_WORKLOADS, STACHE_WORKLOADS

from test_compiled_engine import CompiledEngine, explore, simulate

ALL_NAMES = sorted(PROTOCOLS)
SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class Cache:
    """A ``tmp_path`` copy of one registered protocol's source, compiled
    through the cache as a fresh process would: the in-process level is
    emptied before every call, so each call reads the disk or rebuilds.
    ``rebuilds`` counts the runs of the front end."""

    def __init__(self, tmp_path, monkeypatch, name="stache"):
        self.entry = PROTOCOLS[name]
        self.path = str(tmp_path / self.entry.filename)
        shutil.copy(source_path(self.entry), self.path)
        self.directory = tmp_path / "__pycache__"
        self.monkeypatch = monkeypatch
        self.rebuilds = 0
        self.front_end = pipeline.compile_source

        def counting(*args, **kwargs):
            self.rebuilds += 1
            return self.front_end(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compile_source", counting)

    def compile(self, opt_level=OptLevel.O2, flavor=None,
                initial_states=None):
        self.monkeypatch.setattr(compile_cache, "_LOADED", {})
        return compile_file(
            self.path, opt_level,
            flavor if flavor is not None else self.entry.flavor,
            initial_states or self.entry.initial_states)

    def compile_as_cli(self):
        """What ``teapot <subcommand> <path>`` compiles: the defaults,
        initial states inferred (another key than ``compile()``'s)."""
        self.monkeypatch.setattr(compile_cache, "_LOADED", {})
        return compile_file(self.path)

    def slot(self, opt_level=OptLevel.O2):
        return self.directory / (
            f"{self.entry.filename}.{opt_level.name}-"
            f"{self.entry.flavor.value}.compiled")

    def files(self):
        return sorted(p.name for p in self.directory.iterdir())


@pytest.fixture
def cache(tmp_path, monkeypatch):
    return Cache(tmp_path, monkeypatch)


# ---------------------------------------------------------------------------
# A hit is the protocol the front end would have built
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt_level", list(OptLevel), ids=lambda o: o.name)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_hit_is_what_the_front_end_builds(name, opt_level, tmp_path,
                                          monkeypatch):
    cache = Cache(tmp_path, monkeypatch, name)
    entry = cache.entry
    with open(cache.path) as handle:
        fresh = cache.front_end(
            handle.read(), opt_level, entry.flavor, entry.initial_states)
    assert fresh.handler_code is None      # compiles on first dispatch

    missed = cache.compile(opt_level)
    hit = cache.compile(opt_level)
    assert cache.rebuilds == 1 and hit is not missed
    assert cache.files() == [cache.slot(opt_level).name]
    # Every handler was compiled when the entry was written.
    assert set(hit.handler_code) == {""} | {
        handler.qualified_name for handler in fresh.handlers.values()}

    for emit in (emit_python, emit_c, emit_murphi):
        assert emit(hit) == emit(missed) == emit(fresh)
    assert hit.stats == fresh.stats

    # The checker: states, transitions, depth, handler_fires, invariant
    # evaluations and the visited fingerprint set.
    explored = explore(fresh, name, CompiledEngine, n_nodes=2)
    assert explore(hit, name, CompiledEngine, n_nodes=2) == explored
    assert explored["states"] > 1

    # The simulator: cycles and every RuntimeCounters field, per node.
    table = LCM_WORKLOADS if name.startswith("lcm") else STACHE_WORKLOADS
    factory, blocks_fn = table["stencil" if name.startswith("lcm")
                               else "gauss"]
    programs = factory(n_nodes=4)
    ran = simulate(fresh, programs, blocks_fn(4), False, observed=False)
    assert simulate(hit, programs, blocks_fn(4), False,
                    observed=False) == ran
    assert ran["error"] is None and ran["cycles"] > 0


def test_one_object_per_key_within_a_process(tmp_path, monkeypatch):
    """The in-process level is the same cache under the same key: a
    second request is the same object, without touching the disk."""
    cache = Cache(tmp_path, monkeypatch)
    first = cache.compile()
    shutil.rmtree(cache.directory)
    assert compile_file(cache.path, OptLevel.O2, cache.entry.flavor,
                        cache.entry.initial_states) is first
    assert cache.rebuilds == 1 and not cache.directory.exists()


# ---------------------------------------------------------------------------
# Invalidation: everything in the key
# ---------------------------------------------------------------------------


def test_changed_source_byte_rebuilds(cache):
    cache.compile()
    with open(cache.path, "a") as handle:
        handle.write(" ")
    cache.compile()
    assert cache.rebuilds == 2
    cache.compile()                        # the entry was overwritten
    assert cache.rebuilds == 2 and cache.files() == [cache.slot().name]


def test_other_configuration_rebuilds(cache):
    cache.compile()
    cache.compile(opt_level=OptLevel.O1)
    assert cache.rebuilds == 2
    cache.compile(flavor=Flavor.BASELINE)
    assert cache.rebuilds == 3
    cache.compile(initial_states=("Home_Idle", "Cache_RO"))
    assert cache.rebuilds == 4
    # Opt level and flavor have entries of their own and still hit;
    # initial states share one, which now belongs to the last caller.
    cache.compile(opt_level=OptLevel.O1)
    cache.compile(flavor=Flavor.BASELINE)
    assert cache.rebuilds == 4
    cache.compile()
    assert cache.rebuilds == 5


@pytest.mark.parametrize("part,value", [
    ("_toolchain_stamp", lambda: b"an edited compiler"),
    ("MAGIC_NUMBER", b"\x00\x00\r\n"),
])
def test_other_toolchain_or_interpreter_rebuilds(cache, part, value):
    cache.compile()
    cache.monkeypatch.setattr(compile_cache, part, value)
    cache.compile()
    assert cache.rebuilds == 2
    cache.compile()
    assert cache.rebuilds == 2


def test_toolchain_stamp_covers_the_compiler_sources():
    stamp = compile_cache._toolchain_stamp().decode()
    for file in ("lang/parser.py", "lang/typecheck.py", "lang/types.py",
                 "compiler/lower.py", "compiler/constcont.py",
                 "backends/python_backend.py", "runtime/protocol.py",
                 # The emitter bakes costs.<attr> per BUILTIN_COSTS entry
                 # and one BI_<name> per BUILTIN_IMPLS key into the code.
                 "runtime/builtins.py",
                 # What runs the code, and what lays the entry out.
                 "runtime/engine.py", "compile_cache.py"):
        assert repr(os.path.normpath(file)) in stamp


# ---------------------------------------------------------------------------
# Corruption: silently rebuilt and overwritten
# ---------------------------------------------------------------------------


def _tables_end(blob):
    """Where an entry's first section (the run tables) ends and its
    second (the IR) begins."""
    start = 16 + compile_cache._LENGTH             # a 128-bit key
    return start + int.from_bytes(blob[16:start], "little")


def _other_key(cache):
    """A well-formed entry, but another configuration's."""
    cache.compile(opt_level=OptLevel.O1)
    cache.rebuilds -= 1
    return cache.slot(OptLevel.O1).read_bytes()


@pytest.mark.parametrize("damage", [
    lambda cache, blob: b"",
    lambda cache, blob: blob[:_tables_end(blob) // 2],
    lambda cache, blob: blob[:16] + random.Random(1).randbytes(4096),
    lambda cache, blob: random.Random(2).randbytes(4096),
    lambda cache, blob: _other_key(cache),
], ids=["empty", "truncated", "garbled-under-the-key", "random",
        "wrong-key"])
def test_damaged_entry_is_rebuilt_in_silence(cache, damage, capfd):
    cache.compile()
    slot = cache.slot()
    slot.write_bytes(damage(cache, slot.read_bytes()))
    protocol = cache.compile()
    assert cache.rebuilds == 2 and protocol.name == "Stache"
    cache.compile()                        # overwritten: a hit again
    assert cache.rebuilds == 2
    assert capfd.readouterr() == ("", "")


def test_unwritable_location_compiles_without_a_cache(tmp_path, monkeypatch,
                                                      capfd):
    # A regular file where the directory should be: chmod would not
    # bind when the tests run as root.
    (tmp_path / "__pycache__").write_text("in the way")
    cache = Cache(tmp_path, monkeypatch)
    for _ in range(2):
        protocol = cache.compile()
        assert protocol.name == "Stache" and protocol.handler_code is None
    assert cache.rebuilds == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "__pycache__", "stache.tea"]
    assert (tmp_path / "__pycache__").read_text() == "in the way"
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# Two sections: a run reads the tables, an IR consumer the IR
# ---------------------------------------------------------------------------


def _check(protocol):
    from repro.api import CheckOptions, check

    return check(protocol, CheckOptions(nodes=2, reorder=1))


@pytest.mark.parametrize("consumer", ["compile --target c",
                                      "HandlerInterpreter"])
@pytest.mark.parametrize("damage", [
    lambda blob: blob[:(_tables_end(blob) + len(blob)) // 2],
    lambda blob: blob[:_tables_end(blob)] + random.Random(3).randbytes(4096),
], ids=["truncated", "garbled"])
def test_damaged_ir_section_is_rebuilt_when_asked(cache, damage, consumer,
                                                  capsys):
    built = cache.compile_as_cli()
    fresh = {"c": emit_c(built),
             "explored": explore(built, "stache", HandlerInterpreter,
                                 n_nodes=2)}
    slot = cache.slot()
    slot.write_bytes(damage(slot.read_bytes()))
    capsys.readouterr()

    # The run tables still load, and a run reads nothing else: verify
    # passes on this very entry without rebuilding it.
    protocol = cache.compile_as_cli()
    result = _check(protocol)
    assert result.ok and result.exhausted
    assert cache.rebuilds == 1
    assert not isinstance(protocol.ir_part, ProtocolIR)

    # An IR consumer rebuilds the section without a word.
    if consumer == "HandlerInterpreter":
        assert explore(protocol, "stache", HandlerInterpreter,
                       n_nodes=2) == fresh["explored"]
    else:
        compile_cache._LOADED.clear()
        assert main(["compile", cache.path, "--target", "c"]) == 0
        assert capsys.readouterr() == (fresh["c"], "")
    assert cache.rebuilds == 2
    # ... and rewrote the entry: whole again.
    again = cache.compile_as_cli()
    assert emit_c(again) == fresh["c"] and cache.rebuilds == 2


def test_verify_reads_alike_from_a_hit_and_from_source(cache, tmp_path,
                                                       capsys):
    """The verdict, the coverage line and the --coverage-out report are
    byte-identical whether the front end ran or the entry was read (the
    emitted texts are held alike in test_hit_is_what_the_front_end_builds)."""
    def verify(report):
        compile_cache._LOADED.clear()
        assert main(["verify", cache.path, "--nodes", "2", "--reorder", "1",
                     "--coverage-out", str(report)]) == 0
        verdict, coverage = capsys.readouterr().out.splitlines()
        return (re.sub(r" time=\S+", "", verdict), coverage,
                report.read_bytes())

    from_source = verify(tmp_path / "source.json")
    assert cache.rebuilds == 1
    from_hit = verify(tmp_path / "hit.json")
    assert cache.rebuilds == 1
    assert from_hit == from_source
    assert from_hit[0].startswith("Stache: PASS")


def test_a_hit_protocol_pickles(cache):
    """The sharded checker's ``spawn`` start method pickles the
    protocol: code objects travel marshalled, the IR section as bytes."""
    cache.compile()
    hit = cache.compile()
    explored = explore(hit, "stache", CompiledEngine, n_nodes=2)
    assert not isinstance(hit.ir_part, ProtocolIR)     # a run read no IR
    shipped = pickle.loads(pickle.dumps(hit))
    assert shipped.handler_code.keys() == hit.handler_code.keys()
    assert explore(shipped, "stache", CompiledEngine, n_nodes=2) == explored
    assert emit_c(shipped) == emit_c(hit)
    assert cache.rebuilds == 1


# ---------------------------------------------------------------------------
# Fresh processes
# ---------------------------------------------------------------------------


def _python(code, *argv, **popen):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **popen)


def test_two_processes_racing_on_one_entry(cache):
    racer = ("import sys; from repro.compile_cache import compile_file; "
             "print(compile_file(sys.argv[1], initial_states="
             f"{cache.entry.initial_states!r}).name)")
    racers = [_python(racer, cache.path) for _ in range(2)]
    for process in racers:
        out, err = process.communicate(timeout=60)
        assert (process.returncode, out, err) == (0, "Stache\n", "")
    assert cache.files() == [cache.slot().name]      # no temp file left
    cache.compile()
    assert cache.rebuilds == 0


# What a subcommand may not load (ISSUE 17's counts): the import budget
# of a cache-hit verify, and the heaviest strangers of run and list.
_REPORT = """
import builtins, sys
compiled = []
real_compile = builtins.compile
def recording(source, filename, *args, **kwargs):
    compiled.append(str(filename))
    return real_compile(source, filename, *args, **kwargs)
builtins.compile = recording
from repro.cli import main
status = main(sys.argv[1:])
modules = sorted(sys.modules)       # before this script imports json
import json
print(json.dumps({"status": status, "modules": modules,
                  "compiled": compiled}), file=sys.stderr)
"""
VERIFY = ["verify", "lcm_mcc", "--nodes", "2", "--reorder", "1"]
# What only the front end, an IR consumer, a run with faults or a
# trace-sourced report reads: a cache hit that runs loads none of it.
NOT_ON_A_HIT = ("repro.lang.ast", "repro.lang.typecheck", "repro.lang.symbols",
                "repro.compiler.ir", "repro.faults", "repro.obs.analyze.trace")


def _report(argv):
    process = _python(_REPORT, *argv)
    _out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    report = json.loads(err.splitlines()[-1])
    assert report["status"] == 0
    return report


def test_cache_hit_verify_import_budget():
    _report(VERIFY)                  # whatever was there, now it is a hit
    report = _report(VERIFY)
    # On a hit nothing is compiled from protocol text.
    assert not [name for name in report["compiled"]
                if name.startswith("<") and name.endswith(".py>")]
    ours = [name for name in report["modules"]
            if name == "repro" or name.startswith("repro.")]
    # 63 before the imports were lazy, 37 while the engine imported the
    # reference interpreter for one constant, 36 while a hit unpickled
    # the AST and the handler IR, 27 while the checker imported the
    # access tags from the simulator and the canonicalizer and the JSON
    # state codec with the fingerprints.
    assert len(ours) <= 25, ours
    for stranger in (
            "repro.tempest", "repro.tempest.memory", "repro.verify.symmetry",
            "repro.verify.statejson", "json", "base64",
            "repro.tempest.machine", "repro.tempest.node",
            "repro.verify.parallel", "repro.verify.atlas",
            "repro.obs.profile", "repro.obs.metrics",
            "repro.backends.c_backend", "repro.backends.murphi_backend",
            "repro.backends.python_backend",
            "repro.analysis.stategraph", "repro.workloads",
            "repro.lang.lexer", "repro.lang.parser", "repro.lang.pretty",
            "repro.compiler.lower", "repro.compiler.liveness",
            "repro.compiler.constcont", "repro.compiler.pipeline",
            "repro.runtime.exec", "multiprocessing", *NOT_ON_A_HIT):
        assert stranger not in report["modules"], stranger


@pytest.mark.parametrize("argv,own", [
    (["verify", "lcm", "--nodes", "3", "--symmetry"],
     "repro.verify.symmetry"),
    (["run", "stache", "gauss", "--nodes", "4"], "repro.tempest.memory"),
], ids=["verify-symmetry", "run"])
def test_cache_hit_loads_no_front_end(argv, own):
    """Symmetry renames continuation frames by their typed names, and
    the simulator dispatches through the same tables: both from the run
    tables alone.  Each loads its own module, which a plain verify
    does not."""
    _report(argv)
    report = _report(argv)
    assert not [name for name in report["compiled"]
                if name.startswith("<") and name.endswith(".py>")]
    for stranger in NOT_ON_A_HIT:
        assert stranger not in report["modules"], stranger
    assert own in report["modules"]


def test_lazy_homes_re_export_the_same_objects():
    """A name that moved out of a module a plain verify loads is still
    importable from its old home, as the very same object."""
    import types

    import repro.runtime.context as context
    import repro.tempest as tempest
    import repro.tempest.memory as memory
    import repro.verify.fingerprint as fingerprint
    import repro.verify.statejson as statejson
    import repro.verify.symmetry as symmetry

    # The package exports no function under its submodule's name.
    assert isinstance(fingerprint, types.ModuleType)
    for name in ("SymmetryCanonicalizer", "_node_kind"):
        assert getattr(fingerprint, name) is getattr(symmetry, name)
    for name in ("state_to_jsonable", "state_from_jsonable",
                 "_to_jsonable", "_from_jsonable"):
        assert getattr(fingerprint, name) is getattr(statejson, name)
    for name in ("AccessTag", "ACCESS_CHANGE_RESULT", "fault_event_for"):
        assert getattr(memory, name) is getattr(context, name)
    assert tempest.AccessTag is context.AccessTag


@pytest.mark.parametrize("argv,strangers", [
    (["run", "stache", "gauss", "--nodes", "4"],
     ["repro.verify.parallel", "repro.verify.atlas", "repro.obs.profile",
      "repro.runtime.exec", "multiprocessing"]),
    (["list"],
     ["repro.tempest.machine", "repro.verify.parallel", "repro.lang.parser",
      "repro.compiler.pipeline"]),
], ids=["run", "list"])
def test_other_subcommands_load_what_they_run(argv, strangers):
    _report(argv)
    modules = _report(argv)["modules"]
    for stranger in strangers:
        assert stranger not in modules, stranger
