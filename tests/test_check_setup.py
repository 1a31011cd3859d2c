"""One check setup per protocol.

The registry declares each protocol's event loop and whether the
single-writer invariant holds (``ProtocolEntry.events`` /
``.coherent``); ``api.check`` applies the entry whose source declares
the compiled protocol's name, so a registered protocol is checked the
same way whether it arrives as a name, a ``.tea`` path, source text, a
compiled object, or an edited copy -- through the API or the CLI.
"""

import os

import pytest

from repro import api
from repro.cli import main
from repro.protocols import (
    PROTOCOLS,
    entry_declaring,
    load_protocol_source,
)
from repro.verify import events as event_loops
from repro.verify.events import StacheEvents, events_for_protocol

ALL_NAMES = sorted(PROTOCOLS)

# (verdict, states, transitions, depth) of every registered protocol at
# nodes=2: the by-name numbers, which every other form must reproduce.
BY_NAME = {
    "buffered_write": (True, 48, 169, 8),
    "dash": (True, 33, 69, 9),
    "lcm": (True, 155, 521, 10),
    "lcm_both": (True, 207, 684, 15),
    "lcm_mcc": (True, 240, 827, 17),
    "lcm_sm": (True, 212, 733, 16),
    "lcm_update": (True, 207, 684, 15),
    "stache": (True, 33, 69, 9),
    "stache_cas": (True, 376, 788, 12),
    "stache_cas_sm": (True, 507, 1137, 21),
    "stache_evict": (True, 47, 123, 9),
    "stache_nack": (True, 36, 77, 11),
    "stache_sm": (True, 26, 58, 9),
}


def source_path(name):
    return os.path.join(os.path.dirname(api.__file__), "protocols",
                        PROTOCOLS[name].filename)


API_FORMS = {
    "name": lambda name: name,
    "path": source_path,
    "source": load_protocol_source,
    "compiled": api.compile_protocol,
}


def outcome(result):
    return (result.ok, result.states_explored, result.transitions,
            result.max_depth)


def unlisted(name):
    """Registered protocol ``name``'s source, declaring a protocol name
    the registry does not know."""
    declared = PROTOCOLS[name].declares
    return (load_protocol_source(name)
            .replace(f"Protocol {declared}\n", "Protocol Unlisted\n")
            .replace(f"State {declared}.", "State Unlisted."))


class TestEveryFormChecksOneModel:

    @pytest.mark.parametrize("form", API_FORMS)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_api(self, name, form):
        result = api.check(API_FORMS[form](name), api.CheckOptions(nodes=2))
        assert outcome(result) == BY_NAME[name]

    @pytest.mark.parametrize("form", ["name", "path"])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_cli(self, name, form, capsys):
        target = name if form == "name" else source_path(name)
        _ok, states, transitions, depth = BY_NAME[name]
        assert main(["verify", target, "--nodes", "2"]) == 0
        assert (f": PASS  states={states} transitions={transitions} "
                f"depth={depth} " in capsys.readouterr().out)

    def test_an_edited_copy_keeps_its_setup(self):
        # A mutant is source text declaring its original's name.
        source = load_protocol_source("buffered_write") + "\n-- edited\n"
        assert outcome(api.check(source)) == BY_NAME["buffered_write"]


class TestRegistry:

    def test_declares_is_the_compiled_name(self):
        declared = [entry.declares for entry in PROTOCOLS.values()]
        assert len(set(declared)) == len(PROTOCOLS) == 13
        for name, entry in PROTOCOLS.items():
            assert api.compile_protocol(name).name == entry.declares
            assert entry_declaring(entry.declares) is entry

    def test_events_name_a_loop(self):
        for name, entry in PROTOCOLS.items():
            loop = events_for_protocol(name)
            assert type(loop) is getattr(event_loops, entry.events)

    def test_only_buffered_write_relaxes_coherence(self):
        assert [name for name in ALL_NAMES
                if not PROTOCOLS[name].coherent] == ["buffered_write"]

    def test_unknown_name_is_not_a_protocol(self):
        assert entry_declaring("Unlisted") is None
        with pytest.raises(KeyError):
            events_for_protocol("unlisted")


class TestFallbackAndOverrides:

    def test_unregistered_gets_stache_events_and_three_invariants(self):
        # LCM's source under another name: the Stache loop never enters
        # a phase (the 33 states of stache), and single_writer is on.
        lcm = api.check(unlisted("lcm"))
        assert outcome(lcm) == BY_NAME["stache"]
        assert list(lcm.invariant_evals) == [
            "single_writer", "bounded_queues", "bounded_channels"]
        # Buffered-write's write-allocate without a fetch then breaks
        # data presence at its first write, before its multiple writers
        # can break single_writer.
        buffered = api.check(unlisted("buffered_write"))
        assert not buffered.ok
        assert buffered.violation.message == (
            "AccessChange(Blk_Upgrade_RW) on block 0 without data")

    def test_options_override_the_registry(self):
        stache_loop = api.CheckOptions(events=StacheEvents())
        assert outcome(api.check("lcm", stache_loop)) == BY_NAME["stache"]
        coherent = api.check("buffered_write",
                             api.CheckOptions(coherent=True))
        assert "multiple writers" in coherent.violation.message
        relaxed = api.check("stache", api.CheckOptions(coherent=False))
        assert "single_writer" not in relaxed.invariant_evals
        assert outcome(relaxed) == BY_NAME["stache"]
