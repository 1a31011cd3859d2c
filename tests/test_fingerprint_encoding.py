"""The canonical state encoding and the slot-wise fingerprint, checked
against an independent oracle.

``encode_state`` joins per-component byte strings memoised by id
(``repro.verify.fingerprint``); a fingerprint is the XOR over a state's
slots of BLAKE2b-8(slot index + that component's bytes), and every
checkpoint, atlas stream and shard assignment is a function of it.
Until this file the only thing pinning them was two engines that share
the encoder.  Here they are compared byte-for-byte with a reference
written below *without* importing ``_digest``, ``_encode_value`` or the
slot tables, over states of every registered protocol on both successor
engines, over codec round-trips (fresh, non-interned views: the memo
has to be correct for them, not just fast), over every renaming the
symmetry canonicalizer produces, and over every key the expand step
derives incrementally; hex literals pin the wire format itself.
"""

import json
import os
import pickle
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_checker import ENGINES, checker_for, reachable, successor_key
from repro import api
from repro.faults import FaultBudget
from repro.protocols import PROTOCOLS
from repro.runtime.context import Message
from repro.runtime.continuation import ContinuationRecord
from repro.verify.checker import SymmetryError
from repro.verify.fingerprint import (
    SymmetryCanonicalizer,
    encode_state,
    fingerprint,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.verify.model import AppView, BlockView, GlobalState

ALL_NAMES = sorted(PROTOCOLS)
SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- the oracle ----------------------------------------------------------------

def ref_value(value) -> bytes:
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        return f"i{value};".encode()
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return f"s{len(raw)}:".encode() + raw
    if isinstance(value, Message):          # a tuple too: before tuple
        return b"m" + ref_value((value.tag, value.block, value.src,
                                 value.dst, value.payload, value.data))
    if isinstance(value, tuple):
        return (f"({len(value)}:".encode()
                + b"".join(ref_value(item) for item in value) + b")")
    if isinstance(value, frozenset):
        members = sorted(ref_value(item) for item in value)
        return f"{{{len(members)}:".encode() + b"".join(members) + b"}"
    if isinstance(value, ContinuationRecord):
        return b"c" + ref_value((value.handler, value.site_id, value.saved,
                                 value.is_static))
    raise TypeError(type(value).__name__)


def ref_state(state) -> bytes:
    out = [b"G"]
    for node_blocks in state.blocks:
        for view in node_blocks:
            out += [b"B", ref_value(view.state_name),
                    ref_value(view.state_args), ref_value(view.info),
                    ref_value(view.access), ref_value(view.queue)]
    for app in state.apps:
        out += [b"A", ref_value(app.blocked_on), ref_value(app.gen)]
    for row in state.channels:
        for channel in row:
            out += [b"C", ref_value(channel)]
    if tuple(state.faults) != (0, 0):
        out += [b"F", ref_value(tuple(state.faults))]
    return b"".join(out)


def ref_slots(state) -> list:
    """One byte string per slot of the state, in layout order: block
    views node-major, application statuses, channels src-major, then
    drops, dups, n_nodes and n_blocks as plain ints."""
    out = [b"B" + ref_value(view.state_name) + ref_value(view.state_args)
           + ref_value(view.info) + ref_value(view.access)
           + ref_value(view.queue)
           for node_blocks in state.blocks for view in node_blocks]
    out += [b"A" + ref_value(app.blocked_on) + ref_value(app.gen)
            for app in state.apps]
    out += [b"C" + ref_value(channel)
            for row in state.channels for channel in row]
    dims = (len(state.blocks), len(state.blocks[0]) if state.blocks else 0)
    return out + [ref_value(number) for number in (*state.faults, *dims)]


def ref_fingerprint(state) -> int:
    key = 0
    for slot, component in enumerate(ref_slots(state)):
        key ^= int.from_bytes(
            blake2b(ref_value(slot) + component, digest_size=8).digest(),
            "big")
    return key


# -- reachable-state corpora -----------------------------------------------------

def make_checker(name, nodes, *, reorder=0, faults=None, engine="fast",
                 **kwargs):
    return checker_for(ENGINES[engine], name, nodes=nodes, reorder=reorder,
                       faults=faults, **kwargs)


# 2 nodes with reordering and a fault budget (drop/dup successors and the
# trailing "F" record), 3 nodes FIFO (a real permutation group).
CONFIGS = (dict(nodes=2, reorder=1, faults=FaultBudget(drop=1, dup=1)),
           dict(nodes=3))
CAP = 250

_CORPUS = {}


def corpus(name, engine):
    key = (name, engine)
    if key not in _CORPUS:
        _CORPUS[key] = [
            state for config in CONFIGS
            for state in reachable(
                make_checker(name, engine=engine, **config), CAP)]
    return _CORPUS[key]


@pytest.mark.parametrize("engine", ["fast", "legacy"])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_reached_state_encodes_as_the_oracle_says(name, engine):
    states = corpus(name, engine)
    assert any(state.faults != (0, 0) for state in states)
    assert any(len(state.blocks) == 3 for state in states)
    for state in states:
        assert encode_state(state) == ref_state(state)
        assert fingerprint(state) == ref_fingerprint(state)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_NAMES), st.sampled_from(["fast", "legacy"]),
       st.integers(min_value=0))
def test_codec_round_trip_encodes_identically(name, engine, index):
    states = corpus(name, engine)
    state = states[index % len(states)]
    restored = state_from_jsonable(state_to_jsonable(state))
    # Fresh objects throughout: nothing the memo can key by identity.
    assert all(mine is not theirs
               for mine, theirs in zip(restored.blocks, state.blocks))
    assert restored == state
    assert encode_state(restored) == ref_state(state)


# -- the message record -----------------------------------------------------
#
# A Message is a tuple of its seven fields, so an encoder that tested
# ``tuple`` first would write it as a plain 7-tuple, seq included.

@pytest.mark.parametrize("message,encoding", [
    (Message("GET", 3, src=1, dst=0, payload=(2,), seq=17),
     b"m(6:s3:GETi3;i1;i0;(1:i2;)N)"),
    (Message("PUT", 3, src=0, dst=1, data=(5, 0, 0, 0)),
     b"m(6:s3:PUTi3;i0;i1;(0:)(4:i5;i0;i0;i0;))"),
], ids=["seq", "data"])
def test_a_message_encodes_as_a_message(message, encoding):
    from repro.verify.fingerprint import (
        _encode_value,
        _from_jsonable,
        _to_jsonable,
    )

    out = bytearray()
    _encode_value(message, out)
    assert bytes(out) == encoding == ref_value(message)
    jsonable = _to_jsonable(message)
    assert jsonable[0] == "m"
    # The JSON codec drops seq, as the fingerprint does; pickle keeps it.
    restored = _from_jsonable(json.loads(json.dumps(jsonable)))
    assert type(restored) is Message
    assert restored == message._replace(seq=None)
    shipped = pickle.loads(pickle.dumps(message))
    assert type(shipped) is Message
    assert shipped == message and shipped.seq == message.seq
    assert repr(shipped) == repr(message)
    for field in Message._fields:
        with pytest.raises(AttributeError):
            setattr(message, field, None)


# -- symmetry renamings --------------------------------------------------------
#
# 4 nodes / 1 block leaves three free nodes: a group of six with two
# non-involutions, so inverse and composition are actually exercised.

_SYM_CHECKER = make_checker("stache", 4)
_SYM_STATES = reachable(_SYM_CHECKER, 300)
_CANON = SymmetryCanonicalizer(_SYM_CHECKER.protocol, 4, 1, perm_cap=None)


def inverse_of(mapping):
    inverse = [0] * len(mapping)
    for old, new in enumerate(mapping):
        inverse[new] = old
    return tuple(inverse)


def test_group_under_test_is_not_just_swaps():
    assert len(_CANON.perms) == 5
    assert any(inverse_of(m) != m for m in _CANON.perms)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=len(_SYM_STATES) - 1))
def test_every_renaming_encodes_as_the_oracle_says(index):
    state = _SYM_STATES[index]
    candidates = [ref_fingerprint(state)]
    for mapping in _CANON.perms:
        renamed = _CANON.permute(state, mapping)
        assert encode_state(renamed) == ref_state(renamed)
        assert _CANON.permute(renamed, inverse_of(mapping)) == state
        # A canonicalizer that has never seen this state computes the
        # renaming from scratch; the memoised answer must be the same.
        cold = SymmetryCanonicalizer(_SYM_CHECKER.protocol, 4, 1,
                                     perm_cap=None)
        assert cold.permute(state, mapping) == renamed
        assert _CANON.permute(state, mapping) == renamed
        candidates.append(ref_fingerprint(renamed))
    # least digests renamed components without building the renamed
    # states; it must still be the minimum over the same bytes.
    assert _CANON.least(state, fingerprint(state))[0] == min(candidates)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_renamed_states_of_every_protocol_encode_as_the_oracle_says(name):
    checker = make_checker(name, 3)
    canon = SymmetryCanonicalizer(checker.protocol, 3, 1, perm_cap=None)
    (swap,) = canon.perms
    for state in corpus(name, "fast"):
        if len(state.blocks) != 3:
            continue
        renamed = canon.permute(state, swap)
        assert encode_state(renamed) == ref_state(renamed)
        assert canon.permute(renamed, swap) == state


# -- incrementally derived keys ---------------------------------------------------
#
# Where the visited key is the state's own fingerprint the expand step
# hands out ``parent key ^ swapped terms`` instead of fingerprinting the
# successor.  Every triple of every mode must carry exactly the key the
# from-scratch definition gives -- also on the reference engine, whose
# successors leave no swapped terms behind.  (The self-messaging fixture
# and the hand-built refills are in tests/test_exploration_core.py.)

KEYED_MODES = {
    "plain": {},
    "reorder": dict(reorder=1),
    "faults": dict(reorder=1, faults=FaultBudget(1, 1)),
    # Drop/dup on FIFO channels: a delivery takes only a channel's head,
    # so a drop is the one move that removes from further back.
    "fifo-faults": dict(faults=FaultBudget(1, 1)),
    "legacy": dict(engine="legacy"),
}


def assert_expansions_keyed_by(checker, expected_key, cap=400):
    """Run ``checker`` (capped) and hold the key of every move its
    expand step yields, as the loop takes it, and every key it is
    entered with, to ``expected_key``."""
    expand = checker._expand

    def checking(state, key):
        assert key == expected_key(state)
        for move in expand(state, key):
            label, successor, delta, _judge = move
            assert successor_key(checker, key, successor, delta) \
                == expected_key(successor), label
            yield move

    checker._expand = checking
    checker.max_states = cap
    assert checker.run().transitions > 40


@pytest.mark.parametrize("mode", sorted(KEYED_MODES))
@pytest.mark.parametrize("nodes", [2, 3])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_expanded_key_is_the_successors_fingerprint(name, nodes, mode):
    assert_expansions_keyed_by(
        make_checker(name, nodes, fingerprint_states=True,
                     **KEYED_MODES[mode]), fingerprint)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_expanded_key_under_symmetry_is_canonical(name):
    checker = make_checker(name, 3, symmetry=True)
    canon = checker._canon
    seen = {}

    def canonical(state):
        representative = canon.canonical_state(state)
        assert canon.canonical_state(representative) == representative
        seen[state] = key = canon.canonical_fingerprint(state)
        assert key == fingerprint(representative) \
            == canon.canonical_fingerprint(representative)
        return key

    try:
        assert_expansions_keyed_by(checker, canonical)
    except SymmetryError:
        assert name == "lcm_mcc"    # not node-symmetric: certification
    assert len(set(seen.values())) < len(seen)      # orbits did merge


# -- golden pins ---------------------------------------------------------------
#
# The v2 format (slot-wise keys, CHECKPOINT_VERSION 2), computed with
# ``ref_fingerprint`` above -- the reference side, not what production
# printed.  A change to any of these is a wire/checkpoint format change:
# bump CHECKPOINT_VERSION and say so, do not just re-pin.

def seal(keys) -> str:
    return blake2b(b"".join(key.to_bytes(8, "big") for key in sorted(keys)),
                   digest_size=16).hexdigest()


@pytest.mark.parametrize("name, pinned", [
    ("stache", "82634e798c9681b0"),
    ("lcm", "6a0f7aa03b2a37da"),
    ("lcm_mcc", "6a0f7aa03b2a37da"),
])
def test_initial_state_fingerprint_is_pinned(name, pinned):
    (initial,) = reachable(make_checker(name, 3), 1)
    assert f"{fingerprint(initial):016x}" == pinned


def test_lcm_three_node_fingerprint_sets_are_pinned():
    checker = make_checker("lcm", 3)
    states = reachable(checker)
    visited = {fingerprint(state) for state in states}
    assert len(states) == len(visited) == 7658
    assert seal(visited) == "e540dea93ab9a0048a1f24adbaaf6c9a"
    canon = SymmetryCanonicalizer(checker.protocol, 3, 1, perm_cap=None)
    canonical = {canon.canonical_fingerprint(state) for state in states}
    assert len(canonical) == 3882
    assert seal(canonical) == "82197e47dda1d20dd57fd4cbc4286d9c"


# -- the memo is bounded by the intern tables ----------------------------------

_MEMO_PROBE = """
from reference_checker import checker_for, reachable
from repro import api
from repro.verify.checker import ModelChecker
from repro.verify.fingerprint import (APP_ENC, CHANNEL_ENC, SLOT_TERMS,
                                      VIEW_ENC)
from repro.verify.model import APPS, CHANNELS, VIEWS
api.check("lcm", api.CheckOptions(nodes=3, fingerprints=True))
print(len(VIEW_ENC), len(VIEWS), len(CHANNEL_ENC), len(CHANNELS),
      len(APP_ENC), len(APPS))
states = reachable(checker_for(ModelChecker, "lcm", nodes=3))
(terms,) = SLOT_TERMS.values()
ids = [VIEWS] * 3 + [APPS] * 3 + [CHANNELS] * 9
print(len(terms), all(len(term) <= len(table)
                      for term, table in zip(terms, ids)),
      all(set(term) == {state[slot] for state in states}
          for slot, term in enumerate(terms)))
"""


def test_encoding_memo_is_bounded_by_the_intern_tables():
    """The encodings are lists indexed by component id, grown from the
    id tables: one entry per distinct view, channel (the empty one is
    id 0) and application status, never one per state, so they need no
    eviction policy or size option and cannot outgrow the id tables;
    the slot-wise term tables are filled per (slot, id) seen.
    Counted in a fresh process -- the tables are process-global."""
    counts, slots = subprocess.run(
        [sys.executable, "-c", _MEMO_PROBE], check=True, text=True,
        capture_output=True, env={"PYTHONPATH": os.pathsep.join(
            [SRC, str(Path(__file__).parent)])}).stdout.splitlines()
    view_encs, views, channel_encs, channels, app_encs, apps = map(
        int, counts.split())
    assert view_encs == views == 373
    assert channel_encs == channels == 66 + 1
    assert app_encs == apps == 5
    # The per-slot term tables of the one layout the run used: none
    # longer than its id table, and each holding exactly the ids some
    # reachable state has at that slot -- incremental keys look up no
    # intermediate value.
    assert slots == "19 True True"


# -- pickled states carry no ids -----------------------------------------------
#
# An id means something in one process only.  The child below runs under
# another hash seed and fills its id tables in another order (it builds
# the states of a different protocol first, then this state's parts back
# to front), so the same state is a different tuple of ints there.

_PICKLE_PROBE = """
import json, pickle, sys
from reference_checker import checker_for, reachable
from repro.verify.checker import ModelChecker
from repro.verify.fingerprint import state_from_jsonable
from repro.verify.model import GlobalState
reachable(checker_for(ModelChecker, "stache", nodes=3), 200)
payload = json.load(sys.stdin)
flipped = {"blocks": payload["blocks"][::-1], "apps": payload["apps"][::-1],
           "channels": [row[::-1] for row in payload["channels"][::-1]]}
state_from_jsonable(flipped)
state = state_from_jsonable(payload)
sys.stdout.buffer.write(pickle.dumps((tuple(state), state,
                                      state.fingerprint())))
"""


def test_pickled_state_holds_declared_fields_only():
    state = corpus("lcm", "fast")[-1]
    assert any(state.channels[src][dst] for src in range(3)
               for dst in range(3))
    payload = state_to_jsonable(state)
    cold = state_from_jsonable(payload)
    assert cold == state and tuple(cold) == tuple(state)

    # The pickle is the class plus the four decoded fields: no id, and
    # nothing a hash, a fingerprint or a canonicalisation left behind.
    assert cold.__reduce__() == (GlobalState, (cold.blocks, cold.apps,
                                               cold.channels, cold.faults))
    size_before = len(pickle.dumps(cold))
    hash(cold)
    fingerprint(cold)
    SymmetryCanonicalizer(api.compile_protocol("lcm"), 3, 1,
                          perm_cap=None).canonical_fingerprint(cold)
    assert len(pickle.dumps(cold)) == size_before

    shipped = pickle.loads(pickle.dumps(cold))
    records = [*shipped.apps, *(view for row in shipped.blocks for view in row)]
    assert type(shipped) is GlobalState
    assert {type(part) for part in records} == {AppView, BlockView}
    for part in [shipped, *records]:
        assert not hasattr(part, "__dict__")
    # The messages inside were hashed on the way into the id tables;
    # their cached hashes stay behind too.
    assert b"_hash" not in pickle.dumps(cold)
    assert shipped == cold
    assert fingerprint(shipped) == fingerprint(cold)

    # Another process, another hash seed, another id assignment.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    their_ids, foreign, their_key = pickle.loads(subprocess.run(
        [sys.executable, "-c", _PICKLE_PROBE], check=True,
        input=json.dumps(payload).encode(), capture_output=True,
        env={"PYTHONPATH": os.pathsep.join([SRC, str(Path(__file__).parent)]),
             "PYTHONHASHSEED": seed}).stdout)
    assert their_ids != tuple(state)
    assert foreign == state and foreign is not state
    assert tuple(foreign) == tuple(state)
    assert hash(foreign) == hash(state)
    assert foreign in {state}
    # The key is a function of decoded values: the same 64 bits there.
    assert their_key == fingerprint(foreign) == fingerprint(state) \
        == ref_fingerprint(state)
    assert encode_state(foreign) == ref_state(state)
