"""64-bit state fingerprints and a portable state codec.

The checker's visited set traditionally stores whole
:class:`~repro.verify.model.GlobalState` objects.  A fingerprint is the
XOR over the state's slots of an 8-byte BLAKE2b digest of (slot, the
*canonical encoding* of the component held there), so the visited set
shrinks to a set of small ints (an order of magnitude less memory -- the
classic Stern/Dill hash-compaction trade), a successor's fingerprint is
its parent's with the few terms a move touched swapped (Zobrist hashing)
and, crucially, the value is stable across processes and runs: it does
not depend on ``PYTHONHASHSEED``, object identity, id-assignment order
or pickle memoisation.  That stability is what lets the parallel checker
hash-partition the state space and makes checkpoint files resumable.

The trade-off of compaction is that two distinct states could collide
and one of them would be silently merged (probability ~ n^2 / 2^65 for
n visited states).  The violation path therefore re-validates traces by
replay (:func:`repro.verify.checker.replay_labels`); a collision that
corrupts a counterexample is detected, not silently reported.

The module also provides a pure-JSON, pickle-free codec for states
(:func:`state_to_jsonable` / :func:`state_from_jsonable`).  Checkpoints
store frontier states by reference and do not use it.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from operator import getitem, xor
from typing import Optional

from _blake2 import blake2b     # hashlib's, without its OpenSSL load

from repro.lang.types import T_CONT, T_NODE, T_SHARERS
from repro.runtime.context import Message, home_node
from repro.runtime.continuation import ContinuationRecord
from repro.verify.model import (
    APPS,
    CHANNEL_IDS,
    CHANNELS,
    MESSAGE_IDS,
    MESSAGES,
    VIEW_IDS,
    VIEWS,
    AppView,
    BlockView,
    GlobalState,
    Memo,
    app_ids,
    channel_ids,
    view_ids,
)

FINGERPRINT_BITS = 64

class StateCodecError(TypeError):
    """A value inside a GlobalState that the codec does not model."""


def _encode_value(value, out: bytearray) -> None:
    """Append a canonical, prefix-free encoding of ``value``."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i%d;" % value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif isinstance(value, Message):     # a tuple too: before tuple
        out += b"m"
        _encode_value((value.tag, value.block, value.src, value.dst,
                       value.payload, value.data), out)
    elif isinstance(value, ContinuationRecord):  # a tuple too: before tuple
        out += b"c"
        _encode_value((value.handler, value.site_id, value.saved,
                       value.is_static), out)
    elif isinstance(value, tuple):
        out += b"(%d:" % len(value)
        for item in value:
            _encode_value(item, out)
        out += b")"
    elif isinstance(value, frozenset):
        # Canonical order: sort members by their own encoding.
        parts = sorted(_encoded(b"", item) for item in value)
        out += b"{%d:" % len(parts) + b"".join(parts) + b"}"
    else:
        raise StateCodecError(
            f"cannot fingerprint value of type {type(value).__name__}: "
            f"{value!r}")


def _encoded(prefix: bytes, *values) -> bytes:
    out = bytearray(prefix)
    for value in values:
        _encode_value(value, out)
    return bytes(out)


# Per-component encodings, indexed by the component ids of
# repro.verify.model and grown from its tables when a state holds an id
# past their end: they cannot outgrow the id tables, so they need no
# size option or eviction policy of their own.
VIEW_ENC: list = []
APP_ENC: list = []
CHANNEL_ENC: list = []


def _grow_encodings() -> None:
    VIEW_ENC.extend(_encoded(b"B", *view)
                    for view in VIEWS[len(VIEW_ENC):])
    APP_ENC.extend(_encoded(b"A", *app) for app in APPS[len(APP_ENC):])
    CHANNEL_ENC.extend(_encoded(b"C", channel)
                       for channel in CHANNELS[len(CHANNEL_ENC):])


def encode_state(state: GlobalState) -> bytes:
    """The canonical byte encoding of a state: the auditable rendering
    whose per-component parts a fingerprint's terms digest.  Every
    component encoding is prefix-free, so the concatenation is exactly
    what one recursive walk over the whole decoded state would emit."""
    try:
        parts = [b"G", *map(VIEW_ENC.__getitem__, view_ids(state)),
                 *map(APP_ENC.__getitem__, app_ids(state)),
                 *map(CHANNEL_ENC.__getitem__, channel_ids(state))]
    except IndexError:      # an id newer than the encoding lists
        _grow_encodings()
        return encode_state(state)
    # Remaining fault budget distinguishes otherwise-identical states
    # (a state reached after spending a drop must not merge with the
    # same configuration reached fault-free).  Encoded only when
    # nonzero, so a fault-free state's bytes are what they always were.
    if state[-4] or state[-3]:
        parts.append(_encoded(b"F", tuple(state[-4:-2])))
    return b"".join(parts)


def _digest(encoding: bytes) -> int:
    return int.from_bytes(blake2b(encoding, digest_size=8).digest(), "big")


def _slot_term(slot: int, encodings, cid: int) -> int:
    if encodings is None:
        return _digest(_encoded(b"", slot, cid))
    if cid >= len(encodings):
        _grow_encodings()
    return _digest(_encoded(b"", slot) + encodings[cid])


def _slot_terms(dims: tuple) -> list:
    """One table per slot of a ``dims`` = (n_nodes, n_blocks) state:
    component id (the last four slots: the int itself) -> BLAKE2b-8 of
    the slot index and that component's encoding.  A function of decoded
    values, filled per (slot, id) seen: no table outgrows its id table."""
    n_nodes, n_blocks = dims
    kinds = ([VIEW_ENC] * (n_nodes * n_blocks) + [APP_ENC] * n_nodes
             + [CHANNEL_ENC] * (n_nodes * n_nodes) + [None] * 4)
    return [Memo(partial(_slot_term, slot, encodings))
            for slot, encodings in enumerate(kinds)]


SLOT_TERMS = Memo(_slot_terms)


def fingerprint(state: GlobalState) -> int:
    """Stable 64-bit fingerprint of a global state: the XOR of its
    slots' terms, one C-level pass.  This is the definition; the checker
    derives a successor's from its parent's (``ModelChecker._play``)."""
    return reduce(xor, map(getitem, SLOT_TERMS[state[-2:]], state))


def expected_collisions(entries: int,
                        bits: int = FINGERPRINT_BITS) -> float:
    """Birthday-bound estimate of silent merges in a table of
    ``entries`` distinct states keyed by ``bits``-bit fingerprints
    (n(n-1)/2 / 2^bits).  Exact detection would require keeping the
    full states that compaction exists to discard; the check-profile
    artifact reports this estimate instead."""
    return entries * (entries - 1) / 2 / 2 ** bits


# -- symmetry canonicalization --------------------------------------------------
#
# Every registered protocol is symmetric in its caching nodes: renaming
# the non-home ("free") nodes by any permutation maps reachable states
# to reachable states, transitions to transitions, and invariant
# verdicts to identical verdicts.  Canonicalizing each state under that
# group before the visited-set lookup is Murphi's scalarset reduction:
# the checker explores one representative per orbit.
#
# Soundness hinges on the remap being *complete*: ``permute`` must
# produce exactly the renamed state, or two inequivalent states could
# be merged.  Node ids are therefore rewritten everywhere the
# protocol's own type declarations locate them -- Message.src/dst,
# NODE/SharerList-typed info fields and message payload parameters,
# NODE/SharerList-typed parameterized-state args
# (CompiledStateInfo.params), and suspended-continuation frames (saved
# variables typed via CompiledProtocol.frame_types, recursing through
# CONT-typed captures).  Application views are permuted as whole rows;
# event-generator states are node-free by construction (choices are
# generated per node).  The gating differential suite pins reduced and
# unreduced verdicts identical across every registered protocol.

def _node_kind(type_name: str) -> Optional[str]:
    if type_name == T_NODE:
        return "node"
    if type_name == T_SHARERS:
        return "sharers"
    if type_name == T_CONT:
        return "cont"
    return None


class SymmetryCanonicalizer:
    """Canonicalize states under home-fixing caching-node permutation.

    The canonical key of a state is the minimum fingerprint over every
    permutation of the *free* (non-home) nodes; states in one orbit
    share a key.  With fewer than two free nodes only the identity
    remains and every orbit is a singleton.

    ``perm_cap`` bounds the number of permutations enumerated; leave it
    ``None`` (the full group).  Only a full (closed) group makes
    canonicalization idempotent and orbit-invariant.
    """

    def __init__(self, protocol, n_nodes: int, n_blocks: int,
                 perm_cap: Optional[int] = None):
        self.n_nodes = n_nodes
        self.n_blocks = n_blocks
        homes = {home_node(block, n_nodes) for block in range(n_blocks)}
        self.free_nodes = [n for n in range(n_nodes) if n not in homes]
        free = self.free_nodes
        self.perms: list[tuple] = []
        for image in itertools.islice(itertools.permutations(free),
                                      perm_cap):
            if image == tuple(free):
                continue                # the identity is the state itself
            mapping = list(range(n_nodes))
            for old, new in zip(free, image):
                mapping[old] = new
            self.perms.append(tuple(mapping))
        # Where node ids live, per the protocol's own declarations.
        self._protocol = protocol
        self.info_kinds = {
            name: kind for name, type_name in protocol.info_vars.items()
            if (kind := _node_kind(type_name)) is not None}
        self.payload_kinds = {
            tag: tuple(_node_kind(type_name) for type_name in types)
            for tag, types in protocol.messages.items()}
        self.state_arg_kinds = {
            name: tuple(_node_kind(type_name)
                        for _pname, type_name in info.params)
            for name, info in protocol.states.items()}
        # handler qualname "State.Message" -> {var -> kind}; built
        # lazily because most states carry no continuation records.
        self._frame_kinds = Memo(self._frame_kinds_for)
        # mapping -> (the slot of the original each slot of the renamed
        # state comes from; per such slot, {id -> that component
        # renamed's id}; per slot of the *original*, {id -> the term of
        # that component renamed, at the slot it moves to}; {message id
        # -> its renaming's id}).  Renaming is a function of (mapping,
        # component) and the distinct components are few, so after
        # warm-up ``permute`` is a dict hit per component, as is the
        # renamed state's key: the XOR of the third tables' entries.
        self._remaps = Memo(self._remap_tables)
        self.identity = tuple(range(n_nodes))

    @property
    def permutations(self) -> int:
        """Permutations considered per state, identity included."""
        return len(self.perms) + 1

    def _map_node(self, mapping: tuple, value):
        # Nobody (-1) and any non-node value pass through untouched.
        if (isinstance(value, int) and not isinstance(value, bool)
                and 0 <= value < self.n_nodes):
            return mapping[value]
        return value

    def _frame_kinds_for(self, handler: str) -> dict:
        kinds = {}
        for name, type_name in self._protocol.frame_types.get(handler, ()):
            kind = _node_kind(type_name)
            if kind is not None:
                kinds[name] = kind
        return kinds

    def _remap_cont(self, mapping: tuple,
                    record: ContinuationRecord) -> ContinuationRecord:
        kinds = self._frame_kinds[record.handler]
        saved = tuple(
            (name, self._remap_typed(mapping, value, kinds.get(name)))
            for name, value in record.saved)
        return record if saved == record.saved else record._replace(saved=saved)

    def _remap_typed(self, mapping: tuple, value, kind: Optional[str]):
        if kind == "node":
            return self._map_node(mapping, value)
        if kind == "sharers" and isinstance(value, frozenset):
            return frozenset(self._map_node(mapping, member)
                             for member in value)
        # CONT-typed captures, and continuation records reached through
        # untyped positions, both recurse into their own frame tables.
        if isinstance(value, ContinuationRecord):
            return self._remap_cont(mapping, value)
        return value

    def _remap_message(self, mapping: tuple, msg: Message) -> Message:
        payload = msg.payload
        if payload:
            kinds = self.payload_kinds.get(msg.tag)
            payload = tuple(
                self._remap_typed(
                    mapping, item,
                    kinds[i] if kinds and i < len(kinds) else None)
                for i, item in enumerate(payload))
        return Message(
            msg.tag, msg.block, src=self._map_node(mapping, msg.src),
            dst=self._map_node(mapping, msg.dst), payload=payload,
            data=msg.data)

    def _remap_tables(self, mapping: tuple) -> tuple:
        n, n_blocks = self.n_nodes, self.n_blocks
        inverse = [0] * n
        for old, new in enumerate(mapping):
            inverse[new] = old
        chan0 = n * (n_blocks + 1)
        views = Memo(lambda vid: self._remap_view(mapping, VIEWS[vid]))
        messages = Memo(lambda mid: MESSAGE_IDS[
            self._remap_message(mapping, MESSAGES[mid])])
        channels = Memo(lambda cid: CHANNEL_IDS[tuple([
            self._remap_message(mapping, msg) for msg in CHANNELS[cid]])])
        sources = ([old * n_blocks + block
                    for old in inverse for block in range(n_blocks)]
                   + [n * n_blocks + old for old in inverse]
                   + [chan0 + src * n + dst
                      for src in inverse for dst in inverse])
        apps = Memo(lambda aid: aid)    # hold no node id: only move
        renames = [views] * (n * n_blocks) + [apps] * n + [channels] * (n * n)
        terms = SLOT_TERMS[n, n_blocks]
        renamed_terms = list(terms)     # the last four slots stay put
        for term, source, renamed in zip(terms, sources, renames):
            renamed_terms[source] = Memo(
                lambda cid, term=term, renamed=renamed: term[renamed[cid]])
        return sources, renames, renamed_terms, messages

    def _remap_view(self, mapping: tuple, view: BlockView) -> int:
        """The id of ``view`` renamed."""
        info_kinds = self.info_kinds
        info = tuple(
            (name, self._remap_typed(mapping, value,
                                     info_kinds.get(name)))
            for name, value in view.info)
        state_args = view.state_args
        if state_args:
            kinds = self.state_arg_kinds.get(view.state_name) or ()
            state_args = tuple(
                self._remap_typed(mapping, value,
                                  kinds[i] if i < len(kinds) else None)
                for i, value in enumerate(state_args))
        queue = tuple(self._remap_message(mapping, msg)
                      for msg in view.queue)
        return VIEW_IDS[BlockView(view.state_name, state_args, info,
                                  view.access, queue)]

    def permute(self, state: GlobalState, mapping: tuple) -> GlobalState:
        """The state with node ``old`` renamed to ``mapping[old]``."""
        sources, renames, _terms, _messages = self._remaps[mapping]
        ids = map(getitem, renames, map(state.__getitem__, sources))
        return tuple.__new__(GlobalState, [*ids, *state[-4:]])

    def rename_action(self, key: tuple, mapping: tuple) -> tuple:
        """An effects-cache key ``(node, view id, message id,
        blocked_on)`` with nodes renamed (``blocked_on`` is a block)."""
        _sources, renames, _terms, messages = self._remaps[mapping]
        return mapping[key[0]], renames[0][key[1]], messages[key[2]], key[3]

    def rename_message(self, mid: int, mapping: tuple) -> int:
        return self._remaps[mapping][3][mid]

    def least(self, state: GlobalState, fp: int) -> tuple:
        """``(key, mapping)`` of the renaming with the least fingerprint
        (``None``: the state itself, whose fingerprint ``fp`` is).  A
        candidate's key is one C-level pass over its mapping's term
        tables: no renamed state is built and nothing is digested."""
        best, least = fp, None
        for mapping in self.perms:
            candidate = reduce(xor, map(getitem, self._remaps[mapping][2],
                                        state))
            if candidate < best:
                best, least = candidate, mapping
        return best, least

    def canonical_fingerprint(self, state: GlobalState) -> int:
        """The visited-set key symmetry reduction explores under."""
        return self.least(state, fingerprint(state))[0]

    def canonical_state(self, state: GlobalState) -> GlobalState:
        """The orbit representative (argmin-fingerprint image).  With
        the full group this is idempotent: the representative's own
        canonical state is itself."""
        mapping = self.least(state, fingerprint(state))[1]
        return state if mapping is None else self.permute(state, mapping)


# -- JSON codec ---------------------------------------------------------------
#
# Tagged arrays keep tuples, sets, messages, and continuation records
# apart from plain JSON lists; scalars pass through unchanged.  The
# format is deliberately pickle-free so loading a state never executes
# anything.

def _to_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Message):          # a tuple too: before tuple
        return ["m", value.tag, value.block, value.src, value.dst,
                _to_jsonable(value.payload), _to_jsonable(value.data)]
    if isinstance(value, ContinuationRecord):  # a tuple too: before tuple
        return ["c", value.handler, value.site_id,
                _to_jsonable(value.saved), value.is_static]
    if isinstance(value, tuple):
        return ["t", [_to_jsonable(item) for item in value]]
    if isinstance(value, frozenset):
        items = [_to_jsonable(item) for item in value]
        items.sort(key=repr)
        return ["fs", items]
    raise StateCodecError(
        f"cannot serialise value of type {type(value).__name__}: {value!r}")


def _from_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    tag = value[0]
    if tag == "t":
        return tuple(_from_jsonable(item) for item in value[1])
    if tag == "fs":
        return frozenset(_from_jsonable(item) for item in value[1])
    if tag == "m":
        return Message(value[1], value[2], value[3], value[4],
                       payload=_from_jsonable(value[5]),
                       data=_from_jsonable(value[6]))
    if tag == "c":
        return ContinuationRecord(value[1], value[2],
                                  _from_jsonable(value[3]), value[4])
    raise StateCodecError(f"unknown codec tag {tag!r}")


def state_to_jsonable(state: GlobalState) -> dict:
    """A pure-JSON rendering of a state."""
    return {
        "blocks": [
            [
                {
                    "state": view.state_name,
                    "args": _to_jsonable(view.state_args),
                    "info": _to_jsonable(view.info),
                    "access": view.access,
                    "queue": _to_jsonable(view.queue),
                }
                for view in node_blocks
            ]
            for node_blocks in state.blocks
        ],
        "apps": [
            {"blocked_on": app.blocked_on, "gen": _to_jsonable(app.gen)}
            for app in state.apps
        ],
        "channels": [
            [_to_jsonable(channel) for channel in row]
            for row in state.channels
        ],
        # Fault budget is written only when nonzero: fault-free
        # states keep the pre-fault schema exactly.
        **({"faults": list(state.faults)}
           if state.faults != (0, 0) else {}),
    }


def state_from_jsonable(payload: dict) -> GlobalState:
    """Inverse of :func:`state_to_jsonable`."""
    return GlobalState(
        blocks=tuple(
            tuple(
                BlockView(
                    state_name=view["state"],
                    state_args=_from_jsonable(view["args"]),
                    info=_from_jsonable(view["info"]),
                    access=view["access"],
                    queue=_from_jsonable(view["queue"]),
                )
                for view in node_blocks
            )
            for node_blocks in payload["blocks"]
        ),
        apps=tuple(
            AppView(blocked_on=app["blocked_on"],
                    gen=_from_jsonable(app["gen"]))
            for app in payload["apps"]
        ),
        channels=tuple(
            tuple(_from_jsonable(channel) for channel in row)
            for row in payload["channels"]
        ),
        faults=tuple(payload.get("faults", (0, 0))),
    )
