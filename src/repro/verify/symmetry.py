"""Symmetry canonicalization: Murphi's scalarset reduction.

Every registered protocol is symmetric in its caching nodes: renaming
the non-home ("free") nodes by any permutation maps reachable states
to reachable states, transitions to transitions, and invariant
verdicts to identical verdicts.  Canonicalizing each state under that
group before the visited-set lookup is Murphi's scalarset reduction:
the checker explores one representative per orbit, keyed by the least
fingerprint (:mod:`repro.verify.fingerprint`) over the group.

Soundness hinges on the remap being *complete*: ``permute`` must
produce exactly the renamed state, or two inequivalent states could
be merged.  Node ids are therefore rewritten everywhere the
protocol's own type declarations locate them -- Message.src/dst,
NODE/SharerList-typed info fields and message payload parameters,
NODE/SharerList-typed parameterized-state args
(CompiledStateInfo.params), and suspended-continuation frames (saved
variables typed via CompiledProtocol.frame_types, recursing through
CONT-typed captures).  Application views are permuted as whole rows;
event-generator states are node-free by construction (choices are
generated per node).  The gating differential suite pins reduced and
unreduced verdicts identical across every registered protocol.

Only a ``--symmetry`` run imports this module (DESIGN.md, "Cold
start"); :mod:`repro.verify.fingerprint` re-exports its names lazily.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import getitem, xor
from typing import Optional

from repro.lang.types import T_CONT, T_NODE, T_SHARERS
from repro.runtime.context import Message, home_node
from repro.runtime.continuation import ContinuationRecord
from repro.verify.fingerprint import SLOT_TERMS, fingerprint
from repro.verify.model import (
    CHANNEL_IDS,
    CHANNELS,
    MESSAGE_IDS,
    MESSAGES,
    VIEW_IDS,
    VIEWS,
    BlockView,
    GlobalState,
    Memo,
)


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
