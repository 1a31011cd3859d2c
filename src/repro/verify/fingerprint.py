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

Two neighbours no plain run executes live in modules of their own, and
their names resolve here too, on first access: symmetry
canonicalization, keyed by these fingerprints
(:mod:`repro.verify.symmetry`, imported by a ``--symmetry`` run), and a
pure-JSON, pickle-free codec for states (:mod:`repro.verify.statejson`;
checkpoints store frontier states by reference and do not use it).
"""

from __future__ import annotations

from functools import partial, reduce
from operator import getitem, xor

from _blake2 import blake2b     # hashlib's, without its OpenSSL load

from repro import _lazy_exports
from repro.runtime.context import Message
from repro.runtime.continuation import ContinuationRecord
from repro.verify.model import (
    APPS,
    CHANNELS,
    VIEWS,
    GlobalState,
    Memo,
    app_ids,
    channel_ids,
    view_ids,
)

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.verify.symmetry": ("SymmetryCanonicalizer", "_node_kind"),
    "repro.verify.statejson": ("state_to_jsonable", "state_from_jsonable",
                               "_to_jsonable", "_from_jsonable"),
})

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
