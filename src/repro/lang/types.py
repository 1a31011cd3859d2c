"""The Teapot value types: their names, the "no node" value and each
type's default.  The runtime needs these and nothing else of the
prelude (:mod:`repro.lang.builtins`), so a run imports no signature
tables.
"""

from __future__ import annotations

# Core value types.
T_INT = "INT"
T_BOOL = "BOOL"
T_STRING = "STRING"

# Protocol-domain types.
T_CONT = "CONT"          # a captured continuation
T_NODE = "NODE"          # a processor number
T_ID = "ID"              # a shared-memory block identifier
T_INFO = "INFO"          # the per-block protocol record
T_MSGTAG = "MSGTAG"      # a message tag
T_ACCESS = "ACCESSMODE"  # an access-control change request
T_VALUE = "VALUE"        # a machine word read from / written to a block
T_ADDR = "ADDR"          # a word offset within a block
T_SHARERS = "SharerList"  # a set of sharer nodes

BUILTIN_TYPES = frozenset({
    T_INT, T_BOOL, T_STRING, T_CONT, T_NODE, T_ID, T_INFO, T_MSGTAG,
    T_ACCESS, T_VALUE, T_ADDR, T_SHARERS,
})

# Types that behave like integers for literals and arithmetic.
INT_LIKE_TYPES = frozenset({T_INT, T_VALUE, T_ADDR})

# Types whose values may be compared with = and != .
EQUALITY_TYPES = frozenset({
    T_INT, T_BOOL, T_VALUE, T_ADDR, T_NODE, T_ID, T_MSGTAG, T_STRING,
})


# The distinguished "no node" value bound to the builtin constant Nobody.
NOBODY = -1


def default_value_for(type_name: str):
    """Initial value of an info variable or local of ``type_name``."""
    if type_name in INT_LIKE_TYPES:
        return 0
    if type_name == T_BOOL:
        return False
    if type_name == T_NODE:
        return NOBODY
    if type_name == T_SHARERS:
        return frozenset()
    # Message tags, continuations and abstract module types default to
    # None; support code must set the latter.
    return None


def types_compatible(expected: str, actual: str) -> bool:
    """Assignment/argument compatibility (int-like types interconvert)."""
    if expected == actual:
        return True
    return expected in INT_LIKE_TYPES and actual in INT_LIKE_TYPES
