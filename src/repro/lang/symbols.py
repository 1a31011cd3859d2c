"""Symbol tables for Teapot semantic analysis.

Name resolution inside a handler proceeds outward through four scopes:

1. handler locals and parameters,
2. the enclosing state's parameters (typically a continuation),
3. the protocol's per-block variables (info fields) and constants,
4. the prelude (built-in constants and routines).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Optional

from repro.lang.errors import CheckError, SourceLocation


@unique
class SymbolKind(Enum):
    LOCAL = "local variable"
    PARAM = "handler parameter"
    STATE_PARAM = "state parameter"
    INFO_VAR = "protocol variable"
    PROTO_CONST = "protocol constant"
    BUILTIN_CONST = "builtin constant"
    MODULE_CONST = "module constant"
    CONT = "continuation"          # bound by Suspend


@dataclass(frozen=True)
class Symbol:
    """A resolved name with its kind and type."""

    name: str
    kind: SymbolKind
    type_name: str
    location: SourceLocation | None = None

    @property
    def is_assignable(self) -> bool:
        return self.kind in (
            SymbolKind.LOCAL,
            SymbolKind.PARAM,
            SymbolKind.INFO_VAR,
            SymbolKind.CONT,
        )


class Scope:
    """A single lexical scope; chains to an enclosing parent scope."""

    def __init__(self, parent: Optional["Scope"] = None, label: str = ""):
        self.parent = parent
        self.label = label
        self._symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> None:
        """Add ``symbol``; duplicate names within one scope are errors."""
        existing = self._symbols.get(symbol.name)
        if existing is not None:
            raise CheckError(
                f"duplicate declaration of {symbol.name!r} "
                f"(already declared as a {existing.kind.value})",
                symbol.location,
            )
        self._symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            symbol = scope._symbols.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def symbols(self) -> list[Symbol]:
        return list(self._symbols.values())

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None
