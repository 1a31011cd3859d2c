"""Source-located error reporting for the Teapot front end.

All front-end errors derive from :class:`TeapotError` and carry an
optional :class:`SourceLocation` so that callers (the CLI, tests, and the
compiler pipeline) can render ``file:line:column`` diagnostics uniformly.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a Teapot source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<string>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class TeapotError(Exception):
    """Base class for every error raised by the Teapot system."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.location is not None:
            return f"{self.location}: {self.message}"
        return self.message


class LexError(TeapotError):
    """Raised when the lexer encounters an unrecognised character."""


class ParseError(TeapotError):
    """Raised when the parser encounters an unexpected token."""


class CheckError(TeapotError):
    """Raised when semantic analysis rejects a well-formed parse tree."""


class CompileError(TeapotError):
    """Raised by the middle end (splitting, liveness, code generation)."""


class RuntimeProtocolError(TeapotError):
    """Raised when a compiled protocol misbehaves at execution time.

    Examples: an ``Error`` handler fires, a ``Resume`` is applied to a
    continuation that was already consumed, or a message arrives for a
    state with no handler and no DEFAULT.
    """


class SimulationLimitError(RuntimeProtocolError):
    """The simulator's ``max_events`` budget was exhausted.

    Usually a livelock (a request/nack cycle that never settles) rather
    than a protocol-semantics error; the message carries the simulated
    cycle reached and the number of events still pending so the run can
    be diagnosed without re-running under a tracer.
    """


def format_error_with_context(error: TeapotError, source: str) -> str:
    """Render ``error`` with a caret pointing into ``source``.

    Produces a GCC-style two-line context snippet::

        <file>:<line>:<col>: <message>
            Send(home, UPGRADE_REQ id);
                               ^
    """
    if error.location is None:
        return str(error)
    lines = source.splitlines()
    if not (1 <= error.location.line <= len(lines)):
        return str(error)
    src_line = lines[error.location.line - 1]
    caret = " " * (error.location.column - 1) + "^"
    return f"{error}\n    {src_line}\n    {caret}"
