"""The Teapot language front end: lexer, parser, and semantic checker."""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.lang.lexer": ("tokenize", "Token"),
    "repro.lang.parser": ("parse_program",),
    "repro.lang.typecheck": ("check_program",),
    "repro.lang.errors": ("TeapotError", "LexError", "ParseError",
                          "CheckError"),
})

__all__ = [
    "tokenize",
    "Token",
    "parse_program",
    "check_program",
    "TeapotError",
    "LexError",
    "ParseError",
    "CheckError",
]
