"""Front-end fuzzing: a mutated protocol source is refused or compiled.

Each input is a registered ``.tea`` source with one token dropped,
inserted or substituted.  Through ``parse_program`` -> ``check_program``
-> the compile step of ``compile_source``, every input must end in a
:class:`~repro.lang.errors.TeapotError` or a compiled protocol, never a
traceback; and whatever parses must print (``format_program``) to a
fixed point of parse-then-print.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_protocol
from repro.lang.errors import TeapotError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import format_program
from repro.lang.tokens import TokenKind
from repro.lang.typecheck import check_program
from repro.protocols import PROTOCOLS, load_protocol_source


def _spans(source: str) -> list:
    """Each token's source span, from its start to the next token's."""
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    starts = [line_starts[token.location.line - 1] + token.location.column - 1
              for token in tokenize(source)]
    return list(zip(starts, starts[1:]))


SOURCES = {name: load_protocol_source(name) for name in sorted(PROTOCOLS)}
SPANS = {name: _spans(source) for name, source in SOURCES.items()}
# Every spelling the sources use (string literals aside, which lex
# without their quotes), plus a few they never do.
WORDS = sorted({token.text for source in SOURCES.values()
                for token in tokenize(source)
                if token.kind not in (TokenKind.STRLIT, TokenKind.EOF)}
               | {'"', "'", "@", "#", "$", "0", "99999999999999999999999",
                  "_", "1x"})


@st.composite
def mutants(draw) -> str:
    name = draw(st.sampled_from(sorted(SOURCES)))
    source = SOURCES[name]
    start, end = draw(st.sampled_from(SPANS[name]))
    word = draw(st.sampled_from(WORDS))
    kind = draw(st.sampled_from(["drop", "insert", "substitute"]))
    if kind == "drop":
        return source[:start] + source[end:]
    if kind == "insert":
        return f"{source[:start]}{word} {source[start:]}"
    return f"{source[:start]}{word} {source[end:]}"


@settings(max_examples=60, deadline=None)
@given(mutants())
def test_mutated_source_is_refused_or_compiled(source):
    try:
        program = parse_program(source)
    except TeapotError:
        return
    printed = format_program(program)
    assert format_program(parse_program(printed)) == printed
    try:
        compile_protocol(check_program(program))
    except TeapotError:
        pass
