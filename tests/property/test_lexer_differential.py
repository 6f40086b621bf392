"""Differential tests: the regex-driven ``tokenize`` against the
character-at-a-time reference :class:`~repro.lang.lexer.Lexer`.

For every generated input both lexers must produce the same token
kinds, texts and spans, or fail with the same ``LexError`` message and
span.  Inputs are token soups: words (keywords, unicode letters and
digits), numbers around the float/exponent edge cases, every operator
and a few stray characters, whitespace, and line/block comments,
including unterminated ``/*``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import KEYWORDS

WORDS = sorted(KEYWORDS) + [
    "x", "_", "_tmp", "héllo", "λ", "straße", "Ωmega", "x1", "x¹",
    "a٠", "Owner", "IntArray",
]

NUMBERS = [
    "0", "7", "42", "007", "1.", "1.5", "3.25", ".5", "1e", "1e5", "1E5",
    "1e+", "1e+5", "1e-5", "2E-10", "1.5e3", "1.5e", "1.5e+", "7.0E-2",
    "3.foo", "1..2", "1.e5", "12e3x",
]

PUNCT = [
    "(", ")", "{", "}", "<", ">", ",", ";", ".", ":", "=", "+", "-",
    "*", "/", "%", "!", "==", "!=", "<=", ">=", "&&", "||",
]

STRAY = ["&", "|", "$", "#", "@", "'", '"', "\\", "~", "?", "^", "[",
         "]", "\x0c", "\x00", "٠", "¹", "²", " ", "é"]

TRIVIA = [" ", "  ", "\t", "\n", "\r\n", "\n\n  ",
          "// line comment", "// x\n", "//\n", "/**/", "/* c */",
          "/* multi\nline */", "/* a * b / c */", "/***/", "/*/ x */",
          "/* never closed", "/*", "/*/"]

fragments = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(NUMBERS),
    st.sampled_from(PUNCT),
    st.sampled_from(TRIVIA),
    st.sampled_from(STRAY),
    st.integers(min_value=0, max_value=10 ** 12).map(str),
)

#: soups glue fragments with or without separators, so adjacency
#: (``1e`` + ``+5``, ``/`` + ``*``, ``x`` + ``¹``) gets exercised
soups = st.tuples(
    st.lists(fragments, max_size=40),
    st.sampled_from(["", " ", "\n"]),
).map(lambda parts: parts[1].join(parts[0]))

#: raw character strings over the lexer's interesting alphabet
raw = st.text(
    alphabet=st.sampled_from(
        list("abzAZ_09 \t\r\n/*+-.eE<>=!&|(){};,:%") + STRAY),
    max_size=60,
)


def outcome(scan):
    """``("ok", [(kind, text, span), ...])`` or ``("error", message,
    span)`` for one lexer run."""
    try:
        return ("ok", [(t.kind, t.text, t.span) for t in scan()])
    except LexError as err:
        return ("error", err.message, err.span)


def assert_same(source: str, filename: str = "<input>") -> None:
    fast = outcome(lambda: tokenize(source, filename))
    reference = outcome(lambda: Lexer(source, filename).tokens())
    assert fast == reference, source


@given(soups)
@settings(max_examples=400, deadline=None)
def test_token_soups_agree(source):
    assert_same(source)


@given(raw)
@settings(max_examples=400, deadline=None)
def test_raw_text_agrees(source):
    assert_same(source, "soup.rtj")


@given(soups, st.integers(1, 500), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_start_offset_shifts_spans(source, line, col):
    """A slice lexed at (line, col) gets the slice-relative spans moved
    there: every line by ``line - 1``, the first line's columns also by
    ``col - 1``."""
    def shift(pos):
        return (pos.line + line - 1,
                pos.column + (col - 1 if pos.line == 1 else 0))

    base = outcome(lambda: tokenize(source, "f"))
    moved = outcome(lambda: tokenize(source, "f", line, col))
    if base[0] == "error":
        assert moved[0] == "error" and moved[1] == base[1]
        spans = [(base[2], moved[2])]
    else:
        assert [t[:2] for t in moved[1]] == [t[:2] for t in base[1]]
        spans = [(a[2], b[2]) for a, b in zip(base[1], moved[1])]
    for old, new in spans:
        assert (new.start.line, new.start.column) == shift(old.start)
        assert (new.end.line, new.end.column) == shift(old.end)


def test_unterminated_comment_spans_the_opener():
    """Both lexers anchor an unterminated ``/*`` on the two opener
    characters, wherever the input ends."""
    for source in ("a /* never closed", "/*", "x\n  /* a\nb"):
        assert_same(source)
    err = outcome(lambda: tokenize("x\n  /* a\nb"))
    assert err[0] == "error"
    assert (err[2].start.line, err[2].start.column) == (2, 3)
    assert (err[2].end.line, err[2].end.column) == (2, 5)
