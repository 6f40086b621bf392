"""Token definitions for the core language."""

from __future__ import annotations

from enum import Enum, auto, unique
from typing import NamedTuple

from ..source import Position, Span


@unique
class TokenKind(Enum):
    # literals / identifiers
    IDENT = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()

    # keywords
    CLASS = auto()
    EXTENDS = auto()
    WHERE = auto()
    OWNS = auto()
    OUTLIVES = auto()
    REGION_KIND = auto()      # 'regionKind'
    ACCESSES = auto()
    NEW = auto()
    NULL = auto()
    TRUE = auto()
    FALSE = auto()
    THIS = auto()
    IF = auto()
    ELSE = auto()
    WHILE = auto()
    RETURN = auto()
    FORK = auto()
    RT = auto()
    STATIC = auto()
    INT = auto()
    FLOAT = auto()
    BOOLEAN = auto()
    VOID = auto()
    RHANDLE = auto()          # 'RHandle'
    HEAP = auto()
    IMMORTAL = auto()
    INITIAL_REGION = auto()   # 'initialRegion'
    LT = auto()
    VT = auto()
    NORT = auto()             # 'NoRT'

    # punctuation
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LANGLE = auto()
    RANGLE = auto()
    COMMA = auto()
    SEMI = auto()
    DOT = auto()
    COLON = auto()
    ASSIGN = auto()

    # operators
    EQ = auto()
    NE = auto()
    LE = auto()
    GE = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    AND_AND = auto()
    OR_OR = auto()
    BANG = auto()

    EOF = auto()

    # Members are singletons compared by identity.  The identity hash
    # keeps the parser's kind-keyed table lookups in C; Enum's own
    # __hash__ is a Python-level call.
    __hash__ = object.__hash__


KEYWORDS = {
    "class": TokenKind.CLASS,
    "extends": TokenKind.EXTENDS,
    "where": TokenKind.WHERE,
    "owns": TokenKind.OWNS,
    "outlives": TokenKind.OUTLIVES,
    "regionKind": TokenKind.REGION_KIND,
    "accesses": TokenKind.ACCESSES,
    "new": TokenKind.NEW,
    "null": TokenKind.NULL,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "this": TokenKind.THIS,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "return": TokenKind.RETURN,
    "fork": TokenKind.FORK,
    "RT": TokenKind.RT,
    "static": TokenKind.STATIC,
    "int": TokenKind.INT,
    "float": TokenKind.FLOAT,
    "boolean": TokenKind.BOOLEAN,
    "void": TokenKind.VOID,
    "RHandle": TokenKind.RHANDLE,
    "heap": TokenKind.HEAP,
    "immortal": TokenKind.IMMORTAL,
    "initialRegion": TokenKind.INITIAL_REGION,
    "LT": TokenKind.LT,
    "VT": TokenKind.VT,
    "NoRT": TokenKind.NORT,
}

# Names of the built-in owner kinds (Figure 4).  They are lexed as plain
# identifiers and resolved by the parser/kind layer so user code may still
# use them as (discouraged) variable names.
BUILTIN_KIND_NAMES = frozenset({
    "Owner", "ObjOwner", "Region", "GCRegion", "NoGCRegion",
    "LocalRegion", "SharedRegion",
})


_new = tuple.__new__


class Token(NamedTuple):
    """One lexed token as a single flat tuple.

    The lexer builds one per token with ``tuple.__new__`` (no
    Python-level ``__new__`` frame, no nested position tuples); the
    parser reads the start coordinates directly when it builds node
    spans.  A token never spans lines, so its end column is
    ``column + len(text)`` and :attr:`span` is derived on demand."""

    kind: TokenKind
    text: str
    line: int
    column: int
    filename: str

    @property
    def span(self) -> Span:
        _, text, line, column, filename = self
        return _new(Span, (_new(Position, (line, column)),
                           _new(Position, (line, column + len(text))),
                           filename))

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
