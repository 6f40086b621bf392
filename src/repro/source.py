"""Source positions and spans for diagnostics.

Every AST node and diagnostic carries a :class:`Span` so that type errors
point back at the offending line of the core-language program, exactly the
way the paper's checker reports errors against Java source.  Tokens carry
only their start coordinates; ``Token.span`` derives a span on demand.

Both classes are ``NamedTuple``s rather than frozen dataclasses: the parser
creates a span per node, and tuple construction is several times cheaper
than a frozen-dataclass ``__init__`` (which goes through
``object.__setattr__`` per field).  They remain immutable, hashable, and
structurally comparable; ordering a :class:`Position` compares
``(line, column)`` lexicographically.
"""

from __future__ import annotations

from typing import NamedTuple


class Position(NamedTuple):
    """A single point in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span(NamedTuple):
    """A contiguous range of source text, used to anchor diagnostics."""

    start: Position
    end: Position
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    @staticmethod
    def unknown() -> "Span":
        return Span(Position(0, 0), Position(0, 0), "<unknown>")


def excerpt(text: str, span: Span, context: int = 0) -> str:
    """Return the source line(s) covered by ``span`` for error messages."""
    lines = text.splitlines()
    lo = max(span.start.line - 1 - context, 0)
    hi = min(span.end.line + context, len(lines))
    return "\n".join(lines[lo:hi])
