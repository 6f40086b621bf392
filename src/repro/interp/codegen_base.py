"""Shared plumbing for the codegen backends.

The lowering layer (:mod:`repro.interp.lower`) produces backend-neutral
facts; this module holds the pieces the concrete emitters
(:mod:`repro.interp.codegen_py`, :mod:`repro.interp.codegen_c`) share:

* :class:`SourceWriter` — an indentation-tracking line buffer (every
  backend emits textual source and ``compile()``/``cc``-compiles it);
* :class:`CodegenUnsupported` — "this backend cannot compile this
  program/configuration"; the orchestrator (``machine.execute``)
  catches it and falls back to the next-most-capable backend, so
  raising it is always safe and never user-visible as a failure;
* name mangling and literal baking helpers;
* the cost-model cache key (generated code bakes cost constants into
  its text, so the compiled-source cache must key on them);
* :func:`compile_generated`, which turns generated Python that the
  host compiler rejects into a :class:`CodegenUnsupported`.

Compiled artifacts are cached on the ``AnalyzedProgram`` itself
(``analyzed.artifacts``), so they are freed with it.

Nothing here knows about Python-vs-C specifics.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..rtsj.stats import CostModel

#: fields of CostModel baked into generated code, in cache-key order
COST_FIELDS = (
    "op_basic", "op_local", "op_field_read", "op_field_write",
    "op_invoke", "op_return", "op_branch", "op_builtin",
    "alloc_base", "alloc_per_byte", "vt_alloc_extra", "vt_chunk_cost",
    "heap_alloc_extra", "region_create", "lt_prealloc_per_byte",
    "region_enter", "region_exit", "portal_read", "portal_write",
    "thread_spawn", "thread_yield",
    "check_assign_base", "check_assign_per_level", "check_read_base",
    "gc_base", "gc_per_live_object", "gc_per_dead_object",
)


class CodegenUnsupported(Exception):
    """The backend cannot compile this program or run configuration.

    Raising this is a *routing* signal, not an error: the machine falls
    back to a more capable backend (``c`` -> ``py`` -> interpreter) and
    the run proceeds with identical observable behaviour.
    """


def cost_key(cost: CostModel) -> Tuple[int, ...]:
    """Cache key over every cost constant the emitters bake in."""
    return tuple(getattr(cost, name) for name in COST_FIELDS)


def compile_generated(src: str, filename: str) -> Any:
    """``compile()`` generated module text.  Source that hits one of the
    host compiler's fixed limits (100 indentation levels, 20 statically
    nested blocks, its recursion limit) raises CodegenUnsupported, so
    the run falls back with that reason recorded."""
    try:
        return compile(src, filename, "exec")
    except (SyntaxError, RecursionError) as exc:
        raise CodegenUnsupported(
            f"generated source does not compile: "
            f"{type(exc).__name__}: {exc}") from None


def mangle(name: str) -> str:
    """A Python/C-safe identifier fragment for a source-language name."""
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append(f"_{ord(ch):x}_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "_" + text
    return text


def bake(value: Any) -> str:
    """Literal text for a compile-time constant embedded in generated
    source.  Covers the value domain of the core language (plus None)."""
    if value is None:
        return "None"
    if value is True:
        return "True"
    if value is False:
        return "False"
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    raise CodegenUnsupported(f"cannot bake constant {value!r}")


class SourceWriter:
    """Indentation-tracking line buffer shared by the emitters."""

    __slots__ = ("lines", "depth", "_indent")

    def __init__(self, indent: str = "    ") -> None:
        self.lines: List[str] = []
        self.depth = 0
        self._indent = indent

    def emit(self, text: str = "") -> None:
        if text:
            self.lines.append(self._indent * self.depth + text)
        else:
            self.lines.append("")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        assert self.depth > 0
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"
