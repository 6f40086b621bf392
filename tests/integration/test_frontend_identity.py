"""The frontend's output is pinned: ASTs with every span, and every
diagnostic, over the eight paper programs and a seeded corpus.

``tests/data/frontend_golden.json`` holds, per input, a digest of the
parsed AST (all dataclass fields, spans included, even those excluded
from ``==``), a digest of the AST after analysis (defaults and
inference applied), and the diagnostics: the lex/parse error, or every
type error's rule, message and span.  Any change to how tokens, spans
or nodes are built must reproduce it exactly.  Analyses through an
``AnalysisCache`` (first fill, then replay) must match the plain ones.

Regenerate the golden file only for an intended change of frontend
output::

    PYTHONPATH=src python -m tests.integration.test_frontend_identity
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from typing import Any, Dict, List

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core.api import analyze
from repro.core.cache import AnalysisCache
from repro.errors import StaticError
from repro.lang.parser import parse_program
from repro.source import Position, Span

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent / "data"
               / "frontend_golden.json")

FILENAME = "corpus.rtj"
CORPUS_SEED = 20031
CORPUS_SIZE = 60


def dump(value: Any) -> Any:
    """A JSON-able rendering of an AST that keeps every field."""
    if isinstance(value, Span):
        return ["span", value.filename, *value.start, *value.end]
    if isinstance(value, Position):
        return ["pos", *value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [f.name, dump(getattr(value, f.name))]
            for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [dump(v) for v in value]
    if isinstance(value, dict):
        return [[dump(k), dump(v)] for k, v in sorted(value.items())]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return ["?", type(value).__name__, str(value)]


def digest(value: Any) -> str:
    text = json.dumps(dump(value), sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def span_key(span: Any) -> Any:
    return None if span is None else dump(span)


def snapshot(source: str, cache: Any = None) -> Dict[str, Any]:
    """What the frontend makes of ``source``."""
    try:
        parsed = parse_program(source, FILENAME)
        analyzed = analyze(source, FILENAME, cache=cache)
    except StaticError as err:
        return {"error": [type(err).__name__, err.message,
                          span_key(err.span)]}
    return {"parsed": digest(parsed),
            "analyzed": digest(analyzed.program),
            "diagnostics": [[e.rule, str(e), span_key(e.span)]
                            for e in analyzed.errors]}


# ---------------------------------------------------------------------------
# seeded corpus
# ---------------------------------------------------------------------------

BINOPS = ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=",
          "&&", "||"]
TRIVIA = [" ", " ", " ", "\n", "\n    ", "  ", "\t", " /* c */ ",
          " // note\n", "\n\n", " /* two\n lines */ "]


def _expr(rng: random.Random, depth: int, names: List[str]) -> List[str]:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        leaf = rng.choice([str(rng.randint(0, 999)),
                           f"{rng.randint(0, 99)}.{rng.randint(0, 99)}",
                           "1.5e3", "true", "false", "null",
                           *names])
        return [leaf]
    if roll < 0.55:
        return (_expr(rng, depth - 1, names) + [rng.choice(BINOPS)]
                + _expr(rng, depth - 1, names))
    if roll < 0.65:
        return [rng.choice(["-", "!"])] + _expr(rng, depth - 1, names)
    if roll < 0.75:
        return ["("] + _expr(rng, depth - 1, names) + [")"]
    if roll < 0.82:
        return (["sqrt", "("] + _expr(rng, depth - 1, names) + [")"])
    if roll < 0.9:
        return ["k", ".", "f"]
    args = _expr(rng, depth - 1, names) + [","] + _expr(
        rng, depth - 1, names)
    return ["k", ".", "m", "("] + args + [")"]


def _stmts(rng: random.Random, depth: int, names: List[str]
           ) -> List[str]:
    out: List[str] = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            name = f"v{rng.randint(0, 9)}"
            out += ["int", name, "="] + _expr(rng, 3, names) + [";"]
        elif roll < 0.45 and depth > 0:
            out += ["if", "("] + _expr(rng, 2, names) + [")", "{"]
            out += _stmts(rng, depth - 1, names) + ["}"]
            if rng.random() < 0.5:
                out += ["else", "if", "(", "x", ">", "1", ")", "{"]
                out += _stmts(rng, depth - 1, names) + ["}"]
            if rng.random() < 0.5:
                out += ["else", "{"] + _stmts(rng, depth - 1, names)
                out += ["}"]
        elif roll < 0.55 and depth > 0:
            out += ["while", "(", "x", "<", "3", ")", "{"]
            out += _stmts(rng, depth - 1, names) + ["x", "=", "x", "+",
                                                    "1", ";", "}"]
        elif roll < 0.65:
            out += ["k", ".", "f", "="] + _expr(rng, 2, names) + [";"]
        elif roll < 0.75:
            out += ["K", "<", "r", ">", "q", "=", "new", "K", "<", "r",
                    ">", ";"]
        else:
            out += ["print", "("] + _expr(rng, 3, names) + [")", ";"]
    return out


def corpus_tokens(rng: random.Random) -> List[str]:
    """One program as a token list: a class with a method, and a main
    block that allocates in a region."""
    toks = ["class", "K", "<", "Owner", "o", ">", "{", "int", "f", ";",
            "K", "<", "o", ">", "next", ";",
            "int", "m", "(", "int", "a", ",", "int", "b", ")", "{"]
    toks += ["int", "x", "=", "a", ";", "K", "<", "o", ">", "k", "=",
             "this", ";"]
    toks += _stmts(rng, 2, ["a", "b", "x"])
    toks += ["return"] + _expr(rng, 3, ["a", "b", "x"]) + [";", "}", "}"]
    toks += ["(", "RHandle", "<", "r", ">", "h", ")", "{", "K", "<", "r",
             ">", "k", "=", "new", "K", "<", "r", ">", ";", "int", "x",
             "=", "2", ";"]
    toks += _stmts(rng, 3, ["x", "k.f"]) + ["}"]
    return toks


def corpus() -> Dict[str, str]:
    """Seeded programs, each joined with random trivia; every third one
    loses a random token, so parse diagnostics are covered too."""
    rng = random.Random(CORPUS_SEED)
    out: Dict[str, str] = {}
    for i in range(CORPUS_SIZE):
        toks = corpus_tokens(rng)
        if i % 3 == 2:
            del toks[rng.randrange(len(toks))]
        text = toks[0]
        for tok in toks[1:]:
            text += rng.choice(TRIVIA) + tok
        out[f"gen{i:02d}"] = text
    return out


def inputs() -> Dict[str, str]:
    out = {f"paper-{name}": bench.source()
           for name, bench in sorted(BENCHMARKS.items())}
    out.update(corpus())
    return out


def golden() -> Dict[str, Any]:
    return {name: snapshot(source) for name, source in inputs().items()}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
INPUTS = inputs()


def test_golden_covers_every_input():
    assert sorted(GOLDEN) == sorted(INPUTS)
    assert sum("error" in g for g in GOLDEN.values()) >= 5
    assert sum(bool(g.get("diagnostics")) for g in GOLDEN.values()) >= 5


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_frontend_output_matches_golden(name):
    assert snapshot(INPUTS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cached_analysis_matches_plain(name):
    source = INPUTS[name]
    cache = AnalysisCache()
    plain = snapshot(source)
    assert snapshot(source, cache) == plain  # fill
    assert snapshot(source, cache) == plain  # replay


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
