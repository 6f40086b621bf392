"""``check``: time to a verdict.

A seeded stream of never-seen programs is analysed cold through
``repro.core.api.analyze``: synthesised multi-class programs (5 to 60
classes), the eight paper programs with seeded parameters, and
known-bad mutants.  After each cold analysis one seeded one-class edit
of a 30-class program is re-analysed against a warm ``AnalysisCache``.
Nothing is lowered or executed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from . import gen
from .common import (BenchError, Meter, Outcome, Spans, median, percentile,
                     typical)

#: frontend phases reported by ``analyze`` (``phase_seconds`` keys) and
#: the per-layer metric each becomes
PHASES = {"tables": "core.tables_ms", "infer": "core.infer_ms",
          "wellformed": "core.wellformed_ms",
          "region-kinds": "core.region_kinds_ms",
          "classes": "core.classes_ms", "main-block": "core.main_block_ms"}


def verdict(analyzed: Any) -> List[List[Any]]:
    """The ``(rule, line)`` list of an analysis, comparable with the
    generator's expectation."""
    return [[e.rule, e.span.start.line if e.span is not None else None]
            for e in analyzed.errors]


def traced_analyze(spans: Spans, op: Any, source: str,
                   parent: Optional[Dict[str, Any]] = None) -> Any:
    """Cold analysis with one span per layer call: ``lang.tokenize``,
    ``lang.parse_program``, then ``core.analyze`` on the parsed program
    with its ``phase_seconds`` as child intervals."""
    from repro.core.api import analyze
    from repro.lang import Parser, tokenize
    root = spans.begin("frontend", op, parent)
    span = spans.begin("lang.tokenize", op, root)
    tokens = tokenize(source)
    spans.end(span)
    span = spans.begin("lang.parse_program", op, root)
    program = Parser(tokens, "<input>", source).parse_program()
    spans.end(span)
    span = spans.begin("core.analyze", op, root)
    analyzed = analyze(program)
    spans.end(span)
    add_phases(spans, op, span, analyzed.phase_seconds)
    spans.end(root)
    root["tokens"] = len(tokens)
    return analyzed


def add_phases(spans: Spans, op: Any, parent: Dict[str, Any],
               phase_seconds: Dict[str, float],
               prefix: str = "core.") -> None:
    """Lay the frontend's own phase laps out as consecutive children of
    ``parent`` (``PhaseClock`` laps are consecutive by construction)."""
    at = parent["start"]
    for phase, secs in phase_seconds.items():
        spans.add(prefix + phase, op, parent, at, secs)
        at += secs


def frontend_layers(spans: Spans, out: Outcome) -> None:
    """``lang.*`` and ``core.*`` per-layer metrics from recorded spans:
    median self time per call, tokens per tokenize second."""
    selfs = spans.self_times()
    tok = selfs.get("lang.tokenize", [])
    tokens = sum(s.get("tokens", 0) for s in spans.spans
                 if s["name"] == "frontend")
    out.put("lang.tokenize_ms", median(tok) * 1e3, "ms")
    out.put("lang.parse_ms",
            median(selfs.get("lang.parse_program", [])) * 1e3, "ms")
    out.put("lang.tokens_per_s", tokens / sum(tok) if sum(tok) else 0.0,
            "1/s")
    for phase, metric in PHASES.items():
        out.put(metric, median(selfs.get(f"core.{phase}", [])) * 1e3,
                "ms")


class Workload:
    name = "check"

    def __init__(self, seed: int, rundir: Any, traced: bool,
                 meter: Meter) -> None:
        self.seed = seed
        self.meter = meter
        self.spans = Spans() if traced else None
        #: traced run: total [untraced, traced] time of the paired
        #: cold analyses
        self.paired = [0.0, 0.0]

    def setup(self, seconds: float) -> None:
        from repro.core.api import analyze
        from repro.core.cache import AnalysisCache
        tick = self.meter.tick
        gen.verify_pins(self.name)
        tick()
        # warm-up over a disjoint seed: one block of cold analyses and a
        # few edits, so interning and memo tables start each run alike
        warm = f"{gen.WARMUP_SALT}-{self.seed}"
        for item in gen.check_block(warm, 0):
            analyze(item["source"])
            tick()
        session = gen.EditSession(warm)
        cache = AnalysisCache()
        analyze(session.text(), cache=cache)
        for _ in range(4):
            analyze(session.next_edit(), cache=cache)
            tick()
        # the edit session of the timed phase, warmed on its base text
        self.session = gen.EditSession(self.seed)
        self.cache = AnalysisCache()
        base = analyze(self.session.text(), cache=self.cache)
        if base.errors:
            raise BenchError("edit base program is not well-typed")
        self.block = 0
        self.items = gen.check_block(self.seed, 0)
        tick()

    def _next_item(self) -> Dict[str, Any]:
        if not self.items:
            self.block += 1
            self.items = gen.check_block(self.seed, self.block)
        return self.items.pop(0)

    def _cold(self, n: int, source: str) -> Tuple[Any, float]:
        """One cold analysis; in the traced run it is done twice,
        traced and untraced in alternating order, for the overhead."""
        from repro.core.api import analyze
        if self.spans is None:
            return self.meter.time(analyze, source)
        for traced in (True, False) if n % 2 else (False, True):
            if traced:
                analyzed, took = self.meter.time(traced_analyze, self.spans,
                                                 n, source)
            else:
                _, took = self.meter.time(analyze, source)
            self.paired[traced] += took
        return analyzed, 0.0

    def _edit(self, n: int, source: str) -> Tuple[Any, float]:
        from repro.core.api import analyze
        if self.spans is None:
            return self.meter.time(
                lambda: analyze(source, cache=self.cache))
        span = self.spans.begin("core.analyze_cached", n)
        analyzed = analyze(source, cache=self.cache)
        self.spans.end(span)
        add_phases(self.spans, n, span, analyzed.phase_seconds,
                   prefix="core.edit.")
        return analyzed, 0.0

    def measure(self, seconds: float, out: Outcome) -> None:
        from repro.errors import ReproError
        cold: Dict[Any, List[float]] = {}
        edits: List[float] = []
        cache_counts = {"replay_hits": 0, "check_misses": 0}
        errors = 0
        fallbacks0 = self.cache.stats.fallbacks
        n = 0
        busy0 = self.meter.ref
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            item = self._next_item()
            try:
                analyzed, took = self._cold(n, item["source"])
                cold.setdefault((item["kind"], item["size"]),
                                []).append(took)
                got = verdict(analyzed)
                errors += len(got)
                out.op(got == item["expect"],
                       f"{item['kind']} {item['size']}: errors {got} != "
                       f"expected {item['expect']}")
            except ReproError as err:
                out.op(False, f"{item['kind']} {item['size']}: raised "
                              f"{type(err).__name__}: {err}")
            n += 1
            try:
                analyzed, took = self._edit(n, self.session.next_edit())
                edits.append(took)
                for key in cache_counts:
                    cache_counts[key] += (analyzed.cache_stats or {}).get(
                        key, 0)
                out.op(analyzed.well_typed,
                       f"edit {n}: {analyzed.error_rules()}")
            except ReproError as err:
                out.op(False, f"edit {n}: raised {err}")
        self.meter.tick()
        out.notes.append(f"{n} cold analyses, {len(edits)} edits, "
                         f"{self.block + 1} blocks started")
        if self.spans is None:
            out.put("ops_per_s", (out.attempted - out.failed)
                    / (self.meter.ref - busy0), "1/s")
            pooled = [t for ts in cold.values() for t in ts]
            out.put("p50_ms", typical(cold) * 1e3, "ms")
            out.put("p95_ms", percentile(pooled, 0.95) * 1e3, "ms")
            out.put("hit_p50_ms", median(edits) * 1e3, "ms")
            out.notes.append(f"p50 over {len(cold)} input classes, p95 "
                             f"over {len(pooled)} cold analyses, "
                             f"hit_p50 over {len(edits)} edits")
            return
        frontend_layers(self.spans, out)
        out.put("core.errors", errors, "count")
        hits = cache_counts["replay_hits"]
        misses = cache_counts["check_misses"]
        out.put("core.cache.check_hits", hits, "count")
        out.put("core.cache.check_misses", misses, "count")
        out.put("core.cache.hit_ratio",
                hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out.put("core.cache.fallbacks",
                self.cache.stats.fallbacks - fallbacks0, "count")
        out.put("obs.tracing_overhead",
                self.paired[True] / self.paired[False] - 1.0, "ratio")

    def close(self) -> None:
        pass
