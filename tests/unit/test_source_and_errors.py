"""Unit tests for source positions/spans and the error hierarchy."""

import pytest

from repro.errors import (DeadlockError, IllegalAssignmentError,
                          InferenceError, InterpreterError, LexError,
                          MemoryAccessError, OutOfRegionMemoryError,
                          OwnershipTypeError, ParseError,
                          RealtimeViolationError, ReproError,
                          RuntimeCheckError, ScopedCycleError,
                          SimulatedNullPointerError, StaticError)
from repro.source import Position, Span, excerpt


class TestSpans:
    def test_str_formats(self):
        span = Span(Position(3, 7), Position(3, 12), "file.rtj")
        assert str(span) == "file.rtj:3:7"
        assert str(Position(1, 1)) == "1:1"

    def test_unknown_span(self):
        assert Span.unknown().start.line == 0

    def test_excerpt(self):
        text = "line one\nline two\nline three"
        span = Span(Position(2, 1), Position(2, 8))
        assert excerpt(text, span) == "line two"
        assert "line one" in excerpt(text, span, context=1)


class TestErrorHierarchy:
    def test_static_errors_are_repro_errors(self):
        for cls in (LexError, ParseError, OwnershipTypeError,
                    InferenceError):
            assert issubclass(cls, StaticError)
            assert issubclass(cls, ReproError)

    def test_runtime_check_errors(self):
        for cls in (IllegalAssignmentError, MemoryAccessError,
                    ScopedCycleError, OutOfRegionMemoryError,
                    RealtimeViolationError):
            assert issubclass(cls, RuntimeCheckError)
            assert issubclass(cls, ReproError)

    def test_interpreter_errors(self):
        assert issubclass(SimulatedNullPointerError, InterpreterError)
        assert issubclass(DeadlockError, ReproError)

    def test_static_error_carries_span_and_rule(self):
        span = Span(Position(5, 2), Position(5, 9), "x.rtj")
        err = OwnershipTypeError("bad", span, rule="EXPR NEW")
        assert err.rule == "EXPR NEW"
        assert "x.rtj:5:2" in str(err)
        assert "[EXPR NEW]" in str(err)

    def test_static_error_without_span(self):
        err = StaticError("oops")
        assert str(err) == "oops"
        assert err.span is None

    def test_one_catch_all(self):
        with pytest.raises(ReproError):
            raise IllegalAssignmentError("x")
        with pytest.raises(ReproError):
            raise ParseError("y")


class TestBenchSuiteModule:
    def test_get_benchmark(self):
        from repro.bench.suite import get_benchmark
        bench = get_benchmark("Array")
        assert bench.paper_overhead == 7.23
        with pytest.raises(KeyError):
            get_benchmark("Nope")

    def test_benchmark_source_params(self):
        from repro.bench.suite import get_benchmark
        bench = get_benchmark("Array")
        fast = bench.source(fast=True)
        custom = bench.source(n=7)
        assert "run(40)" in fast      # FAST_PARAMS n=40
        assert "run(7)" in custom

    def test_all_benchmarks_declare_paper_numbers(self):
        from repro.bench.suite import BENCHMARKS
        for bench in BENCHMARKS.values():
            assert bench.paper_loc > 0
            assert bench.paper_lines_changed > 0
            assert bench.kind in ("micro", "scientific", "pipeline",
                                  "server")

    def test_bench_main_fast(self, capsys):
        from repro.bench.__main__ import main
        assert main(["--fast", "--only", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Array" in out
