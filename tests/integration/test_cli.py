"""Integration tests for the command-line front end."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main

GOOD = """
class Cell<Owner o> { int v; Cell<o> next; }
(RHandle<r> h) {
    Cell<r> a = new Cell<r>;
    Cell b = new Cell;
    a.next = b;
    b.v = 42;
    print(b.v);
}
"""

BAD = """
class Cell<Owner o> { Cell<o> next; }
(RHandle<r1> h1) { (RHandle<r2> h2) {
    Cell<r1> outer = new Cell<r1>;
    Cell<r2> inner = new Cell<r2>;
    outer.next = inner;
} }
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.rtj"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.rtj"
    path.write_text(BAD)
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_well_typed(self, good_file):
        code, out, _err = run_cli("check", good_file)
        assert code == 0
        assert "well-typed" in out

    def test_ill_typed(self, bad_file):
        code, _out, err = run_cli("check", bad_file)
        assert code == 1
        assert "SUBTYPE" in err


class TestRun:
    def test_static_mode(self, good_file):
        code, out, _err = run_cli("run", good_file)
        assert code == 0
        assert out.strip() == "42"

    def test_dynamic_mode_with_stats(self, good_file):
        code, out, err = run_cli("run", "--dynamic-checks", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "assignment checks" in err

    def test_ill_typed_refuses_to_run(self, bad_file):
        code, _out, err = run_cli("run", bad_file)
        assert code == 1

    def test_runtime_failure_exit_code(self, tmp_path):
        path = tmp_path / "crash.rtj"
        path.write_text("{ int z = 0; print(1 / z); }")
        code, _out, err = run_cli("run", str(path))
        assert code == 2
        assert "runtime error" in err


    @pytest.mark.parametrize("flag,value", [
        ("--record-capacity", "0"), ("--record-capacity", "-5"),
        ("--record-sample", "0"), ("--record-sample", "every")])
    def test_rejects_out_of_range_recorder_options(self, good_file,
                                                   tmp_path, flag, value):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["run", good_file, "--record-out",
                  str(tmp_path / "f.jsonl"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer >= 1" \
            in err.getvalue()


class TestTranslate:
    def test_emits_java(self, good_file):
        code, out, _err = run_cli("translate", good_file)
        assert code == 0
        assert "class Cell" in out
        assert "MemoryArea" in out or "Memory" in out

    def test_strategies_flag(self, good_file):
        code, _out, err = run_cli("translate", "--strategies", good_file)
        assert code == 0
        assert "CURRENT_REGION" in err


class TestInferAndGraph:
    def test_infer_prints_annotated_program(self, good_file):
        code, out, _err = run_cli("infer", good_file)
        assert code == 0
        assert "Cell<r> b = new Cell<r>;" in out

    def test_graph_emits_dot(self, good_file):
        code, out, _err = run_cli("graph", good_file)
        assert code == 0
        assert out.startswith("digraph")
        assert "heap" in out


class TestLint:
    def test_lint_flags_redundant_heap(self, tmp_path):
        path = tmp_path / "sloppy.rtj"
        path.write_text(
            "class Cell<Owner o> { int v; Cell<o> next; }\n"
            "class M<Owner o> {\n"
            "  void go(Cell<o> c) accesses o, heap { c.next = null; }\n"
            "}\n")
        code, out, _err = run_cli("lint", str(path))
        assert code == 0
        assert "M.go" in out and "redundant" in out

    def test_lint_all_shows_clean_methods(self, good_file):
        code, out, _err = run_cli("lint", "--all", good_file)
        assert code == 0


class TestCompile:
    def test_compile_prints_erased_python(self, good_file):
        code, out, _err = run_cli("compile", good_file)
        assert code == 0
        assert "def run(rt):" in out
        assert "Owner" not in out

    def test_compile_execute_matches_run(self, good_file):
        code_c, out_c, _ = run_cli("compile", "--execute", good_file)
        code_r, out_r, _ = run_cli("run", good_file)
        assert code_c == code_r == 0
        assert out_c == out_r

    def test_compile_threaded_program_fails_cleanly(self, tmp_path):
        path = tmp_path / "threaded.rtj"
        path.write_text(
            "regionKind S extends SharedRegion { }\n"
            "class W<S r> { void go(RHandle<r> h) accesses r { } }\n"
            "(RHandle<S r> h) { fork (new W<r>).go(h); }")
        code, _out, err = run_cli("compile", str(path))
        assert code == 2
        assert "compile error" in err


class TestAnalysisCache:
    def test_run_with_cache_matches_plain_run(self, good_file, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code_a, out_a, _ = run_cli("run", "--analysis-cache", cache_dir,
                                   good_file)
        # second run replays from the saved disk cache
        code_b, out_b, _ = run_cli("run", "--analysis-cache", cache_dir,
                                   good_file)
        code_c, out_c, _ = run_cli("run", good_file)
        assert code_a == code_b == code_c == 0
        assert out_a == out_b == out_c
        assert (tmp_path / "cache" / "analysis-cache.json").exists()

    def test_ill_typed_diagnostics_unchanged_by_cache(self, bad_file,
                                                      tmp_path):
        cache_dir = str(tmp_path / "cache")
        code_a, _, err_a = run_cli("check", bad_file)
        code_b, _, err_b = run_cli("run", "--analysis-cache", cache_dir,
                                   bad_file)
        code_c, _, err_c = run_cli("run", "--analysis-cache", cache_dir,
                                   bad_file)
        assert code_a == 1 and code_b == 1 and code_c == 1
        # same error lines regardless of cache tier
        errors_a = [l for l in err_a.splitlines()
                    if l.startswith("error:")]
        errors_b = [l for l in err_b.splitlines()
                    if l.startswith("error:")]
        errors_c = [l for l in err_c.splitlines()
                    if l.startswith("error:")]
        assert errors_a == errors_b == errors_c

    def test_profile_accepts_cache_flag(self, good_file, tmp_path):
        code, out, _ = run_cli("profile", "--analysis-cache",
                               str(tmp_path / "c"), good_file)
        assert code == 0


class TestBenchFrontend:
    def test_frontend_suite_smoke(self, tmp_path):
        out_file = str(tmp_path / "bench.json")
        code, out, err = run_cli("bench", "--suite", "frontend",
                                 "--repeats", "1", "--out", out_file)
        assert code == 0
        assert "cold s" in out and "warm s" in out
        import json
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["schema"] == "repro-bench-frontend/1"
        assert set(payload["sizes"]) == {"5", "20", "40"}

    def test_frontend_suite_compare_detects_cold_regression(self,
                                                            tmp_path):
        from repro.bench import frontend
        payload = frontend.measure(sizes=[5], repeats=1)
        slower = {"schema": frontend.SCHEMA,
                  "sizes": {"5": dict(payload["sizes"]["5"])}}
        baseline = str(tmp_path / "base.json")
        # baseline claims we used to be 10x faster -> regression
        slower["sizes"]["5"]["cold_s"] = \
            payload["sizes"]["5"]["cold_s"] / 10.0
        frontend.save_payload(slower, baseline)
        code, _out, err = run_cli("bench", "--suite", "frontend",
                                  "--repeats", "1", "--compare", baseline)
        assert code == 3
        assert "regression" in err

    def test_only_flag_rejected_for_frontend(self):
        code, _out, err = run_cli("bench", "--suite", "frontend",
                                  "--only", "Array")
        assert code == 1
        assert "--only" in err


class TestBackendFlag:
    """--backend is shared by run/profile/bench/chaos (one parent
    parser); an explicit compiled backend implies the uninstrumented
    fast path unless an observability export needs live sinks."""

    def test_run_backend_py(self, good_file):
        code, out, err = run_cli("run", "--backend", "py", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "(py-fused)" in err

    def test_run_backend_c_chains_and_says_why(self, good_file):
        # default runs validate checks, which the C backend erases
        code, out, err = run_cli("run", "--backend", "c", "--stats",
                                 good_file)
        assert code == 0
        assert out.strip() == "42"
        assert "c unavailable" in err

    def test_run_backend_keeps_obs_exports_live(self, good_file,
                                                tmp_path):
        trace = str(tmp_path / "trace.json")
        code, _out, err = run_cli("run", "--backend", "py",
                                  "--trace-out", trace, "--stats",
                                  good_file)
        assert code == 0
        assert "(interp [py unavailable (instrumented run)])" in err

    def test_run_output_identical_across_backends(self, good_file):
        outputs = set()
        for backend in ("interp", "py", "c"):
            code, out, _err = run_cli("run", "--backend", backend,
                                      good_file)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("value", ["1e15", "inf", "nan", "0", "soon"])
    def test_serve_rejects_out_of_range_deadline(self, value):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["serve", "--deadline-ms", value])
        assert exc.value.code == 2
        assert "deadline_ms must be a number in (0, 3600000]" in \
            err.getvalue()

    def test_profile_accepts_backend(self, good_file):
        code, _out, _err = run_cli("profile", "--backend", "py",
                                   good_file)
        assert code == 0

    def test_bench_codegen_suite_and_gate(self, tmp_path):
        out_file = str(tmp_path / "bench.json")
        code, out, _err = run_cli("bench", "--suite", "codegen",
                                  "--only", "Array", "--backend", "py",
                                  "--repeats", "1",
                                  "--min-speedup", "0.01",
                                  "--out", out_file)
        assert code == 0
        assert "aggregate" in out
        import json
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["schema"] == "repro-bench-codegen/1"
        assert payload["divergences"] == []

    def test_bench_codegen_min_speedup_gate_fails_loud(self):
        code, _out, err = run_cli("bench", "--suite", "codegen",
                                  "--only", "Array", "--backend", "py",
                                  "--repeats", "1",
                                  "--min-speedup", "1000000")
        assert code == 3
        assert "codegen gate" in err

    def test_bench_codegen_rejects_interp_backend(self):
        code, _out, err = run_cli("bench", "--suite", "codegen",
                                  "--backend", "interp")
        assert code == 1
        assert "pick py or c" in err
