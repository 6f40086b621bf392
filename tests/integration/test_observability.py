"""Integration tests: the observability layer wired through a real
simulated run — traces, metrics exports, profiles, and the CLI flags."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main
from repro.core.api import analyze
from repro.interp.machine import Machine, RunOptions
from repro.obs import (FlightRecorder, build_report, spans_balanced,
                       to_prometheus, trace_lines)

#: a producer/consumer-style program (Figure 8 shape): two threads
#: hand frames through an LT subregion with a typed portal field
PROGRAM = """
regionKind BufRegion extends SharedRegion {
    BufSubRegion : LT(4096) NoRT b;
}
regionKind BufSubRegion extends SharedRegion {
    Frame<this> f;
}

class Frame { int data; }

class Producer<BufRegion r> {
    void run(RHandle<r> h, int frames) accesses r, heap {
        int i = 0;
        while (i < frames) {
            boolean placed = false;
            while (!placed) {
                (RHandle<BufSubRegion r2> h2 = h.b) {
                    if (h2.f == null) {
                        Frame frame = new Frame;
                        frame.data = i;
                        h2.f = frame;
                        placed = true;
                    }
                }
                yieldnow();
            }
            i = i + 1;
        }
    }
}

class Consumer<BufRegion r> {
    void run(RHandle<r> h, int frames) accesses r, heap {
        int got = 0;
        while (got < frames) {
            (RHandle<BufSubRegion r2> h2 = h.b) {
                Frame frame = h2.f;
                if (frame != null) {
                    h2.f = null;
                    print(frame.data);
                    got = got + 1;
                }
            }
            yieldnow();
        }
    }
}

(RHandle<BufRegion r> h) {
    fork (new Producer<r>).run(h, 3);
    fork (new Consumer<r>).run(h, 3);
}
"""


@pytest.fixture(scope="module")
def traced_machine():
    """A recorded run plus its ``--trace-out`` view (``machine.trace``:
    the parsed trace lines)."""
    analyzed = analyze(PROGRAM).require_well_typed()
    machine = Machine(analyzed, RunOptions(checks_enabled=True,
                                           record=True, quantum=300))
    machine.run()
    machine.trace = [json.loads(line) for line in
                     trace_lines(machine.recorder, analyzed.phase_seconds)]
    return machine


def _kinds(trace):
    out = {}
    for event in trace:
        out[event["kind"]] = out.get(event["kind"], 0) + 1
    return out


class TestTraceIntegration:
    def test_jsonl_trace_parses(self, traced_machine):
        assert len(traced_machine.trace) > 20
        for record in traced_machine.trace:
            assert {"cycle", "kind", "ph", "subject",
                    "thread"} <= set(record)

    def test_region_spans_nest(self, traced_machine):
        assert spans_balanced(traced_machine.trace)
        kinds = _kinds(traced_machine.trace)
        assert kinds["region-enter"] == kinds["region-exit"]
        assert kinds["region-enter"] >= 6  # >= one per handoff attempt

    def test_detailed_kinds_recorded(self, traced_machine):
        kinds = _kinds(traced_machine.trace)
        for kind in ("alloc", "check-assign", "region-created",
                     "thread-spawned", "thread-finished",
                     "checker-phase"):
            assert kinds.get(kind), f"missing '{kind}' events"

    def test_events_carry_thread_attribution(self, traced_machine):
        threads = {e["thread"] for e in traced_machine.trace
                   if e["kind"] == "region-enter"}
        assert "thread-1" in threads and "thread-2" in threads

    def test_events_between_is_time_ordered(self, traced_machine):
        from repro.tools.timeline import events_between
        stats = traced_machine.stats
        events = events_between(stats, 0, stats.cycles)
        assert events and all(len(e) == 3 for e in events)
        cycles = [cycle for cycle, _k, _s in events]
        assert cycles == sorted(cycles)

    def test_recording_off_by_default(self):
        from repro.tools.timeline import event_counts
        machine = Machine(analyze(PROGRAM).require_well_typed(),
                          RunOptions(quantum=300))
        machine.run()
        assert machine.recorder is None
        assert event_counts(machine.stats) == {}


class TestMetricsIntegration:
    def test_check_histogram_counts_match_stats(self, traced_machine):
        stats = traced_machine.stats
        hist = stats.metrics.get("repro_check_assign_cycles")
        assert hist.count == stats.assignment_checks
        assert hist.sum <= stats.check_cycles

    def test_prometheus_export_has_required_families(self,
                                                     traced_machine):
        text = to_prometheus(traced_machine.stats.metrics)
        for needle in ("repro_check_assign_cycles_count",
                       "repro_gc_pause_cycles_count",
                       "repro_region_peak_bytes",
                       "repro_thread_cycles",
                       "repro_dispatch_latency_cycles_bucket"):
            assert needle in text, f"missing '{needle}'"

    def test_region_watermark_values(self, traced_machine):
        gauge = traced_machine.stats.metrics.get(
            "repro_region_peak_bytes")
        by_region = {dict(key)["region"]: child.value
                     for key, child in gauge.children()}
        assert by_region["r.b"] > 0  # the buffer subregion saw frames

    def test_run_counters_mirrored(self, traced_machine):
        stats = traced_machine.stats
        assert stats.metrics.get("repro_run_cycles").value \
            == stats.cycles
        assert stats.metrics.get("repro_run_region_flushes").value \
            == stats.region_flushes


class TestProfileIntegration:
    def test_categories_attribute_at_least_95_percent(self,
                                                      traced_machine):
        machine = traced_machine
        report = build_report(machine.stats, machine.regions.areas)
        assert report.attributed_fraction >= 0.95
        assert report.categories["checks"] > 0
        assert report.categories["region"] > 0

    def test_per_region_rows(self, traced_machine):
        report = build_report(traced_machine.stats,
                              traced_machine.regions.areas)
        by_name = {r.name: r for r in report.regions}
        assert by_name["r.b"].allocations == 3  # one Frame per handoff
        assert by_name["r.b"].check_cycles > 0

    def test_per_site_rows_have_lines(self, traced_machine):
        report = build_report(traced_machine.stats,
                              traced_machine.regions.areas)
        assert report.sites
        assert all(s.line > 0 for s in report.sites)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "pc.rtj"
        path.write_text(PROGRAM)
        return str(path)

    def test_trace_and_metrics_out(self, program_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        prom = tmp_path / "m.prom"
        code, _out, _err = run_cli(
            "run", program_file, "--dynamic-checks",
            "--trace-out", str(trace), "--metrics-out", str(prom))
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"region-enter", "region-exit", "alloc",
                "check-assign", "checker-phase"} <= kinds
        # balanced spans, checked per thread straight off the file
        stacks = {}
        for r in records:
            stack = stacks.setdefault(r["thread"], [])
            if r["ph"] == "B":
                stack.append(r["subject"])
            elif r["ph"] == "E":
                assert stack.pop() == r["subject"]
        assert all(not s for s in stacks.values())
        text = prom.read_text()
        assert "repro_check_assign_cycles_count" in text
        assert "repro_gc_pause_cycles" in text
        assert "repro_region_peak_bytes" in text

    def test_trace_is_a_view_of_the_flight_record(self, program_file,
                                                  tmp_path):
        trace, dump = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
        code, _out, _err = run_cli(
            "run", program_file, "--dynamic-checks",
            "--trace-out", str(trace), "--record-out", str(dump),
            "--record-capacity", "8")
        assert code == 0
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        header, *records = [json.loads(line)
                            for line in dump.read_text().splitlines()]
        assert header["dropped"] > 0
        assert spans_balanced(events)
        assert events[-1]["kind"] == "trace-truncated"
        assert events[-1]["attrs"]["dropped"] == header["dropped"]
        # the trace replays the surviving records in order, dropping
        # only region exits whose entry the ring evicted
        viewed = [(e["cycle"], e["kind"], e["subject"]) for e in events
                  if e["thread"] not in ("<checker>", "<recorder>")]
        skipped, i = [], 0
        for r in records:
            if i < len(viewed) and viewed[i] == (r["cycle"], r["kind"],
                                                 r["subject"]):
                i += 1
            else:
                skipped.append(r["kind"])
        assert i == len(viewed)
        assert set(skipped) <= {"region-exit"}

    def test_stats_json(self, program_file):
        code, out, _err = run_cli("run", program_file, "--stats-json")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["mode"] == "static"
        for key in ("cycles", "region_enters", "objects_freed",
                    "peak_heap_bytes", "read_checks",
                    "cycles_by_thread", "region_flushes"):
            assert key in payload
        assert payload["region_flushes"] >= 3

    def test_profile_command(self, program_file):
        code, out, _err = run_cli("profile", program_file)
        assert code == 0
        assert "cycles by category" in out
        assert "per-region profile" in out
        assert "% attributed" in out or "attributed" in out

    def test_profile_json(self, program_file):
        code, out, _err = run_cli("profile", program_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["attributed_fraction"] >= 0.95
        assert set(payload["categories"]) == {
            "compute", "checks", "alloc", "region", "thread", "gc",
            "io"}

    def test_python_driver_extraction(self):
        from pathlib import Path
        example = (Path(__file__).resolve().parents[2] / "examples"
                   / "producer_consumer.py")
        code, out, _err = run_cli("run", str(example))
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_summary_includes_previously_missing_keys(self):
        from repro.interp.machine import run_source
        result = run_source(PROGRAM, RunOptions(quantum=300))
        summary = result.stats.summary()
        for key in ("region_enters", "objects_freed",
                    "peak_heap_bytes", "read_checks",
                    "cycles_by_thread"):
            assert key in summary
        assert summary["region_enters"] == result.stats.region_enters


class TestTimelineCoverage:
    def test_new_kinds_render_with_marks(self, traced_machine):
        from repro.tools.timeline import MARKS, render_timeline
        text = render_timeline(traced_machine.stats,
                               kinds=["region-enter", "region-exit",
                                      "alloc", "check-assign"])
        assert "region-enter" in text
        assert MARKS["region-enter"][0] == "["
        assert "legend" in text

    def test_legend_derived_from_marks_table(self):
        from repro.tools import timeline
        # every mark in the legend comes from the table — patch in a
        # kind and it shows up without touching the renderer
        stats_machine = Machine(analyze(PROGRAM).require_well_typed(),
                                RunOptions(quantum=300, record=True))
        stats_machine.run()
        text = timeline.render_timeline(stats_machine.stats)
        for kind in stats_machine.recorder.kinds():
            mark, desc = timeline.MARKS[kind]
            assert desc in text

    def test_unknown_kind_gets_fallback_mark_and_legend(self):
        from repro.rtsj.stats import Stats
        from repro.tools.timeline import UNKNOWN_MARK, render_timeline
        stats = Stats(recorder=FlightRecorder())
        stats.cycles = 10
        stats.recorder.record("mystery-kind", "x", cycle=10)
        text = render_timeline(stats)
        assert UNKNOWN_MARK in text
        assert "other" in text
