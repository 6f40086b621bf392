"""Unit tests for the observability layer: the trace view of the
flight record, metric instrument math, and exporter formats."""

import json
import sys
from pathlib import Path

import pytest

from repro.interp.machine import RunOptions, run_source
from repro.obs import (FlightRecorder, MetricsRegistry, ProfileCollector,
                       spans_balanced, to_prometheus, trace_lines)
from repro.obs.profile import build_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import TSTACK_SOURCE  # noqa: E402


def _trace(recorder, phase_seconds=None):
    return [json.loads(line)
            for line in trace_lines(recorder, phase_seconds)]


def _enter(recorder, subject, cycle, thread="main"):
    recorder.push("region-enter", subject, cycle=cycle, thread=thread)


def _exit(recorder, subject, cycle, thread="main"):
    recorder.pop("region-exit", subject, cycle=cycle, thread=thread)


class TestTraceProjection:
    """``trace_lines``: the ``--trace-out`` view of a flight record."""

    def test_records_in_order(self):
        recorder = FlightRecorder()
        recorder.record("a", "x", cycle=1)
        recorder.record("b", "y", cycle=5, thread="t1")
        lines = _trace(recorder)
        assert [(e["cycle"], e["kind"], e["subject"]) for e in lines] \
            == [(1, "a", "x"), (5, "b", "y")]
        assert lines[1]["thread"] == "t1"

    def test_checker_phases_lead_the_trace(self):
        recorder = FlightRecorder()
        recorder.record("gc", "run", cycle=3)
        lines = _trace(recorder, {"parse": 0.5, "classes": 0.25})
        assert [(e["kind"], e["subject"], e["thread"], e["cycle"])
                for e in lines[:2]] == [
            ("checker-phase", "parse", "<checker>", 0),
            ("checker-phase", "classes", "<checker>", 0)]
        assert lines[0]["attrs"] == {"seconds": 0.5}
        assert lines[2]["kind"] == "gc"

    def test_aborted_thread_spans_closed(self):
        recorder = FlightRecorder()
        _enter(recorder, "r1", 1, "t1")
        _enter(recorder, "r1.sub", 2, "t1")
        recorder.record("thread-aborted", "t1", cycle=9, thread="t1")
        lines = _trace(recorder)
        ends = [e for e in lines if e["ph"] == "E"]
        assert [e["subject"] for e in ends] == ["r1.sub", "r1"]
        assert all(e["kind"] == "region-exit" for e in ends)
        assert all(e["attrs"] == {"aborted": True} for e in ends)
        assert all(e["cycle"] == 9 for e in ends)
        # closed before the abort line, so the abort ends the thread
        assert lines[-1]["kind"] == "thread-aborted"
        assert spans_balanced(lines)

    def test_spans_left_open_closed_at_trace_end(self):
        recorder = FlightRecorder()
        _enter(recorder, "r", 4)
        recorder.record("alloc", "C -> r", cycle=6)
        lines = _trace(recorder)
        assert lines[-1]["ph"] == "E" and lines[-1]["cycle"] == 6
        assert lines[-1]["attrs"] == {"aborted": True}
        assert spans_balanced(lines)

    def test_evicted_begin_drops_its_end(self):
        recorder = FlightRecorder(capacity=3)
        _enter(recorder, "outer", 1)
        _enter(recorder, "inner", 2)
        _exit(recorder, "inner", 3)
        _exit(recorder, "outer", 4)   # evicts the outer region-enter
        lines = _trace(recorder)
        assert [(e["ph"], e["subject"]) for e in lines[:2]] \
            == [("B", "inner"), ("E", "inner")]
        assert lines[-1]["kind"] == "trace-truncated"
        assert spans_balanced(lines)

    def test_spans_balanced(self):
        recorder = FlightRecorder()
        _enter(recorder, "r", 1)
        _enter(recorder, "r.b", 2)
        _exit(recorder, "r.b", 3)
        _exit(recorder, "r", 4)
        assert spans_balanced(_trace(recorder))

    def test_spans_unbalanced_on_crossed_ends(self):
        recorder = FlightRecorder()
        _enter(recorder, "a", 1)
        _enter(recorder, "b", 2)
        _exit(recorder, "a", 3)
        lines = _trace(recorder)
        assert not spans_balanced(lines)
        assert not spans_balanced(lines[:-1])  # "a" never ended

    def test_spans_per_thread(self):
        recorder = FlightRecorder()
        _enter(recorder, "a", 1, "t1")
        _enter(recorder, "b", 2, "t2")
        _exit(recorder, "a", 3, "t1")
        _exit(recorder, "b", 4, "t2")
        assert spans_balanced(_trace(recorder))

    def test_trace_lines_are_json(self):
        recorder = FlightRecorder()
        recorder.record("gc", "run", cycle=7, attrs={"pause": 2000})
        lines = list(trace_lines(recorder))
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "cycle": 7, "kind": "gc", "ph": "i", "subject": "run",
            "thread": "main", "attrs": {"pause": 2000}}

    def test_truncation_marker_line(self):
        recorder = FlightRecorder(capacity=1)
        recorder.record("a", "x")
        recorder.record("b", "y")
        lines = _trace(recorder)
        assert [e["kind"] for e in lines] == ["b", "trace-truncated"]
        assert lines[-1]["attrs"] == {"dropped": 1, "capacity": 1}

    def test_wrapped_ring_trace_balanced_and_truncated(self):
        result = run_source(TSTACK_SOURCE,
                            RunOptions(record=True, record_capacity=8))
        recorder = result.stats.recorder
        assert recorder.dropped > 0
        lines = _trace(recorder)
        assert spans_balanced(lines)
        assert lines[-1]["kind"] == "trace-truncated"
        assert lines[-1]["attrs"]["dropped"] == recorder.dropped


class TestCountersAndGauges:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.labels(kind="a").inc(2)
        c.labels(kind="a").inc(1)
        assert c.labels(kind="a").value == 3
        assert c.value == 5  # default series unaffected

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c", "")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_watermark(self):
        g = MetricsRegistry().gauge("g", "")
        g.set(10)
        g.set_max(5)
        assert g.value == 10
        g.set_max(25)
        assert g.value == 25

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", "") is reg.counter("x", "")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", "")
        with pytest.raises(ValueError):
            reg.gauge("x", "")


class TestHistogram:
    def test_bucket_math(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "", buckets=(10, 20, 40))
        for v in (5, 10, 11, 39, 100):
            h.observe(v)
        child = h.labels()
        # non-cumulative: (<=10)=2, (<=20)=1, (<=40)=1, +Inf=1
        assert child.counts == [2, 1, 1, 1]
        assert child.cumulative() == [2, 3, 4, 5]
        assert child.sum == 165
        assert child.count == 5
        assert child.mean() == pytest.approx(33.0)

    def test_quantile_upper_bound(self):
        h = MetricsRegistry().histogram("h", "", buckets=(10, 20, 40))
        for v in (1, 2, 3, 15, 35):
            h.observe(v)
        assert h.labels().quantile(0.5) == 10.0
        assert h.labels().quantile(1.0) == 40.0
        assert h.labels().quantile(0.0) == 10.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", "", buckets=(5, 1))

    def test_labeled_series_independent(self):
        h = MetricsRegistry().histogram("h", "", buckets=(10,))
        h.labels(thread="a").observe(3)
        h.labels(thread="b").observe(30)
        assert h.labels(thread="a").count == 1
        assert h.labels(thread="a").counts == [1, 0]
        assert h.labels(thread="b").counts == [0, 1]


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_allocs_total", "allocations").inc(3)
        reg.gauge("repro_bytes", "bytes").labels(
            region="r.b", policy="LT").set(24)
        text = to_prometheus(reg)
        assert "# HELP repro_allocs_total allocations" in text
        assert "# TYPE repro_allocs_total counter" in text
        assert "repro_allocs_total 3" in text.splitlines()
        assert ('repro_bytes{policy="LT",region="r.b"} 24'
                in text.splitlines())

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_cost", "cost", buckets=(10, 20))
        for v in (5, 15, 99):
            h.observe(v)
        lines = to_prometheus(reg).splitlines()
        assert "# TYPE repro_cost histogram" in lines
        assert 'repro_cost_bucket{le="10"} 1' in lines
        assert 'repro_cost_bucket{le="20"} 2' in lines
        assert 'repro_cost_bucket{le="+Inf"} 3' in lines
        assert "repro_cost_sum 119" in lines
        assert "repro_cost_count 3" in lines

    def test_registered_but_unobserved_exports_zero_series(self):
        reg = MetricsRegistry()
        reg.histogram("repro_idle", "never touched", buckets=(1,))
        lines = to_prometheus(reg).splitlines()
        assert 'repro_idle_bucket{le="+Inf"} 0' in lines
        assert "repro_idle_count 0" in lines

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("g", "").labels(name='we"ird\\x').set(1)
        text = to_prometheus(reg)
        assert 'name="we\\"ird\\\\x"' in text

    def test_to_dict_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(2)
        reg.histogram("h", "", buckets=(10,)).observe(4)
        snapshot = json.loads(json.dumps(reg.to_dict()))
        assert snapshot["c"]["series"][0]["value"] == 2
        assert snapshot["h"]["series"][0]["buckets"]["10"] == 1
        assert snapshot["h"]["series"][0]["buckets"]["+Inf"] == 1


class TestProfileCollector:
    def test_alloc_and_check_accumulation(self):
        p = ProfileCollector()
        p.record_alloc(10, "r", 16)
        p.record_alloc(10, "r", 24)
        p.record_alloc(12, "heap", 16)
        p.record_check(11, "r", 32)
        p.record_check(11, "r", 36)
        assert p.alloc_sites[10] == [2, 40]
        assert p.alloc_sites[12] == [1, 16]
        assert p.region_alloc["r"] == [2, 40]
        assert p.check_sites[11] == [2, 68]
        assert p.region_check_cycles["r"] == 68

    def test_build_report_category_attribution(self):
        class FakeStats:
            cycles = 1000
            check_cycles = 100
            alloc_cycles = 200
            region_cycles = 150
            thread_cycles = 50
            gc_pause_cycles = 300
            io_cycles = 0
            cycles_by_thread = {"main": 1000}
            profile = ProfileCollector()

        report = build_report(FakeStats())
        assert report.total_cycles == 1000
        assert report.categories["compute"] == 200
        assert report.attributed_fraction == 1.0
        assert "compute" in report.format()


# ---------------------------------------------------------------------------
# Prometheus exposition round-trip (exporter fidelity)
# ---------------------------------------------------------------------------

def _parse_prometheus(text):
    """A minimal exposition-format parser: returns
    (help, types, samples) where samples maps
    (name, frozenset(labels.items())) -> float value."""
    import re
    help_text, types, samples = {}, {}, {}
    label_re = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            help_text[name] = (rest.replace("\\n", "\n")
                               .replace("\\\\", "\\"))
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unparsed comment: {line!r}"
        if "{" in line:
            name, _, rest = line.partition("{")
            body, _, value = rest.rpartition("} ")
            labels = {}
            for key, raw in label_re.findall(body):
                labels[key] = (raw.replace("\\\\", "\x00")
                               .replace('\\"', '"').replace("\\n", "\n")
                               .replace("\x00", "\\"))
        else:
            name, _, value = line.partition(" ")
            labels = {}
        samples[(name, frozenset(labels.items()))] = float(value)
    return help_text, types, samples


class TestPrometheusRoundTrip:
    HOSTILE = 'sp ace\\"quote\\back\nnew"line{brace}'

    def test_help_text_escaped_and_recovered(self):
        registry = MetricsRegistry()
        registry.counter("hostile_help",
                         'first\nsecond "quoted" back\\slash').inc()
        text = to_prometheus(registry)
        # the rendered exposition must stay line-oriented: the newline
        # in the help text may not produce an unparseable bare line
        for line in text.splitlines():
            assert line.startswith(("#", "hostile_help"))
        help_text, _, _ = _parse_prometheus(text)
        assert help_text["hostile_help"] \
            == 'first\nsecond "quoted" back\\slash'

    def test_hostile_label_values_roundtrip(self):
        registry = MetricsRegistry()
        registry.gauge("g", "h").labels(region=self.HOSTILE).set(7)
        text = to_prometheus(registry)
        _, _, samples = _parse_prometheus(text)
        key = ("g", frozenset({("region", self.HOSTILE)}))
        assert samples[key] == 7.0

    def test_counter_gauge_histogram_fidelity(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "count").labels(k="a").inc(3)
        registry.counter("c_total", "count").labels(k="b").inc(5)
        registry.gauge("g_bytes", "gauge").set(12.5)
        hist = registry.histogram("h_cycles", "hist", buckets=(1, 10, 100))
        for v in (0, 5, 5, 50, 500):
            hist.observe(v)
        help_text, types, samples = _parse_prometheus(
            to_prometheus(registry))
        assert types == {"c_total": "counter", "g_bytes": "gauge",
                         "h_cycles": "histogram"}
        assert help_text["h_cycles"] == "hist"
        assert samples[("c_total", frozenset({("k", "a")}))] == 3.0
        assert samples[("c_total", frozenset({("k", "b")}))] == 5.0
        assert samples[("g_bytes", frozenset())] == 12.5
        buckets = [samples[("h_cycles_bucket",
                            frozenset({("le", le)}))]
                   for le in ("1", "10", "100", "+Inf")]
        # cumulative buckets are monotone non-decreasing
        assert buckets == sorted(buckets)
        assert buckets == [1.0, 3.0, 4.0, 5.0]
        # +Inf bucket == _count; _sum matches the observations
        assert buckets[-1] == samples[("h_cycles_count", frozenset())]
        assert samples[("h_cycles_sum", frozenset())] == 560.0


class TestHistogramQuantiles:
    """p50/p95/p99 derived from buckets at export time (no collection
    cost beyond what the buckets already paid)."""

    def test_quantiles_dict_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10, 100, 1000))
        for v in [5] * 50 + [50] * 45 + [500] * 5:
            h.observe(v)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99"}
        assert q["p50"] == 10.0   # 50th obs lands in the <=10 bucket
        assert q["p95"] == 100.0
        assert q["p99"] == 1000.0

    def test_quantiles_merge_across_children(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10, 100))
        for _ in range(99):
            h.labels(region="a").observe(5)
        h.labels(region="b").observe(50)
        q = h.quantiles()
        assert q["p50"] == 10.0
        assert q["p99"] == 10.0

    def test_empty_histogram_has_no_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", buckets=(10,))
        assert h.quantiles() == {}

    def test_prometheus_export_emits_quantile_lines(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q", "help", buckets=(10, 100))
        for v in (5, 5, 50):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'repro_q{quantile="0.5"} 10.0' in text
        assert 'repro_q{quantile="0.99"} 100.0' in text
        # the summary-style lines sit between buckets and _sum/_count
        assert text.index("_bucket") < text.index('quantile="0.5"') \
            < text.index("repro_q_sum")

    def test_stats_summary_includes_quantiles(self):
        from repro.rtsj.stats import Stats
        stats = Stats()
        h = stats.metrics.histogram("repro_check_cycles",
                                    buckets=(10, 100))
        h.observe(5)
        summary = stats.summary()
        assert summary["quantiles"]["repro_check_cycles"]["p50"] == 10.0
        # deterministic: derived from simulated data only
        assert summary["quantiles"] == stats.quantile_summary()


class TestLabelCardinalityGuard:
    """The per-metric label-set cap: overflow folds into "<other>" and
    counts drops instead of growing without bound."""

    def test_overflow_folds_into_other(self):
        from repro.obs.metrics import (LABELS_DROPPED_METRIC,
                                       OVERFLOW_LABEL_VALUE)
        reg = MetricsRegistry(max_label_sets=4)
        counter = reg.counter("repro_sites")
        for i in range(10):
            counter.labels(site=f"s{i}").inc()
        keys = [dict(key) for key, _ in counter.children()]
        assert len(keys) == 5  # 4 real + 1 overflow
        assert {"site": OVERFLOW_LABEL_VALUE} in keys
        overflow = counter.labels(site=OVERFLOW_LABEL_VALUE)
        assert overflow.value == 6  # the 6 folded observations
        drops = reg.counter(LABELS_DROPPED_METRIC)
        assert drops.labels(metric="repro_sites").value == 6

    def test_existing_series_keep_updating_past_cap(self):
        reg = MetricsRegistry(max_label_sets=2)
        counter = reg.counter("repro_sites")
        counter.labels(site="a").inc()
        counter.labels(site="b").inc()
        counter.labels(site="c").inc()   # folded
        counter.labels(site="a").inc(5)  # existing: not folded
        assert counter.labels(site="a").value == 6

    def test_drop_counter_is_exempt_from_its_own_cap(self):
        from repro.obs.metrics import LABELS_DROPPED_METRIC
        reg = MetricsRegistry(max_label_sets=1)
        for i in range(5):
            reg.counter(f"repro_m{i}").labels(x="a").inc()
            reg.counter(f"repro_m{i}").labels(x="b").inc()  # folded
        drops = reg.counter(LABELS_DROPPED_METRIC)
        # one real child per overflowing metric, never folded itself
        assert len(list(drops.children())) == 5

    def test_unlabeled_series_never_fold(self):
        reg = MetricsRegistry(max_label_sets=1)
        gauge = reg.gauge("repro_g")
        gauge.labels(a="1").set(1)
        gauge.set(7)  # the unlabeled default child
        assert gauge.labels().value == 7


class TestTraceSampling:
    """The recorder's always-on tier, seen through the trace: high-volume
    records thin 1-in-N, spans and lifecycle never, overhead
    self-measured."""

    def test_high_volume_records_sampled(self):
        recorder = FlightRecorder(sample=4)
        for i in range(10):
            recorder.record("alloc", f"s{i}", cycle=i)
        stored = [e for e in _trace(recorder) if e["kind"] == "alloc"]
        assert len(stored) == 3  # events 1, 5, 9
        assert recorder.sampled_out == 7

    def test_spans_never_sampled(self):
        recorder = FlightRecorder(sample=100)
        for i in range(5):
            _enter(recorder, f"r{i}", i)
            _exit(recorder, f"r{i}", i + 1)
        lines = _trace(recorder)
        assert len(lines) == 10
        assert spans_balanced(lines)
        assert recorder.sampled_out == 0

    def test_lifecycle_records_never_sampled(self):
        recorder = FlightRecorder(sample=100)
        for i in range(5):
            recorder.record("gc", f"run{i}", cycle=i)
        assert len(_trace(recorder)) == 5

    def test_sample_stride_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(sample=0)

    def test_trace_lines_appends_sampled_marker(self):
        recorder = FlightRecorder(sample=2)
        for i in range(4):
            recorder.record("check-read", f"s{i}", cycle=i,
                            attrs={"cycles": 1})
        marker = [e for e in _trace(recorder)
                  if e["kind"] == "trace-sampled"]
        assert len(marker) == 1
        assert marker[0]["attrs"] == {"sampled_out": 2, "sample": 2}

    def test_overhead_accumulates(self):
        recorder = FlightRecorder()
        for i in range(200):
            recorder.record("a", f"x{i}", cycle=i)
        assert recorder.overhead_s > 0.0


class TestParsePrometheus:
    """The library parser: exact inverse of to_prometheus, used by the
    CI scrape-validation job."""

    def test_round_trip_samples(self):
        from repro.obs import parse_prometheus
        reg = MetricsRegistry()
        reg.counter("repro_c", "a counter").labels(kind="x").inc(3)
        reg.gauge("repro_g", "a gauge").set(2.5)
        h = reg.histogram("repro_h", "a hist", buckets=(10, 100))
        h.observe(5)
        help_text, types, samples = parse_prometheus(to_prometheus(reg))
        assert types == {"repro_c": "counter", "repro_g": "gauge",
                         "repro_h": "histogram"}
        assert samples[("repro_c", (("kind", "x"),))] == 3.0
        assert samples[("repro_g", ())] == 2.5
        assert samples[("repro_h_bucket", (("le", "10"),))] == 1.0
        assert samples[("repro_h_count", ())] == 1.0

    def test_hostile_label_values_round_trip(self):
        from repro.obs import parse_prometheus
        hostile = 'a"b\\c\nd'
        reg = MetricsRegistry()
        reg.counter("repro_c").labels(site=hostile).inc()
        _, _, samples = parse_prometheus(to_prometheus(reg))
        assert samples[("repro_c", (("site", hostile),))] == 1.0

    def test_malformed_lines_raise(self):
        from repro.obs import parse_prometheus
        with pytest.raises(ValueError):
            parse_prometheus("repro_c_no_value\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_c not-a-number\n")

    def test_snapshot_render_matches_live_render(self):
        from repro.obs import parse_prometheus, snapshot_to_prometheus
        reg = MetricsRegistry()
        reg.counter("repro_c", "c help").labels(kind="x").inc(3)
        h = reg.histogram("repro_h", "h help", buckets=(10, 100))
        for v in (5, 50, 500):
            h.observe(v)
        snapshot = json.loads(json.dumps(reg.to_dict()))
        live = parse_prometheus(to_prometheus(reg))
        rendered = parse_prometheus(snapshot_to_prometheus(snapshot))
        # same samples modulo the live render's derived quantile lines
        live_samples = {k: v for k, v in live[2].items()
                        if not any(lk == "quantile"
                                   for lk, _ in k[1])}
        assert rendered[2] == live_samples
