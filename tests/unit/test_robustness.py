"""Robustness regression tests: manager-scoped area ids, structured
handling of crashing threads, graceful degradation, and the error paths
of the simulated runtime (budget exhaustion, illegal stores, portal
flush conditions, metrics export after a failed run)."""

import sys
from pathlib import Path

import pytest

from repro import RunOptions, analyze, run_source
from repro.errors import (IllegalAssignmentError, OutOfMemoryError,
                          OutOfRegionMemoryError, SanitizerViolation,
                          ThreadCrashError)
from repro.faults import FaultPlan
from repro.interp.machine import Machine, RecoveryPolicy
from repro.rtsj.regions import LT, MemoryArea, RegionManager
from repro.rtsj.stats import Stats
from repro.rtsj.threads import Scheduler, SimThread

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from conftest import TSTACK_SOURCE, assert_well_typed  # noqa: E402


class TestAreaIdScoping:
    """Area ids come from the owning RegionManager, not a process-global
    counter — two runs of the same program must produce identical ids
    (replayable fault schedules key on deterministic state)."""

    def test_fresh_managers_hand_out_identical_ids(self):
        def id_sequence():
            manager = RegionManager()
            created = [manager.create(f"r{i}", "K", LT, 1024, set())
                       for i in range(5)]
            return ([manager.heap.area_id, manager.immortal.area_id]
                    + [area.area_id for area in created])

        assert id_sequence() == id_sequence()

    def test_two_runs_of_one_program_use_identical_ids(self):
        analyzed = assert_well_typed(TSTACK_SOURCE)

        def area_ids():
            machine = Machine(analyzed, RunOptions())
            machine.run()
            return sorted(a.area_id for a in machine.regions.areas)

        assert area_ids() == area_ids()

    def test_adhoc_areas_cannot_collide_with_manager_ids(self):
        # areas built without a manager draw from a distant fallback
        # range, so mixing ad-hoc areas into a managed run cannot alias
        adhoc = MemoryArea("loose", "K", LT, 64)
        assert adhoc.area_id >= 1 << 20


def _costs_then(stats, effect, *costs):
    """A coroutine that charges ``costs`` then runs ``effect``."""
    def gen():
        for cost in costs:
            stats.cycles += cost
            if stats.cycles >= stats.slice_end:
                yield
        effect()
    return gen()


def _noop():
    pass


class TestCrashingThreads:
    """A host-level exception inside one simulated thread must surface
    as a structured ThreadCrashError, never abandon the run queue, and
    always bring thread/region state back down."""

    def _boom(self):
        raise ValueError("boom")

    def test_fail_stop_wraps_crash_in_diagnostic(self):
        scheduler = Scheduler(Stats())
        scheduler.spawn(SimThread(
            "bad", _costs_then(scheduler.stats, self._boom, 10)))
        with pytest.raises(ThreadCrashError) as exc:
            scheduler.run()
        err = exc.value
        assert err.thread == "bad"
        assert err.cycle is not None
        assert "ValueError" in str(err)
        assert err.diagnostic()["cause"] == "ValueError"

    def test_fail_stop_still_finishes_every_thread(self):
        scheduler = Scheduler(Stats(), quantum=50)
        scheduler.spawn(SimThread(
            "bad", _costs_then(scheduler.stats, self._boom, 10)))
        scheduler.spawn(SimThread(
            "slow", _costs_then(scheduler.stats, _noop, *[40] * 20)))
        with pytest.raises(ThreadCrashError):
            scheduler.run()
        assert all(t.done for t in scheduler.threads)

    def test_crash_releases_shared_regions(self):
        scheduler = Scheduler(Stats())
        shared = MemoryArea("shared", "K", LT, 1024)
        shared.thread_count = 1
        thread = SimThread("bad",
                           _costs_then(scheduler.stats, self._boom, 5))
        thread.shared_stack.append(shared)
        scheduler.spawn(thread)
        with pytest.raises(ThreadCrashError):
            scheduler.run()
        assert shared.thread_count == 0

    def test_degrade_mode_keeps_draining_the_queue(self):
        done = []
        scheduler = Scheduler(Stats(), quantum=50, degrade=True)
        scheduler.spawn(SimThread(
            "bad", _costs_then(scheduler.stats, self._boom, 10)))
        scheduler.spawn(SimThread(
            "worker", _costs_then(scheduler.stats, lambda: done.append(1),
                                  *[40] * 10)))
        scheduler.run()  # must not raise
        assert done == [1]
        diags = scheduler.diagnostics
        assert len(diags) == 1
        assert isinstance(diags[0], ThreadCrashError)
        assert diags[0].thread == "bad"
        assert scheduler.stats.threads_aborted == 1

    def test_degrade_mode_collects_simulated_failures_too(self):
        def overflow():
            raise OutOfRegionMemoryError("LT budget exhausted")

        scheduler = Scheduler(Stats(), degrade=True)
        scheduler.spawn(SimThread(
            "rt", _costs_then(scheduler.stats, overflow, 5)))
        scheduler.run()
        assert len(scheduler.diagnostics) == 1
        assert isinstance(scheduler.diagnostics[0],
                          OutOfRegionMemoryError)

    def test_sanitizer_violations_stay_fatal_in_degrade_mode(self):
        def corrupt():
            raise SanitizerViolation("O1-forest", "r", "cycle detected")

        scheduler = Scheduler(Stats(), degrade=True)
        scheduler.spawn(SimThread(
            "bad", _costs_then(scheduler.stats, corrupt, 5)))
        with pytest.raises(SanitizerViolation):
            scheduler.run()
        assert scheduler.diagnostics == []


LT_OVERFLOW = """
class C<Owner o> { int a; int b; int c; int d; }
{ (RHandle<LocalRegion : LT(48) r> h) {
    C<r> one = new C<r>;
    C<r> two = new C<r>;
} }
"""

DANGLING_STORE = """
class Cell<Owner o> { int v; Cell<o> next; }
(RHandle<r1> h1) {
    Cell<r1> outer = new Cell<r1>;
    (RHandle<r2> h2) {
        Cell<r2> inner = new Cell<r2>;
        outer.next = inner;
    }
}
"""

PORTAL_FLUSH = """
regionKind Buf extends SharedRegion {
    Sub : LT(4096) NoRT b;
}
regionKind Sub extends SharedRegion {
    Frame<this> f;
}
class Frame { int data; }
(RHandle<Buf r> h) {
    (RHandle<Sub r2> h2 = h.b) {
        Frame frame = new Frame;
        frame.data = 7;
        h2.f = frame;
    }
    (RHandle<Sub r2> h2 = h.b) {
        Frame back = h2.f;
        if (back != null) { print(back.data); }
        h2.f = null;
    }
    (RHandle<Sub r2> h2 = h.b) {
        if (h2.f == null) { print(0); }
    }
}
"""


class TestErrorPaths:
    def test_lt_exhaustion_names_its_site(self):
        analyzed = assert_well_typed(LT_OVERFLOW)
        with pytest.raises(OutOfRegionMemoryError) as exc:
            run_source(analyzed, RunOptions())
        err = exc.value
        assert err.site == "lt_alloc"
        assert not err.injected
        assert "48" in str(err)
        diag = err.diagnostic()
        assert diag["type"] == "OutOfRegionMemoryError"
        assert diag["thread"] == "main"
        assert diag["cycle"] is not None

    def test_vt_chunk_denial_is_out_of_memory(self):
        # organic VT allocation is unbounded; denial comes from the
        # fault plane, and with spilling disabled it must surface as a
        # structured OutOfMemoryError naming the site
        plan = FaultPlan(seed=0, rate=1.0, sites=("vt_chunk",))
        options = RunOptions(
            fault_plan=plan,
            recovery=RecoveryPolicy(max_retries=0, vt_spill=False))
        with pytest.raises(OutOfMemoryError) as exc:
            run_source(assert_well_typed(TSTACK_SOURCE), options)
        assert exc.value.site == "vt_chunk"
        assert exc.value.injected

    def test_illegal_assignment_message_names_regions(self):
        analyzed = analyze(DANGLING_STORE)
        assert analyzed.errors  # statically rejected, as expected
        with pytest.raises(IllegalAssignmentError) as exc:
            run_source(analyzed, RunOptions(checks_enabled=True),
                       require_well_typed=False)
        message = str(exc.value)
        assert "r1" in message and "r2" in message

    def test_portal_null_is_a_flush_condition(self):
        # a non-null portal pins the subregion across re-entries;
        # nulling it lets the exit flush the region (Section 2.2)
        result = run_source(assert_well_typed(PORTAL_FLUSH),
                            RunOptions())
        assert result.output == ["7", "0"]
        assert result.stats.region_flushes >= 1

    def test_metrics_still_export_after_failed_run(self):
        machine = Machine(assert_well_typed(LT_OVERFLOW), RunOptions())
        with pytest.raises(OutOfRegionMemoryError):
            machine.run()
        registry = machine.stats.metrics
        cycles = registry.get("repro_run_cycles")
        assert cycles is not None
        assert cycles.value == machine.stats.cycles > 0
        assert registry.get("repro_region_peak_bytes") is not None
