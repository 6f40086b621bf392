"""Edge cases of the time-slice protocol: where a slice ends.

A thread's slice ends once the cycles it was charged *inside the
quantum* reach the quantum, when it calls ``yieldnow()``, or when it
finishes.  Direct charges (region exits in ``finally`` blocks, which
cannot suspend) land on the clock but never count toward the quantum.
Each test below pins the exact slice log ``(thread, clock before,
clock after, done, thread.cycles)`` at one of the boundaries.
"""

import pytest

from repro import RunOptions, analyze
from repro.interp.machine import Machine, execute
from repro.rtsj.threads import Scheduler

#: a region whose exit charge (40 cycles) is followed by a loop long
#: enough to carry the slice past the boundary
REGION_LOOP = """
(RHandle<r> h) { int x = 1; x = x + 1; }
int y = 0;
while (y < 40) { y = y + 1; }
print(y);
"""

#: the same shape with heap churn, so the collector pauses between slices
REGION_GC = """
class Cell<Owner o> { int v; }
(RHandle<r> h) { int x = 1; x = x + 1; }
int y = 0;
while (y < 40) { Cell<heap> c = new Cell<heap>; y = y + 1; }
print(y);
"""

YIELDNOW = "int a = 1; a = a + 1; yieldnow(); a = a + 1; print(a);"


def _run(source, monkeypatch, **options):
    """Execute ``source``; return (result, machine, slice log, direct
    charges as (clock, cycles))."""
    log, directs = [], []
    run_slice = Scheduler._run_slice
    charge_direct = Machine.charge_direct

    def logged(self, thread):
        before = self.stats.cycles
        try:
            run_slice(self, thread)
        finally:
            log.append((thread.name, before, self.stats.cycles,
                        thread.done, thread.cycles))

    def counted(self, thread, cycles):
        directs.append((self.stats.cycles, cycles))
        charge_direct(self, thread, cycles)

    with monkeypatch.context() as patch:
        patch.setattr(Scheduler, "_run_slice", logged)
        patch.setattr(Machine, "charge_direct", counted)
        result, machine = execute(analyze(source), RunOptions(**options))
    return result, machine, log, directs


def _thread_cycles(stats):
    return sum(cycles for name, cycles in stats.cycles_by_thread.items()
               if name != "<gc>")


class TestDirectChargeOnTheBoundary:

    def _boundary(self, source, monkeypatch, **options):
        """The quantum at which the region-exit charge ends exactly on
        the first slice's deadline."""
        _, _, log, directs = _run(source, monkeypatch, quantum=10**6,
                                  **options)
        assert len(log) == 1 and len(directs) == 1
        clock, cycles = directs[0]
        return clock + cycles

    def test_exit_charge_on_the_deadline_does_not_end_the_slice(
            self, monkeypatch):
        quantum = self._boundary(REGION_LOOP, monkeypatch)
        assert quantum == 164
        result, _, log, directs = _run(REGION_LOOP, monkeypatch,
                                       quantum=quantum)
        assert directs == [(124, 40)]
        # the first slice runs a full quantum of charged work *after*
        # the 40 direct cycles: it ends at 164 + 40, not at 164
        assert log == [("main", 0, 204, False, 204),
                       ("main", 204, 368, False, 368),
                       ("main", 368, 414, True, 414)]
        assert result.stats.cycles_by_thread == {"main": 414}

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_neighbouring_quanta_shift_by_one(self, monkeypatch, delta):
        quantum = 164 + delta
        _, _, log, _ = _run(REGION_LOOP, monkeypatch, quantum=quantum)
        first = 204 + delta
        assert log[0] == ("main", 0, first, False, first)
        assert log[-1][2:] == (414, True, 414)

    def test_attribution_sums_to_cycles_minus_gc_pauses(self, monkeypatch):
        quantum = self._boundary(REGION_GC, monkeypatch,
                                 gc_trigger_bytes=64)
        assert quantum == 164
        result, machine, log, _ = _run(REGION_GC, monkeypatch,
                                       quantum=quantum,
                                       gc_trigger_bytes=64)
        stats = result.stats
        assert stats.gc_runs > 0
        assert log[0] == ("main", 0, 229, False, 229)
        assert log[-1] == ("main", 29885, 29898, True, 2894)
        assert len(log) == 15
        main = machine.scheduler.threads[0]
        assert main.cycles == stats.cycles_by_thread["main"] == 2894
        assert _thread_cycles(stats) == \
            stats.cycles - stats.gc_pause_cycles


class TestYieldnowOnTheBoundary:

    def test_yieldnow_alone_ends_one_slice(self, monkeypatch):
        _, _, log, _ = _run(YIELDNOW, monkeypatch, quantum=10**6)
        assert log == [("main", 0, 19, False, 19),
                       ("main", 19, 28, True, 28)]

    def test_charge_that_exhausts_the_quantum_gives_two_slice_ends(
            self, monkeypatch):
        # the thread_yield charge brings the slice to exactly 19 = the
        # quantum: the slice ends on the charge, and the yield itself
        # then ends a second, empty slice
        result, _, log, _ = _run(YIELDNOW, monkeypatch, quantum=19)
        assert log == [("main", 0, 19, False, 19),
                       ("main", 19, 19, False, 19),
                       ("main", 19, 28, True, 28)]
        assert result.stats.cycles_by_thread == {"main": 28}


@pytest.mark.parametrize("backend", ["py", "c"])
class TestMegaChargeAgainstTheBudget:
    """A compiled program charges its whole run at once; that charge
    ends the slice only when it reaches the remaining budget."""

    OPTIONS = dict(checks_enabled=False, validate=False, instrument=False)

    def _mega(self, backend, monkeypatch):
        result, machine, log, directs = _run(
            REGION_LOOP, monkeypatch, quantum=10**6, backend=backend,
            **self.OPTIONS)
        if machine.program is None or machine.program.backend == "interp":
            pytest.skip(f"{backend} backend unavailable")
        if backend == "c" and machine.program.backend != "c":
            pytest.skip("C toolchain unavailable")
        assert log == [("main", 0, 414, True, 414)]
        return result.stats.cycles - sum(c for _, c in directs)

    @pytest.mark.parametrize("offset,expected", [
        (1, [("main", 0, 414, True, 414)]),          # below the budget
        (0, [("main", 0, 414, False, 414),           # exactly at it
             ("main", 414, 414, True, 414)]),
        (-1, [("main", 0, 414, False, 414),          # above it
              ("main", 414, 414, True, 414)]),
    ])
    def test_thread_finishes_in_the_same_slice(self, backend, monkeypatch,
                                               offset, expected):
        mega = self._mega(backend, monkeypatch)
        assert mega == 374  # 414 minus the 40-cycle region exit
        result, machine, log, _ = _run(
            REGION_LOOP, monkeypatch, quantum=mega + offset,
            backend=backend, **self.OPTIONS)
        assert machine.program.backend in ("py-fused", "c")
        assert log == expected
        assert result.stats.cycles_by_thread == {"main": 414}
