"""Unit tests for the deterministic cooperative scheduler."""

import pytest

from repro.errors import DeadlockError, InterpreterError
from repro.rtsj.regions import VT, RegionManager
from repro.rtsj.stats import Stats
from repro.rtsj.threads import Scheduler, SimThread


def charge(stats, cycles):
    """Charge ``cycles`` in place; True when the slice is over (the
    caller then yields, as interpreter code does)."""
    stats.cycles += cycles
    return stats.cycles >= stats.slice_end


def costs(stats, *values):
    """A coroutine charging the given costs."""
    def gen():
        for value in values:
            if charge(stats, value):
                yield
    return gen()


class TestBasicScheduling:
    def test_single_thread_runs_to_completion(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        sched.spawn(SimThread("t", costs(stats, 10, 20, 30)))
        sched.run()
        assert stats.cycles == 60
        assert stats.cycles_by_thread["t"] == 60

    def test_round_robin_between_threads(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=15)
        order = []

        def tracked(name, slices):
            for _ in range(slices):
                order.append(name)
                if charge(stats, 10):
                    yield
                yield  # yieldnow()

        sched.spawn(SimThread("a", tracked("a", 3)))
        sched.spawn(SimThread("b", tracked("b", 3)))
        sched.run()
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_quantum_preempts_long_slices(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=25)
        order = []

        def greedy(name):
            for _ in range(4):
                order.append(name)
                if charge(stats, 20):
                    yield

        sched.spawn(SimThread("a", greedy("a")))
        sched.spawn(SimThread("b", greedy("b")))
        sched.run()
        # quantum 25 = two 20-cycle ops per slice
        assert order == ["a", "a", "b", "b"] * 2

    def test_realtime_threads_run_first(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        order = []

        def tracked(name):
            order.append(name)
            if charge(stats, 5):
                yield

        sched.spawn(SimThread("regular", tracked("regular")))
        sched.spawn(SimThread("rt", tracked("rt"), realtime=True))
        sched.run()
        assert order == ["rt", "regular"]

    def test_max_cycles_guard(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100, max_cycles=500)

        def forever():
            while True:
                if charge(stats, 10):
                    yield

        sched.spawn(SimThread("loop", forever()))
        with pytest.raises(DeadlockError):
            sched.run()

    def test_thread_failure_propagates(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=100)

        def boom():
            if charge(stats, 5):
                yield
            raise InterpreterError("bang")

        sched.spawn(SimThread("bad", boom()))
        with pytest.raises(InterpreterError):
            sched.run()


class TestThreadExitSemantics:
    def test_dying_thread_releases_shared_regions(self):
        mgr = RegionManager()
        shared = mgr.create("s", "Shared", VT, 0, set())
        shared.thread_count = 2
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        t = SimThread("t", costs(stats, 1))
        t.shared_stack.append(shared)
        sched.spawn(t)
        sched.run()
        assert shared.thread_count == 1
        assert shared.live  # another thread still holds it

    def test_last_thread_destroys_top_level_shared_region(self):
        mgr = RegionManager()
        shared = mgr.create("s", "Shared", VT, 0, set())
        shared.thread_count = 1
        stats = Stats()
        sched = Scheduler(stats, quantum=100)
        t = SimThread("t", costs(stats, 1))
        t.shared_stack.append(shared)
        sched.spawn(t)
        sched.run()
        assert shared.thread_count == 0
        assert not shared.live

    def test_latency_metric_counts_from_spawn(self):
        stats = Stats()
        sched = Scheduler(stats, quantum=1000)
        sched.spawn(SimThread("warmup", costs(stats, 500)))
        late = SimThread("late", costs(stats, 1))
        sched.spawn(late)
        sched.run()
        # 'late' was spawned after warmup charged 0 cycles (spawn happens
        # before run); its dispatch latency is the warmup slice, not the
        # whole history of the machine
        assert late.max_dispatch_latency <= 500


class TestGCHook:
    def test_gc_pause_charged_and_regular_delayed(self):
        stats = Stats()
        fired = []

        def hook():
            if not fired:
                fired.append(True)
                return 1000
            return 0

        sched = Scheduler(stats, quantum=100, gc_hook=hook)
        rt = SimThread("rt", costs(stats, 10, 10), realtime=True)
        reg = SimThread("reg", costs(stats, 10, 10))
        sched.spawn(rt)
        sched.spawn(reg)
        sched.run()
        assert stats.cycles_by_thread["<gc>"] == 1000
        # the RT thread's dispatch clock was reset across the pause
        assert rt.max_dispatch_latency < 1000
